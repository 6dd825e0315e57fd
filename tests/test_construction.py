"""Cone extension: predicted counts, verification checks, worked examples."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from math import prod

import pytest

from flagshift import (
    ColoredComplex,
    EMPTY_FACE,
    Face,
    FlagVector,
    MAX_COLORS,
    TooManyColorsError,
    Vertex,
    cone,
    cone_extension,
    down_set_faces,
    enumerate_all_colored_complexes,
    enumerate_color_shifted_complexes,
    find_color_shifted_with_flag,
    flag_f,
    is_color_shifted,
    select_colors,
    shift_closure,
    shift_maximal_faces,
    trivial_complex,
    union,
    verify_cone_extension,
    verify_uniqueness,
)
from flagshift import emit_complex, oracle
from flagshift.construction import ConstructionReport, VerificationResult
from flagshift.complexes import _record_grids
from flagshift.flags import colors_of_mask, subset_masks

from helpers import (
    brute_record,
    cold_grids,
    edge2,
    face,
    reference_cone_extension,
    reference_emit_complex,
    staircase,
    without_color,
)


# ===================================================================
# worked example: one shift-maximal face
# ===================================================================

def test_extension_of_sample_a(sample_a):
    extended, report = cone_extension(sample_a)
    assert extended.num_colors == 3
    assert len(extended) == 12
    assert report.base_colors == 2
    assert report.apex_count == 1
    assert report.total_colors == 3
    assert report.shift_maximal == (edge2(2, 1),)
    assert report.apexes == (Vertex(3, 1),)
    assert report.predicted_singletons == (3,)
    assert report.predicted_edges == ((1, 3, 2), (2, 3, 1))
    assert flag_f(extended) == FlagVector(
        3,
        {
            (): 1,
            (1,): 2,
            (2,): 1,
            (3,): 1,
            (1, 2): 2,
            (1, 3): 2,
            (2, 3): 1,
            (1, 2, 3): 2,
        },
        kind="f",
    )
    assert report.predicted_flag == flag_f(extended)


def test_extension_of_sample_a_face_detail(sample_a):
    extended, _ = cone_extension(sample_a)
    apex = Vertex(3, 1)
    assert face((3, 1)) in extended
    assert face((2, 1), (3, 1)) in extended
    assert face((1, 2), (2, 1), (3, 1)) in extended
    # the apex cones the whole principal down-set, nothing else
    for f in extended.faces:
        if apex in f.vertices:
            assert without_color(f, 3) in sample_a.faces


# ===================================================================
# worked example: two shift-maximal faces
# ===================================================================

def test_extension_of_sample_b(sample_b):
    extended, report = cone_extension(sample_b)
    assert extended.num_colors == 4
    assert len(extended) == 20
    assert report.shift_maximal == (edge2(1, 2), edge2(2, 1))
    assert report.apexes == (Vertex(3, 1), Vertex(4, 1))
    assert report.predicted_singletons == (3, 4)
    assert report.predicted_edges == (
        (1, 3, 1),
        (2, 3, 2),
        (1, 4, 2),
        (2, 4, 1),
    )
    fv = flag_f(extended)
    assert fv.count((3,)) == 1 and fv.count((4,)) == 1
    assert fv.count((3, 4)) == 0
    assert report.predicted_flag == fv


def test_extension_apexes_never_share_a_face(sample_b):
    extended, report = cone_extension(sample_b)
    apex_colors = set(report.predicted_singletons)
    for f in extended.faces:
        assert len(apex_colors.intersection(f.colors)) <= 1


# ===================================================================
# degenerate and small bases
# ===================================================================

def test_extension_of_the_one_face_complex():
    extended, report = cone_extension(trivial_complex(0))
    assert report.total_colors == 1
    assert extended.faces == frozenset([EMPTY_FACE, face((1, 1))])


def test_extension_of_padded_trivial_complex():
    extended, report = cone_extension(trivial_complex(2))
    assert report.total_colors == 3
    assert report.apexes == (Vertex(3, 1),)
    assert extended.faces == frozenset([EMPTY_FACE, face((3, 1))])


def test_extension_rejects_the_empty_complex():
    from flagshift import empty_complex

    with pytest.raises(ValueError, match="empty"):
        cone_extension(empty_complex(2))


def test_extension_rejects_unshifted_input():
    c = ColoredComplex(
        2,
        [EMPTY_FACE, face((1, 1)), face((1, 2)), face((2, 1)), face((1, 2), (2, 1))],
    )
    with pytest.raises(ValueError, match="color-shifted"):
        cone_extension(c)


def test_extension_fills_the_color_limit():
    extended, report = cone_extension(staircase(MAX_COLORS - 2))
    assert report.total_colors == extended.num_colors == MAX_COLORS


def test_extension_fails_fast_past_the_color_limit(monkeypatch):
    import flagshift.construction as construction

    def no_face(*_args):
        raise AssertionError("the extension was built before the limit check")

    delta = staircase(15)
    monkeypatch.setattr(construction.Face, "_raw", no_face)
    with pytest.raises(TooManyColorsError, match=r"n=2 .*k=15 .*n\+k=17 .*at most 16$"):
        cone_extension(delta)
    assert issubclass(TooManyColorsError, ValueError)


def test_extension_matches_the_face_by_face_reference(enumerated_corpus):
    """The one-pass extension equals the union of cones over principal
    down-sets, report and all, and its closed-form record is the record
    read off the reference's faces, on every small complex, staircase
    and the complex with 600 vertices of each of two colors."""
    for c in [*enumerated_corpus, *(staircase(k) for k in range(2, 15)), WIDE]:
        got = cone_extension(c)
        want = reference_cone_extension(c)
        assert got == want, c
        assert repr(got[1]) == repr(want[1])
        assert got[0]._record == brute_record(want[0]), c


STAIRCASES = [staircase(k) for k in range(2, 15)]
WIDE = shift_closure(2, [face((1, 600)), face((2, 600)), edge2(1, 1)])
# color 2 unused, so an apex of color 2 lies between a face's colors
GAPPED = shift_closure(3, [face((1, 2), (3, 1))])


def _built_internally(small):
    """Face families the package builds without a validating constructor,
    over the given small complexes and the staircases k = 2..14: the
    extension, uniqueness and flag searches, both enumerations, cone,
    select_colors, union, down_set_faces, shift_closure, subfaces, and
    the decoding of records into faces, over whole grids.  Each
    item is an iterable of faces.  The staircases' own flag vectors take
    millions of nodes to reach a second witness, so the flag search runs
    on `small` only."""
    for c in small:
        for w in find_color_shifted_with_flag(c).witnesses:
            yield w.faces
    for c in [*small, *STAIRCASES]:
        n = c.num_colors
        extended, _ = cone_extension(c)
        yield extended.faces
        for w in verify_uniqueness(c).outcome.witnesses:
            yield w.faces
        yield cone(c, (n + 1, 1)).faces
        yield select_colors(extended, range(1, n + 1)).faces
        yield select_colors(extended, range(2, extended.num_colors + 1)).faces
        yield union(c, extended).faces
        maximal = shift_maximal_faces(extended)
        for m in maximal:
            yield down_set_faces(m)
            yield m.subfaces()
        closure = shift_closure(extended.num_colors, maximal)
        assert closure == extended
        yield closure.faces
    yield cone(GAPPED, (2, 1)).faces
    for c in enumerate_color_shifted_complexes(2, [3, 3]):
        yield c.faces
    for c in enumerate_all_colored_complexes(2, [2, 2]):
        yield c.faces
    for t in [(2, 3), (2, 2, 2), (1, 3, 2)]:
        # the complex of every rainbow face: each grid full
        full = {
            mask: (1 << prod(t[c - 1] for c in colors_of_mask(mask))) - 1
            for mask in subset_masks(len(t))
        }
        yield ColoredComplex._raw(len(t), None, full).sorted_faces()


def test_unvalidated_faces_are_the_constructor_faces(enumerated_corpus):
    """Every face the package builds without validation holds Vertex
    values and equals the validated Face of its vertices, on every small
    complex and staircase."""
    given = [*enumerated_corpus, *STAIRCASES]
    for faces in [*(c.faces for c in given), *_built_internally(enumerated_corpus)]:
        for f in faces:
            assert all(type(v) is Vertex for v in f.vertices), f.vertices
            assert f == Face(f.vertices), f.vertices


def test_internal_paths_call_no_validating_constructor(monkeypatch, enumerated_corpus):
    """With Face.__init__ and FlagVector.__init__ made to raise, every
    internal producer still runs: the package validates only what comes
    from outside, emission of every extension included.  The grid
    cache is cleared first, so grid faces are built under the patch."""

    def no_init(*_args, **_kwargs):
        raise AssertionError("an internal path called a validating constructor")

    cold_grids()
    monkeypatch.setattr(Face, "__init__", no_init)
    monkeypatch.setattr(FlagVector, "__init__", no_init)
    built = sum(1 for faces in _built_internally(enumerated_corpus) for _ in faces)
    given = [*enumerated_corpus, *STAIRCASES]
    emitted = [emit_complex(cone_extension(c)[0]) for c in given]
    monkeypatch.undo()
    assert built > 0 and len(emitted) == len(given)


def test_extension_builds_no_face(monkeypatch):
    """Construction stays proportional to the maximal faces: on a complex
    whose two vertex colors have 600 vertices each, it builds no layer
    grid and no face at all; verification reads the faces decoded from
    its record."""
    import flagshift.complexes as complexes

    def no_grid(*_args):
        raise AssertionError("a layer grid was built")

    def no_init(*_args):
        raise AssertionError("a face was built through the validating constructor")

    delta = WIDE
    assert len(delta) == 1202
    made = []
    raw = complexes.Face._raw

    def counted_raw(cls, vertices):
        made.append(vertices)
        return raw(vertices)

    monkeypatch.setattr(complexes, "_layer_geometry", no_grid)
    monkeypatch.setattr(complexes.Face, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(complexes.Face, "__init__", no_init)
    extended, report = cone_extension(delta)
    monkeypatch.undo()
    assert report.total_colors == 5
    assert made == [] and extended._faces is None
    assert len(extended) - len(delta) == 601 + 601 + 4
    assert verify_cone_extension(delta, extended, report).ok


def test_second_emission_builds_no_face(monkeypatch, enumerated_corpus):
    """Emitting an extension reads its record: once the text memos hold
    its grids' layers, emitting it again builds no Face, even with the
    face memos cleared, and leaves its face set unbuilt."""
    import flagshift.complexes as complexes

    made = []
    raw = complexes.Face._raw

    def counted_raw(cls, vertices):
        made.append(vertices)
        return raw(vertices)

    extensions = [cone_extension(c)[0] for c in [*enumerated_corpus, *STAIRCASES]]
    cold_grids()
    monkeypatch.setattr(complexes.Face, "_raw", classmethod(counted_raw))
    for e in extensions:
        first = emit_complex(e)
        for _, geo in _record_grids(e._record):
            geo.faces.clear()
        built = len(made)
        assert emit_complex(e) == first and len(made) == built, e
        assert e._faces is None, e
    monkeypatch.undo()
    assert made


def test_wide_extension_memory_is_its_faces():
    """Constructing the 600 x 600 complex's extension, emitting it,
    reading it off in order, comparing it with the face-by-face
    reference and verifying it holds a few MiB at peak: its faces are
    decoded one by one, never a whole grid, whose edge layer alone has
    360,000 points.  So does the extension of three colors of 500
    vertices whose only face across colors is the triangle of the first
    vertices: its grids of colors {1, 2, 3}, with and without the apex,
    have 125,000,000 points and hold one each, so one mask as wide as
    such a grid, a search's drop column say, would take 15 MiB."""
    sparse = shift_closure(
        3, [face((1, 500)), face((2, 500)), face((3, 500)), face((1, 1), (2, 1), (3, 1))]
    )
    for delta in (WIDE, sparse):
        want, _ = reference_cone_extension(delta)
        want_doc = reference_emit_complex(want)
        want_order = sorted(want.faces, key=lambda f: f.sort_key)
        cold_grids()
        tracemalloc.start()
        try:
            extended, report = cone_extension(delta)
            assert emit_complex(extended) == want_doc
            assert extended.sorted_faces() == want_order
            assert extended == want
            assert verify_cone_extension(delta, extended, report).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (delta, peak)


def test_extension_order_and_bytes(enumerated_corpus):
    """Every corpus extension and the staircases' k = 2..14 list their
    faces in canonical order and emit the reference document's bytes,
    both read off the record before the face set is built."""
    for delta in [*enumerated_corpus, *STAIRCASES]:
        extended, _ = cone_extension(delta)
        listed = extended.sorted_faces()
        assert emit_complex(extended) == reference_emit_complex(
            reference_cone_extension(delta)[0]
        ), delta
        assert extended._faces is None
        assert listed == sorted(extended.faces, key=lambda f: f.sort_key), delta


def test_uniqueness_reads_no_full_mask_table(monkeypatch):
    """verify_uniqueness visits only the color sets its target gives
    faces: with the table of all 2^16 color-set masks made to raise, the
    16-color extension of staircase(14) is still found unique."""
    import flagshift.construction as construction
    import flagshift.flags as flags

    delta = staircase(14)

    def no_table(_num_colors):
        raise AssertionError("the table of every color-set mask was read")

    for module in (flags, construction):
        monkeypatch.setattr(module, "subset_masks", no_table)
    result = verify_uniqueness(delta)
    assert result.unique is True and result.extended.num_colors == 16


# ===================================================================
# structural facts across the corpus
# ===================================================================

def test_extension_fixed_counts(shifted_corpus):
    for c in shifted_corpus:
        if len(c) == 0:
            continue
        extended, report = cone_extension(c)
        k = len(report.shift_maximal)
        fv = flag_f(extended)
        assert report.total_colors == c.num_colors + k
        # each apex color carries exactly one vertex
        for apex_color in report.predicted_singletons:
            assert fv.count((apex_color,)) == 1
        # apex p cones the down-set of the p-th maximal face, so the
        # joint count with any base color equals that face's entry
        for color, apex_color, count in report.predicted_edges:
            assert fv.count((color, apex_color)) == count
        assert is_color_shifted(extended)


def test_extension_edge_counts_match_downset_flags(shifted_corpus):
    for c in shifted_corpus:
        if len(c) == 0:
            continue
        from flagshift import principal_downset

        extended, report = cone_extension(c)
        for p, maximal in enumerate(report.shift_maximal):
            sub_fv = flag_f(principal_downset(c, maximal))
            for color, apex_color, count in report.predicted_edges:
                if apex_color == c.num_colors + p + 1:
                    assert sub_fv.count((color,)) == count


def test_extension_selection_recovers_base(shifted_corpus):
    for c in shifted_corpus:
        if len(c) == 0:
            continue
        extended, _ = cone_extension(c)
        assert select_colors(extended, range(1, c.num_colors + 1)) == c


# ===================================================================
# verification
# ===================================================================

def test_verify_passes_on_real_extensions(shifted_corpus, enumerated_corpus):
    for c in [*shifted_corpus, *enumerated_corpus]:
        if len(c) == 0:
            continue
        extended, report = cone_extension(c)
        result = verify_cone_extension(c, extended, report)
        assert result.ok, result
        assert result.failed_check is None


def test_verify_catches_wrong_color_count(sample_a):
    extended, report = cone_extension(sample_a)
    tampered = ColoredComplex(4, extended.faces)
    result = verify_cone_extension(sample_a, tampered, report)
    assert not result.ok
    assert result.failed_check == "total-colors"


def test_verify_catches_base_mismatch(sample_a, sample_b):
    extended, report = cone_extension(sample_a)
    bigger = union(extended, sample_b)
    result = verify_cone_extension(sample_a, bigger, report)
    assert not result.ok
    assert result.failed_check == "selection"


def test_verify_catches_missing_apex_face(sample_a):
    extended, report = cone_extension(sample_a)
    # drop the top face containing the apex
    tampered = ColoredComplex(
        3, extended.faces - {face((1, 2), (2, 1), (3, 1))}
    )
    result = verify_cone_extension(sample_a, tampered, report)
    assert not result.ok
    assert result.failed_check.startswith("flag:")


def test_verify_catches_extra_apex_edge(sample_b):
    extended, report = cone_extension(sample_b)
    # join the two apexes: legal complex, wrong extension
    tampered = union(
        extended, shift_closure(4, [face((3, 1), (4, 1))])
    )
    result = verify_cone_extension(sample_b, tampered, report)
    assert not result.ok
    assert result.failed_check is not None


def test_verify_catches_apex_pair_face_via_flag(sample_a):
    extended, report = cone_extension(sample_a)
    triple = face((1, 1), (2, 1), (3, 1))
    assert triple in extended  # sanity: tampering below removes a real face
    tampered = ColoredComplex(3, extended.faces - {triple})
    result = verify_cone_extension(sample_a, tampered, report)
    assert not result.ok
    assert result.failed_check == "flag:f_{1,2,3}"


def test_verify_names_an_apex_with_two_vertices(sample_a):
    extended, report = cone_extension(sample_a)
    tampered = ColoredComplex(3, extended.faces | {face((3, 2))})
    result = verify_cone_extension(sample_a, tampered, report)
    assert result == VerificationResult(
        False, "flag:f_{3}", "expected 1 vertex of color 3, found 2"
    )


def test_verify_names_a_missing_apex_edge(sample_a):
    extended, report = cone_extension(sample_a)
    assert report.predicted_edges == ((1, 3, 2), (2, 3, 1))
    # the {1,3}-edge at vertex 2 of color 1, and the triangle over it
    tampered = ColoredComplex(
        3, extended.faces - {face((1, 2), (3, 1)), face((1, 2), (2, 1), (3, 1))}
    )
    result = verify_cone_extension(sample_a, tampered, report)
    assert result == VerificationResult(
        False, "flag:f_{1,3}", "expected 2 edges on colors {1,3}, found 1"
    )


def _report_of(delta: ColoredComplex, extended: ColoredComplex) -> ConstructionReport:
    """A report whose every prediction `extended` meets, with every color
    above delta's fresh and claiming one vertex."""
    n, m = delta.num_colors, extended.num_colors
    return ConstructionReport(
        n, m - n, m, (), (), tuple(range(n + 1, m + 1)), (), flag_f(extended)
    )


def test_verify_names_an_unshifted_extension():
    unshifted = ColoredComplex(
        2, [EMPTY_FACE, face((1, 1)), face((1, 2)), face((2, 1)), face((1, 2), (2, 1))]
    )
    result = verify_cone_extension(unshifted, unshifted, _report_of(unshifted, unshifted))
    assert result == VerificationResult(
        False, "color-shifted", "the extension is not color-shifted"
    )


def test_verify_names_a_face_with_two_fresh_colors():
    joined = shift_closure(2, [face((1, 1), (2, 1))])
    delta = trivial_complex(0)
    result = verify_cone_extension(delta, joined, _report_of(delta, joined))
    assert result == VerificationResult(
        False, "apex-faces", f"face {face((1, 1), (2, 1))} uses 2 fresh colors"
    )


def test_predicted_flag_is_computed_from_delta(monkeypatch, shifted_corpus):
    """The report's flag vector is predicted from delta's alone, in closed
    form, and matches the flag vector of the output."""
    import flagshift.construction as construction

    read = []

    def recorded(c):
        read.append(c)
        return flag_f(c)

    monkeypatch.setattr(construction, "flag_f", recorded)
    for c in shifted_corpus:
        if len(c) == 0:
            continue
        read.clear()
        extended, report = cone_extension(c)
        assert read == [c]
        assert report.predicted_flag == flag_f(extended)


def test_verify_catches_one_altered_flag_prediction(sample_b):
    """Check (b) compares the output with the prediction entry by entry,
    so raising any one predicted count names that color set."""
    extended, report = cone_extension(sample_b)
    dense = report.predicted_flag.dense()
    for mask in range(1, len(dense)):
        altered = list(dense)
        altered[mask] += 1
        bad = replace(report, predicted_flag=FlagVector(report.total_colors, altered))
        result = verify_cone_extension(sample_b, extended, bad)
        colors = [c for c in range(1, report.total_colors + 1) if mask >> (c - 1) & 1]
        assert not result.ok
        assert result.failed_check == "flag:f_{" + ",".join(map(str, colors)) + "}"
