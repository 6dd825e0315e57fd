"""Core complex invariants, constructors, and operations."""

from __future__ import annotations

import copy
import pickle
import random
import time
import tracemalloc
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, strategies as st

from flagshift import (
    ColoredComplex,
    EMPTY_FACE,
    Face,
    FlagVector,
    InvalidComplexError,
    Vertex,
    cone,
    cone_extension,
    emit_complex,
    enumerate_all_colored_complexes,
    from_generators,
    select_colors,
    shift_closure,
    trivial_complex,
    union,
    validate_faces,
    verify_uniqueness,
)
from flagshift.complexes import Violation, _boxes, _project, _regroup, _repeat
from flagshift.flags import flag_f

from helpers import (
    brute_closure,
    brute_dominance_le,
    edge2,
    face,
    reference_grid_faces,
    reference_validate_faces,
    two_color_complex,
)


# ===================================================================
# faces
# ===================================================================

def test_face_normalizes_and_sorts():
    f = face((2, 1), (1, 2))
    assert f.colors == (1, 2)
    assert f.indices == (2, 1)
    assert f.vertices == (Vertex(1, 2), Vertex(2, 1))
    assert f == Face([(1, 2), (2, 1)])
    assert str(f) == "{v_2^1,v_1^2}"


def test_face_rejects_duplicate_color():
    with pytest.raises(ValueError, match="two vertices of color 1"):
        Face([(1, 1), (1, 2)])


def test_face_rejects_nonpositive_components():
    with pytest.raises(ValueError):
        Face([(0, 1)])
    with pytest.raises(ValueError):
        Face([(1, 0)])


def test_face_sort_key_orders_by_size_colors_indices():
    faces = [face((1, 1), (2, 1)), face((2, 2)), face((1, 2)), EMPTY_FACE]
    ordered = sorted(faces, key=lambda f: f.sort_key)
    assert ordered == [EMPTY_FACE, face((1, 2)), face((2, 2)), face((1, 1), (2, 1))]


def test_face_helpers():
    f = face((1, 2), (3, 1))
    assert f.get(2) is None
    assert len(list(f.subfaces())) == 4
    assert list(f) == [(1, 2), (3, 1)]
    assert (3, 1) in f and Vertex(1, 2) in f
    assert (1, 1) not in f and (2, 1) not in f


# ===================================================================
# validation
# ===================================================================

def test_validate_accepts_the_trivial_and_empty_complexes():
    assert validate_faces(2, [EMPTY_FACE]) is None
    assert validate_faces(2, []) is None


def test_validate_color_out_of_range():
    v = validate_faces(1, [EMPTY_FACE, face((2, 1))])
    assert v is not None and v.kind == "color-range" and v.color == 2


def test_validate_missing_empty_face():
    v = validate_faces(2, [face((1, 1))])
    assert v is not None and v.kind == "empty-face"


def test_validate_closure_violation_names_the_pair():
    v = validate_faces(2, [EMPTY_FACE, face((1, 1)), face((1, 1), (2, 1))])
    assert v is not None and v.kind == "closure"
    assert v.face == face((1, 1), (2, 1))
    assert v.missing == face((2, 1))


def test_validate_saturation_names_the_color():
    v = validate_faces(2, [EMPTY_FACE, face((1, 2))])
    assert v is not None and v.kind == "saturation" and v.color == 1


def test_validate_saturation_matches_the_ordered_scan_on_every_gap():
    """Every set of singleton indices within 1..5 on each of two colors,
    gaps at 1, in the middle and several per color included: the
    one-pass check names the same color and gap as the canonical scan."""
    subsets = [
        [i for i in range(1, 6) if bits >> (i - 1) & 1] for bits in range(32)
    ]
    for first, second in product(subsets, repeat=2):
        faces = [EMPTY_FACE, *(face((1, i)) for i in first), *(face((2, i)) for i in second)]
        assert validate_faces(2, faces) == reference_validate_faces(2, faces)


def test_validate_names_the_gap_below_a_huge_index():
    """An index of 10^23 leaves a gap at 2, found among the first
    len + 1 indices: nothing as large as the index is built."""
    faces = [EMPTY_FACE, face((1, 1)), face((1, 10**23)), face((2, 1))]
    tracemalloc.start()
    try:
        v = validate_faces(2, faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == Violation(
        "saturation",
        "color 1 skips vertex index 2: indices must be contiguous from 1",
        color=1,
    )
    assert peak < 1 << 20


def test_validate_matches_the_ordered_scan(enumerated_corpus):
    """The one-pass check and the canonical scan name the same first
    violation: none on the corpus, and each mutant's own otherwise.
    Faces are dropped one at a time from every fifth complex, which
    reaches every kind of violation and keeps the scan short."""
    kinds = set()
    for pos, c in enumerate(enumerated_corpus):
        n, faces = c.num_colors, c.faces
        counts = c.vertex_counts()
        mutants = [
            faces,
            *(faces - {f} for f in (faces if pos % 5 == 0 else ())),
            faces | {face((n + 1, 1))},
            faces | {face((n + 1, 1)), face((n + 2, 1))},
            *(faces | {face((color, count + 2))} for color, count in enumerate(counts, 1)),
        ]
        for mutant in mutants:
            violation = validate_faces(n, mutant)
            assert violation == reference_validate_faces(n, mutant)
            kinds.add(violation and violation.kind)
        assert validate_faces(n, faces) is None
    assert kinds == {None, "color-range", "empty-face", "closure", "saturation"}


def test_constructor_raises_on_violation():
    with pytest.raises(InvalidComplexError) as exc:
        ColoredComplex(2, [face((1, 1))])
    assert exc.value.violation.kind == "empty-face"


def test_constructor_rejects_negative_num_colors():
    with pytest.raises(ValueError, match=r"^num_colors must be >= 0$"):
        ColoredComplex(-1)


def test_num_colors_zero_allows_only_the_empty_face():
    assert len(trivial_complex(0)) == 1
    with pytest.raises(InvalidComplexError):
        ColoredComplex(0, [EMPTY_FACE, face((1, 1))])


# ===================================================================
# from_generators
# ===================================================================

def test_from_generators_single_edge_closure():
    c = from_generators(2, [edge2(1, 1)])
    assert c.faces == frozenset(
        [EMPTY_FACE, face((1, 1)), face((2, 1)), edge2(1, 1)]
    )


def test_from_generators_union_of_two_closures():
    c = from_generators(2, [edge2(2, 1), edge2(1, 2)])
    assert len(c) == 7
    assert c.faces == frozenset(brute_closure([edge2(2, 1), edge2(1, 2)]))


def test_from_generators_trivial():
    assert from_generators(2, [EMPTY_FACE]).faces == frozenset([EMPTY_FACE])


def test_from_generators_rejects_saturation_gap():
    with pytest.raises(InvalidComplexError) as exc:
        from_generators(2, [edge2(2, 1)])
    assert exc.value.violation.kind == "saturation"
    assert exc.value.violation.color == 1


def test_from_generators_rejects_color_out_of_range():
    with pytest.raises(InvalidComplexError) as exc:
        from_generators(1, [edge2(1, 1)])
    assert exc.value.violation.kind == "color-range"


def test_vertex_counts(sample_a, sample_b):
    assert sample_a.vertex_counts() == (2, 1)
    assert sample_b.vertex_counts() == (2, 2)


def test_record_vertex_counts_build_no_faces(enumerated_corpus):
    """A complex that carries a record reads its vertex counts off the
    record without building its faces, and they are the numbers of its
    singleton faces: on the walk-built corpus complexes (some with a
    color without vertices), their cone extensions and a search
    witness."""
    delta = shift_closure(2, [Face([(1, 2), (2, 1)])])
    extension = cone_extension(delta)[0]
    assert extension.vertex_counts() == (2, 1, 1) and extension._faces is None
    [witness] = verify_uniqueness(delta).outcome.witnesses
    assert witness.vertex_counts() == (2, 1, 1) and witness._faces is None
    records = [*enumerated_corpus, *(cone_extension(c)[0] for c in enumerated_corpus)]
    for c in records:
        unbuilt = ColoredComplex._raw(c.num_colors, None, c._record)
        counts = unbuilt.vertex_counts()
        assert unbuilt._faces is None
        singles = [f.colors[0] for f in c.faces if len(f) == 1]
        assert counts == tuple(map(singles.count, range(1, c.num_colors + 1))), c


# ===================================================================
# select / cone / union
# ===================================================================

def test_select_colors_projects_and_renumbers():
    c = from_generators(3, [face((1, 1), (2, 1), (3, 1)), face((1, 2))])
    sub = select_colors(c, [1, 3])
    assert sub.num_colors == 2
    assert sub.faces == frozenset(
        [EMPTY_FACE, face((1, 1)), face((1, 2)), face((2, 1)), face((1, 1), (2, 1))]
    )


def test_select_full_color_set_is_identity(corpus):
    for c in corpus:
        assert select_colors(c, range(1, c.num_colors + 1)) == c


def test_select_empty_color_set(sample_a):
    sub = select_colors(sample_a, [])
    assert sub.num_colors == 0 and sub.faces == frozenset([EMPTY_FACE])


def test_select_colors_out_of_range(sample_a):
    with pytest.raises(ValueError):
        select_colors(sample_a, [3])


def test_select_preserves_flag_counts(corpus):
    for c in corpus:
        if c.num_colors < 2:
            continue
        keep = list(range(1, c.num_colors))  # drop the last color
        sub = select_colors(c, keep)
        fv, sv = flag_f(c), flag_f(sub)
        for colors, count in sv.items():
            assert count == fv.count(colors)


def test_cone_doubles_face_count(corpus):
    for c in corpus:
        apexed = cone(c, (c.num_colors + 1, 1))
        assert len(apexed) == 2 * len(c)
        assert apexed.num_colors == c.num_colors + 1
        assert apexed.validate() is None


def test_cone_over_trivial_complex():
    assert cone(trivial_complex(2), (3, 1)).faces == frozenset(
        [EMPTY_FACE, face((3, 1))]
    )


def test_cone_full_simplex():
    c = from_generators(2, [face((1, 1), (2, 1))])
    apexed = cone(c, (3, 1))
    assert len(apexed) == 8
    assert face((1, 1), (2, 1), (3, 1)) in apexed


def test_cone_rejects_used_color(sample_a):
    with pytest.raises(ValueError, match="already used"):
        cone(sample_a, (1, 1))


def test_cone_rejects_nonfirst_index(sample_a):
    with pytest.raises(ValueError, match="first vertex"):
        cone(sample_a, (3, 2))


def test_cone_rejects_apex_color_below_one(sample_a):
    for color in (0, -3):
        with pytest.raises(ValueError, match=r"^apex color must be >= 1$"):
            cone(sample_a, (color, 1))


def test_cone_on_unused_color_within_range():
    c = ColoredComplex(2, [EMPTY_FACE, face((1, 1))])
    apexed = cone(c, (2, 1))
    assert apexed.num_colors == 2
    assert face((1, 1), (2, 1)) in apexed


def test_union_overlapping(sample_a, sample_b):
    u = union(sample_a, sample_b)
    assert u == sample_b  # sample_a is contained in sample_b


def test_union_mixed_color_counts(sample_a):
    other = from_generators(3, [face((3, 1))])
    u = union(sample_a, other)
    assert u.num_colors == 3
    assert face((3, 1)) in u and edge2(2, 1) in u


def test_equality_is_labeled(sample_a):
    padded = ColoredComplex(3, sample_a.faces)
    assert padded != sample_a
    assert padded.faces == sample_a.faces
    assert two_color_complex(2, 1, [(1, 1), (2, 1)]) == sample_a


# ===================================================================
# value types
# ===================================================================

def _seeded_complexes(seed: int, k: int = 5) -> list[ColoredComplex]:
    """k enumerated 3-color complexes, each a record, chosen by seed."""
    return random.Random(seed).sample(list(enumerate_all_colored_complexes(3, [2, 1, 2])), k)


def test_value_types_are_immutable_and_raw_matches_checked():
    """Setting a slot or a new attribute of a face, a complex in either
    form or a flag vector raises AttributeError and leaves every slot as
    it was; and the value _raw builds equals, and hashes like, the one
    the checked constructor builds from the same data."""
    for c in _seeded_complexes(22):
        faces = c.sorted_faces()
        fv = flag_f(c)
        pairs = [
            (ColoredComplex._raw(3, None, dict(c._record)), ColoredComplex(3, faces)),
            (ColoredComplex._raw(3, frozenset(faces)), ColoredComplex(3, faces)),
            (FlagVector._raw(3, list(fv.dense()), "f"), FlagVector(3, fv.dense(), kind="f")),
            *((Face._raw(f.vertices), Face(list(f.vertices))) for f in faces),
        ]
        for raw, checked in pairs:
            assert type(raw) is type(checked)
            assert raw == checked and checked == raw and hash(raw) == hash(checked)
        for value in (c, ColoredComplex(3, faces), fv, *faces):
            slots = type(value).__slots__
            before = [getattr(value, slot) for slot in slots]
            for name in (*slots, "extra"):
                with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                    setattr(value, name, None)
                assert all(getattr(value, slot) is old for slot, old in zip(slots, before))


def test_value_types_keep_their_slots_under_del():
    """Deleting a slot of a face, a complex in either form or a flag
    vector raises AttributeError, and the value still hashes, compares
    equal to a copy and prints as before."""
    c = _seeded_complexes(56, 1)[0]
    faces = c.sorted_faces()
    for value in (c, ColoredComplex(3, faces), flag_f(c), faces[-1]):
        same = copy.copy(value)
        text = (repr(value), str(value))
        for slot in type(value).__slots__:
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                delattr(value, slot)
            assert hash(value) == hash(same) and value == same
            assert (repr(value), str(value)) == text


def test_value_types_copy_and_pickle():
    """copy.copy, copy.deepcopy and a pickle round trip of a face, a
    complex in either form and a flag vector give an equal value with an
    equal hash.  A complex's copy emits the same document, and a record
    complex's copy keeps its record and has decoded no face."""
    for c in _seeded_complexes(7):
        faces = c.sorted_faces()
        checked = ColoredComplex(3, faces)
        for value in (c, checked, flag_f(c), *faces):
            for copied in (
                copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
            ):
                assert type(copied) is type(value)
                if value is c:
                    assert copied._record == c._record and copied._faces is None
                if value is checked:
                    assert copied._record is None and copied._faces == checked._faces
                assert copied == value and hash(copied) == hash(value)
                if isinstance(value, ColoredComplex):
                    assert emit_complex(copied).encode() == emit_complex(value).encode()


# ===================================================================
# index grids
# ===================================================================

def test_boxes_match_dominated_grid_points():
    """For each subset T of a face's colors, _boxes gives the points of
    the grid of T that the face dominates, their number, the product of
    the face's indices on T, and the grid's size: checked point by point
    on every face over colors with gaps, radices 1..3, up to 4 colors."""
    for colors in [(), (2,), (1, 3), (1, 3, 5), (1, 2, 4, 5)]:
        for radices in product(range(1, 4), repeat=len(colors)):
            radix = [0] * 6
            for c, r in zip(colors, radices):
                radix[c] = r
            for indices in product(*(range(1, r + 1) for r in radices)):
                f = Face(zip(colors, indices))
                boxes = _boxes(f.vertices, radix)
                got = {mask: (size, grid, points) for mask, size, grid, points in boxes}
                assert len(got) == len(boxes) == 1 << len(colors)
                for size in range(len(colors) + 1):
                    for sub in combinations(range(len(colors)), size):
                        mask = sum(1 << (colors[j] - 1) for j in sub)
                        grid = reference_grid_faces(mask, [radices[j] for j in sub])
                        points = sum(
                            1 << rank for rank, g in enumerate(grid) if brute_dominance_le(g, f)
                        )
                        want = (prod(indices[j] for j in sub), len(grid), points)
                        assert got[mask] == want, (f, radices, sub)


def _fiber_projection(points: int, r: int, s: int) -> int:
    """_project's definition, point by point: rank hi * r * s + i * s + lo
    drops to hi * s + lo."""
    sub = 0
    for rank in range(points.bit_length()):
        if points >> rank & 1:
            hi, rest = divmod(rank, r * s)
            sub |= 1 << (hi * s + rest % s)
    return sub


def _fiber_union(sub: int, r: int, s: int) -> int:
    """The preimage of `sub` along that drop, point by point: the points
    hi * r * s + i * s + lo, i < r, of each chosen sub-point hi * s + lo."""
    points = 0
    for rank in range(sub.bit_length()):
        if sub >> rank & 1:
            hi, lo = divmod(rank, s)
            for i in range(r):
                points |= 1 << (hi * r * s + i * s + lo)
    return points


def test_project_matches_its_fibers_and_stays_linear():
    """The one block regroup, run both ways, equals the point-by-point
    drop on random masks of up to 4,000 bits, over few blocks and many:
    _project gathers a layer to the sub-points it projects onto, and
    the spread times the column, the fiber union of _allowed_mask, is
    the preimage of a sub-layer.  Projecting a layer of 2,000,000 points
    along a color of stride 1, or spreading a sub-layer of 2,000,000
    points there, takes well within a second, where moving the whole
    mask once per block takes tens of seconds."""
    rng = random.Random(7)
    for size in (1, 16, 81, 300, 1000, 4000):
        for r in (1, 2, 3, 4, 9, 17):
            for s in (1, 2, 3, 8, 13, 100):
                if r * s <= size:
                    points = rng.getrandbits(size) & rng.getrandbits(size)
                    assert _project(points, r, s) == _fiber_projection(points, r, s), (size, r, s)
                    sub = rng.getrandbits(size // r) & rng.getrandbits(size // r)
                    union = _regroup(sub, s, s, r * s) * _repeat(r, s)
                    assert union == _fiber_union(sub, r, s), (size, r, s)
    wide = rng.getrandbits(2_000_000)
    start = time.perf_counter()
    low = _project(wide, 2, 1)
    assert time.perf_counter() - start < 1.0
    assert low == int(format(wide | wide >> 1, "b")[::-1][::2][::-1], 2)  # bit 2i or 2i + 1
    start = time.perf_counter()
    spread = _regroup(wide, 1, 1, 2) * _repeat(2, 1)
    assert time.perf_counter() - start < 1.0
    assert spread == int(format(wide, "b").replace("1", "11").replace("0", "00"), 2)  # bits 2i, 2i + 1


# ===================================================================
# properties
# ===================================================================

@st.composite
def small_complexes(draw):
    num_colors = draw(st.integers(min_value=1, max_value=3))
    gens = draw(
        st.lists(
            st.dictionaries(
                st.integers(1, num_colors), st.integers(1, 3), max_size=num_colors
            ),
            max_size=4,
        )
    )
    faces = [Face(g.items()) for g in gens]
    # saturate: include a full vertex chain per color used anywhere
    tops = {}
    for f in faces:
        for color, index in f.vertices:
            tops[color] = max(tops.get(color, 0), index)
    for color, top in tops.items():
        faces.append(Face([(color, top)]))
        for i in range(1, top + 1):
            faces.append(Face([(color, i)]))
    return from_generators(num_colors, faces)


@given(small_complexes())
def test_from_generators_idempotent(c):
    again = from_generators(c.num_colors, c.faces)
    assert again == c


@given(small_complexes())
def test_every_face_subset_closed(c):
    for f in c.faces:
        for sub in f.subfaces():
            assert sub in c


@given(small_complexes())
def test_cone_then_select_recovers_base(c):
    apexed = cone(c, (c.num_colors + 1, 1))
    assert select_colors(apexed, range(1, c.num_colors + 1)) == c
