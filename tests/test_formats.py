"""Document round trips, rejection messages, canonical bytes."""

from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from flagshift import (
    CoarseFVector,
    ColoredComplex,
    DocumentError,
    FlagVector,
    InvalidComplexError,
    SearchBudget,
    coarse_f,
    cone_extension,
    emit_coarse,
    emit_complex,
    emit_flag_vector,
    emit_report,
    enumerate_all_colored_complexes,
    enumerate_color_shifted_complexes,
    enumerate_color_shifted_with_flag,
    flag_f,
    h_from_f,
    parse_complex,
    parse_flag_vector,
    shift_closure,
    verify_uniqueness,
)
from flagshift import complexes
from flagshift.complexes import EMPTY_FACE, Face, Vertex, empty_complex, trivial_complex

from flagshift.formats import report_to_obj

from helpers import reference_emit_complex, reference_flag_vector_obj, staircase


# ===================================================================
# complex documents
# ===================================================================

def test_parse_complex_with_faces(sample_a):
    text = """
    {"num_colors": 2,
     "faces": [[], [[1, 1]], [[1, 2]], [[2, 1]],
               [[1, 1], [2, 1]], [[1, 2], [2, 1]]]}
    """
    assert parse_complex(text) == sample_a


def test_parse_complex_with_generators(sample_a):
    text = '{"num_colors": 2, "generators": [[[1, 1], [2, 1]], [[2, 1], [1, 2]]]}'
    assert parse_complex(text) == sample_a


def test_parse_complex_vertex_order_is_free():
    a = parse_complex('{"num_colors": 2, "generators": [[[2, 1], [1, 1]]]}')
    b = parse_complex('{"num_colors": 2, "generators": [[[1, 1], [2, 1]]]}')
    assert a == b


def test_emit_parse_round_trip(corpus):
    for c in corpus:
        assert parse_complex(emit_complex(c)) == c


def test_emit_complex_is_byte_stable(sample_b):
    rebuilt = ColoredComplex(sample_b.num_colors, set(sample_b.faces))
    assert emit_complex(sample_b) == emit_complex(rebuilt)
    assert emit_complex(sample_b).endswith("\n")


def test_emit_complex_distinct_bytes(corpus):
    seen = {}
    for c in corpus:
        text = emit_complex(c)
        assert text not in seen or seen[text] == c
        seen[text] = c


def test_emit_complex_matches_the_json_encoder(enumerated_corpus):
    """The directly written document is byte for byte json's indented,
    key-sorted encoding of complex_to_obj, on record-built complexes
    (the corpus, its extensions, the staircases' k = 2..14 extensions,
    walk witnesses, every complex within 2 x 2 vertices) and face-set
    ones (the corpus and the staircases through the checked
    constructor, empty, trivial, and a face of 20 colors, so the
    per-size templates have no limit), and again once the text memos
    are cleared."""
    staircases = [staircase(k) for k in range(2, 15)]
    recorded = [
        *enumerated_corpus,
        *(cone_extension(c)[0] for c in [*enumerated_corpus, *staircases]),
        *(w for c in staircases for w in verify_uniqueness(c).outcome.witnesses),
        *enumerate_color_shifted_with_flag(
            FlagVector(2, (1, 3, 3, 4)), SearchBudget(max_witnesses=10)
        ).witnesses,
        *enumerate_all_colored_complexes(2, [2, 2]),
    ]
    assert all(c._record is not None for c in recorded)
    # the 20-color face's closure has 2^20 faces: the emitter formats
    # whatever family it holds, so the face alone shows the template
    top = Face._raw(tuple(Vertex(color, 1) for color in range(1, 21)))
    face_sets = [
        *(ColoredComplex(c.num_colors, c.faces) for c in [*enumerated_corpus, *staircases]),
        *(make(n) for make in (empty_complex, trivial_complex) for n in (0, 3)),
        ColoredComplex._raw(20, frozenset({EMPTY_FACE, top})),
    ]
    assert all(c._record is None for c in face_sets)
    want = [reference_emit_complex(c) for c in [*recorded, *face_sets]]
    assert [emit_complex(c) for c in [*recorded, *face_sets]] == want
    complexes._layer_geometry.cache_clear()
    assert [emit_complex(c) for c in [*recorded, *face_sets]] == want
    assert all(c._faces is None for c in recorded[len(enumerated_corpus):])


def test_emit_complex_face_order_is_canonical(sample_a):
    doc = json.loads(emit_complex(sample_a))
    assert doc["faces"] == [
        [],
        [[1, 1]],
        [[1, 2]],
        [[2, 1]],
        [[1, 1], [2, 1]],
        [[1, 2], [2, 1]],
    ]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "syntax error"),
        ("[]", "must be a JSON object"),
        ("{}", 'needs "num_colors"'),
        ('{"num_colors": true, "faces": []}', "must be an integer"),
        ('{"num_colors": -1, "faces": []}', ">= 0"),
        ('{"num_colors": 1}', 'exactly one of "faces" or "generators"'),
        (
            '{"num_colors": 1, "faces": [], "generators": []}',
            'exactly one of "faces" or "generators"',
        ),
        ('{"num_colors": 1, "faces": 3}', "must be a list"),
        ('{"num_colors": 1, "faces": [3]}', "face #0"),
        ('{"num_colors": 1, "faces": [[[1, 1, 1]]]}', "malformed vertex"),
        ('{"num_colors": 1, "faces": [[[1, true]]]}', "malformed vertex"),
        ('{"num_colors": 1, "generators": [[[1, 1], [1, 2]]]}', "face #0"),
    ],
)
def test_parse_complex_rejections(text, fragment):
    with pytest.raises(DocumentError, match=fragment):
        parse_complex(text)


@pytest.mark.parametrize(
    "faces,message",
    [
        ("[[], [[1, 0]]]", "face #1: vertex components must be >= 1, got (1, 0)"),
        ("[[], [[1, 1], [1, 2]]]", "face #1: face holds two vertices of color 1"),
        # both faults: the components are checked first, on the sorted pairs
        ("[[], [[2, 0], [1, 1], [1, 2]]]", "face #1: vertex components must be >= 1, got (2, 0)"),
        ("[[[1, 2], [1, 0]]]", "face #0: vertex components must be >= 1, got (1, 0)"),
    ],
)
def test_parse_complex_vertex_errors(faces, message):
    with pytest.raises(DocumentError) as info:
        parse_complex(f'{{"num_colors": 2, "faces": {faces}}}')
    assert str(info.value) == message


def test_parsed_faces_are_canonical():
    c = parse_complex('{"num_colors": 2, "faces": [[], [[1, 1]], [[2, 1]], [[2, 1], [1, 1]]]}')
    assert c == ColoredComplex(2, [Face(), Face([(1, 1)]), Face([(2, 1)]), Face([(1, 1), (2, 1)])])
    top = max(c.faces, key=len)
    assert top.vertices == ((1, 1), (2, 1))
    assert all(type(v) is Vertex for v in top.vertices)


def test_parse_complex_invalid_complex_raised():
    # well-formed document, mathematically invalid complex
    with pytest.raises(InvalidComplexError):
        parse_complex('{"num_colors": 1, "faces": [[[1, 1]]]}')
    with pytest.raises(InvalidComplexError):
        parse_complex('{"num_colors": 0, "generators": [[[1, 1]]]}')


def test_parse_complex_duplicate_faces_collapse():
    c = parse_complex('{"num_colors": 1, "faces": [[], [[1, 1]], [[1, 1]]]}')
    assert len(c) == 2


# The record route hands each of these "faces" lists (over 3 colors) to
# the face route, whose exception class and message are pinned here.
FACE_ROUTE_ERRORS = [
    ("[[], [[1, 1]], [[1]]]", DocumentError, "face #2 holds a malformed vertex: [1]"),
    ("[[], [[1, 1]], [[1, 1, 1]]]", DocumentError, "face #2 holds a malformed vertex: [1, 1, 1]"),
    ("[[], [[1, 1]], [[1, true]]]", DocumentError, "face #2 holds a malformed vertex: [1, True]"),
    ("[[], [[1, 1]], [[1, 1.0]]]", DocumentError, "face #2 holds a malformed vertex: [1, 1.0]"),
    ('[[], [[1, 1]], ["ab"]]', DocumentError, "face #2 holds a malformed vertex: 'ab'"),
    (
        '[[], [[1, 1]], [{"1": 1, "2": 1}]]',
        DocumentError,
        "face #2 holds a malformed vertex: {'1': 1, '2': 1}",
    ),
    ('[[], [[1, 1]], "ab"]', DocumentError, "face #2 must be a list of [color, index] pairs"),
    ("[[], [[1, 0]]]", DocumentError, "face #1: vertex components must be >= 1, got (1, 0)"),
    ("[[], [[0, 1]]]", DocumentError, "face #1: vertex components must be >= 1, got (0, 1)"),
    (
        "[[], [[1, 1]], [[4, 1]]]",
        InvalidComplexError,
        "face {v_1^4} uses color 4 but the complex has 3 colors",
    ),
    (
        "[[], [[1, 1]], [[2, 1], [1, 1], [2, 2]]]",
        DocumentError,
        "face #2: face holds two vertices of color 2",
    ),
    # every other check passes: the pairs' ranks lie in the grid of color 2
    (
        "[[], [[1, 1]], [[2, 1]], [[2, 2]], [[2, 1], [2, 2]]]",
        DocumentError,
        "face #4: face holds two vertices of color 2",
    ),
    ("[[[1, 1]], [[2, 1]]]", InvalidComplexError, "non-empty complex must contain the empty face"),
    (
        "[[], [[1, 1]], [[1, 1], [2, 1]]]",
        InvalidComplexError,
        "face {v_1^1,v_1^2} is present but its subset {v_1^2} is missing",
    ),
    # every vertex is there, so only the drop check sees the missing edge
    (
        "[[], [[1, 1]], [[2, 1]], [[3, 1]], [[1, 1], [2, 1]], [[1, 1], [3, 1]],"
        " [[1, 1], [2, 1], [3, 1]]]",
        InvalidComplexError,
        "face {v_1^1,v_1^2,v_1^3} is present but its subset {v_1^2,v_1^3} is missing",
    ),
    (
        "[[], [[1, 1]], [[1, 3]]]",
        InvalidComplexError,
        "color 1 skips vertex index 2: indices must be contiguous from 1",
    ),
    (
        "[[], [[2, 2]], [[1, 1]]]",
        InvalidComplexError,
        "color 2 skips vertex index 1: indices must be contiguous from 1",
    ),
]


@pytest.mark.parametrize("faces,cls,message", FACE_ROUTE_ERRORS)
def test_record_route_leaves_errors_to_the_face_route(faces, cls, message):
    with pytest.raises(ValueError) as info:
        parse_complex(f'{{"num_colors": 3, "faces": {faces}}}')
    assert type(info.value) is cls and str(info.value) == message


def _face_route(doc: str) -> ColoredComplex:
    """The complex of a "faces" document, built face by face through the
    checked constructors."""
    obj = json.loads(doc)
    return ColoredComplex(obj["num_colors"], [Face(entry) for entry in obj["faces"]])


def test_parsed_records_match_the_face_route(enumerated_corpus):
    """Every corpus document and every document of the [3, 2, 2] box
    parses into a record equal to its face route's complex, emitting the
    same bytes; so does each with its faces and their pairs listed in
    reverse, and with every face written twice, and so do the valid
    complexes with duplicate faces and on no colors."""
    box = enumerate_color_shifted_complexes(3, [3, 2, 2])
    for c in [*enumerated_corpus, *box]:
        doc = emit_complex(c)
        parsed = parse_complex(doc)
        assert parsed._record is not None and parsed._faces is None
        face_route = _face_route(doc)
        assert parsed == face_route and face_route == parsed == c
        assert emit_complex(parsed) == emit_complex(face_route) == doc
        faces = json.loads(doc)["faces"]
        for listed in ([entry[::-1] for entry in reversed(faces)], faces + faces):
            again = parse_complex(json.dumps({"num_colors": c.num_colors, "faces": listed}))
            assert again._record == parsed._record
    for doc in (
        '{"num_colors": 2, "faces": [[], [[1, 1]], [[1, 1]], [[2, 1]], [[2, 1], [1, 1]]]}',
        '{"num_colors": 0, "faces": [[]]}',
        '{"num_colors": 3, "faces": [[], [[2, 1]]]}',
    ):
        parsed = parse_complex(doc)
        assert parsed._record is not None
        assert parsed == _face_route(doc) and emit_complex(parsed) == emit_complex(_face_route(doc))


def test_sparse_and_wide_documents_parse_into_faces():
    """A document with a layer whose grid holds more than 512 points per
    face of the layer parses into faces, not a record as wide as its
    grids.  The first two-color complex with one edge over t x t
    vertices to cross the rule is t = 23: the edge's grid holds t^2
    points.  The complex of three colors of 600 vertices with one
    triangle, whose grid of colors {1, 2, 3} has 216,000,000 points,
    parses within a few MiB.  A document of more than 16 colors parses
    into faces too."""
    for t, recorded in ((22, True), (23, False)):
        edge = shift_closure(2, [Face([(1, t)]), Face([(2, t)]), Face([(1, 1), (2, 1)])])
        parsed = parse_complex(emit_complex(edge))
        assert (parsed._record is not None) == recorded and parsed == edge
    sparse = shift_closure(
        3, [Face([(1, 600)]), Face([(2, 600)]), Face([(3, 600)]), Face([(1, 600), (2, 1), (3, 1)])]
    )
    doc = emit_complex(sparse)
    tracemalloc.start()
    try:
        parsed = parse_complex(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed._record is None and parsed == sparse
    assert peak < 8 << 20, peak
    wide = '{"num_colors": 17, "faces": [[], [[1, 1]], [[17, 1]], [[1, 1], [17, 1]]]}'
    parsed = parse_complex(wide)
    assert parsed._record is None and parsed == _face_route(wide)


def test_padded_documents_with_a_sparse_layer_parse_quickly():
    """Entries of other layers, empty faces written again and the sparse
    face written again buy no width for a sparse layer: with any of
    them, a complex whose (1000, 1000, 2) triangle is alone in a grid
    of 2,000,000 points parses into faces within seconds, equal to its
    face route, where a width rule over all entries admitted the grid
    and its projection took tens of seconds."""
    vertices = [[[1, i]] for i in range(1, 1001)] + [[[2, i]] for i in range(1, 1001)]
    triangle = [[1, 1000], [2, 1000], [3, 2]]
    edges = [triangle[:2], [triangle[0], triangle[2]], triangle[1:]]
    faces = [[], *vertices, [[3, 1]], [[3, 2]], *edges, triangle]
    paddings = ([[[4, i]] for i in range(1, 4001)], [[]] * 4000, [triangle] * 4000)
    for padding in paddings:
        doc = json.dumps({"num_colors": 4, "faces": faces + padding})
        start = time.perf_counter()
        parsed = parse_complex(doc)
        assert time.perf_counter() - start < 5.0
        assert parsed._record is None and parsed == _face_route(doc)


# ===================================================================
# flag vector documents
# ===================================================================

def test_parse_flag_vector_basic():
    fv = parse_flag_vector(
        '{"num_colors": 2, "kind": "f", "entries": ['
        '{"colors": [], "count": 1},'
        '{"colors": [1], "count": 2},'
        '{"colors": [2], "count": 1},'
        '{"colors": [1, 2], "count": 2}]}'
    )
    assert fv == FlagVector(2, (1, 2, 1, 2), kind="f")


def test_parse_flag_vector_kind_defaults_to_f():
    fv = parse_flag_vector('{"num_colors": 1, "entries": [{"colors": [], "count": 1}]}')
    assert fv.kind == "f"


def test_parse_flag_vector_unsorted_colors_accepted():
    fv = parse_flag_vector(
        '{"num_colors": 2, "entries": [{"colors": [], "count": 1},'
        ' {"colors": [2, 1], "count": 3}]}'
    )
    assert fv.count((1, 2)) == 3


def test_parse_flag_vector_h_kind_negative_ok():
    fv = parse_flag_vector(
        '{"num_colors": 1, "kind": "h", "entries": [{"colors": [1], "count": -2}]}'
    )
    assert fv.kind == "h" and fv.count((1,)) == -2


def test_flag_vector_round_trip(corpus):
    for c in corpus:
        fv = flag_f(c)
        assert parse_flag_vector(emit_flag_vector(fv)) == fv
        hv = h_from_f(fv)
        assert parse_flag_vector(emit_flag_vector(hv)) == hv


def test_emit_flag_vector_omits_zeros_keeps_empty():
    fv = FlagVector(2, {(): 1, (2,): 4}, kind="f")
    doc = json.loads(emit_flag_vector(fv))
    assert doc["entries"] == [
        {"colors": [], "count": 1},
        {"colors": [2], "count": 4},
    ]


def test_emit_flag_vector_zero_empty_entry_still_written():
    hv = h_from_f(FlagVector(1, (1, 1), kind="f"))
    # h = (1, 0): the zero singleton entry disappears, the empty one stays
    doc = json.loads(emit_flag_vector(hv))
    assert {"colors": [], "count": 1} in doc["entries"]


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_flag_vector_documents_skip_zero_entries():
    """The documents built from the non-zero entries alone equal the
    reference read off all 2^n entries of items(): at 16 colors, where
    the extension of staircase(14) has 60 non-zero color sets of 65,536,
    and with a zero empty-set entry."""
    _, report = cone_extension(staircase(14))
    fv = report.predicted_flag
    nonzero = [(colors, count) for colors, count in fv.items() if count]
    assert len(nonzero) == 60
    assert list(fv.nonzero_items()) == nonzero
    want = reference_flag_vector_obj(fv)
    assert emit_flag_vector(fv) == _dumps(want)
    assert emit_report(report) == _dumps({**report_to_obj(report), "predicted_flag": want})
    for other in (h_from_f(fv), FlagVector(2, {(2,): 4}, kind="h")):
        assert emit_flag_vector(other) == _dumps(reference_flag_vector_obj(other))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{}", 'needs "num_colors"'),
        ('{"num_colors": 1}', 'needs "entries"'),
        ('{"num_colors": 1, "entries": 5}', "must be a list"),
        ('{"num_colors": 1, "kind": "g", "entries": []}', '"f" or "h"'),
        ('{"num_colors": 1, "entries": [5]}', "entry #0"),
        ('{"num_colors": 1, "entries": [{"colors": [1]}]}', "entry #0"),
        (
            '{"num_colors": 1, "entries": [{"colors": [1, 1], "count": 1}]}',
            "repeats a color",
        ),
        (
            '{"num_colors": 1, "entries": [{"colors": [1], "count": 1},'
            ' {"colors": [1], "count": 2}]}',
            "duplicate entry",
        ),
        (
            '{"num_colors": 1, "entries": [{"colors": [2], "count": 1}]}',
            "out of range",
        ),
        (
            '{"num_colors": 1, "kind": "f", "entries": [{"colors": [], "count": 7}]}',
            "0 or 1",
        ),
        (
            '{"num_colors": 1, "entries": [{"colors": [], "count": 1},'
            ' {"colors": [1], "count": 9223372036854775808}]}',
            "magnitude|64",
        ),
    ],
)
def test_parse_flag_vector_rejections(text, fragment):
    with pytest.raises(DocumentError, match=fragment):
        parse_flag_vector(text)


# ===================================================================
# coarse and report documents
# ===================================================================

def test_emit_coarse(sample_a):
    text = emit_coarse(coarse_f(flag_f(sample_a)))
    assert json.loads(text) == {"entries": [1, 3, 2]}


def test_emit_report_shape(sample_a):
    _, report = cone_extension(sample_a)
    doc = json.loads(emit_report(report))
    assert doc["base_colors"] == 2
    assert doc["apex_count"] == 1
    assert doc["total_colors"] == 3
    assert doc["shift_maximal"] == [[[1, 2], [2, 1]]]
    assert doc["apexes"] == [[3, 1]]
    assert doc["predicted_singletons"] == [{"colors": [3], "count": 1}]
    assert doc["predicted_edges"] == [
        {"colors": [1, 3], "count": 2},
        {"colors": [2, 3], "count": 1},
    ]
    assert doc["predicted_flag"]["num_colors"] == 3


def test_emit_report_round_trips_flag(sample_b):
    _, report = cone_extension(sample_b)
    doc = json.loads(emit_report(report))
    flag_text = json.dumps(doc["predicted_flag"])
    assert parse_flag_vector(flag_text) == report.predicted_flag


def test_coarse_entries_validation():
    with pytest.raises(ValueError):
        CoarseFVector(())
