"""JSON documents for complexes, flag vectors, and construction reports.

Complex document:
    {"num_colors": n, "faces": [[[color, index], ...], ...]}
or, as input only, "generators" in place of "faces" (the parser takes
the downward closure).  Exactly one of the two keys must be present.
A valid "faces" document whose every layer is dense enough for masks
(complexes._dense_enough) parses into a record; any other parses into
faces, which name its defect.

Flag vector document:
    {"num_colors": n, "kind": "f" | "h",
     "entries": [{"colors": [..sorted..], "count": c}, ...]}
Omitted color sets mean zero; duplicates are rejected.  On output the
zero entries are omitted, except the empty-set entry which is always
written.

Emission is canonical and byte-stable: two equal values always produce
identical bytes, and distinct complexes produce distinct bytes.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from typing import Any

from .complexes import ColoredComplex, Face, _vertex_tuple, from_generators
from .complexes import _dense_enough, _grid_faces, _grids, _record_grids
from .construction import ConstructionReport
from .flags import MAX_COLORS, CoarseFVector, FlagVector, canonical_key
from .shifting import _projections


class DocumentError(ValueError):
    """A document failed to parse: bad syntax or bad shape."""


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None


def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _expect_object(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    return doc


def _expect_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{what} must be an integer")
    return value


def _parse_face(entry: Any, pos: int) -> Face:
    if not isinstance(entry, list):
        raise DocumentError(f"face #{pos} must be a list of [color, index] pairs")
    for pair in entry:
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
        ):
            raise DocumentError(f"face #{pos} holds a malformed vertex: {pair!r}")
    # the pairs are exact integers, so Face's conversion would change nothing
    try:
        return Face._raw(_vertex_tuple(sorted(entry)))
    except ValueError as exc:
        raise DocumentError(f"face #{pos}: {exc}") from exc


def _parse_record(num_colors: int, entries: list) -> dict[int, int] | None:
    """The record (ColoredComplex._raw) of a "faces" list of JSON
    values, or None when the face-set route must run: the list breaks a
    check of _parse_face or validate_faces, has more than MAX_COLORS
    colors (the reach of flags.canonical_key), or a layer too sparse for masks
    (complexes._dense_enough).

    The first pass checks each pair and takes each color's largest
    index t_c, so the grids are sized before any mask is built; the
    second sets each face's rank in its color set's entry.  Each layer
    is tested for density by its distinct points before it is
    projected.  The faces then pass validate_faces exactly when
    record[0] is 1 (the empty face), every vertex entry is
    (1 << t_c) - 1 (a color's singletons run from 1 to its largest
    index: saturation), and each layer's projection along each drop
    lies inside the sub-layer (every one-vertex drop of a face is
    present: closure); a layer the shift test has seen on its grid
    reads its projections from that test's memo (shifting._projections).
    """
    if num_colors > MAX_COLORS:
        return None
    top = [0] * (num_colors + 1)  # top[c]: the largest index of color c
    masks = []
    try:
        for entry in entries:
            if type(entry) is not list:
                return None
            mask = 0
            # a JSON value unpacks into two ints only if it is a list of two
            for color, index in entry:
                if type(color) is not int or type(index) is not int:
                    return None
                if not 0 < color <= num_colors or index < 1:
                    return None
                mask |= 1 << (color - 1)
                if index > top[color]:
                    top[color] = index
            if mask.bit_count() != len(entry):  # a color held twice
                return None
            masks.append(mask)
    except (TypeError, ValueError):  # a pair that does not unpack into two
        return None
    # the vertex counts up to the highest color, the table _record_grids reads
    table = _grids(tuple(top[1:max(masks, default=0).bit_length() + 1]))
    grids = {mask: table[mask] for mask in sorted(set(masks), key=canonical_key)}
    # the rule on every layer implies it on their sum, as the entries bound
    # the faces: this changes no route, and refuses before masks are built
    if not _dense_enough(sum(geo.size for geo in grids.values()), len(entries)):
        return None
    layers = {mask: (geo.strides, bytearray(geo.size + 7 >> 3)) for mask, geo in grids.items()}
    for entry, mask in zip(entries, masks):
        stride, bits = layers[mask]
        rank = 0
        for color, index in entry:
            rank += (index - 1) * stride[color]
        bits[rank >> 3] |= 1 << (rank & 7)
    record = {mask: int.from_bytes(bits, "little") for mask, (_, bits) in layers.items()}
    if record.get(0) != 1:
        return None
    for color in range(1, num_colors + 1):
        if top[color] and record.get(1 << (color - 1)) != (1 << top[color]) - 1:
            return None
    for mask, geo in grids.items():
        points = record[mask]
        if not _dense_enough(geo.size, points.bit_count()):
            return None
        for sub, projected in _projections(points, geo):
            # a vertex's drop is the empty face, checked above
            if sub and projected & ~record.get(sub, 0):
                return None
    return record


def parse_complex(text: str) -> ColoredComplex:
    """Parse a complex document; raises DocumentError or InvalidComplexError."""
    doc = _expect_object(_loads(text), "complex")
    if "num_colors" not in doc:
        raise DocumentError('complex document needs "num_colors"')
    num_colors = _expect_int(doc["num_colors"], '"num_colors"')
    if num_colors < 0:
        raise DocumentError('"num_colors" must be >= 0')
    has_faces = "faces" in doc
    has_generators = "generators" in doc
    if has_faces == has_generators:
        raise DocumentError('complex document needs exactly one of "faces" or "generators"')
    key = "faces" if has_faces else "generators"
    entries = doc[key]
    if not isinstance(entries, list):
        raise DocumentError(f'"{key}" must be a list of faces')
    if has_faces:
        record = _parse_record(num_colors, entries)
        if record is not None:
            return ColoredComplex._raw(num_colors, None, record)
    faces = [_parse_face(entry, pos) for pos, entry in enumerate(entries)]
    if has_generators:
        return from_generators(num_colors, faces)
    return ColoredComplex(num_colors, faces)


def face_to_obj(face: Face) -> list:
    """A face as its [[color, index], ...] list, by increasing color."""
    return [[color, index] for color, index in face._vertices]


@lru_cache(maxsize=64)
def _face_template(size: int) -> str:
    """The %-template of a face's entry in a complex document, taking
    the color and index of each of its `size` vertices in turn."""
    vertex = "      [\n        %d,\n        %d\n      ]"
    return "    [\n" + ",\n".join([vertex] * size) + "\n    ]" if size else "    []"


def _face_text(vertices: tuple) -> str:
    return _face_template(len(vertices)) % tuple(chain.from_iterable(vertices))


def _layer_text(points: int, geo) -> str:
    """The entries of a layer's faces in a complex document, in rank
    order, each face read from its grid's face memo."""
    return ",\n".join([_face_text(face._vertices) for face in _grid_faces(points, geo)])


def emit_complex(c: ColoredComplex) -> str:
    """Canonical document for a complex: faces in canonical order.

    The bytes equal _dumps of the document but are written directly:
    json's indented encoder runs in pure Python, and a complex's
    document is only nested lists of integers.  A complex with a record
    (complexes.ColoredComplex._raw) is written from it in its
    canonical order, each layer's text taken from the text memo of its
    grid's geometry (complexes._record_grids), keyed by the layer's
    points: a layer is formatted once per grid, not once per document,
    and a memo hit is one dict read and builds no Face.
    """
    record = c._record
    if record is None:
        faces = [_face_text(face._vertices) for face in c.sorted_faces()]
    else:
        faces = []  # the text of each layer
        for points, geo in _record_grids(record):
            text = geo.texts.get(points)
            if text is None:
                text = geo.texts.keep(points, _layer_text(points, geo))
            faces.append(text)
    body = "[\n" + ",\n".join(faces) + "\n  ]" if faces else "[]"
    return f'{{\n  "faces": {body},\n  "num_colors": {c.num_colors}\n}}\n'


def parse_flag_vector(text: str) -> FlagVector:
    """Parse a flag vector document; raises DocumentError on any defect."""
    doc = _expect_object(_loads(text), "flag vector")
    if "num_colors" not in doc:
        raise DocumentError('flag vector document needs "num_colors"')
    num_colors = _expect_int(doc["num_colors"], '"num_colors"')
    kind = doc.get("kind", "f")
    if kind not in ("f", "h"):
        raise DocumentError('"kind" must be "f" or "h"')
    if "entries" not in doc:
        raise DocumentError('flag vector document needs "entries"')
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise DocumentError('"entries" must be a list')
    counts: dict[tuple[int, ...], int] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "colors" not in entry or "count" not in entry:
            raise DocumentError(
                f'entry #{pos} must be an object with "colors" and "count"'
            )
        colors = entry["colors"]
        if not isinstance(colors, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in colors
        ):
            raise DocumentError(f'entry #{pos}: "colors" must be a list of integers')
        key = tuple(sorted(colors))
        if len(set(key)) != len(key):
            raise DocumentError(f"entry #{pos} repeats a color")
        if key in counts:
            raise DocumentError(f"duplicate entry for color set {list(key)}")
        counts[key] = _expect_int(entry["count"], f'entry #{pos} "count"')
    try:
        return FlagVector(num_colors, counts, kind)
    except (ValueError, OverflowError) as exc:
        raise DocumentError(str(exc)) from exc


def flag_vector_to_obj(fv: FlagVector) -> dict:
    entries = [{"colors": list(colors), "count": count} for colors, count in fv.nonzero_items()]
    if fv.count_at_mask(0) == 0:  # the empty set comes first and is always written
        entries.insert(0, {"colors": [], "count": 0})
    return {"num_colors": fv.num_colors, "kind": fv.kind, "entries": entries}


def emit_flag_vector(fv: FlagVector) -> str:
    """Canonical flag vector document: zero entries omitted except f_emptyset."""
    return _dumps(flag_vector_to_obj(fv))


def emit_coarse(cf: CoarseFVector) -> str:
    return _dumps({"entries": list(cf.entries)})


def report_to_obj(report: ConstructionReport) -> dict:
    return {
        "base_colors": report.base_colors,
        "apex_count": report.apex_count,
        "total_colors": report.total_colors,
        "shift_maximal": [face_to_obj(face) for face in report.shift_maximal],
        "apexes": [[v.color, v.index] for v in report.apexes],
        "predicted_singletons": [
            {"colors": [color], "count": 1} for color in report.predicted_singletons
        ],
        "predicted_edges": [
            {"colors": [color, apex_color], "count": count}
            for color, apex_color, count in report.predicted_edges
        ],
        "predicted_flag": flag_vector_to_obj(report.predicted_flag),
    }


def emit_report(report: ConstructionReport) -> str:
    return _dumps(report_to_obj(report))
