"""JSON documents for complexes, flag vectors, and construction reports.

Complex document:
    {"num_colors": n, "faces": [[[color, index], ...], ...]}
or, as input only, "generators" in place of "faces" (the parser takes
the downward closure).  Exactly one of the two keys must be present.

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
from .complexes import _grid_face, _record_grids
from .construction import ConstructionReport
from .flags import CoarseFVector, FlagVector


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


def emit_complex(c: ColoredComplex) -> str:
    """Canonical document for a complex: faces in canonical order.

    The bytes equal _dumps of the document but are written directly:
    json's indented encoder runs in pure Python, and a complex's
    document is only nested lists of integers.  A complex with a record
    (a cone extension or a walk-built complex) is written from it in its
    canonical order, each face's text taken from the text memo of its
    grid's geometry (complexes._record_grids): a face is formatted once
    per grid, not once per document, and a memo hit builds no Face.
    """
    record = c._record
    if record is None:
        faces = [_face_text(face._vertices) for face in c.sorted_faces()]
    else:
        faces = []
        for points, geo in _record_grids(record):
            texts = geo.texts
            while points:
                low = points & -points
                rank = low.bit_length() - 1
                text = texts.get(rank)
                if text is None:
                    text = texts[rank] = _face_text(_grid_face(geo, rank)._vertices)
                faces.append(text)
                points ^= low
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
