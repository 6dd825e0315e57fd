"""Index dominance and color-shifted structure.

A face F dominates G (written G <= F here) when every vertex of G has a
vertex of the same color in F with index at least as large.  A complex
is color-shifted when its face set is a down-set for this order.  The
shift-maximal faces of a color-shifted complex are the maximal elements;
they generate the complex through their principal down-sets.

A record is tested in masks, a face set tuple by tuple; only the
tuple route names a violation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .complexes import ColoredComplex, Face, Vertex
from .complexes import _dense_enough, _grid_faces, _project, _record_grids


def dominance_le(lower: Face, upper: Face) -> bool:
    """Whether `lower` precedes `upper` in the dominance order."""
    for color, index in lower.vertices:
        u = upper.get(color)
        if u is None or index > u:
            return False
    return True


def shift_max_key(face: Face) -> tuple:
    """Canonical order for shift-maximal faces: colors, then indices."""
    return (face.colors, face.indices)


def _box(vertices: tuple[Vertex, ...]) -> list[tuple[Vertex, ...]]:
    """Vertex tuples of every face dominated by the face with these
    vertices: per color, no vertex or one of index 1..the face's own.
    Each lists its vertices by increasing color, as Face stores them."""
    choices = [()]
    for color, index in vertices:
        options = [Vertex(color, i) for i in range(1, index + 1)]
        choices += [choice + (v,) for choice in choices for v in options]
    return choices


def down_set_faces(face: Face) -> Iterator[Face]:
    """Every face dominated by `face` (the face itself included), each
    once; the order is unspecified."""
    return map(Face._raw, _box(face._vertices))


def _covered(tuples: Iterable[tuple]) -> set[tuple]:
    """Vertex tuples of the immediate predecessors of these faces: one
    vertex dropped, or one index lowered by one.  Every dominated face is
    reached by a chain of them.  A lowered vertex is a plain
    (color, index) pair, which hashes and compares as a Vertex."""
    covered = set()
    for vertices in tuples:
        for j, (color, index) in enumerate(vertices):
            head, tail = vertices[:j], vertices[j + 1:]
            covered.add(head + tail)
            if index > 1:
                covered.add(head + ((color, index - 1),) + tail)
    return covered


def find_shift_violation(c: ColoredComplex) -> tuple[Face, Face] | None:
    """Witness that c is not color-shifted, or None.

    Returns (missing, containing): the containing face is the first face
    in canonical order with any absent dominated face, and the missing
    face is the canonically smallest absent member of its down-set.  A
    record that passes shift_maximal_faces' mask test returns None
    without building its face set.
    """
    if c._record is not None and _maximal_in_masks(c._record) is not None:
        return None
    faces = c.faces
    have = {face._vertices for face in faces}
    if _covered(have) <= have:
        return None
    for face in c.sorted_faces():
        if not _covered((face._vertices,)) <= have:
            missing = min(
                (g for g in down_set_faces(face) if g not in faces),
                key=lambda f: f.sort_key,
            )
            return missing, face


def is_color_shifted(c: ColoredComplex) -> bool:
    return find_shift_violation(c) is None


def shift_maximal_faces(c: ColoredComplex) -> list[Face]:
    """Dominance-maximal faces of a color-shifted complex, canonically ordered.

    A face F of c is maximal exactly when it is no face's immediate
    predecessor (one color dropped, or one index lowered by one).  Each
    such predecessor is strictly dominated by its face, so it is not
    maximal.  Conversely, a face F dominated by some other face of the
    down-set c has an immediate successor G in c: F with one index
    raised by one, or F with a fresh color at index 1.  F is G's
    immediate predecessor at that color.  The empty face is a
    predecessor of every vertex, so it is maximal exactly when the
    complex is {empty face}.

    c is color-shifted exactly when it holds every face's immediate
    predecessors; find_shift_violation runs only to name a violation.

    A record (ColoredComplex._raw) is a complex, so it holds every
    drop, and the rest of the argument runs in masks.  In the grid of a
    layer, the point one index lower than p in a color of stride s is
    p - s, for p above that color's bottom row (_Geometry.rows); so c is
    color-shifted exactly when, for every layer and color, those points
    shifted down by s stay inside the layer.  The points so reached are
    the index predecessors, and the projections of each layer S + {c}
    onto S (_project) are the drop predecessors; the points of S left
    are its maximal faces.  Rank order is row-major, lexicographic in
    the indices, so the layers in order of their colors, each in rank
    order, give shift_max_key's order.  A record that fails the test,
    or has a layer too sparse for masks, takes the tuple route.
    """
    if c._record is not None:
        maximal = _maximal_in_masks(c._record)
        if maximal is not None:
            return maximal
    faces = c.faces
    have = {face._vertices for face in faces}
    covered = _covered(have)
    if not covered <= have:
        missing, containing = find_shift_violation(c)
        raise ValueError(
            f"complex is not color-shifted: {containing} present but {missing} missing"
        )
    return sorted(
        (face for face in faces if face._vertices not in covered), key=shift_max_key
    )


def _maximal_in_masks(record: dict[int, int]) -> list[Face] | None:
    """The maximal faces of a record as shift_maximal_faces states, or
    None when it is not color-shifted or a layer's grid is too sparse
    for masks (complexes._dense_enough)."""
    covered: dict[int, int] = {}  # layer mask -> its points a drop covers
    layers = []
    for points, geo in _record_grids(record):
        if not _dense_enough(geo.size, points.bit_count()):
            return None
        for sub, _, r, s, _ in geo.drops:
            covered[sub] = covered.get(sub, 0) | _project(points, r, s)
        free = points
        for s, above in geo.rows:
            lower = (points & above) >> s  # one index lower than a point
            if lower & ~points:
                return None
            free &= ~lower
        if free:
            layers.append((geo.colors, free, geo))
    maximal = []
    for _, free, geo in sorted(layers, key=lambda layer: layer[0]):
        free &= ~covered.get(geo.mask, 0)
        if free:
            maximal += _grid_faces(free, geo)
    return maximal


def principal_downset(c: ColoredComplex, face: Face) -> ColoredComplex:
    """Subcomplex of everything dominated by one face of c.

    For a color-shifted c the result is contained in c and its unique
    shift-maximal face is `face`.
    """
    if face not in c.faces:
        raise ValueError(f"face {face} is not in the complex")
    return ColoredComplex._raw(c.num_colors, frozenset(down_set_faces(face)))


def shift_closure(num_colors: int, generators: Iterable[Face]) -> ColoredComplex:
    """Smallest color-shifted complex containing the given faces.

    With no generators this is the empty complex (zero faces).
    """
    num_colors = int(num_colors)
    if num_colors < 0:
        raise ValueError("num_colors must be >= 0")
    closed: set[Face] = set()
    for gen in generators:
        for color in gen.colors:
            if color > num_colors:
                raise ValueError(
                    f"generator {gen} uses color {color} but num_colors is {num_colors}"
                )
        if gen not in closed:
            closed.update(down_set_faces(gen))
    return ColoredComplex._raw(num_colors, frozenset(closed))
