"""Independent brute-force oracles and small builders for the tests.

Everything here recomputes results from first principles (filtering all
subsets, direct double sums, naive recursion) so the library's layered
searches and transforms are checked against a second route.
"""

from __future__ import annotations

import json
from itertools import combinations, product

from flagshift import (
    ColoredComplex,
    EMPTY_FACE,
    MAX_COLORS,
    ConstructionReport,
    Face,
    FlagVector,
    TooManyColorsError,
    Vertex,
    Violation,
    cone,
    flag_f,
    principal_downset,
    shift_closure,
)
from flagshift import complexes
from flagshift.complexes import _project
from flagshift.formats import face_to_obj
from flagshift.oracle import _allowed_mask


def cold_grids() -> None:
    """Empty both caches that hold layer geometries, _layer_geometry and
    the record tables (_grids), so that every grid read next is built
    afresh, with empty memos."""
    complexes._layer_geometry.cache_clear()
    complexes._grids.cache_clear()


def grid_table(t):
    """The table of vertex counts t (complexes._grids) as every reader
    keys it: by the counts up to the last color with vertices."""
    while t and not t[-1]:
        t = t[:-1]
    return complexes._grids(tuple(t))


def face(*pairs: tuple[int, int]) -> Face:
    return Face(pairs)


def without_color(f: Face, color: int) -> Face:
    """The face with its vertex of `color` dropped, if it has one."""
    return Face(v for v in f.vertices if v.color != color)


def with_index(f: Face, color: int, index: int) -> Face:
    """The face with its vertex of `color` moved to `index`."""
    return Face((c, index if c == color else i) for c, i in f.vertices)


def edge2(a: int, b: int) -> Face:
    """Two-color shorthand: edge (a, b) = {v_a^1, v_b^2}."""
    return Face([(1, a), (2, b)])


def two_color_complex(t1: int, t2: int, edges) -> ColoredComplex:
    """Two-color complex with vertex counts (t1, t2) and the given edges."""
    faces = {EMPTY_FACE}
    faces.update(Face([(1, i)]) for i in range(1, t1 + 1))
    faces.update(Face([(2, i)]) for i in range(1, t2 + 1))
    faces.update(edge2(a, b) for a, b in edges)
    return ColoredComplex(2, faces)


def staircase(k: int) -> ColoredComplex:
    """Shift closure of the edges (i, k+1-i): k shift-maximal faces."""
    return shift_closure(2, [edge2(i, k + 1 - i) for i in range(1, k + 1)])


# ===================================================================
# brute-force oracles
# ===================================================================

def brute_closure(generators) -> set[Face]:
    """Subset closure by materializing every subset of every generator."""
    closed: set[Face] = set()
    for gen in generators:
        vs = gen.vertices
        for size in range(len(vs) + 1):
            for combo in combinations(vs, size):
                closed.add(Face(combo))
    return closed


def brute_dominance_le(f: Face, g: Face) -> bool:
    gmap = {v.color: v.index for v in g.vertices}
    return all(v.color in gmap and v.index <= gmap[v.color] for v in f.vertices)


def brute_down_set(f: Face) -> set[Face]:
    """Every face f dominates: per color, no vertex or one of index up to f's."""
    options = [[None] + [(c, i) for i in range(1, idx + 1)] for c, idx in f.vertices]
    return {Face(p for p in choice if p is not None) for choice in product(*options)}


def brute_is_color_shifted(faces: set[Face]) -> bool:
    """Down-set test by comparing all pairs against the full candidate pool."""
    pool = set()
    for f in faces:
        pool |= brute_down_set(f)
    return pool.issubset(faces)


def brute_shift_maximal(faces: set[Face]) -> set[Face]:
    return {
        f
        for f in faces
        if not any(g != f and brute_dominance_le(f, g) for g in faces)
    }


def reference_color_shift(faces) -> set[Face]:
    """Shift a face set by compression inside one color until no
    compression moves a face.  Compressing color c from index j to i < j
    replaces each face that holds (c, j), and whose image with (c, i) in
    its place is absent, by that image, each image tested against the set
    before the compression.  A compression keeps every face's color set,
    so the flag f-vector, and keeps a complex a complex; once none moves a
    face, each face's image is present, so the set is color-shifted."""
    faces = set(faces)
    moved = True
    while moved:
        moved = False
        for c, j in sorted({v for f in faces for v in f.vertices}):
            for i in range(1, j):
                images = {f: with_index(f, c, i) for f in faces if (c, j) in f.vertices}
                moves = {f: g for f, g in images.items() if g not in faces}
                if moves:
                    faces = (faces - moves.keys()) | set(moves.values())
                    moved = True
    return faces


def all_candidate_faces(num_colors: int, bounds) -> list[Face]:
    """Every face with indices within the per-color bounds."""
    out = [EMPTY_FACE]
    colors = range(1, num_colors + 1)
    for size in range(1, num_colors + 1):
        for subset in combinations(colors, size):
            for idx in product(*(range(1, bounds[c - 1] + 1) for c in subset)):
                out.append(Face(zip(subset, idx)))
    return out


def brute_all_color_shifted(num_colors: int, bounds) -> set[frozenset[Face]]:
    """Face sets of every color-shifted complex within the bounds.

    Filters all subsets of the candidate pool, so keep the pool small
    (at most ~16 faces).
    """
    pool = all_candidate_faces(num_colors, bounds)
    assert len(pool) <= 18, "brute force pool too large"
    found = set()
    for picks in range(1, 1 << len(pool)):
        faces = {pool[i] for i in range(len(pool)) if picks >> i & 1}
        if EMPTY_FACE not in faces:
            continue
        if not brute_is_color_shifted(faces):
            continue
        found.add(frozenset(faces))
    return found


def brute_flag_f(c: ColoredComplex) -> dict[tuple[int, ...], int]:
    counts: dict[tuple[int, ...], int] = {}
    for f in c.faces:
        counts[f.colors] = counts.get(f.colors, 0) + 1
    return counts


def brute_h_from_f(f: FlagVector) -> dict[tuple[int, ...], int]:
    """Direct alternating double sum over explicit subsets."""
    n = f.num_colors
    colors = list(range(1, n + 1))
    out = {}
    for size in range(n + 1):
        for s in combinations(colors, size):
            total = 0
            for tsize in range(len(s) + 1):
                for t in combinations(s, tsize):
                    total += f.count(t) * (-1) ** (len(s) - len(t))
            out[s] = total
    return out


def brute_f_from_h(h: FlagVector) -> dict[tuple[int, ...], int]:
    n = h.num_colors
    colors = list(range(1, n + 1))
    out = {}
    for size in range(n + 1):
        for s in combinations(colors, size):
            out[s] = sum(
                h.count(t)
                for tsize in range(len(s) + 1)
                for t in combinations(s, tsize)
            )
    return out


def brute_partitions(e: int) -> int:
    """Count partitions by enumerating weakly decreasing summand lists."""

    def rec(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(rec(remaining - part, part) for part in range(min(largest, remaining), 0, -1))

    return rec(e, e) if e >= 0 else 0


def brute_record(c: ColoredComplex) -> dict[int, int]:
    """Per color-set mask with faces, the bitmask of the row-major ranks
    of those faces in the grid whose radix for each color is its number
    of vertices."""
    counts: dict[int, int] = {}
    for f in c.faces:
        if len(f) == 1:
            counts[f.colors[0]] = counts.get(f.colors[0], 0) + 1
    record: dict[int, int] = {}
    for f in c.faces:
        mask = rank = 0
        for color, index in f.vertices:
            mask |= 1 << (color - 1)
            rank = rank * counts[color] + index - 1
        record[mask] = record.get(mask, 0) | 1 << rank
    return record


def reference_grid_faces(mask: int, radices) -> list[Face]:
    """Every face with exactly the colors of bitmask `mask` and radices[i]
    vertices of its i-th color, the whole grid in row-major rank order."""
    colors = [c + 1 for c in range(mask.bit_length()) if mask >> c & 1]
    return [Face(zip(colors, v)) for v in product(*(range(1, r + 1) for r in radices))]


def reference_down_sets(preds) -> list[int]:
    """downs[i]: point i and every point below it, in the poset whose
    immediate predecessors of point i are the bits of preds[i], by the
    transitive closure of the order (Warshall)."""
    n = len(preds)
    below = [preds[i] | 1 << i for i in range(n)]
    for k in range(n):
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    return below


def brute_allowed_mask(colors, radices, chosen: dict[int, int]) -> int:
    """Layer points whose every one-color-drop projection is chosen,
    tested point by point in row-major rank order."""
    mask = sum(1 << (c - 1) for c in colors)
    allowed = 0
    for rank, v in enumerate(product(*(range(r) for r in radices))):
        ok = True
        for j, c in enumerate(colors):
            sub_radices = radices[:j] + radices[j + 1:]
            sub_v = v[:j] + v[j + 1:]
            sub_rank = 0
            for x, r in zip(sub_v, sub_radices):
                sub_rank = sub_rank * r + x
            if not chosen[mask ^ (1 << (c - 1))] >> sub_rank & 1:
                ok = False
        if ok:
            allowed |= 1 << rank
    return allowed


def reference_propagate(layers, f, chosen: dict[int, int]) -> dict[int, int] | None:
    """The bound-propagation fixpoint with a single stop: rounds of up and
    down sweeps until a down sweep shrinks no U.  Returns U per color-set
    mask, or None when the target is refuted.  oracle._propagate must
    reach the same U, stopping a round earlier when every U equals its R."""
    upper = dict(chosen)
    required = {geo.mask: 0 for geo in layers}
    while True:
        for geo in layers:
            want = f[geo.mask]
            bound = _allowed_mask(geo, upper) & upper.get(geo.mask, -1)
            if geo.chain:
                bound &= (1 << want) - 1
            if bound.bit_count() < want:
                return None
            upper[geo.mask] = bound
            if bound.bit_count() == want:
                required[geo.mask] |= bound
        shrunk = False
        for geo in reversed(layers):
            want = f[geo.mask]
            need = required[geo.mask]
            if need.bit_count() > want:
                return None
            if need.bit_count() == want and upper[geo.mask] & ~need:
                upper[geo.mask] &= need
                shrunk = True
            for sub_mask, _, r, s, _ in geo.drops:
                if sub_mask in required:
                    required[sub_mask] |= _project(need, r, s)
        if not shrunk:
            return upper


# ===================================================================
# conditions stronger than color-shifting
# ===================================================================
# Each implies color-shifted and survives selecting colors, which keeps
# the vertex counts of the selected colors.

def _layers_initial(c: ColoredComplex, key) -> bool:
    """Each layer, the faces with one color set, is an initial segment of
    its index grid, whose radices are the vertex counts, ordered by `key`
    of the index tuples.  An initial segment of an order that extends the
    componentwise one is down-closed, so c is color-shifted."""
    counts = c.vertex_counts()
    layers: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for f in c.faces:
        layers.setdefault(f.colors, set()).add(f.indices)
    for colors, points in layers.items():
        grid = sorted(product(*(range(1, counts[k - 1] + 1) for k in colors)), key=key)
        if set(grid[: len(points)]) != points:
            return False
    return True


def is_lex_initial(c: ColoredComplex) -> bool:
    """Every layer is an initial segment of the lexicographic order."""
    return _layers_initial(c, lambda v: v)


def is_colex_initial(c: ColoredComplex) -> bool:
    """Every layer is an initial segment of the colexicographic order,
    which compares the last color first."""
    return _layers_initial(c, lambda v: v[::-1])


def is_swap_invariant_shifted(c: ColoredComplex) -> bool:
    """c is color-shifted and maps onto itself when any two colors with
    equal vertex counts swap their vertices."""
    faces = set(c.faces)
    if not brute_is_color_shifted(faces):
        return False
    counts = c.vertex_counts()
    for a, b in combinations(range(1, c.num_colors + 1), 2):
        if counts[a - 1] == counts[b - 1]:
            swap = {a: b, b: a}
            if {Face((swap.get(k, k), i) for k, i in f.vertices) for f in faces} != faces:
                return False
    return True


# ===================================================================
# reference implementations of the fast paths
# ===================================================================

def reference_cone_extension(delta: ColoredComplex):
    """The cone extension built face by face: the union of delta and the
    cone over each maximal face's principal down-set, with the maximal
    faces found by brute force and the flag vector read off the output."""
    n = delta.num_colors
    maximal = sorted(
        brute_shift_maximal(set(delta.faces)), key=lambda f: (f.colors, f.indices)
    )
    k = len(maximal)
    if n + k > MAX_COLORS:
        raise TooManyColorsError(
            f"the extension of a complex with n={n} colors and k={k} shift-maximal "
            f"faces needs n+k={n + k} colors; flag vectors support at most {MAX_COLORS}"
        )
    faces = set(delta.faces)
    apexes = tuple(Vertex(n + p, 1) for p in range(1, k + 1))
    for face, apex in zip(maximal, apexes):
        faces |= cone(principal_downset(delta, face), apex).faces
    extended = ColoredComplex(n + k, faces)
    report = ConstructionReport(
        base_colors=n,
        apex_count=k,
        total_colors=n + k,
        shift_maximal=tuple(maximal),
        apexes=apexes,
        predicted_singletons=tuple(range(n + 1, n + k + 1)),
        predicted_edges=tuple(
            (v.color, apex.color, v.index)
            for face, apex in zip(maximal, apexes)
            for v in face.vertices
        ),
        predicted_flag=flag_f(extended),
    )
    return extended, report


def complex_to_obj(c: ColoredComplex) -> dict:
    """A complex document as a JSON value: its faces in canonical order."""
    return {
        "num_colors": c.num_colors,
        "faces": [face_to_obj(face) for face in c.sorted_faces()],
    }


def reference_flag_vector_obj(fv: FlagVector) -> dict:
    """The flag vector document's object, read off every entry of
    fv.items(): the zero entries dropped, the empty-set entry kept."""
    entries = [
        {"colors": list(colors), "count": count}
        for colors, count in fv.items()
        if count != 0 or not colors
    ]
    return {"num_colors": fv.num_colors, "kind": fv.kind, "entries": entries}


def reference_emit_complex(c: ColoredComplex) -> str:
    """The canonical complex document through json's indented encoder."""
    return json.dumps(complex_to_obj(c), indent=2, sort_keys=True) + "\n"


def reference_validate_faces(num_colors: int, faces) -> Violation | None:
    """The first violation by an ordered scan of the faces, each check in
    turn over the whole family."""
    face_set = frozenset(faces)
    if not face_set:
        return None
    ordered = sorted(face_set, key=lambda f: f.sort_key)
    for f in ordered:
        for c in f.colors:
            if c > num_colors:
                return Violation(
                    "color-range",
                    f"face {f} uses color {c} but the complex has {num_colors} colors",
                    face=f,
                    color=c,
                )
    if EMPTY_FACE not in face_set:
        return Violation("empty-face", "non-empty complex must contain the empty face")
    for f in ordered:
        for c in f.colors:
            sub = without_color(f, c)
            if sub not in face_set:
                return Violation(
                    "closure",
                    f"face {f} is present but its subset {sub} is missing",
                    face=f,
                    missing=sub,
                )
    by_color: dict[int, set[int]] = {}
    for f in face_set:
        if len(f) == 1:
            v = f.vertices[0]
            by_color.setdefault(v.color, set()).add(v.index)
    for color in sorted(by_color):
        have = by_color[color]
        if have != set(range(1, len(have) + 1)):
            gap = min(set(range(1, max(have) + 1)) - have)
            return Violation(
                "saturation",
                f"color {color} skips vertex index {gap}: indices must be contiguous from 1",
                color=color,
            )
    return None


def reference_find_shift_violation(c: ColoredComplex) -> tuple[Face, Face] | None:
    """Witness that c is not color-shifted, built face by face: the first
    face in canonical order with an absent immediate predecessor (one
    color dropped, or one index lowered by one), and the canonically
    smallest absent face of its down-set."""
    faces = c.faces
    for f in c.sorted_faces():
        predecessors = []
        for color, index in f.vertices:
            predecessors.append(without_color(f, color))
            if index > 1:
                predecessors.append(with_index(f, color, index - 1))
        if any(g not in faces for g in predecessors):
            missing = min(
                (g for g in brute_down_set(f) if g not in faces), key=lambda g: g.sort_key
            )
            return missing, f
    return None
