"""Independent brute-force oracles and small builders for the tests.

Everything here recomputes results from first principles (filtering all
subsets, direct double sums, naive recursion) so the library's layered
searches and transforms are checked against a second route.
"""

from __future__ import annotations

from itertools import combinations, product

from flagshift import ColoredComplex, EMPTY_FACE, Face, FlagVector, shift_closure


def face(*pairs: tuple[int, int]) -> Face:
    return Face(pairs)


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


def brute_is_color_shifted(faces: set[Face]) -> bool:
    """Down-set test by comparing all pairs against the full candidate pool."""
    pool = set()
    for f in faces:
        options = [[None] + [(c, i) for i in range(1, idx + 1)] for c, idx in f.vertices]
        for choice in product(*options):
            pool.add(Face(p for p in choice if p is not None))
    return pool.issubset(faces)


def brute_shift_maximal(faces: set[Face]) -> set[Face]:
    return {
        f
        for f in faces
        if not any(g != f and brute_dominance_le(f, g) for g in faces)
    }


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
