"""Exhaustive searches over colored complexes at desk scale.

The central routine enumerates every color-shifted complex with a
prescribed flag f-vector.  A color-shifted complex is assembled one
color set at a time, in canonical order (size, then lexicographic):
the vertex layer of color i is forced to the first target({i}) indices,
and the layer for a color set S is an order ideal of the index grid
prod over c in S of {1..t_c}, restricted to faces whose one-color-drop
projections were all chosen in lower layers.  That restriction set is
itself down-closed, so the per-layer candidates are exactly the order
ideals of a bitmask poset with a prescribed size; the _kernels package
enumerates those (compiled when available).

Forced layers skip the kernel.  The allowed set is down-closed: if v is
allowed and u <= v, each one-color-drop projection of u is dominated by
the matching projection of v, which lies in a lower layer chosen as an
order ideal, so u is allowed too.  An ideal of size |allowed| inside
`allowed` can therefore only be `allowed` itself, and when the layer
target equals |allowed| that single candidate is returned at the cost
of one node, on either kernel backend.

Searches are budgeted: one node is one partial-assignment extension,
either a kernel step, a forced layer or a layer assignment.  Outcomes
distinguish an exhausted search space from a budget stop and from a
witness-cap stop, so "no witness" and "ran out of budget" are never
conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from . import _kernels
from .complexes import EMPTY_FACE, ColoredComplex, Face
from .construction import cone_extension
from .flags import _INT64_MAX, FlagVector, colors_of_mask, flag_f, subset_masks

_UNBOUNDED = 1 << 62


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a search: node count and number of witnesses collected."""

    max_nodes: int = 10_000_000
    max_witnesses: int = 2

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_witnesses < 1:
            raise ValueError("budget limits must be >= 1")


@dataclass
class SearchOutcome:
    """Result of a budgeted search.

    exhausted is True only when the whole space was explored; truncated
    is True when the search stopped at the witness cap.  When exhausted,
    `witnesses` is the complete list, in deterministic canonical order.
    """

    witnesses: list[ColoredComplex]
    exhausted: bool
    nodes_visited: int
    truncated: bool = False


@dataclass
class UniquenessResult:
    """Outcome of checking that an extension is pinned by its flag vector.

    unique is True/False when the search was conclusive, None when the
    node budget ran out first.
    """

    unique: bool | None
    extended: ColoredComplex
    outcome: SearchOutcome


class BudgetExhausted(RuntimeError):
    """Raised by streaming enumerators when the node budget runs out."""


# ===================================================================
# layer machinery
# ===================================================================

@dataclass
class _Layer:
    colors: tuple[int, ...]
    mask: int
    target: int
    faces: list[Face]
    preds: list[int]
    projections: list[list[tuple[int, int]]]  # per point: (sub color mask, sub rank)


def _strides(radices: list[int]) -> list[int]:
    s = [1] * len(radices)
    for j in range(len(radices) - 2, -1, -1):
        s[j] = s[j + 1] * radices[j + 1]
    return s


def _build_layer(colors: tuple[int, ...], t: dict[int, int], target: int) -> _Layer:
    radices = [t[c] for c in colors]
    points = list(product(*(range(1, r + 1) for r in radices)))
    strides = _strides(radices)
    mask = 0
    for c in colors:
        mask |= 1 << (c - 1)
    faces = [Face(zip(colors, v)) for v in points]
    preds = []
    for rank, v in enumerate(points):
        m = 0
        for j in range(len(colors)):
            if v[j] > 1:
                m |= 1 << (rank - strides[j])
        preds.append(m)
    sub_strides = [_strides(radices[:j] + radices[j + 1:]) for j in range(len(colors))]
    projections = []
    for v in points:
        plist = []
        for j, c in enumerate(colors):
            sub_v = v[:j] + v[j + 1:]
            ss = sub_strides[j]
            sub_rank = sum((sub_v[l] - 1) * ss[l] for l in range(len(sub_v)))
            plist.append((mask ^ (1 << (c - 1)), sub_rank))
        projections.append(plist)
    return _Layer(tuple(colors), mask, target, faces, preds, projections)


def _allowed_mask(layer: _Layer, chosen: dict[int, int]) -> int:
    """Points whose every one-color-drop projection was chosen below."""
    m = 0
    for idx, plist in enumerate(layer.projections):
        for sub_mask, sub_rank in plist:
            if not (chosen[sub_mask] >> sub_rank) & 1:
                break
        else:
            m |= 1 << idx
    return m


def _fixed_faces(t: list[int]) -> set[Face]:
    faces = {EMPTY_FACE}
    for c, count in enumerate(t, start=1):
        for i in range(1, count + 1):
            faces.add(Face(((c, i),)))
    return faces


# ===================================================================
# prescribed-flag search
# ===================================================================

def enumerate_color_shifted_with_flag(
    target: FlagVector, budget: SearchBudget | None = None
) -> SearchOutcome:
    """All color-shifted complexes whose flag f-vector equals `target`.

    The target must be an f-vector counting the empty face exactly once.
    Witness vertex counts are forced: color i has target({i}) vertices.
    """
    if budget is None:
        budget = SearchBudget()
    if target.kind != "f":
        raise ValueError("search target must be an f-vector")
    if target.count_at_mask(0) != 1:
        raise ValueError("search target must count the empty face exactly once")
    n = target.num_colors
    t = [target.count_at_mask(1 << i) for i in range(n)]
    t_by_color = {c: t[c - 1] for c in range(1, n + 1)}

    # A color set with faces needs every one-color-drop subset to have
    # faces too, and no layer can exceed its grid.
    for mask in range(1 << n):
        count = target.count_at_mask(mask)
        if count == 0 or mask == 0:
            continue
        grid = 1
        sub_ok = True
        m = mask
        while m:
            bit = m & -m
            if target.count_at_mask(mask ^ bit) == 0:
                sub_ok = False
                break
            grid *= t[bit.bit_length() - 1]
            m ^= bit
        if not sub_ok or count > grid:
            return SearchOutcome([], exhausted=True, nodes_visited=0)

    active = [
        _build_layer(colors_of_mask(mask), t_by_color, target.count_at_mask(mask))
        for mask in subset_masks(n)
        if mask.bit_count() >= 2 and target.count_at_mask(mask) > 0
    ]
    chosen: dict[int, int] = {0: 1}
    for i in range(n):
        chosen[1 << i] = (1 << t[i]) - 1
    fixed = frozenset(_fixed_faces(t))

    witnesses: list[ColoredComplex] = []
    nodes = 0
    budget_hit = False
    truncated = False

    def emit() -> None:
        faces = set(fixed)
        for layer in active:
            m = chosen[layer.mask]
            idx = 0
            while m:
                if m & 1:
                    faces.add(layer.faces[idx])
                m >>= 1
                idx += 1
        witnesses.append(ColoredComplex._raw(n, frozenset(faces)))

    if not active:
        nodes += 1
        if nodes <= budget.max_nodes:
            emit()
            return SearchOutcome(witnesses, exhausted=True, nodes_visited=nodes)
        return SearchOutcome([], exhausted=False, nodes_visited=nodes)

    def open_layer(j: int) -> list[int] | None:
        """Candidate masks for layer j, or None if the budget ran out."""
        nonlocal nodes
        layer = active[j]
        allowed = _allowed_mask(layer, chosen)
        size = allowed.bit_count()
        if size < layer.target:
            return []
        if size == layer.target:
            nodes += 1
            return None if nodes > budget.max_nodes else [allowed]
        masks, used, completed = _kernels.ideals_of_size(
            layer.preds, allowed, layer.target, budget.max_nodes - nodes
        )
        nodes += used
        if not completed:
            return None
        masks.sort()
        return masks

    stack: list[list] = []  # frames [layer index, candidates, position]
    first = open_layer(0)
    if first is None:
        budget_hit = True
    else:
        stack.append([0, first, 0])
    while stack:
        frame = stack[-1]
        j, candidates, pos = frame
        if pos >= len(candidates):
            stack.pop()
            chosen.pop(active[j].mask, None)
            continue
        frame[2] += 1
        nodes += 1
        if nodes > budget.max_nodes:
            budget_hit = True
            break
        chosen[active[j].mask] = candidates[pos]
        if j + 1 == len(active):
            emit()
            if len(witnesses) >= budget.max_witnesses:
                truncated = True
                break
        else:
            nxt = open_layer(j + 1)
            if nxt is None:
                budget_hit = True
                break
            stack.append([j + 1, nxt, 0])
    exhausted = not budget_hit and not truncated
    return SearchOutcome(witnesses, exhausted, nodes, truncated)


def find_color_shifted_with_flag(
    source: ColoredComplex, budget: SearchBudget | None = None
) -> SearchOutcome:
    """Search for color-shifted complexes with the flag f-vector of `source`.

    Every colored complex shares its flag f-vector with at least one
    color-shifted complex, so an exhausted search with no witness would
    be a counterexample to that.
    """
    if len(source) == 0:
        raise ValueError("source complex must be non-empty")
    return enumerate_color_shifted_with_flag(flag_f(source), budget)


def verify_uniqueness(
    delta: ColoredComplex, budget: SearchBudget | None = None
) -> UniquenessResult:
    """Check that the cone extension of delta is the only color-shifted
    complex with its flag f-vector.

    Conclusive outcomes need either an exhausted search or a second
    witness; otherwise unique is None (budget ran out first).
    """
    if budget is None:
        budget = SearchBudget()
    effective = SearchBudget(budget.max_nodes, max(2, budget.max_witnesses))
    extended, _report = cone_extension(delta)
    outcome = enumerate_color_shifted_with_flag(flag_f(extended), effective)
    if outcome.exhausted:
        unique: bool | None = outcome.witnesses == [extended]
    else:
        others = [w for w in outcome.witnesses if w != extended]
        unique = False if others else None
    return UniquenessResult(unique=unique, extended=extended, outcome=outcome)


# ===================================================================
# unconstrained enumerations
# ===================================================================

def enumerate_color_shifted_complexes(
    num_colors: int, vertex_bounds: Iterable[int]
) -> Iterator[ColoredComplex]:
    """Every color-shifted complex with at most the given vertices per color.

    Complexes are yielded in a deterministic order: vertex counts in
    lexicographic order, then layer ideals bottom up.  The empty complex
    is not produced (the trivial complex {empty face} is).
    """
    bounds = [int(b) for b in vertex_bounds]
    if len(bounds) != num_colors or any(b < 0 for b in bounds):
        raise ValueError("vertex_bounds must list one bound >= 0 per color")
    for t in product(*(range(b + 1) for b in bounds)):
        t_by_color = {c: t[c - 1] for c in range(1, num_colors + 1)}
        layers = [
            _build_layer(colors_of_mask(mask), t_by_color, 0)
            for mask in subset_masks(num_colors)
            if mask.bit_count() >= 2
            and all(t[i] > 0 for i in range(num_colors) if mask >> i & 1)
        ]
        chosen: dict[int, int] = {0: 1}
        for i in range(num_colors):
            chosen[1 << i] = (1 << t[i]) - 1
        fixed = frozenset(_fixed_faces(list(t)))

        def rec(j: int) -> Iterator[ColoredComplex]:
            if j == len(layers):
                faces = set(fixed)
                for layer in layers:
                    m = chosen[layer.mask]
                    idx = 0
                    while m:
                        if m & 1:
                            faces.add(layer.faces[idx])
                        m >>= 1
                        idx += 1
                yield ColoredComplex._raw(num_colors, frozenset(faces))
                return
            layer = layers[j]
            allowed = _allowed_mask(layer, chosen)
            masks, _used, completed = _kernels.all_ideals(
                layer.preds, allowed, _UNBOUNDED
            )
            if not completed:
                raise BudgetExhausted("ideal enumeration exceeded the internal cap")
            for m in sorted(masks):
                chosen[layer.mask] = m
                yield from rec(j + 1)
            chosen.pop(layer.mask, None)

        yield from rec(0)


def _submasks_ascending(mask: int) -> list[int]:
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.reverse()
    return subs


def enumerate_all_colored_complexes(
    num_colors: int,
    vertex_bounds: Iterable[int],
    budget: SearchBudget | None = None,
) -> Iterator[ColoredComplex]:
    """Every colored complex (shifted or not) within the vertex bounds.

    Streams complexes in a deterministic order; raises BudgetExhausted
    if the node budget runs out mid-stream.  The empty complex is not
    produced.
    """
    if budget is None:
        budget = SearchBudget()
    bounds = [int(b) for b in vertex_bounds]
    if len(bounds) != num_colors or any(b < 0 for b in bounds):
        raise ValueError("vertex_bounds must list one bound >= 0 per color")
    nodes = 0
    for t in product(*(range(b + 1) for b in bounds)):
        t_by_color = {c: t[c - 1] for c in range(1, num_colors + 1)}
        layers = [
            _build_layer(colors_of_mask(mask), t_by_color, 0)
            for mask in subset_masks(num_colors)
            if mask.bit_count() >= 2
            and all(t[i] > 0 for i in range(num_colors) if mask >> i & 1)
        ]
        chosen: dict[int, int] = {0: 1}
        for i in range(num_colors):
            chosen[1 << i] = (1 << t[i]) - 1
        fixed = frozenset(_fixed_faces(list(t)))

        def rec(j: int) -> Iterator[ColoredComplex]:
            nonlocal nodes
            if j == len(layers):
                faces = set(fixed)
                for layer in layers:
                    m = chosen[layer.mask]
                    idx = 0
                    while m:
                        if m & 1:
                            faces.add(layer.faces[idx])
                        m >>= 1
                        idx += 1
                yield ColoredComplex._raw(num_colors, frozenset(faces))
                return
            layer = layers[j]
            allowed = _allowed_mask(layer, chosen)
            for m in _submasks_ascending(allowed):
                nodes += 1
                if nodes > budget.max_nodes:
                    raise BudgetExhausted(
                        f"enumeration exceeded {budget.max_nodes} nodes"
                    )
                chosen[layer.mask] = m
                yield from rec(j + 1)
            chosen.pop(layer.mask, None)

        yield from rec(0)


# ===================================================================
# two-color counts
# ===================================================================

def partition_number(e: int) -> int:
    """The number of integer partitions of e, by the pentagonal recurrence.

    Raises OverflowError once the value leaves signed 64-bit range.
    """
    e = int(e)
    if e < 0:
        raise ValueError("partition_number needs e >= 0")
    p = [1]
    for m in range(1, e + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        if total > _INT64_MAX:
            raise OverflowError(f"partition number of {m} exceeds 64-bit range")
        p.append(total)
    return p[e]


def count_two_color_shifted_by_edges(e: int) -> int:
    """Number of two-color color-shifted edge families with exactly e edges.

    Edge families are down-sets of the index grid (Young diagrams), and
    a vertex budget of e per color never constrains a diagram with e
    cells; the count equals partition_number(e), which this function
    deliberately does not call: it enumerates the diagrams.
    """
    e = int(e)
    if e < 0:
        raise ValueError("edge count must be >= 0")
    layer = _build_layer((1, 2), {1: e, 2: e}, e)
    allowed = (1 << len(layer.faces)) - 1
    count, _used, completed = _kernels.count_ideals_of_size(
        layer.preds, allowed, e, _UNBOUNDED
    )
    if not completed:
        raise BudgetExhausted("diagram enumeration exceeded the internal cap")
    return count
