"""Exhaustive searches over colored complexes at desk scale.

The central routine enumerates every color-shifted complex with a
prescribed flag f-vector.  A color-shifted complex is assembled one
color set at a time, in canonical order (size, then lexicographic):
the vertex layer of color i is forced to the first target({i}) indices,
and the layer for a color set S is an order ideal of the index grid
prod over c in S of {1..t_c}, restricted to faces whose one-color-drop
projections were all chosen in lower layers.  That restriction set is
itself down-closed, so the per-layer candidates are exactly the order
ideals of a bitmask poset with a prescribed size; the _kernels module
enumerates those.

Each layer's grid, with each one-color drop's radix, stride and column,
is read from the table of the target's vertex counts (complexes._grids),
which a witness's record is read through too; the table takes each grid
from complexes._layer_geometry, cached by its color-set bitmask and
radices.  A layer that reaches a kernel reads its grid's order from the
geometry's `downs`, which computes each down-set on its first read.
Only the color sets the target gives faces are visited (_target_layers;
an enumeration's target holds every face within its bounds).  No search
builds a face: a witness is a copy of its chosen masks, a record (_start),
and verify_uniqueness compares it with the cone extension, itself only
a record, mask by mask (ColoredComplex.__eq__).

The allowed set is computed bitwise.  A point is allowed when, for every
dropped color, its projection was chosen, so the allowed set is the AND
over dropped colors of the OR of the fibers of the chosen sub-points,
the chosen sub-layer spread by complexes._regroup, the regroup that
_project gathers with, times the drop's column (_allowed_mask).  A fully
chosen sub-layer constrains nothing and is skipped; when the dropped
color has one vertex, projection keeps the rank, so the fiber union is
the chosen sub-mask itself.

The allowed set is down-closed: if v is allowed and u <= v, each
one-color-drop projection of u is dominated by the matching projection
of v, which lies in a lower layer chosen as an order ideal, so u is
allowed too.  When a layer's target equals |allowed|, an ideal of that
size inside `allowed` can only be `allowed` itself: the layer has a
single candidate, which costs one node and skips the kernel.  The search
first cuts `allowed` to the points whose down-set fits the target
(complexes._within), a down-set too: a candidate holds each of its
points' down-sets.

Before the prescribed-flag search branches, a bound-propagation
fixpoint (_propagate) runs the counting argument behind the uniqueness
of the cone extension.  Each layer L gets an upper bound U(L), holding
L's points in every solution, and a required set R(L), held by them:
  - U(L) is the allowed set computed over the sub-layers' U.  The
    allowed set is monotone in the sub-layer masks, and each solution's
    sub-layers lie in their U, so its layer L lies in U(L).
  - When at most one color of L has more than one vertex (as for a
    base color against the one-vertex apex colors of a cone extension),
    the grid is a chain in rank order.  A down-closed set in a chain is
    a prefix, so U(L) is also cut to the target prefix (1 << target) - 1.
  - When |U(L)| equals L's target, every solution chooses U(L) itself,
    so R(L) gains U(L).
  - A solution's layer L projects into its chosen sub-layers, so each
    one-color-drop projection of R(L) is required there.
  - When |R(L)| equals L's target, every solution chooses R(L) itself,
    so U(L) is cut to R(L).
  - A layer with |U| below its target or |R| above it admits no
    solution, so the target is refuted with no node.
Each step cuts U(L) to a set that holds L's points in every solution, or
adds to R(L) points that every solution's layer L holds, so the steps
are sound in any order.  R is a union of down-sets (the U it gains and
projections of down-sets), so U stays down-closed when cut to R.  The
steps are monotone, since a smaller U and a larger R only shrink U and
grow R, so any order that applies each until none changes anything
reaches the same fixpoint.  _propagate runs rounds of two sweeps: up in
canonical order, computing each U from the U below it, then down in
reverse, where each layer's R is complete before it is checked and
projected.  It stops after a down sweep in either of two states:
  - No U shrank.  Every U still matches the U below it and every R was
    read whole, so no step changes anything.
  - Every layer is settled: U(L) = R(L).  Each R(L) was projected into
    its sub-layers' R, which equal their U, and the vertex layers never
    change, so U(L) lies inside the allowed set over the U below; a
    chain layer's U already lies inside its prefix.  The up sweep left
    |U(L)| >= target and the down sweep checked |R(L)| <= target, so
    both equal the target.  So the next round changes no U and no R:
    the state is the fixpoint the loop would reach, a round earlier.
At a no-shrink stop, "U = R on every layer" and "|U| = target on every
layer" are one test: the up sweep adds to R(L) a U(L) of the target's
size, and the down sweep bounds |R(L)| by the target.  So whether the
fixpoint is settled is known at the stop, with no recount.

The walk then intersects each layer's allowed set with U(L); both are
down-sets, so the single-candidate rule above still holds, and a layer
whose |U| meets its target has only U as its candidate.  A chain layer
never holds more than its target, so it has a single candidate or none.

When the fixpoint leaves every layer settled (U(L) = R(L), of L's
target size, as for every cone extension), the walk has one path.
Assign the layers in order, each sub-layer's chosen mask being its U:
the layer's allowed set contains U(L), since each one-color-drop
projection of R(L) = U(L) was added to the sub-layer's R, which equals
its U, so allowed & U(L) is U(L), of the target's size.  Each layer is
then a single candidate, costing one node to open and one to assign,
and the only complete assignment is every U.  The search returns that
outcome directly: one witness made of the U, 2 nodes per layer, and a
budget stop at max_nodes + 1 when that is fewer than 2 per layer, the
count at which the walk, adding one node at a time, would stop.  A
target with no color set of two or more colors has nothing to
propagate and is settled: its one path is the empty assignment, which
costs one node, and the same return applies the witness cap to it as
to any settled target.

One lister and one walk (_walk, depth first) serve the prescribed-flag
search and both enumerations; only the source of each layer's candidates
differs.  Each source lists them in ascending order, the walk's order
(_kernels docstring).  Every allowed set a kernel receives is a
down-set, as the kernels require: the search's allowed & U & _within,
an enumeration's allowed set, and the diagram count's _within.  Each candidate of the last layer completes one
witness and the search stops at the witness cap, so the last layer's
kernel lists only the first ones the cap still admits: the same
witnesses, order and flags as the full list, in no more nodes, so a
budget stop comes no sooner.  Every search is budgeted
by one rule: one node is one partial-assignment extension, either a
kernel step (a forced exclusion is none), a single-candidate open or a
layer assignment (a flag target with no layer costs one node, its empty
assignment).  Outcomes distinguish an exhausted search space from a
budget stop and from a witness-cap stop, so "no witness" and "ran out of
budget" are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import prod
from typing import Iterable, Iterator

from . import _kernels
from .complexes import (
    ColoredComplex, _Geometry, _grids, _layer_geometry, _project, _regroup, _within,
    colors_of_mask,
)
from .construction import cone_extension
from .flags import _INT64_MAX, MAX_COLORS, FlagVector, canonical_key, flag_f

@dataclass(frozen=True)
class SearchBudget:
    """Limits for a search: node count and number of witnesses collected."""

    max_nodes: int = 10_000_000
    max_witnesses: int = 2

    def __post_init__(self):
        if type(self.max_nodes) is not int or type(self.max_witnesses) is not int:
            raise TypeError("budget limits must be integers")
        if self.max_nodes < 1 or self.max_witnesses < 1:
            raise ValueError("budget limits must be >= 1")


_DEFAULT_BUDGET = SearchBudget()  # frozen, so every search without a budget shares it


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
    """Raised by the enumerations and the diagram count, which return no
    SearchOutcome, when the node budget runs out."""


# ===================================================================
# layer machinery
# ===================================================================

def _allowed_mask(geo: _Geometry, chosen: dict[int, int]) -> int:
    """Points whose every one-color-drop projection was chosen below.

    Along the drop of a color with radix r and stride s, the fiber of
    sub-point hi * s + lo is the column shifted to hi * r * s + lo.  So
    the union of the chosen sub-points' fibers is the chosen mask with
    its s-bit blocks moved r * s bits apart (complexes._regroup, the
    gather of _project run the other way), times the column: the
    column's copies fall in distinct bits, so the product carries
    nothing and is their OR."""
    allowed = (1 << geo.size) - 1
    for sub_mask, full, r, s, column in geo.drops:
        sub = chosen[sub_mask]
        if sub == full:
            continue
        allowed &= sub if r == 1 else _regroup(sub, s, s, r * s) * column
    return allowed


def _start(t) -> dict[int, int]:
    """Chosen masks of the empty layer and the vertex layers with
    vertices.

    The walk and the fixpoint add the other layers' masks, and the
    result is the record of a complex (ColoredComplex._raw) as it
    stands: every chosen point of a layer is the face of that rank in
    the grid of the layer's mask, chosen[0] = 1 is the empty face, and
    the t[i] vertices of color i + 1 are (1 << t[i]) - 1, so the bit
    lengths of those entries are the grid's radices.  The entries are in
    canonical order: these come first, and the walk and the fixpoint
    add the layers' in canonical order."""
    chosen = {0: 1}
    for c, count in enumerate(t):
        if count:
            chosen[1 << c] = (1 << count) - 1
    return chosen


def _walk(layers, chosen: dict[int, int], source, max_nodes: int):
    """Depth-first walk over the assignments of `layers`, in order.

    source(geo, allowed, remaining) returns a layer's candidates as the
    kernels do, (list of masks in ascending order, nodes spent,
    completed); a source that ran out spends more than `remaining`.  The
    walk charges that plus one node per layer assignment, tries the
    candidates in their order, keeps the assigned masks in `chosen`, and
    yields the node count at each complete assignment.  It returns the
    final count, which exceeds max_nodes exactly when the budget ran out.
    """
    nodes = 0
    depth = len(layers)
    frames = []  # per assigned layer: (color-set mask, iterator over its untried masks)
    while True:
        j = len(frames)
        if j == depth:
            yield nodes
        else:
            geo = layers[j]
            masks, used, _ = source(geo, _allowed_mask(geo, chosen), max_nodes - nodes)
            nodes += used
            if nodes > max_nodes:
                return nodes
            frames.append((geo.mask, iter(masks)))
        while frames:
            mask, untried = frames[-1]
            pick = next(untried, None)
            if pick is not None:
                break
            frames.pop()
        else:
            return nodes
        nodes += 1
        if nodes > max_nodes:
            return nodes
        chosen[mask] = pick


# ===================================================================
# prescribed-flag search
# ===================================================================

def _target_layers(f, t) -> list[_Geometry] | None:
    """Geometries of the color sets of size >= 2 with faces in the dense
    target f, in canonical order, or None when a color set with faces has
    a one-color drop without or more faces than its grid; both are
    checked before the grid is built.  Only non-zero entries are visited.
    Each geometry is read from the table of t (complexes._grids); a
    first read there builds it from the radices the checks collected.

    An enumeration passes the complex of every face within its vertex
    counts t, full[S] = prod(t[c] for c in S).  full[S] is non-zero exactly
    when every color of S has vertices; then every drop of S has faces
    and full[S] is S's grid size, so full is never refused.  Only such a
    target has more than MAX_COLORS colors, ordered by color tuple.
    The table is keyed by t up to its last color with vertices, as a
    record's is (complexes._record_grids), so a witness is read through
    the table its search filled."""
    grids = _grids(tuple(t[:max(compress(range(1, len(t) + 1), t), default=0)]))
    layers = []
    masks = [m for m in compress(range(len(f)), f) if m & (m - 1)]
    wide = len(f) > 1 << MAX_COLORS
    key = (lambda m: (m.bit_count(), colors_of_mask(m))) if wide else canonical_key
    for mask in sorted(masks, key=key):
        radices = []
        m = mask
        while m:
            low = m & -m
            if f[mask ^ low] == 0:
                return None
            radices.append(t[low.bit_length() - 1])
            m ^= low
        if f[mask] > prod(radices):
            return None
        geo = grids.get(mask)
        if geo is None:  # fill the table as its own miss would, from the radices at hand
            grids[mask] = geo = _layer_geometry(mask, tuple(radices))
        layers.append(geo)
    return layers


def _propagate(layers, f, chosen: dict[int, int]) -> tuple[dict[int, int], bool] | None:
    """(U per color-set mask, settled) at the bound-propagation fixpoint
    (module docstring), or None when the target is refuted.

    settled is True when every layer's U equals its R, and so has the
    target's size.  The loop stops at the first down sweep that leaves
    every layer settled, or that shrinks no U; either state is the
    fixpoint, so a settled target costs one round of sweeps.

    `layers` are in canonical order, and each one-color drop of a layer
    is an earlier layer or a vertex layer, fixed whole in `chosen`.
    """
    upper = dict(chosen)
    required = {geo.mask: 0 for geo in layers}
    while True:
        for geo in layers:  # up: sub-layers first
            want = f[geo.mask]
            bound = _allowed_mask(geo, upper) & upper.get(geo.mask, -1)  # -1: unbounded
            if geo.chain:
                bound &= (1 << want) - 1
            if bound.bit_count() < want:
                return None
            upper[geo.mask] = bound
            if bound.bit_count() == want:
                required[geo.mask] |= bound
        shrunk = False
        settled = True
        for geo in reversed(layers):  # down: super-layers first
            want = f[geo.mask]
            need = required[geo.mask]
            if need.bit_count() > want:
                return None
            bound = upper[geo.mask]
            if need.bit_count() == want and bound & ~need:
                bound &= need
                upper[geo.mask] = bound
                shrunk = True
            if bound != need:
                settled = False
            for sub_mask, _, r, s, _ in geo.drops:
                if sub_mask in required:
                    required[sub_mask] |= _project(need, r, s)
        if settled or not shrunk:
            return upper, settled


def enumerate_color_shifted_with_flag(
    target: FlagVector, budget: SearchBudget | None = None
) -> SearchOutcome:
    """All color-shifted complexes whose flag f-vector equals `target`.

    The target must be an f-vector counting the empty face exactly once.
    Witness vertex counts are forced: color i has target({i}) vertices.
    f_from_h may return negative counts, which no complex meets: a
    negative vertex count is refuted before anything is built, any other
    by the fixpoint, where R, even empty, exceeds it.  The search is then
    exhausted, with no witness and no node.
    """
    if budget is None:
        budget = _DEFAULT_BUDGET
    if target.kind != "f":
        raise ValueError("search target must be an f-vector")
    f = target.dense()
    if f[0] != 1:
        raise ValueError("search target must count the empty face exactly once")
    n = target.num_colors
    t = [f[1 << i] for i in range(n)]
    layers = None if min(t, default=0) < 0 else _target_layers(f, t)
    if layers is None:
        return SearchOutcome([], exhausted=True, nodes_visited=0)
    chosen = _start(t)
    propagated = _propagate(layers, f, chosen)
    if propagated is None:
        return SearchOutcome([], exhausted=True, nodes_visited=0)
    upper, settled = propagated
    if settled:
        # every layer settled: the walk's outcome, without the walk
        nodes = 2 * len(layers) or 1
        if nodes > budget.max_nodes:
            return SearchOutcome([], False, budget.max_nodes + 1)
        truncated = budget.max_witnesses == 1
        witness = ColoredComplex._raw(n, None, dict(upper))
        return SearchOutcome([witness], not truncated, nodes, truncated)

    def candidates(geo: _Geometry, allowed: int, remaining: int):
        want = f[geo.mask]
        allowed &= upper[geo.mask] & _within(geo.radices, want)
        size = allowed.bit_count()
        if size < want:
            return [], 0, True
        if size == want:
            # the single candidate (module docstring)
            return [allowed], 1, True
        limit = budget.max_witnesses - len(witnesses) if geo is layers[-1] else None
        return _kernels.ideals_of_size(geo.downs, allowed, want, remaining, limit)

    witnesses: list[ColoredComplex] = []
    walk = _walk(layers, chosen, candidates, budget.max_nodes)
    try:
        while True:
            nodes = next(walk)
            witnesses.append(ColoredComplex._raw(n, None, dict(chosen)))
            if len(witnesses) >= budget.max_witnesses:
                return SearchOutcome(witnesses, False, nodes, truncated=True)
    except StopIteration as stop:
        nodes = stop.value
    return SearchOutcome(witnesses, nodes <= budget.max_nodes, nodes)


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
        budget = _DEFAULT_BUDGET
    elif budget.max_witnesses < 2:  # a second witness is what refutes uniqueness
        budget = SearchBudget(budget.max_nodes, 2)
    extended, report = cone_extension(delta)
    outcome = enumerate_color_shifted_with_flag(report.predicted_flag, budget)
    if outcome.exhausted:
        unique: bool | None = outcome.witnesses == [extended]
    else:
        others = [w for w in outcome.witnesses if w != extended]
        unique = False if others else None
    return UniquenessResult(unique=unique, extended=extended, outcome=outcome)


# ===================================================================
# unconstrained enumerations
# ===================================================================

def _enumerate(
    num_colors: int, vertex_bounds: Iterable[int], budget: SearchBudget | None, source
) -> Iterator[ColoredComplex]:
    """The complexes within the vertex bounds whose layers take the
    candidates of `source` (see _walk), vertex counts in lexicographic
    order, under one node budget."""
    if budget is None:
        budget = _DEFAULT_BUDGET
    bounds = [int(b) for b in vertex_bounds]
    if len(bounds) != num_colors or any(b < 0 for b in bounds):
        raise ValueError("vertex_bounds must list one bound >= 0 per color")
    nodes = 0
    for t in product(*(range(b + 1) for b in bounds)):
        full = [1]  # full[S] = prod(t[c] for c in S), by bitmask S
        for count in t:
            full += [size * count for size in full]
        layers = _target_layers(full, t)
        chosen = _start(t)
        walk = _walk(layers, chosen, source, budget.max_nodes - nodes)
        try:
            while True:
                next(walk)
                yield ColoredComplex._raw(num_colors, None, dict(chosen))
        except StopIteration as stop:
            nodes += stop.value
        if nodes > budget.max_nodes:
            raise BudgetExhausted(f"enumeration exceeded {budget.max_nodes} nodes")


def _every_ideal(geo: _Geometry, allowed: int, remaining: int):
    return _kernels.all_ideals(geo.downs, allowed, remaining)


def enumerate_color_shifted_complexes(
    num_colors: int,
    vertex_bounds: Iterable[int],
    budget: SearchBudget | None = None,
) -> Iterator[ColoredComplex]:
    """Every color-shifted complex with at most the given vertices per color.

    Complexes are yielded in a deterministic order: vertex counts in
    lexicographic order, then layer ideals bottom up.  The empty complex
    is not produced (the trivial complex {empty face} is).  Raises
    BudgetExhausted once the search has spent the node budget.
    """
    return _enumerate(num_colors, vertex_bounds, budget, _every_ideal)


def _every_subset(geo: _Geometry, allowed: int, remaining: int):
    """The subsets of `allowed`, ascending, in the order the walk tries
    them.  The walk spends a node on each one it assigns, so it reaches
    the budget stop before it tries more than remaining + 1 of them;
    only those are built."""
    subs = [0]
    s = 0
    for _ in range(min(remaining, (1 << allowed.bit_count()) - 1)):
        s = (s - allowed) & allowed
        subs.append(s)
    return subs, 0, True


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
    return _enumerate(num_colors, vertex_bounds, budget, _every_subset)


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


def count_two_color_shifted_by_edges(
    e: int, budget: SearchBudget | None = None
) -> int:
    """Number of two-color color-shifted edge families with exactly e edges.

    Edge families are down-sets of the index grid (Young diagrams), and
    a vertex budget of e per color never constrains a diagram with e
    cells; the count equals partition_number(e), but this function
    enumerates the diagrams, by the search's kernel walk on the e x e
    grid.  It reads partition_number(e) only to bound the budget: each
    state of the walk is a leaf or has two children, so a completed walk
    spends 2L - 1 nodes for its L leaves, and each diagram is a distinct
    leaf, so L >= p(e).  When 2p(e) - 1 exceeds max_nodes (or p(e) is
    too large for 64 bits) the budget stop is certain and BudgetExhausted
    is raised without walking.  Otherwise BudgetExhausted is raised once
    the count has spent the node budget.
    """
    if budget is None:
        budget = _DEFAULT_BUDGET
    e = int(e)
    if e < 0:
        raise ValueError("edge count must be >= 0")
    try:
        certain = 2 * partition_number(e) - 1 > budget.max_nodes
    except OverflowError:
        certain = True
    if not certain:
        # a Young diagram with e cells holds the i x j rectangle under
        # each of its cells, so it lies within the cells with i * j <= e
        count, _used, completed = _kernels.count_ideals_of_size(
            _layer_geometry(0b11, (e, e)).downs, _within((e, e), e), e, budget.max_nodes
        )
        if completed:
            return count
    raise BudgetExhausted(f"diagram count exceeded {budget.max_nodes} nodes")
