"""Exhaustive search: enumeration counts, witnesses, uniqueness, budgets."""

from __future__ import annotations

import random
import time
import tracemalloc
from functools import cache
from itertools import product
from collections import Counter
from math import prod
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from flagshift import (
    BudgetExhausted,
    ColoredComplex,
    Face,
    FlagVector,
    SearchBudget,
    cone_extension,
    count_two_color_shifted_by_edges,
    emit_complex,
    enumerate_all_colored_complexes,
    enumerate_color_shifted_complexes,
    enumerate_color_shifted_with_flag,
    find_color_shifted_with_flag,
    flag_f,
    is_color_shifted,
    partition_number,
    shift_closure,
    two_color_realizable,
    verify_cone_extension,
    verify_uniqueness,
)

from flagshift import complexes, oracle
from flagshift.flags import MAX_COLORS, canonical_key, colors_of_mask, subset_masks

from helpers import (
    brute_all_color_shifted,
    brute_allowed_mask,
    brute_flag_f,
    brute_partitions,
    brute_record,
    cold_grids,
    edge2,
    face,
    reference_cone_extension,
    reference_grid_faces,
    reference_propagate,
    staircase,
    without_color,
)


# ===================================================================
# enumeration of all color-shifted complexes
# ===================================================================

def test_enumerate_shifted_tiny_counts():
    assert sum(1 for _ in enumerate_color_shifted_complexes(0, [])) == 1
    assert sum(1 for _ in enumerate_color_shifted_complexes(1, [1])) == 2
    assert sum(1 for _ in enumerate_color_shifted_complexes(1, [3])) == 4
    assert sum(1 for _ in enumerate_color_shifted_complexes(2, [1, 1])) == 5


def test_enumerate_shifted_matches_brute_force_2x2():
    got = {c.faces for c in enumerate_color_shifted_complexes(2, [2, 2])}
    assert len(got) == 19
    assert got == brute_all_color_shifted(2, [2, 2])


def test_enumerate_shifted_frozen_counts():
    assert sum(1 for _ in enumerate_color_shifted_complexes(2, [3, 3])) == 69
    assert sum(1 for _ in enumerate_color_shifted_complexes(2, [4, 4])) == 251


def test_enumerate_shifted_all_valid_and_distinct():
    seen = set()
    for c in enumerate_color_shifted_complexes(2, [3, 2]):
        assert c.validate() is None
        assert is_color_shifted(c)
        key = (c.num_colors, c.faces)
        assert key not in seen
        seen.add(key)


def test_enumerate_shifted_three_colors_brute():
    got = {c.faces for c in enumerate_color_shifted_complexes(3, [1, 1, 1])}
    assert got == brute_all_color_shifted(3, [1, 1, 1])


def test_enumerations_reject_bad_vertex_bounds():
    message = r"^vertex_bounds must list one bound >= 0 per color$"
    for enumerate_ in (enumerate_color_shifted_complexes, enumerate_all_colored_complexes):
        for bounds in ([1], [1, 1, 1], [1, -1]):
            with pytest.raises(ValueError, match=message):
                list(enumerate_(2, bounds))


def test_enumerations_above_sixteen_colors():
    """More than 16 colors, the last three with one vertex each: the same
    complexes as on 3 colors, colors renumbered by 14, in the same order
    (_target_layers sorts such a table's masks by their color tuples),
    and no key of 2^16 or more lands in the canonical-key memo."""
    for enumerate_ in (enumerate_color_shifted_complexes, enumerate_all_colored_complexes):
        narrow = [
            {tuple((color + 14, index) for color, index in f.vertices) for f in c.faces}
            for c in enumerate_(3, [1, 1, 1])
        ]
        wide = [
            {tuple(f.vertices) for f in c.faces}
            for c in enumerate_(17, [0] * 14 + [1, 1, 1])
        ]
        assert wide == narrow and len(wide) > 5
    assert not [mask for mask in canonical_key.__self__ if mask >= 1 << MAX_COLORS]


# ===================================================================
# flag-constrained search
# ===================================================================

def test_search_finds_unique_witness(sample_a):
    fv = flag_f(sample_a)
    outcome = enumerate_color_shifted_with_flag(fv)
    assert outcome.exhausted
    assert outcome.witnesses == [sample_a]


def test_search_counts_witnesses_without_cap():
    # f = (1, 2, 2, 3): dominated by two distinct diagram shapes?
    fv = FlagVector(2, (1, 2, 2, 3), kind="f")
    outcome = enumerate_color_shifted_with_flag(
        fv, SearchBudget(max_witnesses=10)
    )
    assert outcome.exhausted
    assert len(outcome.witnesses) == 1
    w = outcome.witnesses[0]
    assert flag_f(w) == fv and is_color_shifted(w)
    assert brute_flag_f(w) == dict(fv.nonzero_items())


def test_search_short_circuits_impossible_projections():
    # an edge count with no singletons cannot close downward
    fv = FlagVector(2, (1, 0, 0, 3), kind="f")
    outcome = enumerate_color_shifted_with_flag(fv)
    assert outcome.exhausted and not outcome.witnesses
    assert outcome.nodes_visited == 0


def test_search_short_circuits_oversized_layers():
    # more edges than the vertex grid can hold
    fv = FlagVector(2, (1, 2, 2, 5), kind="f")
    outcome = enumerate_color_shifted_with_flag(fv)
    assert outcome.exhausted and not outcome.witnesses
    assert outcome.nodes_visited == 0


def test_rejected_targets_build_no_layer(monkeypatch):
    """The one-color drops and the grid size of a layer S are checked
    before S's grid is built or read from the table of t, so a rejected
    target costs no geometry for S, however large its grid would be, and
    none at all when S is its first layer with faces.  From cold caches,
    building S's geometry through either route raises; the layers before
    S are built, and the search, which reads them there, is exhausted
    with no node."""
    for n, dense, refused in [
        (2, (1, 0, 0, 3), 0b11),
        (2, (1, 0, 2, 1), 0b11),
        (2, (1, 2, 0, 1), 0b11),  # the drop {2} of {1,2} is empty
        (2, (1, 2, 2, 5), 0b11),  # 5 faces on a 2 x 2 grid
        (2, (1, 10**6, 10**6, 10**12 + 1), 0b11),
        (3, (1, 1, 1, 0, 1, 0, 0, 1), 0b111),
        (3, (1, 2, 2, 4, 0, 1, 0, 0), 0b101),  # after {1,2}: the drop {3} is empty
        (3, (1, 2, 2, 4, 1, 2, 2, 5), 0b111),  # after three edge layers: 5 on a 2 x 2 x 1 grid
    ]:
        order = subset_masks(n)
        before = [m for m in order[:order.index(refused)] if dense[m] and m & (m - 1)]
        built = []

        def geometry(mask, radices, make=complexes._Geometry):
            assert mask != refused, "the refused layer's grid was built"
            built.append(mask)
            return make(mask, radices)

        cold_grids()
        monkeypatch.setattr(oracle, "_layer_geometry", geometry)
        monkeypatch.setattr(complexes, "_layer_geometry", geometry)
        t = [dense[1 << i] for i in range(n)]
        assert oracle._target_layers(dense, t) is None, dense
        assert (built, refused in complexes._grids(tuple(t))) == (before, False), dense
        outcome = enumerate_color_shifted_with_flag(FlagVector(n, dense))
        assert (outcome.witnesses, outcome.exhausted, outcome.nodes_visited) == ([], True, 0)
        monkeypatch.undo()


def test_target_layers_read_the_grid_table(enumerated_corpus):
    """_target_layers refuses exactly the targets with a color set whose
    drop is empty or whose count passes its grid, and otherwise returns,
    in canonical order, the geometries of the color sets of size >= 2
    with faces: the very objects _layer_geometry and the table of t
    (complexes._grids) hold for them, over every target within [3, 3, 2]
    and every corpus extension vector.  Each target starts from cold
    caches: a table may keep a geometry _layer_geometry has evicted, and
    a second call reads it there after _layer_geometry is emptied."""
    vectors = [*_grid_targets(3, (3, 3, 2)), *_extension_vectors(enumerated_corpus)]
    refused = 0
    for dense in vectors:
        n = len(dense).bit_length() - 1
        t = [dense[1 << i] for i in range(n)]
        multi = [m for m in subset_masks(n) if dense[m] and m & (m - 1)]
        radices = {m: tuple(t[c - 1] for c in colors_of_mask(m)) for m in multi}
        refuse = any(
            dense[m] > prod(radices[m])
            or any(dense[m & ~(1 << (c - 1))] == 0 for c in colors_of_mask(m))
            for m in multi
        )
        cold_grids()
        layers = oracle._target_layers(dense, t)
        if refuse:
            assert layers is None, dense
            refused += 1
            continue
        assert [geo.mask for geo in layers] == multi, dense
        table = complexes._grids(tuple(t))
        for geo in layers:
            assert geo is table.get(geo.mask), dense  # filled, not only readable
            assert geo is complexes._layer_geometry(geo.mask, radices[geo.mask]), dense
        complexes._layer_geometry.cache_clear()
        again = oracle._target_layers(dense, t)
        assert all(a is b for a, b in zip(again, layers, strict=True)), dense
    assert 0 < refused < len(vectors)


def test_search_rejects_bad_targets():
    from flagshift import h_from_f

    with pytest.raises(ValueError, match="empty face"):
        enumerate_color_shifted_with_flag(FlagVector(1, (0, 2), kind="f"))
    hv = h_from_f(FlagVector(1, (1, 1), kind="f"))
    with pytest.raises(ValueError, match="f-vector"):
        enumerate_color_shifted_with_flag(hv)


def test_search_refutes_negative_counts():
    """f_from_h may return f-vectors with negative counts.  A negative
    vertex count is refuted before anything is built, and a negative
    count of a larger color set by propagation: exhausted, no witness,
    no node."""
    from flagshift import f_from_h

    for n, h, f in [
        (1, [1, -5], (1, -4)),
        (2, [1, 2, -3, 0], (1, 3, -2, 0)),
        (2, [1, -2, -3, 6], (1, -1, -2, 2)),
        (2, [1, 1, 1, -5], (1, 2, 2, -2)),
    ]:
        target = f_from_h(FlagVector(n, h, "h"))
        assert target.dense() == f
        outcome = enumerate_color_shifted_with_flag(target)
        assert (outcome.witnesses, outcome.exhausted, outcome.nodes_visited) == ([], True, 0), f


def test_search_respects_witness_cap():
    # f = (1, 2, 1) over one color twice... use a 2-color flag with two witnesses
    fv = FlagVector(2, (1, 2, 2, 2), kind="f")
    full = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=10))
    assert full.exhausted
    assert len(full.witnesses) == 2
    capped = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=1))
    assert capped.truncated and not capped.exhausted
    assert len(capped.witnesses) == 1
    assert capped.witnesses[0] == full.witnesses[0]


def test_targets_without_layers_follow_the_witness_cap():
    """A target with no color set of two or more colors is settled: its
    one path is the empty assignment, which costs one node, and the
    witness cap acts on it as on a settled target with layers."""
    for fv, nodes in [
        (FlagVector(2, (1, 2, 3, 0)), 1),
        (FlagVector(0, (1,)), 1),
        (FlagVector(2, (1, 2, 2, 4)), 2),
    ]:
        one = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=1))
        two = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=2))
        assert (one.exhausted, one.truncated, one.nodes_visited) == (False, True, nodes)
        assert (two.exhausted, two.truncated, two.nodes_visited) == (True, False, nodes)
        assert one.witnesses == two.witnesses and len(two.witnesses) == 1
        assert flag_f(two.witnesses[0]) == fv
        assert brute_flag_f(two.witnesses[0]) == dict(fv.nonzero_items())


def test_search_budget_inconclusive():
    fv = FlagVector(2, (1, 3, 3, 6), kind="f")
    out = enumerate_color_shifted_with_flag(fv, SearchBudget(max_nodes=1))
    assert not out.exhausted and not out.truncated


def test_budget_limits_are_integers():
    """A fractional or boolean limit is refused: a settled search would
    report max_nodes + 1 nodes for a budget of 2.5, and the last layer's
    kernel takes the witnesses left under the cap as its limit."""
    for limits in [(2.5, 2), (10, 1.0), (True, 2), (10, False), ("10", 2)]:
        with pytest.raises(TypeError, match="^budget limits must be integers$"):
            SearchBudget(*limits)
    for limits in [(0, 2), (10, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="^budget limits must be >= 1$"):
            SearchBudget(*limits)
    assert SearchBudget(2**70, 1).max_nodes == 2**70


def test_capped_search_is_a_prefix():
    """For every two-color target (1, a, b, e) with a, b <= 6, and the flag
    vector of every color-shifted complex within [2, 2, 2], a search
    capped at 1 or 2 witnesses lists the first witnesses of the uncapped
    search, is truncated exactly when more witnesses exist, and spends no
    more nodes.  The last layer's kernel lists only as many candidates as
    the cap still admits; an earlier layer's first candidates may complete
    no witness, as on (1, 2, 2, 2, 2, 1, 2, 2).

    The 3,405 searches spend 41,296 nodes in all, so a change that moves
    any node count of the set shows here."""
    two = [FlagVector(2, (1, a, b, e)) for a, b in product(range(7), repeat=2) for e in range(a * b + 1)]
    three = {flag_f(c) for c in enumerate_color_shifted_complexes(3, [2, 2, 2])}
    assert FlagVector(3, (1, 2, 2, 2, 2, 1, 2, 2)) in three
    assert (len(two), len(three)) == (490, 645)
    nodes = 0
    for fv in [*two, *sorted(three, key=FlagVector.dense)]:
        full = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=10**6))
        assert full.exhausted and full.witnesses, fv
        nodes += full.nodes_visited
        for cap in (1, 2):
            out = enumerate_color_shifted_with_flag(fv, SearchBudget(max_witnesses=cap))
            assert out.witnesses == full.witnesses[:cap], (fv, cap)
            assert out.truncated == (len(full.witnesses) >= cap) != out.exhausted, (fv, cap)
            assert out.nodes_visited <= full.nodes_visited, (fv, cap)
            nodes += out.nodes_visited
    assert nodes == 41_296


def test_matching_gets_a_witness_fast():
    """The 100-vertex matching, flag vector (1, 100, 100, 100), has
    color-shifted witnesses such as one row of 100 edges.  The search
    lists the layer's down-sets in ascending order and asks for two, so
    it answers in 390 nodes, where listing every 100-cell diagram first
    ran past the 10,000,000-node budget."""
    matching = ColoredComplex(
        2, [Face([]), *(face((c, i)) for c in (1, 2) for i in range(1, 101)),
            *(edge2(i, i) for i in range(1, 101))],
    )
    start = time.perf_counter()
    outcome = find_color_shifted_with_flag(matching)
    assert time.perf_counter() - start < 1.0
    assert outcome.truncated and len(outcome.witnesses) == 2
    assert outcome.nodes_visited == 390 < 1_000
    for witness in outcome.witnesses:
        assert is_color_shifted(witness) and flag_f(witness) == flag_f(matching)
    assert outcome.witnesses[0].faces >= {edge2(1, j) for j in range(1, 101)}


def test_l_shaped_layer_settles_fast():
    """Delta's shift-maximal faces (t, 1, 2) and (1, t, 2) give it an
    L-shaped {1, 2} layer under the {1, 2, 3} grid, whose drop of color
    3 has radix 2 and stride 1: the search spreads a sub-layer of t * t
    one-point blocks.  At t = 600 the extension is unique in 36 nodes
    within a second, where spreading a block at a time took seconds."""
    t = 600
    delta = shift_closure(3, [face((1, t), (2, 1), (3, 2)), face((1, 1), (2, t), (3, 2))])
    start = time.perf_counter()
    result = verify_uniqueness(delta)
    assert time.perf_counter() - start < 1.0
    assert result.unique is True and result.outcome.nodes_visited == 36


@cache
def _brute_by_flag(num_colors: int, bounds: tuple[int, ...]) -> dict[tuple[int, ...], set]:
    """Brute-force color-shifted face sets within bounds, grouped by flag."""
    by_flag: dict[tuple[int, ...], set] = {}
    for faces in brute_all_color_shifted(num_colors, bounds):
        dense = flag_f(ColoredComplex(num_colors, faces)).dense()
        by_flag.setdefault(dense, set()).add(faces)
    return by_flag


def _assert_search_matches_brute(targets, by_flag) -> None:
    for dense in targets:
        outcome = enumerate_color_shifted_with_flag(
            FlagVector(len(dense).bit_length() - 1, dense, kind="f"),
            SearchBudget(max_witnesses=10_000),
        )
        assert outcome.exhausted and not outcome.truncated, dense
        assert {w.faces for w in outcome.witnesses} == by_flag.get(dense, set()), dense


def _grid_targets(num_colors: int, bounds: tuple[int, ...]):
    """Every dense flag target within the vertex bounds whose counts fit
    their grids."""
    multi = [m for m in range(1, 1 << num_colors) if m.bit_count() >= 2]
    for t in product(*(range(b + 1) for b in bounds)):
        grids = [prod(t[i] for i in range(num_colors) if m >> i & 1) for m in multi]
        for counts in product(*(range(g + 1) for g in grids)):
            dense = [1] + [0] * ((1 << num_colors) - 1)
            for i in range(num_colors):
                dense[1 << i] = t[i]
            for m, count in zip(multi, counts):
                dense[m] = count
            yield tuple(dense)


def test_search_matches_brute_force_two_colors():
    """Every target (1, a, b, e) with a <= 3, b <= 2, e <= 8, including
    the unrealizable ones (e > ab), against all complexes within [3, 2]."""
    by_flag = _brute_by_flag(2, (3, 2))
    targets = [(1, a, b, e) for a, b, e in product(range(4), range(3), range(9))]
    assert sum(dense in by_flag for dense in targets) < len(targets)
    _assert_search_matches_brute(targets, by_flag)


def test_search_matches_brute_force_three_colors():
    """Every 3-color target whose counts fit the grids within [2, 1, 1]."""
    by_flag = _brute_by_flag(3, (2, 1, 1))
    targets = list(_grid_targets(3, (2, 1, 1)))
    assert sum(dense in by_flag for dense in targets) < len(targets)
    _assert_search_matches_brute(targets, by_flag)


# brute-force pools of at most 12 faces, 0.4 s each
DIFFERENTIAL_BOUNDS = [(2, (3, 2)), (2, (5, 1)), (3, (2, 1, 1)), (3, (1, 1, 2))]


@st.composite
def small_targets(draw):
    """A flag target whose witnesses lie within one of the brute-force
    bounds: the flag of a brute-force complex, or counts drawn up to one
    past each grid, so most are not realizable and some overflow."""
    num_colors, bounds = draw(st.sampled_from(DIFFERENTIAL_BOUNDS))
    realizable = sorted(_brute_by_flag(num_colors, bounds))
    if draw(st.booleans()):
        return num_colors, bounds, draw(st.sampled_from(realizable))
    t = [draw(st.integers(0, b)) for b in bounds]
    dense = [1]
    for mask in range(1, 1 << num_colors):
        grid = prod(t[i] for i in range(num_colors) if mask >> i & 1)
        dense.append(grid if mask.bit_count() == 1 else draw(st.integers(0, grid + 1)))
    return num_colors, bounds, tuple(dense)


@seed(20101018)
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_targets())
def test_propagated_search_matches_brute_force(target):
    """The search, bound propagation included, finds exactly the
    brute-force complexes with the target flag, and none for a target
    that no complex within the bounds has."""
    num_colors, bounds, dense = target
    _assert_search_matches_brute([dense], _brute_by_flag(num_colors, bounds))


@st.composite
def checked_targets(draw):
    """A flag target within one of the brute-force bounds that passes the
    drop and grid checks: a color set has faces only when each of its
    one-color drops has, and never more than its grid holds."""
    num_colors, bounds = draw(st.sampled_from(DIFFERENTIAL_BOUNDS))
    t = [draw(st.integers(1, b)) for b in bounds]
    dense = [1] + [0] * ((1 << num_colors) - 1)
    for mask in sorted(range(1, 1 << num_colors), key=int.bit_count):
        colors = [i for i in range(num_colors) if mask >> i & 1]
        if len(colors) == 1:
            dense[mask] = t[colors[0]]
        elif all(dense[mask ^ (1 << i)] for i in colors):
            dense[mask] = draw(st.integers(0, prod(t[i] for i in colors)))
    return num_colors, bounds, tuple(dense)


def test_propagated_refutations_match_brute_force(monkeypatch):
    """Targets that reach bound propagation, some of which it refutes:
    the search finds exactly the brute-force complexes with the target
    flag, and none for a refuted target."""
    propagate = oracle._propagate
    refuted = []

    def watched(*args):
        upper = propagate(*args)
        refuted.append(upper is None)
        return upper

    monkeypatch.setattr(oracle, "_propagate", watched)

    @seed(20101018)
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(checked_targets())
    def check(target):
        num_colors, bounds, dense = target
        _assert_search_matches_brute([dense], _brute_by_flag(num_colors, bounds))

    check()
    assert any(refuted)


@pytest.mark.parametrize("num_colors, bounds", DIFFERENTIAL_BOUNDS)
def test_propagated_bounds_hold_every_witness(num_colors, bounds):
    """Layer by layer, over every target that fits the grids within the
    bounds: the fixpoint refutes only targets that no brute-force complex
    meets, and otherwise each brute-force witness's points in every
    layer lie inside that layer's U."""
    by_flag = _brute_by_flag(num_colors, bounds)
    propagate = oracle._propagate
    for dense in _grid_targets(num_colors, bounds):
        witnesses = by_flag.get(dense, set())
        calls = []

        def watched(layers, f, chosen):
            propagated = propagate(layers, f, chosen)
            calls.append((layers, propagated))
            return propagated

        with mock.patch.object(oracle, "_propagate", watched):
            outcome = enumerate_color_shifted_with_flag(FlagVector(num_colors, dense))
        if not calls:  # no layer to bound, or rejected by the drop check
            assert {w.faces for w in outcome.witnesses} == witnesses, dense
            continue
        [(layers, propagated)] = calls
        if propagated is None:
            assert not witnesses, dense
            continue
        upper, _ = propagated
        for faces in witnesses:
            for geo in layers:
                radices = tuple(dense[1 << (c - 1)] for c in colors_of_mask(geo.mask))
                grid = reference_grid_faces(geo.mask, radices)
                points = sum(1 << r for r, face in enumerate(grid) if face in faces)
                assert points & ~upper[geo.mask] == 0, (dense, geo.mask)


@pytest.mark.parametrize("k", range(2, 15))
def test_staircase_uniqueness_is_settled_by_propagation(k):
    """Bound propagation settles all 3k + 1 layers of the staircase's
    extension, so each costs one open and one assignment."""
    result = verify_uniqueness(staircase(k))
    assert result.unique is True and result.outcome.exhausted
    assert result.outcome.nodes_visited == 6 * k + 2


def test_settled_searches_skip_the_walk(monkeypatch, enumerated_corpus):
    """Bound propagation settles every layer of each corpus extension, so
    no uniqueness search over the corpus enters the walk, and each costs
    two nodes per layer of size two or more."""

    def no_walk(*_args):
        raise AssertionError("the walk ran on a settled search")

    monkeypatch.setattr(oracle, "_walk", no_walk)
    for c in enumerated_corpus:
        result = verify_uniqueness(c)
        assert result.unique is True and result.outcome.exhausted
        f = flag_f(result.extended).dense()
        layers = sum(1 for mask, count in enumerate(f) if mask.bit_count() >= 2 and count)
        assert result.outcome.nodes_visited == max(1, 2 * layers)


ROOT_REFUTATIONS = [
    # t = (1, 1, 2): the chain {1,3} holds 1 edge, so at most 1 of the
    # 2 triangles is allowed (|U| below the target)
    (1, 1, 1, 1, 2, 1, 1, 2),
    # t = (1, 2, 2): the chain {1,2} holds 1 edge, so both triangles
    # are required, and they need 2 {2,3}-edges where 1 is the target
    # (|R| above the target)
    (1, 1, 2, 1, 2, 2, 1, 2),
    # the extension of the closure of edges (1,1), (2,1) with one
    # {1,2}-edge less: the apex box alone requires both edges
    (1, 2, 1, 1, 1, 2, 1, 2),
    # t = (2, 2, 1, 1, 1): the chain {1,4} holds 1 edge, so the 2
    # {1,2,4}-triangles are forced and settle the {1,2}-edges to the
    # 2 on vertex 1 of color 1; {1,2,3}, opened before with all 4
    # edges allowed, re-opens and allows 2 triangles, not 3
    (1, 2, 2, 2, 1, 2, 2, 3, 1, 1, 2, 2, 1, 1, 2, 2)
    + (1, 2, 0, 0, 1, 2) + (0,) * 10,
]


@pytest.mark.parametrize("dense", ROOT_REFUTATIONS)
def test_propagation_refutes_at_the_root(monkeypatch, dense):
    """A target that passes the drop and grid-size checks but admits no
    complex by the counting argument is refuted by the fixpoint, with
    no node, where a walk would have branched into it."""
    refuted = []
    propagate = oracle._propagate

    def watched(*args):
        upper = propagate(*args)
        refuted.append(upper is None)
        return upper

    monkeypatch.setattr(oracle, "_propagate", watched)
    outcome = enumerate_color_shifted_with_flag(FlagVector(len(dense).bit_length() - 1, dense))
    assert refuted == [True]
    assert (outcome.witnesses, outcome.exhausted, outcome.truncated) == ([], True, False)
    assert outcome.nodes_visited == 0


def test_reopened_settled_layer_keeps_its_bound():
    """A settled layer that re-opens keeps U = R, although the allowed set
    over the shrunk bounds below it may be larger again.  On this
    perturbed 5-color extension vector that keeps the search at 36 nodes
    (53 if the bound grew back); it has one witness."""
    dense = (1, 2, 2, 3, 1, 2, 2, 3, 1, 1, 2, 2, 1, 1, 2, 2) + (1, 2, 2, 2, 1, 2, 1, 2) + (0,) * 8
    outcome = enumerate_color_shifted_with_flag(FlagVector(5, dense))
    assert outcome.exhausted and len(outcome.witnesses) == 1
    assert outcome.nodes_visited == 36


def test_propagate_matches_enumeration(enumerated_corpus):
    """The fixpoint against the complexes it bounds, enumerated without
    propagation.  For every target within [3, 3, 2]: a refuted target has
    no complex; otherwise every complex with that flag vector has each
    layer inside its U; and a settled target has exactly one complex,
    whose layers are the U.  On every corpus extension vector the
    fixpoint settles, and its U are the extension's closed-form record,
    layer by layer."""
    by_flag: dict[tuple[int, ...], list[ColoredComplex]] = {}
    for c in enumerate_color_shifted_complexes(3, [3, 3, 2]):
        by_flag.setdefault(flag_f(c).dense(), []).append(c)
    targets = set(_grid_targets(3, (3, 3, 2)))
    extensions = {}
    for delta in enumerated_corpus:
        extended, report = cone_extension(delta)
        extensions[report.predicted_flag.dense()] = extended._record
    seen = Counter()
    for dense in targets | extensions.keys():
        t = [dense[1 << i] for i in range(len(dense).bit_length() - 1)]
        layers = oracle._target_layers(dense, t)
        if not layers:
            continue
        propagated = oracle._propagate(layers, dense, oracle._start(t))
        upper, settled = propagated or (None, False)
        seen["refuted" if upper is None else "settled" if settled else "open"] += 1
        if dense in extensions:
            assert settled, dense
            record = extensions[dense]
            assert all(upper[geo.mask] == record[geo.mask] for geo in layers), dense
        if dense not in targets:
            continue
        found = by_flag.get(dense, [])
        if upper is None:
            assert not found, dense
            continue
        for c in found:
            assert all(c._record[geo.mask] & ~upper[geo.mask] == 0 for geo in layers), dense
        if settled:
            [c] = found
            assert all(c._record[geo.mask] == upper[geo.mask] for geo in layers), dense
    assert min(seen["refuted"], seen["settled"], seen["open"]) > 1000, seen


# 4-color targets on which the fixpoint takes two rounds: a layer's U
# shrinks to its R in the first down sweep, and the up sweep over the
# smaller U then cuts a layer above it.  The first stays open, the second
# settles in its second round.  No target within [3, 3, 2] takes a
# second round, so these have four colors.
MULTI_ROUND = [
    (1, 2, 1, 2, 2, 4, 2, 1, 1, 2, 1, 1, 2, 3, 1, 1),
    (1, 1, 2, 1, 2, 2, 2, 2, 1, 0, 2, 0, 1, 0, 1, 0),
]


def _extension_vectors(complexes) -> list[tuple[int, ...]]:
    return [cone_extension(delta)[1].predicted_flag.dense() for delta in complexes]


def _propagation_args(dense):
    """(layers, f, chosen) as the prescribed-flag search passes them to
    the fixpoint, or None when the drop or grid check rejects `dense`."""
    t = [dense[1 << i] for i in range(len(dense).bit_length() - 1)]
    layers = oracle._target_layers(dense, t)
    return None if layers is None else (layers, dense, oracle._start(t))


def test_propagate_matches_reference_fixpoint(enumerated_corpus):
    """The fixpoint with its settled stop against the loop that stops
    only on a round that shrinks no U: the same U, or the same
    refutation, on every target within [3, 3, 2], every corpus extension
    vector, the targets refuted at the root and the multi-round targets;
    and `settled` is the recount of every layer's U against its target."""
    vectors = [
        *_grid_targets(3, (3, 3, 2)),
        *_extension_vectors(enumerated_corpus),
        *ROOT_REFUTATIONS,
        *MULTI_ROUND,
    ]
    seen = Counter()
    for dense in vectors:
        args = _propagation_args(dense)
        if args is None:
            continue
        want = reference_propagate(*args)
        got = oracle._propagate(*args)
        if want is None:
            assert got is None, dense
            seen["refuted"] += 1
            continue
        upper, settled = got
        assert upper == want, dense
        layers, f, _ = args
        assert settled == all(want[geo.mask].bit_count() == f[geo.mask] for geo in layers), dense
        seen[settled] += 1
    assert min(seen["refuted"], seen[True], seen[False]) > 1000, seen


def test_settled_targets_take_one_round(monkeypatch, enumerated_corpus):
    """Counted in allowed-set reads, which the up sweep makes once per
    layer and round: on every corpus extension and on the staircases
    k = 2..14 the fixpoint reads each layer's allowed set once and
    returns settled.  The multi-round targets, and the last target
    refuted at the root, still read some layer twice."""
    reads = Counter()
    allowed_mask = oracle._allowed_mask

    def counted(geo, chosen):
        reads[geo.mask] += 1
        return allowed_mask(geo, chosen)

    monkeypatch.setattr(oracle, "_allowed_mask", counted)
    stairs = [staircase(k) for k in range(2, 15)]
    for dense in _extension_vectors([*enumerated_corpus, *stairs]):
        layers, f, chosen = _propagation_args(dense)
        reads.clear()
        _, settled = oracle._propagate(layers, f, chosen)
        assert settled, dense
        assert reads == Counter(geo.mask for geo in layers), dense
    outcomes = []
    for dense in [*MULTI_ROUND, ROOT_REFUTATIONS[-1]]:
        layers, f, chosen = _propagation_args(dense)
        reads.clear()
        propagated = oracle._propagate(layers, f, chosen)
        outcomes.append(None if propagated is None else propagated[1])
        assert max(reads.values()) == 2 and reads.keys() == {geo.mask for geo in layers}, dense
    assert outcomes == [False, True, None]


def test_forced_layer_budget_boundary():
    # 4 edges on a 2x2 grid: the edge layer is forced, one node to open
    # it and one to assign it
    fv = FlagVector(2, (1, 2, 2, 4), kind="f")
    short = enumerate_color_shifted_with_flag(fv, SearchBudget(max_nodes=1))
    assert not short.witnesses
    assert not short.exhausted and not short.truncated
    enough = enumerate_color_shifted_with_flag(fv, SearchBudget(max_nodes=2))
    assert enough.exhausted and enough.nodes_visited == 2
    assert len(enough.witnesses) == 1 and flag_f(enough.witnesses[0]) == fv
    assert brute_flag_f(enough.witnesses[0]) == dict(fv.nonzero_items())


def test_chain_layer_budget_boundary():
    # 3 x 1 edge grid with target 2: a chain, one node to open it and
    # one to assign its prefix
    fv = FlagVector(2, (1, 3, 1, 2), kind="f")
    short = enumerate_color_shifted_with_flag(fv, SearchBudget(max_nodes=1))
    assert not short.witnesses
    assert not short.exhausted and not short.truncated
    enough = enumerate_color_shifted_with_flag(fv, SearchBudget(max_nodes=2))
    assert enough.exhausted and enough.nodes_visited == 2
    assert len(enough.witnesses) == 1 and flag_f(enough.witnesses[0]) == fv
    assert brute_flag_f(enough.witnesses[0]) == dict(fv.nonzero_items())


SWEEP_TARGETS = [
    FlagVector(2, (1, 3, 3, 6), kind="f"),
    FlagVector(2, (1, 2, 2, 2), kind="f"),
    FlagVector(2, (1, 3, 1, 2), kind="f"),
    FlagVector(2, (1, 2, 2, 4), kind="f"),
    flag_f(cone_extension(staircase(3))[0]),
    flag_f(cone_extension(staircase(4))[0]),
]


@pytest.mark.parametrize("target", SWEEP_TARGETS, ids=lambda fv: str(fv.dense()))
def test_search_budget_sweep(target):
    """Every node budget stops at a prefix of the unbounded outcome and
    costs exactly one node past the budget; from the full count up, the
    outcome is the unbounded one.  Every witness cap, the witness total
    included, stops at the cap."""
    many = 1_000_000
    full = enumerate_color_shifted_with_flag(target, SearchBudget(max_witnesses=many))
    assert full.exhausted and not full.truncated and full.witnesses
    for max_nodes in range(1, full.nodes_visited + 3):
        out = enumerate_color_shifted_with_flag(target, SearchBudget(max_nodes, many))
        if max_nodes < full.nodes_visited:
            assert not out.exhausted and not out.truncated, max_nodes
            assert out.nodes_visited == max_nodes + 1
            assert out.witnesses == full.witnesses[: len(out.witnesses)]
        else:
            assert out == full, max_nodes
    for cap in range(1, len(full.witnesses) + 1):
        out = enumerate_color_shifted_with_flag(target, SearchBudget(max_witnesses=cap))
        assert out.truncated and not out.exhausted
        assert out.witnesses == full.witnesses[:cap]


@pytest.mark.parametrize(
    "enumerate_, bounds, completes_at",
    [
        (enumerate_color_shifted_complexes, [2, 3], 78),
        (enumerate_all_colored_complexes, [2, 2], 26),
    ],
)
def test_enumeration_budget_sweep(enumerate_, bounds, completes_at):
    """Below the node count of the whole stream every budget yields a
    proper prefix, no shorter than a smaller budget's, and then raises
    BudgetExhausted; from that count up the stream is complete."""
    full = list(enumerate_(2, bounds))
    shorter = 0
    for max_nodes in range(1, completes_at + 3):
        got = []
        stream = enumerate_(2, bounds, SearchBudget(max_nodes=max_nodes))
        if max_nodes < completes_at:
            with pytest.raises(BudgetExhausted, match=f"exceeded {max_nodes} nodes"):
                for c in stream:
                    got.append(c)
            assert shorter <= len(got) < len(full)
            assert got == full[: len(got)]
            shorter = len(got)
        else:
            assert list(stream) == full


def test_fiber_allowed_mask_matches_projections(monkeypatch, corpus, enumerated_corpus):
    """Every layer opened by the corpus searches and enumerations gets
    the allowed set the point-by-point projection test gives."""
    fiber_allowed = oracle._allowed_mask
    opened = []

    def checked(geo, chosen):
        got = fiber_allowed(geo, chosen)
        colors = colors_of_mask(geo.mask)
        radices = tuple(chosen[1 << (c - 1)].bit_length() for c in colors)
        assert got == brute_allowed_mask(colors, radices, chosen), (colors, radices)
        opened.append(colors)
        return got

    monkeypatch.setattr(oracle, "_allowed_mask", checked)
    for c in enumerated_corpus:
        verify_uniqueness(c)
    for c in corpus:
        find_color_shifted_with_flag(c)
    assert sum(1 for _ in enumerate_color_shifted_complexes(3, [2, 1, 2])) > 0
    assert sum(1 for _ in enumerate_all_colored_complexes(2, [2, 3])) > 0
    assert len(opened) > 1000 and max(map(len, opened)) >= 4


# Layer grids that put a one-vertex color in every position.
GRID_SHAPES = [
    *((0b10101, r) for r in product((1, 2, 3), repeat=3)),
    *((0b1111, r) for r in product((1, 2), repeat=4)),
    (0b11, (300, 1)), (0b11, (1, 300)), (0b11, (1, 1)), (0b1000, (4,)),
]


def test_geometry_matches_its_faces():
    """Each geometry's mask, radices, size, drops and chain flag agree
    with its grid faces, point by point, on GRID_SHAPES.  The grid faces
    run over the index grid in row-major order.  Along a drop of radix r
    and stride s, the fiber of a sub-point, the points whose face drops
    to that sub-point's face, is the drop's column shifted by the
    sub-point's rank q plus (q // s) * (r - 1) * s; a drop of radix 1
    keeps every rank.  The size, drops but their masks, and chain flag
    depend only on the radices, so a color set with the same radices
    shares them.  Each color's stride is the product of the later
    colors' radices, and every other index of the stride table holds 0."""
    for mask, radices in GRID_SHAPES:
        geo = complexes._layer_geometry(mask, radices)
        colors = colors_of_mask(mask)
        grid = list(product(*(range(1, r + 1) for r in radices)))
        faces = reference_grid_faces(mask, radices)
        assert [f.vertices for f in faces] == [tuple(zip(colors, v)) for v in grid]
        assert (geo.mask, geo.radices, geo.size) == (mask, radices, len(grid))
        strides = [0] * (max(colors) + 1)
        for j, c in enumerate(colors):
            strides[c] = prod(radices[j + 1:])
        assert geo.strides == tuple(strides), (mask, radices)
        shifted = complexes._layer_geometry(mask << 1, radices)
        assert geo.size == shifted.size and geo.chain == shifted.chain
        assert [drop[1:] for drop in geo.drops] == [drop[1:] for drop in shifted.drops]
        assert geo.chain == (sum(r > 1 for r in radices) <= 1)
        assert len(geo.drops) == len(colors)
        for j, (sub_mask, full, r, s, column) in enumerate(geo.drops):
            assert sub_mask == mask & ~(1 << (colors[j] - 1))
            sub_grid = list(product(*(range(1, r + 1) for r in radices[:j] + radices[j + 1:])))
            assert full == (1 << len(sub_grid)) - 1
            sub_rank = {u: q for q, u in enumerate(sub_grid)}
            image = [sub_rank[v[:j] + v[j + 1:]] for v in grid]
            assert r == radices[j], (mask, radices, j)
            if radices[j] == 1:
                assert image == list(range(len(grid))), (mask, radices, j)
            want = [0] * len(sub_grid)
            for p, q in enumerate(image):
                want[q] |= 1 << p
            got = [column << (q + q // s * (r - 1) * s) for q in range(len(sub_grid))]
            assert got == want, (mask, radices, j)


def _point_sets(npoints: int, rng) -> list[int]:
    """Every subset of a grid of up to 12 points; on a larger grid, the
    singletons, the whole grid and one random subset."""
    if npoints <= 12:
        return list(range(1 << npoints))
    return [*(1 << p for p in range(npoints)), (1 << npoints) - 1, rng.getrandbits(npoints)]


def test_projection_matches_faces():
    """Along each drop, on GRID_SHAPES, _project sends a set of layer
    points to the sub-layer points their faces drop to, and the fiber
    union inside _allowed_mask, with every other drop's sub-layer full,
    holds the layer points whose faces drop into a chosen set."""
    rng = random.Random(19)
    for mask, radices in GRID_SHAPES:
        geo = complexes._layer_geometry(mask, radices)
        grid = reference_grid_faces(mask, radices)
        colors = colors_of_mask(mask)
        for j, (sub_mask, full, r, s, _) in enumerate(geo.drops):
            sub_radices = radices[:j] + radices[j + 1:]
            sub = complexes._layer_geometry(sub_mask, sub_radices)
            assert sub.mask == sub_mask
            sub_grid = reference_grid_faces(sub_mask, sub_radices)
            rank = {face: q for q, face in enumerate(sub_grid)}
            image = [rank[without_color(face, colors[j])] for face in grid]
            for points in _point_sets(len(grid), rng):
                want = 0
                for p, q in enumerate(image):
                    if points >> p & 1:
                        want |= 1 << q
                assert complexes._project(points, r, s) == want, (colors, radices, j, points)
            chosen = {drop[0]: drop[1] for drop in geo.drops}
            for points in _point_sets(len(sub_grid), rng):
                chosen[sub_mask] = points
                want = sum(1 << p for p, q in enumerate(image) if points >> q & 1)
                assert oracle._allowed_mask(geo, chosen) == want, (colors, radices, j, points)


def test_layer_geometry_cache_is_bounded_and_immutable():
    """One bounded cache holds a grid's geometry, whose shape fields are
    tuples that cannot change and whose face and layer-text memos are
    the ones a record over that grid decodes into and is emitted from."""
    cold_grids()
    geo = complexes._layer_geometry(0b111, (2, 3, 1))
    assert complexes._layer_geometry(0b111, (2, 3, 1)) is geo
    assert geo.colors == (1, 2, 3) and geo.faces == {} and geo.texts == {}
    record = {0: 1, 1: 0b11, 2: 0b111, 4: 1, 0b111: 1 << 5}
    assert [g for _, g in complexes._record_grids(record)][-1] is geo
    top = ColoredComplex._raw(3, None, record).sorted_faces()[-1]
    assert top == Face([(1, 2), (2, 3), (3, 1)]) and geo.faces == {5: top}
    doc = emit_complex(ColoredComplex._raw(3, None, record))
    assert list(geo.texts) == [1 << 5] and geo.texts[1 << 5] in doc
    again = complexes._layer_geometry(0b111, (2, 3, 1))
    assert again.faces is geo.faces and again.texts is geo.texts
    maxsize = complexes._layer_geometry.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 256
    for field in (geo.colors, geo.radices, geo.strides, geo.drops, *geo.drops):
        assert isinstance(field, tuple)
    assert all(type(x) is int for drop in geo.drops for x in drop)
    with pytest.raises(AttributeError):
        geo.drops = ()
    with pytest.raises(AttributeError):
        geo.ups = {}
    with pytest.raises(TypeError):
        geo.drops[0] = 1


def test_repeat_is_the_division_formula():
    """_repeat's shift-and-OR doubling gives the division's mask on every
    (copies, stride) up to 40 x 40 and on wide columns, whose copies
    are not all powers of two."""
    wide = [(8, 32_768), (600, 600), (1_000, 1), (3, 100_000), (257, 129)]
    for copies, stride in [*product(range(41), range(1, 41)), *wide]:
        want = ((1 << (copies * stride)) - 1) // ((1 << stride) - 1)
        assert complexes._repeat(copies, stride) == want, (copies, stride)


def test_up_sets_are_the_points_above():
    """A geometry's ups[r] holds exactly the points u >= v of the point v
    of rank r, on GRID_SHAPES, and is read-only.  At the stride s of a
    color with more than one vertex, ups[s] is the points whose index of
    that color is above 1, which the mask shift test reads.  Up-sets and
    down-sets are computed on first read: a search whose every layer is
    settled reads none, a search that reaches the kernel reads down-sets
    only, and again it computes none anew."""
    for mask, radices in GRID_SHAPES:
        grid = list(product(*(range(1, r + 1) for r in radices)))
        geo = complexes._layer_geometry(mask, radices)
        ups = geo.ups
        for rank, v in enumerate(grid):
            above = [q for q, u in enumerate(grid) if all(map(int.__ge__, u, v))]
            assert ups[rank] == sum(1 << q for q in above), (radices, v)
        for j, (*_, r, s, _) in enumerate(geo.drops):
            if r > 1:
                raised = [q for q, u in enumerate(grid) if u[j] > 1]
                assert ups[s] == sum(1 << q for q in raised), (radices, j)
    with pytest.raises(TypeError):
        ups[0] = 1
    cold_grids()
    extended, report = cone_extension(staircase(5))
    assert verify_uniqueness(staircase(5)).unique is True
    f = report.predicted_flag.dense()
    layers = oracle._target_layers(f, [f[1 << i] for i in range(extended.num_colors)])
    assert layers and all(len(geo.ups) == len(geo.downs) == 0 for geo in layers)
    target = FlagVector(2, (1, 3, 4, 5))
    assert len(enumerate_color_shifted_with_flag(target).witnesses) == 2
    geo = complexes._layer_geometry(0b11, (3, 4))
    kept = dict(geo.downs)
    assert 0 < len(kept) < 12 and len(geo.ups) == 0
    assert len(enumerate_color_shifted_with_flag(target).witnesses) == 2
    assert dict(geo.downs) == kept


def test_down_sets_are_the_points_below():
    """A geometry's downs[r] holds exactly the points u <= v of the point
    v of rank r, on GRID_SHAPES, and is read-only.  _within(radices, k)
    holds exactly the points whose down-set has at most k points."""
    for mask, radices in GRID_SHAPES:
        grid = list(product(*(range(1, r + 1) for r in radices)))
        downs = complexes._layer_geometry(mask, radices).downs
        below = [[q for q, u in enumerate(grid) if all(map(int.__le__, u, v))] for v in grid]
        for rank, v in enumerate(grid):
            assert downs[rank] == sum(1 << q for q in below[rank]), (radices, v)
        for k in range(len(grid) + 2):
            fits = sum(1 << q for q, under in enumerate(below) if len(under) <= k)
            assert complexes._within(radices, k) == fits, (radices, k)
    with pytest.raises(TypeError):
        downs[0] = 1


def _rainbow_and_eighth_vertices(n: int) -> list[Face]:
    """The n-color face at index 1 and the vertex of index 8 of each
    color."""
    return [face(*((c, 1) for c in range(1, n + 1))), *(face((c, 8)) for c in range(1, n + 1))]


@pytest.mark.parametrize(
    "num_colors, generators, faces, nodes",
    [
        (2, [face((1, 200)), face((2, 200)), edge2(1, 1)], 402, 12),
        (2, [face((1, 1), (2, 200)), face((1, 200))], 601, 10),
        (2, [face((1, 600)), face((2, 600)), edge2(1, 1)], 1202, 12),
        (5, _rainbow_and_eighth_vertices(5), 67, 124),
        (6, _rainbow_and_eighth_vertices(6), 106, 252),
    ],
    ids=["vertices", "row", "wide", "five-colors", "six-colors"],
)
def test_uniqueness_memory_follows_the_target(num_colors, generators, faces, nodes):
    """Complexes whose extensions' layers hold few points of large grids:
    two-color complexes with 200 vertices per color whose base layers
    hold one or 200 edges of the 40,000-point grid, one with 600 vertices
    per color whose base layer holds one edge of 360,000, and the five-
    and six-color faces at index 1 with an eighth vertex of each color,
    whose extensions' layers have up to 8^6 points.  With the grid caches
    cleared, verify_uniqueness answers with a traced peak under 30 MiB.
    A table of one grid-wide mask per grid point takes 200 MiB on the
    200-vertex grid, and one fiber mask per sub-grid point of each drop
    takes over 50 MiB on each of the others."""
    delta = shift_closure(num_colors, generators)
    assert len(delta) == faces
    cold_grids()
    tracemalloc.start()
    try:
        result = verify_uniqueness(delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.unique is True and result.outcome.nodes_visited == nodes
    assert peak < 30 * 2**20, peak


@pytest.mark.parametrize("t", [100, 200, 400])
def test_kernel_memory_follows_the_target(t):
    """The target (1, t, t, 3) reaches the kernel on the t x t grid, and
    its 3 witnesses use only the 5 points with i * j <= 3.  With the grid
    cache cleared, the search answers in 12 nodes under 30 MiB traced,
    reading 4 down-sets and no up-set.  A table of every point's down-set
    takes 206 MiB at t = 200 and over 1 GB at t = 400."""
    cold_grids()
    tracemalloc.start()
    try:
        outcome = enumerate_color_shifted_with_flag(
            FlagVector(2, (1, t, t, 3)), SearchBudget(max_witnesses=4)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outcome.witnesses) == 3 and outcome.exhausted and outcome.nodes_visited == 12
    assert peak < 30 * 2**20, peak
    geo = complexes._layer_geometry(0b11, (t, t))
    assert (len(geo.downs), len(geo.ups)) == (4, 0)


def test_refuted_target_builds_no_later_layer():
    """A four-color target with 300 vertices of colors 1, 3 and 4, one of
    color 2, one face per color pair and per triple but two on {1,2,3}:
    the first triple allows a single point, so the fixpoint refutes it
    there.  The drops of the later layers {1,3,4} and {1,2,3,4}, columns
    and full masks of up to 90,000 bits each, are never built, so the
    traced peak stays under 2 MiB; building them takes about 14 MiB."""
    counts = {(): 1, (1,): 300, (2,): 1, (3,): 300, (4,): 300, (1, 2, 3, 4): 1}
    counts.update({pair: 1 for pair in product(range(1, 5), repeat=2) if pair[0] < pair[1]})
    counts.update({(1, 2, 3): 2, (1, 2, 4): 1, (1, 3, 4): 1, (2, 3, 4): 1})
    target = FlagVector(4, counts, kind="f")
    cold_grids()
    tracemalloc.start()
    try:
        outcome = enumerate_color_shifted_with_flag(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.witnesses == [] and outcome.exhausted and outcome.nodes_visited == 0
    assert peak < 2 * 2**20, peak


def test_every_kernel_call_takes_a_down_set(monkeypatch, enumerated_corpus):
    """The kernels take `allowed` to be a down-set of the grid and do not
    check it (_kernels docstring).  Every allowed set the searches, the
    enumeration and the diagram count hand them holds the grid's down-set
    of each of its points: over the corpus's uniqueness checks, every
    (1, a, b, e) search with a, b <= 4, the color-shifted complexes within
    [2, 2, 2] and the counts for e = 0..18."""
    ascending, down_sets = oracle._kernels._ascending, oracle._kernels._down_sets
    downs_of = {}  # id of an up-set table -> its grid's down-sets
    calls = Counter()

    def assert_down_set(downs, allowed):
        rest = allowed
        while rest:
            p = rest.bit_length() - 1
            assert downs[p] & ~allowed == 0, (p, allowed)
            rest ^= 1 << p

    def checked_ascending(downs, allowed, *args):
        assert_down_set(downs, allowed)
        calls["ascending"] += 1
        return ascending(downs, allowed, *args)

    def checked_down_sets(ups, allowed, *args):
        assert_down_set(downs_of[id(ups)], allowed)
        calls["down_sets"] += 1
        return down_sets(ups, allowed, *args)

    monkeypatch.setattr(oracle._kernels, "_ascending", checked_ascending)
    monkeypatch.setattr(oracle._kernels, "_down_sets", checked_down_sets)
    try:
        for delta in enumerated_corpus:
            verify_uniqueness(delta)
        for a, b in product(range(5), repeat=2):
            for e in range(a * b + 1):
                enumerate_color_shifted_with_flag(
                    FlagVector(2, (1, a, b, e)), SearchBudget(max_witnesses=10**6)
                )
        assert sum(1 for _ in enumerate_color_shifted_complexes(3, [2, 2, 2])) == 979
        for e in range(19):
            geo = complexes._layer_geometry(0b11, (e, e))
            downs_of[id(geo.ups)] = geo.downs
            assert count_two_color_shifted_by_edges(e) == partition_number(e)
    finally:
        cold_grids()  # drop the down-sets read here
    assert calls["ascending"] and calls["down_sets"] == 19, calls


def test_find_matches_flag_of_any_source(corpus):
    for c in corpus:
        if len(c) == 0 or c.num_colors > 4:
            continue
        outcome = find_color_shifted_with_flag(c)
        assert outcome.witnesses, c
        for w in outcome.witnesses:
            assert flag_f(w) == flag_f(c)
            assert brute_flag_f(w) == brute_flag_f(c)
            assert is_color_shifted(w)


def test_find_rejects_empty_source():
    from flagshift import empty_complex

    with pytest.raises(ValueError):
        find_color_shifted_with_flag(empty_complex(2))


def test_search_agrees_with_plain_enumeration():
    """Group the 69 complexes on <=3 vertices by flag vector, then re-find
    each group through the constrained search."""
    by_flag = {}
    for c in enumerate_color_shifted_complexes(2, [3, 3]):
        by_flag.setdefault(flag_f(c).dense(), set()).add(c.faces)
    for dense, group in by_flag.items():
        fv = FlagVector(2, dense, kind="f")
        outcome = enumerate_color_shifted_with_flag(
            fv, SearchBudget(max_witnesses=len(group) + 5)
        )
        assert outcome.exhausted
        for w in outcome.witnesses:
            assert brute_flag_f(w) == dict(fv.nonzero_items())
            _assert_same_as_validated(w)
        got = {w.faces for w in outcome.witnesses if w.num_colors == 2}
        assert got == group, dense


def _assert_same_as_validated(
    w: ColoredComplex, first: int = 0, every_check: bool = True
) -> None:
    """A walk-built complex behaves as the validated complex of its faces:
    ==, hash, len, in, canonical order, document bytes, flag vector and
    repr agree.  len, flag_f and repr run before the other checks and
    again after them; `first` picks which of those runs first.  ==, hash
    and in build w's face set; the canonical order reads the record
    while the face set is unbuilt and sorts it once built, and the
    document always reads the record.  Without `every_check`, those two
    are checked only when `first` picks them, on the record."""
    twin = ColoredComplex._raw(w.num_colors, None, w._record)
    rebuilt = ColoredComplex(w.num_colors, twin.faces)
    lazy = (len, flag_f, repr)
    expected = [op(rebuilt) for op in lazy]
    outside = Face([(w.num_colors + 1, 1)])
    building = (
        lambda c: c == rebuilt and rebuilt == c,
        lambda c: hash(c) == hash(rebuilt),
        lambda c: all(face in c for face in rebuilt.faces) and outside not in c,
        lambda c: c.sorted_faces() == rebuilt.sorted_faces(),
        lambda c: emit_complex(c) == emit_complex(rebuilt),
    )
    trigger = building[first % len(building)]
    builds = first % len(building) < 3
    assert [op(w) for op in lazy] == expected, w
    assert trigger(w) and (w._faces is not None) == builds, w
    for check in building if every_check else building[:3]:
        assert check is trigger or check(w), w
    assert [op(w) for op in lazy] == expected, w


def _unbuilt(complexes: list[ColoredComplex]) -> list[ColoredComplex]:
    assert all(c._record is not None and c._faces is None for c in complexes)
    return complexes


def _corpus_and_witnesses() -> list[ColoredComplex]:
    """Fresh walk-built complexes: the enumerated corpus, the witness of
    each corpus extension's settled search, and the 3 witnesses of a
    branching search."""
    corpus = [
        *enumerate_color_shifted_complexes(2, [4, 4]),
        *enumerate_color_shifted_complexes(3, [2, 2, 2]),
    ]
    settled = [
        w
        for vector in {cone_extension(delta)[1].predicted_flag for delta in corpus}
        for w in enumerate_color_shifted_with_flag(vector).witnesses
    ]
    branching = enumerate_color_shifted_with_flag(
        FlagVector(2, (1, 3, 3, 4)), SearchBudget(max_witnesses=10)
    ).witnesses
    assert len(branching) == 3
    # cone_extension built the faces of these corpus objects; enumerate anew
    corpus = [
        *enumerate_color_shifted_complexes(2, [4, 4]),
        *enumerate_color_shifted_complexes(3, [2, 2, 2]),
    ]
    return _unbuilt([*corpus, *settled, *branching])


def test_walk_built_complexes_equal_validated_ones(enumerated_corpus):
    """Enumerated complexes and search witnesses match their validated
    rebuilds before their face sets are built and after; every corpus
    extension, built by cone_extension as a record read off no walk, has
    the record of the face-by-face reference, keeps its face set unbuilt
    until its faces are read, and has the face count its report
    predicts."""
    for delta in enumerated_corpus:
        extended, report = cone_extension(delta)
        assert extended._record == brute_record(reference_cone_extension(delta)[0])
        assert flag_f(extended) == report.predicted_flag
        outcome = enumerate_color_shifted_with_flag(report.predicted_flag)
        assert outcome.witnesses == [extended]
        assert extended._faces is None, delta
        assert brute_flag_f(extended) == dict(report.predicted_flag.nonzero_items())
        assert extended._faces is not None
    for i, c in enumerate(_corpus_and_witnesses()):
        _assert_same_as_validated(c, i)


def test_walk_records_survive_cache_clears():
    """A walk record holds only the chosen masks, so clearing the grid
    caches, with their face and layer-text memos, before the faces are built
    changes nothing, and complexes built by separate walks compare
    equal."""
    walked = _corpus_and_witnesses()
    cold_grids()
    for i, c in enumerate(walked):
        _assert_same_as_validated(c, i)
    assert _corpus_and_witnesses() == walked


def test_census_complexes_build_their_faces_on_first_use():
    """All 74,963 two-color complexes within 4 x 4 vertices match their
    validated rebuilds before their face sets are built and after; each
    check that builds the faces is the first on a fifth of them."""
    every = _unbuilt(list(enumerate_all_colored_complexes(2, [4, 4])))
    assert len(every) == 74_963
    for i, c in enumerate(every):
        _assert_same_as_validated(c, i, every_check=False)


def test_census_pass_builds_no_face_set():
    """The benchmark's census pass, the enumeration and one search per
    flag vector, builds no face set: flag_f, len and repr read the walk's
    counts, and so does the search's check of its source."""
    every = list(enumerate_all_colored_complexes(2, [4, 4]))
    sources = {}
    for c in every:
        fv = flag_f(c)
        assert two_color_realizable(fv)
        assert len(c) == fv.total() and repr(c).endswith(f"faces=<{len(c)}>)")
        sources.setdefault(fv.dense(), c)
    assert len(sources) == 125
    witnesses = []
    for source in sources.values():
        outcome = find_color_shifted_with_flag(source)
        assert outcome.witnesses
        witnesses += outcome.witnesses
    assert len(every) == 74_963
    assert not [c for c in [*every, *witnesses] if c._faces is not None]


def test_uniqueness_builds_no_grid_face(monkeypatch, enumerated_corpus):
    """verify_uniqueness over the corpus and the staircases k = 2..14
    builds no grid face and neither the extension's nor the witness's
    face set: the extension is its record, and the witness is compared
    with it record to record.  The counterpart of
    test_census_pass_builds_no_face_set."""
    deltas = [*enumerated_corpus, *(staircase(k) for k in range(2, 15))]
    for delta in deltas:
        delta.faces  # the extension reads its input's faces

    def no_grid(*_args):
        raise AssertionError("a grid face was built")

    monkeypatch.setattr(complexes, "_grid_face", no_grid)
    built = []
    for delta in deltas:
        result = verify_uniqueness(delta)
        assert result.unique is True, delta
        built += [result.extended, *result.outcome.witnesses]
    assert len(built) == 2 * len(deltas)
    assert not [c for c in built if c._faces is not None]


def test_record_equality_agrees_with_face_sets():
    """Within each flag-vector group of the two-color complexes within
    3 x 3 vertices, for every pair among two separate enumerations, the
    search witnesses and the validated rebuilds: == holds exactly when
    the face sets are equal, and equal complexes hash alike.  Pairs of
    records include empty layers (assigned 0 by the enumeration, absent
    from a search witness), so both the direct and the non-zero
    comparison are exercised."""
    groups: dict[tuple[int, ...], list[ColoredComplex]] = {}
    for c in [
        *enumerate_all_colored_complexes(2, [3, 3]),
        *enumerate_all_colored_complexes(2, [3, 3]),
    ]:
        groups.setdefault(flag_f(c).dense(), []).append(c)
    assert len(groups) == 52
    pairs = Counter()
    for dense, group in groups.items():
        outcome = enumerate_color_shifted_with_flag(
            FlagVector(2, dense), SearchBudget(max_witnesses=len(group) + 1)
        )
        assert outcome.exhausted and outcome.witnesses
        group += outcome.witnesses
        group += [ColoredComplex(2, c.faces) for c in group]
        for a in group:
            for b in group:
                equal = a.faces == b.faces
                assert (a == b) == equal, (a._record, b._record)
                assert not equal or hash(a) == hash(b)
                if a._record is not None and b._record is not None:
                    pairs[equal, a._record == b._record] += 1
    assert min(pairs[True, True], pairs[True, False], pairs[False, False]) > 0, pairs


# ===================================================================
# uniqueness of the cone extension
# ===================================================================

def test_uniqueness_of_worked_examples(sample_a, sample_b):
    for delta in (sample_a, sample_b):
        result = verify_uniqueness(delta)
        assert result.unique is True
        assert result.outcome.exhausted
        assert result.outcome.witnesses == [result.extended]


def test_uniqueness_conclusive_over_tiny_complexes():
    for delta in enumerate_color_shifted_complexes(2, [1, 1]):
        result = verify_uniqueness(delta)
        assert result.unique is True, delta


def test_uniqueness_of_staircases():
    eight = verify_uniqueness(staircase(8))
    assert eight.unique is True
    assert eight.outcome.nodes_visited <= 250_000
    assert verify_uniqueness(staircase(9)).unique is True


def test_uniqueness_of_larger_staircases():
    nine = verify_uniqueness(staircase(9))
    assert nine.unique is True and nine.outcome.nodes_visited <= 100_000
    ten = verify_uniqueness(staircase(10))
    assert ten.unique is True and ten.outcome.nodes_visited <= 300_000


@pytest.mark.parametrize(
    "bounds, complexes, nodes, widest",
    [([2, 2, 2], 979, 28_427, 10), ([3, 2, 2], 4_115, 148_863, 11)],
)
def test_uniqueness_over_whole_boxes(bounds, complexes, nodes, widest):
    """The paper's claim on every color-shifted complex of a box: each
    cone extension is the only color-shifted complex with its flag
    vector, with exact node totals.  A seeded sample of the extensions
    also matches the face-by-face reference and passes its report's
    re-check."""
    deltas = list(enumerate_color_shifted_complexes(3, bounds))
    assert len(deltas) == complexes
    results = [verify_uniqueness(delta) for delta in deltas]
    assert all(result.unique is True for result in results)
    assert sum(result.outcome.nodes_visited for result in results) == nodes
    assert max(result.extended.num_colors for result in results) == widest
    for delta in random.Random(24).sample(deltas, 25):
        extended, report = cone_extension(delta)
        assert (extended, report) == reference_cone_extension(delta), delta
        assert verify_cone_extension(delta, extended, report).ok, delta


def test_uniqueness_budget_runs_out(sample_b):
    result = verify_uniqueness(sample_b, SearchBudget(max_nodes=2))
    assert result.unique is None
    assert not result.outcome.exhausted


def test_default_budget_is_shared(monkeypatch, sample_a, sample_b):
    """A search or a uniqueness check without a budget builds none, and a
    check builds one only to raise a cap of 1 witness to the 2 that can
    refute uniqueness; the answers, flags and node counts are those of
    the budgets spelled out."""
    def outcome(result):
        unique, out = (None, result) if isinstance(result, oracle.SearchOutcome) else (
            result.unique, result.outcome
        )
        return unique, out.witnesses, out.exhausted, out.truncated, out.nodes_visited

    calls = [
        (verify_uniqueness, sample_a), (verify_uniqueness, sample_b),
        (enumerate_color_shifted_with_flag, FlagVector(2, (1, 3, 4, 5))),
    ]
    spelled = [outcome(call(arg, SearchBudget(10_000_000, 2))) for call, arg in calls]
    assert [unique for unique, *_ in spelled] == [True, True, None]
    built = []

    class Counted(SearchBudget):
        def __post_init__(self):
            built.append((self.max_nodes, self.max_witnesses))
            super().__post_init__()

    monkeypatch.setattr(oracle, "SearchBudget", Counted)
    assert [outcome(call(arg)) for call, arg in calls] == spelled
    for cap, made in [(3, []), (1, [(10_000_000, 2)] * 2)]:
        budget = SearchBudget(10_000_000, cap)
        assert [outcome(verify_uniqueness(d, budget)) for d in (sample_a, sample_b)] == spelled[:2]
        assert built == made, cap


# ===================================================================
# unconstrained enumeration of all colored complexes
# ===================================================================

def test_enumerate_all_frozen_counts():
    assert sum(1 for _ in enumerate_all_colored_complexes(1, [1])) == 2
    assert sum(1 for _ in enumerate_all_colored_complexes(2, [1, 1])) == 5
    # sum of 2^(t1*t2) over vertex counts (t1, t2) in 0..2 x 0..1
    assert sum(1 for _ in enumerate_all_colored_complexes(2, [2, 1])) == 10


def test_enumerate_all_includes_unshifted():
    complexes = list(enumerate_all_colored_complexes(2, [2, 2]))
    # sum of 2^(t1*t2) over vertex counts (t1, t2) in 0..2 x 0..2
    assert len(complexes) == 31
    shifted = [c for c in complexes if is_color_shifted(c)]
    assert len(shifted) == 19
    for c in complexes:
        assert c.validate() is None


def test_enumerate_all_33_count():
    assert sum(1 for _ in enumerate_all_colored_complexes(2, [3, 3])) == 689


def test_enumerate_shifted_budget():
    assert sum(1 for _ in enumerate_color_shifted_complexes(2, [3, 3])) == 69
    gen = enumerate_color_shifted_complexes(2, [3, 3], SearchBudget(max_nodes=10))
    with pytest.raises(BudgetExhausted, match="10 nodes"):
        for _ in gen:
            pass


def test_enumerate_all_budget():
    gen = enumerate_all_colored_complexes(
        2, [3, 3], SearchBudget(max_nodes=10)
    )
    with pytest.raises(BudgetExhausted):
        for _ in gen:
            pass


def test_subset_source_builds_only_reachable_subsets():
    """_every_subset lists the subsets of `allowed` in ascending order
    and stops after remaining + 1 of them, the most the walk can try."""
    allowed = 0b1011010
    every = [s for s in range(allowed + 1) if s & ~allowed == 0]
    for remaining in [0, 1, 5, 14, 15, 16, 1000]:
        subs, used, completed = oracle._every_subset(None, allowed, remaining)
        assert (subs, used, completed) == (every[:remaining + 1], 0, True), remaining
    assert oracle._every_subset(None, 0, 3)[0] == [0]


def _every_subset_listed(geo, allowed: int, remaining: int):
    """Every subset of `allowed`, ascending, however few nodes remain."""
    return [s for s in range(allowed + 1) if s & ~allowed == 0], 0, True


def _stream_all(num_colors: int, bounds, max_nodes: int):
    """The complexes the enumeration yields under max_nodes, and whether
    it stopped at the budget."""
    got = []
    try:
        for c in enumerate_all_colored_complexes(num_colors, bounds, SearchBudget(max_nodes)):
            got.append(c)
    except BudgetExhausted:
        return got, True
    return got, False


def test_budgeted_enumeration_yields_the_same_prefix(monkeypatch):
    """With the subset lists cut at remaining + 1, every budget yields the
    same complexes and stops at the same point as with the full lists; no
    list holds more than remaining + 1 subsets, and the cut is reached."""
    budgets = [1, 2, 7, 50, 333, 1_000, 4_000, 10**6]
    sizes = []
    cut = oracle._every_subset

    def recorded(geo, allowed, remaining):
        subs = cut(geo, allowed, remaining)
        sizes.append((len(subs[0]), remaining))
        return subs

    monkeypatch.setattr(oracle, "_every_subset", recorded)
    cut_runs = [_stream_all(2, [3, 4], b) for b in budgets]
    monkeypatch.setattr(oracle, "_every_subset", _every_subset_listed)
    full_runs = [_stream_all(2, [3, 4], b) for b in budgets]
    assert cut_runs == full_runs
    everything, stopped = full_runs[-1]
    assert not stopped and len(everything) == sum(
        2 ** (a * b) for a in range(4) for b in range(5)
    )
    assert [stopped for _, stopped in cut_runs] == [True] * 7 + [False]
    for got, _ in cut_runs:
        assert got == everything[:len(got)]
    assert all(n <= remaining + 1 for n, remaining in sizes)
    assert any(n == remaining + 1 for n, remaining in sizes)


# ===================================================================
# partition numbers and diagram counts
# ===================================================================

def test_partition_numbers_frozen():
    assert [partition_number(e) for e in range(9)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22,
    ]


def test_partition_numbers_match_brute():
    for e in range(15):
        assert partition_number(e) == brute_partitions(e)


def test_partition_number_rejects_negative():
    with pytest.raises(ValueError):
        partition_number(-1)


def test_diagram_count_rejects_negative_edges():
    with pytest.raises(ValueError, match=r"^edge count must be >= 0$"):
        count_two_color_shifted_by_edges(-1)


def test_partition_number_overflow_guard():
    with pytest.raises(OverflowError):
        partition_number(5000)


def test_diagram_counts_match_partitions():
    for e in range(9):
        assert count_two_color_shifted_by_edges(e) == partition_number(e)


def test_diagram_count_at_thirty_edges():
    assert count_two_color_shifted_by_edges(30) == partition_number(30)


def test_diagram_count_budget():
    # e = 18 walks 3,193 nodes, and reads fewer up-sets than the grid has points
    cold_grids()
    assert count_two_color_shifted_by_edges(18, SearchBudget(max_nodes=3193)) == 385
    assert len(complexes._layer_geometry(0b11, (18, 18)).ups) < 18 * 18
    with pytest.raises(BudgetExhausted, match="3192 nodes"):
        count_two_color_shifted_by_edges(18, SearchBudget(max_nodes=3192))


def test_diagram_walk_spends_at_least_two_nodes_per_diagram():
    """The up-set walk's states are leaves or have two children, so a
    completed count spends an odd number of nodes, at least 2p(e) - 1:
    the bound behind the diagram count's certain stop."""
    for e in range(19):
        grid = complexes._Geometry(0b11, (e, e))
        count, nodes, done = oracle._kernels.count_ideals_of_size(
            grid.ups, complexes._within((e, e), e), e, 10**7
        )
        assert done and count == partition_number(e), e
        assert nodes % 2 == 1 and nodes >= 2 * count - 1, (e, nodes)


def test_diagram_count_fails_fast_when_the_stop_is_certain(monkeypatch):
    """Each diagram is a leaf of the walk, whose states are leaves or have
    two children, so a completed walk spends at least 2p(e) - 1 nodes;
    with fewer max_nodes the budget stop is raised without walking."""

    def walked(*args):
        raise AssertionError("the diagram walk ran")

    monkeypatch.setattr(oracle._kernels, "count_ideals_of_size", walked)
    # p(2000) leaves 64-bit range; p(71) = 4,697,205, p(72) = 5,392,783,
    # p(76) = 9,289,091, p(77) = 10,619,863; p(18) = 385, so 2p - 1 = 769
    for e, budget, nodes in [
        (2000, None, 10_000_000),
        (77, None, 10_000_000),
        (76, None, 10_000_000),
        (72, None, 10_000_000),
        (18, SearchBudget(max_nodes=384), 384),
        (18, SearchBudget(max_nodes=385), 385),
        (18, SearchBudget(max_nodes=768), 768),
    ]:
        with pytest.raises(BudgetExhausted, match=f"exceeded {nodes} nodes"):
            count_two_color_shifted_by_edges(e, budget)
    # a stop that is not certain still walks
    for e, budget in [(71, None), (18, SearchBudget(max_nodes=769)), (18, SearchBudget(max_nodes=3192))]:
        with pytest.raises(AssertionError, match="walk ran"):
            count_two_color_shifted_by_edges(e, budget)


def test_diagram_count_witnesses_by_edges():
    """Cross-check via the plain enumeration: complexes on <=4 vertices
    per color with exactly e edges, all singleton chains full."""
    for e in range(5):
        want = count_two_color_shifted_by_edges(e)
        seen = 0
        for c in enumerate_color_shifted_complexes(2, [e, e] if e else [1, 1]):
            fv = flag_f(c)
            if fv.count((1, 2)) != e:
                continue
            # the diagram count pins the vertex chains to the edge shape:
            # every vertex must lie under some edge
            t1, t2 = c.vertex_counts()
            rows = max((f.get(1) or 0 for f in c.faces if len(f) == 2), default=0)
            cols = max((f.get(2) or 0 for f in c.faces if len(f) == 2), default=0)
            if (t1, t2) == (rows, cols) or (e == 0 and (t1, t2) == (0, 0)):
                seen += 1
        assert seen == want, e
