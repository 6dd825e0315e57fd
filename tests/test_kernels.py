"""Bitmask down-set kernels: brute-force parity and node accounting.

Posets are built as immediate-predecessor masks, which the brute-force
filter reads, and reach the kernels by transitive closure, as their
down-sets (helpers.reference_down_sets).  Allowed sets are down-sets, as
the kernels require: whole posets, prefixes of the linear extension and
down-closures of chosen points.  The count kernel drains the listing
kernels' walk, so it counts what ideals_of_size lists, in the same
nodes."""

from __future__ import annotations

import random
from itertools import combinations, product

from hypothesis import given, seed, settings, strategies as st

from flagshift import _kernels
from flagshift import _kernels as ideals_py
from flagshift.complexes import _Geometry

from helpers import reference_down_sets

HUGE = 1 << 40


def brute_ideals(preds, allowed, size=None):
    """Filter every subset of `allowed` for down-closedness."""
    npoints = len(preds)
    points = [i for i in range(npoints) if allowed >> i & 1]
    out = []
    sizes = range(npoints + 1) if size is None else [size]
    for k in sizes:
        for chosen in combinations(points, k):
            mask = 0
            for i in chosen:
                mask |= 1 << i
            if all(preds[i] & ~mask == 0 for i in chosen):
                out.append(mask)
    return sorted(out)


def chain(n):
    """Total order on n points: 0 < 1 < ... < n-1."""
    return [0 if i == 0 else 1 << (i - 1) for i in range(n)]


def grid(*radices):
    """Product of chains in row-major order, the last one fastest: a
    point's immediate predecessors lower one index by one."""
    points = list(product(*(range(r) for r in radices)))
    rank = {v: i for i, v in enumerate(points)}
    preds = []
    for v in points:
        m = 0
        for c in range(len(v)):
            if v[c]:
                m |= 1 << rank[v[:c] + (v[c] - 1,) + v[c + 1:]]
        preds.append(m)
    return preds


def antichain(n):
    return [0] * n


def down_closure(downs, points):
    """The down-set of the given points: every allowed set a kernel takes."""
    mask = 0
    for p in points:
        mask |= downs[p]
    return mask


# ===================================================================
# pure kernel vs brute force
# ===================================================================

def test_ideals_of_chain():
    downs = reference_down_sets(chain(4))
    full = (1 << 4) - 1
    for size in range(5):
        got, _, done = ideals_py.ideals_of_size(downs, full, size, HUGE)
        assert done
        # a chain has exactly one down-set per size: the prefix
        assert got == [(1 << size) - 1]


def test_ideals_of_antichain_count():
    downs = reference_down_sets(antichain(5))
    full = (1 << 5) - 1
    for size in range(6):
        count, nodes, done = ideals_py.count_ideals_of_size(downs, full, size, HUGE)
        assert done
        from math import comb

        assert count == comb(5, size)
        got, listed_nodes, _ = ideals_py.ideals_of_size(downs, full, size, HUGE)
        assert (count, nodes) == (len(got), listed_nodes)


def test_ideals_of_grid_match_brute():
    preds = grid(3, 3)
    downs = reference_down_sets(preds)
    full = (1 << 9) - 1
    for size in range(10):
        got, _, done = ideals_py.ideals_of_size(downs, full, size, HUGE)
        assert done
        assert got == brute_ideals(preds, full, size)


def test_all_ideals_match_brute():
    preds = grid(2, 3)
    full = (1 << 6) - 1
    got, _, done = ideals_py.all_ideals(reference_down_sets(preds), full, HUGE)
    assert done
    assert got == brute_ideals(preds, full)


def test_allowed_mask_restricts():
    allowed = 0b0101
    got, _, done = ideals_py.all_ideals(reference_down_sets(antichain(4)), allowed, HUGE)
    assert done
    assert got == [0b0000, 0b0001, 0b0100, 0b0101]


def test_zero_points():
    assert ideals_py.all_ideals([], 0, HUGE) == ([0], 1, True)
    assert ideals_py.ideals_of_size([], 0, 0, HUGE) == ([0], 1, True)
    assert ideals_py.ideals_of_size([], 0, 1, HUGE) == ([], 1, True)


def test_budget_stops_early():
    downs = reference_down_sets(antichain(10))
    full = (1 << 10) - 1
    all_got, total_nodes, done = ideals_py.all_ideals(downs, full, HUGE)
    assert done and len(all_got) == 1024
    partial, nodes, done = ideals_py.all_ideals(downs, full, total_nodes // 2)
    assert not done
    assert nodes == total_nodes // 2 + 1
    assert len(partial) < 1024
    assert set(partial) <= set(all_got)
    assert partial == all_got[: len(partial)]


def test_counts_are_size_partitioned():
    downs = reference_down_sets(grid(2, 4))
    full = (1 << 8) - 1
    total, _, _ = ideals_py.all_ideals(downs, full, HUGE)
    by_size = 0
    for size in range(9):
        n, nodes, done = ideals_py.count_ideals_of_size(downs, full, size, HUGE)
        assert done
        got, listed_nodes, _ = ideals_py.ideals_of_size(downs, full, size, HUGE)
        assert (n, nodes) == (len(got), listed_nodes)
        by_size += n
    assert by_size == len(total)


def test_kernels_take_more_than_64_points():
    downs = reference_down_sets(antichain(65))
    full = (1 << 65) - 1
    count, nodes, done = _kernels.count_ideals_of_size(downs, full, 1, HUGE)
    assert done and count == 65
    got, listed_nodes, _ = _kernels.ideals_of_size(downs, full, 1, HUGE)
    assert got == [1 << p for p in range(65)] and nodes == listed_nodes


# ===================================================================
# sized walk node accounting (the listing and the count)
# ===================================================================

def test_count_nodes_on_chains():
    # the walk skips the points above the target as forced exclusions,
    # includes the highest point that fits, and prunes the exclude
    # sibling: 3 nodes for any size but 0, listed or counted
    for n in range(9):
        downs = reference_down_sets(chain(n))
        full = (1 << n) - 1
        for size in range(n + 1):
            got, nodes, done = ideals_py.ideals_of_size(downs, full, size, HUGE)
            assert done and got == [(1 << size) - 1]
            assert nodes == (3 if size else 1)
            assert ideals_py.count_ideals_of_size(downs, full, size, HUGE) == (1, nodes, True)


ASCENDING_GRID_NODES = {
    (3, 3): [1, 3, 5, 9, 11, 11, 11, 9, 5, 3],
    (4, 4): [1, 3, 5, 9, 15, 19, 23, 27, 29, 29, 27, 23, 19, 15, 9, 5, 3],
}


def test_count_nodes_on_grids():
    for (rows, cols), by_size in ASCENDING_GRID_NODES.items():
        downs = reference_down_sets(grid(rows, cols))
        full = (1 << (rows * cols)) - 1
        for size, want in enumerate(by_size):
            got, nodes, done = ideals_py.ideals_of_size(downs, full, size, HUGE)
            assert done and nodes == want, (rows, cols, size)
            count = ideals_py.count_ideals_of_size(downs, full, size, HUGE)
            assert count == (len(got), want, True)


def test_count_budget_stop_is_a_prefix():
    """A budget stop spends max_nodes + 1 nodes: the listing returns a
    prefix of its full list, and the count the number of down-sets
    listed by then."""
    downs = reference_down_sets(grid(3, 4))
    full = (1 << 12) - 1
    every, total, done = ideals_py.ideals_of_size(downs, full, 5, HUGE)
    assert done and total == 15
    assert ideals_py.count_ideals_of_size(downs, full, 5, HUGE) == (len(every), total, True)
    for budget in [1, 7, 12, total - 1]:
        partial, nodes, done = ideals_py.ideals_of_size(downs, full, 5, budget)
        assert not done and nodes == budget + 1
        assert partial == every[: len(partial)]
        count, nodes, done = ideals_py.count_ideals_of_size(downs, full, 5, budget)
        assert not done and nodes == budget + 1 and count == len(partial)


# ===================================================================
# ascending walk: order, limit, budget and node accounting
# ===================================================================

def test_ascending_walk_lists_in_order_on_grids():
    """On 2- and 3-color grids, with every point allowed, with the
    down-closures of seeded random points and with a prefix, the any-size
    and sized lists equal the brute-force filter's ascending
    list, in 2L - 1 nodes for L down-sets of any size.  Each limit returns
    a prefix of the sized list, and each budget stop a prefix at
    max_nodes + 1.  The geometry's down-sets are the poset's."""
    rng = random.Random(2010)
    for radices in [(3, 4), (2, 3, 2), (3, 2, 2)]:
        preds = grid(*radices)
        n = len(preds)
        downs = _Geometry((1 << len(radices)) - 1, radices).downs
        full = (1 << n) - 1
        closures = [down_closure(downs, rng.sample(range(n), k)) for k in (1, 2, 3)]
        for allowed in (full, *closures, (1 << (n // 2)) - 1):
            got, nodes, done = ideals_py.all_ideals(downs, allowed, HUGE)
            assert done and got == brute_ideals(preds, allowed), (radices, allowed)
            assert nodes == 2 * len(got) - 1
            for size in range(n + 1):
                every, total, done = ideals_py.ideals_of_size(downs, allowed, size, HUGE)
                assert done and every == brute_ideals(preds, allowed, size)
                for limit in range(len(every) + 2):
                    capped, nodes, done = ideals_py.ideals_of_size(downs, allowed, size, HUGE, limit)
                    assert done and capped == every[:limit] and nodes <= total
                for budget in range(1, total):
                    partial, nodes, done = ideals_py.ideals_of_size(downs, allowed, size, budget)
                    assert not done and nodes == budget + 1 and partial == every[: len(partial)]


# ===================================================================
# any-size walk node accounting
# ===================================================================

def assert_two_nodes_per_down_set(preds, allowed):
    """The any-size walk's leaves are its L down-sets and every other
    state branches in two, so it visits exactly 2L - 1 nodes."""
    got, nodes, done = ideals_py.all_ideals(reference_down_sets(preds), allowed, HUGE)
    assert done and nodes == 2 * len(got) - 1
    return len(got), nodes


def test_any_size_walk_nodes_on_chains():
    for n in range(9):
        assert assert_two_nodes_per_down_set(chain(n), (1 << n) - 1) == (n + 1, 2 * n + 1)


def test_any_size_walk_nodes_on_grids():
    # the down-sets of a rows x cols grid are the C(rows + cols, rows)
    # lattice paths
    assert assert_two_nodes_per_down_set(grid(3, 3), (1 << 9) - 1) == (20, 39)
    assert assert_two_nodes_per_down_set(grid(4, 4), (1 << 16) - 1) == (70, 139)


# ===================================================================
# properties
# ===================================================================

@st.composite
def random_posets(draw):
    n = draw(st.integers(0, 8))
    preds = []
    for i in range(n):
        mask = 0
        for j in range(i):
            if draw(st.booleans()):
                mask |= 1 << j
        preds.append(mask)
    tops = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
    return preds, down_closure(reference_down_sets(preds), tops)


@settings(max_examples=60)
@given(random_posets())
def test_all_ideals_property(args):
    preds, allowed = args
    got, _, done = ideals_py.all_ideals(reference_down_sets(preds), allowed, HUGE)
    assert done
    assert got == brute_ideals(preds, allowed)
    assert_two_nodes_per_down_set(preds, allowed)


@settings(max_examples=60)
@given(random_posets(), st.integers(0, 8))
def test_sized_ideals_property(args, size):
    preds, allowed = args
    downs = reference_down_sets(preds)
    got, _, done = ideals_py.ideals_of_size(downs, allowed, size, HUGE)
    assert done
    assert got == brute_ideals(preds, allowed, size)
    count, _, done = ideals_py.count_ideals_of_size(downs, allowed, size, HUGE)
    assert done and count == len(got)
    for limit in range(len(got) + 2):
        assert ideals_py.ideals_of_size(downs, allowed, size, HUGE, limit)[0] == got[:limit]


@seed(20101)
@settings(max_examples=150, derandomize=True, database=None)
@given(random_posets(), st.integers(0, 8))
def test_count_matches_brute(args, size):
    """The walk lists the brute-force down-sets in order, the count is
    the number it lists in the listing's nodes, and that number of
    nodes is odd and at least 2L - 1 for L down-sets: each state is a
    leaf or has two children."""
    preds, allowed = args
    downs = reference_down_sets(preds)
    got, nodes, done = ideals_py.ideals_of_size(downs, allowed, size, HUGE)
    assert done
    assert got == brute_ideals(preds, allowed, size)
    assert ideals_py.count_ideals_of_size(downs, allowed, size, HUGE) == (len(got), nodes, True)
    assert nodes % 2 == 1 and nodes >= 2 * len(got) - 1
