"""Down-set enumeration kernels over bitmask posets, in pure Python.

Callers look these names up on the module at call time, so a wrapper
bound here is seen by every caller.

A poset is given as a sequence `preds`: preds[i] is the bitmask of the
immediate predecessors of point i, and points must be listed in a linear
extension (every predecessor before its successor).  A down-set is a
subset containing all predecessors of each member.  Masks are plain
Python integers, so any number of points works.

One visited state is one node; when the node budget runs out a kernel
stops and reports completed=False with whatever it found so far.

The sized kernels (`ideals_of_size`, `count_ideals_of_size`) walk an
up-set-pruned include/exclude tree.  Each state carries `avail`: the
allowed points that are undecided and lie above no excluded and no
non-allowed point.  Invariant: every point below the lowest bit of
`avail` is decided, and every predecessor of a point in `avail` is
chosen.  A predecessor p < i that is not chosen was either excluded or
not allowed, and then the up-set of p, which holds i, was cleared from
`avail`; or p lies above such a point q, whose up-set holds p's and so
i too.  Hence
  - including the lowest point of `avail` always keeps a down-set, so
    the walk branches on that point alone and never tests preds;
  - excluding point i forbids every point above it, so its up-set
    leaves `avail` at once;
  - a down-set that extends the current state can only add points of
    `avail`, so a state with count + |avail| < size holds no down-set of
    the target size and is pruned.
`all_ideals` keeps the plain walk that decides points in order.
"""

from __future__ import annotations


def _up_sets(preds) -> list[int]:
    """ups[i]: point i and every point above it."""
    ups = [1 << i for i in range(len(preds))]
    for i in range(len(preds) - 1, -1, -1):
        up = ups[i]
        m = preds[i]
        while m:
            low = m & -m
            ups[low.bit_length() - 1] |= up
            m ^= low
    return ups


def _initial_avail(preds, allowed: int, ups: list[int]) -> int:
    """Allowed points above no non-allowed point."""
    avail = allowed
    blocked = ((1 << len(preds)) - 1) & ~allowed
    while blocked:
        low = blocked & -blocked
        avail &= ~ups[low.bit_length() - 1]
        blocked ^= low
    return avail


def ideals_of_size(
    preds, allowed: int, size: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """All down-sets of `allowed` with exactly `size` points.

    Returns (masks, nodes_visited, completed).
    """
    ups = _up_sets(preds)
    out: list[int] = []
    nodes = 0
    stack = [(_initial_avail(preds, allowed, ups), 0, 0)]  # (avail, chosen, count)
    while stack:
        avail, chosen, count = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return out, nodes, False
        if count == size:
            out.append(chosen)
            continue
        if count + avail.bit_count() < size:
            continue
        low = avail & -avail
        stack.append((avail & ~ups[low.bit_length() - 1], chosen, count))
        stack.append((avail ^ low, chosen | low, count + 1))
    return out, nodes, True


def count_ideals_of_size(
    preds, allowed: int, size: int, max_nodes: int
) -> tuple[int, int, bool]:
    """Like ideals_of_size but only counts the down-sets."""
    ups = _up_sets(preds)
    found = 0
    nodes = 0
    stack = [(_initial_avail(preds, allowed, ups), 0)]  # (avail, count)
    while stack:
        avail, count = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return found, nodes, False
        if count == size:
            found += 1
            continue
        if count + avail.bit_count() < size:
            continue
        low = avail & -avail
        stack.append((avail & ~ups[low.bit_length() - 1], count))
        stack.append((avail ^ low, count + 1))
    return found, nodes, True


def all_ideals(
    preds, allowed: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """Every down-set of `allowed`, any size (the empty set included)."""
    npoints = len(preds)
    out: list[int] = []
    nodes = 0
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return out, nodes, False
        if i == npoints:
            out.append(chosen)
            continue
        bit = 1 << i
        stack.append((i + 1, chosen))
        if allowed & bit and preds[i] & ~chosen == 0:
            stack.append((i + 1, chosen | bit))
    return out, nodes, True
