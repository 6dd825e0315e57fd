"""Down-set enumeration kernels over bitmask posets, in pure Python.

Callers look these names up on the module at call time, so a wrapper
bound here is seen by every caller.

A poset is given by its up-sets: ups[i] is the bitmask of point i and
every point above it, and points must be listed in a linear extension
(every point before the points above it, so ups[i] has no bit below i).
A down-set is a subset containing every point below each member.  Masks
are plain Python integers, so any number of points works.

One visited state is one node; when the node budget runs out a kernel
stops and reports completed=False with whatever it found so far.

All three kernels drain one walk, `_down_sets`, over an up-set-pruned
include/exclude tree.  Each state carries `avail`: the allowed points
that are undecided and lie above no excluded and no non-allowed point.
Invariant: every point below the lowest bit of `avail` is decided, and
every point below a point in `avail` is chosen.  A point p below i
that is not chosen was either excluded or not allowed, and then the
up-set of p, which holds i, was cleared from `avail`; or p lies above
such a point q, whose up-set holds p's and so i too.  Hence
  - including the lowest point of `avail` always keeps a down-set, so
    the walk branches on that point alone and never tests the points
    below it;
  - excluding point i forbids every point above it, so its up-set
    leaves `avail` at once;
  - a down-set that extends the current state can only add points of
    `avail`, so a sized walk prunes a state with count + |avail| < size,
    which holds no down-set of the target size;
  - a state with empty `avail` is a finished down-set: the any-size
    walk yields it as a leaf and prunes nothing.  Every down-set D of
    `allowed` starts inside `avail`, and is reached by including the
    lowest point of `avail` exactly when it is in D: excluding a point
    outside D clears only points above it, none of them in D.  Two
    leaves differ at the branch that split them.  So the leaves are the
    L down-sets, once each, every other state has two children, and the
    any-size walk visits exactly 2L - 1 nodes.

The first `avail` (_initial_avail) clears the up-set of every blocked
(non-allowed) point but reads only those that clear something.  A point
listed after the highest allowed point is below no allowed point, since
ups[i] has no bit below i.  A blocked point q in a blocked p's up-set is
not read: q >= p, so p's up-set, cleared already, holds q's.
"""

from __future__ import annotations

_ANY_SIZE = -1  # no count equals it and none falls below it


def _initial_avail(ups, allowed: int) -> int:
    """Allowed points above no non-allowed point, reading only the
    up-sets that clear something (module docstring)."""
    avail = allowed
    blocked = ((1 << allowed.bit_length()) - 1) & ~allowed
    while blocked:
        low = blocked & -blocked
        up = ups[low.bit_length() - 1]
        avail &= ~up
        blocked &= ~up
    return avail


def _down_sets(ups, allowed: int, size: int, max_nodes: int):
    """Yield the down-sets of `allowed` with `size` points (any size for
    _ANY_SIZE); return (nodes_visited, completed)."""
    nodes = 0
    stack = [(_initial_avail(ups, allowed), 0, 0)]  # (avail, chosen, count)
    while stack:
        avail, chosen, count = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return nodes, False
        if count == size:
            yield chosen
            continue
        if count + avail.bit_count() < size:
            continue
        if not avail:  # reached by the any-size walk only
            yield chosen
            continue
        low = avail & -avail
        stack.append((avail & ~ups[low.bit_length() - 1], chosen, count))
        stack.append((avail ^ low, chosen | low, count + 1))
    return nodes, True


def _drain(walk, keep: bool):
    """Run a walk to its end: (its down-sets as a list when `keep`, else
    their number, nodes_visited, completed)."""
    masks: list[int] = []
    found = 0
    while True:
        try:
            mask = next(walk)
        except StopIteration as stop:
            return (masks if keep else found, *stop.value)
        found += 1
        if keep:
            masks.append(mask)


def ideals_of_size(
    ups, allowed: int, size: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """All down-sets of `allowed` with exactly `size` points.

    Returns (masks, nodes_visited, completed).
    """
    return _drain(_down_sets(ups, allowed, size, max_nodes), True)


def count_ideals_of_size(
    ups, allowed: int, size: int, max_nodes: int
) -> tuple[int, int, bool]:
    """Like ideals_of_size but only counts the down-sets."""
    return _drain(_down_sets(ups, allowed, size, max_nodes), False)


def all_ideals(
    ups, allowed: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """Every down-set of `allowed`, any size (the empty set included)."""
    return _drain(_down_sets(ups, allowed, _ANY_SIZE, max_nodes), True)
