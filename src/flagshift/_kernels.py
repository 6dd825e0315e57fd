"""Down-set enumeration kernels over bitmask posets, in pure Python.

Callers look these names up on the module at call time, so a wrapper
bound here is seen by every caller.  Points are listed in a linear
extension (every point before the points above it), a down-set holds
every point below each member, and masks are Python integers of any
width.  `allowed` is a down-set of the poset: every caller passes one
(the oracle module docstring argues each), and no kernel checks it.
One visited state is one node; a forced exclusion costs none.
When the node budget runs out a kernel stops and reports completed=False
with whatever it found so far.

ideals_of_size and all_ideals drain `_ascending`, which reads downs[i],
point i and every point below it (no bit above i).  A state (chosen,
rest) holds a down-set and the allowed points not chosen below the
points decided so far.  It branches on the highest point p of rest:
exclude, then include, which adds downs[p].
  - Each down-set D of `allowed` is one leaf, reached by including p
    exactly when p is in D, and chosen, a union of down-sets, is one.
  - Order: the bits above p are fixed below the branch, bit p is 0 in
    the exclude child's leaves and 1 in the include child's, and the
    exclude child goes first, so down-sets come in ascending order, the
    order the search tries them in.  So `limit`, which stops the walk
    at its limit-th down-set, gives the first `limit` of the full list.
  - Inclusion: downs[p] lies in `allowed`, a down-set, and holds no
    decided point, as those lie above p, so chosen | downs[p] is a
    down-set of `allowed` and rest loses only downs[p].
  - Forced exclusion: a p whose downs[p] takes chosen past `size` is in
    no down-set extending the state, as chosen only grows, so it leaves
    rest with no branch.
  - Undershoot: a down-set extending the state lies in chosen | rest, so
    a sized walk prunes a state with |chosen| + |rest| < size, and a
    state of `size` points is a leaf.  The any-size walk prunes nothing,
    so every state that is no leaf has two children: 2L - 1 nodes for L
    down-sets.

count_ideals_of_size keeps the up-set walk `_down_sets`, a second route
to the same sets, reading ups[i], point i and every point above it.  Its
state carries `avail`, the allowed points undecided and above no
excluded point, which starts as `allowed`, and every point below one of
them is chosen: a point p below i is allowed, as `allowed` is a
down-set, so p, if not chosen, was excluded and its up-set, which holds
i, was cleared, or it lies above an excluded point, whose up-set holds i
too.  So including the lowest point of `avail` keeps a down-set,
excluding it clears its up-set, and a state with count + |avail| < size
is pruned.  A down-set D is reached by including the lowest point of
`avail` exactly when it is in D, as excluding a point outside D clears
only points above it.  Each state is a leaf (a down-set or a prune) or
has two children, so a completed walk spends 2L - 1 nodes for L leaves.
"""

from __future__ import annotations


def _ascending(downs, allowed: int, size: int | None, max_nodes: int, limit: int):
    """Yield the first `limit` down-sets of `allowed` with `size` points
    (any size for None) in ascending order (every one for limit < 0);
    return (nodes_visited, completed)."""
    cap = allowed.bit_count() if size is None else size  # no down-set passes it
    floor = 0 if size is None else size  # every down-set reaches it
    nodes = 0
    stack = [(0, allowed)]  # (chosen, rest)
    while stack and limit:
        chosen, rest = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return nodes, False
        count = chosen.bit_count()
        if count == cap:
            rest = 0
        while count + rest.bit_count() >= floor:  # else the undershoot prune
            if not rest:
                yield chosen
                limit -= 1
                break
            p = rest.bit_length() - 1
            down = downs[p]
            rest ^= 1 << p
            if (chosen | down).bit_count() > cap:
                continue  # a forced exclusion
            stack.append((chosen | down, rest & ~down))
            stack.append((chosen, rest))
            break
    return nodes, True


def _down_sets(ups, allowed: int, size: int, max_nodes: int):
    """Yield the down-sets of `allowed` with `size` points; return
    (nodes_visited, completed)."""
    nodes = 0
    stack = [(allowed, 0, 0)]  # (avail, chosen, count)
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
    downs, allowed: int, size: int, max_nodes: int, limit: int | None = None
) -> tuple[list[int], int, bool]:
    """(The down-sets of `allowed` with exactly `size` points, ascending,
    at most `limit` of them; nodes_visited; completed)."""
    return _drain(_ascending(downs, allowed, size, max_nodes, -1 if limit is None else limit), True)


def count_ideals_of_size(ups, allowed: int, size: int, max_nodes: int) -> tuple[int, int, bool]:
    """The number of down-sets of `allowed` with exactly `size` points,
    by the up-set walk."""
    return _drain(_down_sets(ups, allowed, size, max_nodes), False)


def all_ideals(downs, allowed: int, max_nodes: int) -> tuple[list[int], int, bool]:
    """Every down-set of `allowed`, any size (the empty set included),
    ascending."""
    return _drain(_ascending(downs, allowed, None, max_nodes, -1), True)
