"""The benchmark's three workloads and the check of every answer.

Each workload has a setup, which builds its inputs from a seed, and a
pass, which feeds every input to flagshift once and judges each answer.
The item sets are exhaustive and fixed; the seed only shuffles the order
in which items are fed.  Passes call flagshift through module attributes
(`oracle.verify_uniqueness`, not a name imported here), so the tracer's
wrappers see every call, and so a setup that re-imports the package
is picked up.
"""

from __future__ import annotations

import random
import sys
from array import array
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Print at most this many tracebacks per pass; the rest are only counted.
_MAX_REPORTED = 3


@dataclass
class PassResult:
    """Outcome of one pass: per-item times and answer, and the tallies."""

    # perf_counter() at the start and end of each item, flat: item k
    # ran from stamps[2k] to stamps[2k+1].
    stamps: array = field(default_factory=lambda: array("d"))
    answers: list = field(default_factory=list)  # per item, in feed order
    search_nodes: int = 0
    errors: int = 0  # wrong answers and exceptions
    inconclusive: int = 0  # searches stopped by the node budget
    wall: float = 0.0

    @property
    def items(self) -> int:
        return len(self.stamps) // 2

    def fail(self, what: str) -> None:
        self.errors += 1
        if self.errors <= _MAX_REPORTED:
            print(f"perfbench: wrong answer or error: {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run: Callable[[object, PassResult], None]


_FAILED = object()


def _timed_item(res: PassResult, what: str, call: Callable[[], object]):
    """Run one item and record its start and end; an exception is a
    failure, recorded as the answer "error", and returns _FAILED."""
    stamps = res.stamps
    stamps.append(perf_counter())
    try:
        value = call()
    except Exception:
        stamps.append(perf_counter())
        res.answers.append("error")
        res.fail(what)
        return _FAILED
    stamps.append(perf_counter())
    return value


def _judge_uniqueness(result, res: PassResult, budget_stop_ok: bool, item) -> None:
    """Record one verify_uniqueness answer: True is right, False wrong;
    None (budget stop) is inconclusive, and wrong too unless allowed."""
    res.search_nodes += result.outcome.nodes_visited
    res.answers.append(result.unique)
    if result.unique is None:
        res.inconclusive += 1
        if not budget_stop_ok:
            res.fail(f"budget stop on {item!r}")
    elif result.unique is not True:
        res.fail(f"extension of {item!r} is not unique")


# ---------------------------------------------------------------------------
# uniqueness-corpus: the paper's claim at desk scale, dominated by
# construction; the kernel hardly runs.

def corpus_setup(seed: int) -> list[str]:
    from flagshift import formats, oracle

    complexes = [
        *oracle.enumerate_color_shifted_complexes(2, [4, 4]),
        *oracle.enumerate_color_shifted_complexes(3, [2, 2, 2]),
    ]
    docs = [formats.emit_complex(c) for c in complexes]
    random.Random(seed).shuffle(docs)
    return docs


def corpus_run(docs: list[str], res: PassResult) -> None:
    from flagshift import formats, oracle

    def item(doc):
        result = oracle.verify_uniqueness(formats.parse_complex(doc))
        formats.emit_complex(result.extended)
        return result

    for doc in docs:
        result = _timed_item(res, doc, lambda: item(doc))
        if result is not _FAILED:
            _judge_uniqueness(result, res, False, doc)


# ---------------------------------------------------------------------------
# staircase: the kernel does nearly all the work, construction almost
# none; k=9 stops at the default budget.

STAIRCASE_KS = range(2, 10)


def staircase_setup(seed: int) -> list:
    from flagshift import complexes, shifting

    items = [
        shifting.shift_closure(
            2, [complexes.Face([(1, i), (2, k + 1 - i)]) for i in range(1, k + 1)]
        )
        for k in STAIRCASE_KS
    ]
    random.Random(seed).shuffle(items)
    return items


def staircase_run(items: list, res: PassResult) -> None:
    from flagshift import oracle

    for delta in items:
        result = _timed_item(res, repr(delta), lambda: oracle.verify_uniqueness(delta))
        if result is not _FAILED:
            _judge_uniqueness(result, res, True, delta)


# ---------------------------------------------------------------------------
# census: unconstrained submask enumeration, the count-only kernel, and
# searches toward targets that did not come from an extension.

CENSUS_BOUNDS = [4, 4]
CENSUS_EDGES = range(19)


@dataclass(frozen=True)
class CensusInputs:
    seed: int
    vectors: frozenset  # dense flag f-vectors (f_0, f_1, f_2, f_12) to find
    edges: list[int]  # shuffled
    partitions: dict[int, int]


def census_setup(seed: int) -> CensusInputs:
    from flagshift import oracle

    a_max, b_max = CENSUS_BOUNDS
    vectors = frozenset(
        (1, a, b, e)
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        for e in range(a * b + 1)
    )
    edges = list(CENSUS_EDGES)
    random.Random(seed).shuffle(edges)
    partitions = {e: oracle.partition_number(e) for e in edges}
    return CensusInputs(seed, vectors, edges, partitions)


def census_run(inp: CensusInputs, res: PassResult) -> None:
    from flagshift import flags, oracle

    sources = {}
    stamps = res.stamps
    stream = oracle.enumerate_all_colored_complexes(2, CENSUS_BOUNDS)
    while True:
        start = perf_counter()
        try:
            c = next(stream, None)
            if c is None:
                break
            fv = flags.flag_f(c)
            ok = flags.two_color_realizable(fv)
        except Exception:
            stamps.extend((start, perf_counter()))
            res.fail("enumeration")
            break
        stamps.extend((start, perf_counter()))
        if not ok:
            res.fail(f"unrealizable flag vector {fv!r}")
        sources.setdefault(fv.dense(), c)
    res.answers.append(len(sources))
    if set(sources) != inp.vectors:
        res.fail(f"found {len(sources)} flag vectors, expected {len(inp.vectors)}")

    keys = sorted(sources)
    random.Random(inp.seed).shuffle(keys)
    for key in keys:
        outcome = _timed_item(
            res, f"search for {key}", lambda: oracle.find_color_shifted_with_flag(sources[key])
        )
        if outcome is _FAILED:
            continue
        res.search_nodes += outcome.nodes_visited
        res.answers.append(len(outcome.witnesses))
        if not outcome.exhausted and not outcome.truncated:
            res.inconclusive += 1
        if not outcome.witnesses:
            res.fail(f"no color-shifted witness for {key}")

    for e in inp.edges:
        count = _timed_item(
            res, f"count for e={e}", lambda: oracle.count_two_color_shifted_by_edges(e)
        )
        if count is _FAILED:
            continue
        res.answers.append(count)
        if count != inp.partitions[e]:
            res.fail(f"count for e={e}: {count} != p({e}) = {inp.partitions[e]}")


WORKLOADS = {
    "uniqueness-corpus": Workload(corpus_setup, corpus_run),
    "staircase": Workload(staircase_setup, staircase_run),
    "census": Workload(census_setup, census_run),
}


def run_pass(workload: Workload, inputs) -> PassResult:
    """One timed pass over every item."""
    res = PassResult()
    start = perf_counter()
    workload.run(inputs, res)
    res.wall = perf_counter() - start
    return res
