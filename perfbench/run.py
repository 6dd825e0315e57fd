"""Benchmark flagshift on fixed workloads and check every answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` next to this directory, never from an installed copy.  Workloads
are `uniqueness-corpus`, `staircase` and `census` (see README.md).

The run repeats passes over the items while another pass fits in
`--seconds`.  Before each pass it sets the workload up afresh (import
of flagshift plus input generation), twice, and reports the median of
these set-ups as `setup_s`.  Every time is a quiet time: host
contention is divided out by a probe that runs throughout the run
(contention.py).  With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and reports
the per-layer metrics.  Every answer is checked: the last
stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`, the line before it holds the run's context, and the
exit code is 1 when an answer was wrong or a deterministic count
changed between passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# Every set-up compiles flagshift from source: bytecode is looked up only
# under a prefix that is never written, so existing __pycache__
# directories are ignored and the run leaves no bytecode behind.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(HERE / "no-bytecode-cache")

from contention import Probe  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult, run_pass  # noqa: E402

# Set-ups before each pass; their median over the run is setup_s.
SETUPS_PER_PASS = 2
# Passes whose item times are kept for wall_s and the item
# percentiles.  A fixed number keeps the benchmark's own memory, and so
# peak_rss_mib, the same however many passes fit in a run.
ITEM_PASSES = 5
COUNTED_LAYER_METRICS = [
    name for name, unit in LAYER_METRICS.items() if unit == "count"
]


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no package source)."""


def _purge_flagshift() -> None:
    for name in [n for n in sys.modules if n == "flagshift" or n.startswith("flagshift.")]:
        del sys.modules[name]


def setup(name: str, seed: int):
    """Import flagshift afresh and build the workload's inputs.

    Returns the inputs and the perf_counter() interval this took.
    """
    if not (SRC / "flagshift" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'flagshift'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _purge_flagshift()
    start = perf_counter()
    import flagshift

    inputs = WORKLOADS[name].setup(seed)
    took = (start, perf_counter())
    origin = Path(flagshift.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"flagshift was imported from {origin}, not from {SRC}")
    return inputs, took


def traced_pass(name: str, inputs) -> tuple[PassResult, Tracer]:
    with Tracer() as tracer:
        res = run_pass(WORKLOADS[name], inputs)
    return res, tracer


def _item_times(passes: list[array]) -> tuple[float, float, float]:
    """From each item's median quiet time over the kept passes: their
    sum (one pass, in s), and their median and 99th percentile (in ms).

    A burst the probe under-corrects, and a probe's eviction of the
    caches of the item it interrupts and of the next few, hit other
    items in each pass; the median over passes drops them.
    """
    per_item = [statistics.median(times) for times in zip(*passes)]
    cuts = statistics.quantiles(per_item, n=100, method="inclusive")
    return sum(per_item), cuts[49] * 1e3, cuts[98] * 1e3


def _context(
    name: str, seed: int, passes: list[PassResult], items: int, probe: Probe
) -> dict:
    from flagshift import _kernels

    src_lines: dict[str, int] = {}
    for path in sorted((SRC / "flagshift").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            with path.open("rb") as fh:
                src_lines[path.suffix[1:]] = src_lines.get(path.suffix[1:], 0) + sum(
                    1 for _ in fh
                )
    return {
        "workload": name,
        "seed": seed,
        # A package with a single kernel may drop the backend switch.
        "backend": _kernels.backend() if hasattr(_kernels, "backend") else "single",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "passes": len(passes),
        "items_per_pass": items,
        "pass_wall_s": [p.wall for p in passes],
        "probes": len(probe.starts),
        "probe_median_speed": probe.median_speed(),
        "inconclusive_ratio": passes[0].inconclusive / items,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; returns (result object, context)."""
    setups: list[tuple[float, float]] = []  # perf_counter() intervals
    plain: list[PassResult] = []
    walls: list[float] = []  # quiet time of each untraced pass, for the overhead
    items: list[array] = []  # per kept pass: each item's quiet time
    traced: list[tuple[PassResult, dict[str, float], float]] = []
    attempted = 0
    start = perf_counter()
    with Probe() as probe:
        while True:
            began = perf_counter()
            for _ in range(SETUPS_PER_PASS):
                inputs, took = setup(name, seed)
                setups.append(took)
                gc.collect()
            res = run_pass(WORKLOADS[name], inputs)
            quiet = probe.quiet_all(res.stamps)
            walls.append(sum(quiet))
            if len(items) < ITEM_PASSES:
                items.append(array("f", quiet))
            attempted += res.items
            res.stamps = None  # drop the stamps pass by pass
            plain.append(res)
            if trace:
                res, tracer = traced_pass(name, inputs)
                attempted += res.items
                spans, missing = tracer.layer_totals(probe.quiet), tracer.missing
                traced.append((res, tracer.metrics(spans), sum(probe.quiet_all(res.stamps))))
                res.stamps = None
                del tracer
            now = perf_counter()
            if now + (now - began) > start + seconds:
                break

    every = plain + [res for res, _, _ in traced]
    failed = sum(p.errors for p in every)
    if len({p.search_nodes for p in every}) != 1:
        print("perfbench: search_nodes changed between passes", file=sys.stderr)
        failed += 1
    if len({repr(p.answers) for p in every}) != 1:
        print("perfbench: answers changed between passes", file=sys.stderr)
        failed += 1
    context = _context(name, seed, plain, len(items[0]), probe)
    context["error_ratio"] = failed / attempted

    if not trace:
        wall, p50, p99 = _item_times(items)
        metrics = {
            "setup_s": (statistics.median(probe.quiet(*t) for t in setups), "s"),
            "wall_s": (wall, "s"),
            "item_p50_ms": (p50, "ms"),
            "item_p99_ms": (p99, "ms"),
            "search_nodes": (plain[0].search_nodes, "count"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB",
            ),
        }
    else:
        per_pass = [m for _, m, _ in traced]
        counted = {tuple(m[k] for k in COUNTED_LAYER_METRICS) for m in per_pass}
        if len(counted) != 1:
            print("perfbench: layer counts changed between passes", file=sys.stderr)
            failed += 1
        layer = {
            k: per_pass[0][k] if k in COUNTED_LAYER_METRICS
            else statistics.median(m[k] for m in per_pass)
            for k in per_pass[0]
        }
        layer["trace.overhead_ratio"] = statistics.median(
            wall for _, _, wall in traced
        ) / statistics.median(walls)
        metrics = {k: (layer[k], unit) for k, unit in LAYER_METRICS.items()}
        context["spans"] = spans
        context["missing_bindings"] = missing

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, context = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
