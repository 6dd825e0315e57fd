"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Counts must repeat exactly across seeds and runs, a traced pass must
give the untraced answers and leave flagshift unwrapped, and the answer
checks must catch wrong answers without failing a budget stop where one
is allowed.  No test pins today's node counts: a pruning change may move
them without editing the benchmark.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from contention import Probe, reference  # noqa: E402
from tracing import LAYER_METRICS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult, corpus_run, run_pass, staircase_run  # noqa: E402

RUNS = (("seed 1", 1), ("seed 2", 2), ("seed 1 again", 1))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """Per run: (workload, untraced pass, traced pass, layer metrics)."""
    name = request.param
    out = {}
    for label, seed in RUNS:
        inputs, _ = run.setup(name, seed)
        plain = run_pass(WORKLOADS[name], inputs)
        traced, tracer = run.traced_pass(name, inputs)
        out[label] = (plain, traced, tracer.metrics())
    return name, out


def test_counts_repeat_across_seeds_and_runs(runs):
    name, out = runs
    nodes = {label: (p.search_nodes, t.search_nodes) for label, (p, t, _) in out.items()}
    assert len(set(nodes.values())) == 1, nodes
    assert next(iter(nodes.values()))[0] > 0
    for metric in run.COUNTED_LAYER_METRICS:
        values = {label: m[metric] for label, (_, _, m) in out.items()}
        assert len(set(values.values())) == 1, (name, metric, values)


def test_traced_pass_gives_untraced_answers(runs):
    name, out = runs
    for label, (plain, traced, _) in out.items():
        assert plain.errors == traced.errors == 0, (name, label)
        assert traced.answers == plain.answers, (name, label)
        assert traced.search_nodes == plain.search_nodes, (name, label)
        assert traced.inconclusive == plain.inconclusive, (name, label)
    assert set(out["seed 1"][2]) | {"trace.overhead_ratio"} == set(LAYER_METRICS)


def _bindings():
    import importlib

    found = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in TARGETS
    }
    face = importlib.import_module("flagshift.complexes").Face
    found[("Face", "__init__")] = face.__dict__["__init__"]
    return found


def test_flagshift_is_unwrapped_after_a_traced_pass():
    inputs, _ = run.setup("staircase", 0)
    import flagshift

    small = [delta for delta in inputs if len(delta) < 20]
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            during = _bindings()
            res = PassResult()
            staircase_run(small, res)
            raise RuntimeError("leave the traced block by an exception")
    assert all(during[key] is not before[key] for key in before)
    assert tracer.spans and res.errors == 0
    assert all(_bindings()[key] is before[key] for key in before)

    spans = len(tracer.spans)
    again = PassResult()
    staircase_run(small, again)
    assert len(tracer.spans) == spans
    assert again.answers == res.answers and again.search_nodes == res.search_nodes
    assert flagshift.oracle.verify_uniqueness is before[("flagshift.oracle", "verify_uniqueness")]


def test_wrong_answers_and_exceptions_are_failures(monkeypatch):
    not_shifted = json.dumps(
        {"num_colors": 2, "faces": [[], [[1, 1]], [[1, 2]], [[2, 1]], [[1, 2], [2, 1]]]}
    )
    res = PassResult()
    corpus_run([not_shifted], res)
    assert (res.errors, res.items) == (1, 1)

    import flagshift.oracle

    outcome = SimpleNamespace(nodes_visited=5)
    for unique, corpus_errors, stair_errors in ((True, 0, 0), (False, 1, 1), (None, 1, 0)):
        monkeypatch.setattr(
            flagshift.oracle,
            "verify_uniqueness",
            lambda delta, budget=None, u=unique: SimpleNamespace(
                unique=u, outcome=outcome, extended=delta
            ),
        )
        corpus, stair = PassResult(), PassResult()
        corpus_run(['{"num_colors": 1, "faces": [[]]}'], corpus)
        staircase_run([object()], stair)
        assert (corpus.errors, stair.errors) == (corpus_errors, stair_errors), unique
        assert corpus.inconclusive == stair.inconclusive == (unique is None)


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_binding_the_package_lost_is_skipped(monkeypatch):
    run.setup("staircase", 0)
    import flagshift.construction

    monkeypatch.delattr(flagshift.construction, "union")
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["flagshift.construction.union"]
    assert not hasattr(flagshift.construction, "union")


def test_probe_runs_while_active_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        start, spent = perf_counter(), probe._spent[-1]
        while len(probe.starts) < 20:
            reference()
        end, spent = perf_counter(), probe._spent[-1] - spent
        assert signal.getitimer(signal.ITIMER_REAL)[1] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # Quiet time is the interval's own time, without the probes that ran
    # inside it, scaled by a mean of the probes' speeds.
    own = end - start - spent
    speeds = [probe._speed[k + 1] - probe._speed[k] for k in range(len(probe.starts))]
    quiet = probe.quiet(start, end)
    assert 0 < spent < end - start
    assert min(speeds) * own * 0.999 <= quiet <= max(speeds) * own * 1.001
    assert probe.quiet_all([start, end]).tolist() == [quiet]
