"""Tooling that reaches into the package from outside it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from flagshift import (
    FlagVector,
    SearchBudget,
    count_two_color_shifted_by_edges,
    enumerate_color_shifted_complexes,
    enumerate_color_shifted_with_flag,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_exist():
    """Every binding the benchmark's tracer wraps is still in the package;
    a lost one would only make its layer metrics read 0."""
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_pass_reaches_every_kernel():
    """One traced pass through the search, the shifted enumeration and the
    diagram count reads the kernels' results; a kernel whose return
    shape the tracer no longer understands fails here.  The search
    target branches: 4 edges on a 3 x 3 grid fit 3 diagrams, which bound
    propagation cannot tell apart."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        outcome = enumerate_color_shifted_with_flag(
            FlagVector(2, (1, 3, 3, 4)), SearchBudget(max_witnesses=10)
        )
        assert outcome.exhausted and len(outcome.witnesses) == 3
        assert len(list(enumerate_color_shifted_complexes(2, [2, 2]))) > 0
        assert count_two_color_shifted_by_edges(8) == 22
    assert tracer.missing == []
    assert {"kernels.ideals", "kernels.all", "kernels.count"} <= set(tracer.layer_totals())
    metrics = tracer.metrics()
    assert metrics["kernels.nodes"] > 0
    assert metrics["kernels.count_nodes"] > 0
