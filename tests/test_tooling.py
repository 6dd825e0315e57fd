"""Tooling that reaches into the package from outside it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_exist():
    """Every binding the benchmark's tracer wraps is still in the package;
    a lost one would only make its layer metrics read 0."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
