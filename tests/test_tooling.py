"""Tooling that reaches into the package from outside it."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagshift"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return _load("tracing")


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


def test_no_dead_imports():
    """Every name a module of the package imports is read in it, except
    the bindings the benchmark's tracer wraps (its TARGETS), which it
    looks up on the module.  __init__.py imports to re-export."""
    traced = {(module, attr) for module, attr, _span in load_tracing().TARGETS}
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"flagshift.{path.stem}"
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (module, name) not in traced:
                        dead.append(f"{module}.{name}")
    assert dead == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(node) -> list[str]:
    """The names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_dead_definitions():
    """Every private module-level function, class or assigned name of the
    package, and every non-dunder member of a private class, is read by
    some module of the package: a name by name, as an attribute or
    through an import, a member as an attribute, so that a local
    variable of the same name does not count.  A member a base class in
    the MRO already has is exempt, as its base calls it (argparse calls
    _Parser.error).  Every __slots__ entry of a package class is read as
    an attribute too: a slot that is only ever stored holds nothing."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    dead = []
    for stem, tree in trees.items():
        module = f"flagshift.{stem}"
        for node in tree.body:
            for name in filter(_private, _defined(node)):
                if name not in names | attrs:
                    dead.append(f"{module}.{name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if "__slots__" in _defined(member):
                    slots = ast.literal_eval(member.value)
                    for name in [slots] if isinstance(slots, str) else slots:
                        if name not in attrs:
                            dead.append(f"{module}.{node.name}.__slots__: {name}")
            if not _private(node.name):
                continue
            # importing only modules with a private class: running __main__ runs the CLI
            bases = getattr(importlib.import_module(module), node.name).__mro__[1:]
            for member in node.body:
                for name in _defined(member):
                    if _dunder(name) or name in attrs or any(hasattr(b, name) for b in bases):
                        continue
                    dead.append(f"{module}.{node.name}.{name}")
    assert dead == []


def test_every_lru_cache_is_bounded():
    """Every functools cache of the package has a finite maxsize, so none
    grows for the life of the process; a bare @lru_cache holds 128.  The
    one exception is flags.subset_masks, whose key, a number of colors,
    is at most MAX_COLORS."""
    unbounded = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == "cache":  # functools.cache never evicts
                    maxsize = None
                elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "lru_cache":
                    sizes = [*sub.args[:1], *(k.value for k in sub.keywords if k.arg == "maxsize")]
                    maxsize = ast.literal_eval(sizes[0]) if sizes else 128
                else:
                    continue
                if maxsize is None:
                    unbounded.append(f"flagshift.{path.stem}.{_defined(node)[0]}")
    assert unbounded == ["flagshift.flags.subset_masks"]


def _sort_keys(tree):
    """(the call, the expressions its key= may be) for every sorted, min,
    max or .sort call with a key: the key itself, or, for a local name,
    every value assigned to it in the module, each branch of a
    conditional expression apart."""
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("sorted", "min", "max", "sort"):
            continue
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            todo, found = [keyword.value], []
            while todo:
                expr = todo.pop()
                if isinstance(expr, ast.IfExp):
                    todo += [expr.body, expr.orelse]
                elif isinstance(expr, ast.Name) and expr.id in assigned:
                    todo += assigned.pop(expr.id)
                else:
                    found.append(expr)
            yield node, found


def test_color_sets_sort_by_the_key_memo():
    """No package code orders color sets by a Python-level key function:
    no sort passes a module-level function of a mask (its first
    parameter named `mask`) as its key, directly or through a local
    name, and mask_sort_key is read only by the memo that computes each
    mask's key once (flags._CanonicalKey), whose bound __getitem__,
    canonical_key, is what color sets sort by.  A lambda stays allowed:
    the order of more than MAX_COLORS colors is one."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    functions = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and [a.arg for a in node.args.args[:1]] == ["mask"]
    }
    assert {"mask_sort_key", "colors_of_mask"} <= functions
    memo = next(
        node for node in trees["flags"].body
        if isinstance(node, ast.ClassDef) and node.name == "_CanonicalKey"
    )
    inside = {id(node) for node in ast.walk(memo)}
    bad = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "mask_sort_key" and id(node) not in inside:
                bad.append(f"flagshift.{stem}:{node.lineno} reads mask_sort_key")
        for call, keys in _sort_keys(tree):
            for key in keys:
                name = key.id if isinstance(key, ast.Name) else getattr(key, "attr", None)
                if name in functions:
                    bad.append(f"flagshift.{stem}:{call.lineno} sorts by {name}")
    assert bad == []


def test_traced_pass_reaches_every_kernel():
    """One traced pass through the search, the shifted enumeration and the
    diagram count reads the kernels' results; a kernel whose return
    shape the tracer no longer understands fails here.  The search
    target branches: 4 edges on a 3 x 3 grid fit 3 diagrams, which bound
    propagation cannot tell apart.

    The package's names are looked up once the tracer is in place: a
    benchmark set-up run earlier in the process may have imported the
    package again, and the tracer wraps the modules imported now."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        flags = importlib.import_module("flagshift.flags")
        oracle = importlib.import_module("flagshift.oracle")
        outcome = oracle.enumerate_color_shifted_with_flag(
            flags.FlagVector(2, (1, 3, 3, 4)), oracle.SearchBudget(max_witnesses=10)
        )
        assert outcome.exhausted and len(outcome.witnesses) == 3
        assert len(list(oracle.enumerate_color_shifted_complexes(2, [2, 2]))) > 0
        assert oracle.count_two_color_shifted_by_edges(8) == 22
    assert tracer.missing == []
    assert {"kernels.ideals", "kernels.all", "kernels.count"} <= set(tracer.layer_totals())
    metrics = tracer.metrics()
    assert metrics["kernels.nodes"] > 0
    assert metrics["kernels.count_nodes"] > 0


def test_capped_search_asks_the_kernel_for_the_cap(monkeypatch):
    """Traced, the census's searches, every two-color target (1, a, b, e)
    with a, b <= 4, capped at 2 witnesses, get at most 2 masks from each
    kernels.ideals call: a two-color target has one layer, the last, whose
    every candidate completes a witness.  Uncapped, some call gets more."""
    tracing = load_tracing()
    noted = tracing._NOTES["kernels.ideals"]
    for cap, most in [(2, 2), (10**6, 8)]:
        got = []

        def note(counts, args, result):
            got.append(len(result[0]))
            noted(counts, args, result)

        monkeypatch.setitem(tracing._NOTES, "kernels.ideals", note)
        with tracing.Tracer() as tracer:
            flags = importlib.import_module("flagshift.flags")
            oracle = importlib.import_module("flagshift.oracle")
            for a in range(5):
                for b in range(5):
                    for e in range(a * b + 1):
                        outcome = oracle.enumerate_color_shifted_with_flag(
                            flags.FlagVector(2, (1, a, b, e)), oracle.SearchBudget(max_witnesses=cap)
                        )
                        assert outcome.witnesses
        assert tracer.missing == [] and got and max(got) == most, cap
        assert tracer.metrics()["kernels.candidates"] == sum(got)


def test_every_workload_pass_answers_right():
    """One untraced pass of each benchmark workload judges every answer
    right, stops no search at the node budget, and spends the node count
    the benchmark reports; a wrong answer fails here, not only in a
    benchmark run."""
    workloads = _load("workloads")
    nodes = {}
    for name, workload in workloads.WORKLOADS.items():
        res = workloads.run_pass(workload, workload.setup(0))
        assert (res.errors, res.inconclusive) == (0, 0), name
        assert res.items > 0
        nodes[name] = res.search_nodes
    assert nodes == {"uniqueness-corpus": 31_654, "staircase": 280, "census": 699}
