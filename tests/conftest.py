"""Shared fixtures: the worked examples, a mixed corpus of complexes and
the enumerated corpus of small color-shifted complexes."""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

import pytest

from flagshift import (
    ColoredComplex,
    cone,
    enumerate_color_shifted_complexes,
    from_generators,
    shift_closure,
    trivial_complex,
)

from helpers import edge2, face


SOURCE = Path(__file__).resolve().parents[1] / "src" / "flagshift"


def _code_lines(text: str) -> int:
    """Lines of a module that hold code: no blank line, no line of only
    comments, and no line of a module, class or function docstring."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance verdict lines collected during the run, and
    the line and code-line counts of the package source, which the
    roadmap tracks, beside each module's, so a move between modules reads
    differently from a deletion, and a deletion from a docstring edit,
    which moves no code line."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICTS", None) if module else None
    terminalreporter.section("acceptance criteria")
    for line in lines or ():
        terminalreporter.write_line(line)
    texts = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    counts = {name: (len(text.splitlines()), _code_lines(text)) for name, text in texts.items()}
    lines, code = map(sum, zip(*counts.values()))
    modules = ", ".join(f"{name} {total:,}/{coded:,}" for name, (total, coded) in counts.items())
    terminalreporter.write_line(
        f"src/flagshift: {lines:,} lines, {code:,} of code (lines/code by module: {modules})"
    )


@pytest.fixture(scope="session")
def sample_a() -> ColoredComplex:
    """Closure of edges (1,1),(2,1): one shift-maximal face."""
    return from_generators(2, [edge2(1, 1), edge2(2, 1)])


@pytest.fixture(scope="session")
def sample_b() -> ColoredComplex:
    """Closure of edges (1,1),(2,1),(1,2): two shift-maximal faces."""
    return from_generators(2, [edge2(1, 1), edge2(2, 1), edge2(1, 2)])


def _full_simplex3() -> ColoredComplex:
    return from_generators(3, [face((1, 1), (2, 1), (3, 1))])


def _three_color_shifted() -> ColoredComplex:
    return shift_closure(3, [face((1, 2), (2, 1), (3, 1)), face((2, 2))])


def _nonshifted_edge22() -> ColoredComplex:
    """Only the top edge (2,2) over a 2x2 vertex grid: valid, not shifted."""
    return ColoredComplex(
        2,
        [
            face(),
            face((1, 1)),
            face((1, 2)),
            face((2, 1)),
            face((2, 2)),
            face((1, 2), (2, 2)),
        ],
    )


def _nonshifted_gap() -> ColoredComplex:
    """Edge (2,1) present but edge (1,1) missing."""
    return ColoredComplex(
        2,
        [face(), face((1, 1)), face((1, 2)), face((2, 1)), face((1, 2), (2, 1))],
    )


@pytest.fixture(scope="session")
def shifted_corpus(sample_a, sample_b) -> list[ColoredComplex]:
    """Color-shifted complexes of assorted shapes and color counts."""
    return [
        trivial_complex(0),
        trivial_complex(1),
        trivial_complex(3),
        shift_closure(1, [face((1, 3))]),
        sample_a,
        sample_b,
        shift_closure(2, [edge2(2, 2)]),
        shift_closure(2, [edge2(3, 1), edge2(1, 3)]),
        _full_simplex3(),
        _three_color_shifted(),
        shift_closure(4, [face((1, 1), (2, 1), (3, 1), (4, 1)), face((1, 3))]),
    ]


@pytest.fixture(scope="session")
def corpus(shifted_corpus) -> list[ColoredComplex]:
    """Valid complexes, shifted or not; all non-empty."""
    return [
        *shifted_corpus,
        _nonshifted_edge22(),
        _nonshifted_gap(),
        cone(_nonshifted_gap(), (3, 1)),
        from_generators(2, [edge2(2, 1), edge2(1, 2)]),
        from_generators(
            3, [face((1, 1), (2, 2)), face((2, 1), (3, 2)), face((3, 1))]
        ),
    ]


@pytest.fixture(scope="session")
def enumerated_corpus() -> list[ColoredComplex]:
    """Every color-shifted complex within 4 x 4 vertices over 2 colors or
    2 x 2 x 2 over 3: the 1,230 small complexes the uniqueness claim is
    checked on."""
    complexes = [
        *enumerate_color_shifted_complexes(2, [4, 4]),
        *enumerate_color_shifted_complexes(3, [2, 2, 2]),
    ]
    assert len(complexes) == 1230
    return complexes
