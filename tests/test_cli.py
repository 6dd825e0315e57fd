"""CLI subcommands: outputs, exit codes, golden bytes."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from flagshift import cone_extension, emit_complex, shift_closure
from flagshift.cli import main
from flagshift.formats import report_to_obj

from helpers import complex_to_obj, edge2, face, staircase

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name: str) -> str:
    return str(DATA / name)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


# ===================================================================
# vector subcommands
# ===================================================================

def test_flag_golden(capsys):
    code, out, err = run(capsys, "flag", data("sample_a.json"))
    assert code == 0 and err == ""
    assert out == golden("sample_a_flag.json")


def test_flag_accepts_generators_form(capsys):
    code, out, _ = run(capsys, "flag", data("sample_a_gens.json"))
    assert code == 0
    assert out == golden("sample_a_flag.json")


def test_hvec_golden(capsys):
    code, out, _ = run(capsys, "hvec", data("sample_a.json"))
    assert code == 0
    assert out == golden("sample_a_hvec.json")


def test_coarse_golden(capsys):
    code, out, _ = run(capsys, "coarse", data("sample_a.json"))
    assert code == 0
    assert out == golden("sample_a_coarse.json")


def test_flag_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        sys, "stdin", io.StringIO(Path(data("sample_a.json")).read_text())
    )
    code, out, _ = run(capsys, "flag", "-")
    assert code == 0
    assert out == golden("sample_a_flag.json")


@pytest.mark.parametrize("command", ["flag", "hvec", "coarse", "find-shifted"])
def test_vector_commands_reject_too_many_colors(capsys, tmp_path, command):
    """A valid complex with 17 colors has no flag vector: a negative
    verdict with the library's message, not a traceback."""
    path = tmp_path / "wide.json"
    path.write_text('{"num_colors": 17, "faces": [[]]}\n')
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == "flag vectors support at most 16 colors\n"


# ===================================================================
# shiftedness subcommands
# ===================================================================

def test_check_shifted_positive(capsys):
    code, out, err = run(capsys, "check-shifted", data("sample_a.json"))
    assert code == 0
    assert out == "color-shifted\n"


def test_check_shifted_negative(capsys):
    code, out, err = run(capsys, "check-shifted", data("nonshifted.json"))
    assert code == 2 and out == ""
    assert "missing {v_1^1,v_1^2} <= {v_2^1,v_1^2}" in err


def test_shift_maximal(capsys):
    code, out, _ = run(capsys, "shift-maximal", data("sample_b.json"))
    assert code == 0
    assert json.loads(out) == [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]


def test_shift_maximal_rejects_unshifted(capsys):
    code, out, err = run(capsys, "shift-maximal", data("nonshifted.json"))
    assert code == 2 and "color-shifted" in err


def test_select(capsys):
    code, out, _ = run(capsys, "select", data("sample_b.json"), "--colors", "1")
    assert code == 0
    assert out == golden("sample_b_select_1.json")


def test_select_bad_colors(capsys):
    code, _, err = run(capsys, "select", data("sample_b.json"), "--colors", "x")
    assert code == 64 and "integers" in err
    code, _, err = run(capsys, "select", data("sample_b.json"), "--colors", "7")
    assert code == 64


# ===================================================================
# construction subcommands
# ===================================================================

def test_construct_golden(capsys):
    code, out, _ = run(capsys, "construct", data("sample_a.json"))
    assert code == 0
    assert out == golden("sample_a_extended.json")


def test_construct_report_golden(capsys):
    code, out, _ = run(capsys, "construct", data("sample_a.json"), "--report")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == json.loads(golden("sample_a_report.json"))
    assert json.dumps(doc["complex"], indent=2, sort_keys=True) + "\n" == golden(
        "sample_a_extended.json"
    )


def test_construct_report_bytes(capsys, monkeypatch, shifted_corpus, enumerated_corpus):
    """The combined document is byte for byte json's indented, key-sorted
    encoding of both parts, for every corpus complex, the staircases
    k = 2..14 and the complex with 600 vertices of each of two colors.
    The subcommand is called directly: parsing its arguments per complex
    would cost more than the check."""
    import io
    from argparse import Namespace

    from flagshift.cli import _cmd_construct

    args = Namespace(file="-", out=None, report=True)
    wide = shift_closure(2, [face((1, 600)), face((2, 600)), edge2(1, 1)])
    staircases = [staircase(k) for k in range(2, 15)]
    for delta in [*shifted_corpus, *enumerated_corpus, *staircases, wide]:
        extended, report = cone_extension(delta)
        want = {"complex": complex_to_obj(extended), "report": report_to_obj(report)}
        monkeypatch.setattr(sys, "stdin", io.StringIO(emit_complex(delta)))
        assert _cmd_construct(args) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n", delta


def test_construct_out_file(capsys, tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        capsys, "construct", data("sample_b.json"), "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text() == golden("sample_b_extended.json")


def test_construct_out_file_with_report(capsys, tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        capsys,
        "construct",
        data("sample_a.json"),
        "--out",
        str(out_path),
        "--report",
    )
    assert code == 0
    assert out == golden("sample_a_report.json")
    assert out_path.read_text() == golden("sample_a_extended.json")


def test_construct_out_file_not_writable(capsys, tmp_path):
    out_path = tmp_path / "missing" / "ext.json"
    code, out, err = run(capsys, "construct", data("sample_a.json"), "--out", str(out_path))
    assert code == 73 and out == ""
    assert err == f"cannot write {out_path}: No such file or directory\n"


def test_construct_rejects_unshifted(capsys):
    code, _, err = run(capsys, "construct", data("nonshifted.json"))
    assert code == 2 and "color-shifted" in err
    line = "complex is not color-shifted: {v_2^1,v_1^2} present but {v_1^1,v_1^2} missing\n"
    assert err == line
    code, _, err = run(capsys, "verify-unique", data("nonshifted.json"))
    assert code == 2 and err == line


def test_color_limit_exits_negative(capsys, tmp_path):
    # 15 shift-maximal edges over 2 colors: the extension needs 17 colors
    path = tmp_path / "wide.json"
    path.write_text(emit_complex(staircase(15)))
    for command in ("construct", "verify-unique"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert "n=2" in err and "k=15" in err and "at most 16" in err


def test_verify_unique_positive(capsys):
    code, out, _ = run(capsys, "verify-unique", data("sample_a.json"))
    assert code == 0
    assert out.startswith("unique: 1 witness, search exhausted, nodes=")


def test_verify_unique_budget(capsys):
    code, _, err = run(
        capsys, "verify-unique", data("sample_b.json"), "--max-nodes", "2"
    )
    assert code == 3 and "inconclusive" in err


def test_verify_unique_bad_budget(capsys):
    code, _, err = run(
        capsys, "verify-unique", data("sample_a.json"), "--max-nodes", "0"
    )
    assert code == 64


def test_find_shifted_identity_on_shifted_input(capsys):
    code, out, _ = run(capsys, "find-shifted", data("sample_a.json"))
    assert code == 0
    assert out == Path(data("sample_a.json")).read_text()


def test_find_shifted_on_unshifted_input(capsys):
    code, out, _ = run(capsys, "find-shifted", data("nonshifted.json"))
    assert code == 0
    from flagshift import flag_f, is_color_shifted, parse_complex

    witness = parse_complex(out)
    source = parse_complex(Path(data("nonshifted.json")).read_text())
    assert is_color_shifted(witness)
    assert flag_f(witness) == flag_f(source)


def test_verify_unique_non_unique_verdict(capsys, monkeypatch, sample_a):
    """The theorem leaves no real input this verdict, so the library call
    is stood in for by one that found a second witness."""
    from flagshift import cli
    from flagshift.oracle import SearchOutcome, UniquenessResult

    extended, _ = cone_extension(sample_a)
    found = UniquenessResult(False, extended, SearchOutcome([extended, sample_a], True, 17))
    monkeypatch.setattr(cli, "verify_uniqueness", lambda delta, budget: found)
    code, out, err = run(capsys, "verify-unique", data("sample_a.json"))
    assert (code, out, err) == (2, "", "non-unique: 2 witnesses found, nodes=17\n")


def test_find_shifted_no_witness_verdict(capsys, monkeypatch):
    """Every flag f-vector has a color-shifted witness, so the library call
    is stood in for by one that exhausted the search empty-handed."""
    from flagshift import cli
    from flagshift.oracle import SearchOutcome

    monkeypatch.setattr(
        cli, "find_color_shifted_with_flag", lambda source, budget: SearchOutcome([], True, 5)
    )
    code, out, err = run(capsys, "find-shifted", data("sample_a.json"))
    assert (code, out, err) == (2, "", "no color-shifted complex has this flag vector\n")


def test_find_shifted_on_the_matching(capsys, tmp_path):
    """The 100-vertex matching, flag vector (1, 100, 100, 100), gets a
    witness within the default node budget."""
    from flagshift import ColoredComplex, flag_f, is_color_shifted, parse_complex

    vertices = shift_closure(2, [face((1, 100)), face((2, 100))])
    source = ColoredComplex(2, [*vertices.faces, *(edge2(i, i) for i in range(1, 101))])
    path = tmp_path / "matching.json"
    path.write_text(emit_complex(source))
    code, out, err = run(capsys, "find-shifted", str(path))
    assert (code, err) == (0, "")
    witness = parse_complex(out)
    assert is_color_shifted(witness) and flag_f(witness) == flag_f(source)
    assert flag_f(source).dense() == (1, 100, 100, 100)


def test_l_shaped_documents_answer_fast(capsys, tmp_path):
    """On the L-shaped complex of tests/test_oracle.py at t = 600,
    `verify-unique` on its document and `find-shifted` on its
    extension's, which searches the same flag vector, each exit 0 in
    process within a second; spreading its t * t one-point blocks one at
    a time took seconds."""
    t = 600
    delta = shift_closure(3, [face((1, t), (2, 1), (3, 2)), face((1, 1), (2, t), (3, 2))])
    extended, _ = cone_extension(delta)
    (tmp_path / "delta.json").write_text(emit_complex(delta))
    (tmp_path / "extended.json").write_text(emit_complex(extended))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-unique", str(tmp_path / "delta.json"))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "unique: 1 witness, search exhausted, nodes=36\n", "")
    start = time.perf_counter()
    code, out, err = run(capsys, "find-shifted", str(tmp_path / "extended.json"))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, emit_complex(extended), "")


def test_find_shifted_budget(capsys):
    code, _, err = run(
        capsys, "find-shifted", data("sample_b.json"), "--max-nodes", "1"
    )
    assert code == 3 and "inconclusive" in err


# ===================================================================
# counting and realizability
# ===================================================================

def test_count_shifted(capsys):
    code, out, _ = run(capsys, "count-shifted", "--edges", "6")
    assert code == 0
    assert out == "11 11 OK\n"


def test_count_shifted_zero(capsys):
    code, out, _ = run(capsys, "count-shifted", "--edges", "0")
    assert code == 0 and out == "1 1 OK\n"


def test_count_shifted_budget(capsys, monkeypatch):
    from flagshift import cli, oracle

    def small_budget(e):
        return oracle.count_two_color_shifted_by_edges(e, oracle.SearchBudget(max_nodes=5))

    monkeypatch.setattr(cli, "count_two_color_shifted_by_edges", small_budget)
    code, out, err = run(capsys, "count-shifted", "--edges", "6")
    assert code == 3 and out == ""
    assert "exceeded 5 nodes" in err


def test_count_shifted_negative_edges(capsys):
    code, _, err = run(capsys, "count-shifted", "--edges", "-1")
    assert code == 64


def test_realizable2_yes(capsys):
    code, out, _ = run(capsys, "realizable2", data("flag_realizable.json"))
    assert code == 0 and out == "realizable\n"


def test_realizable2_no(capsys):
    code, out, _ = run(capsys, "realizable2", data("flag_unrealizable.json"))
    assert code == 2 and out == "not realizable\n"


def test_realizable2_wrong_document_kind(capsys):
    code, _, err = run(capsys, "realizable2", data("sample_a.json"))
    assert code == 66  # complex document, not a flag vector document
    assert "entries" in err


def test_realizable2_wrong_color_count(capsys, tmp_path):
    one_color = tmp_path / "one.json"
    one_color.write_text(
        '{"num_colors": 1, "entries": [{"colors": [], "count": 1}]}\n'
    )
    code, _, err = run(capsys, "realizable2", str(one_color))
    assert code == 66 and "exactly 2 colors" in err


# ===================================================================
# error handling
# ===================================================================

def test_missing_file(capsys):
    code, _, err = run(capsys, "flag", "no-such-file.json")
    assert code == 66 and "cannot read" in err


def test_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "flag", str(path))
    assert code == 66 and out == ""
    assert err == f"cannot read {path}: not UTF-8 text\n"


def test_stdin_not_utf8(capsys, monkeypatch):
    class Utf16Stdin:
        def read(self):
            raise UnicodeDecodeError("utf-8", b"\xff\xfe", 0, 1, "invalid start byte")

    monkeypatch.setattr(sys, "stdin", Utf16Stdin())
    code, out, err = run(capsys, "flag", "-")
    assert code == 66 and out == ""
    assert err == "cannot read -: not UTF-8 text\n"


@pytest.mark.parametrize("locale", [None, "C"])
def test_stdin_not_utf8_in_a_process(locale):
    """Bytes that are not UTF-8 on the real standard input fail as a file
    path does, also under the C locale, where Python's own decoding of
    standard input would pass them on as text."""
    env = dict(os.environ)
    if locale:
        env["LC_ALL"] = locale
    proc = subprocess.run(
        [sys.executable, "-m", "flagshift", "flag", "-"],
        input=b"\xff\xfe{\x00}\x00",
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 66 and proc.stdout == b""
    assert proc.stderr == b"cannot read -: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["flag", "realizable2"])
def test_deep_nesting_in_a_process(command):
    """100,000 nested lists exceed the JSON reader's recursion limit: an
    invalid document, one line on stderr and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "flagshift", command, "-"],
        input=b"[" * 100_000,
        capture_output=True,
    )
    assert proc.returncode == 66 and proc.stdout == b""
    assert proc.stderr == b"-: document is nested too deeply\n"


def test_bad_syntax(capsys):
    code, _, err = run(capsys, "flag", data("bad_syntax.json"))
    assert code == 66 and "syntax error" in err


def test_bad_complex(capsys):
    code, _, err = run(capsys, "flag", data("bad_complex.json"))
    assert code == 66 and "empty face" in err


def test_no_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 64 and "usage" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_missing_required_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", data("sample_a.json")])
    assert exc.value.code == 64


# ===================================================================
# adversarial documents
# ===================================================================

# every subcommand that reads a document, with its options
DOCUMENT_COMMANDS = (
    ("flag",), ("hvec",), ("coarse",), ("check-shifted",), ("shift-maximal",),
    ("select", "--colors", "1"), ("construct",), ("construct", "--report"),
    ("verify-unique",), ("find-shifted",), ("realizable2",),
)
# a valid complex on more colors than flag vectors support has no flag
# vector and no extension, but it has shiftedness, shift-maximal faces and
# selections; every other verdict is 66
WIDE_VERDICTS = {
    "flag": 2, "hvec": 2, "coarse": 2, "find-shifted": 2, "construct": 2,
    "verify-unique": 2, "check-shifted": 0, "shift-maximal": 0, "select": 0,
}


def _nested(rng):
    opener = rng.choice(["[", '{"faces": ', '{"num_colors": 2, "entries": ['])
    return opener * rng.randint(10_000, 100_000), {}


def _huge_index(rng):
    """Colors with contiguous vertices, and one color with one more
    vertex at an index near 10^23: a gap, named at once."""
    counts = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    color = rng.randint(1, len(counts))
    faces = [[]] + [[[c, i]] for c, t in enumerate(counts, 1) for i in range(1, t + 1)]
    faces.insert(rng.randint(1, len(faces)), [[color, 10**23 * rng.randint(1, 9)]])
    return json.dumps({"num_colors": len(counts), "faces": faces}), {}


def _huge_num_colors(rng):
    """A valid complex on about 10^23 colors: one face of at most 12
    vertices (its closure has at most 2^12 faces), given as its
    generator or as its vertices."""
    n = 10**23 * rng.randint(1, 9)
    colors = sorted({rng.randrange(1, n + 1) for _ in range(rng.randint(1, 12))})
    top = [[c, 1] for c in colors]
    if rng.random() < 0.5:
        return json.dumps({"num_colors": n, "generators": [top]}), WIDE_VERDICTS
    return json.dumps({"num_colors": n, "faces": [[]] + [[v] for v in top]}), WIDE_VERDICTS


def _boolean(rng):
    doc = rng.choice([
        {"num_colors": True, "faces": [[]]},
        {"num_colors": 2, "faces": [[], [[1, True]]]},
        {"num_colors": 2, "faces": [[], [[False, 1]]]},
        {"num_colors": True, "entries": []},
        {"num_colors": 2, "entries": [{"colors": [], "count": True}]},
        {"num_colors": 2, "entries": [{"colors": [True], "count": 1}]},
    ])
    return json.dumps(doc), {}


def _missing_key(rng):
    doc = rng.choice([
        {"num_colors": 2, "faces": [[], [[1, 1]]]},
        {"num_colors": 2, "entries": [{"colors": [], "count": 1}]},
    ])
    holder = rng.choice([doc, *doc.get("entries", ())])
    del holder[rng.choice(sorted(holder))]
    return json.dumps(doc), {}


def _main_bounded(capsys, argv):
    """main(argv)'s exit code, stdout, stderr and traced peak memory."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, peak


def _one_line(err: str) -> bool:
    return err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "case", [_nested, _huge_index, _huge_num_colors, _boolean, _missing_key]
)
def test_adversarial_documents(capsys, tmp_path, case, seed):
    """Every subcommand that reads a document answers a hostile one with
    its documented exit code and one line on stderr (output and no line
    on success), within 8 MiB traced."""
    text, verdicts = case(random.Random(seed))
    path = tmp_path / "doc.json"
    path.write_text(text)
    for command in DOCUMENT_COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        code, out, err, peak = _main_bounded(capsys, argv)
        assert code == verdicts.get(command[0], 66), argv
        assert (out != "" and err == "") if code == 0 else (out == "" and _one_line(err)), argv
        assert peak < 8 << 20, argv


@pytest.mark.parametrize("edges", ["-1", str(10**23)])
def test_adversarial_edge_counts(capsys, edges):
    """count-shifted reads no document; a negative count is a usage error
    and a huge one is certain to pass the node budget."""
    code, out, err, peak = _main_bounded(capsys, ["count-shifted", "--edges", edges])
    assert (code, out) == ((64, "") if edges == "-1" else (3, ""))
    assert _one_line(err) and peak < 8 << 20


# ===================================================================
# installed entry point
# ===================================================================

def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flagshift", "flag", data("sample_a.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("sample_a_flag.json")


def declared_console_script() -> str:
    """The ``flagshift`` target declared under ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["flagshift"]


def test_console_script_entry_point():
    # Load the declared target the way pip's generated wrapper does, so the
    # declaration in pyproject.toml is checked without an install.  Installed
    # metadata is not consulted: it may be stale or absent.
    loader = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name='flagshift', value={declared_console_script()!r},"
        " group='console_scripts')\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", loader, "count-shifted", "--edges", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "22 22 OK\n"


@pytest.mark.skipif(
    shutil.which("flagshift") is None,
    reason="flagshift console script not installed",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["flagshift", "count-shifted", "--edges", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "22 22 OK\n"
