"""Command-line interface.

Each subcommand is a thin adapter around one library operation plus the
canonical serialization; see the README for the exit-code contract:
0 success, 2 negative verdict (not shifted / not unique / not
realizable), 3 budget exhausted before a conclusive answer, 64 usage
errors, 66 unreadable or invalid input files, 73 an output file that
cannot be written, and 1 from count-shifted on a cross-check mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import InvalidComplexError
from .construction import cone_extension
from .flags import coarse_f, flag_f, h_from_f, two_color_realizable
from .formats import (
    DocumentError,
    emit_coarse,
    emit_complex,
    emit_flag_vector,
    emit_report,
    face_to_obj,
    parse_complex,
    parse_flag_vector,
    _dumps,
)
from .oracle import (
    BudgetExhausted,
    SearchBudget,
    count_two_color_shifted_by_edges,
    find_color_shifted_with_flag,
    partition_number,
    verify_uniqueness,
)
from .shifting import find_shift_violation, shift_maximal_faces

EX_USAGE = 64
EX_NOINPUT = 66
EX_CANTCREAT = 73
EX_NEGATIVE = 2
EX_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """The text of `path`, or of standard input for "-", as strict UTF-8.
    Standard input is read as bytes when it has a buffer, so the locale's
    decoding never stands in for UTF-8."""
    try:
        if path != "-":
            return Path(path).read_text(encoding="utf-8")
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
    except UnicodeDecodeError:
        raise _CliFailure(EX_NOINPUT, f"cannot read {path}: not UTF-8 text")
    except OSError as exc:
        raise _CliFailure(EX_NOINPUT, f"cannot read {path}: {exc.strerror or exc}")


def _load_complex(path: str):
    try:
        return parse_complex(_read_text(path))
    except (DocumentError, InvalidComplexError) as exc:
        raise _CliFailure(EX_NOINPUT, f"{path}: {exc}")


def _verdict(call, *args):
    """call(*args), a ValueError it raises being a negative verdict."""
    try:
        return call(*args)
    except ValueError as exc:
        raise _CliFailure(EX_NEGATIVE, str(exc))


def _load_flag(path: str):
    """Flag f-vector of the complex in `path`."""
    return _verdict(flag_f, _load_complex(path))


def _load_flag_vector(path: str):
    try:
        return parse_flag_vector(_read_text(path))
    except DocumentError as exc:
        raise _CliFailure(EX_NOINPUT, f"{path}: {exc}")


def _budget(args) -> SearchBudget:
    try:
        return SearchBudget(args.max_nodes, args.max_witnesses)
    except ValueError as exc:
        raise _CliFailure(EX_USAGE, str(exc))


# ===================================================================
# subcommands
# ===================================================================

def _cmd_flag(args) -> int:
    sys.stdout.write(emit_flag_vector(_load_flag(args.file)))
    return 0


def _cmd_hvec(args) -> int:
    sys.stdout.write(emit_flag_vector(h_from_f(_load_flag(args.file))))
    return 0


def _cmd_coarse(args) -> int:
    sys.stdout.write(emit_coarse(coarse_f(_load_flag(args.file))))
    return 0


def _cmd_check_shifted(args) -> int:
    violation = find_shift_violation(_load_complex(args.file))
    if violation is None:
        print("color-shifted")
        return 0
    missing, containing = violation
    print(f"missing {missing} <= {containing}", file=sys.stderr)
    return EX_NEGATIVE


def _cmd_shift_maximal(args) -> int:
    maximal = _verdict(shift_maximal_faces, _load_complex(args.file))
    sys.stdout.write(_dumps([face_to_obj(face) for face in maximal]))
    return 0


def _cmd_select(args) -> int:
    from .complexes import select_colors

    c = _load_complex(args.file)
    try:
        colors = [int(x) for x in args.colors.split(",") if x.strip() != ""]
    except ValueError:
        raise _CliFailure(EX_USAGE, f"--colors expects integers, got {args.colors!r}")
    try:
        sub = select_colors(c, colors)
    except ValueError as exc:
        raise _CliFailure(EX_USAGE, str(exc))
    sys.stdout.write(emit_complex(sub))
    return 0


def _cmd_construct(args) -> int:
    extended, report = _verdict(cone_extension, _load_complex(args.file))
    if args.out:
        try:
            Path(args.out).write_text(emit_complex(extended))
        except OSError as exc:
            raise _CliFailure(EX_CANTCREAT, f"cannot write {args.out}: {exc.strerror or exc}")
        if args.report:
            sys.stdout.write(emit_report(report))
    elif args.report:
        # nested as json.dumps(indent=2) nests: each later line two spaces deeper
        docs = (text[:-1].replace("\n", "\n  ") for text in (emit_complex(extended), emit_report(report)))
        sys.stdout.write('{\n  "complex": %s,\n  "report": %s\n}\n' % tuple(docs))
    else:
        sys.stdout.write(emit_complex(extended))
    return 0


def _cmd_verify_unique(args) -> int:
    result = _verdict(verify_uniqueness, _load_complex(args.file), _budget(args))
    nodes = result.outcome.nodes_visited
    if result.unique is True:
        print(f"unique: 1 witness, search exhausted, nodes={nodes}")
        return 0
    if result.unique is False:
        print(
            f"non-unique: {len(result.outcome.witnesses)} witnesses found, nodes={nodes}",
            file=sys.stderr,
        )
        return EX_NEGATIVE
    print(f"inconclusive: node budget exhausted after {nodes} nodes", file=sys.stderr)
    return EX_INCONCLUSIVE


def _cmd_find_shifted(args) -> int:
    outcome = _verdict(find_color_shifted_with_flag, _load_complex(args.file), _budget(args))
    if outcome.witnesses:
        sys.stdout.write(emit_complex(outcome.witnesses[0]))
        return 0
    if outcome.exhausted:
        print("no color-shifted complex has this flag vector", file=sys.stderr)
        return EX_NEGATIVE
    print(
        f"inconclusive: node budget exhausted after {outcome.nodes_visited} nodes",
        file=sys.stderr,
    )
    return EX_INCONCLUSIVE


def _cmd_count_shifted(args) -> int:
    if args.edges < 0:
        raise _CliFailure(EX_USAGE, "--edges must be >= 0")
    try:
        count = count_two_color_shifted_by_edges(args.edges)
    except BudgetExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    expected = partition_number(args.edges)
    verdict = "OK" if count == expected else "MISMATCH"
    print(f"{count} {expected} {verdict}")
    return 0 if verdict == "OK" else 1


def _cmd_realizable2(args) -> int:
    fv = _load_flag_vector(args.file)
    try:
        ok = two_color_realizable(fv)
    except ValueError as exc:
        raise _CliFailure(EX_NOINPUT, f"{args.file}: {exc}")
    if ok:
        print("realizable")
        return 0
    print("not realizable")
    return EX_NEGATIVE


# ===================================================================
# parser
# ===================================================================

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="flagshift",
        description="Flag vectors and color-shifted structure of colored complexes.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("flag", _cmd_flag, "flag f-vector of a complex")
    p.add_argument("file")
    p = add("hvec", _cmd_hvec, "flag h-vector of a complex")
    p.add_argument("file")
    p = add("coarse", _cmd_coarse, "coarse f-vector of a complex")
    p.add_argument("file")
    p = add("check-shifted", _cmd_check_shifted, "test the color-shifted property")
    p.add_argument("file")
    p = add("shift-maximal", _cmd_shift_maximal, "shift-maximal faces, canonical order")
    p.add_argument("file")
    p = add("select", _cmd_select, "color-selected subcomplex, renumbered")
    p.add_argument("file")
    p.add_argument("--colors", required=True, help="comma-separated colors, e.g. 1,3")
    p = add("construct", _cmd_construct, "cone extension pinned by its flag vector")
    p.add_argument("file")
    p.add_argument("--out", help="write the extended complex to this file")
    p.add_argument("--report", action="store_true", help="emit the construction report")
    p = add("verify-unique", _cmd_verify_unique, "exhaustively check the extension is unique")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    p.add_argument("--max-witnesses", type=int, default=SearchBudget.max_witnesses)
    p = add("find-shifted", _cmd_find_shifted, "find a color-shifted complex with the same flag vector")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    p.add_argument("--max-witnesses", type=int, default=SearchBudget.max_witnesses)
    p = add("count-shifted", _cmd_count_shifted, "count two-color shifted edge families; cross-check partitions")
    p.add_argument("--edges", type=int, required=True)
    p = add("realizable2", _cmd_realizable2, "two-color flag vector realizability")
    p.add_argument("file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.handler(args)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
