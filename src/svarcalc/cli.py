"""Command-line surface.

Every checker command reads a JSON input document, runs the check, prints a
human summary (with wall-clock timing) and exits 0 on pass, 1 on fail, 2 on
error.  ``--report PATH`` additionally writes, before the console output, a
machine-readable report whose bytes depend only on the inputs; a stdout that
its reader has closed exits 2.  ``--witness-limit K`` caps how many
witnesses are collected.  The argument parser is built once per process and
shared by every ``main`` call.  Every check runs in this process; ``--jobs K`` is
accepted for compatibility and echoed in the ``check-hamiltonian`` and
``verify-paper-examples`` report configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from .documents import DocumentError, InputDocument, parse_document, render_document
from .modes import induce_bracket, render_table
from .operators import (
    MatrixDiffOperator,
    SkewSymmetryError,
    check_skew_symmetry,
    evolution_rhs,
    is_hamiltonian_pair,
    iter_closedness_failures,
    iter_schouten_failures,
    iter_skew_failures,
)
from .algebra import gen_name
from .reports import ERROR, FAIL, PASS, Report, input_echo, jsonify
from .structures import (
    ALGEBRA_CLASSES,
    build_type0_operator,
    build_type1_operator,
    iter_axiom_failures,
)
from .suite import verify_paper_examples


# ``induce --window W`` brackets every mode pair with |index| <= W, about
# 16 W^2 per family pair, each read off kernels of the same order; larger
# windows are refused before any work.
MAX_WINDOW = 32


def _load(kind: str, *paths: str) -> List[Tuple[object, dict]]:
    """The payload and the input echo of the document at each path.  Every
    path is parsed before any kind is checked, so an unreadable or malformed
    document is reported before a document of another kind."""
    docs = [parse_document(path) for path in paths]
    for path, doc in zip(paths, docs):
        if doc.kind != kind:
            article = "an" if kind[0] in "aeiou" else "a"
            raise DocumentError("kind", f"{path}: expected {article} {kind} document, got {doc.kind}")
    return [(doc.payload, input_echo(path, doc)) for path, doc in zip(paths, docs)]


def _verdict(check: str, witnesses: list, configuration: dict) -> Report:
    """The report of a check that fails exactly when it has witnesses."""
    return Report(check=check, verdict=FAIL if witnesses else PASS,
                  witnesses=witnesses, configuration=configuration)


def _cmd_check_algebra(args) -> Report:
    [(spec, echo)] = _load("algebra", args.file)
    witnesses = list(islice(iter_axiom_failures(spec, args.algebra_class), args.witness_limit))
    return _verdict("check-algebra", witnesses, {"class": args.algebra_class, "input": echo})


def _cmd_check_skew(args) -> Report:
    [(op, echo)] = _load("operator", args.file)
    witnesses = list(islice(iter_skew_failures(op), args.witness_limit))
    return _verdict("check-skew", witnesses, {"input": echo})


def _closedness(op: MatrixDiffOperator, limit: int) -> list:
    """The first ``limit`` closedness certificates of a skew operator, as witnesses."""
    return [("closedness", families, parities, gen_name(base), str(gradient))
            for families, parities, base, gradient in iter_closedness_failures(op, limit)]


def _cmd_check_hamiltonian(args) -> Report:
    [(op, echo)] = _load("operator", args.file)
    config = {"input": echo, "jobs": args.jobs}
    if not check_skew_symmetry(op)[0]:
        skew = islice(iter_skew_failures(op), args.witness_limit)
        return _verdict("check-hamiltonian", [("skew",) + w for w in skew], config)
    return _verdict("check-hamiltonian", _closedness(op, args.witness_limit), config)


def _load_operator_pair(args) -> Tuple[MatrixDiffOperator, MatrixDiffOperator, dict]:
    """The two operators and the report configuration that echoes them."""
    (op_a, first), (op_b, second) = _load("operator", args.first, args.second)
    return op_a, op_b, {"first": first, "second": second}


def _cmd_schouten(args) -> Report:
    op_a, op_b, echo = _load_operator_pair(args)
    witnesses = [failure[:2] for failure
                 in iter_schouten_failures(op_a, op_b, args.witness_limit)]
    return _verdict("schouten", witnesses, echo)


def _cmd_pair(args) -> Report:
    op_a, op_b, echo = _load_operator_pair(args)
    ok, witness = is_hamiltonian_pair(op_a, op_b)
    return _verdict("pair", [] if ok else [witness], echo)


_BUILDERS = {
    "nx_bialgebra": build_type1_operator,
    "fermionic_novikov": build_type0_operator,
}


def _cmd_build(args) -> Report:
    [(spec, echo)] = _load("algebra", args.file)
    operator = _BUILDERS[args.source_class](spec)
    rendered = render_document(InputDocument("operator", operator))
    if args.output:
        _write_in_place(args.output, rendered)
    return Report(
        check="build",
        verdict=PASS,
        configuration={"from": args.source_class, "input": echo, "output": args.output},
        detail={"operator_document": rendered},
    )


def _cmd_induce(args) -> Report:
    """The bracket table on the window, and the verdict on all modes: the
    operator induces a Lie superalgebra exactly when it is Hamiltonian, so a
    failure carries the scan's closedness certificates.  ``induce_bracket``
    refuses an operator that is not skew."""
    [(data, echo)] = _load("linear_operator", args.file)
    table = induce_bracket(data, args.window)
    report = _verdict("induce", _closedness(data.realize(), args.witness_limit),
                      {"window": args.window, "input": echo})
    report.detail = {"brackets": render_table(table)}
    return report


def _cmd_evolution(args) -> Report:
    [(op, op_echo)] = _load("operator", args.file)
    [((dim, density), density_echo)] = _load("density", args.density)
    if dim != op.dim:
        raise DocumentError("dimension",
                            "operator and density documents disagree on the family count")
    rhs = evolution_rhs(op, density)
    return Report(
        check="evolution",
        verdict=PASS,
        configuration={"operator": op_echo, "density": density_echo},
        detail={"components": {str(fam): str(poly) for fam, poly in sorted(rhs.items())}},
    )


def _cmd_verify_examples(args) -> Report:
    results = verify_paper_examples()
    failing = [(name, witness) for name, verdict, witness in results if verdict != PASS]
    return Report(
        check="verify-paper-examples",
        verdict=PASS if not failing else FAIL,
        witnesses=failing,
        configuration={"jobs": args.jobs},
        detail={"entries": [{"name": name, "verdict": verdict,
                             "witness": witness} for name, verdict, witness in results]},
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svarcalc",
        description="Exact checks for Hamiltonian superoperators, the algebra "
                    "classes attached to them, and their induced mode superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--report", metavar="PATH",
                       help="write a machine-readable JSON report here")
        p.add_argument("--jobs", type=_positive_int, default=1, metavar="K",
                       help="accepted for compatibility; every check runs in this process")
        p.add_argument("--witness-limit", dest="witness_limit", type=_positive_int, default=1,
                       metavar="K", help="collect at most K witnesses")

    p = sub.add_parser("check-algebra", help="check the axioms of an algebra class")
    p.add_argument("--class", dest="algebra_class", required=True, choices=ALGEBRA_CLASSES)
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_check_algebra)

    p = sub.add_parser("check-skew", help="check super skew-symmetry of an operator")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_check_skew)

    p = sub.add_parser("check-hamiltonian", help="full Hamiltonian superoperator test")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_check_hamiltonian)

    p = sub.add_parser("schouten", help="check the Schouten bracket of two operators "
                                        "vanishes modulo total derivatives")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(handler=_cmd_schouten)

    p = sub.add_parser("pair", help="check two operators form a Hamiltonian pair")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("build", help="build the operator attached to an algebra spec")
    p.add_argument("--from", dest="source_class", required=True, choices=sorted(_BUILDERS))
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the operator document here")
    common(p)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("induce", help="induce the mode bracket table of a linear operator")
    p.add_argument("--window", type=int, required=True, metavar="W",
                   help=f"bracket the modes of index |n| <= W; W is 1 to {MAX_WINDOW}")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("evolution", help="evolution right side for an operator and a density")
    p.add_argument("file", help="operator document")
    p.add_argument("--density", required=True, help="density document")
    common(p)
    p.set_defaults(handler=_cmd_evolution)

    p = sub.add_parser("verify-paper-examples",
                       help="run the bundled example suite end to end")
    common(p)
    p.set_defaults(handler=_cmd_verify_examples)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by later calls in
    the same process.  Parsing leaves it unchanged: every call gets a fresh
    namespace filled from the arguments and the defaults."""
    return build_parser()


def _print_human(report: Report, elapsed: float) -> None:
    print(f"[{report.check}] verdict: {report.verdict} ({elapsed:.2f}s)")
    for witness in report.witnesses:
        print(f"  witness: {json.dumps(jsonify(witness))}")
    if report.detail:
        if "brackets" in report.detail:
            for line in report.detail["brackets"]:
                print(f"  {line}")
        if "components" in report.detail:
            for fam, poly in report.detail["components"].items():
                print(f"  d/dt phi{fam} = {poly}")
        if "entries" in report.detail:
            for entry in report.detail["entries"]:
                mark = "ok" if entry["verdict"] == PASS else "FAILED"
                print(f"  {entry['name']}: {mark}")
        if "operator_document" in report.detail:
            sys.stdout.write(report.detail["operator_document"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "induce" and args.window > MAX_WINDOW:
        print(f"svarcalc: error: --window {args.window} exceeds the bound {MAX_WINDOW}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        report = args.handler(args)
    except DocumentError as exc:
        report = Report(check=args.command, verdict=ERROR,
                        witnesses=[{"location": exc.location, "message": exc.message}])
    except (SkewSymmetryError, ValueError) as exc:
        report = Report(check=args.command, verdict=ERROR, witnesses=[str(exc)])
    except OSError as exc:
        return _os_error(exc)
    elapsed = time.monotonic() - start
    try:
        rendered = report.to_json()
    except ValueError as exc:  # a value past the int digit limit has no decimal form
        report = Report(check=args.command, verdict=ERROR, witnesses=[str(exc)])
        rendered = report.to_json()
    if getattr(args, "report", None):
        try:
            _write_in_place(_report_path(args.report), rendered)
        except OSError as exc:
            return _os_error(exc)
    try:
        _print_human(report, elapsed)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader has gone.  Point stdout at the null device, so that the
        # flush at exit cannot raise again, and report an I/O error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _os_error(exc)
    return report.exit_code()


def _write_in_place(path: str, text: str) -> None:
    """Write ``text`` to ``path``, then cut a regular file to its length.

    The file is opened without truncation: on ext4 (``auto_da_alloc``)
    truncating a file to zero makes its close start a write-back, and the
    next truncation of that file waits for it.  An existing file keeps its
    inode, mode, owner and links, and a device or FIFO is written as it is.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(len(data))


def _os_error(exc: OSError) -> int:
    """An I/O failure, such as an unwritable ``--report`` or ``build -o`` path, exits 2."""
    print(f"svarcalc: error: {exc}", file=sys.stderr)
    return 2


def _report_path(path: str) -> str:
    """Resolve a report path against the optional directory override.

    A relative ``--report`` path is placed under $SVARCALC_REPORT_DIR when
    that variable is set; absolute paths are used as given.
    """
    directory = os.environ.get("SVARCALC_REPORT_DIR")
    if directory and not os.path.isabs(path):
        return os.path.join(directory, path)
    return path


if __name__ == "__main__":
    sys.exit(main())
