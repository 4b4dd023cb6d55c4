"""Command-line interface.

Exit codes: 0 success, 1 theorem violation (a mathematically guaranteed
check failed on concrete data, i.e. a bug), 2 usage or input error
(an input too large for the memory at hand among them), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import InputError, TheoremViolation, as_int, brief, from_text
from .graphs import (
    bipartite_complement,
    graph_to_text,
    line_graph,
    load_graph,
    numeric_spectrum,
    exact_spectrum,
)
from .horn import (
    DEFAULT_TOL,
    find_horn_violation,
    generate_t,
    generate_u,
    sample_necessity,
    weyl_bounds,
)
from .lr import lr_coefficient, lr_positive
from .partitions import Partition
from .spectra import analyze_line_graph, enumerate_p, ramanujan_verdict

JSON_KW = {"indent": 2, "sort_keys": False}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _argument(read):
    """An argparse type from a reader that raises InputError: argparse
    prints the message of an ArgumentTypeError as it is, which abbreviates
    the value, where for a ValueError it echoes the whole text."""

    def convert(text: str):
        try:
            return read(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _spectrum(text: str) -> tuple:
    """Comma-separated entries, `-` for the empty spectrum."""
    return () if text.strip() == "-" else tuple(from_text(tok, "a spectrum entry") for tok in text.split(","))


# every value of a numeric option is read by errors.from_text, and the
# library's rule for its argument decides whether the number will do
number = _argument(lambda text: from_text(text, "the value"))
partition = _argument(Partition.from_text)
spectrum = _argument(_spectrum)


def _pad(vec: tuple, n: int) -> tuple:
    if len(vec) > n:
        raise InputError(f"vector {brief(vec)} longer than n={n}")
    return vec + (0,) * (n - len(vec))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_lr(args) -> int:
    alpha, beta, gamma = args.alpha, args.beta, args.gamma
    if args.positive:
        print("true" if lr_positive(alpha, beta, gamma) else "false")
    else:
        print(lr_coefficient(alpha, beta, gamma))
    return 0


def _cmd_horn_triples(args) -> int:
    family = generate_u(args.n, args.r) if args.u_only else generate_t(args.n, args.r)
    for triple in family:
        print(triple)
    return 0


def _cmd_horn_check(args) -> int:
    vectors = [args.alpha, args.beta, args.gamma]
    n = max(len(v) for v in vectors) if args.n is None else as_int(args.n, "--n", 1)
    if n < 1:
        raise InputError("spectra must not all be empty")
    witness = find_horn_violation(*(_pad(v, n) for v in vectors), args.tol)
    if witness is None:
        print("compatible")
    else:
        print("incompatible")
        print(f"violated: {witness}")
    return 0


def _cmd_horn_weyl(args) -> int:
    lower, upper = weyl_bounds(args.alpha, args.beta, args.k)
    print(f"{_fmt(lower)} <= gamma_{args.k} <= {_fmt(upper)}")
    return 0


def _cmd_horn_sample(args) -> int:
    # under a negative tolerance a count is not a theorem violation
    if args.tol < 0:
        raise InputError(f"--tol must be >= 0, got {brief(args.tol)}")
    report = sample_necessity(args.n, args.trials, args.tol, args.seed)
    print(
        f"n={report.n} trials={report.trials} tol={_fmt(report.tol)} "
        f"trace_violations={report.trace_violations} "
        f"inequality_violations={report.inequality_violations} "
        f"weyl_violations={report.weyl_violations}"
    )
    if report.total_violations:
        raise TheoremViolation(
            f"{report.total_violations} sampled spectra violated a necessary condition"
        )
    return 0


def _cmd_graph_spectrum(args) -> int:
    bg = load_graph(args.file)
    lg = bg.as_graph()
    if args.numeric:
        for value in numeric_spectrum(lg):
            print(_fmt(value))
        return 0
    spec = exact_spectrum(lg)
    if spec.integer_roots is None:
        print("not integral")
        print("char-poly " + " ".join(str(c) for c in spec.char_poly))
    else:
        print("integral")
        for value, mult in spec.integer_roots:
            print(f"{value} {mult}")
    return 0


def _cmd_graph_linegraph(args) -> int:
    bg = load_graph(args.file)
    lg, edge_order = line_graph(bg)
    payload = {
        "order": lg.order,
        "vertices": [[x, y] for x, y in edge_order],
        "edges": [[a, b] for a, b in lg.edges()],
    }
    text = json.dumps(payload, **JSON_KW) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_graph_complement(args) -> int:
    bg = load_graph(args.file)
    text = graph_to_text(bipartite_complement(bg))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_spectra_enum_p(args) -> int:
    candidates = enumerate_p(args.alpha, args.beta)
    for gamma in candidates:
        print(gamma.to_text())
    return 0


def _cmd_spectra_analyze(args) -> int:
    bg = load_graph(args.file)
    report = analyze_line_graph(bg, include_p_set=args.p_set)
    _print_report_summary(str(args.file), report)
    if args.json:
        payload = json.dumps(report.to_json_dict(), **JSON_KW) + "\n"
        Path(args.json).write_text(payload, encoding="utf-8")
    if report.violations:
        raise TheoremViolation("; ".join(report.violations))
    return 0


def _print_report_summary(name: str, report) -> None:
    if report.is_integral:
        gamma = report.gamma_matched.to_text() if report.gamma_matched else "-"
        print(
            f"{name}: integral gamma={gamma} "
            f"minus_two_multiplicity={report.minus_two_multiplicity} "
            f"diameter={report.diameter} max_k_gamma={report.max_k_gamma} "
            f"two_omega={report.two_omega}"
        )
    else:
        print(
            f"{name}: not integral "
            f"minus_two_multiplicity={report.minus_two_multiplicity} "
            f"diameter={report.diameter} two_omega={report.two_omega}"
        )
    for violation in report.violations:
        print(f"{name}: VIOLATION {violation}")


def _cmd_spectra_ramanujan(args) -> int:
    bg = load_graph(args.file)
    lg, _ = line_graph(bg)
    verdict = ramanujan_verdict(lg, tol=args.tol)
    print(f"degree {verdict.degree}")
    print(f"second-largest {_fmt(verdict.second_largest)}")
    print(f"least {_fmt(verdict.least)}")
    print(f"bound {_fmt(verdict.bound)}")
    print(f"exact {_fmt(verdict.exact)}")
    print(f"ramanujan-second-largest {_fmt(verdict.second_largest_ok)}")
    print(f"ramanujan-all-nontrivial {_fmt(verdict.all_nontrivial_ok)}")
    return 0


def _cmd_corpus_verify(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    files = sorted(
        p for p in directory.iterdir() if p.suffix in (".txt", ".json") and p.is_file()
    )
    integral = non_integral = violations = failed = 0
    for path in files:
        try:
            report = analyze_line_graph(load_graph(path))
        except (InputError, MemoryError) as exc:
            print(f"{path.name}: error: {_message(exc)}", file=sys.stderr)
            failed += 1
            continue
        _print_report_summary(path.name, report)
        if report.is_integral:
            integral += 1
        else:
            non_integral += 1
        violations += len(report.violations)
    print(
        f"{len(files)} graphs: {integral} integral, {non_integral} non-integral, "
        f"{violations} violations, {failed} failed"
    )
    if failed:
        return 2
    if violations:
        raise TheoremViolation(f"{violations} corpus violations")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornlr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficient of a triple")
    p_lr.add_argument("--alpha", type=partition, required=True)
    p_lr.add_argument("--beta", type=partition, required=True)
    p_lr.add_argument("--gamma", type=partition, required=True)
    mode = p_lr.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the coefficient (default)")
    mode.add_argument("--positive", action="store_true", help="print true/false only")
    p_lr.set_defaults(func=_cmd_lr)

    p_horn = sub.add_parser("horn", help="Horn inequality system")
    horn_sub = p_horn.add_subparsers(dest="horn_command", required=True)

    p_triples = horn_sub.add_parser("triples", help="list U(n,r) or T(n,r)")
    p_triples.add_argument("--n", type=number, required=True)
    p_triples.add_argument("--r", type=number, required=True)
    p_triples.add_argument("--u-only", action="store_true", help="skip the T filter")
    p_triples.set_defaults(func=_cmd_horn_triples)

    p_check = horn_sub.add_parser("check", help="test a spectrum triple")
    p_check.add_argument("--alpha", type=spectrum, required=True)
    p_check.add_argument("--beta", type=spectrum, required=True)
    p_check.add_argument("--gamma", type=spectrum, required=True)
    p_check.add_argument("--tol", type=number, default=None)
    p_check.add_argument(
        "--n", type=number, default=None,
        help="pad all three vectors with zeros to this length (default: longest)",
    )
    p_check.set_defaults(func=_cmd_horn_check)

    p_weyl = horn_sub.add_parser("weyl", help="per-eigenvalue sandwich bounds")
    p_weyl.add_argument("--alpha", type=spectrum, required=True)
    p_weyl.add_argument("--beta", type=spectrum, required=True)
    p_weyl.add_argument("--k", type=number, required=True)
    p_weyl.set_defaults(func=_cmd_horn_weyl)

    p_sample = horn_sub.add_parser(
        "sample", help="random symmetric pairs vs. the necessary conditions"
    )
    p_sample.add_argument("--n", type=number, required=True)
    p_sample.add_argument("--trials", type=number, default=1000)
    p_sample.add_argument("--tol", type=number, default=DEFAULT_TOL)
    p_sample.add_argument("--seed", type=number, default=0)
    p_sample.set_defaults(func=_cmd_horn_sample)

    p_graph = sub.add_parser("graph", help="bipartite graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)

    p_spec = graph_sub.add_parser("spectrum", help="spectrum of the graph itself")
    p_spec.add_argument("--file", required=True)
    spec_mode = p_spec.add_mutually_exclusive_group()
    spec_mode.add_argument("--exact", action="store_true", help="exact (default)")
    spec_mode.add_argument("--numeric", action="store_true")
    p_spec.set_defaults(func=_cmd_graph_spectrum)

    p_lg = graph_sub.add_parser("linegraph", help="emit the line graph as JSON")
    p_lg.add_argument("--file", required=True)
    p_lg.add_argument("--out", default=None)
    p_lg.set_defaults(func=_cmd_graph_linegraph)

    p_comp = graph_sub.add_parser("complement", help="bipartite complement")
    p_comp.add_argument("--file", required=True)
    p_comp.add_argument("--out", default=None)
    p_comp.set_defaults(func=_cmd_graph_complement)

    p_spectra = sub.add_parser("spectra", help="candidate-set analysis")
    spectra_sub = p_spectra.add_subparsers(dest="spectra_command", required=True)

    p_enum = spectra_sub.add_parser("enum-p", help="members of P(alpha, beta)")
    p_enum.add_argument("--alpha", type=partition, required=True)
    p_enum.add_argument("--beta", type=partition, required=True)
    p_enum.set_defaults(func=_cmd_spectra_enum_p)

    p_analyze = spectra_sub.add_parser("analyze", help="full line-graph report")
    p_analyze.add_argument("--file", required=True)
    p_analyze.add_argument("--json", default=None, help="also write a JSON report here")
    p_analyze.add_argument(
        "--p-set", action="store_true",
        help="compute P(alpha, beta) even when the line graph is not integral",
    )
    p_analyze.set_defaults(func=_cmd_spectra_analyze)

    p_ram = spectra_sub.add_parser(
        "ramanujan", help="spectral-gap verdict for the line graph of the input"
    )
    p_ram.add_argument("--file", required=True)
    p_ram.add_argument("--tol", type=number, default=DEFAULT_TOL)
    p_ram.set_defaults(func=_cmd_spectra_ramanujan)

    p_corpus = sub.add_parser("corpus", help="batch verification")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_verify = corpus_sub.add_parser("verify", help="analyze every graph file in a directory")
    p_verify.add_argument("--dir", required=True)
    p_verify.set_defaults(func=_cmd_corpus_verify)

    return parser


def _message(exc: Exception) -> str:
    """One line for an input error. The library tries an allocation that
    its input asks for before it fails, so a size past the machine's
    memory arrives as a MemoryError, often with an empty message."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InputError, MemoryError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
