"""Command-line front end: gen, convert, solve, bounds, audit, hunt.

Exit codes: 0 success, 1 usage or input error, 2 a bound violation was found
by bounds, audit or hunt (the loud-failure path), 141 (128 + SIGPIPE) when
the reader closed standard output early. All randomness is controlled by
--seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .audit import CORPUS_KINDS, BoundViolation, CorpusSpec, audit_corpus, audit_graph, hunt
from .bounds import BOUND_ORDER
from .certify import ROLE_LIMITED_PACKING, ROLE_TUPLE_DOMINATING, check
from .codecs import FORMATS, detect_format, parse_graph, serialize_graph
from .generate import KINDS as GENERATOR_KINDS, generate
from .solvers import (
    domination_number,
    limited_packing_number,
    packing_number,
    signed_domination,
    tuple_domination_number,
)

_CORPUS_CHOICES = tuple(k.replace("_", "-") for k in CORPUS_KINDS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signeddom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a graph")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--legs", type=int)
    gen.add_argument("--leg-len", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=FORMATS, default="edgelist")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_gen)

    conv = sub.add_parser("convert", help="re-encode a graph (input format auto-detected)")
    conv.add_argument("--input", required=True)
    conv.add_argument("--format", choices=FORMATS, required=True)
    conv.add_argument("--out", default="-")
    conv.set_defaults(func=_cmd_convert)

    solve = sub.add_parser("solve", help="compute one exact parameter with certificate")
    solve.add_argument("--param", required=True,
                       choices=("gamma_s", "gamma", "tuple", "limited_packing", "rho"))
    solve.add_argument("--k", type=int, help="k for tuple/limited_packing (required there, refused elsewhere)")
    solve.add_argument("--input", required=True)
    solve.add_argument("--mode", choices=("oracle", "bnb"), default="bnb",
                       help="oracle enumerates all 2^n assignments (gamma_s only)")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    bnd = sub.add_parser("bounds", help="print every bound record for one graph")
    bnd.add_argument("--input", required=True)
    bnd.add_argument("--json", action="store_true")
    bnd.set_defaults(func=_cmd_bounds)

    audit_p = sub.add_parser("audit", help="audit a generated corpus")
    _corpus_flags(audit_p)
    audit_p.add_argument("--out", help="CSV report path")
    audit_p.add_argument("--json-out", help="JSON report path")
    audit_p.set_defaults(func=_cmd_audit)

    hunt_p = sub.add_parser("hunt", help="collect sharpness witnesses for one bound")
    _corpus_flags(hunt_p)
    hunt_p.add_argument("--target", required=True, choices=BOUND_ORDER)
    hunt_p.set_defaults(func=_cmd_hunt)

    return parser


def _corpus_flags(p):
    p.add_argument("--corpus", required=True, choices=_CORPUS_CHOICES)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--count", type=int, default=1, help="samples per size (random corpora)")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (output is the same)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # Flushed here, so a closed pipe surfaces below and not at exit.
        sys.stdout.flush()
        return code
    except BoundViolation as exc:
        print(exc.dump(), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone, as with `| head`: say nothing, point stdout at
        # devnull so the flush at exit cannot fail again, and exit as a shell
        # reports a writer killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _load_graph(path: str):
    text = _read_input(path)
    return parse_graph(text, detect_format(text))


def _cmd_gen(args) -> int:
    params = {}
    if args.kind == "spider":
        if args.legs is None or args.leg_len is None:
            raise ValueError("spider needs --legs and --leg-len")
        params = {"legs": args.legs, "leg_len": args.leg_len}
    else:
        if args.n is None:
            raise ValueError(f"{args.kind} needs --n")
        params = {"n": args.n, "p": args.p}
    g = generate(args.kind, params, args.seed)
    _write_output(args.out, serialize_graph(g, args.format))
    return 0


def _cmd_convert(args) -> int:
    g = _load_graph(args.input)
    _write_output(args.out, serialize_graph(g, args.format))
    return 0


def _cmd_solve(args) -> int:
    if args.mode == "oracle" and args.param != "gamma_s":
        raise ValueError(f"--mode oracle solves only gamma_s, not {args.param}")
    if args.param in ("tuple", "limited_packing"):
        if args.k is None:
            raise ValueError(f"--param {args.param} needs --k")
    elif args.k is not None:
        raise ValueError(f"--k applies only to tuple and limited_packing, not {args.param}")
    g = _load_graph(args.input)
    role, k = None, None
    if args.param == "gamma_s":
        value, cert = signed_domination(g, args.mode)
    elif args.param == "gamma":
        value, cert = domination_number(g)
        role, k = ROLE_TUPLE_DOMINATING, 1
    elif args.param == "tuple":
        value, cert = tuple_domination_number(g, args.k)
        role, k = ROLE_TUPLE_DOMINATING, args.k
    elif args.param == "limited_packing":
        value, cert = limited_packing_number(g, args.k)
        role, k = ROLE_LIMITED_PACKING, args.k
    else:
        value, cert = packing_number(g)
        role, k = ROLE_LIMITED_PACKING, 1
    problem = check(g, args.param, value, cert, role, k)
    if problem:
        raise ValueError(problem)
    witness = str(cert) if role is None else " ".join(str(v) for v in cert.sorted_members())
    if args.json:
        print(json.dumps({"param": args.param, "value": value, "witness": witness}))
    else:
        print(f"{args.param} {value}")
        print(f"witness {witness}")
    return 0


def _cmd_bounds(args) -> int:
    g = _load_graph(args.input)
    report = audit_graph(g)
    if args.json:
        print(report.to_json_text())
    else:
        print(f"graph {report.graph_id}: n={report.n} m={report.m} gamma_s={report.gamma_s}")
        for b, satisfied, gap in report.bounds:
            if not b.applicable:
                print(f"  {b.name:<12} {b.kind:<5} NA ({b.reason})")
                continue
            status = "ok" if satisfied else "VIOLATED"
            print(
                f"  {b.name:<12} {b.kind:<5} raw={b.raw} tightened={b.tightened} "
                f"gap={gap} {status}"
            )
    problems = report.violations()
    if problems:
        raise BoundViolation("; ".join(problems), report.graph6, report)
    return 0


def _corpus_spec(args) -> CorpusSpec:
    return CorpusSpec(
        kind=args.corpus.replace("-", "_"),
        n_min=args.n_min,
        n_max=args.n_max,
        count=args.count,
        p=args.p,
        seed=args.seed,
    )


def _cmd_audit(args) -> int:
    summary = audit_corpus(
        _corpus_spec(args), csv_path=args.out, json_path=args.json_out, jobs=args.jobs
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_hunt(args) -> int:
    for g6 in hunt(_corpus_spec(args), args.target, jobs=args.jobs):
        print(g6)
    return 0


if __name__ == "__main__":
    sys.exit(main())
