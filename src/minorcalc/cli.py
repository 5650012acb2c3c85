"""Command-line interface.

Exit codes: 0 = verified/pass, 1 = mathematical property violated
(counterexample found / suite failure), 2 = usage or input error
(including sizes above ``matrix.MAX_SIZE``), 3 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb, log2, log10

from .matrix import require_size
from .matrixio import MAX_FILE_DIGITS, load_matrix_file
from .poly import POLY_RING
from .rings import FootnoteAlgebra, IntegerRing, PrimeField
from .scan import run_scan
from .universal import synth_diag, synth_offdiag

# `suites.SUITES` in sorted order, written out so that only `verify`
# imports `suites` (a test keeps the two equal); `demos` and `inspect`
# too are imported by the commands that use them
SUITE_NAMES = ("adjugate", "all-ones", "charpoly", "diagonal-sum", "offdiag", "random", "symbolic")

# `verify` flag -> suite keyword; a suite takes the flags whose keywords it
# has, and its signature holds the defaults.
SUITE_FLAGS = {
    "n": "n_max",
    "m": "m_max",
    "ring": "ring_name",
    "trials": "trials",
    "seed": "seed",
}


def _print_minor_table(matrix, as_json: bool):
    table = matrix.principal_minors()
    ring = matrix.ring
    if as_json:
        payload = {
            "p" + s.label(): ring.render(v) for s, v in table.items()
        }
        print(json.dumps(payload, indent=2))
    else:
        for subset, value in table.items():
            print(f"p{subset.label()} = {ring.render(value)}")


def _cmd_minors(args) -> int:
    _print_minor_table(_load_matrix_or_die(args.matrix), args.json)
    return 0


def _power_digits(matrix, m: int) -> float:
    """An upper bound on the decimal digits of all principal minors of
    A^m for an integer n x n matrix A: with a = max |a_ij|, an entry of
    A^m is at most (n*a)^m in size, so it has at most e = m*log2(n*a)
    bits, and by Hadamard's inequality a size-s minor has at most
    s*(e + log2(s)/2)."""
    n = matrix.nrows
    a = max((abs(v) for row in matrix.rows for v in row), default=0)
    e = m * log2(max(n * a, 1))
    return log10(2) * sum(comb(n, s) * s * (e + log2(s) / 2) for s in range(1, n + 1))


def _cmd_pow_minors(args) -> int:
    matrix = _load_matrix_or_die(args.matrix)
    if args.m < 0:
        _usage_error("power must be nonnegative")
    # integers grow with m (Z/k and the quotient algebra do not), and Python
    # prints a big int in quadratic time: refuse before the first product
    if isinstance(matrix.ring, IntegerRing) and _power_digits(matrix, args.m) > MAX_FILE_DIGITS:
        _usage_error(f"the minors of A^{args.m} may have more than {MAX_FILE_DIGITS} digits in all")
    _print_minor_table(matrix.pow(args.m), args.json)
    return 0


def _cmd_synth(args) -> int:
    try:
        if args.j is None:
            text = synth_diag(args.n, args.i, args.m).serialize()
        else:
            text = synth_offdiag(args.n, args.i, args.j, args.m).to_json() + "\n"
    except ValueError as exc:
        _usage_error(str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _usage_error(f"cannot write {args.out}: {exc}")
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    import inspect

    from .suites import SUITES

    suite = SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    kwargs = {}
    for flag, keyword in SUITE_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if keyword not in takes:
            _usage_error(f"suite {args.suite} does not take --{flag}")
        kwargs[keyword] = value
    try:
        failures = suite(**kwargs)
    except ValueError as exc:
        _usage_error(f"suite {args.suite}: {exc}")
    if failures:
        print(f"FAIL ({len(failures)} case(s)); first failing case:")
        print(f"  {failures[0]}")
        return 1
    print(f"PASS: suite {args.suite}")
    return 0


def _cmd_example_cd(args) -> int:
    from .demos import CD_VARS, cd_compare, cd_compare_ints

    if args.values is not None:
        result = cd_compare_ints(tuple(args.values))
        render = str
    else:
        assignment = None
        if args.set:
            # substitutions like q=r applied on top of the symbolic entries
            from .poly import Polynomial

            assignment = {name: Polynomial.variable(name) for name in CD_VARS}
            for clause in args.set:
                lhs, _, rhs = clause.partition("=")
                if lhs not in CD_VARS or rhs not in CD_VARS:
                    _usage_error(f"bad substitution {clause!r}; use e.g. q=r")
                assignment[lhs] = Polynomial.variable(rhs)
        result = cd_compare(POLY_RING, assignment)
        render = str
    print(f"principal minor tables of C and D identical: {result.minors_equal}")
    print(f"{{2,3}} principal minor of C^2: {render(result.sq_minor_c)}")
    print(f"{{2,3}} principal minor of D^2: {render(result.sq_minor_d)}")
    print(f"the two square minors differ: {result.squares_differ}")
    return 0


def _cmd_counterexample(args) -> int:
    from .demos import counterexample_check, footnote_matrix

    try:
        ring = FootnoteAlgebra(PrimeField(args.base))
    except ValueError as exc:
        _usage_error(str(exc))
    result = counterexample_check(ring)
    A = footnote_matrix(ring)
    table = A.principal_minors()
    print(f"ring: {ring.describe()}")
    print("principal minors of A:")
    for subset, value in table.items():
        print(f"  p{subset.label()} = {ring.render(value)}")
    print(f"all principal minors of A equal 1: {result.base_minors_all_one}")
    print(f"{{2,3}} principal minor of A^2: {ring.render(result.square_minor)}")
    print(f"equal to 1: {result.square_minor_is_one}")
    if result.reproduces:
        print("counterexample reproduced: the all-minors-1 property is not preserved")
        return 0
    print("counterexample did NOT reproduce")
    return 1


def _cmd_scan(args) -> int:
    try:
        report = run_scan(
            ring_spec=args.ring,
            n=args.n,
            m_max=args.m_max,
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
            entry_bound=args.entry_bound,
        )
    except ValueError as exc:
        _usage_error(str(exc))
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 1 if report.violations else 0


def _load_matrix_or_die(path: str):
    try:
        matrix = load_matrix_file(path)
        require_size("matrix size", matrix.nrows, 0)
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read matrix from {path}: {exc}")
    return matrix


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorcalc",
        description=(
            "Principal minors over arbitrary commutative rings and universal "
            "polynomials for diagonal entries of matrix powers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minors", help="print all 2^n principal minors of a matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("pow-minors", help="principal minors of A^m")
    p.add_argument("--matrix", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pow_minors)

    p = sub.add_parser("synth", help="synthesize a universal polynomial or certificate")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--j", type=int, help="column index for an off-diagonal certificate")
    p.add_argument("--out", help="also write the output to a file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--ring", choices=["int", "mod2", "mod4", "mod101"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "example-cd",
        help="two matrices with equal principal minors whose squares differ",
    )
    p.add_argument(
        "--values",
        type=int,
        nargs=8,
        metavar=("A", "B", "C", "D", "P", "Q", "R", "S"),
        help="integer values for a b c d p q r s (default: symbolic)",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="VAR=VAR",
        help="symbolic substitution such as q=r (repeatable)",
    )
    p.set_defaults(func=_cmd_example_cd)

    p = sub.add_parser(
        "counterexample",
        help="the quotient-algebra counterexample to the all-minors-1 question",
    )
    p.add_argument("--base", type=int, default=2, help="base field characteristic")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("scan", help="scan matrices over a finite ring for violations")
    p.add_argument("--ring", required=True, help="int, mod:k or footnote:p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    # exact ints may pass the 4,300-digit str limit; the lift is missing before 3.10.7
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        # 1 means "property violated", so a crash must not exit with it
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
