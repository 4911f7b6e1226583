"""Command-line front door: classify, plan, simulate, verify, atlas, render.

Exit codes: 0 success, 1 check failure, 2 usage/input error; `main` alone
turns a raised `DeticError` into one JSON error and its exit code, and lets
any other error through as a bug.  Parameters are exact rationals ("8/5"),
read by `exactmath.parse_rat`; *-decimal variants accept terminating
decimals, read by `exactmath.as_rat` within its size bounds.
Payloads go to standard output as JSON, CSV, or SVG.  `plan`, `simulate` and
`render` refuse N > MAX_N, `simulate` also runs beyond its size budget
(SIMULATE_MAX_*), and `atlas` grids above ATLAS_MAX_GRID, all before doing
any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import regions as reg
from .channel import make_channel, transmit
from .decode import peel_bits, peel_structure, receiver_view
from .exactmath import DeticError, as_rat, format_rat, parse_rat
from .oracle import exhaustive_search
from .render import atlas_csv, atlas_svg, render_scheme
from .scheme import (
    NonIntegralBlocksError,
    build_assignment,
    check_points,
    check_validity,
    layout_for,
    minimal_n,
    rank_assignments,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2

# Size budgets, from costs measured on a 2-vCPU x86_64 VM.  Compiling a
# channel's peeling schedule takes 2-5 us per pipe at N = 600 and 3-9 us at
# N = 6000 (0.02-0.06 s over the 18 frozen layouts, with up to 14 MB of
# working memory), once per run: `simulate` decodes every receiver's word
# with receiver 1's view.
# A trial then draws, encodes, transmits and decodes one stack of K words, so
# N * K bounds the arrays of a trial.  It costs about 85 us plus 18-28 ns per
# entry of the K x N stack, so trials * (N*K + 4000) is its cost in units of
# about 20 ns, and a `simulate` run at the limits takes 5-9 s (8.5 s at
# N = 20, K = 10,000, 1,568 trials; 4.9 s at N = 20, K = 3, 78,800 trials).
# `render` at N = 60000 took 8.9 s and 1.46 GB.  An atlas point costs about
# 3 us as CSV and 5 us as SVG, so the largest grid (40,401 points) takes
# 0.3-0.6 s end to end, a quarter second of it start-up.
MAX_N = 6000
SIMULATE_MAX_COMPILE = 200_000  # N * K
SIMULATE_MAX_DECODE = 320_000_000  # trials * (N * K + 4000)
ATLAS_MAX_GRID = 201


class UsageError(DeticError):
    """A refusal: `main` prints {"error": message, **fields} and exits with `code`."""

    code = EXIT_USAGE

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.fields = fields


class UncoveredPointError(UsageError):
    """No region of the catalog covers the point: a failed check, not bad input."""

    code = EXIT_CHECK


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _parse_point(args) -> tuple[Fraction, Fraction]:
    """Each coordinate from its rational flag, else from its decimal one."""
    return tuple(
        parse_rat(text) if (text := getattr(args, name)) is not None
        else as_rat(getattr(args, f"{name}_decimal"), name)
        for name in ("alpha", "beta")
    )


def _load_table(args):
    # An empty DETIC_TABLE means unset; an empty --table reaches the loader,
    # which refuses it.
    path = args.table if args.table is not None else os.environ.get("DETIC_TABLE") or None
    return reg.load_region_table(path)


def _point_args(sub) -> None:
    """Each coordinate as an exact rational or a terminating decimal: one, not both."""
    alpha, beta = (sub.add_mutually_exclusive_group(required=True) for _ in range(2))
    alpha.add_argument("--alpha", help='exact rational, e.g. "8/5"')
    beta.add_argument("--beta", help='exact rational, e.g. "9/10"')
    alpha.add_argument("--alpha-decimal", help='terminating decimal, e.g. "1.6"')
    beta.add_argument("--beta-decimal", help='terminating decimal, e.g. "0.9"')


def _classify_payload(res: reg.ClassifyResult) -> dict:
    return {
        "alpha": format_rat(res.alpha),
        "beta": format_rat(res.beta),
        "region": res.region.id if res.covered else "-",
        "eps": format_rat(res.eps) if res.covered else None,
        "delta": format_rat(res.delta) if res.covered else None,
        "dsym": format_rat(res.dsym_value) if res.covered else None,
        "converseBound": format_rat(reg.converse_bound(res.alpha, res.beta)),
    }


def cmd_classify(args, table) -> int:
    alpha, beta = _parse_point(args)
    res = reg.classify(alpha, beta, table)
    _emit(_classify_payload(res))
    return EXIT_OK


def _plan(args, table):
    """Shared classify -> layout -> counts pipeline for plan/simulate/render;
    refuses N > MAX_N before the layout is looked up."""
    alpha, beta = _parse_point(args)
    res = reg.classify(alpha, beta, table)
    if not res.covered:
        raise UncoveredPointError("point is not covered by the region catalog",
                                  alpha=format_rat(alpha), beta=format_rat(beta))
    need = minimal_n(res.region, res.eps, res.delta)
    n = args.n if args.n is not None else need
    if n > MAX_N:
        raise UsageError(f"N = {n} exceeds the size budget N <= {MAX_N}")
    layout = layout_for(res.region)
    try:
        assign = build_assignment(layout, res.region, alpha, beta, n)
    except NonIntegralBlocksError as exc:
        raise UsageError(str(exc), minimalN=exc.minimal_n) from None
    return res, layout, assign, need


def cmd_plan(args, table) -> int:
    res, layout, assign, need = _plan(args, table)
    counts = [seg.count for seg in assign.segments]
    _emit(
        {
            **_classify_payload(res),
            "minimalN": need,
            "n": assign.n,
            "m": assign.m,
            "layout": layout.to_json_dict(),
            "counts": counts,
        }
    )
    return EXIT_OK


def _check_simulate_size(n: int, k: int, trials: int) -> None:
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    for name, value, limit in (
        ("N*K", n * k, SIMULATE_MAX_COMPILE),
        ("trials*(N*K+4000)", trials * (n * k + 4000), SIMULATE_MAX_DECODE),
    ):
        if value > limit:
            raise UsageError(f"{name} = {value} exceeds the simulate budget {name} <= {limit}")


def cmd_simulate(args, table) -> int:
    res, _, assign, _ = _plan(args, table)
    _check_simulate_size(assign.n, args.k, args.trials)
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    ch = make_channel(args.k, assign.n, res.alpha, res.beta)
    rng = np.random.default_rng(args.seed)
    # The channel is cyclically symmetric, so receiver 1's view decodes every
    # receiver's word: row R of the stack yields sender R's bits.
    view = receiver_view(assign, ch, 1)
    failed = np.zeros(ch.k, dtype=bool)  # receivers with a failed trial
    failures = 0
    for _ in range(args.trials):
        messages = rng.integers(0, 2, size=(ch.k, assign.m), dtype=np.uint8)
        got, _ = peel_bits(view, transmit(ch, assign.encode(messages)))
        wrong = np.ones(ch.k, dtype=bool) if got is None else (got != messages).any(axis=1)
        failed |= wrong
        failures += int(wrong.sum())
    # The trace does not depend on the bits, and relabelling for another
    # receiver keeps each step's rule: every receiver and trial repeats one's.
    counts = peel_structure(view)[1].rule_counts()
    rules = {rule: cnt * ch.k * args.trials for rule, cnt in counts.items()}
    payload = {
        **_classify_payload(res),
        "channel": ch.to_json_dict(),
        "m": assign.m,
        "trials": args.trials,
        "seed": args.seed,
        "decodedReceivers": int(ch.k - failed.sum()),
        "failures": failures,
        "success": failures == 0,
        # m/N is delivered only when no receiver failed a trial.
        "achievedRate": format_rat(Fraction(assign.m, assign.n) if failures == 0 else 0),
        "traceSummary": dict(sorted(rules.items())),
    }
    _emit(payload)
    return EXIT_OK if failures == 0 else EXIT_CHECK


def _verify_table(table) -> tuple[bool, dict]:
    detail = []
    ok = True
    for spec in table:
        report = check_validity(layout_for(spec), spec)
        ok &= report.all_passed
        detail.append(
            {
                "region": spec.id,
                "passed": report.all_passed,
                "checks": [
                    {"name": name, "passed": passed, "witness": witness}
                    for name, passed, witness in report.checks
                ],
            }
        )
    return ok, {"regions": len(detail), "detail": detail}


def _verify_boundaries(table) -> tuple[bool, dict]:
    report = reg.boundary_consistency(grid_denominator=60, table=table)
    return report.ok, {
        "pointsChecked": report.points_checked,
        "multiRegionPoints": report.multi_region_points,
        "violations": [
            {
                "alpha": format_rat(a),
                "beta": format_rat(b),
                "values": [{"region": rid, "dsym": format_rat(v)} for rid, v in vals],
            }
            for a, b, vals in report.violations
        ],
    }


def _verify_oracle(table) -> tuple[bool, dict]:
    detail = []
    ok = True
    for spec in table:
        layout = layout_for(spec)
        points = check_points(spec)
        region_ok = rank_assignments(layout, points) is not None
        ok &= region_ok
        detail.append({"region": spec.id, "points": len(points), "rankDecodable": region_ok})
    return ok, {"detail": detail}


_SEARCH_CASES = [
    # (K, N, alpha, beta, expected best m)
    (3, 1, Fraction(2), Fraction(0), 1),
    (3, 2, Fraction(3, 2), Fraction(1, 2), 1),
    (3, 3, Fraction(4, 3), Fraction(2, 3), 2),
]


def _verify_search(table) -> tuple[bool, dict]:
    detail = []
    ok = True
    for k, n, alpha, beta, want in _SEARCH_CASES:
        ch = make_channel(k, n, alpha, beta)
        best_m, witness = exhaustive_search(ch)
        dsym = reg.dsym_at(alpha, beta, table)  # None where the table has no region
        expected = None if dsym is None else dsym * n
        case_ok = best_m == want == expected
        ok &= case_ok
        detail.append(
            {
                "channel": ch.to_json_dict(),
                "bestM": best_m,
                "expected": None if expected is None else int(expected),
                "witnessPipes": list(witness.pipe_to_bit),
                "witnessBlocks": [
                    {"count": seg.count, "role": seg.role.to_string()} for seg in witness.segments
                ],
                "passed": case_ok,
            }
        )
    return ok, {"detail": detail}


_SUITES = {
    "table": _verify_table,
    "boundaries": _verify_boundaries,
    "oracle": _verify_oracle,
    "search": _verify_search,
}


def cmd_verify(args, table) -> int:
    ok, detail = _SUITES[args.suite](table)
    _emit({"suite": args.suite, "passed": ok, **detail})
    return EXIT_OK if ok else EXIT_CHECK


def cmd_atlas(args, table) -> int:
    if not 2 <= args.grid <= ATLAS_MAX_GRID:
        raise UsageError(f"grid must be in 2..{ATLAS_MAX_GRID}, got {args.grid}")
    rows = reg.atlas_rows(args.grid, table)
    if args.format == "csv":
        sys.stdout.write(atlas_csv(rows))
    else:
        print(atlas_svg(rows, args.grid))
    return EXIT_OK


def cmd_render(args, table) -> int:
    res, _, assign, _ = _plan(args, table)
    ch = make_channel(args.k, assign.n, res.alpha, res.beta)
    view = receiver_view(assign, ch, args.receiver)
    title = (
        f"region {res.region.id} at ({format_rat(res.alpha)}, {format_rat(res.beta)}), "
        f"N = {assign.n}, receiver {args.receiver}"
    )
    print(render_scheme(view, title))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors too: the usage line on stderr, the
    JSON error on stdout and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detic",
        description="Deterministic interference channel toolkit: region catalog, "
        "coding schemes, peeling decoder, verification oracles.",
    )
    parser.add_argument("--table", help="override the region catalog JSON (env: DETIC_TABLE)")
    sub = parser.add_subparsers(dest="command", required=True)
    n_help = f"pipe count N, at most {MAX_N}, else exit 2 (default: minimal integral N)"

    p = sub.add_parser("classify", help="region, rate, and converse bound at a point")
    _point_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plan", help="layout and pipe counts at a point")
    _point_args(p)
    p.add_argument("--n", type=int, help=n_help)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "simulate",
        help="encode, transmit, and peel-decode random messages",
        description="Encode, transmit, and peel-decode random messages at every receiver. "
        f"Refuses (exit 2) N > {MAX_N}, N*K > {SIMULATE_MAX_COMPILE} or "
        f"trials*(N*K+4000) > {SIMULATE_MAX_DECODE} before doing any work.",
    )
    _point_args(p)
    p.add_argument("--n", type=int, help=n_help)
    p.add_argument("--k", type=int, default=3, help="number of pairs (default 3)")
    p.add_argument("--trials", type=int, default=10, help="at least 1 (default 10)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("atlas", help="classify a rational grid over the square")
    p.add_argument(
        "--grid", type=int, required=True,
        help=f"points per axis, 2..{ATLAS_MAX_GRID} (exit 2 outside)",
    )
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("render", help="SVG of the transmit vector and a receiver view")
    _point_args(p)
    p.add_argument("--n", type=int, help=n_help)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--receiver", type=int, default=1)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _load_table(args))
    except UsageError as exc:
        code, payload = exc.code, {"error": str(exc), **exc.fields}
    except DeticError as exc:  # a typed refusal of the library: bad input
        code, payload = EXIT_USAGE, {"error": str(exc)}
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
