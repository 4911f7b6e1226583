"""The three benchmark workloads: case lists, timed ops and output checks.

A workload's `setup(seed)` does the preparation users pay once (catalog and
frozen-layout load, case preparation) and returns its ops in a fixed,
seed-shuffled order.  One round runs every op once.  Each op has three steps:
`prepare()` makes its seeded inputs (untimed), `run(inp)` calls the program
(timed), `check(inp, out)` judges the output (untimed).  Checks use
computations made apart from the program where they can: the converse
formula, the GF(2) rank test and the message comparison below are the
benchmark's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from detic import channel, cli, decode, oracle, regions, render, scheme

F = Fraction

# --- simulate ----------------------------------------------------------------
# (region, target N, K).  Bd, Be, Ee, Df and Dc need the most peel passes
# (4-6); the others need 1-2.  N is the multiple of the point's minimal N
# nearest the target.  At N ~ 600 a Bd trial takes about 2 s with K = 3, so
# the many-pass regions run there with K = 3 only, and Be (1.6 s) not at all;
# the cheap 1-2-pass trials at N ~ 600 fill the middle of the cost range, so
# the median op sits among many ops of similar cost.
_MANY_PASSES = ("Bd", "Be", "Ee", "Df", "Dc")
_FEW_PASSES = ("Ab", "Ba", "Da", "Ec")
_FEW_PASSES_600 = ("Aa", "Ab", "Ba", "Bb", "Da", "Ea", "Ec", "Ed")
SIM_CASES = (
    [(r, 60, k) for k in (3, 5) for r in _MANY_PASSES + _FEW_PASSES]
    + [(r, 600, 3) for r in ("Bd", "Ee", "Df", "Dc", "Eb") + _FEW_PASSES_600]
    + [(r, 600, 5) for r in _FEW_PASSES_600]
)

# --- verify ------------------------------------------------------------------
# Exhaustive-search cases (N, alpha, beta): covered, non-degenerate points whose
# minimal N divides N, spread over regions; search time 0.02-1 s each.
SEARCH_CASES = [
    (7, F(8, 7), F(0)), (7, F(8, 7), F(2, 7)), (7, F(8, 7), F(4, 7)),
    (7, F(9, 7), F(3, 7)), (7, F(9, 7), F(4, 7)), (7, F(10, 7), F(4, 7)),
    (7, F(10, 7), F(6, 7)), (7, F(11, 7), F(5, 7)), (7, F(12, 7), F(3, 7)),
    (7, F(12, 7), F(4, 7)), (7, F(13, 7), F(3, 7)), (7, F(13, 7), F(5, 7)),
    (8, F(9, 8), F(1, 2)), (8, F(11, 8), F(3, 4)), (8, F(15, 8), F(5, 8)),
]
SEARCH_K = 3

# --- catalog -----------------------------------------------------------------
# One op is one whole `regions.atlas_rows` grid, as `detic atlas --grid G`
# runs it; grids 5-9 take about 8-22 ms each, the audit slices about 15 ms,
# so op costs form one continuous range around the median.
ATLAS_GRIDS = (5, 6, 7, 8, 9)
ATLAS_REPEATS = 4  # each grid this many times per round
AUDIT_SLICES = 12  # boundary-audit slices per round
AUDIT_POINTS = 25  # random rational points per slice
# Malformed CLI queries: (argv, fault the program is known to have on it).
BAD_QUERIES = [
    (["classify", "--alpha", "3", "--beta", "1/2"], None),
    (["classify", "--alpha", "abc", "--beta", "1/2"], None),
    (
        ["classify", "--alpha", "1/0", "--beta", "1/2"],
        "cli.main catches only ValueError; Fraction('1/0') raises ZeroDivisionError",
    ),
]


def converse_formula(alpha: Fraction, beta: Fraction) -> Fraction:
    """The converse bound, written out here apart from `regions.converse_bound`."""
    g = alpha - beta
    return min(F(1), g / 2 if g >= 1 else 1 - g / 2)


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as Python-int bit sets."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def own_rank_decodable(pipe_to_bit, n: int, up: int, down: int) -> bool:
    """rank([A|B|C]) == m + rank([B|C]) for the receive images at a receiver.

    Column j is the direct image of bit j, m + j its up-shifted image and
    2m + j its down-shifted image.  With one assignment shared by all senders
    every receiver sees the same images, so this decides each of them.
    """
    m = max((b for b in pipe_to_bit if b is not None), default=-1) + 1
    rows = [0] * (2 * n)
    for p, bit in enumerate(pipe_to_bit):
        if bit is None:
            continue
        rows[n + p] |= 1 << bit
        if n + p - up >= 0:
            rows[n + p - up] |= 1 << (m + bit)
        if n + p + down < 2 * n:
            rows[n + p + down] |= 1 << (2 * m + bit)
    interference = [r >> m for r in rows]
    return gf2_rank(rows) == m + gf2_rank(interference)


def check_trial(messages: list[np.ndarray], decoded: list) -> bool:
    """Receiver r returned exactly the message its own sender r sent."""
    return len(decoded) == len(messages) and all(
        got is not None and np.array_equal(got, want) for got, want in zip(decoded, messages)
    )


def check_case_rate(m: int, n: int, rate, alpha: Fraction, beta: Fraction) -> bool:
    """m/N is the catalog rate, and that rate is within the converse bound."""
    return rate is not None and F(m, n) == rate and 0 <= rate <= converse_formula(alpha, beta)


def check_layout(layout, spec, frozen, interior: tuple[Fraction, Fraction], k: int = 3) -> bool:
    """Re-derived layout equals the frozen one, is valid, and decodes at the
    frozen interior point at every receiver (own rank test and peeling)."""
    if layout.to_json_dict() != frozen.to_json_dict():
        return False
    if not scheme.check_validity(layout, spec).all_passed:
        return False
    eps, delta = interior
    alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
    n = scheme.minimal_n(spec, eps, delta)
    assign = scheme.build_assignment(layout, spec, alpha, beta, n)
    ch = channel.make_channel(k, n, alpha, beta)
    if not own_rank_decodable(assign.pipe_to_bit, n, ch.up_shift, ch.down_shift):
        return False
    return all(
        decode.peel_structure(decode.receiver_view(assign, ch, r))[0] for r in range(1, k + 1)
    )


def check_search(result, expected_m: int, ch) -> bool:
    """Best m equals dsym * N, and the witness really decodes that many bits."""
    best_m, witness = result
    return (
        best_m == expected_m
        and witness.m == best_m
        and own_rank_decodable(witness.pipe_to_bit, ch.n, ch.up_shift, ch.down_shift)
    )


def check_atlas(grid: int, rows: list[dict], csv_text: str) -> bool:
    """The rows cover the grid x grid lattice in order, every covered point has
    0 <= dsym <= converse formula, the program's converse bound equals the
    formula, and the CSV holds exactly these rows."""
    if len(rows) != grid * grid:
        return False
    for k, row in enumerate(rows):
        alpha, beta = 1 + F(k // grid, grid - 1), F(k % grid, grid - 1)
        bound = converse_formula(alpha, beta)
        if F(row["alpha"]) != alpha or F(row["beta"]) != beta or F(row["converse"]) != bound:
            return False
        if row["region"] != "-" and not 0 <= F(row["dsym"]) <= bound:
            return False
    lines = csv_text.splitlines()
    return lines[0] == "alpha,beta,region,dsym" and lines[1:] == [
        f'{r["alpha"]},{r["beta"]},{r["region"]},{r["dsym"]}' for r in rows
    ]


def check_audit(report) -> bool:
    return report.points_checked == AUDIT_POINTS and not report.violations


def check_bad_query(result) -> bool:
    """A malformed query exits 2 with a JSON error object."""
    code, text = result
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return False
    return code == cli.EXIT_USAGE and isinstance(payload, dict) and "error" in payload


def judge(op, inp, out, error: BaseException | None) -> bool:
    """An op passes when it raised nothing and its output passes its check."""
    return error is None and op.check(inp, out)


# --- ops -----------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    known_fault: str | None = None

    def prepare(self):
        return None


@dataclass
class SimCase:
    region: str
    assign: object
    ch: object
    views: list
    rate_ok: bool


class TrialOp(Op):
    """One trial: K seeded messages encoded, sent, and peel-decoded at every receiver."""

    def __init__(self, case: SimCase, rng: np.random.Generator):
        super().__init__(f"trial {case.region} K={case.ch.k} N={case.ch.n}")
        self.case = case
        self.rng = rng

    def prepare(self):
        m = self.case.assign.m
        return [self.rng.integers(0, 2, size=m, dtype=np.uint8) for _ in range(self.case.ch.k)]

    def run(self, messages):
        assign = self.case.assign
        outputs = channel.transmit(self.case.ch, [assign.encode(d) for d in messages])
        return [decode.peel_bits(view, y)[0] for view, y in zip(self.case.views, outputs)]

    def check(self, messages, decoded) -> bool:
        return self.case.rate_ok and check_trial(messages, decoded)


class InferOp(Op):
    """Re-derive one region's layout from scratch."""

    def __init__(self, spec, frozen, interior):
        super().__init__(f"infer_roles {spec.id}")
        self.spec, self.frozen, self.interior = spec, frozen, interior

    def run(self, _):
        return scheme.infer_roles(self.spec)

    def check(self, _, layout) -> bool:
        return check_layout(layout, self.spec, self.frozen, self.interior)


class SearchOp(Op):
    """Exhaustive search over the constrained scheme class at one tiny channel."""

    def __init__(self, ch, expected_m: int):
        super().__init__(f"search N={ch.n} ({ch.alpha}, {ch.beta})")
        self.ch, self.expected_m = ch, expected_m

    def run(self, _):
        return oracle.exhaustive_search(self.ch)

    def check(self, _, result) -> bool:
        return check_search(result, self.expected_m, self.ch)


class AtlasOp(Op):
    """One atlas grid, classified and bounded by `regions.atlas_rows` and
    rendered by `render.atlas_csv`, as `detic atlas --format csv` does."""

    def __init__(self, grid: int, table):
        super().__init__(f"atlas grid {grid}")
        self.grid, self.table = grid, table

    def run(self, _):
        rows = regions.atlas_rows(self.grid, self.table)
        return rows, render.atlas_csv(rows)

    def check(self, _, result) -> bool:
        return check_atlas(self.grid, *result)


class AuditOp(Op):
    """One slice of the boundary-consistency audit: seeded random points."""

    def __init__(self, seed: int, table):
        super().__init__("audit slice")
        self.seed, self.table = seed, table

    def run(self, _):
        return regions.boundary_consistency(samples=AUDIT_POINTS, seed=self.seed, table=self.table)

    def check(self, _, report) -> bool:
        return check_audit(report)


class BadQueryOp(Op):
    """A malformed query through the CLI entry point."""

    def __init__(self, argv: list[str], known_fault: str | None):
        super().__init__("cli " + " ".join(argv), known_fault)
        self.argv = argv

    def run(self, _):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, _, result) -> bool:
        return check_bad_query(result)


# --- set-up ------------------------------------------------------------------


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


def prepare_sim_case(region: str, target_n: int, k: int, table, frozen, interiors) -> SimCase:
    spec = next(s for s in table if s.id == region)
    eps, delta = interiors[region]
    alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
    res = regions.classify(alpha, beta, table)
    layout = scheme.layout_for(res.region, frozen)
    need = scheme.minimal_n(res.region, res.eps, res.delta)
    n = need * max(1, round(target_n / need))
    assign = scheme.build_assignment(layout, res.region, alpha, beta, n)
    ch = channel.make_channel(k, n, alpha, beta)
    views = [decode.receiver_view(assign, ch, r) for r in range(1, k + 1)]
    rate_ok = res.region.id == region and check_case_rate(assign.m, n, res.dsym_value, alpha, beta)
    return SimCase(region, assign, ch, views, rate_ok)


def setup_simulate(seed: int) -> list[Op]:
    table = regions.load_region_table()
    frozen = scheme.load_frozen_layouts(table)
    interiors = scheme.load_frozen_interiors()
    rng = np.random.default_rng(seed)
    cases = [prepare_sim_case(r, n, k, table, frozen, interiors) for r, n, k in SIM_CASES]
    return _shuffled([TrialOp(case, rng) for case in cases], seed)


def setup_verify(seed: int) -> list[Op]:
    table = regions.load_region_table()
    frozen = scheme.load_frozen_layouts(table)
    interiors = scheme.load_frozen_interiors()
    ops: list[Op] = [InferOp(spec, frozen[spec.id], interiors[spec.id]) for spec in table]
    for n, alpha, beta in SEARCH_CASES:
        res = regions.classify(alpha, beta, table)
        if scheme.degenerate_channel_point(alpha, beta) or not res.covered:
            raise ValueError(f"search case ({alpha}, {beta}) is degenerate or uncovered")
        if n % scheme.minimal_n(res.region, res.eps, res.delta):
            raise ValueError(f"search case ({alpha}, {beta}): minimal N does not divide {n}")
        ops.append(SearchOp(channel.make_channel(SEARCH_K, n, alpha, beta), int(res.dsym_value * n)))
    return _shuffled(ops, seed)


def setup_catalog(seed: int) -> list[Op]:
    table = regions.load_region_table()
    rng = random.Random(seed)
    ops: list[Op] = [AtlasOp(grid, table) for grid in ATLAS_GRIDS * ATLAS_REPEATS]
    ops += [AuditOp(rng.randrange(2**32), table) for _ in range(AUDIT_SLICES)]
    ops += [BadQueryOp(argv, fault) for argv, fault in BAD_QUERIES]
    return _shuffled(ops, seed)


SETUP = {"simulate": setup_simulate, "verify": setup_verify, "catalog": setup_catalog}
