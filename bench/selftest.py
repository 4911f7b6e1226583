#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it runs real ops, asserts that their true outputs pass, then
corrupts one output per op kind (a flipped decoded bit, a perturbed rate, a
swapped layout role, ...) and asserts that the op is judged failed.  It also
asserts that BENCHMARK.json names exactly the metrics the benchmark prints.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from detic.exactmath import format_rat  # noqa: E402
from detic.scheme import Layout  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def first(ops, cls, kind_part=""):
    return next(op for op in ops if isinstance(op, cls) and kind_part in op.kind)


def outcome(op, corrupt=None) -> tuple[bool, bool]:
    """(true output judged ok, corrupted output judged ok)."""
    inp = op.prepare()
    out = op.run(inp)
    return wl.judge(op, inp, out, None), wl.judge(op, inp, corrupt(out), None) if corrupt else None


def flip_bit(decoded):
    bad = [np.array(d, copy=True) for d in decoded]
    bad[0][0] ^= 1
    return bad


def swap_roles(layout: Layout) -> Layout:
    blocks = list(layout.blocks)
    i, j = next(
        (i, j)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if blocks[i][1].to_string() != blocks[j][1].to_string()
    )
    (li, ri), (lj, rj) = blocks[i], blocks[j]
    blocks[i], blocks[j] = (li, rj), (lj, ri)
    return Layout(layout.region_id, tuple(blocks))


def perturb_rate(result):
    rows, csv_text = result
    rows = [dict(r) for r in rows]
    row = next(r for r in rows if r["region"] != "-")
    row["dsym"] = format_rat(Fraction(row["converse"]) + Fraction(1, 100))
    return rows, csv_text


def add_violation(report):
    return replace(report, violations=[(Fraction(3, 2), Fraction(1, 2), [("Aa", Fraction(1, 2))])])


def check_benchmark_json() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END:
        errors.append(f"end_to_end {e2e} != printed {END_TO_END}")
    layers = {name: unit for name, unit, *_ in LAYER_METRICS}
    layers.update({f"trace.{w}_overhead_pct": "%" for w in WORKLOADS})
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != layers:
        errors.append(f"per_layer differs: {set(listed) ^ set(layers)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("workload names differ")
    return errors


def main() -> int:
    failures = []

    def expect(label, judged):
        good, bad = judged
        if not good or bad:
            failures.append(f"{label}: true output ok={good}, corrupted output ok={bad}")
        print(f"{label}: {'pass' if good and not bad else 'FAIL'}")

    sim = wl.setup_simulate(1)
    expect("simulate: flipped decoded bit", outcome(first(sim, wl.TrialOp, "Df K=3 N=60"), flip_bit))

    ver = wl.setup_verify(1)
    expect("verify: swapped layout role", outcome(first(ver, wl.InferOp, "Bf"), swap_roles))
    expect("verify: search best m off by one",
           outcome(first(ver, wl.SearchOp, "N=7"), lambda r: (r[0] + 1, r[1])))

    cat = wl.setup_catalog(1)
    expect("catalog: rate above the converse bound", outcome(first(cat, wl.AtlasOp), perturb_rate))
    expect("catalog: audit violation", outcome(first(cat, wl.AuditOp), add_violation))
    expect("catalog: bad query exit 1", outcome(first(cat, wl.BadQueryOp, "abc"), lambda r: (1, r[1])))

    zero_div = first(cat, wl.BadQueryOp, "1/0")
    try:
        zero_div.run(None)
        judged = wl.judge(zero_div, None, None, None)
    except ZeroDivisionError as exc:
        judged = wl.judge(zero_div, None, None, exc)
    print(f"catalog: --alpha 1/0 judged {'ok' if judged else 'failed (known fault)'}")
    if zero_div.known_fault is None:
        failures.append("--alpha 1/0 query lost its known-fault note")

    for error in check_benchmark_json():
        failures.append(f"BENCHMARK.json: {error}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
