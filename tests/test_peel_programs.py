"""Compiled peel programs pinned by digest.

`data/peel_programs.json` holds one sha256 per family of compile cases, over
every case's `_compile` output (success, own, trace, indptr, indices and
origins) in a fixed order.  It was recorded before the compile read its
levels from a table built once, so any change to a compiled schedule, check
row or trace shows up here.  The families are:

* the frozen interiors at 1 and 4 times the minimal N, K in {3, 5},
  receivers 1, 2 and K;
* the distinct validation points of every region (K = 3, receiver 1), as a
  sorted set, so that dropping a repeated point does not move the digest;
* every pipe map of the search class (each pipe zero, a fresh bit or the
  second use of a bit used once) at N <= 4 on every integral (alpha, beta),
  K in {3, 4} and every receiver.

Run this file as a script to print the digests of the current tree; with
`--write` it records them.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from detic.channel import make_channel
from detic.decode import _compile
from detic.oracle import assignment_from_labels
from detic.regions import load_region_table
from detic.scheme import (
    build_assignment,
    load_frozen_interiors,
    load_frozen_layouts,
    minimal_n,
    validation_points,
)

GOLDEN = Path(__file__).parent / "data" / "peel_programs.json"
SEARCH_MAX_N = 4


def _program_bytes(program) -> bytes:
    steps = [(s.pass_index, s.rule, s.sender, s.symbol_id) for s in program.trace.steps]
    arrays = [program.indptr, program.indices, program.origins]
    head = repr((program.success, program.own, steps, [a.shape for a in arrays]))
    return head.encode() + b"".join(np.asarray(a, dtype="<i4").tobytes() for a in arrays)


def _frozen_interiors(table, layouts):
    interiors = load_frozen_interiors()
    for spec in table:
        eps, delta = interiors[spec.id]
        alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
        for multiple in (1, 4):
            n = minimal_n(spec, eps, delta) * multiple
            assign = build_assignment(layouts[spec.id], spec, alpha, beta, n)
            for k in (3, 5):
                ch = make_channel(k, n, alpha, beta)
                for receiver in (1, 2, k):
                    yield _compile(assign, ch, receiver)


def _validation_points(table, layouts):
    for spec in table:
        for eps, delta in sorted(set(validation_points(spec))):
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(layouts[spec.id], spec, alpha, beta, n)
            yield _compile(assign, make_channel(3, n, alpha, beta), 1)


def _labelings(n: int, prefix=(), fresh: int = 0, used_once=()):
    """Every canonical labeling of the search class with n pipes."""
    if len(prefix) == n:
        yield prefix
        return
    yield from _labelings(n, prefix + (None,), fresh, used_once)
    yield from _labelings(n, prefix + (fresh,), fresh + 1, used_once + (fresh,))
    for bit in used_once:
        rest = tuple(b for b in used_once if b != bit)
        yield from _labelings(n, prefix + (bit,), fresh, rest)


def _search_class(table, layouts):
    for n in range(1, SEARCH_MAX_N + 1):
        for labels in _labelings(n):
            assign = assignment_from_labels(labels)
            for a in range(n + 1):
                for b in range(n + 1):
                    for k in (3, 4):
                        ch = make_channel(k, n, 1 + Fraction(a, n), Fraction(b, n))
                        for receiver in range(1, k + 1):
                            yield _compile(assign, ch, receiver)


FAMILIES = {
    "frozen_interiors": _frozen_interiors,
    "validation_points": _validation_points,
    "search_class": _search_class,
}


def digests() -> dict[str, str]:
    table = load_region_table()
    layouts = load_frozen_layouts(table)
    out = {}
    for name, family in FAMILIES.items():
        h = hashlib.sha256()
        for program in family(table, layouts):
            h.update(_program_bytes(program))
        out[name] = h.hexdigest()
    return out


def test_compiled_programs_match_recorded_digests():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    got = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    print(json.dumps(got, indent=2))
