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

`peel_succeeds` runs the same fixpoint without emitting a program; three
tests check that its answer is the compiled program's `success` on every
validation point under each candidate role layout that passes rank there,
at the frozen interiors with K = 5 at receivers 2 and K, and on the search
class.

Run this file as a script to print the digests of the current tree; with
`--write` it records them.
"""

import hashlib
import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np

from detic.channel import make_channel
from detic.decode import _compile, peel_succeeds
from detic.oracle import assignment_from_labels, rank_decodable
from detic.regions import load_region_table
from detic.scheme import (
    _layouts,
    _validation_weights,
    build_assignment,
    check_points,
    load_frozen_interiors,
    load_frozen_layouts,
    minimal_n,
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
        points = {(Fraction(w[1], w[0]), Fraction(w[2], w[0])) for w in _validation_weights(spec)}
        for alpha, beta in sorted(points):
            n = minimal_n(spec, alpha - spec.anchor_alpha, beta - spec.anchor_beta)
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


def _search_cases():
    """(assignment, channel, receiver) for every search-class pipe map."""
    for n in range(1, SEARCH_MAX_N + 1):
        for labels in _labelings(n):
            assign = assignment_from_labels(labels)
            for a in range(n + 1):
                for b in range(n + 1):
                    for k in (3, 4):
                        ch = make_channel(k, n, 1 + Fraction(a, n), Fraction(b, n))
                        for receiver in range(1, k + 1):
                            yield assign, ch, receiver


def _search_class(table, layouts):
    for case in _search_cases():
        yield _compile(*case)


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


def test_fixpoint_success_matches_compile_on_role_candidates(table, frozen_layouts):
    # The candidates infer_roles tries, up to the accepted one, at every
    # validation point where they pass rank (not only up to the first that
    # refutes them).
    compared = 0
    for spec in table:
        points = check_points(spec)
        for layout in _layouts(spec):
            for point in points:
                assign = point.assignment(layout)
                if rank_decodable(point.ch, assign):
                    want = _compile(assign, point.ch, 1).success
                    assert peel_succeeds(assign, point.ch, 1) == want, (spec.id, point.ch)
                    compared += 1
            if layout == frozen_layouts[spec.id]:
                break
    assert compared >= 524  # at least the accepted layouts at every point


def test_fixpoint_success_matches_compile_at_k5(table, frozen_layouts, frozen_interiors):
    # The search class stops at K = 4.  At K = 5, receivers 2 and K read
    # their own bits at ids (receiver - 1)*m onward, beyond receiver 1's and
    # the other two senders' ranges.  The first candidates of each region
    # (most fail at the interior) and the accepted one, at 1 and 4 times N.
    outcomes = []
    for spec in table:
        eps, delta = frozen_interiors[spec.id]
        alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
        for multiple in (1, 4):
            n = minimal_n(spec, eps, delta) * multiple
            ch = make_channel(5, n, alpha, beta)
            for layout in [*islice(_layouts(spec), 8), frozen_layouts[spec.id]]:
                assign = build_assignment(layout, spec, alpha, beta, n)
                for receiver in (2, 5):
                    want = _compile(assign, ch, receiver).success
                    assert peel_succeeds(assign, ch, receiver) == want, (spec.id, n, receiver)
                    outcomes.append(want)
    assert set(outcomes) == {True, False}


def test_fixpoint_success_matches_compile_on_search_class():
    outcomes = set()
    for assign, ch, receiver in _search_cases():
        want = _compile(assign, ch, receiver).success
        assert peel_succeeds(assign, ch, receiver) == want, (assign.pipe_to_bit, ch, receiver)
        outcomes.add(want)
    assert outcomes == {True, False}


if __name__ == "__main__":
    got = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    print(json.dumps(got, indent=2))
