"""Independent verification: exact rank decodability and exhaustive search.

The rank criterion is decoder-agnostic: with uniform independent messages,
receiver 1 can recover its pair's bits iff the direct image A of the
assignment is injective and meets the span of the interference images B (up
path) and C (down path) trivially, i.e. rank([A|B|C]) = m + rank([B|C]).  By
cyclic symmetry with a shared assignment, receiver 1 decides all receivers.

The test is one elimination.  Each of the 2N receive levels becomes a row
packed into a Python int, with the 2m interference columns [B|C] in the high
bits and the m direct columns A in the low bits.  Leading-bit elimination
then finds rank([B|C]) pivots in the high bits and rank([A|B|C]) pivots in
all, so the scheme decodes iff exactly m pivots land in the low bits.

The search enumerates every pipe labeling of the constrained scheme class at
tiny N (each pipe: zero, a fresh bit, or a second use of a bit used once) and
reports the largest decodable message count, grounding the catalog's rate
values from both sides at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelParams, paths
from .gf2 import pivot_bits
from .scheme import SINGLE, TWIN_FIRST, TWIN_SECOND, ZERO, AssignmentMatrix

_SEARCH_N_LIMIT = 8


class SearchBudgetError(ValueError):
    """Enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class LinearScheme:
    params: ChannelParams
    assign: AssignmentMatrix


def rank_decodable(s: LinearScheme) -> bool:
    """Exact decodability of the receiver's own bits under any linear decoder."""
    ch, assign = s.params, s.assign
    m = assign.m
    if assign.n != ch.n:
        raise ValueError(f"assignment N = {assign.n} != channel N = {ch.n}")
    # Path i (direct A, up B, down C) puts bit j in column i*m + j.
    rows = [0] * (2 * ch.n)
    for i, (_, _, base, count) in enumerate(paths(ch, 1)):
        for p, j in enumerate(assign.pipe_to_bit[:count]):
            if j is not None:
                rows[base + p] |= 1 << (i * m + j)
    return sum(1 for top in pivot_bits(rows) if top < m) == m


def _labelings(n: int):
    """Canonical pipe labelings: 0, fresh bit, or reuse of a singly-used bit.

    Yields tuples with entries None (zero pipe) or a bit index; fresh bits are
    numbered by first appearance.  Option order per pipe: zero, fresh, reuses
    ascending, which makes tuple order the search's lexicographic order.
    """
    labels: list[int | None] = [None] * n

    def rec(i: int, fresh: int, used_once: tuple[int, ...]):
        if i == n:
            yield tuple(labels)
            return
        labels[i] = None
        yield from rec(i + 1, fresh, used_once)
        labels[i] = fresh
        yield from rec(i + 1, fresh + 1, used_once + (fresh,))
        for bit in used_once:
            labels[i] = bit
            yield from rec(i + 1, fresh, tuple(b for b in used_once if b != bit))
        labels[i] = None

    yield from rec(0, 0, ())


def assignment_from_labels(labels: tuple[int | None, ...]) -> AssignmentMatrix:
    m = max((b for b in labels if b is not None), default=-1) + 1
    return AssignmentMatrix(n=len(labels), m=m, pipe_to_bit=labels)


def exhaustive_search(
    ch: ChannelParams, max_n: int = _SEARCH_N_LIMIT
) -> tuple[int, AssignmentMatrix]:
    """Largest decodable message count over the constrained scheme class.

    Returns (best m, first witness in canonical order).  Raises
    SearchBudgetError when N exceeds the enumeration budget.
    """
    if ch.n > max_n:
        raise SearchBudgetError(f"N = {ch.n} exceeds search budget {max_n}")
    best_m = -1
    best: AssignmentMatrix | None = None
    for labels in _labelings(ch.n):
        assign = assignment_from_labels(labels)
        if assign.m <= best_m:
            continue
        if rank_decodable(LinearScheme(ch, assign)):
            best_m = assign.m
            best = assign
    assert best is not None  # the all-zero labeling always decodes (m = 0)
    return best_m, best


def witness_blocks(assign: AssignmentMatrix) -> list[dict]:
    """Layout-style block decomposition of a search witness, top-down.

    Pipes group into maximal runs: zero runs, fresh ascending-bit runs
    (single or twin-first), and runs reusing earlier bits in reverse order
    (twin-second).  Lengths are pipe counts, not affine forms, since a
    witness exists only at one channel point.
    """
    first_use: dict[int, int] = {}
    runs: list[dict] = []
    for p, bit in enumerate(assign.pipe_to_bit):
        if bit is None:
            kind = ZERO
        elif bit not in first_use:
            first_use[bit] = p
            kind = "fresh"
        else:
            kind = "reuse"
        if runs and runs[-1]["kind"] == kind and _extends_run(runs[-1], bit):
            runs[-1]["count"] += 1
            runs[-1]["last_bit"] = bit
        else:
            runs.append({"kind": kind, "count": 1, "first_bit": bit, "last_bit": bit})

    twins = {bit for bit, pipes in enumerate(assign.bit_pipes()) if len(pipes) == 2}
    blocks = []
    symbol = 0
    symbol_of_first_bit: dict[int, int] = {}
    for run in runs:
        if run["kind"] == ZERO:
            blocks.append({"count": run["count"], "role": ZERO})
            continue
        if run["kind"] == "fresh":
            symbol += 1
            symbol_of_first_bit[run["first_bit"]] = symbol
            twinned = any(b in twins for b in range(run["first_bit"], run["last_bit"] + 1))
            role = TWIN_FIRST if twinned else SINGLE
            blocks.append({"count": run["count"], "role": f"{role}:{symbol}"})
        else:
            sym = symbol_of_first_bit.get(run["last_bit"], 0)
            blocks.append({"count": run["count"], "role": f"{TWIN_SECOND}:{sym}"})
    return blocks


def _extends_run(run: dict, bit: int | None) -> bool:
    if run["kind"] == ZERO:
        return bit is None
    if bit is None or run["last_bit"] is None:
        return False
    step = 1 if run["kind"] == "fresh" else -1
    return bit == run["last_bit"] + step
