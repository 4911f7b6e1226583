"""Independent verification: exact rank decodability and exhaustive search.

The rank criterion is decoder-agnostic: with uniform independent messages,
receiver 1 can recover its pair's bits iff the direct image A of the
assignment is injective and meets the span of the interference images B (up
path) and C (down path) trivially, i.e. rank([A|B|C]) = m + rank([B|C]).  By
cyclic symmetry with a shared assignment, receiver 1 decides all receivers.

The test is one elimination.  Each of the 2N receive levels becomes a row
packed into a Python int; path i (direct A, up B, down C) puts bit j in
column i*N + j, so the interference columns [B|C] sit above the direct
columns A whatever m is.  Leading-bit elimination then finds rank([B|C])
pivots at or above column N and rank([A|B|C]) pivots in all, so the scheme
decodes iff exactly m pivots land below N.

The search finds the largest decodable message count of the constrained
scheme class at tiny N (each pipe: zero, a fresh bit, or a second use of a
bit used once), grounding the catalog's rate values from both sides at desk
scale.  It is a depth-first search over the canonical labelings that keeps
the packed rows along its path, prunes every subtree that cannot beat the
best count so far, and stops once a labeling reaches the converse bound.
"""

from __future__ import annotations

from .channel import ChannelParams, paths
from .gf2 import pivot_bits
from .regions import converse_bound
from .scheme import SINGLE, TWIN_FIRST, TWIN_SECOND, ZERO, AssignmentMatrix

_SEARCH_N_LIMIT = 8


class SearchBudgetError(ValueError):
    """Enumeration would exceed the configured budget."""


def _placement(ch: ChannelParams) -> list[list[tuple[int, int]]]:
    """Per pipe, (row, column unit) of each path it lands on: bit j of the
    pipe goes to that row at column unit << j, path i's unit being 1 << i*N."""
    place: list[list[tuple[int, int]]] = [[] for _ in range(ch.n)]
    for i, (_, _, base, count) in enumerate(paths(ch, 1)):
        for p in range(count):
            place[p].append((base + p, 1 << (i * ch.n)))
    return place


def _decodes(rows: list[int], n: int, m: int) -> bool:
    """The rank criterion on packed rows: exactly m pivots below column N."""
    return sum(1 for top in pivot_bits(rows) if top < n) == m


def rank_decodable(ch: ChannelParams, assign: AssignmentMatrix) -> bool:
    """Exact decodability of the receiver's own bits under any linear decoder."""
    if assign.n != ch.n:
        raise ValueError(f"assignment N = {assign.n} != channel N = {ch.n}")
    rows = [0] * (2 * ch.n)
    for spots, j in zip(_placement(ch), assign.pipe_to_bit):
        if j is not None:
            for row, unit in spots:
                rows[row] |= unit << j
    return _decodes(rows, ch.n, assign.m)


def assignment_from_labels(labels: tuple[int | None, ...]) -> AssignmentMatrix:
    m = max((b for b in labels if b is not None), default=-1) + 1
    return AssignmentMatrix(n=len(labels), m=m, pipe_to_bit=labels)


def exhaustive_search(
    ch: ChannelParams, max_n: int = _SEARCH_N_LIMIT
) -> tuple[int, AssignmentMatrix]:
    """Largest decodable message count over the constrained scheme class.

    Returns (best m, first witness in canonical order).  Fresh bits are
    numbered by first appearance, and per pipe the options run zero, fresh
    bit, then reuses of singly-used bits in ascending order.  A
    subtree is skipped when its fresh bits plus its remaining pipes cannot
    beat the best m, and the search stops at the first labeling that reaches
    floor(converse * N), which no labeling can exceed.  Raises
    SearchBudgetError when N exceeds the enumeration budget.
    """
    if ch.n > max_n:
        raise SearchBudgetError(f"N = {ch.n} exceeds search budget {max_n}")
    n = ch.n
    ceiling = int(converse_bound(ch.alpha, ch.beta) * n)
    place = _placement(ch)
    rows = [0] * (2 * n)
    labels: list[int | None] = [None] * n
    best_m = -1
    best: tuple[int | None, ...] = ()

    def put(p: int, bit: int) -> None:  # XOR is its own inverse: put again to take back
        for row, unit in place[p]:
            rows[row] ^= unit << bit

    def rec(p: int, fresh: int, used_once: tuple[int, ...]) -> bool:
        """Search pipes p.. onward; True once the converse is reached."""
        nonlocal best_m, best
        if fresh + n - p <= best_m:
            return False
        if p == n:
            if _decodes(rows, n, fresh):
                best_m, best = fresh, tuple(labels)
            return best_m == ceiling
        if rec(p + 1, fresh, used_once):  # pipe p zero
            return True
        options = [(fresh, fresh + 1, used_once + (fresh,))] + [
            (bit, fresh, tuple(b for b in used_once if b != bit)) for bit in used_once
        ]
        for bit, next_fresh, next_used in options:
            labels[p] = bit
            put(p, bit)
            done = rec(p + 1, next_fresh, next_used)
            put(p, bit)
            labels[p] = None
            if done:
                return True
        return False

    rec(0, 0, ())
    # The all-zero labeling always decodes (m = 0), so best is set.
    return best_m, assignment_from_labels(best)


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
