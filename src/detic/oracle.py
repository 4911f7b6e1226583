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
Every assignment has segments, and a witness's segments are its blocks:
maximal runs of its pipes that share one layout role
(`assignment_from_labels`).
"""

from __future__ import annotations

from .channel import ChannelParams, paths
from .exactmath import DeticError, as_count
from .gf2 import DimensionMismatchError, pivot_bits
from .regions import converse_bound
from .scheme import SINGLE, TWIN_FIRST, TWIN_SECOND, ZERO, AssignmentMatrix, BlockRole, Segment

_SEARCH_N_LIMIT = 8


class SearchBudgetError(DeticError):
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
    """Exact decodability of the receiver's own bits under any linear decoder.
    Raises DimensionMismatchError unless the assignment's N is the channel's."""
    if assign.n != ch.n:
        raise DimensionMismatchError(f"assignment N = {assign.n} != channel N = {ch.n}")
    rows = [0] * (2 * ch.n)
    for i, (_, _, base, count) in enumerate(paths(ch, 1)):
        for p, j in enumerate(assign.pipe_to_bit[:count]):
            if j is not None:
                rows[base + p] |= 1 << (i * ch.n + j)
    return _decodes(rows, ch.n, assign.m)


def assignment_from_labels(labels: tuple[int | None, ...]) -> AssignmentMatrix:
    """A search-class pipe map as an assignment whose segments are its
    blocks, top-down.  A block is a maximal run of pipes that share one role:
    zero pipes; first uses of bits ascending by one, all used twice
    (twin-first) or all once (single), each run under the next symbol; or
    second uses of one symbol's bits descending by one (twin-second of that
    symbol).  Counts are pipes, since a witness exists at one channel point.
    """
    symbol_of: dict[int, int] = {}
    symbols = 0
    starts: list[tuple[int, BlockRole]] = []  # each block's first pipe and role
    role = follow = None  # the open block's role and the bit that would extend it
    for p, bit in enumerate(labels):
        if bit is None:
            new, after = BlockRole(ZERO), None
        elif bit in symbol_of:
            new, after = BlockRole(TWIN_SECOND, symbol_of[bit]), bit - 1
        else:
            kind = TWIN_FIRST if labels.count(bit) == 2 else SINGLE
            if role != BlockRole(kind, symbols) or bit != follow:
                symbols += 1
            new, after = BlockRole(kind, symbols), bit + 1
            symbol_of[bit] = symbols
        if new != role or bit != follow:
            starts.append((p, new))
        role, follow = new, after
    ends = [p for p, _ in starts[1:]] + [len(labels)]
    segments = tuple(Segment(lo, hi - lo, r) for (lo, r), hi in zip(starts, ends))
    return AssignmentMatrix(len(labels), max(symbol_of, default=-1) + 1, labels, segments)


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
    SearchBudgetError when N exceeds the budget `max_n` (NotACountError on a bad one).
    """
    if ch.n > (max_n := as_count(max_n, "max_n", 1)):
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

