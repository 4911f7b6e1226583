"""Receiver-side model: block placement and a successive peeling decoder.

Peeling runs a fixpoint at single-bit granularity with two rules:

* a receive level with exactly one unknown contributing pipe reveals that
  pipe's message bit (a bit revealed through one twin copy is thereby known
  in the other copy);
* a level whose unknowns reduce to exactly two bits pins down their XOR as a
  known aggregate, which cancels at other levels where the same two bits
  reappear (twin copies land aligned at several levels).

The second rule is required: several catalog rows place twin pairs so that
the pair is only ever observed through its sum, which is then removable
elsewhere.  An aggregate needs no rule that reveals one endpoint from the
other: it forms at a level whose unknowns are exactly its two bits, and that
level stays open while it has two or more unknowns, so the pass that first
knows one endpoint reads the other from it.  (Closing a level once a known
pair cancels its unknowns would need that third rule back.)  Both rules are
value-independent, so the schedule is deterministic and identical for every
transmitted message; the whole decoder remains a restricted linear solver
(success still implies rank decodability).
Passes use snapshot semantics: a pass only consumes knowledge committed by
earlier passes.  Success means the receiver's own pair's message bits are all
known; interference is only ever decoded as a means of removal.

The schedule is therefore compiled into a `PeelProgram`: the fixpoint runs
without bit values and tracks each bit and aggregate as the XOR of the
received levels it came from, so the own bits and every consistency check are
rows of a sparse GF(2) matrix over the received word, replayed as a gather
and XOR of levels on one word or on a stack of words at once.  Bit j of
sender s is the int id (s - 1)*m + j, an aggregate an int key of its two ids.
The compile places each level's contributors once, in a level table, and a
pass scans only the open levels: one whose contributors are all known, or
will be after the pass, yields its check once and leaves the scan.  A level
hears one pipe per path (direct, up, down) from three distinct senders
(K >= 3), so cancelling a known aggregate there is a lookup of at most three pairs.

The channel is cyclically symmetric (`channel.paths` gives every receiver the
same geometry), so a channel has one schedule, compiled for receiver 1 on the
first use of any of its receiver views.  Receiver R's word is receiver 1's
with the messages rotated, so its program is that schedule relabelled: the
same matrix, sender s read as sender s + R - 1 (mod K) in the trace and in
the messages of failed checks.  Where the compile breaks a tie by sender
label (smallest pair first), the tie is thus taken relative to the receiver;
no receiver compiles its own.  By the same symmetry receiver 1's view decodes
sender R's bits from receiver R's word, so one view decodes a whole stack of
`transmit` output.  A view places its blocks, which only the renderer reads,
on first use too.

Role inference asks only whether a schedule succeeds: `peel_succeeds` runs
the same fixpoint and reads whether every own bit is known, emitting no
trace, matrix or origins.

Every assignment has segments (a search witness's are its blocks).  A trace
step groups a pass's resolved bits by sender and by their segment's symbol;
a symbol with a twin-first segment is a twin.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelParams, paths
from .exactmath import DeticError, as_count
from .gf2 import BitVec, DimensionMismatchError, to_bits
from .scheme import TWIN_FIRST, TWIN_SECOND, AssignmentMatrix

RULE_DIRECT = "direct-readout"
RULE_TWIN = "twin-peel"
RULE_MIXED = "mixed"


class InconsistentSignalError(DeticError):
    """Received word is not in the code's image."""


@dataclass(frozen=True)
class PlacedBlock:
    """A transmit segment as seen at a receiver (levels and pipes 1-based)."""

    sender: int
    path: str
    symbol_id: int
    level_top: int
    length: int
    pipe_lo: int
    orientation: str  # forward | reversed


@dataclass(frozen=True)
class ReceiverView:
    receiver: int
    params: ChannelParams
    assign: AssignmentMatrix

    @cached_property
    def program(self) -> PeelProgram:
        """The peeling schedule: the channel's, relabelled for this receiver."""
        return _rotate(_channel_program(self.assign, self.params), self.params.k, self.receiver)

    @cached_property
    def blocks(self) -> tuple[PlacedBlock, ...]:
        """Every data segment of the three contributing signals, placed where
        `channel.paths` puts their pipes.  Segments straddling the bottom of
        the 2N window are clipped; zero segments are omitted."""
        blocks: list[PlacedBlock] = []
        for path, sender, base, limit in paths(self.params, self.receiver):
            for seg in self.assign.segments:
                if not seg.role.is_data or seg.count == 0:
                    continue
                count = min(seg.count, limit - seg.pipe_lo)
                if count <= 0:
                    continue
                blocks.append(
                    PlacedBlock(
                        sender=sender,
                        path=path,
                        symbol_id=seg.role.symbol_id,
                        level_top=base + seg.pipe_lo + 1,
                        length=count,
                        pipe_lo=seg.pipe_lo + 1,
                        orientation="reversed" if seg.role.kind == TWIN_SECOND else "forward",
                    )
                )
        return tuple(blocks)


@dataclass(frozen=True, slots=True)
class PeelStep:
    pass_index: int
    rule: str
    sender: int
    symbol_id: int


@dataclass(frozen=True)
class DecodeTrace:
    steps: tuple[PeelStep, ...]

    @property
    def passes(self) -> int:
        return max((s.pass_index for s in self.steps), default=0)

    def rule_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.rule] = out.get(s.rule, 0) + 1
        return out


def receiver_view(assign: AssignmentMatrix, ch: ChannelParams, receiver: int) -> ReceiverView:
    """One receiver's view of an assignment on a channel; its blocks and its
    program are built on first use.  Raises at once NotACountError unless the
    receiver is an integer >= 1, and DimensionMismatchError when N differs or
    the receiver is above K."""
    receiver = as_count(receiver, "receiver", 1)
    if assign.n != ch.n:
        raise DimensionMismatchError(f"assignment N = {assign.n} != channel N = {ch.n}")
    paths(ch, receiver)
    return ReceiverView(receiver, ch, assign)


def _symbols(assign: AssignmentMatrix) -> tuple[list[int | None], set[int], Counter]:
    """Each bit's symbol, the twin symbols (those with a twin-first segment),
    and each symbol's bit count, all read from the segment roles."""
    bit_symbol: list[int | None] = [None] * assign.m
    twins = set()
    for seg in assign.segments:
        if seg.role.is_data:
            for bit in assign.pipe_to_bit[seg.pipe_lo : seg.pipe_hi]:
                bit_symbol[bit] = seg.role.symbol_id
        if seg.role.kind == TWIN_FIRST:
            twins.add(seg.role.symbol_id)
    return bit_symbol, twins, Counter(bit_symbol)


# Failed-check messages by origin kind; an origin is (kind, a, b).
_LEVEL_DISAGREES, _BIT_CONFLICT, _AGGREGATE_CONFLICT, _QUIET_LEVEL = range(4)
_MESSAGES = (
    "level {0}: received word disagrees with decoded bits",
    "bit {1} of sender {0} resolves to conflicting values",
    "level {0}: aggregate resolves to conflicting values",
    "level {0}: nonzero outside all blocks",
)
_RULE_ORDER = {RULE_DIRECT: 0, RULE_TWIN: 1, RULE_MIXED: 2}
_PAIRS = (None, None, ((0, 1),), ((0, 1), (0, 2), (1, 2)))  # of 2 or 3 sorted unknowns, in order


@dataclass(frozen=True)
class PeelProgram:
    """One receiver's peeling schedule, compiled against its received word y.

    Row i of the sparse GF(2) matrix (CSR, int32) is the XOR of the 0-based
    levels indices[indptr[i]:indptr[i + 1]] of y.  The first `own` rows are
    the receiver's own bits (all m on success, none otherwise); each later
    row is a consistency check, in execution order, that must read 0 (a
    repeat can never fail first, so it is dropped), its failure named by
    `origins[j]` = (kind, a, b).  The last checks are one per level that no
    data pipe reaches.
    """

    success: bool
    trace: DecodeTrace
    own: int
    indptr: np.ndarray
    indices: np.ndarray
    origins: np.ndarray


def _csr(masks: list[int], quiet: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows from level sets held as int masks (bit l set = level l), then
    one single-level row per quiet level."""
    indptr = [0]
    indices: list[int] = []
    for mask in masks:
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        indptr.append(len(indices))
    indptr += range(len(indices) + 1, len(indices) + len(quiet) + 1)
    indices += quiet
    return np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32)


@lru_cache(maxsize=16)
def _channel_program(assign: AssignmentMatrix, ch: ChannelParams) -> PeelProgram:
    """The channel's one schedule, compiled for receiver 1 (the views of one
    channel are made together, so a few entries cover them)."""
    return _compile(assign, ch, 1)


def _rotate(program: PeelProgram, k: int, receiver: int) -> PeelProgram:
    """Receiver 1's program relabelled for `receiver`: same matrix, sender s
    read as sender s + receiver - 1 (mod K), steps re-sorted in each pass."""
    if receiver == 1:
        return program

    def sender(s):
        return (s + receiver - 2) % k + 1

    steps = sorted(
        (replace(st, sender=sender(st.sender)) for st in program.trace.steps),
        key=lambda st: (st.pass_index, _RULE_ORDER[st.rule], st.sender, st.symbol_id),
    )
    origins = program.origins
    conflict = origins[:, 0] == _BIT_CONFLICT
    if conflict.any():
        origins = origins.copy()
        origins[conflict, 1] = sender(origins[conflict, 1])
    return replace(program, trace=DecodeTrace(tuple(steps)), origins=origins)


def _compile(assign: AssignmentMatrix, ch: ChannelParams, receiver: int) -> PeelProgram:
    """Run the fixpoint once, then emit its program: the own-bit rows, the
    checks in execution order, one row per quiet level, and the trace."""
    levels, known, checks, passes = _fixpoint(assign, ch, receiver)
    symbols = _symbols(assign)
    steps = [st for i, resolved in enumerate(passes, 1) for st in _pass_steps(resolved, i, symbols)]
    own = known[(receiver - 1) * assign.m : receiver * assign.m]
    if None in own:
        own = []
    # Every level that data reaches was checked once its contributors were
    # all known; the rest of the residual is that no other level reads 1.
    quiet = [level0 for level0, contributors in enumerate(levels) if not contributors]
    indptr, indices = _csr(own + list(checks), quiet)
    origins = list(checks.values()) + [(_QUIET_LEVEL, level0 + 1, 0) for level0 in quiet]
    return PeelProgram(
        success=len(own) == assign.m,
        trace=DecodeTrace(tuple(steps)),
        own=len(own),
        indptr=indptr,
        indices=indices,
        origins=np.array(origins, dtype=np.int32).reshape(-1, 3),
    )


def peel_succeeds(assign: AssignmentMatrix, ch: ChannelParams, receiver: int) -> bool:
    """Whether peeling recovers the receiver's own bits, as
    `_compile(assign, ch, receiver).success` says, from the fixpoint alone:
    no trace, matrix or origins are emitted.  Raises DimensionMismatchError
    when N differs or the receiver is outside 1..K."""
    if assign.n != ch.n:
        raise DimensionMismatchError(f"assignment N = {assign.n} != channel N = {ch.n}")
    known = _fixpoint(assign, ch, receiver)[1]
    return None not in known[(receiver - 1) * assign.m : receiver * assign.m]


def _fixpoint(assign: AssignmentMatrix, ch: ChannelParams, receiver: int) -> tuple:
    """The value-free fixpoint.  Each known bit or aggregate is an int mask of
    the received levels whose XOR is its value; a check is a mask whose XOR
    must be 0.  Returns the level table, the known bits' masks, the checks
    (mask -> origin, in execution order) and each pass's resolved bits
    (bit -> mask).

    Bit j of sender s is the id (s - 1)*m + j, `known[id]` its mask or None, and ids
    u < v key their aggregate as u*K*m + v; both sort as (sender, bit) tuples do.
    `levels[l]` lists the ids on level l, placed once through `channel.paths`.  A pass
    walks only the open levels: a level leaves when it has no unknown (its mask is fixed
    and checked) or one (which this pass resolves, so it would next read 0 or repeat a
    check).  A level with two or more unknowns stays open, also when a known pair
    cancels them, as a later pass can give it a new check.  That is also why a known
    aggregate never reveals an endpoint: the pair (u, v) forms at a level whose unknowns
    are exactly u and v, which stays open, so the first pass to know u resolves v there.

    A level has at most three contributors, one per path, from three distinct
    senders, hence at most three unknowns and three pairs among them.  The
    first known pair in sorted order cancels (smallest pair first), and it
    shares a bit with every other pair, so one lookup sweep is the whole
    cancellation."""
    m, width = assign.m, ch.k * assign.m
    levels: list[list[int]] = [[] for _ in range(2 * ch.n)]
    for _, s, base, limit in paths(ch, receiver):
        # One path per sender per receiver, so an id appears at most once per level.
        for level0, bit in enumerate(assign.pipe_to_bit[:limit], base):
            if bit is not None:
                levels[level0].append((s - 1) * m + bit)
    open_levels = [level0 for level0, contributors in enumerate(levels) if contributors]

    known: list[int | None] = [None] * width
    pairs: dict[int, int] = {}
    checks: dict[int, tuple[int, int, int]] = {}
    passes: list[dict[int, int]] = []

    def check(mask: int, kind: int, a: int, b: int = 0) -> None:
        if mask and mask not in checks:
            checks[mask] = (kind, a, b)

    while True:
        resolved: dict[int, int] = {}
        new_pairs: dict[int, int] = {}
        still_open = []
        for level0 in open_levels:
            acc = 1 << level0
            unknowns: list[int] = []
            for b in levels[level0]:
                mask = known[b]
                if mask is None:
                    unknowns.append(b)
                else:
                    acc ^= mask
            if len(unknowns) > 1:
                still_open.append(level0)
                unknowns.sort()
                for i, j in _PAIRS[len(unknowns)]:
                    mask = pairs.get(unknowns[i] * width + unknowns[j])
                    if mask is not None:
                        acc ^= mask
                        del unknowns[j], unknowns[i]
                        break
            if not unknowns:
                check(acc, _LEVEL_DISAGREES, level0 + 1)
            elif len(unknowns) == 1:
                b = unknowns[0]
                prior = resolved.get(b)
                if prior is not None:
                    check(prior ^ acc, _BIT_CONFLICT, b // m + 1, b % m)
                else:
                    resolved[b] = acc
            elif len(unknowns) == 2:
                key = unknowns[0] * width + unknowns[1]
                if key in new_pairs:
                    check(new_pairs[key] ^ acc, _AGGREGATE_CONFLICT, level0 + 1)
                else:  # a known pair would have been cancelled
                    new_pairs[key] = acc
        open_levels = still_open
        if not resolved and not new_pairs:
            return levels, known, checks, passes
        passes.append(resolved)
        for b, mask in resolved.items():
            known[b] = mask
        pairs.update(new_pairs)


def _pass_steps(resolved: dict, pass_index: int, symbols: tuple) -> list[PeelStep]:
    """Trace steps of one pass: the bits it resolved, grouped by (sender, symbol)."""
    bit_symbol, twin_syms, sym_size = symbols
    m = len(bit_symbol)
    # (sender, symbol) -> bits resolved
    groups = Counter((b // m + 1, bit_symbol[b % m]) for b in resolved)
    pass_steps = []
    for (s, sym), count in groups.items():
        if count == sym_size[sym]:  # the pass read out the whole symbol
            rule = RULE_DIRECT
        else:
            rule = RULE_TWIN if sym in twin_syms else RULE_MIXED
        pass_steps.append(PeelStep(pass_index, rule, s, sym))
    # Whole-symbol readouts first, then twin progress, then other partial readouts.
    pass_steps.sort(key=lambda st: (_RULE_ORDER[st.rule], st.sender, st.symbol_id))
    return pass_steps


def peel_structure(view: ReceiverView) -> tuple[bool, DecodeTrace]:
    """Value-free peeling: does the schedule recover the receiver's own bits?"""
    return view.program.success, view.program.trace


def peel_bits(view: ReceiverView, y: BitVec) -> tuple[np.ndarray | None, DecodeTrace]:
    """Replay the compiled peeling schedule on a received word, or on a stack
    of words of shape (..., 2N), each row decoded as heard at `view.receiver`.

    By cyclic symmetry receiver R's word is one that receiver 1 could hear,
    with sender R in sender 1's place, so receiver 1's own-bit rows read
    sender R's bits from it, and the check rows read 0 on every codeword.
    Returns the own m message bits as uint8, shape (..., m) (None on failure),
    and the trace.  Raises DimensionMismatchError unless the last axis has 2N
    entries, NotBinaryError on an entry other than 0 or 1, and
    InconsistentSignalError when a row is not a codeword image, naming the
    first failing check of the first failing row in row-major order.
    """
    y, width = np.asarray(y), 2 * view.params.n
    if y.shape[-1:] != (width,):
        raise DimensionMismatchError(f"received word shape {y.shape} != (..., {width})")
    y = to_bits(y, "received word")
    program = view.program
    prefix = np.zeros((*y.shape[:-1], program.indices.size + 1), np.uint8)  # empty rows read 0
    np.bitwise_xor.accumulate(np.take(y, program.indices, axis=-1), axis=-1, out=prefix[..., 1:])
    ends = np.take(prefix, program.indptr, axis=-1)
    values = ends[..., 1:] ^ ends[..., :-1]
    failed = values[..., program.own :]
    if np.count_nonzero(failed):
        kind, a, b = program.origins[failed.argmax() % failed.shape[-1]]
        raise InconsistentSignalError(_MESSAGES[kind].format(a, b))
    if not program.success:
        return None, program.trace
    return values[..., : program.own], program.trace
