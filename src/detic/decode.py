"""Receiver-side model: block placement and a successive peeling decoder.

Peeling runs a fixpoint at single-bit granularity with two mechanisms:

* a receive level with exactly one unknown contributing pipe reveals that
  pipe's message bit (a bit revealed through one twin copy is thereby known
  in the other copy);
* a level whose unknowns reduce to exactly two bits pins down their XOR as a
  known aggregate; aggregates cancel at other levels where the same two bits
  reappear (twin copies land aligned at several levels), and an aggregate
  with one known endpoint reveals the other.

The second mechanism is required: several catalog rows place twin pairs so
that the pair is only ever observed through its sum, which is then removable
elsewhere.  Both mechanisms are value-independent, so the schedule is
deterministic and identical for every transmitted message; the whole decoder
remains a restricted linear solver (success still implies rank decodability).
Passes use snapshot semantics: a pass only consumes knowledge committed by
earlier passes.  Success means the receiver's own pair's message bits are all
known; interference is only ever decoded as a means of removal.

The schedule is therefore compiled into a `PeelProgram`: the fixpoint runs
without bit values and tracks each bit and aggregate as the XOR of the
received levels it came from, so the own bits and every consistency check are
rows of a sparse GF(2) matrix over the received word, replayed on each word as
a gather and XOR of levels.

The channel is cyclically symmetric (`channel.paths` gives every receiver the
same geometry), so a channel has one schedule, compiled for receiver 1 on the
first use of any of its receiver views.  Receiver R's word is receiver 1's
with the messages rotated, so its program is that schedule relabelled: the
same matrix, sender s read as sender s + R - 1 (mod K) in the trace and in
the messages of failed checks.  Where the compile breaks a tie by sender
label (smallest pair first), the tie is thus taken relative to the receiver;
no receiver compiles its own.  A view places its blocks, which only the
renderer reads, on first use too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelParams, paths
from .gf2 import BitVec, DimensionMismatchError, to_bits
from .scheme import AssignmentMatrix, TWIN_FIRST, TWIN_SECOND

RULE_DIRECT = "direct-readout"
RULE_TWIN = "twin-peel"
RULE_MIXED = "mixed"


class InconsistentSignalError(ValueError):
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
    program are built on first use.  Raises DimensionMismatchError at once
    when N differs or the receiver is outside 1..K."""
    if assign.n != ch.n:
        raise DimensionMismatchError(f"assignment N = {assign.n} != channel N = {ch.n}")
    paths(ch, receiver)
    return ReceiverView(receiver, ch, assign)


def _symbols(assign: AssignmentMatrix) -> tuple[list, set[int], dict[int, tuple[int, ...]]]:
    """Each pipe's symbol, the twin symbols, and each symbol's sorted bits;
    without segment metadata (e.g. search witnesses) a bit is its own symbol."""
    if not assign.segments:
        pipe_symbol = [bit + 1 if bit is not None else 0 for bit in assign.pipe_to_bit]
        twins = {bit + 1 for bit, pipes in enumerate(assign.bit_pipes()) if len(pipes) == 2}
        return pipe_symbol, twins, {bit + 1: (bit,) for bit in range(assign.m)}
    pipe_symbol: list[int | None] = [None] * assign.n
    twins: set[int] = set()
    bits: dict[int, set[int]] = {}
    for seg in assign.segments:
        sym = seg.role.symbol_id
        pipe_symbol[seg.pipe_lo : seg.pipe_hi] = [sym] * seg.count
        if seg.role.kind in (TWIN_FIRST, TWIN_SECOND):
            twins.add(sym)
        if seg.role.is_data:
            bits.setdefault(sym, set()).update(assign.pipe_to_bit[seg.pipe_lo : seg.pipe_hi])
    return pipe_symbol, twins, {sym: tuple(sorted(b)) for sym, b in bits.items()}


Bit = tuple[int, int]  # (sender, bit index); an aggregate is keyed by its two bits, sorted

# Failed-check messages by origin kind; an origin is (kind, a, b).
_LEVEL_DISAGREES, _BIT_CONFLICT, _AGGREGATE_CONFLICT, _QUIET_LEVEL = range(4)
_MESSAGES = (
    "level {0}: received word disagrees with decoded bits",
    "bit {1} of sender {0} resolves to conflicting values",
    "level {0}: aggregate resolves to conflicting values",
    "level {0}: nonzero outside all blocks",
)
_RULE_ORDER = {RULE_DIRECT: 0, RULE_TWIN: 1, RULE_MIXED: 2}


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


def _cancel_pairs(
    unknowns: list[Bit], acc: int, pairs: dict[tuple[Bit, Bit], int], partners: dict[Bit, list[Bit]]
) -> tuple[list[Bit], int]:
    """Cancel known aggregates out of a level's unknowns, smallest pair first
    (one sorted sweep is the whole fixpoint: the live set only shrinks)."""
    live = set(unknowns)
    inside = {tuple(sorted((u, v))) for u in unknowns for v in partners.get(u, ()) if v in live}
    for u, v in sorted(inside):
        if u in live and v in live:
            live -= {u, v}
            acc ^= pairs[(u, v)]
    return sorted(live), acc


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
    """Run the fixpoint once, without bit values.  Each known bit or aggregate
    is an int mask of the received levels whose XOR is its value; a check is
    a mask whose XOR must be 0."""
    pipe_bit = assign.pipe_to_bit
    placed = paths(ch, receiver)
    base_of = {s: base for _, s, base, _ in placed}
    landing = [False] * (2 * ch.n)
    for _, _, base, limit in placed:
        for p in range(limit):
            if pipe_bit[p] is not None:
                landing[base + p] = True
    first_pipe = [pipes[0] if pipes else None for pipes in assign.bit_pipes()]
    symbols = _symbols(assign)

    known: dict[Bit, int] = {}
    pairs: dict[tuple[Bit, Bit], int] = {}
    partners: dict[Bit, list[Bit]] = {}  # pairs indexed by each endpoint
    checks: dict[int, tuple[int, int, int]] = {}  # mask -> origin, in execution order
    steps: list[PeelStep] = []

    def check(mask: int, kind: int, a: int, b: int = 0) -> None:
        if mask and mask not in checks:
            checks[mask] = (kind, a, b)

    pass_index = 0
    while True:
        pass_index += 1
        resolved: dict[Bit, tuple[int, int, int]] = {}  # bit -> (level0, pipe, mask)
        new_pairs: dict[tuple[Bit, Bit], int] = {}
        for level0, hit in enumerate(landing):
            if not hit:
                continue
            acc = 1 << level0
            unknowns: list[Bit] = []
            for _, s, base, limit in placed:
                p = level0 - base
                bit = pipe_bit[p] if 0 <= p < limit else None
                if bit is None:
                    continue
                mask = known.get((s, bit))
                if mask is None:
                    # One path per sender per receiver, so a (sender, bit)
                    # appears at most once per level.
                    unknowns.append((s, bit))
                else:
                    acc ^= mask
            if partners and len(unknowns) > 1:
                unknowns, acc = _cancel_pairs(unknowns, acc, pairs, partners)
            if not unknowns:
                check(acc, _LEVEL_DISAGREES, level0 + 1)
            elif len(unknowns) == 1:
                b = unknowns[0]
                prior = resolved.get(b)
                if prior is not None:
                    check(prior[2] ^ acc, _BIT_CONFLICT, b[0], b[1])
                else:
                    resolved[b] = (level0, level0 - base_of[b[0]], acc)
            elif len(unknowns) == 2:
                key = tuple(sorted(unknowns))
                if key in new_pairs:
                    check(new_pairs[key] ^ acc, _AGGREGATE_CONFLICT, level0 + 1)
                elif key not in pairs:
                    new_pairs[key] = acc
        # A known aggregate with one known endpoint reveals the other; the
        # first such pair in sorted order wins a target.
        for (u, v), mask in sorted(pairs.items()):
            ku, kv = known.get(u), known.get(v)
            if (ku is None) != (kv is None):
                target, source = (v, ku) if kv is None else (u, kv)
                if target not in resolved:
                    resolved[target] = (-1, first_pipe[target[1]], mask ^ source)
        if not resolved and not new_pairs:
            break
        steps += _pass_steps(resolved, pass_index, known, symbols)
        for b, (_, _, mask) in resolved.items():
            known[b] = mask
        for key, mask in new_pairs.items():
            pairs[key] = mask
            partners.setdefault(key[0], []).append(key[1])
            partners.setdefault(key[1], []).append(key[0])

    own = [known.get((receiver, bit)) for bit in range(assign.m)]
    if None in own:
        own = []
    # Levels whose contributors are all known were checked by the last pass;
    # the rest of the residual is that no other level reads 1.
    quiet = [level0 for level0, hit in enumerate(landing) if not hit]
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


def _pass_steps(resolved: dict, pass_index: int, known: dict, symbols: tuple) -> list[PeelStep]:
    """Trace steps of one pass: the bits it resolved, grouped by (sender, symbol)."""
    pipe_symbol, twin_syms, sym_bits = symbols
    groups: dict[tuple[int, int], list[int]] = {}  # -> bits
    via_pair: set[tuple[int, int]] = set()
    for (s, bit), (level0, pipe, _) in resolved.items():
        key = (s, pipe_symbol[pipe])
        groups.setdefault(key, []).append(bit)
        if level0 < 0:
            via_pair.add(key)
    pass_steps = []
    for (s, sym), bits in sorted(groups.items()):
        full = tuple(sorted(bits)) == sym_bits[sym] and not any((s, b) in known for b in bits)
        if (s, sym) in via_pair:
            rule = RULE_MIXED
        elif full:
            rule = RULE_DIRECT
        else:
            rule = RULE_TWIN if sym in twin_syms else RULE_MIXED
        pass_steps.append(PeelStep(pass_index, rule, s, sym))
    # Whole-block readouts first, then twin progress, then aggregate work.
    pass_steps.sort(key=lambda st: (_RULE_ORDER[st.rule], st.sender, st.symbol_id))
    return pass_steps


def peel_structure(view: ReceiverView) -> tuple[bool, DecodeTrace]:
    """Value-free peeling: does the schedule recover the receiver's own bits?"""
    return view.program.success, view.program.trace


def peel_bits(view: ReceiverView, y: BitVec) -> tuple[np.ndarray | None, DecodeTrace]:
    """Replay the compiled peeling schedule on an actual received word.

    Returns the receiver's own m message bits as uint8 (None on failure) and
    the trace.  Raises DimensionMismatchError unless y has 2N entries,
    NotBinaryError on an entry other than 0 or 1, and InconsistentSignalError
    (first failing check) when y is not a codeword image.
    """
    y = np.asarray(y)
    if y.shape != (2 * view.params.n,):
        raise DimensionMismatchError(f"received word shape {y.shape} != ({2 * view.params.n},)")
    y = to_bits(y, "received word")
    program = view.program
    prefix = np.zeros(program.indices.size + 1, dtype=np.uint8)  # so an empty row reads 0
    np.bitwise_xor.accumulate(np.take(y, program.indices), out=prefix[1:])
    ends = np.take(prefix, program.indptr)
    values = ends[1:] ^ ends[:-1]
    failed = values[program.own :]
    if np.count_nonzero(failed):
        kind, a, b = program.origins[failed.argmax()]
        raise InconsistentSignalError(_MESSAGES[kind].format(a, b))
    if not program.success:
        return None, program.trace
    return values[: program.own], program.trace
