"""Turn a catalog region into a concrete bit-pipe coding scheme.

A region row only prints the ordered block lengths of the transmit vector;
which blocks carry data, which are zero, and which form repeated ("twin")
pairs is reconstructed by a constrained search: a candidate role set must
make the distinct-data length sum match the region's rate formula
symbolically, and must decode (rank criterion and peeling) at the region's
closure vertices, edge midpoints, and an interior sample.  Derived layouts
are frozen into data/layouts.json for reproducibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from importlib import resources
from typing import Iterable, Iterator

import numpy as np

from .channel import ChannelParams, make_channel
from .exactmath import Affine2, Rat, affine_nonneg_on, format_rat, polygon_vertices
from .gf2 import DimensionMismatchError, to_bits
from .regions import RegionSpec, point_weights

ZERO = "zero"
SINGLE = "single"
TWIN_FIRST = "twin-first"
TWIN_SECOND = "twin-second"


class NoValidLayoutError(ValueError):
    """No role assignment satisfies the rate identity and decodes."""


class NonIntegralBlocksError(ValueError):
    """Some block length times N is not an integer; carries the minimal valid N."""

    def __init__(self, message: str, minimal_n: int):
        super().__init__(message)
        self.minimal_n = minimal_n


class OutsideRegionError(ValueError):
    """Point not in the layout's region closure."""


class PipeCountError(ValueError):
    """Pipe count N below 1."""


@dataclass(frozen=True)
class BlockRole:
    kind: str  # zero | single | twin-first | twin-second
    symbol_id: int | None = None  # None only for zero blocks; twin copies share one

    def __post_init__(self):
        if self.kind == ZERO and self.symbol_id is not None:
            raise ValueError("zero blocks carry no symbol")
        if self.kind != ZERO and self.symbol_id is None:
            raise ValueError(f"{self.kind} block needs a symbol id")

    @property
    def is_data(self) -> bool:
        return self.kind != ZERO

    def to_string(self) -> str:
        return ZERO if self.kind == ZERO else f"{self.kind}:{self.symbol_id}"


@dataclass(frozen=True)
class Layout:
    region_id: str
    blocks: tuple[tuple[Affine2, BlockRole], ...]

    def distinct_data_sum(self) -> Affine2:
        """Sum of block lengths counting each twin pair once."""
        total = Affine2.const(0)
        for length, role in self.blocks:
            if role.kind in (SINGLE, TWIN_FIRST):
                total = total + length
        return total

    def to_json_dict(self) -> dict:
        return {
            "region": self.region_id,
            "blocks": [
                {"len": length.to_strings(), "role": role.to_string()}
                for length, role in self.blocks
            ],
        }


@dataclass(frozen=True)
class Segment:
    """One instantiated block of the transmit vector (pipes are 0-based)."""

    pipe_lo: int
    count: int
    role: BlockRole
    bit_lo: int | None  # first message-bit index carried, None for zero blocks

    @property
    def pipe_hi(self) -> int:
        return self.pipe_lo + self.count  # exclusive


@dataclass(frozen=True)
class AssignmentMatrix:
    """Shared pipe-to-message-bit map; at most one bit reference per pipe."""

    n: int
    m: int
    pipe_to_bit: tuple[int | None, ...]
    segments: tuple[Segment, ...] = ()
    region_id: str | None = None

    def bit_pipes(self) -> list[list[int]]:
        """Pipes carrying each bit (one or two entries per bit)."""
        out: list[list[int]] = [[] for _ in range(self.m)]
        for p, j in enumerate(self.pipe_to_bit):
            if j is not None:
                out[j].append(p)
        return out

    @cached_property
    def _gather(self) -> np.ndarray:
        """Each pipe's index into the message with a 0 appended (zero pipes read the 0)."""
        return np.array([self.m if j is None else j for j in self.pipe_to_bit], dtype=np.intp)

    def encode(self, message) -> np.ndarray:
        """The N-pipe uint8 transmit vector of an m-bit message.

        Raises DimensionMismatchError unless the message has shape (m,), and
        NotBinaryError on an entry other than 0 or 1.
        """
        message = np.asarray(message)
        if message.shape != (self.m,):
            raise DimensionMismatchError(f"message shape {message.shape} != ({self.m},)")
        padded = np.zeros(self.m + 1, dtype=np.uint8)
        padded[: self.m] = to_bits(message, "message")
        return np.take(padded, self._gather)


def _closure_weights(region: RegionSpec, alpha: Fraction, beta: Fraction) -> tuple[int, int, int]:
    """Integer weights of (alpha, beta); raises OutsideRegionError outside the region closure."""
    w = point_weights(alpha, beta)
    if not region.form.contains(w, closure=True):
        raise OutsideRegionError(
            f"({format_rat(alpha)}, {format_rat(beta)}) outside region {region.id}"
        )
    return w


def minimal_n(region: RegionSpec, eps: Rat, delta: Rat) -> int:
    """Smallest N with integral shifts and integral pipe counts at the offset
    point (eps, delta); raises OutsideRegionError outside the region closure."""
    alpha = region.anchor_alpha + Fraction(eps)
    beta = region.anchor_beta + Fraction(delta)
    return region.form.minimal_n(_closure_weights(region, alpha, beta))


def instantiate(region: RegionSpec, alpha: Rat, beta: Rat, n: int) -> list[int]:
    """Per-block pipe counts at N, from the region's block lengths (every layout of the
    region has those); requires N >= 1 and the point in the region closure."""
    if n < 1:
        raise PipeCountError(f"N >= 1 required, got N = {n}")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    w = _closure_weights(region, alpha, beta)
    need = region.form.minimal_n(w)
    if n % need != 0:
        raise NonIntegralBlocksError(
            f"N = {n} gives non-integral pipe counts in region {region.id}; "
            f"minimal valid N is {need}",
            minimal_n=need,
        )
    counts = region.form.block_counts(w, n)
    for length, c in zip(region.block_lens, counts):
        if c < 0:
            raise OutsideRegionError(
                f"block length {length.to_strings()} negative at "
                f"({format_rat(alpha)}, {format_rat(beta)})"
            )
    assert sum(counts) == n
    return counts


def build_assignment(
    layout: Layout, region: RegionSpec, alpha: Rat, beta: Rat, n: int
) -> AssignmentMatrix:
    """Fill pipes bottom-up through the printed block order.

    The catalog lists a transmit vector's blocks starting from its weakest
    (bottom) pipe, so printed block 0 occupies the highest pipe indices; the
    rank oracle at the region sample points singles out this reading.  Singles
    and twin firsts take fresh consecutive bit indices (ascending with pipe
    index), twin seconds take their partner's indices in reverse, zeros take
    nothing.
    """
    return _fill_pipes(layout, instantiate(region, alpha, beta, n), n)


def _fill_pipes(layout: Layout, counts: Iterable[int], n: int) -> AssignmentMatrix:
    pipe_to_bit: list[int | None] = [None] * n
    segments: list[Segment] = []
    first_bit_lo: dict[int, int] = {}  # symbol -> bit_lo of the twin-first copy
    next_bit = 0
    pipe_hi = n
    for (_, role), count in zip(layout.blocks, counts):
        pipe_lo = pipe_hi - count
        bit_lo: int | None = None
        if role.kind in (SINGLE, TWIN_FIRST):
            bit_lo = next_bit
            pipe_to_bit[pipe_lo:pipe_hi] = range(next_bit, next_bit + count)
            next_bit += count
            if role.kind == TWIN_FIRST:
                first_bit_lo[role.symbol_id] = bit_lo
        elif role.kind == TWIN_SECOND:
            bit_lo = first_bit_lo[role.symbol_id]
            pipe_to_bit[pipe_lo:pipe_hi] = range(bit_lo + count - 1, bit_lo - 1, -1)
        segments.append(Segment(pipe_lo, count, role, bit_lo))
        pipe_hi = pipe_lo
    assert pipe_hi == 0
    return AssignmentMatrix(
        n=n,
        m=next_bit,
        pipe_to_bit=tuple(pipe_to_bit),
        segments=tuple(segments),
        region_id=layout.region_id,
    )


@dataclass(frozen=True)
class CheckPoint:
    """A validation point made ready for checking any layout of its region:
    the channel (K = 3) at the point's minimal N and every block's pipe count."""

    ch: ChannelParams
    counts: tuple[int, ...]

    def assignment(self, layout: Layout) -> AssignmentMatrix:
        return _fill_pipes(layout, self.counts, self.ch.n)


def check_points(region: RegionSpec) -> list[CheckPoint]:
    """The region's validation points, each instantiated once; the pipe counts
    depend only on the block lengths, which every layout of the region shares."""
    out = []
    for eps, delta in validation_points(region):
        alpha = region.anchor_alpha + eps
        beta = region.anchor_beta + delta
        n = minimal_n(region, eps, delta)
        counts = instantiate(region, alpha, beta, n)
        out.append(CheckPoint(make_channel(3, n, alpha, beta), tuple(counts)))
    return out


@dataclass
class ValidityReport:
    region_id: str
    checks: list[tuple[str, bool, str]]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def check_validity(layout: Layout, region: RegionSpec) -> ValidityReport:
    """The three symbolic validity conditions of a transmit layout."""
    checks = []

    bad = [
        length.to_strings()
        for length, _ in layout.blocks
        if not affine_nonneg_on(length, region.polygon)
    ]
    checks.append(
        (
            "non-negative lengths",
            not bad,
            "all block lengths >= 0 on the region closure" if not bad else f"negative: {bad}",
        )
    )

    total = Affine2.const(0)
    for length, _ in layout.blocks:
        total = total + length
    checks.append(
        (
            "lengths sum to one",
            total == Affine2.const(1),
            f"sum = {total.to_strings()}",
        )
    )

    distinct = layout.distinct_data_sum()
    checks.append(
        (
            "distinct data equals rate",
            distinct == region.dsym,
            f"distinct sum = {distinct.to_strings()}, rate = {region.dsym.to_strings()}",
        )
    )
    return ValidityReport(layout.region_id, checks)


# ---------------------------------------------------------------------------
# Role inference
# ---------------------------------------------------------------------------


def _role_candidates(block_lens: tuple[Affine2, ...]) -> Iterator[tuple[str | tuple[str, int], ...]]:
    """All role vectors in canonical order.

    Entry per block: ZERO, SINGLE, or ("twin", j) on the first copy with j the
    partner index (the partner entry is filled as ("twin2", i)).  Options are
    tried single first, then twins by ascending partner, then zero.
    """
    n = len(block_lens)
    roles: list = [None] * n

    def rec(i: int) -> Iterator[tuple]:
        if i == n:
            yield tuple(roles)
            return
        if roles[i] is not None:
            yield from rec(i + 1)
            return
        roles[i] = SINGLE
        yield from rec(i + 1)
        for j in range(i + 1, n):
            if roles[j] is None and block_lens[j] == block_lens[i]:
                roles[i] = ("twin", j)
                roles[j] = ("twin2", i)
                yield from rec(i + 1)
                roles[j] = None
        roles[i] = ZERO
        yield from rec(i + 1)
        roles[i] = None

    yield from rec(0)


def _to_layout(region: RegionSpec, raw_roles: tuple) -> Layout:
    """Number symbols consecutively by first appearance."""
    symbol = 0
    assigned: dict[int, int] = {}
    blocks: list[tuple[Affine2, BlockRole]] = []
    for i, raw in enumerate(raw_roles):
        length = region.block_lens[i]
        if raw == ZERO:
            blocks.append((length, BlockRole(ZERO)))
        elif raw == SINGLE:
            symbol += 1
            blocks.append((length, BlockRole(SINGLE, symbol)))
        elif raw[0] == "twin":
            symbol += 1
            assigned[i] = symbol
            blocks.append((length, BlockRole(TWIN_FIRST, symbol)))
        else:  # twin2, partner index raw[1] < i
            blocks.append((length, BlockRole(TWIN_SECOND, assigned[raw[1]])))
    return Layout(region.id, tuple(blocks))


def degenerate_channel_point(alpha: Rat, beta: Rat) -> bool:
    """True where an interference image coincides exactly with the direct signal.

    At alpha = 1 the up-shifted neighbor lands on the direct signal; at
    beta = 1 the down-shifted neighbor does.  Either way the two coincident
    contributions use the same pipe map, so no shared-assignment scheme with
    m >= 1 can be decoded there; these edges are excluded from decodability
    checks (the rate formulas on them are boundary limits).
    """
    return Fraction(alpha) == 1 or Fraction(beta) == 1


_GRID_DENOMINATORS = (12, 20)
_GRID_N_CAP = 120


def validation_points(region: RegionSpec) -> list[tuple[Rat, Rat]]:
    """Non-degenerate decodability checkpoints covering the whole region.

    Closure vertices and edge midpoints pin the boundary; the interior sample
    plus a small-denominator interior lattice (minimal N capped) pin the
    inside.  A sparser set once let a wrong role assignment through: it
    decoded at every vertex, midpoint, and one sample of its region yet
    failed elsewhere in the interior.
    """
    verts = polygon_vertices(region.polygon)
    points = list(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            points.append(
                (
                    (verts[i][0] + verts[j][0]) / 2,
                    (verts[i][1] + verts[j][1]) / 2,
                )
            )
    points = [
        (e, d)
        for e, d in points
        if region.contains(region.anchor_alpha + e, region.anchor_beta + d, closure=True)
        and not degenerate_channel_point(region.anchor_alpha + e, region.anchor_beta + d)
    ]
    points.append(interior_sample(region))
    seen = set(points)
    lattice = []
    for den in _GRID_DENOMINATORS:
        for n, eps, delta in _interior_lattice(region, den):
            if n <= _GRID_N_CAP and (eps, delta) not in seen:
                seen.add((eps, delta))
                lattice.append((n, eps, delta))
    # Cheap instances first so unfit candidates fail fast.
    points.extend((e, d) for _, e, d in sorted(lattice))
    return points


def interior_sample(region: RegionSpec) -> tuple[Rat, Rat]:
    """Deterministic strictly-interior rational point with a small minimal N.

    Scans small-denominator lattice points inside the bounding box and keeps
    the one minimizing (minimal N, denominator, eps, delta).
    """
    best: tuple[int, int, Rat, Rat] | None = None
    for den in (*range(2, 37), 40, 42, 45, 48, 60):
        for n, eps, delta in _interior_lattice(region, den):
            key = (n, den, eps, delta)
            if best is None or key < best:
                best = key
        if best is not None and best[0] <= 12:
            break
    if best is None:
        raise NoValidLayoutError(f"region {region.id}: no small interior sample found")
    return best[2], best[3]


def _strict_interior(region: RegionSpec, eps: Rat, delta: Rat) -> bool:
    return region.form.interior(point_weights(region.anchor_alpha + eps, region.anchor_beta + delta))


def _interior_lattice(region: RegionSpec, den: int) -> Iterator[tuple[int, Rat, Rat]]:
    """(minimal N, eps, delta) of every strictly interior point of the region
    on the lattice (i/den, j/den) of its bounding box, in (eps, delta) order."""
    lo_e, hi_e, lo_d, hi_d = region.box
    a0, a1, a2 = point_weights(region.anchor_alpha, region.anchor_beta)
    for i in range(math.ceil(lo_e * den), math.floor(hi_e * den) + 1):
        for j in range(math.ceil(lo_d * den), math.floor(hi_d * den) + 1):
            w = (a0 * den, a1 * den + a0 * i, a2 * den + a0 * j)  # anchor + (i, j)/den
            if region.form.interior(w):
                yield region.form.minimal_n(w), Fraction(i, den), Fraction(j, den)


def rank_assignments(layout: Layout, points: list[CheckPoint]) -> list[AssignmentMatrix] | None:
    """The layout's assignment at every point when each passes the rank
    criterion, else None (at the first point that fails)."""
    # Imported here: oracle consumes the types defined above.
    from .oracle import rank_decodable

    assigns = []
    for point in points:
        assign = point.assignment(layout)
        if not rank_decodable(point.ch, assign):
            return None
        assigns.append(assign)
    return assigns


def _decodes_everywhere(layout: Layout, points: list[CheckPoint]) -> bool:
    """Rank at every point, then peel at every point.  Peeling implies rank,
    so ranking first only spares the peel compiles of a candidate that some
    later point refutes."""
    from .decode import peel_structure, receiver_view

    assigns = rank_assignments(layout, points)
    return assigns is not None and all(
        peel_structure(receiver_view(assign, point.ch, 1))[0]
        for point, assign in zip(points, assigns)
    )


def infer_roles(region: RegionSpec) -> Layout:
    """First role assignment (canonical order) that satisfies the rate
    identity symbolically and decodes at every validation point."""
    points = check_points(region)
    lens, rate = region.form.values[2:], region.form.rate  # integer (k, a, b) triples
    for raw in _role_candidates(region.block_lens):
        # The rate identity: lengths of singles and twin firsts sum to dsym.
        c0 = c_alpha = c_beta = 0
        for (a, b, c), r in zip(lens, raw):
            if r == SINGLE or (r != ZERO and r[0] == "twin"):
                c0, c_alpha, c_beta = c0 + a, c_alpha + b, c_beta + c
        if (c0, c_alpha, c_beta) != rate:
            continue
        layout = _to_layout(region, raw)
        if _decodes_everywhere(layout, points):
            return layout
    raise NoValidLayoutError(
        f"region {region.id}: no role assignment is valid and decodable "
        "(catalog transcription error?)"
    )


# ---------------------------------------------------------------------------
# Frozen layouts
# ---------------------------------------------------------------------------


def _parse_role(text: str) -> tuple[str, int | None]:
    if text == ZERO:
        return ZERO, None
    kind, _, sym = text.partition(":")
    if kind not in (SINGLE, TWIN_FIRST, TWIN_SECOND) or not sym.isdigit():
        raise ValueError(f"bad role string: {text!r}")
    return kind, int(sym)


def layout_from_json_dict(data: dict, region: RegionSpec) -> Layout:
    blocks: list[tuple[Affine2, BlockRole]] = []
    for i, entry in enumerate(data["blocks"]):
        length = Affine2.from_strings(entry["len"])
        if length != region.block_lens[i]:
            raise ValueError(f"layout {data['region']}: block {i} length mismatch")
        blocks.append((length, BlockRole(*_parse_role(entry["role"]))))
    return Layout(str(data["region"]), tuple(blocks))


def load_frozen_layouts(table: Iterable[RegionSpec]) -> dict[str, Layout]:
    """Frozen layout per region id, validated against the given catalog;
    raises ValueError when a region's blocks differ from its frozen entry."""
    by_id = {spec.id: spec for spec in table}
    layouts = {}
    for entry in _read_frozen():
        region = by_id.get(entry["region"])
        if region is None:
            continue
        layouts[entry["region"]] = layout_from_json_dict(entry, region)
    return layouts


def load_frozen_interiors() -> dict[str, tuple[Rat, Rat]]:
    """Frozen interior sample point per region id."""
    out = {}
    for entry in _read_frozen():
        if "interior" in entry:
            out[entry["region"]] = (
                Fraction(entry["interior"][0]),
                Fraction(entry["interior"][1]),
            )
    return out


@cache
def _read_frozen() -> tuple[dict, ...]:
    """The built-in layouts.json, parsed once per process (it is immutable)."""
    return tuple(json.loads(resources.files("detic.data").joinpath("layouts.json").read_text()))


def layout_for(region: RegionSpec, frozen: dict[str, Layout] | None = None) -> Layout:
    """Frozen layout when available, otherwise a fresh derivation: a region
    whose blocks no longer match its built-in entry is re-derived."""
    if frozen is not None and region.id in frozen:
        return frozen[region.id]
    return _builtin_layout(region) or infer_roles(region)


@lru_cache(maxsize=64)
def _builtin_layout(region: RegionSpec) -> Layout | None:
    """The region's layout from the built-in layouts.json, parsed once per
    process and region (layouts are immutable); None when it has none."""
    try:
        return load_frozen_layouts([region]).get(region.id)
    except (FileNotFoundError, ValueError):
        return None
