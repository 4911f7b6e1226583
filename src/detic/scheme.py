"""Turn a catalog region into a concrete bit-pipe coding scheme.

A region row only prints the ordered block lengths of the transmit vector;
which blocks carry data, which are zero, and which form repeated ("twin")
pairs is reconstructed by a constrained search: a candidate role set must
make the distinct-data length sum match the region's rate formula
symbolically, and must decode (rank criterion and peeling) at the region's
validation points (see `_validation_weights`).  Derived layouts are frozen
into data/layouts.json for reproducibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from importlib import resources
from itertools import chain, combinations, permutations
from typing import Iterable, Iterator

import numpy as np

from .channel import ChannelParams, make_channel
from .exactmath import Affine2, Rat, format_rat
from .gf2 import DimensionMismatchError, to_bits
from .regions import RegionSpec, _dot, _interior_rows, _total, point_weights

Weights = tuple[int, int, int]  # (w0, w1, w2) for the point (w1/w0, w2/w0)

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

    @property
    def pipe_hi(self) -> int:
        return self.pipe_lo + self.count  # exclusive


@dataclass(frozen=True)
class AssignmentMatrix:
    """Shared pipe-to-message-bit map; at most one bit reference per pipe."""

    n: int
    m: int
    pipe_to_bit: tuple[int | None, ...]
    segments: tuple[Segment, ...]
    """The blocks that tile pipes 0..N-1.  A layout's follow its printed
    block order, bottom-up (`build_assignment`); a search witness's follow
    pipe order, top-down (`oracle.assignment_from_labels`)."""
    region_id: str | None = None

    @cached_property
    def _gather(self) -> np.ndarray:
        """Each pipe's index into the message with a 0 appended (zero pipes read the 0)."""
        return np.array([self.m if j is None else j for j in self.pipe_to_bit], dtype=np.intp)

    def encode(self, message) -> np.ndarray:
        """The N-pipe uint8 transmit vectors of m-bit messages: (..., m) to (..., N).

        Raises DimensionMismatchError unless the last axis has m entries, and
        NotBinaryError on an entry other than 0 or 1.
        """
        message = np.asarray(message)
        if message.shape[-1:] != (self.m,):
            raise DimensionMismatchError(f"message shape {message.shape} != (..., {self.m})")
        padded = np.zeros((*message.shape[:-1], self.m + 1), dtype=np.uint8)
        padded[..., : self.m] = to_bits(message, "message")
        return np.take(padded, self._gather, axis=-1)


def _closure_weights(region: RegionSpec, alpha: Fraction, beta: Fraction) -> Weights:
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
    w = _closure_weights(region, Fraction(alpha), Fraction(beta))
    need = region.form.minimal_n(w)
    if n % need != 0:
        raise NonIntegralBlocksError(
            f"N = {n} gives non-integral pipe counts in region {region.id}; "
            f"minimal valid N is {need}",
            minimal_n=need,
        )
    return _block_counts(region, w, n)


def _block_counts(region: RegionSpec, w: Weights, n: int) -> list[int]:
    """Per-block pipe counts at N, a multiple of the point's minimal N; raises
    OutsideRegionError where a block length is negative."""
    counts = region.form.block_counts(w, n)
    for length, c in zip(region.block_lens, counts):
        if c < 0:
            raise OutsideRegionError(
                f"block length {length.to_strings()} negative at "
                f"({format_rat(Fraction(w[1], w[0]))}, {format_rat(Fraction(w[2], w[0]))})"
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
    nothing.  Raises ValueError when the layout's block lengths are not the
    region's.
    """
    _check_blocks(layout, region)
    return _fill_pipes(layout, instantiate(region, alpha, beta, n), n)


def _check_blocks(layout: Layout, region: RegionSpec) -> None:
    """Raises ValueError unless the layout's block lengths are the region's."""
    if tuple(length for length, _ in layout.blocks) != region.block_lens:
        raise ValueError(f"layout {layout.region_id}: block lengths differ from region {region.id}")


def _fill_pipes(layout: Layout, counts: Iterable[int], n: int) -> AssignmentMatrix:
    pipe_to_bit: list[int | None] = [None] * n
    segments: list[Segment] = []
    first_bit_lo: dict[int, int] = {}  # symbol -> first bit of the twin-first copy
    next_bit = 0
    pipe_hi = n
    for (_, role), count in zip(layout.blocks, counts, strict=True):
        pipe_lo = pipe_hi - count
        if role.kind in (SINGLE, TWIN_FIRST):
            if role.kind == TWIN_FIRST:
                first_bit_lo[role.symbol_id] = next_bit
            pipe_to_bit[pipe_lo:pipe_hi] = range(next_bit, next_bit + count)
            next_bit += count
        elif role.kind == TWIN_SECOND:
            bit_lo = first_bit_lo[role.symbol_id]
            pipe_to_bit[pipe_lo:pipe_hi] = range(bit_lo + count - 1, bit_lo - 1, -1)
        segments.append(Segment(pipe_lo, count, role))
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
    """A validation point ready for checking any layout of its region: the channel (K = 3)
    at its minimal N, each block's pipe count, and the rank verdicts by `rank_key`."""

    ch: ChannelParams
    counts: tuple[int, ...]
    ranks: dict = field(default_factory=dict, compare=False, repr=False)

    def assignment(self, layout: Layout) -> AssignmentMatrix:
        return _fill_pipes(layout, self.counts, self.ch.n)

    def rank_key(self, layout: Layout) -> tuple[tuple[str, int | None], ...]:
        """Roles of the blocks with pipes here; they fix the pipe map (twin copies match)."""
        return tuple((r.kind, r.symbol_id) for (_, r), c in zip(layout.blocks, self.counts) if c)


def check_points(region: RegionSpec) -> list[CheckPoint]:
    """The region's validation points, each instantiated once; the pipe counts
    depend only on the block lengths, which every layout of the region shares."""
    out = []
    for w in _validation_weights(region):
        n = region.form.minimal_n(w)
        ch = make_channel(3, n, Fraction(w[1], w[0]), Fraction(w[2], w[0]))
        out.append(CheckPoint(ch, tuple(_block_counts(region, w, n))))
    return out


@dataclass
class ValidityReport:
    region_id: str
    checks: list[tuple[str, bool, str]]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def check_validity(layout: Layout, region: RegionSpec) -> ValidityReport:
    """The three symbolic validity conditions of a transmit layout, on the
    region's integer form: block i's length is `form.blocks[i]` and its role
    the layout's.  Raises ValueError when the layout's block lengths are not
    the region's."""
    _check_blocks(layout, region)
    form, offset = region.form, region.offset
    lens = form.blocks
    # An affine length is least at a vertex of the closure, so the vertices suffice.
    bad = [offset(f).to_strings() for f in lens if any(_dot(f, w) < 0 for w in form.vertices)]
    total = _total(lens)
    data = (SINGLE, TWIN_FIRST)  # each twin pair counts once
    distinct = _total(f for f, (_, role) in zip(lens, layout.blocks) if role.kind in data)
    checks = [
        (
            "non-negative lengths",
            not bad,
            "all block lengths >= 0 on the region closure" if not bad else f"negative: {bad}",
        ),
        ("lengths sum to one", total == (form.den, 0, 0), f"sum = {offset(total).to_strings()}"),
        (
            "distinct data equals rate",
            distinct == form.rate,
            f"distinct sum = {offset(distinct).to_strings()}, rate = {offset(form.rate).to_strings()}",
        ),
    ]
    return ValidityReport(layout.region_id, checks)


# ---------------------------------------------------------------------------
# Role inference
# ---------------------------------------------------------------------------


def _layouts(region: RegionSpec) -> Iterator[Layout]:
    """Every layout of the region's blocks that satisfies the rate identity
    (singles and twin firsts sum to its rate), in canonical order.

    The blocks are walked in printed order; each block not already taken as
    a twin second tries single, then twin with each later free block of equal
    length (nearest first), then zero.  Symbols are numbered by first
    appearance, and a twin second shares its first copy's symbol.

    From block i on, the data adds a subset sum of the lengths of blocks
    i, i + 1, ...; a subtree whose missing rate is no such sum holds no
    layout and is skipped, so the candidates and their order stay the same.
    """
    lens, values = region.block_lens, region.form.blocks
    role = cache(BlockRole)  # made once per call, shared by the candidates
    roles: list[BlockRole | None] = [None] * len(lens)
    reach = [{(0, 0, 0)}]  # reach[i]: every subset sum of values[i:]
    for k, a, b in reversed(values):
        reach.insert(0, reach[0] | {(k + x, a + y, b + z) for x, y, z in reach[0]})

    def rec(i: int, symbol: int, missing: tuple[int, int, int]) -> Iterator[Layout]:
        if missing not in reach[i]:
            return
        if i == len(lens):  # reach[i] is {(0, 0, 0)}: the rate is met
            yield Layout(region.id, tuple(zip(lens, roles)))
            return
        if roles[i] is not None:  # a twin second
            yield from rec(i + 1, symbol, missing)
            return
        k, a, b = values[i]
        data = (missing[0] - k, missing[1] - a, missing[2] - b)
        roles[i] = role(SINGLE, symbol)
        yield from rec(i + 1, symbol + 1, data)
        for j in range(i + 1, len(lens)):
            if roles[j] is None and values[j] == values[i]:
                roles[i], roles[j] = role(TWIN_FIRST, symbol), role(TWIN_SECOND, symbol)
                yield from rec(i + 1, symbol + 1, data)
                roles[j] = None
        roles[i] = role(ZERO)
        yield from rec(i + 1, symbol, missing)
        roles[i] = None

    yield from rec(0, 1, region.form.rate)


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
_BLOCK_RATIOS = (1, 3)


def _validation_weights(region: RegionSpec) -> list[Weights]:
    """Gcd-reduced weights of the non-degenerate decodability checkpoints
    covering the whole region, each once.

    Closure vertices and the midpoint of every pair of them (in the
    quadrilaterals Bb, Eb and Ed, 4 on edges and 2 on diagonals) pin the
    boundary; the interior sample and the interior points of the
    denominator-12 and -20 lattices pin the inside, and the block-ratio
    points of `_ratio_points` pin the lines through it on which a lattice has
    no point.  Lattice and ratio points come last, up to minimal N =
    _GRID_N_CAP, cheapest first so unfit candidates fail fast.  Sparser sets
    twice let a wrong role assignment through: it decoded at every point of
    the set yet failed elsewhere in the interior.
    """
    verts = region.form.vertices
    mids = [
        (2 * u[0] * v[0], u[1] * v[0] + v[1] * u[0], u[2] * v[0] + v[2] * u[0])
        for u, v in combinations(verts, 2)
    ]
    # All in the closure, which is convex; drop alpha = 1 and beta = 1, where
    # `degenerate_channel_point` holds.
    points = [w for w in chain(verts, mids) if w[0] != w[1] and w[0] != w[2]]
    points.append(_least_interior(region))
    grid = (w for den in _GRID_DENOMINATORS for w in _interior_lattice(region, den))
    points += sorted(w for w in chain(grid, _ratio_points(region)) if w[0] <= _GRID_N_CAP)
    reduced = (tuple(x // math.gcd(*w) for x in w) for w in points)
    return list(dict.fromkeys(reduced))  # any point can repeat an earlier one


def interior_sample(region: RegionSpec) -> tuple[Rat, Rat]:
    """(eps, delta) of the strictly interior point of least minimal N, then
    least alpha, then least beta: the first point of `_interior_weights`.
    Raises NoValidLayoutError when no interior point has N <= _GRID_N_CAP.
    The pinned points of `load_frozen_interiors` may differ."""
    w = _least_interior(region)
    return Fraction(w[1], w[0]) - region.anchor_alpha, Fraction(w[2], w[0]) - region.anchor_beta


def _least_interior(region: RegionSpec) -> Weights:
    w = next(_interior_weights(region), None)
    if w is None:
        raise NoValidLayoutError(f"region {region.id}: no interior point with N <= {_GRID_N_CAP}")
    return w


def _ratio_points(region: RegionSpec) -> Iterator[Weights]:
    """Weights (N, A, B) at the minimal N, per ordered pair of blocks and
    ratio r in _BLOCK_RATIOS, of the first point of `_interior_weights` on
    the line where the first block has r times the second's pipes.  Such
    lines can miss a lattice: the Ee layout frozen before they were added
    failed on them and nowhere else."""
    lines = set()
    for len_i, len_j in permutations(region.form.blocks, 2):
        for r in _BLOCK_RATIOS:
            c = [x - r * y for x, y in zip(len_i, len_j)]
            g = math.gcd(*c)
            if not g:
                continue  # block i is r times block j everywhere
            line = max(tuple(x // g for x in c), tuple(-x // g for x in c))
            values = [_dot(line, w) for w in region.form.vertices]
            if line in lines or min(values) >= 0 or max(values) <= 0:
                continue  # seen before, or it misses the open region
            lines.add(line)
            w = next(_interior_weights(region, line), None)
            if w is not None:
                yield w


def _interior_weights(
    region: RegionSpec, line: tuple[int, int, int] | None = None
) -> Iterator[Weights]:
    """Weights (N, A, B) of every strictly interior point (A/N, B/N) whose
    minimal N is N, for N = 1 ... _GRID_N_CAP, in (N, A, B) order.  A line c
    keeps only the points where the integer v = c0*N + c1*A + c2*B is 0, so
    it adds two bounds to each column: v + 1 > 0 and 1 - v > 0.  With no
    line, v is 0 everywhere."""
    c0, c1, c2 = line or (0, 0, 0)
    a_lo, a_hi, b_lo, b_hi = region.form.box
    for n in range(1, _GRID_N_CAP + 1):
        rows = _multiples(b_lo, b_hi, n)
        for a in _multiples(a_lo, a_hi, n):
            t = c0 * n + c1 * a  # v = t + c2*B
            if c2 and t % c2:
                continue  # no integer B has v = 0
            bounds = [(t + 1, c2), (1 - t, -c2)]
            bounds += [(k * n + sa * a, sb) for k, sa, sb, _ in region.form.sides]
            for b in _interior_rows(bounds, rows):
                if region.form.minimal_n((n, a, b)) == n:
                    yield n, a, b


def _multiples(lo: Rat, hi: Rat, n: int) -> range:
    """The integers x with lo <= x / n <= hi."""
    return range(-(-lo.numerator * n // lo.denominator), hi.numerator * n // hi.denominator + 1)


def _interior_lattice(region: RegionSpec, den: int) -> Iterator[Weights]:
    """Weights (N, A, B) at the minimal N of every strictly interior point of
    the region on the offset lattice (i/den, j/den) of its bounding box, in
    (alpha, beta) order."""
    a_lo, a_hi, b_lo, b_hi = region.form.box
    alpha, beta = region.anchor_alpha, region.anchor_beta
    a0, a1, a2 = point_weights(alpha, beta)
    w0, w2 = a0 * den, a2 * den  # w = anchor + (i, j)/den = (w0, w1, w2 + a0*j)
    rows = _multiples(b_lo - beta, b_hi - beta, den)
    for i in _multiples(a_lo - alpha, a_hi - alpha, den):
        w1 = a1 * den + a0 * i
        bounds = [(k * w0 + a * w1 + b * w2, b * a0) for k, a, b, _ in region.form.sides]
        for j in _interior_rows(bounds, rows):
            n = region.form.minimal_n((w0, w1, w2 + a0 * j))
            yield n, w1 * n // w0, (w2 + a0 * j) * n // w0


def rank_assignments(layout: Layout, points: list[CheckPoint]) -> list[AssignmentMatrix] | None:
    """The layout's assignment at every point when each passes the rank criterion, else None
    at the first point that fails (at once, with no pipes filled, if its key failed there)."""
    # Imported here: oracle consumes the types defined above.
    from .oracle import rank_decodable

    assigns = []
    for point in points:
        key = point.rank_key(layout)
        if point.ranks.get(key) is False:
            return None
        assigns.append(point.assignment(layout))
        if key not in point.ranks:
            point.ranks[key] = rank_decodable(point.ch, assigns[-1])
        if not point.ranks[key]:
            return None
    return assigns


def _decodes_everywhere(layout: Layout, points: list[CheckPoint]) -> bool:
    """Rank at every point, then peel at every point.  Peeling implies rank,
    so ranking first only spares the peels of a candidate that some later
    point refutes.  Only the peel's success is read, so no program is
    emitted."""
    from .decode import peel_succeeds

    assigns = rank_assignments(layout, points)
    return assigns is not None and all(
        peel_succeeds(assign, point.ch, 1) for point, assign in zip(points, assigns)
    )


def infer_roles(region: RegionSpec) -> Layout:
    """First role assignment (canonical order) that satisfies the rate
    identity symbolically and decodes at every validation point."""
    points = check_points(region)
    for layout in _layouts(region):
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
    entries, rid = data["blocks"], data["region"]
    if len(entries) != len(region.block_lens):
        raise ValueError(f"layout {rid}: {len(entries)} blocks, region has {len(region.block_lens)}")
    for i, entry in enumerate(entries):
        if Affine2.from_strings(entry["len"]) != region.block_lens[i]:
            raise ValueError(f"layout {rid}: block {i} length mismatch")
    roles = (BlockRole(*_parse_role(entry["role"])) for entry in entries)
    return Layout(str(rid), tuple(zip(region.block_lens, roles)))


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
    """Pinned interior probe point per region id: the `interior` entries of
    layouts.json, which tools/freeze_layouts.py carries over (a new region gets
    its `interior_sample`), so the cases built on them stay put."""
    return {
        entry["region"]: (Fraction(entry["interior"][0]), Fraction(entry["interior"][1]))
        for entry in _read_frozen()
        if "interior" in entry
    }


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
