"""Region catalog over the (alpha, beta) parameter square.

Each catalog row prints a polygon in offset coordinates (eps, delta) around
a family anchor, an exact symmetric-rate formula and an ordered list of
transmit block lengths (fractions of N).  The catalog ships as a checked-in
JSON file of rational strings so every entry can be reviewed line by line.
Loading folds each row once into an `IntegerForm`, so a `RegionSpec` is its
id, anchor and integer form, and revalidates all structural invariants,
failing loudly.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .exactmath import (Affine2, DeticError, HalfPlane, Rat, TableInvalidError, as_count, as_rat,
                        format_rat, parse_rat)


class OutOfSquareError(DeticError):
    """(alpha, beta) outside [1,2] x [0,1]."""


def point_weights(alpha: Rat, beta: Rat) -> tuple[int, int, int]:
    """Integer weights (q*s, p*s, r*q) of the point (alpha, beta) = (p/q, r/s)."""
    q, s = alpha.denominator, beta.denominator
    return q * s, alpha.numerator * s, beta.numerator * q


def _dot(f: tuple[int, int, int], w: tuple[int, int, int]) -> int:
    return f[0] * w[0] + f[1] * w[1] + f[2] * w[2]


def _total(forms: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    return tuple(map(sum, zip((0, 0, 0), *forms)))


_EMPTY = range(0)  # shared: most line columns of `IntegerForm.column` are empty


@dataclass(frozen=True)
class IntegerForm:
    """A region's half-planes, rate and block lengths in absolute coordinates times one
    common denominator `den`, as integer triples (k, a, b).  Weights w (w0 > 0) stand
    for (w1/w0, w2/w0), where a triple is (k*w0 + a*w1 + b*w2) / (den*w0)."""

    den: int
    sides: tuple[tuple[int, int, int, bool], ...]  # (k, a, b, strict)
    rate: tuple[int, int, int]
    blocks: tuple[tuple[int, int, int], ...]

    @cached_property
    def vertices(self) -> tuple[tuple[int, int, int], ...]:
        """Weights of the closure's vertices, sorted by (alpha, beta); () when the
        closure is unbounded, empty, or has all its vertices on one line."""
        grads = [(a, b) for _, a, b, _ in self.sides]
        # Bounded iff no ray d has a.d >= 0 on every side; in 2-D such a ray, if
        # any, can be taken along some side's boundary line.
        for gx, gy in grads:
            for dx, dy in ((gy, -gx), (-gy, gx)):
                if (dx or dy) and all(a * dx + b * dy >= 0 for a, b in grads):
                    return ()
        verts = set()
        for (k, a, b, _), (k2, a2, b2, _) in combinations(self.sides, 2):
            w = (a * b2 - b * a2, b * k2 - k * b2, k * a2 - a * k2)  # where both lines meet
            if w[0]:
                g = math.gcd(*w) if w[0] > 0 else -math.gcd(*w)
                w = (w[0] // g, w[1] // g, w[2] // g)
                if self.contains(w, closure=True):
                    verts.add(w)
        # A flat closure has at most two: a side that holds on a segment and is 0
        # inside it is 0 along all of it, so two such sides never cross there.
        if len(verts) < 3:
            return ()
        return tuple(sorted(verts, key=lambda w: (Fraction(w[1], w[0]), Fraction(w[2], w[0]))))

    @cached_property
    def box(self) -> tuple[Rat, Rat, Rat, Rat]:
        """Bounding box of the closure: its alpha range, then its beta range."""
        alpha = [Fraction(w[1], w[0]) for w in self.vertices]
        beta = [Fraction(w[2], w[0]) for w in self.vertices]
        return min(alpha), max(alpha), min(beta), max(beta)

    def span(self, w0: int) -> tuple[range, range]:
        """The integers w1 and w2 whose ratios to w0 lie in the closure's alpha and beta ranges."""
        a_lo, a_hi, b_lo, b_hi = self.box
        return (
            range(-(-a_lo.numerator * w0 // a_lo.denominator), a_hi.numerator * w0 // a_hi.denominator + 1),
            range(-(-b_lo.numerator * w0 // b_lo.denominator), b_hi.numerator * w0 // b_hi.denominator + 1),
        )

    def column(
        self, w0: int, w1: int, rows: range, printed: bool = False, line: tuple[int, int, int] | None = None
    ) -> range:
        """The w2 of `rows` (a range of positive step) where (w0, w1, w2) lies strictly inside,
        or inside with each side's strictness as printed, and on the line c.w = 0 if given.
        At row j a side is c + d*j, and c + d*j >= 0 is c + 1 + d*j > 0: each side bounds j
        from one side by floor division (or, with d = 0, keeps or empties the column)."""
        start, step = rows.start, rows.step
        lo, hi = 0, len(rows) - 1
        if line:  # c.w = t + d*j is 0 at one row at most, unless d = 0
            c0, c1, c2 = line
            t, d = c0 * w0 + c1 * w1 + c2 * start, c2 * step
            if t % d if d else t:
                return _EMPTY
            if d:
                lo, hi = max(lo, -t // d), min(hi, -t // d)
        for k, a, b, strict in self.sides:
            c, d = k * w0 + a * w1 + b * start + (printed and not strict), b * step
            if d > 0:
                lo = max(lo, -c // d + 1)
            elif d < 0:
                hi = min(hi, (c - 1) // -d)
            elif c <= 0:
                return _EMPTY
        return range(start + lo * step, start + (hi + 1) * step, step)

    def contains(self, w: tuple[int, int, int], closure: bool = False) -> bool:
        """Membership, strictness as printed or relaxed (closure); strict v > 0 is v >= 1 (True)."""
        w0, w1, w2 = w
        for k, a, b, strict in self.sides:
            if k * w0 + a * w1 + b * w2 < (strict and not closure):
                return False
        return True

    def rate_at(self, w: tuple[int, int, int]) -> Rat:
        return Fraction(_dot(self.rate, w), self.den * w[0])

    def minimal_n(self, w: tuple[int, int, int]) -> int:
        """Least common denominator of alpha, beta and every block length."""
        big = self.den * w[0]
        nums = (k * w[0] + a * w[1] + b * w[2] for k, a, b in self.blocks)
        dens = (big // math.gcd(v, big) for v in nums)
        return math.lcm(w[0] // math.gcd(w[1], w[0]), w[0] // math.gcd(w[2], w[0]), *dens)

    def block_counts(self, w: tuple[int, int, int], n: int) -> list[int]:
        """Block lengths times N, exact when minimal_n(w) divides N."""
        big = self.den * w[0]
        return [(k * w[0] + a * w[1] + b * w[2]) * n // big for k, a, b in self.blocks]


@dataclass(frozen=True)
class RegionSpec:
    """A catalog row as its id, anchor and integer form, which together give back
    every printed coefficient exactly (`offset`); equality and hash use all four."""

    id: str
    anchor_alpha: Rat
    anchor_beta: Rat
    form: IntegerForm

    def offset(self, f: tuple[int, int, int]) -> Affine2:
        """The integer triple f of `form` as the row prints it, in offsets around
        the anchor: (k + a*alpha0 + b*beta0)/den, a/den and b/den."""
        k, a, b = f
        c0 = k + a * self.anchor_alpha + b * self.anchor_beta
        return Affine2(*(Fraction(c, self.form.den) for c in (c0, a, b)))

    @cached_property
    def block_lens(self) -> tuple[Affine2, ...]:
        """The block lengths as printed."""
        return tuple(map(self.offset, self.form.blocks))


@dataclass(frozen=True)
class ClassifyResult:
    alpha: Rat
    beta: Rat
    region: RegionSpec | None
    eps: Rat | None
    delta: Rat | None
    dsym_value: Rat | None

    @property
    def covered(self) -> bool:
        return self.region is not None


def load_region_table(path: str | os.PathLike | None = None) -> tuple[RegionSpec, ...]:
    """Load and validate the catalog, preserving printed row order.

    The built-in catalog is parsed once per process (the table is immutable);
    an explicit path is read on every call.  Raises TableInvalidError on a
    non-path, the empty path (`Path` reads it as the current directory), a
    file that cannot be read and a file that is not JSON text."""
    if path is None:
        return _builtin_table()
    if not isinstance(path, (str, os.PathLike)):
        raise TableInvalidError(f"cannot read region table: {type(path).__name__} is not a path")
    if path == "":
        raise TableInvalidError("cannot read region table '': the path is empty")
    try:
        text = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # missing, a directory, unreadable, a NUL byte
        reason = getattr(exc, "strerror", None) or exc
        raise TableInvalidError(f"cannot read region table {path!r}: {reason}") from None
    return _parse_table(text)


@cache
def _builtin_table() -> tuple[RegionSpec, ...]:
    return _parse_table(resources.files("detic.data").joinpath("regions.json").read_text())


def _parse_table(text: str | bytes) -> tuple[RegionSpec, ...]:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # not JSON, or bytes in no UTF encoding
        raise TableInvalidError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise TableInvalidError("catalog must be a non-empty JSON list of rows")

    regions = []
    seen: set[str] = set()
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            raise TableInvalidError(f"row {i}: expected a JSON object, got {type(row).__name__}")
        rid = row.get("id", "<missing id>")
        try:
            spec = _parse_row(row)
        except Exception as exc:
            raise TableInvalidError(f"row {rid}: {exc}") from exc
        if spec.id in seen:
            raise TableInvalidError(f"row {spec.id}: duplicate region id")
        seen.add(spec.id)
        _validate_row(spec)
        regions.append(spec)
    return tuple(regions)


_JSON_TYPES = {"list": list, "object": dict, "boolean": bool}


def _field(obj: dict, key: str, json_type: str | None = None):
    """obj[key], refusing a missing key or a value not of the named JSON type."""
    if key not in obj:
        raise TableInvalidError(f"missing field {key!r}")
    if json_type and not isinstance(obj[key], _JSON_TYPES[json_type]):
        raise TableInvalidError(f"{key} must be a JSON {json_type}, got {obj[key]!r}")
    return obj[key]


def _parse_row(row: dict) -> RegionSpec:
    """Parse a row and fold its printed forms, given in offsets (eps, delta)
    around the anchor, into absolute integer triples over one denominator."""
    rid, anchor = _field(row, "id"), _field(row, "anchor")
    if not isinstance(rid, str) or not re.fullmatch(r"[A-Za-z0-9_]+", rid):
        raise TableInvalidError(f"region id must be letters, digits and _, got {rid!r}")
    if not isinstance(anchor, list) or len(anchor) != 2:
        raise TableInvalidError(f"anchor must be a list of two rationals, got {anchor!r}")
    a0, b0 = parse_rat(anchor[0]), parse_rat(anchor[1])
    halfplanes = []
    for c in _field(row, "constraints", "list"):
        if not isinstance(c, dict):
            raise TableInvalidError(f"a constraint must be a JSON object, got {c!r}")
        strict = _field(c, "strict", "boolean")
        halfplanes.append(HalfPlane(Affine2.from_strings(_field(c, "expr")), strict))
    forms = [h.expr for h in halfplanes]
    forms += map(Affine2.from_strings, [_field(row, "dsym"), *_field(row, "blocks", "list")])
    absolute = [(f.c0 - f.c_eps * a0 - f.c_delta * b0, f.c_eps, f.c_delta) for f in forms]
    den = math.lcm(*(c.denominator for f in absolute for c in f))
    ints = [tuple(int(c * den) for c in f) for f in absolute]
    m = len(halfplanes)
    sides = tuple((*f, h.strict) for f, h in zip(ints, halfplanes))
    return RegionSpec(rid, a0, b0, IntegerForm(den, sides, ints[m], tuple(ints[m + 1 :])))


def _validate_row(spec: RegionSpec) -> None:
    if not spec.form.blocks:
        raise TableInvalidError(f"row {spec.id}: empty block list")
    total = _total(spec.form.blocks)
    if total != (spec.form.den, 0, 0):
        raise TableInvalidError(
            f"row {spec.id}: block lengths sum to "
            f"{spec.offset(total).to_strings()} instead of the constant 1"
        )
    if not spec.form.vertices:
        raise TableInvalidError(f"row {spec.id}: polygon closure is not a 2-D polytope")
    a_lo, a_hi, b_lo, b_hi = spec.form.box
    if a_lo < 1 or a_hi > 2 or b_lo < 0 or b_hi > 1:
        raise TableInvalidError(
            f"row {spec.id}: closure spans alpha in [{format_rat(a_lo)}, {format_rat(a_hi)}], "
            f"beta in [{format_rat(b_lo)}, {format_rat(b_hi)}], outside [1,2] x [0,1]"
        )


def check_square(alpha: Rat, beta: Rat) -> tuple[Rat, Rat]:
    alpha, beta = as_rat(alpha, "alpha"), as_rat(beta, "beta")
    if not 1 <= alpha <= 2 or not 0 <= beta <= 1:
        raise OutOfSquareError(
            f"(alpha, beta) = ({format_rat(alpha)}, {format_rat(beta)}) "
            "outside [1,2] x [0,1]"
        )
    return alpha, beta


def classify(alpha: Rat, beta: Rat, table: Iterable[RegionSpec] | None = None) -> ClassifyResult:
    """First catalog row (in printed order) containing the point, strictness as printed."""
    alpha, beta = check_square(alpha, beta)
    table = load_region_table() if table is None else tuple(table)
    w = point_weights(alpha, beta)
    for spec in table:
        if spec.form.contains(w):
            eps, delta = alpha - spec.anchor_alpha, beta - spec.anchor_beta
            return ClassifyResult(alpha, beta, spec, eps, delta, spec.form.rate_at(w))
    return ClassifyResult(alpha, beta, None, None, None, None)


def dsym_at(alpha: Rat, beta: Rat, table: Iterable[RegionSpec] | None = None) -> Rat | None:
    """Symmetric rate per pipe at a point; None when the catalog does not cover it."""
    return classify(alpha, beta, table).dsym_value


def converse_bound(alpha: Rat, beta: Rat) -> Rat:
    """Information-theoretic upper bound on the symmetric rate per pipe.

    min(1, (alpha-beta)/2) when the two interference images do not overlap
    (alpha - beta >= 1), else min(1, 1 - (alpha-beta)/2).
    """
    return Fraction(*_converse(point_weights(*check_square(alpha, beta))))


def _converse(w: tuple[int, int, int]) -> tuple[int, int]:
    """The converse bound at weights w as (numerator, denominator), not reduced."""
    gap = w[1] - w[2]  # (alpha - beta) * w0
    bound = gap if gap >= w[0] else 2 * w[0] - gap  # times 2 * w0
    return min(bound, 2 * w[0]), 2 * w[0]


def _ratio(num: int, den: int) -> str:
    """format_rat(Fraction(num, den)) for den > 0, without the Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


@dataclass
class ConsistencyReport:
    """Outcome of a rate-agreement audit over shared region boundaries."""

    points_checked: int = 0
    multi_region_points: int = 0
    violations: list[tuple[Rat, Rat, list[tuple[str, Rat]]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def boundary_consistency(
    samples: int = 0,
    seed: int = 0,
    grid_denominator: int | None = None,
    table: Iterable[RegionSpec] | None = None,
) -> ConsistencyReport:
    """Audit that overlapping region closures agree on the rate formula.

    Checks `samples` random rational points and, when `grid_denominator` is
    given, every point of the 1/denominator-spaced grid over the square.
    Violations are reported, never patched.  Raises NotACountError on a bad count.
    """
    import random

    d = None if grid_denominator is None else as_count(grid_denominator, "grid_denominator", 1)
    table = load_region_table() if table is None else tuple(table)
    rng = random.Random(seed)
    points = []  # weights of (1 + i/d, j/d): (d, d + i, j)
    for _ in range(as_count(samples, "samples")):
        den = rng.randint(1, 60)
        points.append((den, den + rng.randint(0, den), rng.randint(0, den)))
    if d:
        points += [(d, d + i, j) for i in range(d + 1) for j in range(d + 1)]
    report = ConsistencyReport(points_checked=len(points))
    for w in points:
        matches = [s for s in table if s.form.contains(w, closure=True)]
        if len(matches) >= 2:
            report.multi_region_points += 1
            # A rate is n / (den * w0) and w0 is shared: n/den == n'/den' by cross-multiplying.
            rates = [(_dot(s.form.rate, w), s.form.den) for s in matches]
            n0, d0 = rates[0]
            if any(n * d0 != n0 * d for n, d in rates[1:]):
                values = [(s.id, s.form.rate_at(w)) for s in matches]
                report.violations.append((Fraction(w[1], w[0]), Fraction(w[2], w[0]), values))
    return report


def atlas_rows(grid: int, table: Iterable[RegionSpec] | None = None) -> list[dict]:
    """Classification of a grid x grid rational lattice over the square.

    Each row carries exact "p/q" strings; uncovered points use region "-"
    and an empty rate field.  Column i (alpha = 1 + i/g, g = grid - 1) has
    weights (g, g + i, j): one `IntegerForm.column` solve per region gives the
    j it holds as printed, and each j goes to the first region in printed
    order that holds it.
    """
    grid = as_count(grid, "grid", 2)
    table = load_region_table() if table is None else tuple(table)
    g = grid - 1
    betas = [_ratio(j, g) for j in range(grid)]
    rows = []
    for i in range(grid):
        w1 = g + i
        owner: list[RegionSpec | None] = [None] * grid
        left = grid
        for spec in table:
            for j in spec.form.column(g, w1, range(grid), printed=True):
                if owner[j] is None:
                    owner[j] = spec
                    left -= 1
            if not left:
                break
        alpha = _ratio(w1, g)
        for j, spec in enumerate(owner):
            w = (g, w1, j)  # (1 + i/g, j/g), inside the square by construction
            rows.append(
                {
                    "alpha": alpha,
                    "beta": betas[j],
                    "region": "-" if spec is None else spec.id,
                    "dsym": "" if spec is None else _ratio(_dot(spec.form.rate, w), spec.form.den * g),
                    "converse": _ratio(*_converse(w)),
                }
            )
    return rows
