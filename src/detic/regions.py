"""Region catalog over the (alpha, beta) parameter square.

Each region is a polygon in offset coordinates (eps, delta) around a family
anchor, carrying an exact symmetric-rate formula and an ordered list of
transmit block lengths (fractions of N).  The catalog ships as a checked-in
JSON file of rational strings so every entry can be reviewed line by line;
loading revalidates all structural invariants and fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .exactmath import (
    Affine2,
    HalfPlane,
    Polygon,
    Rat,
    affine_eval,
    format_rat,
    polygon_contains,
    polygon_has_interior,
    polygon_vertices,
)


class TableInvalidError(ValueError):
    """A catalog row violates a structural invariant."""


class OutOfSquareError(ValueError):
    """(alpha, beta) outside [1,2] x [0,1]."""


@dataclass(frozen=True)
class RegionSpec:
    id: str
    anchor_alpha: Rat
    anchor_beta: Rat
    polygon: Polygon
    dsym: Affine2
    block_lens: tuple[Affine2, ...]

    def offset(self, alpha: Rat, beta: Rat) -> tuple[Rat, Rat]:
        """Anchor-relative coordinates (eps, delta) of an absolute point."""
        return Fraction(alpha) - self.anchor_alpha, Fraction(beta) - self.anchor_beta

    def contains(self, alpha: Rat, beta: Rat, closure: bool = False) -> bool:
        eps, delta = self.offset(alpha, beta)
        return polygon_contains(self.polygon, eps, delta, closure)

    def vertices_absolute(self) -> tuple[tuple[Rat, Rat], ...]:
        """Closure vertices translated back to absolute (alpha, beta)."""
        return tuple(
            (self.anchor_alpha + e, self.anchor_beta + d)
            for e, d in polygon_vertices(self.polygon)
        )


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


def _builtin_table_text() -> str:
    return resources.files("detic.data").joinpath("regions.json").read_text()


def load_region_table(path: str | Path | None = None) -> tuple[RegionSpec, ...]:
    """Load and validate the catalog, preserving printed row order.

    The built-in catalog is parsed once per process (the table is immutable);
    an explicit path is read on every call.
    """
    if path is None:
        return _builtin_table()
    return _parse_table(Path(path).read_text())


@cache
def _builtin_table() -> tuple[RegionSpec, ...]:
    return _parse_table(_builtin_table_text())


def _parse_table(text: str) -> tuple[RegionSpec, ...]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableInvalidError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise TableInvalidError("catalog must be a non-empty JSON list of rows")

    regions = []
    seen: set[str] = set()
    for row in raw:
        rid = row.get("id", "<missing id>")
        try:
            spec = _parse_row(row)
        except TableInvalidError:
            raise
        except Exception as exc:
            raise TableInvalidError(f"row {rid}: {exc}") from exc
        if spec.id in seen:
            raise TableInvalidError(f"row {spec.id}: duplicate region id")
        seen.add(spec.id)
        _validate_row(spec)
        regions.append(spec)
    return tuple(regions)


def _parse_row(row: dict) -> RegionSpec:
    anchor = row["anchor"]
    halfplanes = [
        HalfPlane(Affine2.from_strings(c["expr"]), bool(c["strict"]))
        for c in row["constraints"]
    ]
    return RegionSpec(
        id=str(row["id"]),
        anchor_alpha=Fraction(anchor[0]),
        anchor_beta=Fraction(anchor[1]),
        polygon=Polygon(halfplanes),
        dsym=Affine2.from_strings(row["dsym"]),
        block_lens=tuple(Affine2.from_strings(b) for b in row["blocks"]),
    )


def _validate_row(spec: RegionSpec) -> None:
    if not spec.block_lens:
        raise TableInvalidError(f"row {spec.id}: empty block list")
    total = Affine2.const(0)
    for b in spec.block_lens:
        total = total + b
    if total != Affine2.const(1):
        raise TableInvalidError(
            f"row {spec.id}: block lengths sum to "
            f"{total.to_strings()} instead of the constant 1"
        )
    if not polygon_has_interior(spec.polygon):
        raise TableInvalidError(f"row {spec.id}: polygon closure is not a 2-D polytope")


def check_square(alpha: Rat, beta: Rat) -> tuple[Rat, Rat]:
    alpha = Fraction(alpha)
    beta = Fraction(beta)
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
    for spec in table:
        eps, delta = spec.offset(alpha, beta)
        if polygon_contains(spec.polygon, eps, delta):
            return ClassifyResult(alpha, beta, spec, eps, delta, affine_eval(spec.dsym, eps, delta))
    return ClassifyResult(alpha, beta, None, None, None, None)


def dsym_at(alpha: Rat, beta: Rat, table: Iterable[RegionSpec] | None = None) -> Rat | None:
    """Symmetric rate per pipe at a point; None when the catalog does not cover it."""
    return classify(alpha, beta, table).dsym_value


def converse_bound(alpha: Rat, beta: Rat) -> Rat:
    """Information-theoretic upper bound on the symmetric rate per pipe.

    min(1, (alpha-beta)/2) when the two interference images do not overlap
    (alpha - beta >= 1), else min(1, 1 - (alpha-beta)/2).
    """
    alpha, beta = check_square(alpha, beta)
    gap = alpha - beta
    bound = gap / 2 if gap >= 1 else 1 - gap / 2
    return min(Fraction(1), bound)


@dataclass
class ConsistencyReport:
    """Outcome of a rate-agreement audit over shared region boundaries."""

    points_checked: int = 0
    multi_region_points: int = 0
    violations: list[tuple[Rat, Rat, list[tuple[str, Rat]]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _audit_point(alpha: Rat, beta: Rat, table: tuple[RegionSpec, ...], report: ConsistencyReport) -> None:
    report.points_checked += 1
    matches: list[tuple[str, Rat]] = []
    for spec in table:
        eps, delta = spec.offset(alpha, beta)
        if polygon_contains(spec.polygon, eps, delta, closure=True):
            matches.append((spec.id, affine_eval(spec.dsym, eps, delta)))
    if len(matches) >= 2:
        report.multi_region_points += 1
        if len({v for _, v in matches}) > 1:
            report.violations.append((alpha, beta, matches))


def boundary_consistency(
    samples: int = 0,
    seed: int = 0,
    grid_denominator: int | None = None,
    table: Iterable[RegionSpec] | None = None,
) -> ConsistencyReport:
    """Audit that overlapping region closures agree on the rate formula.

    Checks `samples` random rational points and, when `grid_denominator` is
    given, every point of the 1/denominator-spaced grid over the square.
    Violations are reported, never patched.
    """
    import random

    table = load_region_table() if table is None else tuple(table)
    report = ConsistencyReport()
    rng = random.Random(seed)
    for _ in range(samples):
        den = rng.randint(1, 60)
        alpha = 1 + Fraction(rng.randint(0, den), den)
        beta = Fraction(rng.randint(0, den), den)
        _audit_point(alpha, beta, table, report)
    if grid_denominator:
        d = grid_denominator
        for i in range(d + 1):
            for j in range(d + 1):
                _audit_point(1 + Fraction(i, d), Fraction(j, d), table, report)
    return report


def atlas_rows(grid: int, table: Iterable[RegionSpec] | None = None) -> list[dict]:
    """Classification of a grid x grid rational lattice over the square.

    Each row carries exact "p/q" strings; uncovered points use region "-"
    and an empty rate field.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    table = load_region_table() if table is None else tuple(table)
    rows = []
    for i in range(grid):
        alpha = 1 + Fraction(i, grid - 1)
        for j in range(grid):
            beta = Fraction(j, grid - 1)
            res = classify(alpha, beta, table)
            rows.append(
                {
                    "alpha": format_rat(alpha),
                    "beta": format_rat(beta),
                    "region": res.region.id if res.covered else "-",
                    "dsym": format_rat(res.dsym_value) if res.covered else "",
                    "converse": format_rat(converse_bound(alpha, beta)),
                }
            )
    return rows
