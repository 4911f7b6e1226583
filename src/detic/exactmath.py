"""Exact rational scalars, 2-D affine forms, and small half-plane polygons.

Everything here is exact: scalars are `fractions.Fraction`, affine forms are
rational triples `c0 + c_eps*eps + c_delta*delta`, and polygons are finite
intersections of half-planes in the (eps, delta) plane.  No floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class UnboundedRegionError(ValueError):
    """Polygon closure is unbounded."""


class EmptyRegionError(ValueError):
    """Polygon closure is empty."""


def parse_rat(text: str) -> Rat:
    """Parse an exact rational literal, "p/q" or a bare integer."""
    s = text.strip().replace("−", "-")  # tolerate unicode minus
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rat(x: Rat) -> str:
    """Canonical "p/q" form, always with an explicit denominator ("0/1")."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Affine2:
    """Affine form c0 + c_eps*eps + c_delta*delta with rational coefficients."""

    c0: Rat
    c_eps: Rat
    c_delta: Rat

    @staticmethod
    def const(value) -> "Affine2":
        return Affine2(Fraction(value), Fraction(0), Fraction(0))

    @staticmethod
    def from_strings(triple: Sequence[str]) -> "Affine2":
        if len(triple) != 3:
            raise ValueError(f"affine form needs 3 coefficients, got {triple!r}")
        return Affine2(*(parse_rat(t) for t in triple))

    def to_strings(self) -> list[str]:
        return [format_rat(self.c0), format_rat(self.c_eps), format_rat(self.c_delta)]

    def __add__(self, other: "Affine2") -> "Affine2":
        return Affine2(self.c0 + other.c0, self.c_eps + other.c_eps, self.c_delta + other.c_delta)

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c_eps == 0 and self.c_delta == 0


def affine_eval(f: Affine2, eps: Rat, delta: Rat) -> Rat:
    """Evaluate f at the point (eps, delta), exactly."""
    return f.c0 + f.c_eps * Fraction(eps) + f.c_delta * Fraction(delta)


@dataclass(frozen=True)
class HalfPlane:
    """Constraint expr > 0 (strict) or expr >= 0 (non-strict)."""

    expr: Affine2
    strict: bool = False

    def __post_init__(self):
        if self.expr.is_zero:
            raise ValueError("half-plane expression is identically zero")

    def satisfied(self, eps: Rat, delta: Rat, closure: bool = False) -> bool:
        v = affine_eval(self.expr, eps, delta)
        if self.strict and not closure:
            return v > 0
        return v >= 0


@dataclass(frozen=True)
class Polygon:
    """Intersection of half-planes; geometry always refers to the closure."""

    halfplanes: tuple[HalfPlane, ...]

    def __init__(self, halfplanes: Iterable[HalfPlane]):
        object.__setattr__(self, "halfplanes", tuple(halfplanes))


def polygon_contains(p: Polygon, eps: Rat, delta: Rat, closure: bool = False) -> bool:
    """Membership test; with closure=True strict constraints are relaxed."""
    eps = Fraction(eps)
    delta = Fraction(delta)
    return all(h.satisfied(eps, delta, closure) for h in p.halfplanes)


def _line_intersection(f: Affine2, g: Affine2) -> tuple[Rat, Rat] | None:
    """Solve f = 0, g = 0; None when the boundary lines are parallel."""
    det = f.c_eps * g.c_delta - f.c_delta * g.c_eps
    if det == 0:
        return None
    eps = (-f.c0 * g.c_delta + g.c0 * f.c_delta) / det
    delta = (-f.c_eps * g.c0 + g.c_eps * f.c0) / det
    return eps, delta


def _is_bounded(p: Polygon) -> bool:
    # The closure is bounded iff its recession cone {d : grad(h).d >= 0} is {0}.
    # A nontrivial cone in 2-D contains a ray orthogonal to some constraint
    # gradient, so testing those candidate rays is exhaustive.
    grads = [(h.expr.c_eps, h.expr.c_delta) for h in p.halfplanes]
    if not grads:
        return False
    candidates = []
    for gx, gy in grads:
        candidates.append((gy, -gx))
        candidates.append((-gy, gx))
    for dx, dy in candidates:
        if dx == 0 and dy == 0:
            continue
        if all(gx * dx + gy * dy >= 0 for gx, gy in grads):
            return False
    return True


def polygon_vertices(p: Polygon) -> tuple[tuple[Rat, Rat], ...]:
    """Vertices of the closure, deduplicated and lexicographically sorted.

    Candidates are pairwise boundary-line intersections kept when they satisfy
    every constraint non-strictly.  Raises UnboundedRegionError or
    EmptyRegionError when the closure is not a (nonempty) polytope.
    """
    if not _is_bounded(p):
        raise UnboundedRegionError("polygon closure is unbounded")
    verts: set[tuple[Rat, Rat]] = set()
    for ha, hb in combinations(p.halfplanes, 2):
        pt = _line_intersection(ha.expr, hb.expr)
        if pt is None:
            continue
        if polygon_contains(p, pt[0], pt[1], closure=True):
            verts.add(pt)
    if not verts:
        raise EmptyRegionError("polygon closure is empty")
    return tuple(sorted(verts))


def polygon_has_interior(p: Polygon) -> bool:
    """True when the closure is a genuinely 2-D set (three affinely independent vertices)."""
    try:
        verts = polygon_vertices(p)
    except (UnboundedRegionError, EmptyRegionError):
        return False
    if len(verts) < 3:
        return False
    (x0, y0) = verts[0]
    for (x1, y1), (x2, y2) in combinations(verts[1:], 2):
        area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area2 != 0:
            return True
    return False


def affine_nonneg_on(f: Affine2, p: Polygon) -> bool:
    """True iff f >= 0 everywhere on the closure.

    An affine function attains its extrema at vertices of a polytope, so
    checking the vertex set is exact.
    """
    return all(affine_eval(f, e, d) >= 0 for e, d in polygon_vertices(p))
