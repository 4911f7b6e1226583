"""Exact rational parsing and formatting, and the `Fraction` references.

Scalars are `fractions.Fraction`, affine forms are rational triples
`c0 + c_eps*eps + c_delta*delta`, and a polygon is the intersection of a
sequence of half-planes in the (eps, delta) plane.  The package computes on
the integer forms of `regions.IntegerForm`; `Affine2` only parses a catalog
row and prints a form back.  `affine_eval`, `HalfPlane.satisfied` and
`polygon_contains` are the plain references that tests hold those integer
forms (membership, rates, vertices, layout validity) against.  No floating
point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rat(text: str) -> Rat:
    """Parse an exact rational literal, "p/q" or a bare integer."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
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
    def from_strings(triple: list[str]) -> "Affine2":
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"affine form needs a list of 3 coefficients, got {triple!r}")
        return Affine2(*(parse_rat(t) for t in triple))

    def to_strings(self) -> list[str]:
        return [format_rat(self.c0), format_rat(self.c_eps), format_rat(self.c_delta)]

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


def polygon_contains(
    halfplanes: Iterable[HalfPlane], eps: Rat, delta: Rat, closure: bool = False
) -> bool:
    """Membership in the half-planes' intersection; closure=True relaxes strict ones."""
    return all(h.satisfied(eps, delta, closure) for h in halfplanes)
