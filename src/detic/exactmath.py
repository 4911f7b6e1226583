"""Exact rational parsing and formatting, and the `Fraction` references.

Scalars are `fractions.Fraction`, affine forms are rational triples
`c0 + c_eps*eps + c_delta*delta`, and a polygon is the intersection of a
sequence of half-planes in the (eps, delta) plane.  The package computes on
the integer forms of `regions.IntegerForm`; `Affine2` only parses a catalog
row and prints a form back.  `affine_eval`, `HalfPlane.satisfied` and
`polygon_contains` are the plain references that tests hold those integer
forms (membership, rates, vertices, layout validity) against.  No floating
point.  All parsing of arguments is here: `as_rat` reads every rational one
and `as_count` every count; `parse_rat` is the strict grammar of the catalog
and `--alpha`.  Every refusal of the package is a `DeticError`.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Rat = Fraction


class DeticError(ValueError):
    """Base class of every refusal of bad input; any other error is a bug."""


class NotACountError(DeticError):
    """A count that is a bool, not an integer, or below its least value."""


class NotARationalError(DeticError):
    """A rational argument that is not a finite rational number or literal."""


class TableInvalidError(DeticError):
    """A catalog row or frozen layout violates a structural invariant."""


def _show(value) -> str:
    """repr(value), unless it holds an int of more than 4300 digits, which Python
    refuses to print."""
    try:
        return repr(value)
    except ValueError:
        return f"{type(value).__name__} too long to print"


def as_count(value, name: str, least: int = 0) -> int:
    """`value` as an int of at least `least`: an integer, or a float or Fraction
    of integral value.  Raises NotACountError naming `name` on a bool, a
    string or any other non-number, a non-integral value and below `least`."""
    # A bool, a complex, nan and inf are no counts; a rational of too many
    # digits is refused by `as_rat`, which names it without printing it.
    finite = isinstance(value, float) and math.isfinite(value)
    rational = isinstance(value, numbers.Rational) and not isinstance(value, bool)
    count = as_rat(value, name) if finite or rational else None
    if count is None or count.denominator != 1:
        raise NotACountError(f"{name} must be an integer, got {_show(value)}")
    if count < least:
        raise NotACountError(f"{name} >= {least} required, got {name} = {count}")
    return int(count)


# `Fraction` expands a decimal's exponent into an int digit by digit, so the
# 10 characters "1e99999999" would run for minutes.  Points of the square need
# neither bound, and within both every int stays far below Python's
# 4300-digit limit for printing.
DECIMAL_MAX_CHARS = 1000
DECIMAL_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# Python prints an int of at most 4300 digits.  An int below 10**RAT_MAX_DIGITS
# has at most RAT_MAX_BITS bits, and one of at most RAT_MAX_BITS bits has at
# most RAT_MAX_DIGITS + 1 digits, so the bit bound passes every literal that
# `parse_rat` reads and nothing that cannot be printed.
RAT_MAX_DIGITS = 4000
RAT_MAX_BITS = (10**RAT_MAX_DIGITS).bit_length()


def as_rat(value, name: str) -> Rat:
    """`value` as a Fraction: a rational number (not a bool), a finite float read
    exactly, or a string such as "8/5", "1.6" or "16e-1" within the DECIMAL_MAX_*
    bounds, of at most RAT_MAX_BITS bits a side.  Raises NotARationalError naming
    `name` on anything else."""
    if isinstance(value, Fraction):
        rat = value
    elif isinstance(value, (str, float, numbers.Rational)) and not isinstance(value, bool):
        if isinstance(value, str) and len(value) > DECIMAL_MAX_CHARS:
            raise NotARationalError(f"{name}: decimal literal longer than {DECIMAL_MAX_CHARS} characters")
        if isinstance(value, str) and (e := _EXPONENT.search(value)) and abs(int(e[1])) > DECIMAL_MAX_EXPONENT:
            raise NotARationalError(f"{name}: decimal exponent {e[1]} outside +-{DECIMAL_MAX_EXPONENT}: {value!r}")
        try:
            rat = Fraction(value)
        except ZeroDivisionError:
            raise NotARationalError(f"{name}: zero denominator: {value!r}") from None
        except (ValueError, OverflowError):  # not a literal, nan, inf
            raise NotARationalError(f"{name} must be a rational number, got {_show(value)}") from None
    else:
        raise NotARationalError(f"{name} must be a rational number, got {_show(value)}")
    if int(rat.numerator).bit_length() > RAT_MAX_BITS or int(rat.denominator).bit_length() > RAT_MAX_BITS:
        raise NotARationalError(f"{name}: numerator or denominator of more than {RAT_MAX_DIGITS} digits")
    return rat


_RAT_RE = re.compile(rf"^[+-]?\d{{1,{RAT_MAX_DIGITS}}}(/\d{{1,{RAT_MAX_DIGITS}}})?$")


def parse_rat(text: str) -> Rat:
    """Parse an exact rational literal, "p/q" or a bare integer, of at most
    RAT_MAX_DIGITS digits a side; raises NotARationalError on anything else."""
    s = text.strip().replace("−", "-") if isinstance(text, str) else ""  # tolerate unicode minus
    if not _RAT_RE.match(s):
        raise NotARationalError(f"not a rational literal: {_show(text)}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise NotARationalError(f"zero denominator: {text!r}") from None


def format_rat(x: Rat) -> str:
    """Canonical "p/q" form, always with an explicit denominator ("0/1")."""
    f = as_rat(x, "x")
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
            raise TableInvalidError(f"affine form needs a list of 3 coefficients, got {triple!r}")
        return Affine2(*(parse_rat(t) for t in triple))

    def to_strings(self) -> list[str]:
        return [format_rat(self.c0), format_rat(self.c_eps), format_rat(self.c_delta)]


def affine_eval(f: Affine2, eps: Rat, delta: Rat) -> Rat:
    """Evaluate f at the point (eps, delta), exactly."""
    return f.c0 + f.c_eps * as_rat(eps, "eps") + f.c_delta * as_rat(delta, "delta")


@dataclass(frozen=True)
class HalfPlane:
    """Constraint expr > 0 (strict) or expr >= 0 (non-strict)."""

    expr: Affine2
    strict: bool = False

    def __post_init__(self):
        if not (self.expr.c0 or self.expr.c_eps or self.expr.c_delta):
            raise TableInvalidError("half-plane expression is identically zero")

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
