"""The binary field: bit-vector input checks and the one GF(2) elimination.

A bit vector is a 1-D numpy uint8 array of {0,1}; index 0 is the top signal
level.  `to_bits` checks vectors coming into the channel and the decoder.
`pivot_bits`, behind the rank oracle, eliminates rows packed into Python ints.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exactmath import DeticError

BitVec = np.ndarray  # 1-D uint8 array of {0,1}


class DimensionMismatchError(DeticError):
    """Operand shapes are incompatible."""


class NotBinaryError(DeticError):
    """A bit vector holds an entry other than 0 or 1."""


def to_bits(v: np.ndarray, what: str) -> BitVec:
    """v as a uint8 bit vector after checking every entry is 0 or 1.

    The check comes before any cast, so a 2 or a 256 is refused, not wrapped.
    """
    if v.dtype == np.uint8:
        if v.size and v.max() > 1:
            raise NotBinaryError(f"{what} has entries outside {{0, 1}}")
        return v
    if not np.all((v == 0) | (v == 1)):
        raise NotBinaryError(f"{what} has entries outside {{0, 1}}")
    return v.astype(np.uint8)


def pivot_bits(rows: Iterable[int]) -> list[int]:
    """Leading-bit positions of an echelon basis of the span of `rows`.

    Each row is a bit set packed into a Python int, so one XOR eliminates a
    whole row at machine-word speed.  Every row is reduced by the basis row
    that owns its leading bit until it vanishes or claims a new leading bit;
    the number of positions returned is the GF(2) rank.
    """
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = v
                break
            v ^= pivot
    return list(basis)
