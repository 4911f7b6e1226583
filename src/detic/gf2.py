"""Dense linear algebra over the binary field on numpy uint8 arrays.

Vectors and matrices hold {0,1} entries; index 0 is the top signal level.
All operations return fresh arrays; inputs are never modified.  Elimination
(`pivot_bits`, behind `rank` and the rank oracle) runs on rows packed into
Python ints.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

BitVec = np.ndarray  # 1-D uint8 array of {0,1}
BitMat = np.ndarray  # 2-D uint8 array of {0,1}


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class ShiftRangeError(ValueError):
    """Shift amount outside 0..len."""


class NotBinaryError(ValueError):
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


def bitvec(bits) -> BitVec:
    v = np.asarray(bits, dtype=np.uint8)
    if v.ndim != 1 or not np.all(v <= 1):
        raise ValueError("bit vector must be 1-D over {0,1}")
    return v


def bitmat(rows) -> BitMat:
    m = np.asarray(rows, dtype=np.uint8)
    if m.ndim != 2 or not np.all(m <= 1):
        raise ValueError("bit matrix must be 2-D over {0,1}")
    return m


def zeros(n: int) -> BitVec:
    return np.zeros(n, dtype=np.uint8)


def identity(n: int) -> BitMat:
    return np.eye(n, dtype=np.uint8)


def to_bit_string(v: BitVec) -> str:
    """Serialize as a 0/1 string, top bit first, e.g. "0010"."""
    return "".join("1" if b else "0" for b in v)


def from_bit_string(s: str) -> BitVec:
    if not set(s) <= {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def mat_apply(m: BitMat, v: BitVec) -> BitVec:
    """Matrix-vector product over GF(2)."""
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatchError(f"{m.shape} @ {v.shape}")
    # Promote before summing: uint8 matmul would wrap at 256.
    return np.asarray((m.astype(np.int64) @ v.astype(np.int64)) % 2, dtype=np.uint8)


def shift_up(v: BitVec, m: int) -> BitVec:
    """Move every entry m places toward the top; bits shifted above are lost."""
    if not 0 <= m <= v.shape[0]:
        raise ShiftRangeError(f"shift {m} outside 0..{v.shape[0]}")
    out = zeros(v.shape[0])
    if m < v.shape[0]:
        out[: v.shape[0] - m] = v[m:]
    return out


def shift_down(v: BitVec, m: int) -> BitVec:
    """Move every entry m places toward the bottom; bits shifted below are lost."""
    if not 0 <= m <= v.shape[0]:
        raise ShiftRangeError(f"shift {m} outside 0..{v.shape[0]}")
    out = zeros(v.shape[0])
    if m < v.shape[0]:
        out[m:] = v[: v.shape[0] - m]
    return out


def zero_pad(v: BitVec) -> BitVec:
    """Embed a length-N vector into the bottom half of 2N levels."""
    return np.concatenate([zeros(v.shape[0]), v])


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


def rank(m: BitMat) -> int:
    """GF(2) rank of a 2-D {0,1} matrix; the input is not modified."""
    packed = np.packbits(np.asarray(m, dtype=np.uint8) % 2, axis=1)
    return len(pivot_bits(int.from_bytes(row.tobytes(), "big") for row in packed))
