"""The (N, alpha, beta) cyclically symmetric binary deterministic channel.

Each of K >= 3 sender/receiver pairs feeds N bit pipes; receivers observe 2N
levels (level 1 is the top).  A receiver hears its own sender's zero-padded
input in the bottom half, the next pair's input shifted up by (alpha-1)N, and
the previous pair's input shifted down by (1-beta)N, XORed together.
Cross-link strengths alpha in [1,2] and beta in [0,1] must give integral
shifts at the chosen N.

`paths` is the one placement rule: it says where each of a receiver's three
senders lands.  The simulator (`transmit`), the receiver views and peeling
schedules of `decode`, and the rank oracle all place pipes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactmath import Rat, as_count, format_rat
from .gf2 import BitVec, DimensionMismatchError, to_bits

DIRECT = "direct"
V_PATH = "v"
W_PATH = "w"


class BadShapeError(ValueError):
    """Channel parameters violate a validity constraint."""


@dataclass(frozen=True)
class ChannelParams:
    k: int
    n: int
    alpha: Rat
    beta: Rat

    # Cached: `paths` reads the shifts on every placement, and each costs a
    # few microseconds of Fraction arithmetic.
    @cached_property
    def up_shift(self) -> int:
        """Integral upshift (alpha-1)N applied to the next pair's signal."""
        return int((self.alpha - 1) * self.n)

    @cached_property
    def down_shift(self) -> int:
        """Integral downshift (1-beta)N applied to the previous pair's signal."""
        return int((1 - self.beta) * self.n)

    @cached_property
    def surviving_pipes(self) -> int:
        """Number of top pipes that survive the downshift, beta*N."""
        return int(self.beta * self.n)

    def to_json_dict(self) -> dict:
        return {
            "K": self.k,
            "N": self.n,
            "alpha": format_rat(self.alpha),
            "beta": format_rat(self.beta),
        }


def make_channel(k: int, n: int, alpha, beta) -> ChannelParams:
    """Validate and build channel parameters; raises NotACountError unless K
    and N are integers, and BadShapeError with any other violated clause."""
    k, n = as_count(k, "K"), as_count(n, "N")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if k < 3:
        raise BadShapeError(f"K >= 3 required, got K = {k}")
    if n < 1:
        raise BadShapeError(f"N >= 1 required, got N = {n}")
    if not 1 <= alpha <= 2:
        raise BadShapeError(f"alpha in [1, 2] required, got {format_rat(alpha)}")
    if not 0 <= beta <= 1:
        raise BadShapeError(f"beta in [0, 1] required, got {format_rat(beta)}")
    if (alpha * n).denominator != 1:
        raise BadShapeError(f"alpha*N must be an integer, got {format_rat(alpha * n)}")
    if (beta * n).denominator != 1:
        raise BadShapeError(f"beta*N must be an integer, got {format_rat(beta * n)}")
    return ChannelParams(k, n, alpha, beta)


def paths(ch: ChannelParams, receiver: int) -> list[tuple[str, int, int, int]]:
    """(path, sender, 0-based level of pipe 0, pipes that land) per path of a receiver.

    Pipe p of the path's sender lands at level base + p for p below the count:
    the direct path is the zero-padded input in the bottom N levels, the V
    path (sender receiver+1) sits (alpha-1)N higher, and the W path (sender
    receiver-1) sits (1-beta)N lower, so only its top beta*N pipes stay
    inside the 2N window.  The geometry is the same at every receiver.
    """
    if not 1 <= receiver <= ch.k:
        raise DimensionMismatchError(f"receiver {receiver} outside 1..{ch.k}")
    return [
        (DIRECT, receiver, ch.n, ch.n),
        (V_PATH, receiver % ch.k + 1, ch.n - ch.up_shift, ch.n),
        (W_PATH, (receiver - 2) % ch.k + 1, ch.n + ch.down_shift, ch.surviving_pipes),
    ]


def transmit(ch: ChannelParams, inputs: list[BitVec]) -> np.ndarray:
    """All K received signals; receiver i hears senders i (direct), i+1 (up), i-1 (down).

    The inputs (a list or a (K, N) array) must hold N entries of 0 or 1 each
    (NotBinaryError otherwise); the output is one (K, 2N) uint8 array whatever
    the input dtype, row i - 1 holding receiver i's word.
    """
    if len(inputs) != ch.k:
        raise DimensionMismatchError(f"need {ch.k} inputs, got {len(inputs)}")
    try:
        x = np.asarray(inputs)
    except ValueError:  # ragged: the inputs differ in shape
        x = None
    if x is None or x.shape != (ch.k, ch.n):
        bad = next(np.shape(v) for v in inputs if np.shape(v) != (ch.n,))
        raise DimensionMismatchError(f"input shape {bad} != N = {ch.n}")
    x = to_bits(x, "input")
    y = np.zeros((ch.k, 2 * ch.n), dtype=np.uint8)
    # Every receiver has the same geometry, so one path is one slice-XOR over
    # all rows: receiver row i hears sender row (i + shift) mod K, which is
    # one slice of rows, or two where the rotation wraps.
    for _, sender, base, count in paths(ch, 1):
        shift = sender - 1
        levels = slice(base, base + count)
        y[: ch.k - shift, levels] ^= x[shift:, :count]
        if shift:
            y[ch.k - shift :, levels] ^= x[:shift, :count]
    return y


def interleave_expand(ch: ChannelParams, l_uses: int) -> ChannelParams:
    """Parameters of the channel seen by stride-interleaved supersymbols over
    L uses; raises NotACountError unless L is an integer."""
    l_uses = as_count(l_uses, "L")
    if l_uses < 1:
        raise BadShapeError(f"L >= 1 required, got {l_uses}")
    return ChannelParams(ch.k, ch.n * l_uses, ch.alpha, ch.beta)


def interleave(vectors: list[BitVec]) -> BitVec:
    """Stride-interleave L equal-length vectors: pipe p of use l -> super-pipe p*L + l.

    With this bit order, applying the channel per use and interleaving the
    outputs equals one use of the expanded channel on interleaved inputs.
    Takes 1-D array-likes of one length (DimensionMismatchError otherwise)
    holding 0 or 1 (NotBinaryError otherwise).
    """
    try:
        x = np.asarray(vectors)
    except ValueError:  # ragged: the vectors differ in shape
        x = None
    if x is None or x.ndim != 2:
        raise DimensionMismatchError("interleave needs one or more 1-D vectors of one length")
    return to_bits(x, "interleaved vector").T.flatten()


def deinterleave(v: BitVec, l_uses: int) -> list[BitVec]:
    """Inverse of interleave; raises NotACountError unless L is an integer."""
    l_uses, v = as_count(l_uses, "L"), np.asarray(v)
    if v.ndim != 1 or l_uses < 1 or v.shape[0] % l_uses != 0:
        raise DimensionMismatchError(f"shape {v.shape} not divisible into {l_uses} uses")
    return list(to_bits(v, "interleaved vector").reshape(-1, l_uses).T.copy())
