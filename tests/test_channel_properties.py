"""Property tests of the channel simulator at random small channels.

Each example draws K in 3..7, N <= 12, alpha = 1 + a/N and beta = b/N with
0 <= a, b <= N (so the shifts are integral and the edges alpha = 1, 2 and
beta = 0, 1 are reachable) and random inputs.  `transmit` is checked against
a reference written level by level from the channel's definition, and L
interleaved uses against one use of the expanded channel.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.channel import interleave, interleave_expand, make_channel, transmit


@st.composite
def channels(draw) -> tuple[int, int, int, int, int]:
    """(K, N, a, b, seed): alpha = 1 + a/N shifts up by a, beta = b/N down by N - b."""
    n = draw(st.integers(1, 12))
    k, a, b = draw(st.integers(3, 7)), draw(st.integers(0, n)), draw(st.integers(0, n))
    return k, n, a, b, draw(st.integers(0, 2**32 - 1))


def reference_outputs(k: int, n: int, a: int, b: int, xs: list[list[int]]) -> list[list[int]]:
    """Receiver i at 0-based level l hears pipe l - N of sender i, pipe
    l - N + a of sender i + 1 and pipe l - N - (N - b) of sender i - 1 (mod
    K), wherever that pipe index is in 0..N-1, added modulo 2."""
    outputs = []
    for i in range(k):
        y = []
        for level in range(2 * n):
            bit = 0
            for sender, p in (
                (i, level - n),
                ((i + 1) % k, level - n + a),
                ((i - 1) % k, level - n - (n - b)),
            ):
                if 0 <= p < n:
                    bit ^= xs[sender][p]
            y.append(bit)
        outputs.append(y)
    return outputs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=channels())
@example(case=(3, 4, 0, 2, 1))  # alpha = 1: the up image is the direct one
@example(case=(4, 4, 4, 2, 2))  # alpha = 2: full up shift
@example(case=(5, 4, 2, 0, 3))  # beta = 0: the down image vanishes
@example(case=(3, 4, 2, 4, 4))  # beta = 1: no down shift
def test_transmit_matches_per_level_reference(case):
    k, n, a, b, seed = case
    ch = make_channel(k, n, 1 + F(a, n), F(b, n))
    xs = np.random.default_rng(seed).integers(0, 2, size=(k, n), dtype=np.uint8)
    got = transmit(ch, list(xs))
    assert [y.tolist() for y in got] == reference_outputs(k, n, a, b, xs.tolist())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=channels(), l_uses=st.integers(1, 4))
def test_interleaved_uses_equal_one_expanded_use(case, l_uses):
    k, n, a, b, seed = case
    ch = make_channel(k, n, 1 + F(a, n), F(b, n))
    uses = np.random.default_rng(seed).integers(0, 2, size=(l_uses, k, n), dtype=np.uint8)
    per_use = [transmit(ch, list(xs)) for xs in uses]
    merged_in = [interleave(list(uses[:, s])) for s in range(k)]
    direct = transmit(interleave_expand(ch, l_uses), merged_in)
    for s in range(k):
        assert np.array_equal(direct[s], interleave([ys[s] for ys in per_use]))
