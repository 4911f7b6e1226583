"""Property tests of the packed rank oracle against dense references.

Each example draws N <= 10, a channel point with integral shifts at that N
(alpha = 1 and beta = 1 included) and a canonical pipe labeling of the
search class (each pipe zero, a fresh bit, or the second use of a bit used
once), then checks `rank_decodable` against the dense decision: two uint8
Gaussian eliminations on the placed images A, B and C.  A second property
checks the cyclic symmetry the oracle relies on: with K in 3..7 and every
sender's bits as their own unknowns, each receiver's `channel.paths` give
the same decision as receiver 1.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.channel import make_channel, paths
from detic.oracle import LinearScheme, assignment_from_labels, rank_decodable


def dense_rank(m: np.ndarray) -> int:
    """GF(2) rank by Gaussian elimination on a uint8 working copy."""
    work = np.array(m, dtype=np.uint8, copy=True) % 2
    n_rows, n_cols = work.shape
    r = 0
    for col in range(n_cols):
        pivots = np.nonzero(work[r:, col])[0]
        if pivots.size == 0:
            continue
        piv = r + pivots[0]
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        mask = work[:, col].astype(bool)
        mask[r] = False
        if mask.any():
            work[mask] ^= work[r]
        r += 1
        if r == n_rows:
            break
    return r


def placed_images(ch, assign) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2N x m images of the assignment on the direct, up and down paths."""
    zg = np.zeros((2 * ch.n, assign.m), dtype=np.uint8)
    zg[ch.n :, :] = assign.to_matrix()
    b = np.zeros_like(zg)
    b[: 2 * ch.n - ch.up_shift] = zg[ch.up_shift :]
    c = np.zeros_like(zg)
    c[ch.down_shift :] = zg[: 2 * ch.n - ch.down_shift]
    return zg, b, c


def dense_rank_decodable(ch, assign) -> bool:
    a, b, c = placed_images(ch, assign)
    interference = np.hstack([b, c])
    return dense_rank(np.hstack([a, interference])) == assign.m + dense_rank(interference)


@st.composite
def cases(draw, max_n: int = 10) -> tuple[int, F, F, tuple[int | None, ...]]:
    """(N, alpha, beta, canonical labeling) with integral shifts at N <= max_n."""
    n = draw(st.integers(1, max_n))
    alpha = 1 + F(draw(st.integers(0, n)), n)
    beta = F(draw(st.integers(0, n)), n)
    labels: list[int | None] = []
    used_once: list[int] = []
    fresh = 0
    for _ in range(n):
        choice = draw(st.integers(0, 1 + len(used_once)))
        if choice == 0:
            labels.append(None)
        elif choice == 1:
            labels.append(fresh)
            used_once.append(fresh)
            fresh += 1
        else:
            labels.append(used_once.pop(choice - 2))
    return n, alpha, beta, tuple(labels)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=(4, F(3, 2), F(1, 2), (None,) * 4))  # m = 0
@example(case=(4, F(1), F(1, 4), (0, None, 1, 0)))  # alpha = 1
@example(case=(4, F(7, 4), F(1), (0, 1, None, None)))  # beta = 1
@example(case=(10, F(2), F(0), tuple(range(10))))  # disjoint images, m = N
def test_packed_rank_matches_dense_reference(case):
    n, alpha, beta, labels = case
    ch = make_channel(3, n, alpha, beta)
    assign = assignment_from_labels(labels)
    assert rank_decodable(LinearScheme(ch, assign)) == dense_rank_decodable(ch, assign)


def receiver_decodes(ch, assign, receiver: int) -> bool:
    """Dense decision at one receiver, every sender's m bits their own
    columns, placed by that receiver's paths: rank(all) = m + rank(others)."""
    m = assign.m
    g = np.zeros((2 * ch.n, ch.k * m), dtype=np.uint8)
    for _, sender, base, count in paths(ch, receiver):
        for p, j in enumerate(assign.pipe_to_bit[:count]):
            if j is not None:
                g[base + p, (sender - 1) * m + j] ^= 1
    own = np.zeros(ch.k * m, dtype=bool)
    own[(receiver - 1) * m : receiver * m] = True
    return dense_rank(g) == m + dense_rank(g[:, ~own])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=cases(), k=st.integers(3, 7))
@example(case=(4, F(3, 2), F(1, 2), (None,) * 4), k=3)  # m = 0
@example(case=(4, F(1), F(1, 4), (0, None, 1, 0)), k=7)  # alpha = 1
def test_every_receiver_decides_as_receiver_one(case, k):
    n, alpha, beta, labels = case
    ch = make_channel(k, n, alpha, beta)
    assign = assignment_from_labels(labels)
    want = rank_decodable(LinearScheme(ch, assign))
    assert [receiver_decodes(ch, assign, r) for r in range(1, k + 1)] == [want] * k
