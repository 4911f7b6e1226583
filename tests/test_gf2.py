import numpy as np

from detic.gf2 import pivot_bits


def packed_rows(m: np.ndarray) -> list[int]:
    """Each row of a {0,1} matrix as an int, column 0 in the high bit."""
    return [int("".join(str(b) for b in row), 2) if m.shape[1] else 0 for row in m]


def rank_bruteforce(m: np.ndarray) -> int:
    """Independent oracle: size of the row span as a power of two."""
    span = {0}
    for r in packed_rows(m):
        span |= {s ^ r for s in span}
    return len(span).bit_length() - 1


def rank(m: np.ndarray) -> int:
    """GF(2) rank from the number of pivots `pivot_bits` finds."""
    return len(pivot_bits(packed_rows(m)))


class TestRank:
    def test_identity(self):
        assert rank(np.eye(4, dtype=np.uint8)) == 4

    def test_zero(self):
        assert rank(np.zeros((3, 5), dtype=np.uint8)) == 0

    def test_repeated_rows(self):
        m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        assert rank(m) == rank_bruteforce(m) == 1

    def test_matches_bruteforce_and_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            m = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
            assert rank(m) == rank_bruteforce(m)
            assert rank(m) == rank(m.T)

    def test_transpose_at_size(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.integers(0, 2, size=(64, 64), dtype=np.uint8)
            assert rank(m) == rank(m.T)
