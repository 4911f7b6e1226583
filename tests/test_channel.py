import re
from fractions import Fraction as F

import numpy as np
import pytest

from detic.channel import (
    BadShapeError,
    deinterleave,
    interleave,
    interleave_expand,
    make_channel,
    transmit,
)
from detic.exactmath import NotACountError, NotARationalError
from detic.gf2 import DimensionMismatchError, NotBinaryError

# Family anchor points of the region catalog.
ANCHORS = [(F(2), F(0)), (F(6, 5), F(2, 5)), (F(4, 3), F(2, 3)), (F(2), F(2, 3))]


def heard_alone(ch, x, sender):
    """Receiver 1's word when only `sender` sends x."""
    inputs = [np.zeros(ch.n, dtype=np.uint8)] * ch.k
    inputs[sender - 1] = x
    return transmit(ch, inputs)[0]


def signal_v(ch, x):
    """Up-shifted image: receiver 1 hears sender 2 on the V path."""
    return heard_alone(ch, x, 2)


def signal_w(ch, x):
    """Down-shifted image: receiver 1 hears sender K on the W path."""
    return heard_alone(ch, x, ch.k)


class TestMakeChannel:
    def test_worked_example_params(self):
        ch = make_channel(3, 10, F(8, 5), F(9, 10))
        assert (ch.up_shift, ch.down_shift, ch.surviving_pipes) == (6, 1, 9)

    def test_non_integral_beta_n(self):
        with pytest.raises(BadShapeError, match="beta"):
            make_channel(3, 10, F(8, 5), F(1, 3))

    def test_too_few_pairs(self):
        with pytest.raises(NotACountError, match="^K >= 3 required, got K = 2$"):
            make_channel(2, 10, F(8, 5), F(9, 10))

    @pytest.mark.parametrize("alpha,beta", [(F(5, 2), F(0)), (F(1, 2), F(0)), (F(3, 2), F(3, 2))])
    def test_out_of_range(self, alpha, beta):
        with pytest.raises(BadShapeError):
            make_channel(3, 2, alpha, beta)

    @pytest.mark.parametrize(
        "k,n,name", [(3, 1.5, "N"), (3, F(21, 2), "N"), (3, True, "N"), (3, "10", "N"), (3.5, 10, "K")]
    )
    def test_counts_must_be_integers(self, k, n, name):
        got = k if name == "K" else n
        with pytest.raises(NotACountError, match=f"^{name} must be an integer, got {re.escape(repr(got))}$"):
            make_channel(k, n, F(8, 5), F(9, 10))

    @pytest.mark.parametrize(
        "alpha,beta,message",
        [
            (2, True, "^beta must be a rational number, got True$"),
            ("x", F(1, 2), "^alpha must be a rational number, got 'x'$"),
            (float("nan"), F(1, 2), "^alpha must be a rational number, got nan$"),
        ],
    )
    def test_point_must_be_rational(self, alpha, beta, message):
        # make_channel(3, 10, 2, True) built a channel at beta = 1.
        with pytest.raises(NotARationalError, match=message):
            make_channel(3, 10, alpha, beta)

    def test_integral_counts_become_ints(self):
        ch = make_channel(np.int64(3), 10.0, F(8, 5), F(9, 10))
        assert (ch.k, ch.n) == (3, 10) and type(ch.k) is int and type(ch.n) is int


class TestSignals:
    def test_up_image(self):
        ch = make_channel(3, 2, F(3, 2), F(1, 2))
        assert signal_v(ch, np.array([1, 0], dtype=np.uint8)).tolist() == [0, 1, 0, 0]

    def test_up_image_no_shift_at_alpha_one(self):
        ch = make_channel(3, 2, F(1), F(1, 2))
        assert signal_v(ch, np.array([1, 1], dtype=np.uint8)).tolist() == [0, 0, 1, 1]

    def test_up_image_full_shift(self):
        ch = make_channel(3, 1, F(2), F(0))
        assert signal_v(ch, np.array([1], dtype=np.uint8)).tolist() == [1, 0]

    def test_down_image(self):
        ch = make_channel(3, 2, F(3, 2), F(1, 2))
        assert signal_w(ch, np.array([1, 0], dtype=np.uint8)).tolist() == [0, 0, 0, 1]

    def test_down_image_vanishes_at_beta_zero(self):
        ch = make_channel(3, 2, F(3, 2), F(0))
        assert signal_w(ch, np.array([1, 1], dtype=np.uint8)).tolist() == [0, 0, 0, 0]

    def test_down_image_no_shift_at_beta_one(self):
        ch = make_channel(3, 2, F(3, 2), F(1))
        assert signal_w(ch, np.array([1, 0], dtype=np.uint8)).tolist() == [0, 0, 1, 0]

    def test_supports(self):
        # The up image occupies levels (2-a)N+1..(3-a)N, the direct image
        # N+1..2N, the down image (2-b)N+1..2N fed by the top b*N pipes.
        for alpha, beta in ANCHORS:
            n = 15
            ch = make_channel(3, n, alpha, beta)
            ones = np.ones(n, dtype=np.uint8)
            v = signal_v(ch, ones)
            lo = int((2 - alpha) * n)
            hi = int((3 - alpha) * n)
            assert np.array_equal(np.nonzero(v)[0], np.arange(lo, hi))
            w = signal_w(ch, ones)
            assert np.array_equal(np.nonzero(w)[0], np.arange(int((2 - beta) * n), 2 * n))

    def test_images_disjoint_iff_gap_at_least_one(self):
        for n, alpha, beta in [
            (6, F(2), F(0)),
            (6, F(3, 2), F(1, 2)),
            (6, F(3, 2), F(2, 3)),
            (10, F(8, 5), F(9, 10)),
            (6, F(7, 6), F(1, 2)),
        ]:
            ch = make_channel(3, n, alpha, beta)
            ones = np.ones(n, dtype=np.uint8)
            overlap = signal_v(ch, ones) & signal_w(ch, ones)
            assert bool(overlap.any()) == (alpha - beta < 1)


class TestTransmit:
    def test_three_pair_single_pipe(self):
        ch = make_channel(3, 1, F(2), F(0))
        ys = transmit(ch, [np.array([b], dtype=np.uint8) for b in (1, 0, 0)])
        assert [list(y) for y in ys] == [[0, 1], [0, 0], [1, 0]]

    def test_zero_in_zero_out(self):
        ch = make_channel(4, 3, F(4, 3), F(2, 3))
        ys = transmit(ch, [np.array([0, 0, 0], dtype=np.uint8)] * 4)
        assert all(not y.any() for y in ys)

    def test_cyclic_relabeling(self):
        rng = np.random.default_rng(11)
        ch = make_channel(3, 5, F(7, 5), F(3, 5))
        xs = [rng.integers(0, 2, 5, dtype=np.uint8) for _ in range(3)]
        ys = transmit(ch, xs)
        ys_shifted = transmit(ch, [xs[2], xs[0], xs[1]])
        for i in range(3):
            assert np.array_equal(ys_shifted[i], ys[(i - 1) % 3])

    def test_linearity(self):
        rng = np.random.default_rng(12)
        ch = make_channel(5, 4, F(7, 4), F(1, 2))
        xs = [rng.integers(0, 2, 4, dtype=np.uint8) for _ in range(5)]
        xs2 = [rng.integers(0, 2, 4, dtype=np.uint8) for _ in range(5)]
        lhs = transmit(ch, [a ^ b for a, b in zip(xs, xs2)])
        rhs = [a ^ b for a, b in zip(transmit(ch, xs), transmit(ch, xs2))]
        for a, b in zip(lhs, rhs):
            assert np.array_equal(a, b)


class TestInputContract:
    def test_non_binary_input_is_refused(self):
        ch = make_channel(3, 4, F(2), F(0))
        zeros = np.zeros(4, dtype=np.uint8)
        with pytest.raises(NotBinaryError):
            transmit(ch, [np.array([2, 0, 0, 0]), zeros, zeros])
        with pytest.raises(NotBinaryError):
            transmit(ch, [np.array([0, 0, 256, 0]), zeros, zeros])
        with pytest.raises(NotBinaryError):
            transmit(ch, [zeros, np.array([0, -1, 0, 0]), zeros])
        with pytest.raises(NotBinaryError, match=r"^input has entries outside \{0, 1\}$"):
            transmit(ch, [zeros, zeros, np.array([0, 0, 2, 0], dtype=np.uint8)])  # no cast

    @pytest.mark.parametrize(
        "inputs,bad",
        [
            ([np.zeros(4), np.zeros(3), np.zeros(4)], (3,)),
            (np.zeros((3, 5), dtype=np.uint8), (5,)),
            ([0, 0, 0], ()),
        ],
        ids=["ragged", "K x (N+1)", "scalars"],
    )
    def test_inputs_other_than_k_by_n_name_the_first_bad_shape(self, inputs, bad):
        ch = make_channel(3, 4, F(2), F(0))
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(f'input shape {bad} != N = 4')}$"):
            transmit(ch, inputs)

    @pytest.mark.parametrize("dtype", [np.int64, bool, np.float64])
    def test_output_is_uint8_for_any_input_dtype(self, dtype):
        rng = np.random.default_rng(15)
        ch = make_channel(3, 4, F(3, 2), F(1, 2))
        xs = [rng.integers(0, 2, 4, dtype=np.uint8) for _ in range(3)]
        want = transmit(ch, xs)
        got = transmit(ch, [x.astype(dtype) for x in xs])
        for a, b in zip(got, want):
            assert a.dtype == np.uint8
            assert np.array_equal(a, b)


class TestInterleaving:
    def test_expand_params(self):
        ch = make_channel(3, 1, F(2), F(0))
        assert interleave_expand(ch, 1) == ch
        assert interleave_expand(ch, 4).n == 4

    @pytest.mark.parametrize("l_uses", [1.5, True, "2"])
    def test_expand_refuses_a_non_integer_l(self, l_uses):
        ch = make_channel(3, 1, F(2), F(0))
        with pytest.raises(NotACountError, match="^L must be an integer"):
            interleave_expand(ch, l_uses)

    @pytest.mark.parametrize("l_uses", [1.5, True])
    def test_deinterleave_refuses_a_non_integer_l(self, l_uses):
        with pytest.raises(NotACountError, match="^L must be an integer"):
            deinterleave(np.zeros(6, dtype=np.uint8), l_uses)

    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        vs = [rng.integers(0, 2, 6, dtype=np.uint8) for _ in range(3)]
        merged = interleave(vs)
        back = deinterleave(merged, 3)
        for a, b in zip(vs, back):
            assert np.array_equal(a, b)

    def test_takes_array_likes(self):
        assert interleave([[1, 0], [0, 1]]).tolist() == [1, 0, 0, 1]
        assert [v.tolist() for v in deinterleave([1, 0, 0, 1], 2)] == [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "vectors",
        [[np.array([256, 2]), np.array([0, 1])], [np.array([0.5, 1.0]), np.array([0, 1])]],
        ids=["wide-ints", "fractions"],
    )
    def test_non_binary_entries_are_refused(self, vectors):
        with pytest.raises(NotBinaryError):
            interleave(vectors)
        with pytest.raises(NotBinaryError):
            deinterleave(vectors[0], 1)

    @pytest.mark.parametrize(
        "vectors",
        [[], [1, 0], [np.zeros((2, 2))], [np.zeros(2), np.zeros(3)]],
        ids=["empty", "scalars", "2-D", "ragged"],
    )
    def test_vectors_must_be_1d_of_one_length(self, vectors):
        with pytest.raises(DimensionMismatchError):
            interleave(vectors)

    def test_deinterleave_needs_a_1d_vector_of_whole_uses(self):
        for v, l_uses in [(np.zeros((2, 2)), 2), (np.zeros(5), 2)]:
            with pytest.raises(DimensionMismatchError):
                deinterleave(v, l_uses)
        with pytest.raises(NotACountError, match="^L >= 1 required, got L = 0$"):
            deinterleave(np.zeros(4), 0)

    def test_equivalence_bit_exact(self):
        # L uses of (N, a, b), interleaved, equal one use of (LN, a, b).
        rng = np.random.default_rng(14)
        checked = 0
        for alpha, beta in ANCHORS:
            for n in range(1, 5):
                if (alpha * n).denominator != 1 or (beta * n).denominator != 1:
                    continue
                for l_uses in range(1, 5):
                    ch = make_channel(3, n, alpha, beta)
                    big = interleave_expand(ch, l_uses)
                    for _ in range(3):
                        uses = [
                            [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(3)]
                            for _ in range(l_uses)
                        ]
                        per_use = [transmit(ch, xs) for xs in uses]
                        merged_out = [
                            interleave([per_use[l][k] for l in range(l_uses)])
                            for k in range(3)
                        ]
                        merged_in = [
                            interleave([uses[l][k] for l in range(l_uses)])
                            for k in range(3)
                        ]
                        direct_out = transmit(big, merged_in)
                        for a, b in zip(merged_out, direct_out):
                            assert np.array_equal(a, b)
                        checked += 1
        assert checked >= 24
