from fractions import Fraction as F

import numpy as np
import pytest

from detic import decode
from detic.channel import make_channel, transmit
from detic.decode import (
    InconsistentSignalError,
    peel_bits,
    peel_structure,
    receiver_view,
)
from detic.gf2 import DimensionMismatchError, NotBinaryError
from detic.oracle import rank_decodable
from detic.scheme import (
    AssignmentMatrix,
    build_assignment,
    minimal_n,
)

WORKED = (F(8, 5), F(9, 10), 60)  # region Df sample with m = 33


def reconstruct_output(view, messages):
    """XOR of all of a view's placed blocks given concrete message bits: the
    placement oracle of `ReceiverView.blocks`, which must reproduce the
    channel output exactly."""
    y = np.zeros(2 * view.params.n, dtype=np.uint8)
    for b in view.blocks:
        for i in range(b.length):
            bit = view.assign.pipe_to_bit[b.pipe_lo - 1 + i]
            y[b.level_top - 1 + i] ^= messages[b.sender - 1][bit]
    return y


@pytest.fixture(scope="module")
def df_assign(regions_by_id, frozen_layouts):
    alpha, beta, n = WORKED
    return build_assignment(frozen_layouts["Df"], regions_by_id["Df"], alpha, beta, n)


@pytest.fixture(scope="module")
def df_channel():
    alpha, beta, n = WORKED
    return make_channel(3, n, alpha, beta)


class TestReceiverView:
    def test_worked_example_spans(self, df_assign, df_channel):
        view = receiver_view(df_assign, df_channel, 1)
        spans = {}
        for b in view.blocks:
            lo, hi = spans.get(b.path, (10**9, 0))
            spans[b.path] = (min(lo, b.level_top), max(hi, b.level_top + b.length - 1))
        assert spans["direct"] == (61, 120)
        assert spans["v"] == (25, 84)
        assert spans["w"] == (67, 120)

    def test_w_clipped_to_surviving_pipes(self, df_assign, df_channel):
        view = receiver_view(df_assign, df_channel, 1)
        for b in view.blocks:
            if b.path == "w":
                assert b.pipe_lo + b.length - 1 <= df_channel.surviving_pipes

    def test_extreme_point_disjoint_columns(self, regions_by_id, frozen_layouts):
        # alpha = 2, beta = 0: the up image sits fully above the direct one
        # and the down image is empty.
        spec = regions_by_id["Aa"]
        assign = build_assignment(frozen_layouts["Aa"], spec, F(2), F(0), 2)
        ch = make_channel(3, 2, F(2), F(0))
        view = receiver_view(assign, ch, 1)
        assert all(b.path != "w" for b in view.blocks)
        direct = [b for b in view.blocks if b.path == "direct"]
        up = [b for b in view.blocks if b.path == "v"]
        assert all(b.level_top >= 3 for b in direct)
        assert all(b.level_top + b.length - 1 <= 2 for b in up)

    @pytest.mark.parametrize("receiver", [0, 4])
    def test_receiver_outside_one_to_k_is_refused_at_once(
        self, df_assign, df_channel, receiver, monkeypatch
    ):
        monkeypatch.setattr(decode, "_compile", lambda *a: pytest.fail("compiled"))
        with pytest.raises(DimensionMismatchError, match=f"receiver {receiver} outside 1..3"):
            receiver_view(df_assign, df_channel, receiver)

    def test_n_mismatch_is_refused_at_once(self, df_assign, monkeypatch):
        monkeypatch.setattr(decode, "_compile", lambda *a: pytest.fail("compiled"))
        ch = make_channel(3, 120, *WORKED[:2])
        with pytest.raises(DimensionMismatchError, match="assignment N = 60 != channel N = 120"):
            receiver_view(df_assign, ch, 1)

    def test_blocks_and_program_are_built_on_first_use(self, df_assign, df_channel):
        view = receiver_view(df_assign, df_channel, 2)
        assert "blocks" not in vars(view) and "program" not in vars(view)
        assert view.blocks is view.blocks and len(view.blocks) > 0
        assert "program" not in vars(view)

    def test_all_zero_assignment_places_nothing(self, df_channel):
        assign = AssignmentMatrix(n=60, m=0, pipe_to_bit=(None,) * 60)
        view = receiver_view(assign, df_channel, 1)
        assert view.blocks == ()

    def test_reconstruction_matches_channel(self, table, frozen_layouts, frozen_interiors):
        rng = np.random.default_rng(21)
        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            ch = make_channel(3, n, alpha, beta)
            msgs = [rng.integers(0, 2, assign.m, dtype=np.uint8) for _ in range(3)]
            ys = transmit(ch, [assign.encode(d) for d in msgs])
            for r in range(1, 4):
                view = receiver_view(assign, ch, r)
                assert np.array_equal(reconstruct_output(view, msgs), ys[r - 1]), spec.id


class TestPeelStructure:
    def test_worked_example_succeeds_with_direct_readouts_first(self, df_assign, df_channel):
        ok, trace = peel_structure(receiver_view(df_assign, df_channel, 1))
        assert ok
        rules = [s.rule for s in trace.steps]
        assert rules[0] == "direct-readout"
        assert "twin-peel" in rules

    def test_stuck_on_exact_collision(self):
        # A single data pipe covered exactly by a single interference pipe
        # can never be separated; the rank oracle agrees.
        ch = make_channel(3, 1, F(1), F(0))
        assign = AssignmentMatrix(n=1, m=1, pipe_to_bit=(0,))
        ok, trace = peel_structure(receiver_view(assign, ch, 1))
        assert not ok
        assert not rank_decodable(ch, assign)

    def test_empty_assignment_vacuously_succeeds(self, df_channel):
        assign = AssignmentMatrix(n=60, m=0, pipe_to_bit=(None,) * 60)
        ok, trace = peel_structure(receiver_view(assign, df_channel, 1))
        assert ok
        assert trace.steps == ()

    def test_success_implies_rank(self, table, frozen_layouts, frozen_interiors):
        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            ch = make_channel(3, n, alpha, beta)
            ok, _ = peel_structure(receiver_view(assign, ch, 1))
            assert ok, spec.id
            assert rank_decodable(ch, assign), spec.id


class TestPeelBits:
    def test_worked_example_recovers_messages(self, df_assign, df_channel):
        rng = np.random.default_rng(22)
        msgs = [rng.integers(0, 2, df_assign.m, dtype=np.uint8) for _ in range(3)]
        ys = transmit(df_channel, [df_assign.encode(d) for d in msgs])
        for r in range(1, 4):
            got, _ = peel_bits(receiver_view(df_assign, df_channel, r), ys[r - 1])
            assert got is not None and np.array_equal(got, msgs[r - 1])

    def test_zero_messages_decode_to_zero(self, df_assign, df_channel):
        msgs = [np.zeros(df_assign.m, dtype=np.uint8) for _ in range(3)]
        ys = transmit(df_channel, [df_assign.encode(d) for d in msgs])
        got, _ = peel_bits(receiver_view(df_assign, df_channel, 1), ys[0])
        assert got is not None and not got.any()

    def test_schedule_is_value_independent(self, df_assign, df_channel):
        rng = np.random.default_rng(23)
        view = receiver_view(df_assign, df_channel, 1)
        _, structural = peel_structure(view)
        traces = set()
        for _ in range(20):
            msgs = [rng.integers(0, 2, df_assign.m, dtype=np.uint8) for _ in range(3)]
            ys = transmit(df_channel, [df_assign.encode(d) for d in msgs])
            got, trace = peel_bits(view, ys[0])
            assert got is not None
            traces.add(trace)
        assert traces == {structural}

    def test_corrupted_word_raises(self, df_assign, df_channel):
        rng = np.random.default_rng(24)
        msgs = [rng.integers(0, 2, df_assign.m, dtype=np.uint8) for _ in range(3)]
        ys = transmit(df_channel, [df_assign.encode(d) for d in msgs])
        bad = ys[0].copy()
        bad[0] ^= 1  # level 1 carries no block at this point
        with pytest.raises(InconsistentSignalError):
            peel_bits(receiver_view(df_assign, df_channel, 1), bad)

    def test_non_binary_word_is_refused(self, df_assign, df_channel):
        y = np.zeros(2 * df_channel.n, dtype=np.int64)
        y[70] = 2
        with pytest.raises(NotBinaryError):
            peel_bits(receiver_view(df_assign, df_channel, 1), y)

    def test_bits_are_uint8_for_any_word_dtype(self, df_assign, df_channel):
        rng = np.random.default_rng(26)
        msgs = [rng.integers(0, 2, df_assign.m, dtype=np.uint8) for _ in range(3)]
        y = transmit(df_channel, [df_assign.encode(d) for d in msgs])[0]
        got, _ = peel_bits(receiver_view(df_assign, df_channel, 1), y.astype(np.int64))
        assert got.dtype == np.uint8
        assert np.array_equal(got, msgs[0])

    def test_failure_returns_none(self):
        ch = make_channel(3, 1, F(1), F(0))
        assign = AssignmentMatrix(n=1, m=1, pipe_to_bit=(0,))
        y = np.zeros(2, dtype=np.uint8)
        got, _ = peel_bits(receiver_view(assign, ch, 1), y)
        assert got is None


class TestManyReceivers:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_all_receivers_decode(self, regions_by_id, frozen_layouts, k):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 20)
        ch = make_channel(k, 20, F(8, 5), F(9, 10))
        rng = np.random.default_rng(25)
        msgs = [rng.integers(0, 2, assign.m, dtype=np.uint8) for _ in range(k)]
        ys = transmit(ch, [assign.encode(d) for d in msgs])
        for r in range(1, k + 1):
            got, _ = peel_bits(receiver_view(assign, ch, r), ys[r - 1])
            assert got is not None and np.array_equal(got, msgs[r - 1])


class TestDenseInteriorSweep:
    def test_frozen_layouts_decode_across_region_interiors(self, table, frozen_layouts):
        # Decode on a small-denominator lattice through every region, well
        # beyond the per-region sample points.  A sparser check once accepted
        # a layout that failed deep inside its region.
        import math

        from detic.oracle import rank_decodable
        from detic.scheme import minimal_n
        from test_regions_reference import offset_box, strictly_inside

        checked = 0
        for spec in table:
            lo_e, hi_e, lo_d, hi_d = offset_box(spec)
            seen = set()
            for den in (8, 12, 20):
                for i in range(math.ceil(lo_e * den), math.floor(hi_e * den) + 1):
                    for j in range(math.ceil(lo_d * den), math.floor(hi_d * den) + 1):
                        e, d = F(i, den), F(j, den)
                        if (e, d) in seen or not strictly_inside(spec, e, d):
                            continue
                        seen.add((e, d))
                        n = minimal_n(spec, e, d)
                        if n > 120:
                            continue
                        alpha, beta = spec.anchor_alpha + e, spec.anchor_beta + d
                        assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
                        ch = make_channel(3, n, alpha, beta)
                        assert rank_decodable(ch, assign), (spec.id, alpha, beta)
                        ok, _ = peel_structure(receiver_view(assign, ch, 1))
                        assert ok, (spec.id, alpha, beta)
                        checked += 1
        assert checked > 300
