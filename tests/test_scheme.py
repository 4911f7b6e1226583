from fractions import Fraction as F

import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from detic import scheme
from detic.exactmath import Affine2
from detic.gf2 import DimensionMismatchError, NotBinaryError
from detic.regions import point_weights
from detic.scheme import (
    SINGLE,
    TWIN_FIRST,
    TWIN_SECOND,
    ZERO,
    BlockRole,
    Layout,
    NonIntegralBlocksError,
    OutsideRegionError,
    PipeCountError,
    _interior_lattice,
    build_assignment,
    check_points,
    check_validity,
    infer_roles,
    instantiate,
    layout_for,
    layout_from_json_dict,
    load_frozen_interiors,
    load_frozen_layouts,
    minimal_n,
    validation_points,
)


def kinds(layout):
    return [role.kind for _, role in layout.blocks]


class TestInferRoles:
    def test_rederivation_matches_frozen(self, table, frozen_layouts):
        # The search is deterministic; the checked-in layouts are its output.
        for spec in table:
            assert infer_roles(spec) == frozen_layouts[spec.id], spec.id

    def test_df_shape(self, regions_by_id, frozen_layouts):
        # Two of the three 1/3 - delta blocks carry fresh data, one is zero,
        # and the eps - delta/2 and -eps + 2 delta pairs are twins.
        spec = regions_by_id["Df"]
        layout = frozen_layouts["Df"]
        a_form = Affine2(F(1, 3), F(0), F(-1))
        a_kinds = sorted(r.kind for (length, r) in layout.blocks if length == a_form)
        assert a_kinds == [SINGLE, SINGLE, ZERO]
        for form in (Affine2(F(0), F(1), F(-1, 2)), Affine2(F(0), F(-1), F(2))):
            pair = sorted(r.kind for (length, r) in layout.blocks if length == form)
            assert pair == [TWIN_FIRST, TWIN_SECOND]
        assert layout.distinct_data_sum() == spec.dsym

    def test_db_shape(self, frozen_layouts):
        assert kinds(frozen_layouts["Db"]) == [SINGLE, ZERO, SINGLE]

    def test_ab_shape(self, frozen_layouts):
        assert kinds(frozen_layouts["Ab"]) == [ZERO, SINGLE]

    def test_aa_shape(self, regions_by_id, frozen_layouts):
        # The two -eps/2 - delta/2 blocks form a twin pair, 1 + eps is a
        # single, delta is zero; distinct data matches the rate formula.
        layout = frozen_layouts["Aa"]
        assert kinds(layout) == [ZERO, TWIN_FIRST, SINGLE, TWIN_SECOND]
        assert layout.distinct_data_sum() == regions_by_id["Aa"].dsym


class TestValidity:
    def test_all_regions_pass(self, table, frozen_layouts):
        for spec in table:
            report = check_validity(frozen_layouts[spec.id], spec)
            assert report.all_passed, (spec.id, report.checks)

    def test_all_zero_layout_fails_rate_check(self, regions_by_id):
        spec = regions_by_id["Ab"]
        layout = Layout("Ab", tuple((length, BlockRole(ZERO)) for length in spec.block_lens))
        report = check_validity(layout, spec)
        names = {name: ok for name, ok, _ in report.checks}
        assert names["lengths sum to one"]
        assert not names["distinct data equals rate"]

    def test_df_vertex_lengths(self, regions_by_id):
        # At the closure vertex (2/3, 1/3) the layout degenerates to two
        # half-length twin blocks.
        spec = regions_by_id["Df"]
        counts = instantiate(spec, F(2), F(1), 2)
        assert counts == [0, 1, 0, 0, 1, 0, 0]


class TestInstantiate:
    def test_worked_example_counts(self, regions_by_id):
        spec = regions_by_id["Df"]
        counts = instantiate(spec, F(8, 5), F(9, 10), 60)
        assert counts == [6, 9, 6, 12, 9, 6, 12]

    def test_non_integral_blocks_suggest_minimal(self, regions_by_id):
        spec = regions_by_id["Df"]
        with pytest.raises(NonIntegralBlocksError) as err:
            instantiate(spec, F(8, 5), F(9, 10), 10)
        assert err.value.minimal_n == 20

    def test_closure_point_allowed(self, regions_by_id):
        # (2, 1/2) is on the closed boundary of Ab (eps < 0 printed strict).
        spec = regions_by_id["Ab"]
        assert instantiate(spec, F(2), F(1, 2), 2) == [1, 1]

    def test_outside_region(self, regions_by_id):
        with pytest.raises(OutsideRegionError):
            instantiate(regions_by_id["Ab"], F(5, 4), F(1, 10), 20)

    def test_db_offset_point(self, regions_by_id):
        spec = regions_by_id["Db"]
        counts = instantiate(spec, F(4, 3), F(3, 5), 30)
        assert counts == [9, 12, 9]

    def test_minimal_n_refuses_points_outside_the_closure(self, regions_by_id):
        # Offsets are read exactly as Fractions; (1, 0) is the point (3, 0), off the square.
        spec = regions_by_id["Aa"]
        assert minimal_n(spec, -0.25, 0.125) == minimal_n(spec, F(-1, 4), F(1, 8)) == 16
        for eps, delta in [(0.1, 0.1), (1, 0)]:
            with pytest.raises(OutsideRegionError, match="outside region Aa"):
                minimal_n(spec, eps, delta)

    @pytest.mark.parametrize("n", [0, -20])
    def test_refuses_n_below_one(self, regions_by_id, frozen_layouts, n):
        # -20 is a multiple of the minimal N (20) at this point, so without
        # the check it got as far as negative block counts.
        spec = regions_by_id["Df"]
        with pytest.raises(PipeCountError, match=f"N = {n}$"):
            instantiate(spec, F(8, 5), F(9, 10), n)
        with pytest.raises(PipeCountError, match=f"N = {n}$"):
            build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), n)


class TestBuildAssignment:
    def test_worked_example_rate(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 60)
        assert assign.m == 33
        assert sum(seg.count for seg in assign.segments) == 60

    def test_db_message_count(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Db"]
        assign = build_assignment(frozen_layouts["Db"], spec, F(4, 3), F(3, 5), 30)
        assert assign.m == 18

    def test_ab_pipe_map(self, regions_by_id, frozen_layouts):
        # First printed block (the zero) sits at the bottom pipe; the single
        # data block fills the top pipes with ascending fresh bits.
        spec = regions_by_id["Ab"]
        assign = build_assignment(frozen_layouts["Ab"], spec, F(7, 4), F(1, 4), 4)
        assert assign.m == 3
        assert assign.pipe_to_bit == (0, 1, 2, None)

    def test_m_matches_rate_everywhere(self, table, frozen_layouts, frozen_interiors):
        from detic.regions import dsym_at

        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            assert assign.m == dsym_at(alpha, beta, table) * n, spec.id

    def test_one_reference_per_pipe(self, table, frozen_layouts, frozen_interiors):
        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            for pipes in assign.bit_pipes():
                assert 1 <= len(pipes) <= 2

    def test_twin_reversal_is_involutive(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 60)
        for seg in assign.segments:
            if seg.role.kind != TWIN_SECOND:
                continue
            first = next(
                s
                for s in assign.segments
                if s.role.kind == TWIN_FIRST and s.role.symbol_id == seg.role.symbol_id
            )
            for i in range(seg.count):
                bit = assign.pipe_to_bit[seg.pipe_lo + i]
                # Mirror through the twin map twice: back to the start pipe.
                mirror = first.pipe_lo + (bit - first.bit_lo)
                assert assign.pipe_to_bit[mirror] == bit
                again = seg.pipe_lo + (seg.count - 1 - (bit - seg.bit_lo))
                assert again == seg.pipe_lo + i


class TestEncode:
    @pytest.fixture
    def df(self, regions_by_id, frozen_layouts):
        return build_assignment(frozen_layouts["Df"], regions_by_id["Df"], F(8, 5), F(9, 10), 60)

    def test_matches_pipe_map(self, df):
        rng = np.random.default_rng(3)
        message = rng.integers(0, 2, df.m, dtype=np.uint8)
        want = [0 if j is None else message[j] for j in df.pipe_to_bit]
        x = df.encode(message)
        assert x.dtype == np.uint8 and x.tolist() == want
        assert df.encode(message.astype(bool).tolist()).tolist() == want

    @pytest.mark.parametrize("shape", [(), (1, 32), (33, 1), (32,), (34,)])
    def test_refuses_other_shapes(self, df, shape):
        with pytest.raises(DimensionMismatchError, match="message shape"):
            df.encode(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 4), (0,)])
    def test_accepts_stacks(self, df, lead):
        rng = np.random.default_rng(4)
        messages = rng.integers(0, 2, (*lead, df.m), dtype=np.uint8)
        x = df.encode(messages)
        assert x.shape == (*lead, df.n) and x.dtype == np.uint8
        flat = messages.reshape(-1, df.m)
        assert x.reshape(-1, df.n).tolist() == [df.encode(d).tolist() for d in flat]

    @pytest.mark.parametrize("value", [2, 257, -1])
    def test_refuses_non_binary_entries(self, df, value):
        with pytest.raises(NotBinaryError):
            df.encode(np.full(df.m, value))


class TestCheckPoints:
    def test_assignment_matches_build_assignment(self, table, frozen_layouts):
        for spec in table:
            layout = frozen_layouts[spec.id]
            points = check_points(spec)
            assert len(points) == len(validation_points(spec)), spec.id
            for point in points:
                ch = point.ch
                want = build_assignment(layout, spec, ch.alpha, ch.beta, ch.n)
                assert point.assignment(layout) == want, (spec.id, ch.alpha, ch.beta)


class TestLayoutSerialization:
    def test_roundtrip(self, table, frozen_layouts):
        for spec in table:
            layout = frozen_layouts[spec.id]
            again = layout_from_json_dict(layout.to_json_dict(), spec)
            assert again == layout

    def test_builtin_layouts_are_parsed_once(self, table, frozen_layouts, monkeypatch):
        parses = []

        def loads(text):
            parses.append(1)
            return json.loads(text)

        monkeypatch.setattr(scheme, "json", SimpleNamespace(loads=loads))
        scheme._read_frozen.cache_clear()
        scheme._builtin_layout.cache_clear()
        try:
            layouts = [layout_for(spec) for spec in table]
            assert load_frozen_layouts(table) == frozen_layouts
            assert len(load_frozen_interiors()) == len(table)
        finally:
            scheme._read_frozen.cache_clear()
            scheme._builtin_layout.cache_clear()
        assert len(parses) == 1
        assert layouts == [frozen_layouts[spec.id] for spec in table]


class TestValidationPoints:
    def test_exclude_degenerate_edges(self, table):
        for spec in table:
            for eps, delta in validation_points(spec):
                alpha = spec.anchor_alpha + eps
                beta = spec.anchor_beta + delta
                assert alpha != 1 and beta != 1, spec.id

    def test_points_are_distinct(self, table):
        # Ed's interior sample (-1/6, 0) is also the midpoint of two of its
        # vertices; a repeated point only repeats a rank test and a compile.
        for spec in table:
            points = validation_points(spec)
            assert len(set(points)) == len(points), spec.id

    @pytest.mark.parametrize("den", [7, 12])
    def test_lattice_scan_matches_exact_rationals(self, table, den):
        # Every region's offsets lie in [-1, 1]^2, so this scan covers the
        # bounding box the integer scan walks.
        grid = [F(i, den) for i in range(-den, den + 1)]
        for spec in table:
            a, b = spec.anchor_alpha, spec.anchor_beta
            want = [
                (minimal_n(spec, eps, delta), eps, delta)
                for eps in grid
                for delta in grid
                if spec.form.interior(point_weights(a + eps, b + delta))
            ]
            assert list(_interior_lattice(spec, den)) == want, spec.id

    def test_lattice_rows_match_per_point_filter(self, table):
        # The reference tests every point of the bounding box against every
        # side; the scan solves each column for its interior rows instead.
        for spec in table:
            lo_e, hi_e, lo_d, hi_d = spec.box
            a0, a1, a2 = point_weights(spec.anchor_alpha, spec.anchor_beta)
            for den in scheme._SAMPLE_DENOMINATORS:
                box = (
                    (i, j)
                    for i in range(math.ceil(lo_e * den), math.floor(hi_e * den) + 1)
                    for j in range(math.ceil(lo_d * den), math.floor(hi_d * den) + 1)
                )
                weights = (((a0 * den, a1 * den + a0 * i, a2 * den + a0 * j), i, j) for i, j in box)
                want = [
                    (spec.form.minimal_n(w), F(i, den), F(j, den))
                    for w, i, j in weights
                    if spec.form.interior(w)
                ]
                assert list(_interior_lattice(spec, den)) == want, (spec.id, den)

    def test_ratio_points_lie_on_block_ratio_lines(self, table):
        from detic.exactmath import affine_eval

        for spec in table:
            points = list(scheme._ratio_points(spec))
            assert set(validation_points(spec)) >= {(e, d) for _, e, d in points}, spec.id
            for n, eps, delta in points:
                assert all(affine_eval(h.expr, eps, delta) > 0 for h in spec.polygon.halfplanes)
                assert minimal_n(spec, eps, delta) == n <= 120, (spec.id, eps, delta)
                lens = [affine_eval(b, eps, delta) for b in spec.block_lens]
                assert any(
                    a == r * b and la != lb
                    for (a, la), (b, lb) in itertools.permutations(zip(lens, spec.block_lens), 2)
                    for r in (1, 3)
                ), (spec.id, eps, delta)
        ee = next(spec for spec in table if spec.id == "Ee")
        ee_points = scheme._ratio_points(ee)
        assert (11, F(-1, 11), F(5, 33)) in list(ee_points)

    def test_interior_sample_is_strictly_inside(self, table, frozen_interiors):
        from detic.exactmath import affine_eval

        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            for h in spec.polygon.halfplanes:
                assert affine_eval(h.expr, eps, delta) > 0, spec.id
