"""Rational parsing, the count check and the Fraction references, and the
integer-form closure geometry held against them on small hand-made polygons:
IntegerForm.vertices, the loader's polytope check, and check_validity's sign
test of a block's integer length at the integer vertices."""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from detic.exactmath import (
    Affine2,
    HalfPlane,
    NotACountError,
    NotARationalError,
    affine_eval,
    as_count,
    as_rat,
    format_rat,
    parse_rat,
    polygon_contains,
)
from detic.regions import TableInvalidError, _parse_row, load_region_table
from detic.scheme import ZERO, BlockRole, Layout, check_validity
from test_regions_reference import PRINTED, offset_vertices


def hp(c0, ce, cd, strict=False):
    return HalfPlane(Affine2(F(c0), F(ce), F(cd)), strict)


ONE = Affine2(F(1), F(0), F(0))


def one_block_row(poly, block=ONE, anchor=("0", "0")):
    """A one-block row whose constraints are the polygon's half-planes."""
    return {
        "id": "X",
        "anchor": list(anchor),
        "constraints": [{"expr": h.expr.to_strings(), "strict": h.strict} for h in poly],
        "dsym": ["1", "0", "0"],
        "blocks": [block.to_strings()],
    }


def region(poly, block=ONE):
    """A one-block region around the anchor (0, 0), so (eps, delta) = (alpha, beta)."""
    return _parse_row(one_block_row(poly, block))


def load_polygon(tmp_path, poly):
    """Load a one-row table around Df's anchor (4/3, 2/3), where Df's offsets
    lie inside the square."""
    path = tmp_path / "regions.json"
    path.write_text(json.dumps([one_block_row(poly, anchor=("4/3", "2/3"))]))
    return load_region_table(path)


def nonneg_on(f, poly):
    """check_validity's verdict on "non-negative lengths" for a one-block layout."""
    report = check_validity(Layout("X", ((f, BlockRole(ZERO)),)), region(poly, f))
    return {name: ok for name, ok, _ in report.checks}["non-negative lengths"]


# Region "Df" in offset coordinates: eps <= 2*delta, eps >= delta/2, delta <= 1/3.
DF_POLY = (hp(0, -1, 2), hp(0, 1, F(-1, 2)), hp(F(1, 3), 0, -1))
# Region "Ab": eps < 0, delta <= 1/2, eps >= -delta.
AB_POLY = (hp(0, -1, 0, strict=True), hp(F(1, 2), 0, -1), hp(0, 1, 1))
# Region "Aa": delta >= 0, delta <= 1 + eps, eps <= -delta.
AA_POLY = (hp(0, 0, 1), hp(1, 1, -1), hp(0, -1, -1))


class TestRat:
    def test_parse_and_format(self):
        assert parse_rat("8/5") == F(8, 5)
        assert parse_rat("-1/2") == F(-1, 2)
        assert parse_rat("3") == F(3)
        assert format_rat(F(0)) == "0/1"
        assert format_rat(F(11, 20)) == "11/20"
        assert format_rat(F(2, 4)) == "1/2"

    @pytest.mark.parametrize("bad", ["1.6", "a/b", "1/2/3", "", "1 / 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @pytest.mark.parametrize("value,want", [(7, 7), (np.int64(7), 7), (7.0, 7), (F(14, 2), 7)])
    def test_count_takes_integral_numbers(self, value, want):
        got = as_count(value, "N")
        assert got == want and type(got) is int

    @pytest.mark.parametrize(
        "value", [True, np.True_, 1.5, F(1, 2), float("nan"), float("inf"), 1 + 0j, "7", None]
    )
    def test_count_refuses_bools_and_non_integers(self, value):
        with pytest.raises(NotACountError, match="^N must be an integer, got "):
            as_count(value, "N")

    @pytest.mark.parametrize("value,least", [(0, 1), (-20, 1), (2, 3), (-1, 0)])
    def test_count_refuses_values_below_its_least(self, value, least):
        with pytest.raises(NotACountError, match=f"^N >= {least} required, got N = {value}$"):
            as_count(value, "N", least)

    @pytest.mark.parametrize(
        "value,want",
        [
            (F(8, 5), F(8, 5)),
            (3, F(3)),
            (np.int64(3), F(3)),
            (-0.25, F(-1, 4)),
            (0.1, F(3602879701896397, 36028797018963968)),  # the float, read exactly
            ("8/5", F(8, 5)),
            (" +1.60 ", F(8, 5)),
            ("16e-1", F(8, 5)),
            ("1_6e-1", F(8, 5)),
        ],
    )
    def test_rat_reads_numbers_and_decimal_strings(self, value, want):
        got = as_rat(value, "alpha")
        assert got == want and type(got) is F

    @pytest.mark.parametrize(
        "value,message",
        [
            (None, "alpha must be a rational number, got None"),
            (True, "alpha must be a rational number, got True"),
            (float("nan"), "alpha must be a rational number, got nan"),
            (float("-inf"), "alpha must be a rational number, got -inf"),
            (1 + 0j, "alpha must be a rational number, got (1+0j)"),
            ([1], "alpha must be a rational number, got [1]"),
            ("abc", "alpha must be a rational number, got 'abc'"),
            ("1/0", "alpha: zero denominator: '1/0'"),
            ("1e99999999", "alpha: decimal exponent 99999999 outside +-1000: '1e99999999'"),
            ("1" * 1001, "alpha: decimal literal longer than 1000 characters"),
        ],
    )
    def test_rat_refuses_by_name(self, value, message):
        with pytest.raises(NotARationalError) as err:
            as_rat(value, "alpha")
        assert str(err.value) == message

    def test_parse_rat_refuses_a_literal_past_the_digit_limit(self):
        # int() refuses more than 4300 digits with a bare ValueError.
        with pytest.raises(NotARationalError, match="^not a rational literal: '99"):
            parse_rat("9" * 5000)

    def test_arithmetic_is_exact(self):
        rng = random.Random(0)
        for _ in range(200):
            a = F(rng.randint(-60, 60), rng.randint(1, 30))
            b = F(rng.randint(-60, 60), rng.randint(1, 30))
            assert (a + b) - b == a


class TestAffineEval:
    def test_rate_form_at_worked_point(self):
        # 2/3 - delta/2 at (4/15, 7/30) is exactly 11/20.
        f = Affine2(F(2, 3), F(0), F(-1, 2))
        assert affine_eval(f, F(4, 15), F(7, 30)) == F(11, 20)

    def test_zero_form(self):
        z = Affine2(F(0), F(0), F(0))
        assert affine_eval(z, F(9, 7), F(-3, 5)) == 0

    def test_cancelling_coefficients(self):
        f = Affine2(F(1), F(1), F(-1))
        assert affine_eval(f, F(1, 2), F(1, 2)) == 1


class TestPolygonContains:
    def test_df_contains_worked_point(self):
        assert polygon_contains(DF_POLY, F(4, 15), F(7, 30))

    def test_df_contains_origin_without_closure(self):
        assert polygon_contains(DF_POLY, F(0), F(0), closure=False)

    def test_aa_excludes_far_point(self):
        assert not polygon_contains(AA_POLY, F(1), F(0))

    def test_strictness_respected(self):
        assert not polygon_contains(AB_POLY, F(0), F(1, 4))
        assert polygon_contains(AB_POLY, F(0), F(1, 4), closure=True)


class TestPolygonVertices:
    def test_df_vertices(self):
        assert offset_vertices(region(DF_POLY)) == ((F(0), F(0)), (F(1, 6), F(1, 3)), (F(2, 3), F(1, 3)))

    def test_ab_vertices(self):
        assert offset_vertices(region(AB_POLY)) == ((F(-1, 2), F(1, 2)), (F(0), F(0)), (F(0), F(1, 2)))

    def test_single_point_polygon(self, tmp_path):
        p = (hp(0, 1, 0), hp(0, -1, 0), hp(0, 0, 1), hp(0, 0, -1))
        assert region(p).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, p)

    def test_segment_polygon(self, tmp_path):
        # Flat closures have at most two vertices: here (0, 0) and (1, 0).
        p = (hp(0, 1, 0), hp(1, -1, 0), hp(0, 0, 1), hp(0, 0, -1), hp(0, 1, 1))
        assert region(p).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, p)

    def test_unbounded(self, tmp_path):
        p = (hp(0, 1, 0), hp(0, 0, 1))
        assert region(p).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, p)

    def test_unbounded_with_three_vertices(self, tmp_path):
        # Vertices (0, 2), (2/3, 2/3) and (2, 0), yet open towards (1, 1).
        p = (hp(0, 1, 0), hp(0, 0, 1), hp(-2, 1, 2), hp(-2, 2, 1))
        assert region(p).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, p)

    def test_empty(self, tmp_path):
        p = (hp(-1, 1, 0), hp(-1, -1, 0), hp(0, 0, 1), hp(1, 0, -1))
        assert region(p).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, p)

    def test_vertices_lie_in_closure(self, table):
        for spec in table:
            assert len(offset_vertices(spec)) >= 3, spec.id
            for e, d in offset_vertices(spec):
                assert polygon_contains(PRINTED[spec.id].halfplanes, e, d, closure=True)

    def test_constant_sides(self, tmp_path):
        # A side with no gradient is a constant: 1 >= 0 holds everywhere, -1 >= 0 nowhere.
        ok = (*DF_POLY, hp(1, 0, 0))
        assert offset_vertices(region(ok)) == offset_vertices(region(DF_POLY))
        assert offset_vertices(load_polygon(tmp_path, ok)[0]) == offset_vertices(region(DF_POLY))
        bad = (*DF_POLY, hp(-1, 0, 0))
        assert region(bad).form.vertices == ()
        with pytest.raises(TableInvalidError, match="not a 2-D polytope"):
            load_polygon(tmp_path, bad)


class TestAffineNonnegOn:
    def test_df_block_lengths(self):
        assert nonneg_on(Affine2(F(1, 3), F(0), F(-1)), DF_POLY)
        assert nonneg_on(Affine2(F(0), F(1), F(-1, 2)), DF_POLY)

    def test_negative_constant(self):
        assert not nonneg_on(Affine2(F(-1), F(0), F(0)), DF_POLY)

    def test_negative_at_one_vertex(self):
        # delta - 1/6 is -1/6 at the vertex (0, 0) and 1/6 at the other two.
        f = Affine2(F(-1, 6), F(0), F(1))
        verts = offset_vertices(region(DF_POLY))
        assert [affine_eval(f, e, d) < 0 for e, d in verts] == [True, False, False]
        assert not nonneg_on(f, DF_POLY)

    def test_implies_nonneg_at_interior_samples(self):
        # Random convex combinations of the vertices stay inside the closure.
        rng = random.Random(1)
        verts = offset_vertices(region(DF_POLY))
        forms = [
            Affine2(F(1, 3), F(0), F(-1)),
            Affine2(F(0), F(1), F(-1, 2)),
            Affine2(F(0), F(-1), F(2)),
        ]
        for f in forms:
            assert nonneg_on(f, DF_POLY)
            for _ in range(1000):
                weights = [F(rng.randint(0, 12)) for _ in verts]
                total = sum(weights) or F(1)
                e = sum(w * v[0] for w, v in zip(weights, verts)) / total
                d = sum(w * v[1] for w, v in zip(weights, verts)) / total
                assert affine_eval(f, e, d) >= 0
