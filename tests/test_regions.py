import json
from fractions import Fraction as F

import pytest

from detic import regions
from detic.exactmath import Affine2, polygon_vertices
from detic.regions import (
    OutOfSquareError,
    TableInvalidError,
    atlas_rows,
    boundary_consistency,
    classify,
    converse_bound,
    dsym_at,
    load_region_table,
)

ROW_IDS = [
    "Aa", "Ab", "Ba", "Bb", "Bc", "Bd", "Be", "Bf", "Bg",
    "Da", "Db", "Dc", "Df", "Ea", "Eb", "Ec", "Ed", "Ee",
]


class TestLoad:
    def test_builtin_catalog_is_parsed_once(self, monkeypatch):
        reads = []
        text = regions._builtin_table_text()
        monkeypatch.setattr(regions, "_builtin_table_text", lambda: reads.append(1) or text)
        regions._builtin_table.cache_clear()
        try:
            results = [classify(F(8, 5), F(9, 10)) for _ in range(5)]
        finally:
            regions._builtin_table.cache_clear()
        assert len(reads) == 1
        assert all(res == results[0] for res in results)
        assert results[0].region.id == "Df"

    def test_row_ids_in_printed_order(self, table):
        assert [spec.id for spec in table] == ROW_IDS

    def test_block_sums_are_one(self, table):
        one = Affine2.const(1)
        for spec in table:
            total = Affine2.const(0)
            for b in spec.block_lens:
                total = total + b
            assert total == one, spec.id

    def test_family_anchors(self, table):
        for spec in table:
            fam = spec.id[0]
            if fam in "AE":
                assert spec.anchor_alpha == 2
            if fam == "B":
                assert (spec.anchor_alpha, spec.anchor_beta) == (F(6, 5), F(2, 5))
            if fam == "D":
                assert (spec.anchor_alpha, spec.anchor_beta) == (F(4, 3), F(2, 3))
            if fam == "E":
                assert spec.anchor_beta == F(2, 3)

    def test_vertices_inside_parameter_square(self, table):
        for spec in table:
            for eps, delta in polygon_vertices(spec.polygon):
                alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
                assert 1 <= alpha <= 2 and 0 <= beta <= 1, spec.id

    def test_loader_rejects_bad_block_sum(self, tmp_path):
        rows = json.loads(json.dumps(_raw_table()))
        rows[0]["blocks"][0] = ["1/2", "0", "1"]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match="Aa"):
            load_region_table(bad)

    @pytest.mark.parametrize("bad_row,kind", [(2, "int"), ("Df", "str"), ([], "list"), (None, "NoneType")])
    def test_loader_rejects_rows_that_are_not_objects(self, tmp_path, bad_row, kind):
        rows = _raw_table()[:1] + [bad_row]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match=f"^row 1: expected a JSON object, got {kind}$"):
            load_region_table(bad)

    def test_loader_rejects_unbounded_region(self, tmp_path):
        rows = json.loads(json.dumps(_raw_table()))
        rows[0]["constraints"] = rows[0]["constraints"][:1]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError):
            load_region_table(bad)


def _raw_table():
    from importlib import resources

    return json.loads(resources.files("detic.data").joinpath("regions.json").read_text())


class TestClassify:
    def test_worked_example_point(self, table):
        res = classify(F(8, 5), F(9, 10), table)
        assert res.region.id == "Df"
        assert (res.eps, res.delta) == (F(4, 15), F(7, 30))
        assert res.dsym_value == F(11, 20)

    def test_d_family_anchor_first_match(self, table):
        res = classify(F(4, 3), F(2, 3), table)
        assert res.region.id == "Dc"
        assert res.dsym_value == F(2, 3)

    def test_b_family_anchor(self, table):
        res = classify(F(6, 5), F(2, 5), table)
        assert res.region.id == "Bb"
        assert res.dsym_value == F(3, 5)

    def test_interference_free_corner(self, table):
        assert dsym_at(F(2), F(0), table) == 1

    def test_top_edge_is_covered_by_printed_constraints(self, table):
        # The printed Df constraints are all non-strict, so the top-right
        # corner (2, 1) falls in Df with rate 1/2 (a boundary-limit value;
        # no in-class scheme decodes on the beta = 1 edge).
        res = classify(F(2), F(1), table)
        assert res.region.id == "Df"
        assert res.dsym_value == F(1, 2)

    def test_alpha_two_edge_mostly_uncovered(self, table):
        # Strict eps < 0 constraints leave most of the alpha = 2 edge
        # without a matching row.
        assert not classify(F(2), F(1, 2), table).covered
        assert not classify(F(2), F(1, 5), table).covered
        assert classify(F(2), F(2, 3), table).region.id == "Ed"

    def test_low_corner_uncovered(self, table):
        assert not classify(F(1), F(1), table).covered

    def test_out_of_square(self, table):
        with pytest.raises(OutOfSquareError):
            classify(F(3), F(0), table)
        with pytest.raises(OutOfSquareError):
            dsym_at(F(3, 2), F(-1, 10), table)

    def test_deterministic(self, table):
        a = classify(F(8, 5), F(9, 10), table)
        b = classify(F(8, 5), F(9, 10), table)
        assert (a.region.id, a.dsym_value) == (b.region.id, b.dsym_value)


class TestConverseBound:
    def test_no_overlap_branch(self):
        assert converse_bound(F(2), F(0)) == 1

    def test_overlap_branch(self):
        assert converse_bound(F(4, 3), F(2, 3)) == F(2, 3)

    def test_branches_agree_at_gap_one(self):
        assert converse_bound(F(3, 2), F(1, 2)) == F(1, 2)
        assert converse_bound(F(2), F(1)) == F(1, 2)

    def test_out_of_square(self):
        with pytest.raises(OutOfSquareError):
            converse_bound(F(0), F(0))

    def test_dominates_rates_on_coarse_grid(self, table):
        for i in range(21):
            for j in range(21):
                alpha, beta = 1 + F(i, 20), F(j, 20)
                d = dsym_at(alpha, beta, table)
                if d is not None:
                    assert 0 <= d <= converse_bound(alpha, beta) <= 1


class TestBoundaryConsistency:
    def test_shared_boundary_agrees(self, table):
        # (4/3, 2/3) lies in the closures of Dc and Df; both give 2/3.
        report = boundary_consistency(samples=0, grid_denominator=3, table=table)
        assert report.ok

    def test_random_samples(self, table):
        report = boundary_consistency(samples=400, seed=9, table=table)
        assert report.points_checked == 400
        assert report.multi_region_points > 0
        assert report.ok

    def test_fine_grid_in_acceptance(self):
        pass  # the 1/60 grid audit runs in the acceptance suite


class TestAtlas:
    def test_grid_three(self, table):
        rows = atlas_rows(3, table)
        assert len(rows) == 9
        by_point = {(r["alpha"], r["beta"]): r for r in rows}
        assert by_point[("2/1", "0/1")]["region"] == "Aa"
        assert by_point[("2/1", "0/1")]["dsym"] == "1/1"
        assert by_point[("1/1", "1/1")]["region"] == "-"
        assert by_point[("1/1", "1/1")]["dsym"] == ""

    def test_rejects_small_grid(self, table):
        with pytest.raises(ValueError):
            atlas_rows(1, table)
