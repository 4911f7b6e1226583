import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detic import regions
from detic.exactmath import Affine2, NotARationalError, format_rat
from detic.regions import (
    OutOfSquareError,
    TableInvalidError,
    _parse_row,
    atlas_rows,
    boundary_consistency,
    classify,
    converse_bound,
    dsym_at,
    load_region_table,
)
from test_regions_reference import PRINTED, builtin_rows, offset_vertices

ROW_IDS = [
    "Aa", "Ab", "Ba", "Bb", "Bc", "Bd", "Be", "Bf", "Bg",
    "Da", "Db", "Dc", "Df", "Ea", "Eb", "Ec", "Ed", "Ee",
]


class TestLoad:
    def test_builtin_catalog_is_parsed_once(self, monkeypatch):
        parses = []
        parse = regions._parse_table
        monkeypatch.setattr(regions, "_parse_table", lambda text: parses.append(1) or parse(text))
        regions._builtin_table.cache_clear()
        try:
            results = [classify(F(8, 5), F(9, 10)) for _ in range(5)]
        finally:
            regions._builtin_table.cache_clear()
        assert len(parses) == 1
        assert all(res == results[0] for res in results)
        assert results[0].region.id == "Df"

    def test_row_ids_in_printed_order(self, table):
        assert [spec.id for spec in table] == ROW_IDS

    def test_block_sums_are_one(self, table):
        for spec in table:
            coeffs = [(b.c0, b.c_eps, b.c_delta) for b in PRINTED[spec.id].blocks]
            assert [sum(c) for c in zip(*coeffs)] == [1, 0, 0], spec.id

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
            for eps, delta in offset_vertices(spec):
                alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
                assert 1 <= alpha <= 2 and 0 <= beta <= 1, spec.id

    def test_box_bounds_the_closure(self, table):
        for spec in table:
            alpha = [spec.anchor_alpha + e for e, _ in offset_vertices(spec)]
            beta = [spec.anchor_beta + d for _, d in offset_vertices(spec)]
            assert spec.form.box == (min(alpha), max(alpha), min(beta), max(beta)), spec.id

    def test_loader_rejects_bad_block_sum(self, tmp_path):
        rows = builtin_rows()
        rows[0]["blocks"][0] = ["1/2", "1/3", "1"]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        # The sum is printed in Aa's offset coordinates around its anchor (2, 0).
        want = "row Aa: block lengths sum to ['3/2', '1/3', '0/1'] instead of the constant 1"
        with pytest.raises(TableInvalidError, match=re.escape(want)):
            load_region_table(bad)

    @pytest.mark.parametrize("bad_row,kind", [(2, "int"), ("Df", "str"), ([], "list"), (None, "NoneType")])
    def test_loader_rejects_rows_that_are_not_objects(self, tmp_path, bad_row, kind):
        rows = builtin_rows()[:1] + [bad_row]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match=f"^row 1: expected a JSON object, got {kind}$"):
            load_region_table(bad)

    @pytest.mark.parametrize(
        "anchor", [["2", 0.1], ["2", "0.1"], ["2", True], [2, "0"], ["2"], ["2", "0", "0"], "20"]
    )
    def test_loader_rejects_inexact_anchors(self, tmp_path, anchor):
        rows = builtin_rows()
        rows[0]["anchor"] = anchor
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match="^row Aa: "):
            load_region_table(bad)

    @pytest.mark.parametrize("field,value", [("dsym", "100"), ("dsym", ["1", "0"]), ("blocks", ["1"])])
    def test_loader_rejects_forms_that_are_not_triples(self, tmp_path, field, value):
        # A three-character string once loaded as the triple of its characters.
        rows = builtin_rows()
        rows[0][field] = value
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match="^row Aa: affine form needs a list of 3"):
            load_region_table(bad)

    @pytest.mark.parametrize("strict", ["false", "true", 0, 1, None])
    def test_loader_rejects_non_boolean_strict(self, tmp_path, strict):
        rows = builtin_rows()
        rows[0]["constraints"][0]["strict"] = strict
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match="^row Aa: strict must be a JSON boolean"):
            load_region_table(bad)

    @pytest.mark.parametrize(
        "edit,want",
        [
            (lambda row: row.pop("blocks"), "missing field 'blocks'"),
            (lambda row: row["constraints"][0].pop("strict"), "missing field 'strict'"),
            (lambda row: row.update(constraints=5), "constraints must be a JSON list, got 5"),
            (
                lambda row: row.update(constraints=["x"]),
                "a constraint must be a JSON object, got 'x'",
            ),
            (lambda row: row.update(blocks=3), "blocks must be a JSON list, got 3"),
        ],
        ids=[
            "no blocks", "no strict", "constraints not a list",
            "constraint not an object", "blocks not a list",
        ],
    )
    def test_loader_names_a_malformed_field(self, tmp_path, edit, want):
        rows = builtin_rows()
        edit(rows[0])
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError, match=f"^{re.escape('row Aa: ' + want)}$"):
            load_region_table(bad)

    def test_loader_rejects_closure_outside_square(self, tmp_path):
        # The closure reaches alpha = 5/2: classify once answered Zz at (2, 1/4),
        # and plan there stopped on a message that named no row.
        row = {
            "id": "Zz",
            "anchor": ["2", "0"],
            "constraints": [
                {"expr": ["0", "1", "0"], "strict": False},
                {"expr": ["1/2", "-1", "0"], "strict": False},
                {"expr": ["0", "0", "1"], "strict": False},
                {"expr": ["1/2", "0", "-1"], "strict": False},
            ],
            "dsym": ["1/2", "0", "0"],
            "blocks": [["1", "0", "0"]],
        }
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps([row]))
        want = "row Zz: closure spans alpha in [2/1, 5/2], beta in [0/1, 1/2], outside [1,2] x [0,1]"
        with pytest.raises(TableInvalidError, match=re.escape(want)):
            load_region_table(bad)

    @pytest.mark.parametrize("rid", ["A,a", "-", "", "A a", "Aa\n", "Åa", 5, None])
    def test_loader_rejects_ids_other_than_letters_digits_underscore(self, tmp_path, rid):
        # "A,a" gave atlas CSV lines of 5 fields; "-" is the atlas's uncovered marker.
        rows = builtin_rows()
        rows[1]["id"] = rid
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        want = f"row {rid}: region id must be letters, digits and _, got {rid!r}"
        with pytest.raises(TableInvalidError, match=f"^{re.escape(want)}$"):
            load_region_table(bad)

    def test_loader_refuses_the_empty_path(self):
        # Path("") is the current directory, so the loader must refuse it before reading.
        with pytest.raises(TableInvalidError, match="^cannot read region table '': the path is empty$"):
            load_region_table("")

    def test_loader_refuses_unreadable_paths_by_name(self, tmp_path):
        # The CLI prints these messages as they are, so they keep its wording.
        missing = str(tmp_path / "missing.json")
        for path, want in [
            ("/", "cannot read region table '/': Is a directory"),
            (missing, f"cannot read region table {missing!r}: No such file or directory"),
            (5, "cannot read region table: int is not a path"),
            (b"/", "cannot read region table: bytes is not a path"),
        ]:
            with pytest.raises(TableInvalidError, match=f"^{re.escape(want)}$"):
                load_region_table(path)

    def test_loader_accepts_letters_digits_underscore(self, tmp_path):
        rows = builtin_rows()
        rows[1]["id"] = "ab_9Z"
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(rows))
        assert load_region_table(path)[1].id == "ab_9Z"

    def test_loader_rejects_unbounded_region(self, tmp_path):
        rows = builtin_rows()
        rows[0]["constraints"] = rows[0]["constraints"][:1]
        bad = tmp_path / "regions.json"
        bad.write_text(json.dumps(rows))
        with pytest.raises(TableInvalidError):
            load_region_table(bad)


class TestIdentity:
    """A spec is its id, anchor and integer form: equal exactly when the rows
    print the same region, whatever the spelling of its rationals."""

    def test_two_parses_are_equal_with_equal_hashes(self):
        text = json.dumps(builtin_rows())
        first, second = regions._parse_table(text), regions._parse_table(text)
        for a, b in zip(first, second, strict=True):
            assert a is not b and a == b and hash(a) == hash(b), a.id
        assert len(set(first) | set(second)) == len(first)

    def test_respelt_rationals_give_an_equal_spec(self):
        row = next(row for row in builtin_rows() if row["id"] == "Df")  # anchor (4/3, 2/3)
        spec = _parse_row(row)
        row["anchor"] = ["8/6", "4/6"]
        row["blocks"] = [[f"{F(c).numerator * 3}/{F(c).denominator * 3}" for c in b] for b in row["blocks"]]
        assert _parse_row(row) == spec and hash(_parse_row(row)) == hash(spec)

    @pytest.mark.parametrize("edit", ["strictness", "anchor", "block length"])
    def test_one_edit_gives_an_unequal_spec(self, edit):
        for row in builtin_rows():
            spec = _parse_row(row)
            if edit == "strictness":
                row["constraints"][-1]["strict"] = not row["constraints"][-1]["strict"]
            elif edit == "anchor":
                row["anchor"][1] = format_rat(F(row["anchor"][1]) + F(1, 7))
            else:
                row["blocks"][-1][2] = format_rat(F(row["blocks"][-1][2]) + 1)
            assert _parse_row(row) != spec, (row["id"], edit)


RATIONALS = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(st.tuples(RATIONALS, RATIONALS), min_size=3, max_size=3, unique=True),
    anchor=st.tuples(RATIONALS, RATIONALS),
    strict=st.lists(st.booleans(), min_size=4, max_size=4),
    grad=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    slack=st.sampled_from([F(0), F(0), F(1, 7), F(3)]),
)
def test_triangle_sides_recover_its_vertices(points, anchor, strict, grad, slack):
    # The three edge lines of a triangle, each facing its opposite vertex,
    # plus a redundant side g.(eps, delta) + c >= 0 that holds on the whole
    # triangle (through a vertex when the slack is 0), give back exactly the
    # triangle's corners.
    (x0, y0), (x1, y1), (x2, y2) = points
    assume((x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0))
    a0, b0 = anchor
    offsets = [(x - a0, y - b0) for x, y in points]
    sides = []
    for (p, q), r in zip([(1, 2), (2, 0), (0, 1)], range(3)):
        (xp, yp), (xq, yq) = offsets[p], offsets[q]
        f = Affine2(xp * yq - xq * yp, yp - yq, xq - xp)
        e, d = offsets[r]
        sign = 1 if f.c0 + f.c_eps * e + f.c_delta * d > 0 else -1
        sides.append(Affine2(sign * f.c0, sign * f.c_eps, sign * f.c_delta))
    if grad != (0, 0):
        c = slack - min(grad[0] * e + grad[1] * d for e, d in offsets)
        sides.append(Affine2(c, F(grad[0]), F(grad[1])))
    row = {
        "id": "T",
        "anchor": [format_rat(a0), format_rat(b0)],
        "constraints": [{"expr": f.to_strings(), "strict": s} for f, s in zip(sides, strict)],
        "dsym": ["1", "0", "0"],
        "blocks": [["1", "0", "0"]],
    }
    assert offset_vertices(_parse_row(row)) == tuple(sorted(offsets))


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

    @pytest.mark.parametrize(
        "alpha,beta,message",
        [
            (True, False, "^alpha must be a rational number, got True$"),
            (F(8, 5), None, "^beta must be a rational number, got None$"),
            ("1e9999999", 0, "^alpha: decimal exponent 9999999 outside"),
        ],
    )
    def test_point_must_be_rational(self, table, alpha, beta, message):
        # classify(True, False) classified the point (1, 0).
        for query in (classify, dsym_at, lambda a, b, _: converse_bound(a, b)):
            with pytest.raises(NotARationalError, match=message):
                query(alpha, beta, table)

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
