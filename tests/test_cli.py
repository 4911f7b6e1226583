import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

import detic
from detic import cli, decode
from detic.channel import make_channel
from detic.cli import main
from detic.decode import receiver_view
from detic.regions import classify
from detic.scheme import build_assignment, layout_for


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "classify", "--alpha", "8/5", "--beta", "9/10")
        payload = json.loads(out)
        assert code == 0
        assert payload["region"] == "Df"
        assert payload["dsym"] == "11/20"
        assert payload["eps"] == "4/15"
        assert payload["delta"] == "7/30"
        assert payload["converseBound"] == "13/20"

    def test_decimal_flags(self, capsys):
        code, out = run(capsys, "classify", "--alpha-decimal", "1.6", "--beta-decimal", "0.9")
        assert code == 0
        assert json.loads(out)["region"] == "Df"

    def test_uncovered_reports_dash(self, capsys):
        code, out = run(capsys, "classify", "--alpha", "2/1", "--beta", "1/2")
        payload = json.loads(out)
        assert code == 0
        assert payload["region"] == "-"
        assert payload["dsym"] is None

    def test_out_of_square_is_usage_error(self, capsys):
        code, out = run(capsys, "classify", "--alpha", "3/1", "--beta", "0/1")
        assert code == 2
        assert "error" in json.loads(out)

    def test_bad_literal_is_usage_error(self, capsys):
        code, out = run(capsys, "classify", "--alpha", "1.6", "--beta", "9/10")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--alpha", "--alpha-decimal"])
    def test_zero_denominator_is_usage_error(self, capsys, flag):
        code, out = run(capsys, "classify", flag, "1/0", "--beta", "1/2")
        assert code == 2
        assert "zero denominator" in json.loads(out)["error"]

    @pytest.mark.parametrize("literal", ["1e99999999", "1E-1001", "0." + "0" * 999 + "1"])
    def test_huge_decimal_is_refused_at_once(self, capsys, literal):
        start = time.perf_counter()
        code, out = run(capsys, "classify", "--alpha-decimal", literal, "--beta", "0")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command", ["classify", "plan", "simulate", "render"])
    @pytest.mark.parametrize("beta_den", [10**3999 + 9, 9999999999])
    def test_point_of_huge_common_denominator_is_refused_by_name(self, capsys, command, beta_den):
        q = 10**3999 + 7
        alpha, beta = f"{3 * q // 2}/{q}", f"{beta_den // 3}/{beta_den}"
        code, out = run(capsys, command, "--alpha", alpha, "--beta", beta)
        assert code == 2
        assert json.loads(out) == {"error": "alpha and beta: common denominator of more than 3990 digits"}

    def test_common_denominator_bound_is_3990_digits(self, capsys):
        q = 10**cli.POINT_MAX_DIGITS - 1
        code, out = run(capsys, "classify", "--alpha", f"{q + 1}/{q}", "--beta", "0")
        assert code == 0
        assert json.loads(out)["converseBound"] == f"{(q + 1) // 2}/{q}"
        code, out = run(capsys, "classify", "--alpha", f"{q + 2}/{q + 1}", "--beta", "0")
        assert code == 2

    @pytest.mark.parametrize("literal", ["1.6", "16e-1", "0.0016E+3", "1_6e-1", " +1.60 "])
    def test_ordinary_decimals_parse(self, capsys, literal):
        code, out = run(capsys, "classify", "--alpha-decimal", literal, "--beta", "9/10")
        assert code == 0
        assert json.loads(out)["alpha"] == "8/5"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--alpha", "3/2", "--alpha-decimal", "9", "--beta", "1/2"),
            ("--alpha", "3/2", "--beta", "1/2", "--beta-decimal", "0.5"),
        ],
    )
    def test_rational_and_decimal_of_one_coordinate_conflict(self, capsys, flags):
        code, out = run(capsys, "classify", *flags)
        assert code == 2
        assert "not allowed with argument" in json.loads(out)["error"]

    @pytest.mark.parametrize("coordinate", ["alpha", "beta"])
    def test_missing_coordinate_is_usage_error(self, capsys, coordinate):
        given = {"alpha": "--beta", "beta": "--alpha"}[coordinate]
        code, out = run(capsys, "classify", given, "1")
        assert code == 2
        assert json.loads(out) == {
            "error": f"one of the arguments --{coordinate} --{coordinate}-decimal is required"
        }

    def test_bad_option_value_is_json_usage_error(self, capsys):
        code, out = run(capsys, "plan", "--alpha", "8/5", "--beta", "9/10", "--n", "six")
        assert code == 2
        assert "invalid int value" in json.loads(out)["error"]


class TestMain:
    def test_a_plain_value_error_is_a_bug_not_bad_input(self, capsys, monkeypatch):
        # main turns only a DeticError into exit 2; any other ValueError propagates.
        def broken(args, table):
            raise ValueError("not a refusal")

        monkeypatch.setattr(cli, "cmd_classify", broken)
        with pytest.raises(ValueError, match="^not a refusal$"):
            main(["classify", "--alpha", "8/5", "--beta", "9/10"])
        assert capsys.readouterr().out == ""

    def test_a_library_refusal_exits_two(self, capsys):
        code, out = run(capsys, "render", "--alpha", "8/5", "--beta", "9/10", "--n", "60", "--receiver", "0")
        assert code == 2
        assert json.loads(out) == {"error": "receiver >= 1 required, got receiver = 0"}


class TestPlan:
    def test_worked_example_counts(self, capsys):
        code, out = run(capsys, "plan", "--alpha", "8/5", "--beta", "9/10", "--n", "60")
        payload = json.loads(out)
        assert code == 0
        assert payload["counts"] == [6, 9, 6, 12, 9, 6, 12]
        assert payload["m"] == 33
        assert payload["minimalN"] == 20

    def test_default_n_is_minimal(self, capsys):
        code, out = run(capsys, "plan", "--alpha", "8/5", "--beta", "9/10")
        payload = json.loads(out)
        assert code == 0
        assert payload["n"] == payload["minimalN"] == 20

    def test_uncovered_is_check_failure(self, capsys):
        code, out = run(capsys, "plan", "--alpha", "2/1", "--beta", "1/2")
        assert code == 1
        assert "error" in json.loads(out)

    def test_non_integral_n_is_usage_error(self, capsys):
        code, out = run(capsys, "plan", "--alpha", "8/5", "--beta", "9/10", "--n", "10")
        payload = json.loads(out)
        assert code == 2
        assert payload["minimalN"] == 20

    @pytest.mark.parametrize("command", ["plan", "simulate", "render"])
    @pytest.mark.parametrize("n", ["0", "-20"])
    def test_n_below_one_is_usage_error(self, capsys, command, n):
        code, out = run(capsys, command, "--alpha", "8/5", "--beta", "9/10", "--n", n)
        assert code == 2
        assert json.loads(out) == {"error": f"N >= 1 required, got N = {n}"}

    @pytest.mark.parametrize("command", ["plan", "render"])
    def test_oversized_n_is_refused_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out = run(capsys, command, "--alpha", "8/5", "--beta", "9/10", "--n", "60000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "N <= 6000" in json.loads(out)["error"]


class TestSimulate:
    def test_worked_example(self, capsys):
        code, out = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", "60", "--k", "3", "--trials", "5", "--seed", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["success"] is True
        assert payload["achievedRate"] == "11/20"
        assert payload["failures"] == 0

    def test_five_pairs(self, capsys):
        code, out = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", "20", "--k", "5", "--trials", "3", "--seed", "2",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["success"] is True

    def test_seed_determinism(self, capsys):
        args = ("simulate", "--alpha", "4/3", "--beta", "2/3", "--trials", "4", "--seed", "7")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_one_compile_per_channel(self, capsys, monkeypatch):
        compiled = []
        real = decode._compile
        monkeypatch.setattr(decode, "_compile", lambda *a: compiled.append(a[2]) or real(*a))
        decode._channel_program.cache_clear()
        code, _ = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", "40", "--k", "7", "--trials", "3",
        )
        assert code == 0
        assert compiled == [1]

    def test_one_receiver_view_whatever_k(self, capsys, monkeypatch):
        made = []
        init = decode.ReceiverView.__init__
        monkeypatch.setattr(
            decode.ReceiverView, "__init__", lambda view, *a: made.append(a[0]) or init(view, *a)
        )
        code, _ = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", "40", "--k", "7", "--trials", "3",
        )
        assert code == 0
        assert made == [1]

    def test_ee_odd_ratio_point_decodes(self, capsys):
        # Strictly inside Ee, where block 2 has as many pipes as block 0; the
        # Ee layout frozen before the block-ratio validation points failed here.
        code, out = run(
            capsys, "simulate", "--alpha", "21/11", "--beta", "9/11",
            "--n", "11", "--k", "3", "--trials", "5",
        )
        payload = json.loads(out)
        assert code == 0
        assert (payload["region"], payload["failures"], payload["m"]) == ("Ee", 0, 6)

    @pytest.mark.parametrize(
        "point,failures",
        [(("--alpha", "1", "--beta", "1/2", "--n", "4", "--trials", "2"), 6),
         (("--alpha", "3/2", "--beta", "1", "--n", "6"), 30)],
        ids=["alpha-one", "beta-one"],
    )
    def test_failed_run_reports_nothing_decoded(self, capsys, point, failures):
        # On a degenerate edge every decode fails, so nothing was delivered.
        code, out = run(capsys, "simulate", *point)
        payload = json.loads(out)
        assert code == 1
        assert payload["failures"] == failures
        assert payload["success"] is False
        assert payload["achievedRate"] == "0/1"
        assert payload["decodedReceivers"] == 0

    def test_receiver_with_a_wrong_trial_is_not_counted(self, capsys, monkeypatch):
        from detic import cli

        real, calls = cli.peel_bits, []

        def peel_bits(view, words):  # flips one bit of receiver 2 in the second trial
            got, trace = real(view, words)
            calls.append(None)
            if len(calls) == 2:
                got = got.copy()
                got[1, 0] ^= 1
            return got, trace

        monkeypatch.setattr(cli, "peel_bits", peel_bits)
        code, out = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10", "--n", "20", "--trials", "3"
        )
        payload = json.loads(out)
        assert code == 1
        assert (payload["failures"], payload["decodedReceivers"]) == (1, 2)
        assert payload["achievedRate"] == "0/1"

    def test_negative_seed_is_refused_by_name(self, capsys):
        code, out = run(capsys, "simulate", "--alpha", "8/5", "--beta", "9/10", "--seed", "-1")
        assert code == 2
        assert json.loads(out) == {"error": "--seed must be >= 0, got -1"}

    def test_zero_trials_is_refused_by_name(self, capsys):
        # A degenerate point, where no scheme decodes: with no trial run,
        # the payload once claimed success and the rate m/N.
        code, out = run(
            capsys, "simulate", "--alpha", "1", "--beta", "1/2", "--n", "4", "--trials", "0"
        )
        assert code == 2
        assert json.loads(out) == {"error": "--trials must be >= 1, got 0"}

    def test_too_few_pairs_is_usage_error(self, capsys):
        code, out = run(capsys, "simulate", "--alpha", "4/3", "--beta", "2/3", "--k", "2")
        assert code == 2
        assert "error" in json.loads(out)

    def test_oversized_n_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", "60000", "--k", "3", "--trials", "1",
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "N <= 6000" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "n,k,trials,budget",
        [
            ("6000", "40", "1", "N*K <="),
            ("6000", "3", "15000", "trials*(N*K+4000) <="),
            ("20", "3", "80000", "trials*(N*K+4000) <="),
            ("60", "3", "-1", "--trials must be >= 1, got -1"),
        ],
        ids=["compile", "decode", "per-trial", "negative-trials"],
    )
    def test_size_budget(self, capsys, n, k, trials, budget):
        code, out = run(
            capsys, "simulate", "--alpha", "8/5", "--beta", "9/10",
            "--n", n, "--k", k, "--trials", trials,
        )
        assert code == 2
        assert budget in json.loads(out)["error"]


class TestVerify:
    @pytest.mark.parametrize("suite", ["table", "boundaries", "oracle", "search"])
    def test_suites_pass(self, capsys, suite):
        code, out = run(capsys, "verify", "--suite", suite)
        payload = json.loads(out)
        assert code == 0, payload
        assert payload["passed"] is True


class TestAtlas:
    def test_csv_grid_three(self, capsys):
        code, out = run(capsys, "atlas", "--grid", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,region,dsym"
        assert len(lines) == 10
        cells = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
        assert cells[("2/1", "0/1")] == ["Aa", "1/1"]
        assert cells[("1/1", "1/1")] == ["-", ""]

    def test_svg_well_formed(self, capsys):
        code, out = run(capsys, "atlas", "--grid", "5", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 25

    def test_grid_too_small(self, capsys):
        code, _ = run(capsys, "atlas", "--grid", "1")
        assert code == 2

    @pytest.mark.parametrize("grid", ["202", "100000000"])
    def test_grid_too_large_is_refused_at_once(self, capsys, grid):
        start = time.perf_counter()
        code, out = run(capsys, "atlas", "--grid", grid)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "2..201" in json.loads(out)["error"]


class TestRender:
    def test_svg_structure(self, capsys):
        code, out = run(
            capsys, "render", "--alpha", "8/5", "--beta", "9/10", "--n", "60",
            "--receiver", "1",
        )
        assert code == 0
        root = ET.fromstring(out)
        res = classify(F(8, 5), F(9, 10))
        assign = build_assignment(layout_for(res.region), res.region, F(8, 5), F(9, 10), 60)
        view = receiver_view(assign, make_channel(3, 60, F(8, 5), F(9, 10)), 1)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        data_segments = sum(1 for s in assign.segments if s.role.is_data and s.count)
        zero_segments = sum(1 for s in assign.segments if not s.role.is_data and s.count)
        assert len(rects) == len(view.blocks) + data_segments + zero_segments

    def test_uncovered_point(self, capsys):
        code, _ = run(capsys, "render", "--alpha", "2/1", "--beta", "1/2")
        assert code == 1

    def test_receiver_out_of_range_is_usage_error(self, capsys):
        code, _ = run(capsys, "render", "--alpha", "8/5", "--beta", "9/10", "--receiver", "4")
        assert code == 2


class TestTableOverride:
    def test_table_flag(self, capsys, tmp_path):
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        only_df = [r for r in rows if r["id"] == "Df"]
        path = tmp_path / "only_df.json"
        path.write_text(json.dumps(only_df))
        code, out = run(
            capsys, "--table", str(path), "classify", "--alpha", "2/1", "--beta", "0/1"
        )
        assert code == 0
        assert json.loads(out)["region"] == "-"

    def test_search_suite_on_a_table_covering_no_search_point(self, capsys, tmp_path):
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        path = tmp_path / "only_df.json"
        path.write_text(json.dumps([r for r in rows if r["id"] == "Df"]))
        code, out = run(capsys, "--table", str(path), "verify", "--suite", "search")
        payload = json.loads(out)
        assert code == 1
        assert payload["passed"] is False
        # Df covers only the third search point, (4/3, 2/3).
        assert [case["expected"] for case in payload["detail"]] == [None, None, 2]
        assert [case["passed"] for case in payload["detail"]] == [False, False, True]

    def test_search_suite_compares_the_exact_rate(self, capsys, tmp_path):
        # At (4/3, 2/3) with N = 3 a rate of 5/6 gives 5/2 symbols, which is not
        # the searched optimum 2 even though it rounds down to it.
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        for row in rows:
            if row["anchor"] == ["4/3", "2/3"]:
                row["dsym"][0] = "5/6"
        path = tmp_path / "off_rate.json"
        path.write_text(json.dumps(rows))
        code, out = run(capsys, "--table", str(path), "verify", "--suite", "search")
        payload = json.loads(out)
        assert code == 1
        assert payload["passed"] is False
        assert [case["passed"] for case in payload["detail"]] == [True, True, False]

    def test_extra_blocks_are_not_read_through_the_frozen_layout(self, capsys, tmp_path):
        # Two blocks appended to Ab still sum to 1, but the second is negative
        # inside Ab.  The built-in 2-block layout of Ab must not be reused for
        # the 4-block row: it would check and fill only the first two blocks.
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        ab = next(r for r in rows if r["id"] == "Ab")
        ab["blocks"] += [["1/10", "0", "0"], ["-1/10", "0", "0"]]
        path = tmp_path / "ab_tail.json"
        path.write_text(json.dumps(rows))
        code, out = run(capsys, "--table", str(path), "verify", "--suite", "table")
        assert code == 2
        assert json.loads(out) == {"error": "block length ['-1/10', '0/1', '0/1'] negative at (3/2, 1/2)"}

    def test_region_without_a_small_interior_point_is_usage_error(self, capsys, tmp_path):
        # The sliver 0 < delta < eps/500, eps < 1/2 has no interior point with
        # N <= 120, so no validation point set and no layout can be derived.
        row = {
            "id": "Zz",
            "anchor": ["3/2", "1/2"],
            "constraints": [
                {"expr": ["0", "0", "1"], "strict": True},
                {"expr": ["0", "1", "-500"], "strict": True},
                {"expr": ["1/2", "-1", "0"], "strict": True},
            ],
            "dsym": ["1/2", "0", "0"],
            "blocks": [["1", "0", "0"]],
        }
        path = tmp_path / "sliver.json"
        path.write_text(json.dumps([row]))
        code, out = run(capsys, "--table", str(path), "verify", "--suite", "oracle")
        assert code == 2
        assert json.loads(out) == {"error": "region Zz: no interior point with N <= 120"}

    def test_row_outside_the_square_is_usage_error(self, capsys, tmp_path):
        # Zz's closure reaches alpha = 5/2.  classify once answered Zz at
        # (2, 1/4), and plan there exited 2 naming alpha = 5/2 but no row.
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
        path = tmp_path / "outside.json"
        path.write_text(json.dumps([row]))
        want = "row Zz: closure spans alpha in [2/1, 5/2], beta in [0/1, 1/2], outside [1,2] x [0,1]"
        for command in ("classify", "plan"):
            code, out = run(capsys, "--table", str(path), command, "--alpha", "2", "--beta", "1/4")
            assert code == 2
            assert json.loads(out) == {"error": want}

    @pytest.mark.parametrize(
        "edit,want",
        [
            (lambda row: row["constraints"][0].update(expr=["0", "0/3", "-0"]),
             "row Aa: half-plane expression is identically zero"),
            (lambda row: row.update(blocks=[]), "row Aa: empty block list"),
        ],
        ids=["all-zero constraint", "no blocks"],
    )
    def test_degenerate_row_is_usage_error(self, capsys, tmp_path, edit, want):
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        edit(rows[0])
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(rows))
        code, out = run(capsys, "--table", str(path), "classify", "--alpha", "8/5", "--beta", "9/10")
        assert code == 2
        assert json.loads(out) == {"error": want}

    def test_id_with_a_comma_is_usage_error(self, capsys, tmp_path):
        # "A,a" once gave atlas CSV lines of 5 fields.
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        rows[1]["id"] = "A,a"
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(rows))
        code, out = run(capsys, "--table", str(path), "atlas", "--grid", "3")
        assert code == 2
        assert json.loads(out) == {"error": "row A,a: region id must be letters, digits and _, got 'A,a'"}

    def test_missing_table_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out = run(
            capsys, "--table", str(missing), "classify", "--alpha", "8/5", "--beta", "9/10"
        )
        assert code == 2
        assert str(missing) in json.loads(out)["error"]

    def test_rows_that_are_not_objects_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[1, 2]")
        code, out = run(
            capsys, "--table", str(path), "classify", "--alpha", "8/5", "--beta", "9/10"
        )
        assert code == 2
        assert json.loads(out) == {"error": "row 0: expected a JSON object, got int"}

    def test_row_without_blocks_is_usage_error(self, capsys, tmp_path):
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        del rows[0]["blocks"]
        path = tmp_path / "no_blocks.json"
        path.write_text(json.dumps(rows))
        code, out = run(
            capsys, "--table", str(path), "classify", "--alpha", "8/5", "--beta", "9/10"
        )
        assert code == 2
        assert json.loads(out) == {"error": "row Aa: missing field 'blocks'"}

    def test_inexact_anchor_is_usage_error(self, capsys, tmp_path):
        # A float anchor once loaded as its binary value, and classify printed
        # delta = 5404319552844595/36028797018963968 at (3/2, 1/4).
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        rows[0]["anchor"] = ["2", 0.1]
        path = tmp_path / "float_anchor.json"
        path.write_text(json.dumps(rows))
        code, out = run(
            capsys, "--table", str(path), "classify", "--alpha", "3/2", "--beta", "1/4"
        )
        assert code == 2
        assert json.loads(out) == {"error": "row Aa: not a rational literal: 0.1"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("plan", "--alpha", "5/4", "--beta", "1/12"),
            ("verify", "--suite", "table"),
            ("verify", "--suite", "oracle"),
        ],
    )
    def test_changed_blocks_are_rederived_by_every_command(self, capsys, tmp_path, argv):
        # Aa with its blocks 0 and 2 swapped no longer matches its frozen
        # layout; every command re-derives it the same way, and no role
        # assignment of the swapped blocks works.
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        blocks = next(r for r in rows if r["id"] == "Aa")["blocks"]
        blocks[0], blocks[2] = blocks[2], blocks[0]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(rows))
        code, out = run(capsys, "--table", str(path), *argv)
        assert code == 2
        assert json.loads(out) == {
            "error": "region Aa: no role assignment is valid and decodable "
            "(catalog transcription error?)"
        }

    def test_table_that_is_not_utf8_text_is_refused(self, capsys, tmp_path):
        # The decode error is a ValueError that no DeticError wrapped.
        path = tmp_path / "latin1.json"
        path.write_bytes('[{"id": "\u00e9"}]'.encode("latin-1"))
        code, out = run(capsys, "--table", str(path), "classify", "--alpha", "8/5", "--beta", "9/10")
        assert code == 2
        assert json.loads(out)["error"].startswith("catalog is not valid JSON: 'utf-8' codec")

    def test_empty_table_flag_is_refused(self, capsys, monkeypatch):
        # An empty path once fell through to the built-in catalog; an empty
        # DETIC_TABLE still means unset.
        monkeypatch.setenv("DETIC_TABLE", "")
        code, out = run(capsys, "--table", "", "classify", "--alpha", "8/5", "--beta", "9/10")
        assert code == 2
        assert json.loads(out)["error"] == "cannot read region table '': the path is empty"
        code, out = run(capsys, "classify", "--alpha", "8/5", "--beta", "9/10")
        assert code == 0
        assert json.loads(out)["region"] == "Df"

    def test_env_fallback(self, capsys, tmp_path, monkeypatch):
        rows = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())
        path = tmp_path / "table.json"
        path.write_text(json.dumps(rows))
        monkeypatch.setenv("DETIC_TABLE", str(path))
        code, out = run(capsys, "classify", "--alpha", "8/5", "--beta", "9/10")
        assert code == 0
        assert json.loads(out)["region"] == "Df"


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils would bring in urllib.request, http.client and ssl:
    # several MB and tens of ms on every CLI run.
    src = str(Path(detic.__file__).resolve().parents[1])
    code = (
        "import sys, detic.cli; "
        "print([m for m in ('ssl', 'urllib.request', 'http.client') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
