"""CLI payloads compared byte for byte with recorded outputs.

The files under `data/cli/` were written by `detic` itself (one file per
case, named by the case id): the render, simulate, plan, oracle and search
outputs before the channel placement rule moved into `channel.paths`, the
catalog outputs (atlas, boundary audit, classify) while every region test
still ran through `Fraction` arithmetic.  Any change to placement, decoding,
the rank oracle, the search or the region catalog's evaluation shows up here
as a diff of the SVG, CSV or JSON text.  The refusal cases pin the JSON error,
its extra fields and the exit code: 1 for a point the catalog does not
cover, 2 for bad input.
"""

from pathlib import Path

import pytest

from detic.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"

WORKED = ("--alpha", "8/5", "--beta", "9/10", "--n", "60")
CASES = {
    "render_k3_r1.svg": (0, "render", *WORKED, "--k", "3", "--receiver", "1"),
    "render_k3_r2.svg": (0, "render", *WORKED, "--k", "3", "--receiver", "2"),
    "render_k3_r3.svg": (0, "render", *WORKED, "--k", "3", "--receiver", "3"),
    "render_k5_r2.svg": (0, "render", *WORKED, "--k", "5", "--receiver", "2"),
    "simulate_readme.json": (0, "simulate", *WORKED, "--k", "3", "--trials", "50", "--seed", "1"),
    "plan_n60.json": (0, "plan", *WORKED),
    "verify_table.json": (0, "verify", "--suite", "table"),
    "verify_oracle.json": (0, "verify", "--suite", "oracle"),
    "verify_search.json": (0, "verify", "--suite", "search"),
    "verify_boundaries.json": (0, "verify", "--suite", "boundaries"),
    "atlas_grid41.csv": (0, "atlas", "--grid", "41", "--format", "csv"),
    "atlas_grid41.svg": (0, "atlas", "--grid", "41", "--format", "svg"),
    # The worked example, an uncovered corner, a vertex of four closures, a
    # point on Ba's strict edge (so Bg matches) and a 1/60 grid point where
    # the closures of Aa and Bb meet.
    "classify_worked.json": (0, "classify", "--alpha", "8/5", "--beta", "9/10"),
    "classify_uncovered.json": (0, "classify", "--alpha", "1", "--beta", "1"),
    "classify_vertex.json": (0, "classify", "--alpha", "9/7", "--beta", "3/7"),
    "classify_strict_edge.json": (0, "classify", "--alpha", "19/14", "--beta", "19/42"),
    "classify_two_closures.json": (0, "classify", "--alpha", "77/60", "--beta", "17/60"),
    # Refusals: the JSON error on stdout, then exit 1 or 2.
    "plan_uncovered.json": (1, "plan", "--alpha", "1", "--beta", "1"),
    "plan_n7.json": (2, "plan", "--alpha", "8/5", "--beta", "9/10", "--n", "7"),
    "atlas_grid1.json": (2, "atlas", "--grid", "1"),
    "verify_nope.json": (2, "verify", "--suite", "nope"),
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(capsys, name):
    want, *argv = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want
    assert out == (GOLDEN_DIR / name).read_text()
