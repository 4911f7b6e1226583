"""CLI payloads compared byte for byte with recorded outputs.

The files under `data/cli/` were written by `detic` itself (one file per
case, named by the case id) before the channel placement rule moved into
`channel.paths`; any change to placement, decoding, the rank oracle or the
search shows up here as a diff of the SVG or JSON text.
"""

from pathlib import Path

import pytest

from detic.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"

WORKED = ("--alpha", "8/5", "--beta", "9/10", "--n", "60")
CASES = {
    "render_k3_r1.svg": ("render", *WORKED, "--k", "3", "--receiver", "1"),
    "render_k3_r2.svg": ("render", *WORKED, "--k", "3", "--receiver", "2"),
    "render_k3_r3.svg": ("render", *WORKED, "--k", "3", "--receiver", "3"),
    "render_k5_r2.svg": ("render", *WORKED, "--k", "5", "--receiver", "2"),
    "simulate_readme.json": ("simulate", *WORKED, "--k", "3", "--trials", "50", "--seed", "1"),
    "plan_n60.json": ("plan", *WORKED),
    "verify_oracle.json": ("verify", "--suite", "oracle"),
    "verify_search.json": ("verify", "--suite", "search"),
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()
