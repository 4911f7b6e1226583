"""Atlas output pinned by digest.

`data/atlas_digests.json` holds one sha256 over the CSV of every grid from 2
to 60 and of grid 201 (the largest the CLI accepts), in that order, and one
over the grid-201 SVG, all from the built-in table.  Any change to a row's
region, rate, alpha or beta string, or to the order of the rows, shows up
here.

Run this file as a script to print the digests of the current tree; with
`--write` it records them.
"""

import hashlib
import json
import sys
from pathlib import Path

from detic.regions import atlas_rows, load_region_table
from detic.render import atlas_csv, atlas_svg

GOLDEN = Path(__file__).parent / "data" / "atlas_digests.json"
CSV_GRIDS = (*range(2, 61), 201)
SVG_GRID = 201


def digests() -> dict[str, str]:
    table = load_region_table()
    csv = hashlib.sha256()
    for grid in CSV_GRIDS:
        csv.update(atlas_csv(atlas_rows(grid, table)).encode())
    svg = atlas_svg(atlas_rows(SVG_GRID, table), SVG_GRID)
    return {"csv": csv.hexdigest(), "svg": hashlib.sha256(svg.encode()).hexdigest()}


def test_atlas_output_matches_recorded_digests():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    got = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    print(json.dumps(got, indent=2))
