#!/usr/bin/env python3
"""Regenerate src/detic/data/layouts.json from the role-inference search.

The file is checked in for reproducibility; tests assert that re-deriving
every layout reproduces it.

    PYTHONPATH=src python tools/freeze_layouts.py          # rewrite the file
    PYTHONPATH=src python tools/freeze_layouts.py --check  # compare only

With --check nothing is written, and the exit code is 1 when the re-derived
file differs from the checked-in one in any byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from detic.exactmath import format_rat
from detic.regions import load_region_table
from detic.scheme import infer_roles, interior_sample

OUT = Path(__file__).resolve().parent.parent / "src" / "detic" / "data" / "layouts.json"


def derive() -> str:
    """The layouts.json text re-derived from the built-in region catalog."""
    entries = []
    for spec in load_region_table():
        layout = infer_roles(spec)
        eps, delta = interior_sample(spec)
        entry = layout.to_json_dict()
        entry["interior"] = [format_rat(eps), format_rat(delta)]
        entries.append(entry)
        print(f"{spec.id}: {[r.to_string() for _, r in layout.blocks]}")
    return json.dumps(entries, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-derive and compare with the checked-in file byte for byte; "
        "write nothing and exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    text = derive()
    if args.check:
        if OUT.read_bytes() != text.encode():
            print(f"{OUT} differs from the re-derived layouts", file=sys.stderr)
            return 1
        print(f"{OUT} matches the re-derived layouts")
        return 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
