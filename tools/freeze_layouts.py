#!/usr/bin/env python3
"""Regenerate src/detic/data/layouts.json from the role-inference search.

The file is checked in for reproducibility; tests assert that re-deriving
every layout reproduces it.

    PYTHONPATH=src python tools/freeze_layouts.py          # rewrite the file
    PYTHONPATH=src python tools/freeze_layouts.py --check  # compare only

With --check nothing is written, and the exit code is 1 when the re-derived
file differs from the checked-in one in any byte; the message names the first
region and field that differ.

Each entry's `interior` is a pinned probe point, not re-derived: a region
that already has one keeps it, and only a new region gets its
`scheme.interior_sample`.  The benchmark's simulate cases and the frozen
interiors pinned by tests/data/peel_programs.json are built from these
points, so moving one would move them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from detic.exactmath import format_rat
from detic.regions import load_region_table
from detic.scheme import infer_roles, interior_sample, load_frozen_interiors

OUT = Path(__file__).resolve().parent.parent / "src" / "detic" / "data" / "layouts.json"


def derive() -> str:
    """The layouts.json text re-derived from the built-in region catalog."""
    pinned = load_frozen_interiors()
    entries = []
    for spec in load_region_table():
        layout = infer_roles(spec)
        eps, delta = pinned.get(spec.id) or interior_sample(spec)
        entry = layout.to_json_dict()
        entry["interior"] = [format_rat(eps), format_rat(delta)]
        entries.append(entry)
        print(f"{spec.id}: {[r.to_string() for _, r in layout.blocks]}")
    return json.dumps(entries, indent=2) + "\n"


def first_difference(old: str, new: str) -> str:
    """Where the checked-in text `old` first differs from the re-derived `new`:
    the first region and field, else the entry count, else the formatting."""
    old_entries, new_entries = json.loads(old), json.loads(new)
    for was, now in zip(old_entries, new_entries):
        for key in dict.fromkeys([*now, *was]):
            if was.get(key) != now.get(key):
                return f"region {now['region']}: field {key!r} differs"
    if len(old_entries) != len(new_entries):
        return f"{len(old_entries)} entries checked in, {len(new_entries)} re-derived"
    return "same entries, different formatting"


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
            where = first_difference(OUT.read_text(), text)
            print(f"{OUT} differs from the re-derived layouts: {where}", file=sys.stderr)
            return 1
        print(f"{OUT} matches the re-derived layouts")
        return 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
