"""The order of role-inference candidates, pinned by digest.

`infer_roles` accepts the first candidate layout that passes the rate
identity and decodes, so the order in which candidates are enumerated
decides the layout of every region, built-in or from a custom table.
`data/role_candidates.json` holds one sha256 over every layout that passes
the rate identity, in enumeration order (`to_json_dict`), for 90 block
orders: each built-in row as printed, reversed, and in three seeded shuffles.

Run this file as a script to print the digest of the current tree; with
`--write` it records it.
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

from detic.regions import load_region_table
from detic.scheme import _layouts

GOLDEN = Path(__file__).parent / "data" / "role_candidates.json"
SHUFFLES = 3


def _block_orders():
    rng = random.Random(0)
    for spec in load_region_table():
        blocks = spec.form.blocks
        orders = [blocks, blocks[::-1]]
        for _ in range(SHUFFLES):
            shuffled = list(blocks)
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
        for order in orders:
            yield dataclasses.replace(spec, form=dataclasses.replace(spec.form, blocks=order))


def digest() -> dict:
    h = hashlib.sha256()
    count = 0
    for region in _block_orders():
        for layout in _layouts(region):
            h.update(json.dumps(layout.to_json_dict(), sort_keys=True).encode())
            count += 1
    return {"layouts": count, "sha256": h.hexdigest()}


def test_candidate_order_matches_recorded_digest():
    assert digest() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    got = digest()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    print(json.dumps(got, indent=2))
