"""Every single-level corruption of a valid word decodes as it did before the
peeling schedule was compiled.

`data/peel_single_flips.json` was recorded with the earlier decoder, which
re-ran the fixpoint bit by bit on every received word.  For receiver 1 of the
Df worked example and of the Bd frozen interior (N = 60, K = 3) it holds a
valid word and, for each level flipped in turn, either the bits decoded from
the corrupted word or the exact InconsistentSignalError message.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from detic.channel import make_channel
from detic.decode import InconsistentSignalError, peel_bits, receiver_view
from detic.scheme import build_assignment

CASES = json.loads((Path(__file__).parent / "data" / "peel_single_flips.json").read_text())


def _bit_string(bits) -> str | None:
    return None if bits is None else "".join(str(int(b)) for b in bits)


@pytest.mark.parametrize("case", CASES, ids=[case["region"] for case in CASES])
def test_single_level_flips_match_goldens(case, regions_by_id, frozen_layouts):
    spec = regions_by_id[case["region"]]
    alpha, beta, n = Fraction(case["alpha"]), Fraction(case["beta"]), case["n"]
    assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
    view = receiver_view(assign, make_channel(case["k"], n, alpha, beta), case["receiver"])
    word = np.array([int(c) for c in case["word"]], dtype=np.uint8)
    assert _bit_string(peel_bits(view, word)[0]) == case["bits"]
    assert len(case["flips"]) == 2 * n
    for level0, want in enumerate(case["flips"]):
        bad = word.copy()
        bad[level0] ^= 1
        if "error" in want:
            with pytest.raises(InconsistentSignalError) as exc:
                peel_bits(view, bad)
            assert str(exc.value) == want["error"], level0
        else:
            assert _bit_string(peel_bits(view, bad)[0]) == want["bits"], level0
