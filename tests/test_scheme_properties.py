"""Property test of `check_validity` against a `Fraction` reference.

Each example draws a built-in region and a role for every block, walking the
blocks in printed order: zero, single, or a twin pair with a later free block
of equal length.  `check_validity` computes on the region's integer form; the
reference evaluates each block length with `affine_eval` at the closure's
vertices and sums the printed coefficients as Fractions.  The three verdicts
and their witness strings must agree.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.exactmath import affine_eval, format_rat
from detic.regions import load_region_table
from detic.scheme import (
    SINGLE,
    TWIN_FIRST,
    TWIN_SECOND,
    ZERO,
    BlockRole,
    Layout,
    check_validity,
    load_frozen_layouts,
)

TABLE = load_region_table()
DF = next(spec for spec in TABLE if spec.id == "Df")


@st.composite
def layouts(draw):
    spec = draw(st.sampled_from(TABLE))
    lens = spec.block_lens
    roles: list[BlockRole | None] = [None] * len(lens)
    symbol = 1
    for i, length in enumerate(lens):
        if roles[i] is not None:  # a twin second
            continue
        partners = [j for j in range(i + 1, len(lens)) if roles[j] is None and lens[j] == length]
        choice = draw(st.sampled_from([ZERO, SINGLE, *partners]))
        if choice == ZERO:
            roles[i] = BlockRole(ZERO)
            continue
        if choice == SINGLE:
            roles[i] = BlockRole(SINGLE, symbol)
        else:
            roles[i], roles[choice] = BlockRole(TWIN_FIRST, symbol), BlockRole(TWIN_SECOND, symbol)
        symbol += 1
    return spec, Layout(spec.id, tuple(zip(lens, roles)))


def coeff_sum(forms):
    total = [F(0)] * 3
    for f in forms:
        total = [t + c for t, c in zip(total, (f.c0, f.c_eps, f.c_delta))]
    return total


def show(coeffs):
    return [format_rat(c) for c in coeffs]


def reference_checks(layout, spec):
    bad = [
        length.to_strings()
        for length, _ in layout.blocks
        if any(affine_eval(length, e, d) < 0 for e, d in spec.vertices)
    ]
    total = coeff_sum(length for length, _ in layout.blocks)
    distinct = coeff_sum(length for length, role in layout.blocks if role.kind in (SINGLE, TWIN_FIRST))
    rate = [spec.dsym.c0, spec.dsym.c_eps, spec.dsym.c_delta]
    return [
        (
            "non-negative lengths",
            not bad,
            "all block lengths >= 0 on the region closure" if not bad else f"negative: {bad}",
        ),
        ("lengths sum to one", total == [1, 0, 0], f"sum = {show(total)}"),
        (
            "distinct data equals rate",
            distinct == rate,
            f"distinct sum = {show(distinct)}, rate = {show(rate)}",
        ),
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layouts())
@example((DF, load_frozen_layouts(TABLE)["Df"]))  # one layout that passes all three
def test_validity_matches_fraction_reference(case):
    spec, layout = case
    assert check_validity(layout, spec).checks == reference_checks(layout, spec)
