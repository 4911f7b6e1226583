"""Property tests of `check_validity` and the point scanners against
`Fraction` references.

The first draws a built-in region and a role for every block, walking the
blocks in printed order: zero, single, or a twin pair with a later free block
of equal length.  `check_validity` computes on the region's integer form; the
reference evaluates each block length with `affine_eval` at the closure's
vertices and sums the printed coefficients as Fractions.  The three verdicts
and their witness strings must agree.

The second draws a custom region: a rational triangle or convex quadrilateral
inside the square, around a random anchor, with random blocks.  The lattice
scan, the least interior point and the block-ratio points, which walk the
closure's box on the integer form, must equal the per-point references of
test_scheme.py, which test each point against the printed half-planes.
"""

from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detic.exactmath import Affine2, HalfPlane, Polygon, affine_eval, format_rat
from detic.regions import RegionSpec, load_region_table
from detic.scheme import (
    SINGLE,
    TWIN_FIRST,
    TWIN_SECOND,
    ZERO,
    BlockRole,
    Layout,
    _interior_lattice,
    _least_interior,
    _ratio_points,
    check_validity,
    load_frozen_layouts,
)
from test_regions_reference import offset_vertices
from test_scheme import _least_point_on, _per_line_ratio_points, _per_point_lattice

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
        if any(affine_eval(length, e, d) < 0 for e, d in offset_vertices(spec))
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


def _turns(ring):
    """The cross product at each corner of a closed polygon."""
    return [
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        for a, b, c in zip(ring[-2:] + ring[:-2], ring[-1:] + ring[:-1], ring)
    ]


COEFFS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def custom_regions(draw):
    """A triangle or convex quadrilateral with corners on the 1/q lattice of
    the square (q <= 6), its sides printed around an anchor on the 1/q'
    lattice (q' <= 9), and two or three blocks that sum to 1."""
    q = draw(st.integers(1, 6))
    corner = st.tuples(st.integers(q, 2 * q), st.integers(0, q))
    points = [(F(i, q), F(j, q)) for i, j in draw(st.lists(corner, min_size=3, max_size=4, unique=True))]
    cycles = [(0, 1, 2)] if len(points) == 3 else [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    rings = [[points[k] for k in cycle] for cycle in cycles]
    convex = [r for r in rings if all(t > 0 for t in _turns(r)) or all(t < 0 for t in _turns(r))]
    assume(convex)
    ring = convex[0] if _turns(convex[0])[0] > 0 else convex[0][::-1]  # inside is left of each edge
    qa = draw(st.integers(1, 9))
    a0, b0 = 1 + F(draw(st.integers(0, qa)), qa), F(draw(st.integers(0, qa)), qa)
    sides = []
    for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
        # (qx - px)(beta - py) - (qy - py)(alpha - px) >= 0 at (alpha, beta) = (a0 + eps, b0 + delta)
        expr = Affine2((qx - px) * (b0 - py) - (qy - py) * (a0 - px), py - qy, qx - px)
        sides.append(HalfPlane(expr, draw(st.booleans())))
    blocks = [Affine2(*draw(st.tuples(COEFFS, COEFFS, COEFFS))) for _ in range(draw(st.integers(1, 2)))]
    rest = [-sum(c) for c in zip(*((f.c0, f.c_eps, f.c_delta) for f in blocks))]
    blocks.append(Affine2(1 + rest[0], rest[1], rest[2]))
    return RegionSpec("T", a0, b0, Polygon(sides), blocks[0], tuple(blocks))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=custom_regions(), den=st.integers(1, 24))
def test_scanners_match_per_point_references_on_custom_regions(spec, den):
    assert len(spec.form.vertices) == len(spec.polygon.halfplanes)
    assert list(_interior_lattice(spec, den)) == _per_point_lattice(spec, den)
    assert _least_interior(spec) == _least_point_on(spec, (0, 0, 0))  # no line: every point
    assert set(_ratio_points(spec)) == _per_line_ratio_points(spec)
