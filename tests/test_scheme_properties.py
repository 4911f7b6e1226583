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
test_scheme.py, which test each point against the printed half-planes.  The
third holds the column rule they share, `IntegerForm.span` and `column`, on
the same regions against a filter of each point over every printed side.
"""

import math
from fractions import Fraction as F
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detic.exactmath import Affine2, affine_eval, format_rat, polygon_contains
from detic.regions import _parse_row, load_region_table
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
from test_regions_reference import PRINTED, Printed, offset_vertices, strictly_inside
from test_scheme import _least_point_on, _per_line_ratio_points, _per_point_lattice

TABLE = load_region_table()
DF = next(spec for spec in TABLE if spec.id == "Df")


@st.composite
def layouts(draw):
    spec = draw(st.sampled_from(TABLE))
    lens = PRINTED[spec.id].blocks
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
    dsym = PRINTED[spec.id].dsym
    rate = [dsym.c0, dsym.c_eps, dsym.c_delta]
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
    lattice (q' <= 9), and two or three blocks that sum to 1: the loaded
    spec and its row as printed."""
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
        sides.append({"expr": expr.to_strings(), "strict": draw(st.booleans())})
    blocks = [Affine2(*draw(st.tuples(COEFFS, COEFFS, COEFFS))) for _ in range(draw(st.integers(1, 2)))]
    rest = [-sum(c) for c in zip(*((f.c0, f.c_eps, f.c_delta) for f in blocks))]
    blocks.append(Affine2(1 + rest[0], rest[1], rest[2]))
    row = {
        "id": "T",
        "anchor": [format_rat(a0), format_rat(b0)],
        "constraints": sides,
        "dsym": blocks[0].to_strings(),
        "blocks": [f.to_strings() for f in blocks],
    }
    return _parse_row(row), Printed.parse(row)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(region=custom_regions(), den=st.integers(1, 24))
def test_scanners_match_per_point_references_on_custom_regions(region, den):
    spec, row = region
    assert len(spec.form.vertices) == len(row.halfplanes)
    assert list(_interior_lattice(spec, den)) == _per_point_lattice(spec, row, den)
    assert _least_interior(spec) == _least_point_on(spec, row, (0, 0, 0))  # no line: every point
    assert set(_ratio_points(spec)) == _per_line_ratio_points(spec, row)


def _printed_box(row):
    """The closure's (alpha, beta) box from the printed half-planes alone: the
    corners where two side lines meet inside every side."""
    corners = []
    for f, g in combinations([h.expr for h in row.halfplanes], 2):
        det = f.c_eps * g.c_delta - f.c_delta * g.c_eps
        if det:
            eps = (f.c_delta * g.c0 - f.c0 * g.c_delta) / det
            delta = (f.c0 * g.c_eps - f.c_eps * g.c0) / det
            if polygon_contains(row.halfplanes, eps, delta, closure=True):
                corners.append((row.anchor_alpha + eps, row.anchor_beta + delta))
    alpha, beta = zip(*corners)
    return min(alpha), max(alpha), min(beta), max(beta)


@st.composite
def columns(draw):
    """A custom region, a w0, a column w1 of its span (often an end, where a
    vertical side lies) or one next to it, rows of some step over all or part
    of its span, a strictness mode and either no line or a line at a random
    slope through a point near the box, often one of the column's closure, in
    `rows` or past either end."""
    spec, row = draw(custom_regions())
    w0 = draw(st.integers(1, 60) | st.just(60))  # 60: every corner and edge meets lattice points
    a_lo, a_hi, b_lo, b_hi = _printed_box(row)
    cols = range(math.ceil(a_lo * w0), math.floor(a_hi * w0) + 1)
    span = range(math.ceil(b_lo * w0), math.floor(b_hi * w0) + 1)
    w1 = draw(st.sampled_from([cols.start, cols.stop - 1]) | st.integers(cols.start - 1, cols.stop))
    start = draw(st.integers(span.start - 3, span.stop))
    rows = range(start, draw(st.integers(start, span.stop + 3)), draw(st.integers(1, 4)))
    line = None
    if draw(st.integers(0, 2)):
        c1, c2 = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        eps, b0 = F(w1, w0) - row.anchor_alpha, row.anchor_beta
        closed = [(w1, w2) for w2 in span if polygon_contains(row.halfplanes, eps, F(w2, w0) - b0, True)]
        near = st.tuples(st.integers(cols.start - 1, cols.stop), st.integers(span.start - 4, span.stop + 4))
        p1, p2 = draw(st.sampled_from(closed) | near if closed else near)
        line = (-(c1 * p1 + c2 * p2), c1 * w0, c2 * w0)  # c1*(w1 - p1) + c2*(w2 - p2) = 0, times w0
    return spec, row, (cols, span), (w0, w1, rows, draw(st.booleans()), line)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=columns())
def test_span_and_column_match_per_point_filter_on_custom_regions(case):
    spec, row, spans, (w0, w1, rows, printed, line) = case
    assert spec.form.span(w0) == spans
    inside = polygon_contains if printed else (lambda sides, eps, delta: strictly_inside(row, eps, delta))
    want = [
        w2
        for w2 in rows
        if inside(row.halfplanes, F(w1, w0) - row.anchor_alpha, F(w2, w0) - row.anchor_beta)
        and (line is None or line[0] * w0 + line[1] * w1 + line[2] * w2 == 0)
    ]
    assert list(spec.form.column(w0, w1, rows, printed=printed, line=line)) == want
