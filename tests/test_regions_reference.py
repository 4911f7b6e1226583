"""The catalog's integer region forms against the `Fraction` reference.

Classification, membership, rates, minimal N and the boundary audit run on
each region's integer form (`RegionSpec.form`), which the loader folds from
the printed row.  The reference here reads the row apart from the loader
(`Printed`, parsed with `Affine2.from_strings`) and walks its half-planes with
`exactmath.polygon_contains` and `affine_eval` in anchor offsets, as the
catalog did before the integer forms.  A property test draws rational points
in the square with denominators up to 120, plus every anchor, closure vertex
and 1/60 grid point on a region edge as explicit examples.  A custom table
whose common denominator exceeds 2**64 guards against any fixed-width
shortcut.  `atlas_rows`, which classifies a whole lattice column per region
at once, is checked row by row against the same per-point reference on drawn
grids, with the table as printed, reversed, shuffled and with the huge
denominator.  `PRINTED` holds the built-in rows as printed, and
`offset_vertices`, `offset_box` and `strictly_inside` give the other test
modules a region's closure in anchor offsets.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import cache
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.exactmath import Affine2, HalfPlane, affine_eval, format_rat, parse_rat, polygon_contains
from detic.regions import (
    atlas_rows,
    boundary_consistency,
    classify,
    converse_bound,
    load_region_table,
    point_weights,
)
from detic.scheme import OutsideRegionError, minimal_n


@dataclass(frozen=True)
class Printed:
    """A catalog row as printed, its forms parsed with `Affine2.from_strings`
    in anchor offsets and never through the loader's integer fold."""

    id: str
    anchor_alpha: F
    anchor_beta: F
    halfplanes: tuple[HalfPlane, ...]
    dsym: Affine2
    blocks: tuple[Affine2, ...]

    @staticmethod
    def parse(row: dict) -> "Printed":
        sides = (HalfPlane(Affine2.from_strings(c["expr"]), c["strict"]) for c in row["constraints"])
        return Printed(
            row["id"],
            *map(parse_rat, row["anchor"]),
            tuple(sides),
            Affine2.from_strings(row["dsym"]),
            tuple(map(Affine2.from_strings, row["blocks"])),
        )


def builtin_rows() -> list[dict]:
    return json.loads(resources.files("detic.data").joinpath("regions.json").read_text())


TABLE = load_region_table()
PRINTED = {row["id"]: Printed.parse(row) for row in builtin_rows()}
ROWS = tuple(PRINTED.values())


def reference_classify(rows, alpha, beta):
    """(region id, eps, delta, rate) of the first row containing the point, strictness as printed."""
    for row in rows:
        eps, delta = alpha - row.anchor_alpha, beta - row.anchor_beta
        if polygon_contains(row.halfplanes, eps, delta):
            return row.id, eps, delta, affine_eval(row.dsym, eps, delta)
    return None, None, None, None


def reference_matches(rows, alpha, beta):
    """(region id, rate) of every row whose closure contains the point."""
    out = []
    for row in rows:
        eps, delta = alpha - row.anchor_alpha, beta - row.anchor_beta
        if polygon_contains(row.halfplanes, eps, delta, closure=True):
            out.append((row.id, affine_eval(row.dsym, eps, delta)))
    return out


def assert_matches_reference(table, rows, alpha, beta):
    """The loaded `table` against `rows`, the same rows as printed."""
    res = classify(alpha, beta, table)
    got = (res.region.id if res.covered else None, res.eps, res.delta, res.dsym_value)
    assert got == reference_classify(rows, alpha, beta), (alpha, beta)
    gap = alpha - beta
    assert converse_bound(alpha, beta) == min(1, gap / 2 if gap >= 1 else 1 - gap / 2)
    w = point_weights(alpha, beta)
    for spec, row in zip(table, rows, strict=True):
        eps, delta = alpha - row.anchor_alpha, beta - row.anchor_beta
        for closure in (False, True):
            want = polygon_contains(row.halfplanes, eps, delta, closure)
            assert spec.form.contains(w, closure) == want, (spec.id, alpha, beta, closure)
        assert spec.form.rate_at(w) == affine_eval(row.dsym, eps, delta), spec.id
        dens = [alpha.denominator, beta.denominator]
        dens += [affine_eval(b, eps, delta).denominator for b in row.blocks]
        assert spec.form.minimal_n(w) == math.lcm(*dens), spec.id
        if polygon_contains(row.halfplanes, eps, delta, closure=True):
            assert minimal_n(spec, eps, delta) == math.lcm(*dens), spec.id
        else:
            with pytest.raises(OutsideRegionError):
                minimal_n(spec, eps, delta)


def offset_vertices(spec) -> tuple[tuple[F, F], ...]:
    """The closure's vertices (eps, delta), in (alpha, beta) order, from the
    weights of `IntegerForm.vertices`."""
    a0, b0 = spec.anchor_alpha, spec.anchor_beta
    return tuple((F(w[1], w[0]) - a0, F(w[2], w[0]) - b0) for w in spec.form.vertices)


def offset_box(spec) -> tuple[F, F, F, F]:
    """Bounding box of the closure in (eps, delta): eps range, then delta range."""
    eps, delta = zip(*offset_vertices(spec))
    return min(eps), max(eps), min(delta), max(delta)


def strictly_inside(row: Printed, eps, delta) -> bool:
    """Strictly inside every printed half-plane, whatever its strictness."""
    return all(affine_eval(h.expr, eps, delta) > 0 for h in row.halfplanes)


@cache
def special_points() -> tuple[tuple[F, F], ...]:
    """Anchors, closure vertices and the 1/60 grid points on some region's edge
    (in its closure, not strictly inside; only chosen with the integer forms,
    then checked against the reference like any other point)."""
    points = {(spec.anchor_alpha, spec.anchor_beta) for spec in TABLE}
    points |= {
        (spec.anchor_alpha + e, spec.anchor_beta + d)
        for spec in TABLE
        for e, d in offset_vertices(spec)
    }
    for i in range(61):
        for j in range(61):
            w, alpha, beta = (60, 60 + i, j), 1 + F(i, 60), F(j, 60)
            if any(
                s.form.contains(w, closure=True)
                and not strictly_inside(PRINTED[s.id], alpha - s.anchor_alpha, beta - s.anchor_beta)
                for s in TABLE
            ):
                points.add((alpha, beta))
    return tuple(sorted(points))


def with_special_examples(test):
    for alpha, beta in special_points():
        test = example(alpha=alpha, beta=beta)(test)
    return test


def rationals(lo: int) -> st.SearchStrategy[F]:
    """lo + i/q with 1 <= q <= 120 and 0 <= i <= q."""
    return st.integers(1, 120).flatmap(lambda q: st.integers(0, q).map(lambda i: lo + F(i, q)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=rationals(1), beta=rationals(0))
@with_special_examples
def test_integer_forms_match_fraction_reference(alpha, beta):
    assert_matches_reference(TABLE, ROWS, alpha, beta)


def test_special_points_cover_every_kind():
    points = set(special_points())
    assert (F(4, 3), F(2, 3)) in points  # D-family anchor, four closures meet
    assert (F(9, 7), F(3, 7)) in points  # a vertex off the 1/60 grid
    assert (F(77, 60), F(17, 60)) in points  # on the shared edge of Aa and Bb
    assert len(points) > 200


def huge_denominator_table(tmp_path):
    """The built-in rows with Df's half-planes scaled by 1/(2**70 + 1), the
    same polygon, and Aa's rate raised by 1/(2**70 + 1), so that the audit has
    disagreements to report exactly: the loaded table and its rows as printed."""
    big = 2**70 + 1
    rows = builtin_rows()
    for row in rows:
        if row["id"] == "Df":
            for c in row["constraints"]:
                c["expr"] = [format_rat(F(x) / big) for x in c["expr"]]
        if row["id"] == "Aa":
            row["dsym"][0] = format_rat(F(row["dsym"][0]) + F(1, big))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(rows))
    return load_region_table(path), tuple(map(Printed.parse, rows))


def test_common_denominator_beyond_64_bits(tmp_path):
    table, rows = huge_denominator_table(tmp_path)
    by_id = {spec.id: spec for spec in table}
    assert by_id["Df"].form.den > 2**64 and by_id["Aa"].form.den > 2**64
    assert classify(F(8, 5), F(9, 10), table).dsym_value == F(11, 20)
    assert classify(F(2), F(0), table).dsym_value == 1 + F(1, 2**70 + 1)
    for alpha, beta in special_points()[::5]:
        assert_matches_reference(table, rows, alpha, beta)

    report = boundary_consistency(samples=200, seed=5, grid_denominator=24, table=table)
    rng = random.Random(5)  # the audit's own sampling, replayed
    points = []
    for _ in range(200):
        den = rng.randint(1, 60)
        points.append((1 + F(rng.randint(0, den), den), F(rng.randint(0, den), den)))
    points += [(1 + F(i, 24), F(j, 24)) for i in range(25) for j in range(25)]
    multi = [(a, b, m) for a, b in points if len(m := reference_matches(rows, a, b)) >= 2]
    assert report.points_checked == len(points)
    assert report.multi_region_points == len(multi)
    assert report.violations == [(a, b, m) for a, b, m in multi if len({v for _, v in m}) > 1]
    assert report.violations


@pytest.fixture(scope="module", params=["printed", "reversed", "shuffled", "huge denominator"])
def atlas_table(request, tmp_path_factory):
    """The loaded table and its rows as printed.  The reversed and shuffled
    orders move which row wins a point on a shared edge."""
    if request.param == "printed":
        return TABLE, ROWS
    if request.param == "reversed":
        return TABLE[::-1], ROWS[::-1]
    if request.param == "shuffled":
        pairs = list(zip(TABLE, ROWS))
        random.Random(20).shuffle(pairs)
        return tuple(zip(*pairs))
    return huge_denominator_table(tmp_path_factory.mktemp("atlas"))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(grid=st.integers(2, 40))
def test_atlas_rows_match_per_point_reference(atlas_table, grid):
    table, printed = atlas_table
    rows = atlas_rows(grid, table)
    g = grid - 1
    want = []
    for i in range(grid):
        for j in range(grid):
            alpha, beta = 1 + F(i, g), F(j, g)
            rid, _, _, rate = reference_classify(printed, alpha, beta)
            want.append(
                {
                    "alpha": format_rat(alpha),
                    "beta": format_rat(beta),
                    "region": "-" if rid is None else rid,
                    "dsym": "" if rid is None else format_rat(rate),
                    "converse": format_rat(converse_bound(alpha, beta)),
                }
            )
    assert rows == want
