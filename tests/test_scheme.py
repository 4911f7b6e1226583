from collections import Counter
from fractions import Fraction as F

import functools
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from detic import oracle, scheme
from detic.exactmath import Affine2, NotACountError
from detic.gf2 import DimensionMismatchError, NotBinaryError
from detic.regions import TableInvalidError, _parse_row, load_region_table, point_weights
from detic.scheme import (
    SINGLE,
    TWIN_FIRST,
    TWIN_SECOND,
    ZERO,
    BlockRole,
    Layout,
    NonIntegralBlocksError,
    OutsideRegionError,
    _interior_lattice,
    _ratio_points,
    _validation_weights,
    build_assignment,
    check_points,
    check_validity,
    infer_roles,
    instantiate,
    interior_sample,
    layout_for,
    layout_from_json_dict,
    load_frozen_interiors,
    load_frozen_layouts,
    minimal_n,
)
from test_regions_reference import PRINTED, Printed, builtin_rows, offset_box, strictly_inside


def kinds(layout):
    return [role.kind for _, role in layout.blocks]


def ab_with_tail():
    """Ab's row with two blocks appended, 1/10 + eps and -1/10 - eps: they sum
    to 0, so the row still loads, but each is negative somewhere on Ab's closure."""
    row = next(row for row in builtin_rows() if row["id"] == "Ab")
    row["blocks"] += [["1/10", "1", "0"], ["-1/10", "-1", "0"]]
    return row


def validation_offsets(spec):
    """The (eps, delta) of the region's validation points, in their order."""
    a, b = spec.anchor_alpha, spec.anchor_beta
    return [(F(w[1], w[0]) - a, F(w[2], w[0]) - b) for w in _validation_weights(spec)]


def rate_check(layout, spec):
    """check_validity's verdict on "distinct data equals rate"."""
    return {name: ok for name, ok, _ in check_validity(layout, spec).checks}["distinct data equals rate"]


class TestInferRoles:
    def test_rederivation_matches_frozen(self, table, frozen_layouts):
        # The search is deterministic; the checked-in layouts are its output.
        for spec in table:
            assert infer_roles(spec) == frozen_layouts[spec.id], spec.id

    def test_df_shape(self, regions_by_id, frozen_layouts):
        # Two of the three 1/3 - delta blocks carry fresh data, one is zero,
        # and the eps - delta/2 and -eps + 2 delta pairs are twins.
        spec = regions_by_id["Df"]
        layout = frozen_layouts["Df"]
        a_form = Affine2(F(1, 3), F(0), F(-1))
        a_kinds = sorted(r.kind for (length, r) in layout.blocks if length == a_form)
        assert a_kinds == [SINGLE, SINGLE, ZERO]
        for form in (Affine2(F(0), F(1), F(-1, 2)), Affine2(F(0), F(-1), F(2))):
            pair = sorted(r.kind for (length, r) in layout.blocks if length == form)
            assert pair == [TWIN_FIRST, TWIN_SECOND]
        assert rate_check(layout, spec)

    def test_db_shape(self, frozen_layouts):
        assert kinds(frozen_layouts["Db"]) == [SINGLE, ZERO, SINGLE]

    def test_ab_shape(self, frozen_layouts):
        assert kinds(frozen_layouts["Ab"]) == [ZERO, SINGLE]

    def test_aa_shape(self, regions_by_id, frozen_layouts):
        # The two -eps/2 - delta/2 blocks form a twin pair, 1 + eps is a
        # single, delta is zero; distinct data matches the rate formula.
        layout = frozen_layouts["Aa"]
        assert kinds(layout) == [ZERO, TWIN_FIRST, SINGLE, TWIN_SECOND]
        assert rate_check(layout, regions_by_id["Aa"])


class TestValidity:
    def test_all_regions_pass(self, table, frozen_layouts):
        for spec in table:
            report = check_validity(frozen_layouts[spec.id], spec)
            assert report.all_passed, (spec.id, report.checks)

    def test_all_zero_layout_fails_rate_check(self, regions_by_id):
        spec = regions_by_id["Ab"]
        layout = Layout("Ab", tuple((length, BlockRole(ZERO)) for length in PRINTED["Ab"].blocks))
        report = check_validity(layout, spec)
        assert report.checks == [
            ("non-negative lengths", True, "all block lengths >= 0 on the region closure"),
            ("lengths sum to one", True, "sum = ['1/1', '0/1', '0/1']"),
            (
                "distinct data equals rate",
                False,
                "distinct sum = ['0/1', '0/1', '0/1'], rate = ['1/1', '0/1', '-1/1']",
            ),
        ]

    def test_negative_witness_prints_offset_coefficients(self, regions_by_id):
        # 1/10 + eps is negative at eps = -1/2 and -1/10 - eps at eps = 0.
        ab, row = regions_by_id["Ab"], ab_with_tail()
        spec = _parse_row(row)
        layout = Layout("Ab", tuple((length, BlockRole(ZERO)) for length in Printed.parse(row).blocks))
        assert check_validity(layout, spec).checks[:2] == [
            ("non-negative lengths", False, "negative: [['1/10', '1/1', '0/1'], ['-1/10', '-1/1', '0/1']]"),
            ("lengths sum to one", True, "sum = ['1/1', '0/1', '0/1']"),
        ]
        with pytest.raises(ValueError, match="block lengths differ"):
            check_validity(layout, ab)

    def test_df_vertex_lengths(self, regions_by_id):
        # At the closure vertex (2/3, 1/3) the layout degenerates to two
        # half-length twin blocks.
        spec = regions_by_id["Df"]
        counts = instantiate(spec, F(2), F(1), 2)
        assert counts == [0, 1, 0, 0, 1, 0, 0]


class TestInstantiate:
    def test_worked_example_counts(self, regions_by_id):
        spec = regions_by_id["Df"]
        counts = instantiate(spec, F(8, 5), F(9, 10), 60)
        assert counts == [6, 9, 6, 12, 9, 6, 12]

    def test_non_integral_blocks_suggest_minimal(self, regions_by_id):
        spec = regions_by_id["Df"]
        with pytest.raises(NonIntegralBlocksError) as err:
            instantiate(spec, F(8, 5), F(9, 10), 10)
        assert err.value.minimal_n == 20

    def test_closure_point_allowed(self, regions_by_id):
        # (2, 1/2) is on the closed boundary of Ab (eps < 0 printed strict).
        spec = regions_by_id["Ab"]
        assert instantiate(spec, F(2), F(1, 2), 2) == [1, 1]

    def test_outside_region(self, regions_by_id):
        with pytest.raises(OutsideRegionError):
            instantiate(regions_by_id["Ab"], F(5, 4), F(1, 10), 20)

    def test_db_offset_point(self, regions_by_id):
        spec = regions_by_id["Db"]
        counts = instantiate(spec, F(4, 3), F(3, 5), 30)
        assert counts == [9, 12, 9]

    def test_refuses_a_non_integer_n(self, regions_by_id, frozen_layouts):
        # N = 1.5 was refused as NonIntegralBlocksError "minimal valid N is 1".
        spec = regions_by_id["Df"]
        with pytest.raises(NotACountError, match="^N must be an integer, got 1.5$"):
            instantiate(spec, F(8, 5), F(9, 10), 1.5)
        with pytest.raises(NotACountError, match="^N must be an integer, got 1.5$"):
            build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 1.5)

    def test_minimal_n_refuses_points_outside_the_closure(self, regions_by_id):
        # Offsets are read exactly as Fractions; (1, 0) is the point (3, 0), off the square.
        spec = regions_by_id["Aa"]
        assert minimal_n(spec, -0.25, 0.125) == minimal_n(spec, F(-1, 4), F(1, 8)) == 16
        for eps, delta in [(0.1, 0.1), (1, 0)]:
            with pytest.raises(OutsideRegionError, match="outside region Aa"):
                minimal_n(spec, eps, delta)

    @pytest.mark.parametrize("n", [0, -20])
    def test_refuses_n_below_one(self, regions_by_id, frozen_layouts, n):
        # -20 is a multiple of the minimal N (20) at this point, so without
        # the check it got as far as negative block counts.
        spec = regions_by_id["Df"]
        with pytest.raises(NotACountError, match=f"^N >= 1 required, got N = {n}$"):
            instantiate(spec, F(8, 5), F(9, 10), n)
        with pytest.raises(NotACountError, match=f"^N >= 1 required, got N = {n}$"):
            build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), n)


class TestBuildAssignment:
    def test_worked_example_rate(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 60)
        assert assign.m == 33
        assert sum(seg.count for seg in assign.segments) == 60

    def test_db_message_count(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Db"]
        assign = build_assignment(frozen_layouts["Db"], spec, F(4, 3), F(3, 5), 30)
        assert assign.m == 18

    def test_ab_pipe_map(self, regions_by_id, frozen_layouts):
        # First printed block (the zero) sits at the bottom pipe; the single
        # data block fills the top pipes with ascending fresh bits.
        spec = regions_by_id["Ab"]
        assign = build_assignment(frozen_layouts["Ab"], spec, F(7, 4), F(1, 4), 4)
        assert assign.m == 3
        assert assign.pipe_to_bit == (0, 1, 2, None)

    def test_m_matches_rate_everywhere(self, table, frozen_layouts, frozen_interiors):
        from detic.regions import dsym_at

        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            assert assign.m == dsym_at(alpha, beta, table) * n, spec.id

    def test_one_reference_per_pipe(self, table, frozen_layouts, frozen_interiors):
        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
            n = minimal_n(spec, eps, delta)
            assign = build_assignment(frozen_layouts[spec.id], spec, alpha, beta, n)
            uses = Counter(assign.pipe_to_bit)
            assert all(1 <= uses[bit] <= 2 for bit in range(assign.m)), spec.id
            assert set(uses) <= {*range(assign.m), None}, spec.id

    def test_twin_reversal_is_involutive(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 60)
        for seg in assign.segments:
            if seg.role.kind != TWIN_SECOND:
                continue
            first = next(
                s
                for s in assign.segments
                if s.role.kind == TWIN_FIRST and s.role.symbol_id == seg.role.symbol_id
            )
            first_bits = assign.pipe_to_bit[first.pipe_lo : first.pipe_hi]
            bit_lo = first_bits[0]
            assert first_bits == tuple(range(bit_lo, bit_lo + first.count))
            for i in range(seg.count):
                bit = assign.pipe_to_bit[seg.pipe_lo + i]
                # Mirror through the twin map twice: back to the start pipe.
                mirror = first.pipe_lo + (bit - bit_lo)
                assert assign.pipe_to_bit[mirror] == bit
                again = seg.pipe_lo + (seg.count - 1 - (bit - bit_lo))
                assert again == seg.pipe_lo + i

    def test_refuses_another_regions_layout(self, regions_by_id, frozen_layouts, frozen_interiors):
        # Ba's layout at Bb's pinned interior once built an assignment labelled Ba.
        spec = regions_by_id["Bb"]
        eps, delta = frozen_interiors["Bb"]
        alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
        n = minimal_n(spec, eps, delta)
        with pytest.raises(ValueError, match="^layout Ba: block lengths differ from region Bb$"):
            build_assignment(frozen_layouts["Ba"], spec, alpha, beta, n)
        with pytest.raises(ValueError, match="^layout Ba: block lengths differ from region Bb$"):
            check_validity(frozen_layouts["Ba"], spec)
        assert build_assignment(frozen_layouts["Bb"], spec, alpha, beta, n).region_id == "Bb"


class TestEncode:
    @pytest.fixture
    def df(self, regions_by_id, frozen_layouts):
        return build_assignment(frozen_layouts["Df"], regions_by_id["Df"], F(8, 5), F(9, 10), 60)

    def test_matches_pipe_map(self, df):
        rng = np.random.default_rng(3)
        message = rng.integers(0, 2, df.m, dtype=np.uint8)
        want = [0 if j is None else message[j] for j in df.pipe_to_bit]
        x = df.encode(message)
        assert x.dtype == np.uint8 and x.tolist() == want
        assert df.encode(message.astype(bool).tolist()).tolist() == want

    @pytest.mark.parametrize("shape", [(), (1, 32), (33, 1), (32,), (34,)])
    def test_refuses_other_shapes(self, df, shape):
        with pytest.raises(DimensionMismatchError, match="message shape"):
            df.encode(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 4), (0,)])
    def test_accepts_stacks(self, df, lead):
        rng = np.random.default_rng(4)
        messages = rng.integers(0, 2, (*lead, df.m), dtype=np.uint8)
        x = df.encode(messages)
        assert x.shape == (*lead, df.n) and x.dtype == np.uint8
        flat = messages.reshape(-1, df.m)
        assert x.reshape(-1, df.n).tolist() == [df.encode(d).tolist() for d in flat]

    @pytest.mark.parametrize("value", [2, 257, -1])
    def test_refuses_non_binary_entries(self, df, value):
        with pytest.raises(NotBinaryError):
            df.encode(np.full(df.m, value))


class TestCheckPoints:
    def test_negative_block_at_a_validation_point_is_refused(self, tmp_path):
        # The block 1/4 - eps is -1/4 at the vertex (1/2, 0) of this square.
        row = {
            "id": "Zz",
            "anchor": ["3/2", "1/4"],
            "constraints": [
                {"expr": ["0", "1", "0"], "strict": False},
                {"expr": ["0", "0", "1"], "strict": False},
                {"expr": ["1/2", "-1", "0"], "strict": False},
                {"expr": ["1/2", "0", "-1"], "strict": False},
            ],
            "dsym": ["1/4", "-1", "0"],
            "blocks": [["1/4", "-1", "0"], ["3/4", "1", "0"]],
        }
        path = tmp_path / "negative_block.json"
        path.write_text(json.dumps([row]))
        (spec,) = load_region_table(path)
        assert (F(1, 2), F(0)) in validation_offsets(spec)
        with pytest.raises(OutsideRegionError, match=r"negative at \(2/1, 1/4\)"):
            check_points(spec)

    def test_assignment_matches_build_assignment(self, table, frozen_layouts):
        for spec in table:
            layout = frozen_layouts[spec.id]
            points = check_points(spec)
            assert len(points) == len(_validation_weights(spec)), spec.id
            for point in points:
                ch = point.ch
                want = build_assignment(layout, spec, ch.alpha, ch.beta, ch.n)
                assert point.assignment(layout) == want, (spec.id, ch.alpha, ch.beta)

    def test_equal_rank_keys_have_equal_pipe_maps(self, table):
        # The rank verdict is shared by key, so the key must fix what the
        # rank reads: checked for every candidate at every validation point.
        shared = 0
        for spec in table:
            layouts = list(scheme._layouts(spec))
            for point in check_points(spec):
                seen = {}
                for layout in layouts:
                    assign = point.assignment(layout)
                    got = assign.pipe_to_bit, assign.m
                    assert seen.setdefault(point.rank_key(layout), got) == got, (spec.id, layout)
                shared += len(layouts) - len(seen)
        assert shared > 0  # some key is met by more than one candidate

    def test_rank_runs_once_per_key_and_inference(self, regions_by_id, frozen_layouts, monkeypatch):
        bd = regions_by_id["Bd"]
        calls, lists = [], []
        rank = oracle.rank_decodable
        monkeypatch.setattr(oracle, "rank_decodable", lambda ch, a: calls.append(ch) or rank(ch, a))

        def recorded(spec):
            lists.append(check_points(spec))
            return lists[-1]

        monkeypatch.setattr(scheme, "check_points", recorded)
        for _ in range(2):
            assert infer_roles(bd) == frozen_layouts["Bd"]
        # One rank per key and point, held by one inference's list of points:
        # the second inference ranks again.
        entries = [sum(len(point.ranks) for point in points) for points in lists]
        assert len(calls) == sum(entries) and entries[0] == entries[1] > 0
        layouts = list(scheme._layouts(bd))
        keys = {(i, p.rank_key(layout)) for i, p in enumerate(lists[0]) for layout in layouts}
        assert entries[0] <= len(keys)


class TestLayoutSerialization:
    def test_roundtrip(self, table, frozen_layouts):
        for spec in table:
            layout = frozen_layouts[spec.id]
            again = layout_from_json_dict(layout.to_json_dict(), spec)
            assert again == layout

    def test_entry_with_another_block_count_is_refused(self, regions_by_id, frozen_layouts):
        # A region with blocks appended must not reuse its shorter frozen entry:
        # layout_for re-derives it, and the derivation meets a negative block.
        longer = _parse_row(ab_with_tail())
        with pytest.raises(ValueError, match="layout Ab: 2 blocks, region has 4"):
            layout_from_json_dict(frozen_layouts["Ab"].to_json_dict(), longer)
        want = "block length ['1/10', '1/1', '0/1'] negative at (3/2, 1/2)"
        with pytest.raises(OutsideRegionError, match=f"^{re.escape(want)}$"):
            layout_for(longer)

    @pytest.mark.parametrize("role", ["single", "single:", "single:x", "single:-1", "Single:1", "twin:1", "zero:1"])
    def test_bad_role_string_is_refused(self, regions_by_id, frozen_layouts, role):
        entry = frozen_layouts["Ab"].to_json_dict()
        entry["blocks"][1]["role"] = role
        with pytest.raises(TableInvalidError, match=f"^{re.escape(f'bad role string: {role!r}')}$"):
            layout_from_json_dict(entry, regions_by_id["Ab"])

    @pytest.mark.parametrize("kind,symbol", [(ZERO, 1), (SINGLE, None), (TWIN_SECOND, None)])
    def test_only_zero_roles_lack_a_symbol(self, kind, symbol):
        want = f"bad role {kind}:{symbol}: only zero lacks a symbol"
        with pytest.raises(TableInvalidError, match=f"^{re.escape(want)}$"):
            BlockRole(kind, symbol)

    def test_layout_for_returns_the_given_frozen_layout(self, regions_by_id, frozen_layouts, monkeypatch):
        # The benchmark's simulate set-up passes its frozen layouts; neither
        # layouts.json nor a derivation is read for a region they hold.
        monkeypatch.setattr(scheme, "load_frozen_layouts", lambda *a: pytest.fail("read layouts.json"))
        monkeypatch.setattr(scheme, "infer_roles", lambda *a: pytest.fail("derived"))
        given = Layout("Df", frozen_layouts["Ab"].blocks)  # any object is passed through
        assert layout_for(regions_by_id["Df"], {"Df": given}) is given
        monkeypatch.undo()
        assert layout_for(regions_by_id["Df"], {"Ab": given}) == frozen_layouts["Df"]

    def test_builtin_layouts_are_parsed_once(self, table, frozen_layouts, monkeypatch):
        parses = []

        def loads(text):
            parses.append(1)
            return json.loads(text)

        monkeypatch.setattr(scheme, "json", SimpleNamespace(loads=loads))
        scheme._read_frozen.cache_clear()
        try:
            layouts = [layout_for(spec) for spec in table]
            assert load_frozen_layouts(table) == frozen_layouts
            assert len(load_frozen_interiors()) == len(table)
        finally:
            scheme._read_frozen.cache_clear()
        assert len(parses) == 1
        assert layouts == [frozen_layouts[spec.id] for spec in table]


class TestValidationPoints:
    def test_exclude_degenerate_edges(self, table):
        for spec in table:
            for eps, delta in validation_offsets(spec):
                alpha = spec.anchor_alpha + eps
                beta = spec.anchor_beta + delta
                assert alpha != 1 and beta != 1, spec.id

    def test_points_are_distinct(self, table):
        # Ed's old interior sample (-1/6, 0) was also the midpoint of two of
        # its vertices; a repeated point only repeats a rank test and a compile.
        for spec in table:
            points = validation_offsets(spec)
            assert len(set(points)) == len(points), spec.id

    @pytest.mark.parametrize("den", [7, 12])
    def test_lattice_scan_matches_exact_rationals(self, table, den):
        # Every region's offsets lie in [-1, 1]^2, so this scan covers the
        # bounding box the integer scan walks.
        grid = [F(i, den) for i in range(-den, den + 1)]
        for spec in table:
            a, b, row = spec.anchor_alpha, spec.anchor_beta, PRINTED[spec.id]
            want = [
                _weights_at(minimal_n(spec, eps, delta), a + eps, b + delta)
                for eps in grid
                for delta in grid
                if strictly_inside(row, eps, delta)
            ]
            assert list(_interior_lattice(spec, den)) == want, spec.id

    def test_lattice_rows_match_per_point_filter(self, table):
        # The reference tests every point of the bounding box against every
        # side; the scan solves each column for its interior rows instead.
        for spec in table:
            for den in range(1, 61):
                want = _per_point_lattice(spec, PRINTED[spec.id], den)
                assert list(_interior_lattice(spec, den)) == want, (spec.id, den)

    def test_interior_sample_is_least_n(self, table):
        # No interior point of offset denominator <= 60 has a smaller minimal
        # N, or the same N and a smaller (alpha, beta); the scan finds the
        # sample itself unless its offsets need a larger denominator.
        for spec in table:
            eps, delta = interior_sample(spec)
            row = PRINTED[spec.id]
            assert strictly_inside(row, eps, delta), spec.id
            got = _weights_at(minimal_n(spec, eps, delta), spec.anchor_alpha + eps, spec.anchor_beta + delta)
            best = min(p for den in range(1, 61) for p in _per_point_lattice(spec, row, den))
            assert got <= best, (spec.id, got, best)
            assert got == best or max(eps.denominator, delta.denominator) > 60, spec.id

    def test_ratio_points_are_least_n_on_their_lines(self, table):
        for spec in table:
            assert set(_ratio_points(spec)) == _per_line_ratio_points(spec, PRINTED[spec.id]), spec.id

    def test_ratio_points_lie_on_block_ratio_lines(self, table):
        from detic.exactmath import affine_eval

        for spec in table:
            a, b, row = spec.anchor_alpha, spec.anchor_beta, PRINTED[spec.id]
            points = [(n, F(x, n) - a, F(y, n) - b) for n, x, y in _ratio_points(spec)]
            assert set(validation_offsets(spec)) >= {(e, d) for _, e, d in points}, spec.id
            for n, eps, delta in points:
                assert strictly_inside(row, eps, delta), (spec.id, eps, delta)
                assert minimal_n(spec, eps, delta) == n <= 120, (spec.id, eps, delta)
                lens = [affine_eval(b, eps, delta) for b in row.blocks]
                assert any(
                    a == r * b and la != lb
                    for (a, la), (b, lb) in itertools.permutations(zip(lens, row.blocks), 2)
                    for r in (1, 3)
                ), (spec.id, eps, delta)
        ee = next(spec for spec in table if spec.id == "Ee")
        # The offsets (-1/11, 5/33) from Ee's anchor (2, 2/3): (21/11, 9/11) at N = 11.
        assert (11, 21, 9) in list(_ratio_points(ee))

    def test_interior_sample_is_strictly_inside(self, table, frozen_interiors):
        for spec in table:
            eps, delta = frozen_interiors[spec.id]
            assert strictly_inside(PRINTED[spec.id], eps, delta), spec.id


def _weights_at(n, alpha, beta):
    """Weights (N, A, B) of (alpha, beta) = (A/N, B/N)."""
    return n, int(alpha * n), int(beta * n)


def _printed_sides(row):
    """Each printed half-plane c0 + c_eps*eps + c_delta*delta times the common
    denominator of its coefficients: integer triples, of the same sign."""
    sides = []
    for f in (h.expr for h in row.halfplanes):
        m = math.lcm(f.c0.denominator, f.c_eps.denominator, f.c_delta.denominator)
        sides.append((int(f.c0 * m), int(f.c_eps * m), int(f.c_delta * m)))
    return sides


def _inside_at(sides, i, j, den):
    """Strictly inside every side of `_printed_sides` at (eps, delta) = (i/den, j/den),
    whatever its strictness."""
    return all(c0 * den + c1 * i + c2 * j > 0 for c0, c1, c2 in sides)


@functools.cache
def _per_point_lattice(spec, row, den):
    """Weights (N, A, B) at the minimal N of every strictly interior point
    (i/den, j/den) of the bounding box, each point tested against every side
    of `row`, the spec's row as printed."""
    lo_e, hi_e, lo_d, hi_d = offset_box(spec)
    a0, a1, a2 = point_weights(spec.anchor_alpha, spec.anchor_beta)
    sides = _printed_sides(row)
    inside = (
        (i, j)
        for i in range(math.ceil(lo_e * den), math.floor(hi_e * den) + 1)
        for j in range(math.ceil(lo_d * den), math.floor(hi_d * den) + 1)
        if _inside_at(sides, i, j, den)
    )
    weights = ((a0 * den, a1 * den + a0 * i, a2 * den + a0 * j) for i, j in inside)
    return [_weights_at(spec.form.minimal_n(w), F(w[1], w[0]), F(w[2], w[0])) for w in weights]


def _least_point_on(spec, row, line):
    """Weights (N, A, B) of the strictly interior point (A/N, B/N) on the line
    c0*N + c1*A + c2*B = 0 with the least minimal N (at most 120), then the
    least A, each candidate tested against every side."""
    c0, c1, c2 = line
    a0, b0 = spec.anchor_alpha, spec.anchor_beta
    lo_e, hi_e, lo_d, hi_d = offset_box(spec)
    a_lo, a_hi, b_lo, b_hi = a0 + lo_e, a0 + hi_e, b0 + lo_d, b0 + hi_d
    (p, qa), (r, qb), sides = a0.as_integer_ratio(), b0.as_integer_ratio(), _printed_sides(row)
    for n in range(1, 121):
        b_range = range(math.ceil(b_lo * n), math.floor(b_hi * n) + 1)
        for a in range(math.ceil(a_lo * n), math.floor(a_hi * n) + 1):
            if c2:  # the line's one B in this column, if it is an integer
                bs = [-(c0 * n + c1 * a) // c2] if (c0 * n + c1 * a) % c2 == 0 else []
                bs = [b for b in bs if b in b_range]
            else:
                bs = b_range if c0 * n + c1 * a == 0 else []
            for b in bs:
                # (A/N - p/qa, B/N - r/qb) = (i, j) / (N*qa*qb)
                i, j = (a * qa - p * n) * qb, (b * qb - r * n) * qa
                if _inside_at(sides, i, j, n * qa * qb) and spec.form.minimal_n((n, a, b)) == n:
                    return n, a, b
    return None


def _per_line_ratio_points(spec, row):
    """`_least_point_on` every line where one block has 1 or 3 times another's
    pipes, the lines taken from every ordered pair of blocks."""
    lines = set()
    for len_i, len_j in itertools.permutations(spec.form.blocks, 2):
        for r in (1, 3):
            c = [x - r * y for x, y in zip(len_i, len_j)]
            g = math.gcd(*c)
            if g:  # one line per pair of opposite normals
                lines.add(max(tuple(x // g for x in c), tuple(-x // g for x in c)))
    return {w for line in lines if (w := _least_point_on(spec, row, line)) is not None}
