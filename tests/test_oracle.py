from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.channel import make_channel
from detic.decode import _symbols, peel_structure, receiver_view
from detic.gf2 import DimensionMismatchError
from detic.oracle import (
    SearchBudgetError,
    assignment_from_labels,
    exhaustive_search,
    rank_decodable,
)
from detic.regions import classify, dsym_at, point_weights
from detic.scheme import build_assignment, minimal_n


def labelings(n: int):
    """Every canonical pipe labeling: 0, fresh bit, or reuse of a singly-used bit.

    The reference enumeration of the search class.  Yields tuples with
    entries None (zero pipe) or a bit index; fresh bits are numbered by first
    appearance.  Option order per pipe: zero, fresh, reuses ascending, which
    makes tuple order the search's canonical order.
    """
    labels: list[int | None] = [None] * n

    def rec(i: int, fresh: int, used_once: tuple[int, ...]):
        if i == n:
            yield tuple(labels)
            return
        labels[i] = None
        yield from rec(i + 1, fresh, used_once)
        labels[i] = fresh
        yield from rec(i + 1, fresh + 1, used_once + (fresh,))
        for bit in used_once:
            labels[i] = bit
            yield from rec(i + 1, fresh, tuple(b for b in used_once if b != bit))
        labels[i] = None

    yield from rec(0, 0, ())


def reference_search(ch) -> tuple[int, tuple[int | None, ...]]:
    """(best m, first witness) by ranking, in canonical order, every labeling
    that beats the best so far; no pruning and no converse exit."""
    best_m, best = -1, ()
    for labels in labelings(ch.n):
        assign = assignment_from_labels(labels)
        if assign.m > best_m and rank_decodable(ch, assign):
            best_m, best = assign.m, labels
    return best_m, best


class TestRankDecodable:
    def test_disjoint_supports(self):
        ch = make_channel(3, 1, F(2), F(0))
        assign = assignment_from_labels((0,))
        assert rank_decodable(ch, assign)

    def test_down_image_collides_with_direct(self):
        ch = make_channel(3, 1, F(2), F(1))
        assign = assignment_from_labels((0,))
        assert not rank_decodable(ch, assign)

    def test_worked_example_scheme(self, regions_by_id, frozen_layouts):
        spec = regions_by_id["Df"]
        assign = build_assignment(frozen_layouts["Df"], spec, F(8, 5), F(9, 10), 60)
        ch = make_channel(3, 60, F(8, 5), F(9, 10))
        assert assign.m == 33
        assert rank_decodable(ch, assign)

    def test_zero_scheme_always_decodable(self):
        ch = make_channel(3, 2, F(3, 2), F(1, 2))
        assign = assignment_from_labels((None, None))
        assert rank_decodable(ch, assign)

    def test_assignment_of_another_n_is_refused(self):
        ch = make_channel(3, 3, F(4, 3), F(2, 3))
        assign = assignment_from_labels((0, 1))
        with pytest.raises(DimensionMismatchError, match="assignment N = 2 != channel N = 3"):
            rank_decodable(ch, assign)


class TestExhaustiveSearch:
    # Expected values cross-checked by hand rank arguments: a single pipe at
    # (2, 0) has disjoint images; two pipes at (3/2, 1/2) support one bit
    # ([0, b1]: direct e4, up e3, down empty); three pipes at (4/3, 2/3)
    # support two bits ([b1, 0, b2]).
    CASES = [
        (1, F(2), F(0), 1),
        (2, F(3, 2), F(1, 2), 1),
        (3, F(4, 3), F(2, 3), 2),
    ]

    @pytest.mark.parametrize("n,alpha,beta,expected", CASES)
    def test_tiny_instances(self, n, alpha, beta, expected):
        ch = make_channel(3, n, alpha, beta)
        best_m, witness = exhaustive_search(ch)
        assert best_m == expected
        assert witness.m == expected
        assert rank_decodable(ch, witness)

    @pytest.mark.parametrize("n,alpha,beta,expected", CASES)
    def test_matches_catalog_rate(self, table, n, alpha, beta, expected):
        assert dsym_at(alpha, beta, table) * n == expected

    def test_budget(self):
        ch = make_channel(3, 9, F(2), F(0))
        with pytest.raises(SearchBudgetError):
            exhaustive_search(ch)
        assert exhaustive_search(ch, max_n=9)[0] == 9

    def test_search_meets_scheme_rate(self, regions_by_id, frozen_layouts):
        # The catalog scheme is inside the search class, so the search result
        # is at least the catalog rate wherever it completes.
        spec = regions_by_id["Bg"]
        alpha, beta = F(3, 2), F(1, 2)
        assert spec.form.contains(point_weights(alpha, beta))
        best_m, _ = exhaustive_search(make_channel(3, 2, alpha, beta))
        assert best_m >= dsym_at(alpha, beta) * 2

    def test_search_matches_catalog_at_budget_limit(self, table):
        # (3/2, 3/4) lands in Df with rate 5/8; the full N = 8 enumeration
        # peaks at exactly 5 bits.
        alpha, beta = F(3, 2), F(3, 4)
        best_m, _ = exhaustive_search(make_channel(3, 8, alpha, beta))
        assert best_m == dsym_at(alpha, beta, table) * 8 == 5

    @pytest.mark.parametrize(
        "region,n,alpha,beta",
        [
            ("Bd", 9, F(10, 9), F(4, 9)),
            ("Da", 9, F(13, 9), F(5, 9)),
            ("Db", 10, F(13, 10), F(3, 5)),
            ("Aa", 11, F(12, 11), F(0)),
            # best m = 6 < floor(converse * N) = 7: pruning without the early exit
            ("Bd", 11, F(12, 11), F(4, 11)),
            ("Aa", 12, F(13, 12), F(1, 12)),
            ("Aa", 12, F(5, 4), F(1, 12)),
        ],
    )
    def test_search_matches_catalog_beyond_default_budget(self, table, region, n, alpha, beta):
        # Points whose minimal N is N itself; the budget is raised explicitly.
        res = classify(alpha, beta, table)
        assert res.region.id == region
        assert minimal_n(res.region, res.eps, res.delta) == n
        ch = make_channel(3, n, alpha, beta)
        best_m, witness = exhaustive_search(ch, max_n=n)
        assert best_m == res.dsym_value * n
        assert witness.m == best_m
        assert rank_decodable(ch, witness)

    def test_witness_is_canonical(self):
        ch = make_channel(3, 2, F(3, 2), F(1, 2))
        _, witness = exhaustive_search(ch)
        assert witness.pipe_to_bit == (None, 0)


@st.composite
def search_channels(draw):
    """K = 3 channels with N <= 7 and integral shifts, edges alpha = 1 and beta = 1 included."""
    n = draw(st.integers(1, 7))
    alpha = 1 + F(draw(st.integers(0, n)), n)
    beta = F(draw(st.integers(0, n)), n)
    return make_channel(3, n, alpha, beta)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(ch=search_channels())
@example(ch=make_channel(3, 7, F(1), F(3, 7)))  # alpha = 1: best m = 0
@example(ch=make_channel(3, 7, F(9, 7), F(1)))  # beta = 1: best m = 0
@example(ch=make_channel(3, 7, F(12, 7), F(3, 7)))  # the converse is reached early
@example(ch=make_channel(3, 7, F(2), F(0)))  # m = N
def test_search_matches_full_enumeration(ch):
    # The pruned depth-first search, with its exit at the converse bound,
    # returns what ranking every labeling in canonical order returns.
    best_m, witness = exhaustive_search(ch)
    assert (best_m, witness.pipe_to_bit) == reference_search(ch)


class TestPeelImpliesRank:
    # Peeling (including its pair-aggregate rule) is a restricted linear
    # solver, so every peelable labeling must pass the rank criterion.
    PARAMS = [
        (4, F(5, 4), F(1, 2)),
        (4, F(3, 2), F(3, 4)),
        (6, F(4, 3), F(2, 3)),
        (6, F(7, 6), F(5, 6)),
        (5, F(7, 5), F(2, 5)),
    ]

    @pytest.mark.parametrize("n,alpha,beta", PARAMS)
    def test_every_peelable_labeling_is_rank_decodable(self, n, alpha, beta):
        ch = make_channel(3, n, alpha, beta)
        peelable = 0
        for labels in labelings(n):
            assign = assignment_from_labels(labels)
            ok, _ = peel_structure(receiver_view(assign, ch, 1))
            if ok:
                peelable += 1
                assert rank_decodable(ch, assign), labels
        assert peelable > 0


def printed_blocks(assign) -> list[dict]:
    """A witness's segments as `verify --suite search` prints them."""
    return [{"count": seg.count, "role": seg.role.to_string()} for seg in assign.segments]


class TestWitnessBlocks:
    def test_singles_and_zeros(self):
        assign = assignment_from_labels((0, None, 1))
        assert printed_blocks(assign) == [
            {"count": 1, "role": "single:1"},
            {"count": 1, "role": "zero"},
            {"count": 1, "role": "single:2"},
        ]

    def test_reversed_twin_run(self):
        assign = assignment_from_labels((0, 1, None, 1, 0))
        assert printed_blocks(assign) == [
            {"count": 2, "role": "twin-first:1"},
            {"count": 1, "role": "zero"},
            {"count": 2, "role": "twin-second:1"},
        ]

    def test_partly_twinned_run_splits(self):
        # (3/2, 0) at N = 4: only bit 0 is used twice.
        assign = assignment_from_labels((0, 1, 2, 0))
        assert printed_blocks(assign) == [
            {"count": 1, "role": "twin-first:1"},
            {"count": 2, "role": "single:2"},
            {"count": 1, "role": "twin-second:1"},
        ]

    def test_second_use_names_its_own_symbol(self):
        # (9/7, 3/7) at N = 7: bit 1 is used once, bit 2 twice; no symbol 0.
        assign = assignment_from_labels((0, None, None, 1, 2, 2, 3))
        assert printed_blocks(assign) == [
            {"count": 1, "role": "single:1"},
            {"count": 2, "role": "zero"},
            {"count": 1, "role": "single:2"},
            {"count": 1, "role": "twin-first:3"},
            {"count": 1, "role": "twin-second:3"},
            {"count": 1, "role": "single:4"},
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_roles_match_the_bit_uses_on_every_labeling(self, n):
        # 2,555 labelings over N = 1..7.  Zero blocks hold exactly the unused
        # pipes, a single or twin-first block's bits are used once or twice,
        # and a twin-second block reuses bits of an earlier twin-first block.
        for labels in labelings(n):
            assign = assignment_from_labels(labels)
            bits_of: dict[int, set] = {}  # twin-first symbol -> its bits
            for seg in assign.segments:
                run = labels[seg.pipe_lo : seg.pipe_hi]
                kind, symbol = seg.role.kind, seg.role.symbol_id
                if kind == "zero":
                    assert set(run) == {None}, labels
                elif kind == "twin-second":
                    assert symbol in bits_of and set(run) <= bits_of[symbol], labels
                else:
                    want = 2 if kind == "twin-first" else 1
                    assert None not in run and {labels.count(b) for b in run} == {want}, labels
                    if kind == "twin-first":
                        bits_of[symbol] = set(run)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_segments_tile_the_pipes_in_order(self, n):
        for labels in labelings(n):
            segments = assignment_from_labels(labels).segments
            assert [seg.pipe_lo for seg in segments] == [0] + [s.pipe_hi for s in segments[:-1]]
            assert segments[-1].pipe_hi == n and all(seg.count > 0 for seg in segments), labels

    @pytest.mark.parametrize("n", range(1, 8))
    def test_twin_symbols_are_those_of_the_bits_used_twice(self, n):
        for labels in labelings(n):
            bit_symbol, twins, _ = _symbols(assignment_from_labels(labels))
            used_twice = {b for b in labels if b is not None and labels.count(b) == 2}
            assert twins == {bit_symbol[b] for b in used_twice}, labels
