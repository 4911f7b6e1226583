"""Property tests of the compiled peeling decoder at random catalog points.

Each example draws a region, a rational point strictly inside it, a multiple
of that point's minimal N (at most MAX_N), K in 3..7, any receiver and the
messages, then checks that the frozen layout's compiled decoder returns the
sent bits with the value-free trace, and that peel success implies rank
decodability.  A second property checks that the receiver's program, which
relabels the one schedule compiled per channel, equals the schedule compiled
for that receiver alone.  A third checks that one `peel_bits` call on a stack
of words, each with up to 3 levels flipped, equals one call per word: the
same bits and trace, or the error of the first failing word.  A fourth draws
random pipe maps of the search class (the rank oracle's property cases, at
N <= 12) with K in 3..7 and checks that every receiver's relabelled program
succeeds exactly when receiver 1's does, and then returns its own sent bits.
"""

import math
from fractions import Fraction as F
from functools import cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.channel import make_channel, transmit
from detic.decode import (
    InconsistentSignalError,
    _compile,
    peel_bits,
    peel_structure,
    receiver_view,
)
from detic.oracle import assignment_from_labels, rank_decodable
from detic.regions import load_region_table
from detic.scheme import build_assignment, load_frozen_layouts, minimal_n
from test_oracle_properties import cases
from test_regions_reference import offset_box, strictly_inside

MAX_N = 120
DENOMINATORS = range(2, 17)
REGIONS = {spec.id: spec for spec in load_region_table()}


@cache
def interior_points() -> dict[str, tuple[tuple[F, F], ...]]:
    """Per region id, the (eps, delta) of every strictly interior lattice
    point with a small denominator whose minimal N is at most MAX_N."""
    points = {}
    for spec in REGIONS.values():
        eps_lo, eps_hi, delta_lo, delta_hi = offset_box(spec)
        seen, inside = set(), []
        for den in DENOMINATORS:
            for i in range(math.ceil(eps_lo * den), math.floor(eps_hi * den) + 1):
                for j in range(math.ceil(delta_lo * den), math.floor(delta_hi * den) + 1):
                    eps, delta = F(i, den), F(j, den)
                    if (eps, delta) in seen or not strictly_inside(spec, eps, delta):
                        continue
                    seen.add((eps, delta))
                    if minimal_n(spec, eps, delta) <= MAX_N:
                        inside.append((eps, delta))
        points[spec.id] = tuple(inside)
    return points


@st.composite
def frozen_cases(draw):
    """(region id, eps, delta, multiple of the minimal N, K, receiver) of a
    random interior point, K in 3..7 and any receiver."""
    region = draw(st.sampled_from(sorted(REGIONS)))
    eps, delta = draw(st.sampled_from(interior_points()[region]))
    need = minimal_n(REGIONS[region], eps, delta)
    multiple = draw(st.integers(1, MAX_N // need))
    k = draw(st.integers(3, 7))
    return region, eps, delta, multiple, k, draw(st.integers(1, k))


def instantiate_case(case):
    """(assignment, channel, receiver) of the frozen layout at a drawn case."""
    region, eps, delta, multiple, k, receiver = case
    spec = REGIONS[region]
    n = minimal_n(spec, eps, delta) * multiple
    alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
    assign = build_assignment(load_frozen_layouts([spec])[spec.id], spec, alpha, beta, n)
    return assign, make_channel(k, n, alpha, beta), receiver


# The Ee layout frozen before the block-ratio validation points failed to
# peel at these interior points (one data block an odd multiple of another).
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=frozen_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=("Ee", F(-1, 11), F(5, 33), 1, 3, 1), seed=0)
@example(case=("Ee", F(-1, 16), F(7, 48), 1, 3, 2), seed=1)
@example(case=("Ee", F(-2, 17), F(8, 51), 1, 5, 3), seed=2)
@example(case=("Ee", F(-1, 19), F(13, 57), 2, 4, 4), seed=3)
def test_compiled_decoder_returns_sent_bits(case, seed):
    assign, ch, receiver = instantiate_case(case)
    rng = np.random.default_rng(seed)
    messages = [rng.integers(0, 2, assign.m, dtype=np.uint8) for _ in range(ch.k)]
    y = transmit(ch, [assign.encode(d) for d in messages])[receiver - 1]

    ok, trace = peel_structure(receiver_view(assign, ch, receiver))
    got, bit_trace = peel_bits(receiver_view(assign, ch, receiver), y)
    assert bit_trace == trace
    assert ok and got is not None
    assert np.array_equal(got, messages[receiver - 1])
    assert rank_decodable(ch, assign)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=frozen_cases())
def test_shared_program_equals_own_compile(case):
    assign, ch, receiver = instantiate_case(case)
    shared = receiver_view(assign, ch, receiver).program
    own = _compile(assign, ch, receiver)
    assert (shared.success, shared.own, shared.trace) == (own.success, own.own, own.trace)
    for field in ("indptr", "indices", "origins"):
        assert np.array_equal(getattr(shared, field), getattr(own, field)), field


def outcome(view, y):
    """`peel_bits(view, y)`, or the message of the InconsistentSignalError it raises."""
    try:
        return peel_bits(view, y)
    except InconsistentSignalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    case=frozen_cases(),
    seed=st.integers(0, 2**32 - 1),
    flips=st.lists(st.lists(st.integers(0, 2 * MAX_N - 1), max_size=3), min_size=7, max_size=7),
)
def test_stacked_call_equals_per_row_calls(case, seed, flips):
    assign, ch, receiver = instantiate_case(case)
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, (ch.k, assign.m), dtype=np.uint8)
    words = transmit(ch, assign.encode(messages))
    for word, levels in zip(words, flips):
        for level in levels:
            word[level % (2 * ch.n)] ^= 1
    view = receiver_view(assign, ch, receiver)
    rows = [outcome(view, y) for y in words]
    errors = [row for row in rows if isinstance(row, str)]
    stacked = outcome(view, words)
    if errors:
        assert stacked == errors[0]
    else:
        bits, trace = stacked
        assert all(row_trace == trace for _, row_trace in rows)
        assert np.array_equal(bits, np.stack([row_bits for row_bits, _ in rows]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cases(max_n=12), k=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))
def test_random_pipe_maps_decode_at_every_receiver(case, k, seed):
    n, alpha, beta, labels = case
    ch = make_channel(k, n, alpha, beta)
    assign = assignment_from_labels(labels)
    rng = np.random.default_rng(seed)
    messages = [rng.integers(0, 2, assign.m, dtype=np.uint8) for _ in range(k)]
    words = transmit(ch, [assign.encode(d) for d in messages])
    views = [receiver_view(assign, ch, r) for r in range(1, k + 1)]
    success = [peel_structure(view)[0] for view in views]
    assert success == [success[0]] * k
    for view, y, sent in zip(views, words, messages):
        got, _ = peel_bits(view, y)
        if success[0]:
            assert np.array_equal(got, sent), view.receiver
        else:
            assert got is None, view.receiver
    if success[0]:
        assert rank_decodable(ch, assign)
