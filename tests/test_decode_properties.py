"""Property tests of the compiled peeling decoder at random catalog points.

Each example draws a region, a rational point strictly inside it, a multiple
of that point's minimal N (at most MAX_N), K in 3..7, any receiver and the
messages, then checks that the frozen layout's compiled decoder returns the
sent bits with the value-free trace, and that peel success implies rank
decodability.  A second property checks that the receiver's program, which
relabels the one schedule compiled per channel, equals the schedule compiled
for that receiver alone.  A third draws random pipe maps of the search class
(the rank oracle's property cases, at N <= 12) with K in 3..7 and checks that
every receiver's relabelled program succeeds exactly when receiver 1's does,
and then returns its own sent bits.
"""

import math
from fractions import Fraction as F
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from detic.channel import make_channel, transmit
from detic.decode import _compile, peel_bits, peel_structure, receiver_view
from detic.exactmath import polygon_vertices
from detic.oracle import assignment_from_labels, rank_decodable
from detic.regions import load_region_table
from detic.scheme import _strict_interior, build_assignment, load_frozen_layouts, minimal_n
from test_oracle_properties import cases

MAX_N = 120
DENOMINATORS = range(2, 17)


@cache
def interior_points() -> dict[str, tuple[tuple[F, F], ...]]:
    """Per region id, the (eps, delta) of every strictly interior lattice
    point with a small denominator whose minimal N is at most MAX_N."""
    points = {}
    for spec in load_region_table():
        verts = polygon_vertices(spec.polygon)
        eps_lo, eps_hi = min(v[0] for v in verts), max(v[0] for v in verts)
        delta_lo, delta_hi = min(v[1] for v in verts), max(v[1] for v in verts)
        seen, inside = set(), []
        for den in DENOMINATORS:
            for i in range(math.ceil(eps_lo * den), math.floor(eps_hi * den) + 1):
                for j in range(math.ceil(delta_lo * den), math.floor(delta_hi * den) + 1):
                    eps, delta = F(i, den), F(j, den)
                    if (eps, delta) in seen or not _strict_interior(spec, eps, delta):
                        continue
                    seen.add((eps, delta))
                    if minimal_n(spec, eps, delta) <= MAX_N:
                        inside.append((eps, delta))
        points[spec.id] = tuple(inside)
    return points


def draw_case(data):
    """(assignment, channel, receiver) of the frozen layout at a random interior
    point, a multiple of its minimal N, K in 3..7 and any receiver."""
    spec = data.draw(st.sampled_from(load_region_table()), label="region")
    eps, delta = data.draw(st.sampled_from(interior_points()[spec.id]), label="point")
    need = minimal_n(spec, eps, delta)
    n = need * data.draw(st.integers(1, MAX_N // need), label="multiple of minimal N")
    k = data.draw(st.integers(3, 7), label="K")
    receiver = data.draw(st.integers(1, k), label="receiver")
    alpha, beta = spec.anchor_alpha + eps, spec.anchor_beta + delta
    assign = build_assignment(load_frozen_layouts([spec])[spec.id], spec, alpha, beta, n)
    return assign, make_channel(k, n, alpha, beta), receiver


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compiled_decoder_returns_sent_bits(data):
    assign, ch, receiver = draw_case(data)
    seed = data.draw(st.integers(0, 2**32 - 1), label="message seed")
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
@given(data=st.data())
def test_shared_program_equals_own_compile(data):
    assign, ch, receiver = draw_case(data)
    shared = receiver_view(assign, ch, receiver).program
    own = _compile(assign, ch, receiver)
    assert (shared.success, shared.own, shared.trace) == (own.success, own.own, own.trace)
    for field in ("indptr", "indices", "origins"):
        assert np.array_equal(getattr(shared, field), getattr(own, field)), field


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
