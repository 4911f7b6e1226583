"""The input contract of the public surface: a malformed rational, count,
table path or transmit input is refused at once by a `DeticError` that names
the argument, and no call ends in any other error type.

`TABLE` lists every public callable of `detic` that takes a rational or a
count, plus `regions.atlas_rows` and `scheme.degenerate_channel_point`, which
the CLI and the benchmark run, and `load_region_table` and `transmit`.  Each
entry gives valid base arguments and, per checked parameter, the name its
refusal starts with (None for `parse_rat`, which quotes the literal instead;
"cannot read region table" for the path).  Hypothesis swaps one or more of
those parameters for junk.  `NO_RATIONAL_OR_COUNT` and `RECORDS` name the
other public callables, so the three sets together cover the package.
"""

import inspect
import math
import time
from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detic
from detic import regions, scheme
from detic.exactmath import DeticError

WORKED = (F(8, 5), F(9, 10))
DF = next(spec for spec in detic.load_region_table() if spec.id == "Df")
LAYOUT = detic.layout_for(DF)
CH = detic.make_channel(3, 20, *WORKED)
TINY = detic.make_channel(3, 2, F(3, 2), F(1, 2))
ASSIGN = detic.build_assignment(LAYOUT, DF, *WORKED, 20)
HALF_PLANES = [detic.HalfPlane(detic.Affine2(F(1), F(-1), F(0)))]

RAT, COUNT, OPTIONAL_COUNT, PATH, INPUTS = "rational", "count", "count or None", "path", "inputs"
POINT = {"alpha": (RAT, "alpha"), "beta": (RAT, "beta")}
OFFSET = {"eps": (RAT, "eps"), "delta": (RAT, "delta")}

# name -> (callable, valid base arguments, {parameter: (kind, name in the refusal)})
TABLE = {
    "make_channel": (
        detic.make_channel,
        {"k": 3, "n": 20, "alpha": WORKED[0], "beta": WORKED[1]},
        {"k": (COUNT, "K"), "n": (COUNT, "N"), **POINT},
    ),
    "interleave_expand": (detic.interleave_expand, {"ch": CH, "l_uses": 2}, {"l_uses": (COUNT, "L")}),
    "deinterleave": (
        detic.deinterleave, {"v": np.zeros(4, np.uint8), "l_uses": 2}, {"l_uses": (COUNT, "L")}
    ),
    "receiver_view": (
        detic.receiver_view,
        {"assign": ASSIGN, "ch": CH, "receiver": 2},
        {"receiver": (COUNT, "receiver")},
    ),
    "affine_eval": (detic.affine_eval, {"f": HALF_PLANES[0].expr, "eps": 0, "delta": 0}, OFFSET),
    "polygon_contains": (detic.polygon_contains, {"halfplanes": HALF_PLANES, "eps": 0, "delta": 0}, OFFSET),
    "format_rat": (detic.format_rat, {"x": F(1, 2)}, {"x": (RAT, "x")}),
    "parse_rat": (detic.parse_rat, {"text": "1/2"}, {"text": (RAT, None)}),
    "exhaustive_search": (detic.exhaustive_search, {"ch": TINY, "max_n": 9}, {"max_n": (COUNT, "max_n")}),
    "boundary_consistency": (
        detic.boundary_consistency,
        {"samples": 2, "seed": 0, "grid_denominator": 2},
        {"samples": (COUNT, "samples"), "grid_denominator": (OPTIONAL_COUNT, "grid_denominator")},
    ),
    "classify": (detic.classify, {"alpha": WORKED[0], "beta": WORKED[1]}, POINT),
    "dsym_at": (detic.dsym_at, {"alpha": WORKED[0], "beta": WORKED[1]}, POINT),
    "converse_bound": (detic.converse_bound, {"alpha": WORKED[0], "beta": WORKED[1]}, POINT),
    "build_assignment": (
        detic.build_assignment,
        {"layout": LAYOUT, "region": DF, "alpha": WORKED[0], "beta": WORKED[1], "n": 20},
        {**POINT, "n": (COUNT, "N")},
    ),
    "instantiate": (
        detic.instantiate,
        {"region": DF, "alpha": WORKED[0], "beta": WORKED[1], "n": 20},
        {**POINT, "n": (COUNT, "N")},
    ),
    "minimal_n": (detic.minimal_n, {"region": DF, "eps": F(4, 15), "delta": F(7, 30)}, OFFSET),
    "atlas_rows": (regions.atlas_rows, {"grid": 3}, {"grid": (COUNT, "grid")}),
    "degenerate_channel_point": (
        scheme.degenerate_channel_point, {"alpha": WORKED[0], "beta": WORKED[1]}, POINT
    ),
    "load_region_table": (
        detic.load_region_table, {"path": None}, {"path": (PATH, "cannot read region table")}
    ),
    "transmit": (
        detic.transmit,
        {"ch": CH, "inputs": ASSIGN.encode(np.zeros((3, ASSIGN.m)))},
        {"inputs": (INPUTS, "inputs")},
    ),
}
# Public callables that take no argument of a kind above.
NO_RATIONAL_OR_COUNT = {
    "interleave", "peel_bits", "peel_structure", "rank_decodable",
    "check_validity", "infer_roles", "layout_for", "load_frozen_layouts",
}
# Records: the checked entry points above build them, and their constructors
# trust their fields (`Rat` is `Fraction` itself).
RECORDS = {
    "ChannelParams", "DecodeTrace", "PlacedBlock", "ReceiverView", "Affine2", "HalfPlane",
    "Rat", "ClassifyResult", "RegionSpec", "AssignmentMatrix", "BlockRole", "Layout",
}


class Huge:
    """Junk holding an int of more than 4300 digits, which Python refuses to print:
    the call gets `value`, and a report prints `label` in its place."""

    def __init__(self, label, value):
        self.label, self.value = label, value

    def __repr__(self):
        return self.label


HUGE = [Huge("10**5000", 10**5000), Huge("F(10**5000 + 1, 2)", F(10**5000 + 1, 2))]
# Every value is malformed for its kind; 1.5 and "8" are rationals, not counts.
# None is the built-in table, and no grid, so it is junk for neither.
JUNK = [None, True, False, math.nan, math.inf, -math.inf, "abc", "1/0", "1e99999999", *HUGE]
MISSING = "/nonexistent/regions.json"
MALFORMED = {
    RAT: JUNK,
    COUNT: JUNK + [1.5, "8"],
    OPTIONAL_COUNT: JUNK[1:] + [1.5, "8"],
    PATH: [5, 1.5, "/", MISSING, *HUGE],
    INPUTS: [None, 5, 1.5, "/", MISSING, *HUGE],
}


def test_table_covers_every_public_callable():
    public = {
        name for name, obj in vars(detic).items()
        if not name.startswith("_") and callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    listed = [set(TABLE) & public, NO_RATIONAL_OR_COUNT, RECORDS]
    assert set().union(*listed) == public
    assert sum(map(len, listed)) == len(public)


def test_base_arguments_are_valid():
    for name, (fn, base, slots) in TABLE.items():
        assert set(slots) <= set(inspect.signature(fn).bind(**base).arguments), name
        fn(**base)


@st.composite
def calls(draw) -> tuple[str, dict]:
    name = draw(st.sampled_from(sorted(TABLE)))
    slots = TABLE[name][2]
    chosen = draw(st.lists(st.sampled_from(sorted(slots)), min_size=1, max_size=len(slots), unique=True))
    return name, {param: draw(st.sampled_from(MALFORMED[slots[param][0]])) for param in chosen}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=calls())
@example(call=("classify", {"alpha": "1e9999999", "beta": 0}))
@example(call=("classify", {"alpha": None, "beta": 0}))
@example(call=("classify", {"alpha": math.inf, "beta": 0}))
@example(call=("classify", {"alpha": "abc", "beta": "1/2"}))
@example(call=("classify", {"alpha": "1/0", "beta": "0"}))
@example(call=("make_channel", {"n": 10, "alpha": "x", "beta": F(1, 2)}))
@example(call=("make_channel", {"n": 10, "alpha": math.nan, "beta": F(1, 2)}))
@example(call=("receiver_view", {"receiver": 1.5}))
@example(call=("instantiate", {"n": 1.5}))
@example(call=("exhaustive_search", {"max_n": "8"}))
@example(call=("atlas_rows", {"grid": 2.5}))
@example(call=("boundary_consistency", {"samples": "3"}))
@example(call=("classify", {"alpha": HUGE[0], "beta": 0}))
@example(call=("make_channel", {"alpha": HUGE[0], "beta": 0}))
@example(call=("make_channel", {"n": HUGE[1], "alpha": 2, "beta": 0}))
@example(call=("parse_rat", {"text": HUGE[1]}))
@example(call=("load_region_table", {"path": "/"}))
@example(call=("load_region_table", {"path": MISSING}))
@example(call=("load_region_table", {"path": 5}))
@example(call=("transmit", {"inputs": None}))
@example(call=("transmit", {"inputs": 5}))
def test_malformed_arguments_are_refused_at_once_by_name(call):
    name, junk = call
    fn, base, slots = TABLE[name]
    args = {**base, **{param: v.value if isinstance(v, Huge) else v for param, v in junk.items()}}
    named = tuple(f"{slots[param][1]}{sep}" for param in junk if slots[param][1] for sep in " :")
    start = time.perf_counter()
    try:
        fn(**args)
    except DeticError as exc:
        assert time.perf_counter() - start < 1, call
        assert not named or str(exc).startswith(named), (call, str(exc))
    else:
        raise AssertionError(f"{name} accepted {junk!r}")
