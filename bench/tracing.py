"""Per-layer tracing of the detic package, done from outside the package.

`Tracer.install()` replaces public functions of the `detic` modules with thin
wrappers.  A function that another module imported by name (`rank` inside
`oracle`, `atlas_csv` inside `cli`, ...) is replaced wherever that name is
bound, so the program's own calls go through the wrapper too.  Each wrapped
call is a span; a span's self time is its duration minus the time of the
wrapped calls it contains.  Spans are kept in memory (up to a cap) and written
out once, when the run ends.  Untraced runs install nothing.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

# Wrapped callables: span name -> (module, attribute).  A dotted attribute
# names a method on a class of that module.
TIMED = {
    "regions.load_region_table": ("detic.regions", "load_region_table"),
    "regions.classify": ("detic.regions", "classify"),
    "regions.converse_bound": ("detic.regions", "converse_bound"),
    "regions.boundary_consistency": ("detic.regions", "boundary_consistency"),
    "render.atlas_csv": ("detic.render", "atlas_csv"),
    "cli.main": ("detic.cli", "main"),
    "scheme.load_frozen_layouts": ("detic.scheme", "load_frozen_layouts"),
    "scheme.infer_roles": ("detic.scheme", "infer_roles"),
    "scheme.validation_points": ("detic.scheme", "validation_points"),
    "scheme.interior_sample": ("detic.scheme", "interior_sample"),
    "scheme.build_assignment": ("detic.scheme", "build_assignment"),
    "scheme.encode": ("detic.scheme", "AssignmentMatrix.encode"),
    "channel.transmit": ("detic.channel", "transmit"),
    "decode.receiver_view": ("detic.decode", "receiver_view"),
    "decode.peel_bits": ("detic.decode", "peel_bits"),
    "decode.peel_structure": ("detic.decode", "peel_structure"),
    "oracle.rank_decodable": ("detic.oracle", "rank_decodable"),
    "oracle.exhaustive_search": ("detic.oracle", "exhaustive_search"),
    "gf2.rank": ("detic.gf2", "rank"),
}
# Called so often that only the calls are counted; their time stays in the
# caller's self time.
COUNTED = {
    "exactmath.polygon_contains": ("detic.exactmath", "polygon_contains"),
}

# Per-layer metrics: (name, unit, better, workload it is read from, span, statistic).
LAYER_METRICS = [
    ("regions.load_region_table_ms", "ms", "lower", "catalog", "regions.load_region_table", "ms"),
    ("scheme.load_frozen_layouts_ms", "ms", "lower", "simulate", "scheme.load_frozen_layouts", "ms"),
    ("regions.classify_us", "us", "lower", "catalog", "regions.classify", "us"),
    ("regions.classify_calls", "count", "lower", "catalog", "regions.classify", "calls"),
    ("regions.converse_bound_us", "us", "lower", "catalog", "regions.converse_bound", "us"),
    ("regions.boundary_consistency_ms", "ms", "lower", "catalog", "regions.boundary_consistency", "ms"),
    ("exactmath.polygon_contains_calls", "count", "lower", "catalog", "exactmath.polygon_contains", "calls"),
    ("render.atlas_csv_ms", "ms", "lower", "catalog", "render.atlas_csv", "ms"),
    ("cli.main_ms", "ms", "lower", "catalog", "cli.main", "ms"),
    ("scheme.infer_roles_ms", "ms", "lower", "verify", "scheme.infer_roles", "ms"),
    ("scheme.validation_points_ms", "ms", "lower", "verify", "scheme.validation_points", "ms"),
    ("scheme.interior_sample_ms", "ms", "lower", "verify", "scheme.interior_sample", "ms"),
    ("scheme.build_assignment_ms", "ms", "lower", "verify", "scheme.build_assignment", "ms"),
    ("scheme.build_assignment_calls", "count", "lower", "verify", "scheme.build_assignment", "calls"),
    ("scheme.encode_us", "us", "lower", "simulate", "scheme.encode", "us"),
    ("channel.transmit_us", "us", "lower", "simulate", "channel.transmit", "us"),
    ("decode.receiver_view_ms", "ms", "lower", "simulate", "decode.receiver_view", "ms"),
    ("decode.peel_bits_ms", "ms", "lower", "simulate", "decode.peel_bits", "ms"),
    ("decode.peel_bits_share", "%", "lower", "simulate", "decode.peel_bits", "share"),
    ("decode.peel_passes", "count", "lower", "simulate", "decode.peel_bits", "mean:passes"),
    ("decode.peel_bits_n_exp", "1", "lower", "simulate", "decode.peel_bits", "n_exp"),
    ("decode.peel_structure_ms", "ms", "lower", "verify", "decode.peel_structure", "ms"),
    ("decode.peel_structure_calls", "count", "lower", "verify", "decode.peel_structure", "calls"),
    ("decode.peel_structure_success_ratio", "ratio", "higher", "verify", "decode.peel_structure", "ratio:success"),
    ("oracle.rank_decodable_ms", "ms", "lower", "verify", "oracle.rank_decodable", "ms"),
    ("oracle.rank_decodable_calls", "count", "lower", "verify", "oracle.rank_decodable", "calls"),
    ("oracle.rank_decodable_true_ratio", "ratio", "higher", "verify", "oracle.rank_decodable", "ratio:true"),
    ("oracle.exhaustive_search_ms", "ms", "lower", "verify", "oracle.exhaustive_search", "ms"),
    ("gf2.rank_us", "us", "lower", "verify", "gf2.rank", "us"),
    ("gf2.rank_calls", "count", "lower", "verify", "gf2.rank", "calls"),
    ("gf2.rank_cells", "cells", "lower", "verify", "gf2.rank", "per_round:cells"),
]


def _observe_rank(stat, args, result, self_ns):
    rows, cols = args[0].shape
    stat.add("cells", rows * cols)


def _observe_true(stat, args, result, self_ns):
    stat.add("true", int(bool(result)))


def _observe_peel_structure(stat, args, result, self_ns):
    stat.add("success", int(bool(result[0])))


def _observe_peel_bits(stat, args, result, self_ns):
    view = args[0]
    stat.add("passes", result[1].passes)
    key = (view.assign.region_id, view.params.k, view.params.n)
    calls, total = stat.by_size.get(key, (0, 0))
    stat.by_size[key] = (calls + 1, total + self_ns)


OBSERVERS = {
    "gf2.rank": _observe_rank,
    "oracle.rank_decodable": _observe_true,
    "decode.peel_structure": _observe_peel_structure,
    "decode.peel_bits": _observe_peel_bits,
}


class Stat:
    """Running totals of one span name."""

    __slots__ = ("calls", "self_ns", "extra", "by_size")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra: dict[str, int] = {}
        self.by_size: dict[tuple, tuple[int, int]] = {}

    def add(self, key: str, value: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def snapshot(self) -> tuple[int, int, dict[str, int]]:
        return self.calls, self.self_ns, dict(self.extra)


class Tracer:
    """Span stack and per-name totals; does nothing until `install()`."""

    def __init__(self, span_cap: int = 50_000):
        self.enabled = False
        self.span_cap = span_cap
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start ns, end ns)
        self.dropped = 0
        self.op = -1  # request id shared by the spans of one benchmark op
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 0

    def install(self) -> None:
        for name, (module, attr) in {**TIMED, **COUNTED}.items():
            self.stats[name] = Stat()
            counted = name in COUNTED
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(module)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, leaf, None)
            if original is None:  # the layer is gone: it reads 0 below
                print(f"tracing: {module}.{attr} not found", file=sys.stderr)
                continue
            if owner_name:
                setattr(owner, leaf, self._wrap(name, original, counted))
                continue
            wrapper = self._wrap(name, original, counted)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "detic" and not mod_name.startswith("detic."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.enabled = True

    def _wrap(self, name: str, fn, counted: bool):
        stat = self.stats[name]
        if counted:
            def count_only(*args, **kwargs):
                if self.enabled:
                    stat.calls += 1
                return fn(*args, **kwargs)

            return count_only
        observe = OBSERVERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self_ns = duration - frame[2]
                stat.calls += 1
                stat.self_ns += self_ns
                if len(self.spans) < self.span_cap:
                    self.spans.append(
                        (self.op, span_id, parent[0] if parent else None, name, frame[1], end)
                    )
                else:
                    self.dropped += 1
            if observe is not None:
                observe(stat, args, result, self_ns)
            return result

        return traced

    def snapshot(self) -> dict[str, tuple]:
        return {name: stat.snapshot() for name, stat in self.stats.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "stats": {
                name: {"calls": s.calls, "self_ns": s.self_ns, **s.extra}
                for name, s in self.stats.items()
            },
            "dropped_spans": self.dropped,
            "span_fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n")


def n_exponent(by_size: dict[tuple, tuple[int, int]]) -> float | None:
    """Median over (region, K) of the slope of log(time per call) in log N."""
    groups: dict[tuple, list[tuple[int, float]]] = {}
    for (region, k, n), (calls, total) in by_size.items():
        groups.setdefault((region, k), []).append((n, total / calls))
    slopes = []
    for sizes in groups.values():
        if len(sizes) < 2:
            continue
        (n_lo, t_lo), (n_hi, t_hi) = min(sizes), max(sizes)
        slopes.append(math.log(t_hi / t_lo) / math.log(n_hi / n_lo))
    return statistics.median(slopes) if slopes else None


def layer_values(tracer: Tracer, setup: dict[str, tuple], rounds: int, timed_ns: int) -> dict[str, float]:
    """Every per-layer statistic this run can give, keyed by metric name.

    Times are mean self time per call over the whole process, set-up
    included; counts are per round of timed ops; shares are of the timed ops.
    A layer that was never called reads 0.
    """
    out = dict.fromkeys((m[0] for m in LAYER_METRICS), 0.0)
    for metric, _unit, _better, _workload, span, kind in LAYER_METRICS:
        stat = tracer.stats[span]
        calls0, self0, extra0 = setup[span]
        timed_calls = stat.calls - calls0
        if kind in ("ms", "us"):
            if stat.calls:
                out[metric] = stat.self_ns / stat.calls / (1e6 if kind == "ms" else 1e3)
        elif kind == "calls":
            out[metric] = timed_calls / rounds
        elif kind == "share":
            out[metric] = 100.0 * (stat.self_ns - self0) / timed_ns
        elif kind == "n_exp":
            exp = n_exponent(stat.by_size)
            if exp is not None:
                out[metric] = exp
        else:
            how, key = kind.split(":")
            timed_extra = stat.extra.get(key, 0) - extra0.get(key, 0)
            if how == "per_round":
                out[metric] = timed_extra / rounds
            elif timed_calls:  # mean / ratio per timed call
                out[metric] = timed_extra / timed_calls
    return out
