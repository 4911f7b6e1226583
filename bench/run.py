#!/usr/bin/env python3
"""Benchmark of the detic toolkit: simulate, verify and catalog workloads.

    python3 bench/run.py --workload simulate --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                      # every workload, one after another
    python3 bench/run.py --trace 1            # per-layer metrics and tracing overhead

`--seconds` is the timed length of one workload; it defaults to
`run_seconds` in BENCHMARK.json.  Each workload runs in its own fresh,
single-threaded worker process (bench/worker.py).  With `--trace 0` it prints
the end-to-end metrics: set-up time (median over the worker's set-up
samples, fresh set-up-only processes spread over the run), ops completed per
second of op time, the median op time (each op timed at its upper quartile
over the rounds) and peak resident memory.  With `--trace 1` it runs every
workload twice, untraced and traced, each for a sixth of `--seconds` (at
least one round), and prints the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Exit status is 0 only when every
worker ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("simulate", "verify", "catalog")

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def run_seconds() -> int:
    """The run length BENCHMARK.json fixes."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


class WorkerError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached bytecode
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run one timed worker to its end and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + ["--trace"] * trace
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
    try:
        out, _ = proc.communicate(timeout=2 * seconds + 60)
    finally:
        if proc.poll() is None:  # let the worker stop its own set-up sample first
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload."""
    result = run_worker(workload, seed, seconds)
    metrics = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "ops_per_s": result["ops_per_s"],
        "op_ms_p50": result["op_ms_p50"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return result


def trace_all(seed: int, seconds: float) -> dict[str, dict]:
    """Untraced and traced run of every workload; per-layer values by workload."""
    share = seconds / (2 * len(WORKLOADS))
    out = {}
    for workload in WORKLOADS:
        plain = run_worker(workload, seed, share)
        traced = run_worker(workload, seed, share, trace=True)
        traced["layers"][f"trace.{workload}_overhead_pct"] = 100.0 * (
            plain["ops_per_s"] / traced["ops_per_s"] - 1
        )
        traced["untraced_ops_per_s"] = plain["ops_per_s"]
        out[workload] = traced
    return out


def layer_metrics(traced: dict[str, dict]) -> dict[str, dict]:
    metrics = {}
    for name, unit, _better, workload, _span, _kind in LAYER_METRICS:
        metrics[name] = {"value": traced[workload]["layers"][name], "unit": unit}
    for workload in WORKLOADS:
        name = f"trace.{workload}_overhead_pct"
        metrics[name] = {"value": traced[workload]["layers"][name], "unit": "%"}
    return metrics


def _summary(results: list[dict]) -> dict:
    return {
        "correct": all(not r["wrong"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def _save(name: str, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed length of each workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    # Turn SIGTERM into an exit that runs run_worker's clean-up of its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = run_seconds() if args.seconds is None else args.seconds

    try:
        if args.trace:
            traced = trace_all(args.seed, seconds)
            _save("layers.json", {w: r["layers"] for w, r in traced.items()})
            for w, r in traced.items():
                print(f"{w}: traced {r['ops_per_s']:.3f} ops/s, untraced "
                      f"{r['untraced_ops_per_s']:.3f} ops/s")
            metrics = layer_metrics(traced)
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            summary = _summary([traced[w] for w in names])
        else:
            results = [measure(w, args.seed, seconds) for w in names]
            for r in results:
                _save(f"{r['workload']}.json", r)
                print(json.dumps({"workload": r["workload"], "attempted": r["attempted"],
                                  "failed": r["failed"], "metrics": r["metrics"]}))
            summary = _summary(results)
            if len(results) == 1:
                metrics = results[0]["metrics"]
            else:
                metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    except (WorkerError, subprocess.TimeoutExpired, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
