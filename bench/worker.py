"""One workload in one fresh process: set up, run timed rounds, report.

    python3 bench/worker.py --workload simulate --seed 1 --seconds 35 [--trace]
    python3 bench/worker.py --workload simulate --seed 1 --setup-only

A `--setup-only` worker sets up, prints `READY <t>` with `t` read from
`time.perf_counter()` (the system-wide monotonic clock on Linux, so other
processes can compare it with their own readings), and exits.

A timed worker sets up, then starts rounds while the next one is expected
to end within `--seconds` of timed rounds, and always runs at least one, so
every run holds only whole rounds.  Between rounds it spawns SETUP_SAMPLES
set-up-only workers, spread evenly over the run, and times each from spawn
to READY; the time they take is not counted as timed rounds.  It prints one
JSON line with the op counts, timings and set-up samples.  With `--trace` the
detic layers are wrapped before set-up, no set-up samples are taken, and
per-layer values are added to the result; spans go to
bench/results/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 20
SAMPLE_TIMEOUT_S = 60


def upper_quartile(samples: list[int]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a set-up-only worker to its READY line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, stamp = out.strip().partition(" ")
    if proc.returncode != 0 or word != "READY":
        raise RuntimeError(f"set-up-only {workload} worker exited with {proc.returncode}")
    return float(stamp) - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["simulate", "verify", "catalog"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="timed length of the rounds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not args.setup_only and args.seconds is None:
        ap.error("--seconds is required unless --setup-only")
    # Turn SIGTERM into an exit that runs setup_sample's clean-up of its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "detic" / "__init__.py").is_file():
        print(f"worker: no detic package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import detic  # noqa: F401  (imported first so the tracer sees every module)

    import tracing
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    ops = workloads.SETUP[args.workload](args.seed)
    tracer.enabled = False
    if args.setup_only:
        print(f"READY {time.perf_counter()!r}", flush=True)
        return 0
    setup_stats = tracer.snapshot()
    take_samples = not args.trace

    op_ns: list[int] = []
    setup_samples: list[float] = []
    failed = 0
    wrong: set[str] = set()
    known: dict[str, int] = {}
    rounds = 0
    rounds_s = 0.0  # wall time of the rounds, set-up samples excluded
    while True:
        round_start = time.perf_counter()
        for op in ops:
            inp = op.prepare()
            tracer.op += 1
            tracer.enabled = args.trace
            t0 = time.perf_counter_ns()
            try:
                out = op.run(inp)
                error = None
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                out, error = None, exc
            op_ns.append(time.perf_counter_ns() - t0)
            tracer.enabled = False
            if workloads.judge(op, inp, out, error):
                continue
            failed += 1
            if op.known_fault is not None:
                known[op.kind] = known.get(op.kind, 0) + 1
            else:
                if not wrong:
                    detail = "".join(traceback.format_exception(error)) if error else "wrong output"
                    print(f"worker: op {op.kind!r} failed:\n{detail}", file=sys.stderr)
                wrong.add(op.kind)
        rounds += 1
        rounds_s += time.perf_counter() - round_start
        done = rounds_s * (rounds + 1) / rounds > args.seconds
        while take_samples and len(setup_samples) < (
            SETUP_SAMPLES if done else SETUP_SAMPLES * rounds_s / args.seconds
        ):
            setup_samples.append(setup_sample(args.workload, args.seed))
        if done:
            break

    timed_ns = sum(op_ns)
    # op_ms_p50 takes each op at the upper quartile of its times over the
    # rounds.  The shared host has bursts of up to twice its usual speed; a
    # pooled median follows the share of a run spent in them, this does not.
    per_op_ns = [upper_quartile(op_ns[j :: len(ops)]) for j in range(len(ops))]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": len(op_ns),
        "failed": failed,
        "known_faults": known,
        "wrong": sorted(wrong),
        "ops_per_s": (len(op_ns) - failed) / (timed_ns / 1e9),
        "op_ms_p50": statistics.median(per_op_ns) / 1e6,
        "setup_samples_s": setup_samples,
        "rounds_s": rounds_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ns": op_ns,
    }
    if args.trace:
        result["layers"] = tracing.layer_values(tracer, setup_stats, rounds, timed_ns)
        tracer.write(RESULTS / f"trace-{args.workload}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
