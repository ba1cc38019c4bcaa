"""The repository's benchmark: one command for every workload.

    python3 bench/run.py --workload {spectra,kksh,curves} --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from ./src and
nothing needs building.  Every round of a workload runs in a fresh
interpreter (bench/worker.py), one process at a time, pinned to one CPU,
with the numeric libraries held to one thread.  Every time reported is
rescaled to the reference speed of that CPU by the speed sampler that runs
beside the work (speed.py), so that a spell in which other tenants slow the
shared host does not read as a slower program; the raw wall times are
printed above the result line.

--trace 0 measures the end-to-end metrics.  Four set-up probes (interpreter
start plus ``import ads_null_flows.cli``) are made first, then whole rounds
run for as long as the next one, judged by the last, still ends within S
seconds (at least one round).  setup_s and peak_rss_mb are medians over the
probes and rounds; wall_s sums, over the workload's steps, each step's
median time over the rounds.

--trace 1 runs one untraced and one traced round and reports the per-layer
metrics of the traced one; trace.overhead_s is the difference of their
rescaled wall times.  One traced round, whatever S, keeps the work counts
comparable between runs.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics, each with its unit.  The exit code is non-zero, with no JSON line,
when a round cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402  (stdlib only at import; the program is never imported here)
import tracer  # noqa: E402

WORKLOADS = ("spectra", "kksh", "curves")
SETUP_PROBES = 4
DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Start a worker, wait for it, and return its report with the set-up
    time measured from the moment it was started, raw and rescaled."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"worker {args} passed the {timeout:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"worker {args} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_raw_s"] = report["ready"] - started
    report["setup_s"] = speed.ref_seconds(report["samples"], started, report["ready"])
    return report


def run_round(workload: str, seed: int, trace: int, deadline: float) -> dict:
    out = ROOT / ".bench_out" / f"{workload}-{os.getpid()}-{trace}"
    return run_worker(["--workload", workload, "--seed", str(seed),
                       "--trace", str(trace), "--out", str(out)],
                      deadline - time.monotonic())


def tally(rounds: list[dict]):
    """(correct, attempted, failed operations).  A run is correct when every
    failed operation is one of the known faults named in workloads.py."""
    ops = [op for r in rounds for op in r["operations"]]
    failed = [op for op in ops if not op["ok"]]
    return all(op["known_fault"] for op in failed), len(ops), failed


def measure(workload: str, seed: int, seconds: float, deadline: float):
    probes = [run_worker(["--probe"], deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run_round(workload, seed, 0, deadline))
        now = time.monotonic()
        # stop before a round that would end past S seconds or the deadline
        if now + (now - began) > min(start + seconds, deadline):
            break
    setups = probes + rounds
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
        "wall_s": {"value": sum(statistics.median(step) for step in
                                zip(*(r["step_ref_s"] for r in rounds))), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }
    raw_setup = statistics.median(r["setup_raw_s"] for r in setups)
    return rounds, metrics, (f"{len(rounds)} rounds, {len(setups)} set-ups "
                             f"(raw set-up median {raw_setup:.3f} s)")


def measure_traced(workload: str, seed: int, deadline: float):
    plain = run_round(workload, seed, 0, deadline)
    traced = run_round(workload, seed, 1, deadline)
    metrics = tracer.per_layer_metrics(traced["spans"], traced["counts"],
                                       sum(traced["step_ref_s"]) - sum(plain["step_ref_s"]))
    trace_dir = ROOT / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"spans": traced["spans"], "counts": traced["counts"]}, indent=1))
    return [plain, traced], metrics, "1 untraced and 1 traced round"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ads_null_flows" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            rounds, metrics, note = measure_traced(args.workload, args.seed, deadline)
        else:
            rounds, metrics, note = measure(args.workload, args.seed, args.seconds, deadline)
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed = tally(rounds)
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for op in failed:
        known = "known fault" if op["known_fault"] else "UNEXPECTED"
        print(f"  failed ({known}): {op['name']}: {op['detail']}")
    print("round wall time, raw: " + ", ".join(f"{r['wall_s']:.3f}" for r in rounds))
    print("round wall time, rescaled: "
          + ", ".join(f"{sum(r['step_ref_s']):.3f}" for r in rounds))
    print(f"operations: {attempted} attempted, {len(failed)} failed; correct: {correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
