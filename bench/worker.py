"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --out DIR
    python3 bench/worker.py --probe

The worker first pins itself to one CPU and starts the speed sampler
(speed.py), then imports the program; the CLOCK_MONOTONIC stamp taken right
after ``import ads_null_flows.cli`` marks the end of set-up, and run.py
rescales the interval from the moment it started this process.  The round's
result, with the sampler's samples of the set-up, is one JSON object on the
last line of standard output.
"""

import time  # noqa: I001  (only the sampler is set up before the program's import)

import speed

speed.pin_to_one_cpu()
SAMPLER = speed.Sampler().start()

import ads_null_flows.cli as cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def set_up_samples(samples: list) -> list:
    """The samples run.py needs to rescale the set-up interval."""
    return [s for s in samples if s[0] < READY]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ads_null_flows imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"ready": READY, "samples": set_up_samples(SAMPLER.stop())}))
        return 0

    import tracer
    import workloads

    steps = workloads.build(args.workload, args.seed, cli)
    out = Path(args.out)
    installed = tracer.Installation(tracer.Tracer()).install() if args.trace else None
    values, marks = [], [time.monotonic()]
    try:
        for step in steps:
            values.append(step.run(out))
            marks.append(time.monotonic())
    finally:
        wall = time.monotonic() - marks[0]
        if installed is not None:
            installed.uninstall()
    samples = SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = workloads.check_all(steps, out, values)
    shutil.rmtree(out, ignore_errors=True)
    report = {
        "ready": READY,
        "wall_s": wall,
        "step_s": [b - a for a, b in zip(marks, marks[1:])],
        "step_ref_s": [speed.ref_seconds(samples, a, b) for a, b in zip(marks, marks[1:])],
        "samples": set_up_samples(samples),
        "peak_rss_mb": peak_rss_mb,
        "operations": results,
    }
    if installed is not None:
        report["spans"] = installed.tracer.summary()
        report["counts"] = dict(installed.tracer.counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
