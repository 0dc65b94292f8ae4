#!/usr/bin/env python3
"""Benchmark entry point: build perf_ledger and the petd it drives from this
checkout, then measure one workload.

    python3 bench/perf/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}); build output goes to
standard error.  Everything is written under .bench_build/ in the checkout.
"""

import argparse
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "wire_cold", "wire_hot", "wire_churn")
BUILD_JOBS = "4"


def run(cmd, cwd, stdout=None):
    """Run cmd to completion, forwarding SIGINT/SIGTERM to it."""
    child = subprocess.Popen(cmd, cwd=cwd, stdout=stdout)
    previous = {}

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return code if code >= 0 else 128 - code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be >= 1")

    root = Path(__file__).resolve().parents[2]
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"run.py: {root} holds no PET sources to build", file=sys.stderr)
        return 2

    # Relative paths keep petd's socket path short wherever the checkout is.
    build = Path(".bench_build") / "perf"
    if not (root / build / "CMakeCache.txt").is_file():
        code = run(["cmake", "-S", "bench/perf", "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], root, sys.stderr)
        if code != 0:
            return code
    code = run(["cmake", "--build", str(build), "--parallel", BUILD_JOBS],
               root, sys.stderr)
    if code != 0:
        return code

    work_dir = build / "run"
    (root / work_dir).mkdir(parents=True, exist_ok=True)
    cmd = [str(build / "perf_ledger"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--work-dir={work_dir}", "--json"]
    if args.trace:
        cmd += [f"--trace={build / ('trace-' + args.workload + '.jsonl')}",
                "--trace-only"]
    return run(cmd, root)


if __name__ == "__main__":
    sys.exit(main())
