"""framelab benchmark: seeded certification workloads, checked end to end.

    python3 perfbench/run.py --workload pr-real --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; framelab is imported from its ``src``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-module split of a separate traced run.  Earlier
stdout lines stamp the environment.  Every op is checked (verdict, witness,
exit code, byte-identical repeats); ``failed`` counts the ops that were not
right.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pr-real", "nr-real", "pr-complex", "cli-process")
# Set-up-only workers before the measuring worker, and as many after it.
# setup_s is the median over these and the measuring worker's own set-up.
# A shared machine's speed can hold for seconds at a time, so set-ups made
# back to back move together; two stretches a run apart give the median more.
SETUP_REPEATS = 4
DEADLINE_S = 170  # the whole run, set-up workers included, ends within this
SETUP_TIMEOUT_S = 15
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(args, root: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Its own session, so that a timeout also ends the framelab children it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "framelab" / "__init__.py").is_file():
        print(f"error: no framelab sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    start = time.monotonic()
    repeats = 0 if args.trace else SETUP_REPEATS

    def setups() -> list[dict]:
        return [worker(args, root, True, SETUP_TIMEOUT_S) for _ in range(repeats)]

    try:
        before = setups()
        left = DEADLINE_S - (time.monotonic() - start) - repeats * SETUP_TIMEOUT_S
        result = worker(args, root, False, left)
        after = setups()
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **result["environment"],
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(root), "passes": result["passes"],
    }
    print("environment " + json.dumps(stamp, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        samples = before + [result] + after
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] * r["setup_scale"] for r in samples),
                              "unit": "s"}
        machine = dict(result["at_machine_speed"], setup_s=statistics.median(r["setup_s"] for r in samples))
        print(f"executions {result['attempted']}; setup_s samples {[r['setup_s'] for r in samples]}; "
              f"machine speed {result['speed']:.3f} of the reference; at that speed {json.dumps(machine)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
