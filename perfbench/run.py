"""Pipeline benchmark for bigs: seeded workloads, exact-output gate, layer trace.

Run from the root of a checkout:

  python3 perfbench/run.py --workload motif-census --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one after another
  python3 perfbench/run.py --record 400              # re-record expected.json

Each workload runs in its own fresh interpreter (perfbench/worker.py), one
at a time. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# Later changes confirm a claimed gain on this seed too; it is not used
# while tuning.
HELD_OUT_SEED = 2027
# Set-up is also measured in this many extra fresh interpreters, half
# before and half after the measuring one, and the median is reported:
# on a shared machine the speed drifts over tens of seconds.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 120


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def spawn_worker(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh interpreter; its last output line."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--spawned", repr(spawned), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    def probes():
        return [spawn_worker(workload, seed, "--setup-only", timeout=WORKER_TIMEOUT_S)["setup_s"]
                for _ in range(0 if trace else SETUP_PROBES // 2)]

    setups = probes()
    res = spawn_worker(workload, seed, "--seconds", str(seconds), "--trace", str(trace),
                 timeout=seconds + WORKER_TIMEOUT_S)
    metrics = res["metrics"]
    if not trace:
        setups += probes() + [res["setup_s"]]
        if metrics:  # empty when every job failed
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {"correct": res["failed"] == 0 and bool(metrics), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "reasons": res["reasons"]}


def show(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} jobs, {result['failed']} failed, "
          f"failed_frac {result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")


def record(jobs: int) -> None:
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            res = spawn_worker(workload, seed, "--jobs", str(jobs), timeout=3600)
            if res["reasons"]:
                raise SystemExit(f"{workload} seed {seed} fails its checks: {res['reasons'][:3]}")
            digests[workload][str(seed)] = res["digests"]
    body = {"env": environment(), "jobs": jobs, "digests": digests}
    (HERE / "expected.json").write_text(json.dumps(body, indent=0) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, metavar="JOBS",
                        help="record the digests of the first JOBS jobs of every workload "
                             f"for seeds {DEFAULT_SEED} and {HELD_OUT_SEED}, then exit")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "bigs" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    if args.record:
        record(args.record)
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            show(workload, results[workload])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": environment(), "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
