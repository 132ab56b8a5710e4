"""One workload in one fresh, single-threaded interpreter.

Started by run.py, never imported by it. The worker generates its inputs,
imports the package from the checkout's ``src``, warms up, then runs jobs
in a closed loop (one job at a time) until the measuring time is used up,
and prints one JSON object as its last line of output.

Modes:
  (default)     timed job loop; --trace 1 runs every job untraced and then
                traced, for the per-layer metrics and the tracing overhead
  --setup-only  report the set-up time and exit
  --jobs N      run jobs 0..N-1 untimed and print their output digests,
                checked but not compared with the recorded ones
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
WARMUP_SEED = -1

# Span names, one per call site kind, as <module>.<function>.
CALLS = (
    "graph.load_edge_list",
    "motifs.enumerate_motifs",
    "big.snowball_big", "big.acs_big", "big.check_feasibility", "big.dump_big", "big.load_big",
    "design.first_order_inclusion", "design.realize_sample_big", "design.parse_design_file",
    "sampling.snowball_sample", "sampling.acs_sample",
    "estimators.exact_moments", "estimators.induced_ht_moments", "estimators.delta_matrix",
    "estimators.srswor_equal_share_delta", "estimators.rao_blackwellize",
    "estimators.monte_carlo_moments", "estimators.point",
    "builtins.reproduce",
    "cli.main",
    spans.JOB,
)
COUNTS = (
    "graph.nodes", "graph.edges", "motifs.found", "big.edges", "big.checks", "big.violations",
    "big.file_bytes", "design.support_points", "sampling.observed_nodes",
    "estimators.replicates", "cli.report_bytes",
)
# rate name -> (count, span whose busy time is the denominator)
RATES = {
    "motifs.found_per_s": ("motifs.found", "motifs.enumerate_motifs"),
    "estimators.points_per_s": ("design.support_points", "estimators.exact_moments"),
    "estimators.replicates_per_s": ("estimators.replicates", "estimators.monte_carlo_moments"),
}


def warmup_jobs(workload: str) -> range:
    """One warm-up job per job kind that the workload rotates through
    with a different code path."""
    return range(len(gen.MOMENT_KINDS)) if workload == "exact-moments" else range(1)


def run_one(pipeline, inp: dict, traced: bool):
    """Run one job: (job, start, stop, error text or None)."""
    job = spans.Job(traced)
    start = time.perf_counter()
    try:
        pipeline(job, inp)
        error = None
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return job, start, time.perf_counter(), error


def layer_metrics(all_spans, counts: dict, untraced_s: float) -> dict:
    """Per-layer metrics from the traced jobs' spans and counts; untraced_s
    is the untraced time of the same jobs."""
    busy = spans.busy_seconds(all_spans)
    total = spans.total_seconds(all_spans)
    share = spans.shares(busy, total)
    out = {}
    for name in CALLS:
        out[f"{name}.s"] = (busy.get(name, 0.0), "s")
        out[f"{name}.share"] = (share.get(name, 0.0), "ratio")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    for name, (count, span) in RATES.items():
        secs = busy.get(span, 0.0)
        out[name] = (counts.get(count, 0) / secs if secs > 0 else 0.0, "1/s")
    # Both rates are over the same jobs, so this is 1 - untraced/traced time.
    out["trace.overhead_frac"] = (1 - untraced_s / total if total > 0 else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def e2e_metrics(times_ok: list[float], busy_s: float) -> dict:
    ms = [t * 1000 for t in times_ok]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "jobs_per_s": {"value": len(ms) / busy_s, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def timed_loop(workload: str, seed: int, seconds: float, traced: bool, pipeline, gate) -> dict:
    make = gen.GENERATORS[workload]
    times_ok, busy_s = [], 0.0
    attempted, failed, reasons = 0, 0, []
    all_spans, counts = [], {}
    end = time.monotonic() + seconds
    while time.monotonic() < end or attempted == 0:
        index = attempted
        inp = make(seed, index)
        job, start, stop, error = run_one(pipeline, inp, traced=False)
        got, bad = gate.failures(index, job, inp, error)
        if traced:
            tjob, tstart, tstop, terror = run_one(pipeline, inp, traced=True)
            tgot, tbad = gate.failures(index, tjob, inp, terror)
            bad += tbad + ([] if tgot == got else ["traced digest differs"])
            all_spans += spans.job_spans(index, tstart, tstop, tjob.spans, len(all_spans))
            for name, value in tjob.counts.items():
                counts[name] = counts.get(name, 0) + value
        attempted += 1
        busy_s += stop - start
        if bad:
            failed += 1
            reasons.append(f"job {index}: {'; '.join(bad)}")
        else:
            times_ok.append(stop - start)
    if traced:
        metrics = layer_metrics(all_spans, counts, busy_s)
    elif times_ok:
        metrics = e2e_metrics(times_ok, busy_s)
    else:
        metrics = {}
    return {"attempted": attempted, "failed": failed, "reasons": reasons[:5], "metrics": metrics}


def digests(workload: str, seed: int, count: int, pipeline, gate) -> dict:
    make = gen.GENERATORS[workload]
    out, reasons = [], []
    for index in range(count):
        inp = make(seed, index)
        job, _, _, error = run_one(pipeline, inp, traced=False)
        got, bad = gate.failures(index, job, inp, error)
        out.append(got)
        reasons += [f"job {index}: {r}" for r in bad]
    return {"digests": out, "reasons": reasons}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--jobs", type=int)
    args = parser.parse_args(argv)

    gen_start = time.monotonic()
    warm = [gen.GENERATORS[args.workload](WARMUP_SEED, j) for j in warmup_jobs(args.workload)]
    gen_s = time.monotonic() - gen_start

    sys.path.insert(0, str(ROOT / "src"))
    import bigs  # noqa: F401  (set-up cost is part of the measurement)
    import bigs.cli  # noqa: F401
    import gate
    import jobs
    pipeline = jobs.PIPELINES[args.workload]

    # Jobs write their CLI files here; the directory is private to this
    # process and removed on exit.
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        for inp in warm:
            _, _, _, error = run_one(pipeline, inp, traced=False)
            if error is not None:
                raise SystemExit(f"warm-up job failed: {error}")
        setup_s = time.monotonic() - args.spawned - gen_s
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.jobs is not None:
            result = digests(args.workload, args.seed, args.jobs, pipeline, gate.Gate(ROOT))
        else:
            recorded = gate.recorded_digests(args.workload, args.seed)
            result = timed_loop(args.workload, args.seed, args.seconds, bool(args.trace),
                                pipeline, gate.Gate(ROOT, recorded))
            result["setup_s"] = setup_s
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
