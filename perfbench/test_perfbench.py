"""Tests of the benchmark itself: seeded inputs are reproducible, job
digests are stable across interpreters, and the span arithmetic that
turns a trace into per-layer busy time and shares is right."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent


def _python(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, *args], cwd=HERE, env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout.strip().splitlines()[-1]


INPUT_DIGESTS = (
    "import gen, hashlib; print(' '.join(hashlib.sha256(gen.canonical_bytes("
    "gen.GENERATORS[w](7, j))).hexdigest() for w in gen.WORKLOADS for j in range(4)))"
)


def test_same_seed_generates_byte_identical_inputs():
    here = " ".join(hashlib.sha256(gen.canonical_bytes(gen.GENERATORS[w](7, j))).hexdigest()
                    for w in gen.WORKLOADS for j in range(4))
    assert _python(["-c", INPUT_DIGESTS], hashseed=1) == here
    assert _python(["-c", INPUT_DIGESTS], hashseed=2) == here
    for w in gen.WORKLOADS:
        assert gen.canonical_bytes(gen.GENERATORS[w](7, 0)) != \
            gen.canonical_bytes(gen.GENERATORS[w](8, 0))


def test_job_digests_are_stable_across_runs():
    for workload in gen.WORKLOADS:
        args = ["worker.py", "--workload", workload, "--seed", "5", "--spawned", "0",
                "--jobs", "3"]
        first = json.loads(_python(args, hashseed=1))
        second = json.loads(_python(args, hashseed=2))
        assert first["reasons"] == [], first["reasons"]
        assert len(set(first["digests"])) == 3
        assert first["digests"] == second["digests"]


def test_self_time_and_shares_on_hand_built_spans():
    calls = [("a", 1.0, 3.0), ("b", 2.0, 5.0), ("a", 7.0, 8.0), ("c", 9.0, 12.0)]
    tree = spans.job_spans(0, 0.0, 10.0, calls, first_id=0)
    tree += spans.job_spans(1, 20.0, 26.0, [("c", 21.0, 23.0)], first_id=len(tree))
    own = spans.self_times(tree)
    # Children cover [1,5], [7,8] and [9,10] of the first job (c is
    # clipped to its parent), so 4 of its 10 seconds are its own.
    assert own[0] == 4.0
    assert own[5] == 4.0
    busy = spans.busy_seconds(tree)
    assert busy == {spans.JOB: 8.0, "a": 3.0, "b": 3.0, "c": 5.0}
    total = spans.total_seconds(tree)
    assert total == 16.0
    share = spans.shares(busy, total)
    assert math.isclose(share["a"], 3.0 / 16.0)
    assert math.isclose(share[spans.JOB], 0.5)


def test_benchmark_json_lists_the_printed_metrics():
    import worker
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = worker.layer_metrics([], {}, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert [m["unit"] for m in bench["per_layer"]] == [m["unit"] for m in layer.values()]
    e2e = dict(worker.e2e_metrics([0.1, 0.2], 0.3), setup_s={"unit": "s"})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: m["unit"] for name, m in e2e.items()}
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
