"""One-shot anchor probe: re-times the ROADMAP baseline cases.

Opt-in and never gated; it is not part of the repeated workload runs.
Each case runs in its own fresh interpreter so that its peak resident
memory is its own. Prints one JSON record with the environment.

  python3 perfbench/anchor.py            # all cases, about a minute at the seed commit
  python3 perfbench/anchor.py --case c4  # one case

Cases:
  c4           k3 and c4 enumeration on a random graph, N=120, 360 edges
  geodesics    all-pairs geodesics on a random graph, N=3000, 9000 edges (mean
               degree 6, as in the c4 case)
  moments      exact_moments for HT, N=60, |Omega|=180, SRSWOR n=3
  criterion10  the acceptance test for criterion 10, with the share of its
               time spent in induced_ht_moments
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CASES = ("c4", "geodesics", "moments", "criterion10")
SEED = 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sparse_graph(rng: random.Random, n: int, m: int):
    """n nodes and m distinct random edges, without listing all pairs."""
    nodes = [f"v{i}" for i in range(n)]
    seen, edges = set(), []
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edges.append((nodes[key[0]], nodes[key[1]]))
    return gen.edge_list_text(nodes, edges)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def case_c4() -> dict:
    from bigs import MotifClass, enumerate_motifs, load_edge_list
    rng = random.Random(f"anchor:c4:{SEED}")
    g = load_edge_list(gen.edge_list_text(*gen.random_graph(rng, 120, 360)))
    out = {"nodes": g.n_nodes, "edges": g.n_edges}
    for label in ("k3", "c4"):
        ms, secs = timed(enumerate_motifs, g, MotifClass.parse(label))
        out[f"{label}_s"] = secs
        out[f"{label}_found"] = len(ms)
    return out


def case_geodesics() -> dict:
    from bigs import geodesics, load_edge_list
    g = load_edge_list(sparse_graph(random.Random(f"anchor:geo:{SEED}"), 3000, 9000))
    before = peak_rss_mb()
    _, secs = timed(geodesics, g)
    return {"nodes": g.n_nodes, "edges": g.n_edges, "geodesics_s": secs,
            "rss_before_mb": before}


def case_moments() -> dict:
    from bigs import Design, EstimatorSpec, exact_moments, load_big
    inp = gen.incidence_input(random.Random(f"anchor:moments:{SEED}"), 60, 180)
    big = load_big(inp["big"])
    mom, secs = timed(exact_moments, Design.srswor(big.frame, 3), big, EstimatorSpec.parse("ht"))
    return {"frame": len(big.frame), "motifs": len(big.motifs), "support": mom.support,
            "exact_moments_s": secs}


def case_criterion10() -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance as acc
    busy = {}

    def timing(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] = busy.get(name, 0.0) + time.perf_counter() - start
        return wrapper

    for name in ("induced_ht_moments", "exact_moments", "enumerate_motifs", "snowball_big"):
        setattr(acc, name, timing(name, getattr(acc, name)))
    with contextlib.redirect_stdout(io.StringIO()) as verdict:
        _, secs = timed(acc.test_criterion_10_induced_observation_less_efficient)
    out = {"total_s": secs, "verdict": verdict.getvalue().strip()}
    for name, s in busy.items():
        out[f"{name}_s"] = s
    out["induced_ht_moments_share"] = busy["induced_ht_moments"] / secs
    return out


def run_case(case: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    result = globals()[f"case_{case}"]()
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=CASES)
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(run_case(args.case)))
        return 0
    from run import environment
    results = {}
    for case in (args.case,) if args.case else CASES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--case", case, "--in-process"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[case] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"env": environment(), "seed": SEED, "cases": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
