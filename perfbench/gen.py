"""Seeded input generators for the pipeline benchmark.

Standard library only, and no import of ``bigs``: every input is plain
text (edge lists, BIG files, design files, y-value tables) or a tuple of
unit labels, built from a ``random.Random`` seeded with a string. String
seeds are hashed with SHA-512 by ``random``, so the inputs depend only on
(workload, seed, job) and never on PYTHONHASHSEED.
"""

from __future__ import annotations

import itertools
import random

# Instance sizes. Each is chosen so that one job takes roughly 0.1-0.3 s
# at the seed commit on a 2-core x86 machine, which gives 100+ jobs (and so
# a p90 with 10+ jobs beyond it) in a 30 s run.
CENSUS_NODES = 28
CENSUS_EDGES = 70  # mean degree 5
CENSUS_SAMPLE = 3
CENSUS_FOUR_NODE = ("k4", "c4", "s3", "p3")

# Sizes at scale 1; each job scales them by a factor spread evenly over
# [0.5, 1.5) by job index (see snowball_scale).
SNOWBALL_CORE = 120
SNOWBALL_CHORDS = 24
SNOWBALL_CLUSTERS = 30
SNOWBALL_SAMPLE = 5
SNOWBALL_REPLICATES = 300

MOMENTS_FRAME = 16
MOMENTS_MOTIFS = 24
MOMENTS_MAX_ANCESTORS = 6
MOMENTS_SAMPLE = 3
MOMENTS_SUPPORT = 120
MOMENTS_REPLICATES = 300
ACS_SIDE = 6
ACS_NETWORKS = 3
ACS_THRESHOLD = 5
ACS_SAMPLE = 2
ACS_REPLICATES = 300
PLANTED_NODES = 30
PLANTED_FILL = 18
PLANTED_SAMPLE = 2
PLANTED_INDUCED_SAMPLES = (4, 8)
MOMENT_KINDS = ("incidence", "acs", "planted")


def job_rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{job}")


def edge_list_text(nodes, edges) -> str:
    """Edge-list text that declares every node first, fixing label order."""
    lines = list(nodes)
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def random_graph(rng: random.Random, n: int, m: int, prefix: str = "v"):
    """Uniform simple graph with exactly n nodes and m edges."""
    nodes = [f"{prefix}{i}" for i in range(n)]
    pairs = list(itertools.combinations(nodes, 2))
    return nodes, sorted(rng.sample(pairs, m), key=pairs.index)


def motif_census_input(seed: int, job: int) -> dict:
    rng = job_rng("motif-census", seed, job)
    nodes, edges = random_graph(rng, CENSUS_NODES, CENSUS_EDGES)
    return {
        "edges": edge_list_text(nodes, edges),
        "four_node": CENSUS_FOUR_NODE[job % len(CENSUS_FOUR_NODE)],
        "sample": tuple(rng.sample(nodes, CENSUS_SAMPLE)),
        "n": CENSUS_SAMPLE,
    }


def _cluster_edges(rng: random.Random, members: list[str]):
    """A random connected graph on the members: a random tree, and for
    three or more members sometimes one extra edge."""
    edges = []
    for i in range(1, len(members)):
        edges.append((members[rng.randrange(i)], members[i]))
    if len(members) >= 3 and rng.random() < 0.5:
        present = {frozenset(e) for e in edges}
        spare = [p for p in itertools.combinations(members, 2) if frozenset(p) not in present]
        edges.append(rng.choice(spare))
    return edges


def snowball_scale(job: int) -> float:
    """Size factor of a sparse-snowball job, from the golden-ratio sequence.

    Jobs of one fixed size take nearly the same time, so the median job
    time of a run would jump between the machine's fast and slow spells;
    a spread of sizes keeps the distribution broad. The factor depends on
    the job index only, so every seed gets the same mix of sizes.
    """
    return 0.5 + (job * 0.6180339887498949) % 1.0


def sparse_snowball_input(seed: int, job: int) -> dict:
    rng = job_rng("sparse-snowball", seed, job)
    scale = snowball_scale(job)
    n_core = round(SNOWBALL_CORE * scale)
    core = [f"c{i}" for i in range(n_core)]
    edges = [(core[i], core[(i + 1) % n_core]) for i in range(n_core)]
    present = {frozenset(e) for e in edges}
    while len(edges) < n_core + round(SNOWBALL_CHORDS * scale):
        u, v = rng.sample(core, 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    nodes = list(core)
    for c in range(round(SNOWBALL_CLUSTERS * scale)):
        members = [f"q{c}x{j}" for j in range(rng.randint(1, 4))]
        nodes.extend(members)
        edges.extend(_cluster_edges(rng, members))
    return {
        "edges": edge_list_text(nodes, edges),
        "sample": tuple(rng.sample(nodes, SNOWBALL_SAMPLE)),
        "n": SNOWBALL_SAMPLE,
        "replicates": SNOWBALL_REPLICATES,
        "mc_seed": rng.randrange(2 ** 32),
    }


def incidence_input(rng: random.Random, frame_size: int, n_motifs: int) -> dict:
    """A random incidence structure as BIG-file text, with its ancestor
    sets and y-values also kept as plain data for the oracle check."""
    frame = [f"u{i}" for i in range(1, frame_size + 1)]
    beta = {}
    y = {}
    for j in range(n_motifs):
        key = f"m{j}"
        beta[key] = tuple(sorted(rng.sample(frame, rng.randint(1, MOMENTS_MAX_ANCESTORS)),
                                 key=frame.index))
        y[key] = rng.randint(0, 9)
    lines = ["FRAME", *frame, "MOTIFS"]
    lines.extend(f"{key} {y[key]}" for key in beta)
    lines.append("EDGES")
    lines.extend(f"{u} {key}" for key, anc in beta.items() for u in anc)
    return {"big": "\n".join(lines) + "\n", "frame": tuple(frame), "beta": beta, "y": y}


def design_text(rng: random.Random, frame, points: int) -> str:
    """An enumerated design over the frame: distinct support points of
    2-4 units with positive rational probabilities summing to one. The
    first points tile the frame so that every unit can be selected."""
    frame = list(frame)
    support = []
    seen = set()
    for i in range(0, len(frame), 3):
        chunk = frozenset(frame[i:i + 3])
        support.append(chunk)
        seen.add(chunk)
    while len(support) < points:
        chunk = frozenset(rng.sample(frame, rng.randint(2, 4)))
        if chunk not in seen:
            seen.add(chunk)
            support.append(chunk)
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return "".join(f"{w}/{total}: {' '.join(sorted(s, key=frame.index))}\n"
                   for w, s in zip(weights, support))


def acs_input(rng: random.Random, side: int) -> dict:
    """A side x side grid with planted above-threshold networks."""
    def cell(r, c):
        return f"r{r}c{c}"

    nodes = [cell(r, c) for r in range(side) for c in range(side)]
    edges = [(cell(r, c), cell(r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [(cell(r, c), cell(r + 1, c)) for r in range(side - 1) for c in range(side)]
    y = {u: rng.choice((0, 0, 0, 1, 2)) for u in nodes}
    for _ in range(ACS_NETWORKS):
        r, c = rng.randrange(side), rng.randrange(side)
        for _ in range(rng.randint(1, 4)):
            y[cell(r, c)] = rng.randint(ACS_THRESHOLD + 1, 60)
            dr, dc = rng.choice(((0, 1), (1, 0), (0, -1), (-1, 0)))
            r, c = min(max(r + dr, 0), side - 1), min(max(c + dc, 0), side - 1)
    return {
        "grid": edge_list_text(nodes, edges),
        "y": "".join(f"{u} {y[u]}\n" for u in nodes),
        "threshold": ACS_THRESHOLD,
        "n": ACS_SAMPLE,
        "sample": tuple(rng.sample(nodes, ACS_SAMPLE)),
        "replicates": ACS_REPLICATES,
        "mc_seed": rng.randrange(2 ** 32),
    }


def planted_input(rng: random.Random, n_nodes: int) -> dict:
    """A sparse graph with planted triangles and two-stars plus a random
    fill that never joins two nodes of one planted group."""
    nodes = [f"p{i}" for i in range(n_nodes)]
    order = list(nodes)
    rng.shuffle(order)
    groups = [order[0:3], order[3:6], order[6:9], order[9:12]]
    edges = [(groups[0][0], groups[0][1]), (groups[0][1], groups[0][2]), (groups[0][0], groups[0][2]),
             (groups[1][0], groups[1][1]), (groups[1][1], groups[1][2]), (groups[1][0], groups[1][2]),
             (groups[2][0], groups[2][1]), (groups[2][1], groups[2][2]),
             (groups[3][0], groups[3][1]), (groups[3][0], groups[3][2])]
    forbidden = {frozenset(p) for g in groups for p in itertools.combinations(g, 2)}
    pool = [p for p in itertools.combinations(nodes, 2) if frozenset(p) not in forbidden]
    edges += rng.sample(pool, PLANTED_FILL)
    return {"edges": edge_list_text(nodes, edges), "n": PLANTED_SAMPLE,
            "induced_n": PLANTED_INDUCED_SAMPLES}


def exact_moments_input(seed: int, job: int) -> dict:
    rng = job_rng("exact-moments", seed, job)
    kind = MOMENT_KINDS[job % len(MOMENT_KINDS)]
    if kind == "incidence":
        inp = incidence_input(rng, MOMENTS_FRAME, MOMENTS_MOTIFS)
        inp["design"] = design_text(rng, inp["frame"], MOMENTS_SUPPORT)
        inp["n"] = MOMENTS_SAMPLE
        inp["replicates"] = MOMENTS_REPLICATES
        inp["mc_seed"] = rng.randrange(2 ** 32)
    elif kind == "acs":
        inp = acs_input(rng, ACS_SIDE)
    else:
        inp = planted_input(rng, PLANTED_NODES)
    inp["kind"] = kind
    return inp


GENERATORS = {
    "motif-census": motif_census_input,
    "sparse-snowball": sparse_snowball_input,
    "exact-moments": exact_moments_input,
}
WORKLOADS = tuple(GENERATORS)


def canonical_bytes(inp: dict) -> bytes:
    """A byte serialization of one generated input, for determinism checks."""
    return repr(sorted(inp.items())).encode()
