"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles on plain dicts and
tuples: breadth-first search by hand, inclusion probabilities by counting
enumerated samples, estimator moments by full summation. Nothing imports
the production modules, so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

INF = float("inf")


def build_adjacency(nodes, edges):
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_shortest(nodes, edges):
    """Floyd-Warshall, as an independent check on the BFS geodesics."""
    nodes = list(nodes)
    dist = {(u, v): (0 if u == v else INF) for u in nodes for v in nodes}
    for u, v in edges:
        dist[(u, v)] = 1
        dist[(v, u)] = 1
    for w in nodes:
        for u in nodes:
            through = dist[(u, w)]
            if through == INF:
                continue
            for v in nodes:
                cand = through + dist[(w, v)]
                if cand < dist[(u, v)]:
                    dist[(u, v)] = cand
    return dist


def observation_stage_oracle(adj, node, members):
    """Snowball stages from one seed until every member adjacency is known.

    A pair of members is known once either endpoint has been expanded,
    which happens one stage after it is first reached; a single member is
    known at stage 0 when it is the seed, else one stage after reached.
    """
    members = sorted(members)
    dist = bfs_distances(adj, node)
    if len(members) == 1:
        m = members[0]
        if m == node:
            return 0
        return dist[m] + 1 if m in dist else INF
    worst = 0
    for a, b in itertools.combinations(members, 2):
        reach = min(dist.get(a, INF), dist.get(b, INF))
        if reach == INF:
            return INF
        worst = max(worst, reach)
    return worst + 1


def simulate_snowball_observation(adj, node, members, limit):
    """Same question answered by literal stage-by-stage simulation."""
    members = sorted(members)
    if len(members) == 1 and members[0] == node:
        return 0
    shell = {node}
    for stage in range(1, limit + 1):
        expanded = shell
        if len(members) == 1:
            ok = members[0] in expanded
        else:
            ok = all(a in expanded or b in expanded
                     for a, b in itertools.combinations(members, 2))
        if ok:
            return stage
        nxt = set(expanded)
        for u in expanded:
            nxt |= adj[u]
        shell = nxt
    return INF


def first_appearance(nodes, edges):
    """Node order: the listed nodes, then edge endpoints as they appear."""
    order = {}
    for u in list(nodes) + [w for e in edges for w in e]:
        order.setdefault(u, len(order))
    return list(order)


def oracle_snowball_sample(nodes, edges, directed, seeds, stages):
    """T-stage snowball by whole-graph scans: (nodes, edges, resolved, waves).

    Edges are followed both ways. An observed edge keeps its given
    orientation on a directed graph; an undirected one is written with
    its endpoints in first-appearance order.
    """
    order = {u: i for i, u in enumerate(first_appearance(nodes, edges))}
    adj = build_adjacency(order, edges)
    waves = {s: 0 for s in seeds}
    current = set(seeds)
    resolved = set()
    for stage in range(1, stages + 1):
        resolved = set(current)
        for u in list(current):
            for v in adj[u]:
                if v not in waves:
                    waves[v] = stage
                    current.add(v)
    oriented = [(u, v) if directed or order[u] < order[v] else (v, u) for u, v in edges]
    observed = {e for e in oriented if e[0] in resolved or e[1] in resolved}
    seen = set(seeds) | {u for e in observed for u in e}
    return seen, observed, resolved, waves


def pair_rule_observed(members, seeds, resolved):
    """Snowball rule: every member pair has a resolved endpoint; a
    singleton is seeded or resolved."""
    members = sorted(members)
    if len(members) == 1:
        return members[0] in seeds or members[0] in resolved
    return all(a in resolved or b in resolved
               for a, b in itertools.combinations(members, 2))


def oracle_snowball_big(nodes, edges, members_by_key, kind, t):
    """(ancestor sets, stages required) of a snowball BIG from all-pairs
    distances, or None when the rule cannot represent some motif.

    kind is "full" (horizon t), "motif-only" or "motif-plus" (radius t).
    """
    nodes = first_appearance(nodes, edges)
    adj = build_adjacency(nodes, edges)
    dist = all_pairs_shortest(nodes, edges)
    beta = {}
    stages = t if kind == "full" else 0
    for key, members in members_by_key.items():
        internal = [observation_stage_oracle(adj, u, members) for u in members]
        if INF in internal:
            return None
        if kind == "motif-only":
            beta[key] = frozenset(members)
            stages = max(stages, max(internal))
        elif kind == "motif-plus":
            diameter = max(dist[(a, b)] for a in members for b in members)
            if diameter == INF:
                return None
            beta[key] = frozenset(u for u in nodes
                                  if min(dist[(u, a)] for a in members) <= t)
            stages = max(stages, diameter + 2 * t)
        else:
            beta[key] = frozenset(u for u in nodes
                                  if observation_stage_oracle(adj, u, members) <= t)
            if not beta[key]:
                return None
    return beta, stages


def oracle_snowball_feasibility(nodes, edges, members_by_key, beta, horizon, verify_reach):
    """(violations, checks) of the snowball feasibility check: one check
    per motif, then one per (unit, successor) pair, units in frame order."""
    frame = first_appearance(nodes, edges)
    violations = []
    checks = len(beta)
    for i in frame:
        seen, _, resolved, _ = oracle_snowball_sample(nodes, edges, False, [i], horizon)
        for k in sorted(key for key, anc in beta.items() if i in anc):
            checks += 1
            if not pair_rule_observed(members_by_key[k], {i}, resolved):
                violations.append(f"selecting {i!r} does not observe motif {k!r} "
                                  f"within {horizon} stages")
            missing = beta[k] - seen
            if verify_reach and missing:
                violations.append(f"selecting {i!r} observes motif {k!r} but not "
                                  f"its ancestors {sorted(missing)}")
    return violations, checks


def count_induced_occurrences(nodes, edges, pattern_nodes, pattern_edges):
    """Count node subsets whose induced subgraph is isomorphic to the
    pattern, by trying every permutation."""
    edge_set = {frozenset(e) for e in edges}
    pattern = [frozenset(e) for e in pattern_edges]
    k = len(pattern_nodes)
    count = 0
    for combo in itertools.combinations(sorted(nodes), k):
        induced = {frozenset((u, v)) for u, v in itertools.combinations(combo, 2)
                   if frozenset((u, v)) in edge_set}
        for perm in itertools.permutations(combo):
            mapping = dict(zip(pattern_nodes, perm))
            image = {frozenset((mapping[a], mapping[b])) for a, b in pattern_edges}
            if image == induced:
                count += 1
                break
    return count


PATTERNS = {
    "k1": ((0,), ()),
    "k2": ((0, 1), ((0, 1),)),
    "s2": ((0, 1, 2), ((0, 1), (1, 2))),
    "k3": ((0, 1, 2), ((0, 1), (1, 2), (0, 2))),
    "k4": ((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "c4": ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (3, 0))),
    "s3": ((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3))),
    "p3": ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))),
}


def random_graph(rng, max_nodes=9, min_nodes=2):
    n = rng.randint(min_nodes, max_nodes)
    nodes = [str(i) for i in range(1, n + 1)]
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    edges = [(u, v) for u, v in itertools.combinations(nodes, 2)
             if rng.random() < p]
    return nodes, edges


def random_incidence(rng, max_frame=8, max_motifs=10):
    """A random ancestor structure: frame units, motif keys, ancestor sets
    and integer y-values (possibly negative)."""
    n_frame = rng.randint(2, max_frame)
    frame = [f"u{i}" for i in range(1, n_frame + 1)]
    n_motifs = rng.randint(1, max_motifs)
    beta = {}
    y = {}
    for j in range(n_motifs):
        key = f"m{j}"
        size = rng.randint(1, n_frame)
        beta[key] = frozenset(rng.sample(frame, size))
        y[key] = Fraction(rng.randint(-5, 9))
    return frame, beta, y


def srswor_samples(frame, n):
    total = 0
    for combo in itertools.combinations(sorted(frame), n):
        total += 1
        yield frozenset(combo)


def oracle_ht_moments(frame, n, beta, y):
    """Expectation and variance of the observed-motif estimator, from
    scratch: inclusion probabilities by counting samples."""
    samples = list(srswor_samples(frame, n))
    p = Fraction(1, len(samples))
    pi = {}
    for key, anc in beta.items():
        hits = sum(1 for s in samples if s & anc)
        pi[key] = Fraction(hits, len(samples))
    estimates = []
    for s in samples:
        est = sum((y[key] / pi[key] for key, anc in beta.items() if s & anc),
                  Fraction(0))
        estimates.append(est)
    expectation = sum(estimates, Fraction(0)) * p
    variance = sum(((e - expectation) ** 2 for e in estimates), Fraction(0)) * p
    return expectation, variance


def oracle_hh_moments(frame, n, beta, y, scheme):
    """Same for the initial-sample estimator with equal-share or
    inverse-alpha weights."""
    samples = list(srswor_samples(frame, n))
    p = Fraction(1, len(samples))
    alpha = {u: frozenset(k for k, anc in beta.items() if u in anc) for u in frame}
    weights = {}
    for key, anc in beta.items():
        if scheme == "equal-share":
            weights[key] = {u: Fraction(1, len(anc)) for u in anc}
        else:
            inv = {u: Fraction(1, len(alpha[u])) for u in anc}
            norm = sum(inv.values())
            weights[key] = {u: w / norm for u, w in inv.items()}
    z = {u: sum((weights[k][u] * y[k] for k in alpha[u]), Fraction(0))
         for u in frame}
    pi = {}
    for u in frame:
        hits = sum(1 for s in samples if u in s)
        pi[u] = Fraction(hits, len(samples))
    estimates = []
    for s in samples:
        estimates.append(sum((z[u] / pi[u] for u in s), Fraction(0)))
    expectation = sum(estimates, Fraction(0)) * p
    variance = sum(((e - expectation) ** 2 for e in estimates), Fraction(0)) * p
    return expectation, variance


def oracle_induced_moments(frame, n, members_by_key, y):
    """Moments of the all-members-selected estimator by enumeration."""
    samples = list(srswor_samples(frame, n))
    p = Fraction(1, len(samples))
    pi = {}
    for key, members in members_by_key.items():
        hits = sum(1 for s in samples if members <= s)
        pi[key] = Fraction(hits, len(samples))
    estimates = []
    for s in samples:
        est = sum((y[key] / pi[key]
                   for key, members in members_by_key.items() if members <= s),
                  Fraction(0))
        estimates.append(est)
    expectation = sum(estimates, Fraction(0)) * p
    variance = sum(((e - expectation) ** 2 for e in estimates), Fraction(0)) * p
    return expectation, variance
