"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles on plain dicts and
tuples: breadth-first search by hand, inclusion probabilities by counting
enumerated samples, estimator moments by full summation. Nothing imports
the production modules, so agreement is meaningful evidence.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from collections import deque, namedtuple
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


HypernodeGraph = namedtuple("HypernodeGraph", "label nodes edges")


def hypernode_transform(nodes, edges, members, label="h"):
    """Collapse the member nodes of an undirected graph into one node.

    Edges inside the member set are dropped, an edge with one member
    endpoint becomes an edge of the hypernode, and parallel edges merge.
    The label gets '+' appended until no other node has it.
    """
    members = set(members)
    while label in nodes and label not in members:
        label += "+"
    collapsed = set()
    for u, v in edges:
        a = label if u in members else u
        b = label if v in members else v
        if a != b:
            collapsed.add(tuple(sorted((a, b))))
    return HypernodeGraph(label, [label] + [u for u in nodes if u not in members],
                          sorted(collapsed))


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


def oracle_snowball_refusal(nodes, edges, members_by_key, kind, t):
    """The InfeasibleError text of a snowball BIG build, or None when
    ``oracle_snowball_big`` builds it: first a motif with two members that
    a third can never reach, in motif order under every rule; then, in
    motif order, a motif-plus motif split across components or a full
    motif that no unit observes within t stages."""
    nodes = first_appearance(nodes, edges)
    adj = build_adjacency(nodes, edges)
    for key, members in members_by_key.items():
        if INF in [observation_stage_oracle(adj, u, members) for u in members]:
            return (f"motif {key!r} has mutually unreachable member nodes; "
                    "no snowball sample can observe it from within")
    dist = all_pairs_shortest(nodes, edges)
    for key, members in members_by_key.items():
        if kind == "motif-plus" and INF in [dist[(a, b)] for a in members for b in members]:
            return (f"motif {key!r} has member nodes in different components; "
                    f"motif-plus:{t} needs a finite motif diameter")
        if kind == "full" and all(observation_stage_oracle(adj, u, members) > t for u in nodes):
            return f"no unit observes motif {key!r} within {t} stages"
    return None


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


def oracle_pattern_motifs(nodes, edges, name):
    """Member sets of the induced copies of a pattern, by testing every
    node combination.

    Combinations run over the nodes in first-appearance order, so the list
    comes out in the lexicographic order of node positions. Edges count in
    both directions; a subset matches when its edge count and sorted
    internal degrees equal the pattern's.
    """
    pattern_nodes, pattern_edges = PATTERNS[name]
    k = len(pattern_nodes)
    want = sorted(sum(p in e for e in pattern_edges) for p in pattern_nodes)
    order = first_appearance(nodes, edges)
    adj = build_adjacency(order, edges)
    found = []
    for combo in itertools.combinations(order, k):
        degs = [0] * k
        n_edges = 0
        for a, b in itertools.combinations(range(k), 2):
            if combo[b] in adj[combo[a]]:
                n_edges += 1
                degs[a] += 1
                degs[b] += 1
        if n_edges == len(pattern_edges) and sorted(degs) == want:
            found.append(frozenset(combo))
    return found


def acs_expansion(adj, y, threshold, seed):
    """Grids surveyed from one selected grid: every neighbour of an
    above-threshold surveyed grid is surveyed too."""
    observed = {seed}
    stack = [seed] if y[seed] > threshold else []
    while stack:
        for v in adj[stack.pop()]:
            if v not in observed:
                observed.add(v)
                if y[v] > threshold:
                    stack.append(v)
    return observed


def oracle_acs_big(nodes, edges, y, threshold, rule):
    """(networks, edge grids, ancestor sets) of an adaptive-cluster BIG, by
    flood fill over the above-threshold grids; for acs-b-dagger, the
    refusal message when an edge grid touches two or more networks.

    Edges count both ways. Networks come in the order of their first grid
    in ``nodes``, and ancestor sets in node order.
    """
    adj = build_adjacency(nodes, edges)
    above = {u for u in nodes if y[u] > threshold}
    network_of = {}
    networks = []
    for u in nodes:
        if u in above and u not in network_of:
            comp = {u}
            stack = [u]
            while stack:
                for v in adj[stack.pop()]:
                    if v in above and v not in comp:
                        comp.add(v)
                        stack.append(v)
            for v in comp:
                network_of[v] = len(networks)
            networks.append(frozenset(comp))
    beta = {}
    edge_grids = set()
    for u in nodes:
        if u in above:
            beta[u] = networks[network_of[u]]
            continue
        touching = {network_of[v] for v in adj[u] if v in above}
        if not touching:
            beta[u] = frozenset([u])
            continue
        edge_grids.add(u)
        joined = frozenset().union(*(networks[i] for i in touching))
        if rule == "acs-b":
            beta[u] = joined | {u}
        elif rule == "acs-b-star":
            beta[u] = frozenset([u])
        elif len(touching) > 1:
            return f"edge grid {u!r} is contiguous to {len(touching)} networks"
        else:
            beta[u] = joined
    return tuple(networks), frozenset(edge_grids), beta


def oracle_acs_feasibility(nodes, edges, y, threshold, beta):
    """The structural and empirical checks of an adaptive-cluster BIG,
    pair by pair: a fresh expansion for every (unit, successor) pair.

    ``nodes`` is the frame in order and ``beta`` maps each motif key, in
    motif order, to its ancestor set. Returns (violations, checks).
    """
    adj = build_adjacency(nodes, edges)
    violations, checks = [], 0
    for key, ancestors in beta.items():
        checks += 1
        if not ancestors:
            violations.append(f"motif {key!r} has no ancestors")
    for i in nodes:
        for k in sorted(key for key, ancestors in beta.items() if i in ancestors):
            checks += 1
            observed = acs_expansion(adj, y, threshold, i)
            if k not in observed:
                violations.append(f"selecting {i!r} does not observe motif {k!r}")
            missing = beta[k] - observed
            if missing:
                violations.append(f"selecting {i!r} observes motif {k!r} but not "
                                  f"its ancestors {sorted(missing)}")
    return violations, checks


def label_set_feasibility(big, nodes, edges, directed, stages=None):
    """(violations, checks) of the graph checks of ``check_feasibility``, by
    the label-set loops it ran before it kept frame positions: for each
    frame unit one observation from that unit alone, then for each of its
    successors, in key order, set differences of labels.

    ``big`` is read only through ``frame``, ``rule``, ``stages_required``,
    ``acs``, ``motifs`` and the ``ancestors``/``successors`` views; the
    population graph comes as nodes, edges and a direction flag.
    """
    violations = []
    checks = len(big.motifs)
    if big.rule.kind.startswith("acs"):
        if big.acs is None:
            return ["adaptive-cluster Big lacks its grid context"], checks
        adj = build_adjacency(nodes, edges)
        y = {key: big.motifs.y(key) for key in big.motifs.keys()}
        for i in big.frame:
            observed = acs_expansion(adj, y, big.acs.threshold, i)
            for k in sorted(big.successors(i)):
                checks += 1
                if k not in observed:
                    violations.append(f"selecting {i!r} does not observe motif {k!r}")
                missing = big.ancestors(k) - observed
                if missing:
                    violations.append(f"selecting {i!r} observes motif {k!r} but not "
                                      f"its ancestors {sorted(missing)}")
        return violations, checks
    horizon = stages if stages is not None else big.stages_required
    verify_reach = big.rule.kind in ("motif-only", "motif-plus")
    for i in big.frame:
        seen, _, resolved, _ = oracle_snowball_sample(nodes, edges, directed, [i], horizon)
        for k in sorted(big.successors(i)):
            checks += 1
            members = big.motifs.get(k).members
            if not members:
                violations.append(f"motif {k!r} has no member set to check")
                continue
            if not pair_rule_observed(members, {i}, resolved):
                violations.append(f"selecting {i!r} does not observe motif {k!r} "
                                  f"within {horizon} stages")
            missing = big.ancestors(k) - seen
            if verify_reach and missing:
                violations.append(f"selecting {i!r} observes motif {k!r} but not "
                                  f"its ancestors {sorted(missing)}")
    return violations, checks


def random_graph(rng, max_nodes=9, min_nodes=2):
    n = rng.randint(min_nodes, max_nodes)
    nodes = [str(i) for i in range(1, n + 1)]
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    edges = [(u, v) for u, v in itertools.combinations(nodes, 2)
             if rng.random() < p]
    return nodes, edges


def random_orientation(rng, edges):
    """Each edge as one arc, either way, or as a pair of reciprocal arcs."""
    arcs = []
    for u, v in edges:
        way = rng.randrange(3)
        if way != 1:
            arcs.append((u, v))
        if way != 0:
            arcs.append((v, u))
    return arcs


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


def oracle_inverse_alpha(beta, counts):
    """Inverse-alpha weight rows from the textbook formula:
    ω_ik = (1/|α_i|) / Σ_{j ∈ β_k} 1/|α_j|, with |α_i| = counts[i]."""
    rows = {}
    for key, anc in beta.items():
        norm = sum(Fraction(1, counts[u]) for u in anc)
        rows[key] = {u: Fraction(1, counts[u]) / norm for u in anc}
    return rows


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


def oracle_point_estimator(points, beta, y, kind):
    """sample -> estimate, with inclusion probabilities summed over the
    listed (sample, probability) points. "ht" adds y_k / π_k over the
    motifs whose ancestor set the sample meets; "hh:equal-share" adds
    z_u / π_u over the sampled units, z_u = Σ y_k / |β_k| over the motifs
    that u is an ancestor of."""
    if kind == "ht":
        pi = {k: sum(p for s, p in points if s & anc) for k, anc in beta.items()}
        return lambda s: sum((y[k] / pi[k] for k, anc in beta.items() if s & anc),
                             Fraction(0))
    z = {}
    for k, anc in beta.items():
        for u in anc:
            z[u] = z.get(u, Fraction(0)) + y[k] / len(anc)
    pi = {u: sum(p for s, p in points if u in s) for u in z}
    return lambda s: sum((z[u] / pi[u] for u in s if u in z), Fraction(0))


def oracle_rb_moments(points, beta, estimate):
    """Moments of the Rao-Blackwellized estimator: the (sample, probability)
    points are grouped by the motifs they observe, those whose ancestor set
    in ``beta`` the sample meets; ``estimate`` is averaged within each group
    with the probabilities as weights, and every sample in a group takes
    its mean."""
    groups = {}
    for s, p in points:
        observed = frozenset(k for k, anc in beta.items() if s & anc)
        groups.setdefault(observed, []).append((s, p))
    value = {}
    for members in groups.values():
        mass = sum(p for _, p in members)
        mean = sum(p * estimate(s) for s, p in members) / mass
        for s, _ in members:
            value[s] = mean
    expectation = sum(p * value[s] for s, p in points)
    variance = sum(p * (value[s] - expectation) ** 2 for s, p in points)
    return expectation, variance


def oracle_pair_ratios(points, beta):
    """π_(kl) / (π_(k) π_(l)) for every ordered pair of motifs, with π_(k)
    the probability that the sample meets β_k and π_(kl) that it meets
    both, each counted over the listed (sample, probability) points."""
    pi = {k: sum(p for s, p in points if s & anc) for k, anc in beta.items()}
    return {(k, l): sum(p for s, p in points if s & beta[k] and s & beta[l]) / (pi[k] * pi[l])
            for k in beta for l in beta}


def oracle_delta(points, beta, rows):
    """The variance-difference matrix from scratch: entry (k, l) is
    Σ_i Σ_j π_ij ω_ik ω_jl / (π_i π_j) - π_(kl) / (π_(k) π_(l)), with ω the
    weight rows {motif: {unit: weight}} and every π counted over the listed
    (sample, probability) points."""
    units = sorted(set().union(*beta.values()))
    pi = {i: sum(p for s, p in points if i in s) for i in units}
    joint = {(i, j): sum(p for s, p in points if i in s and j in s) / (pi[i] * pi[j])
             for i in units for j in units}
    motifs = oracle_pair_ratios(points, beta)
    return {(k, l): sum((joint[i, j] * w_i * w_j for i, w_i in rows[k].items()
                         for j, w_j in rows[l].items()), Fraction(0)) - motifs[k, l]
            for k in beta for l in beta}


def oracle_monte_carlo(draw, estimate, replicates, seed, target):
    """Monte Carlo summary of ``replicates`` draws from random.Random(seed):
    (mean, variance, mse, their standard errors, target) as floats.

    ``draw`` maps the generator to an initial sample and ``estimate`` maps
    that sample to its exact Fraction estimate, which is converted to a
    float on its own before any statistic is taken."""
    rng = random.Random(seed)
    values = [float(estimate(draw(rng))) for _ in range(replicates)]
    r = replicates
    mean = math.fsum(values) / r
    goal = float(target)
    m2 = math.fsum((x - mean) ** 2 for x in values) / r
    m4 = math.fsum((x - mean) ** 4 for x in values) / r
    mse = math.fsum((x - goal) ** 2 for x in values) / r
    q4 = math.fsum((x - goal) ** 4 for x in values) / r
    variance = m2 * r / (r - 1) if r > 1 else 0.0
    return (mean, variance, mse, math.sqrt(m2 / r), math.sqrt(max(m4 - m2 * m2, 0.0) / r),
            math.sqrt(max(q4 - mse * mse, 0.0) / r), goal)


def oracle_draws(design, seed, k):
    """``k`` initial samples from random.Random(seed), drawn on unit labels.

    Under SRSWOR each is ``frozenset(rng.sample(frame, n))``. A listed
    design draws ``rng.randrange(D)`` over the lcm D of its probabilities
    and locates it by bisection among the cumulative integer weights of
    its support points, in their listed order."""
    rng = random.Random(seed)
    if design.points is None:
        return [frozenset(rng.sample(design.frame, design.n)) for _ in range(k)]
    common = math.lcm(*(p.denominator for _, p in design.points))
    cumulative = list(itertools.accumulate(int(p * common) for _, p in design.points))
    return [design.points[bisect.bisect_right(cumulative, rng.randrange(common))][0]
            for _ in range(k)]


def json_report(report):
    """A JSON report as the standard library writes it: the reference for
    the CLI's own writer."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
