"""Graph sampling observation procedures.

Snowball sampling follows incident edges reciprocally: at each stage every
edge touching the current node set is observed and the newly seen nodes
seed the next stage. After T stages the nodes reached within T-1 stages
are "resolved": all of their incident edges are known, so a node pair is
observed whenever either endpoint is resolved.

Induced selection observes only edges with both endpoints selected.
Adaptive cluster sampling surveys the initial grids and expands across
every surveyed grid whose y-value exceeds the threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .graph import Graph, INFINITE
from .motifs import to_fraction

INCIDENT = "incident"
INDUCED = "induced"


@dataclass(frozen=True)
class SampleGraph:
    """One realized sample of a population graph."""

    mode: str
    seeds: frozenset[str]
    stages: int | None
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    resolved: frozenset[str]
    waves: Mapping[str, int] = field(default_factory=dict)


def _check_seeds(g: Graph, seeds: Iterable[str]) -> frozenset[str]:
    seeds = frozenset(str(s) for s in seeds)
    for s in seeds:
        if s not in g:
            raise ValueError(f"seed {s!r} is not a node of the graph")
    return seeds


def snowball_sample(g: Graph, seeds: Iterable[str], stages: int) -> SampleGraph:
    """Run T-stage snowball sampling from the seed set.

    Wave t holds the nodes first seen at stage t (wave 0 is the seed set).
    With stages=0 nothing is observed: no edges, no resolved nodes.
    """
    if stages < 0:
        raise ValueError("stages must be >= 0")
    seeds = _check_seeds(g, seeds)
    waves: dict[str, int] = {s: 0 for s in seeds}
    current = set(seeds)
    resolved: frozenset[str] = frozenset()
    for t in range(1, stages + 1):
        resolved = frozenset(current)
        fresh = set()
        for u in current:
            for v in g.incident(u):
                if v not in waves:
                    waves[v] = t
                    fresh.add(v)
        current |= fresh
    edges = frozenset((u, v) for u, v in g.edges() if u in resolved or v in resolved)
    nodes = seeds | {u for e in edges for u in e}
    return SampleGraph(INCIDENT, seeds, stages, frozenset(nodes), edges, resolved, waves)


def induced_sample(g: Graph, selected: Iterable[str]) -> SampleGraph:
    """Observe only the adjacencies among the selected nodes."""
    selected = _check_seeds(g, selected)
    edges = frozenset((u, v) for u, v in g.edges() if u in selected and v in selected)
    waves = {s: 0 for s in selected}
    return SampleGraph(INDUCED, selected, None, selected, edges, frozenset(), waves)


def motif_observed(sample: SampleGraph, members: Iterable[str]) -> bool:
    """Whether every pairwise adjacency of the member set is known.

    Under induced selection that means all members were selected. Under
    incident-reciprocal snowball a pair is known when either endpoint is
    resolved; a singleton motif needs its node seeded or resolved.
    """
    members = sorted(frozenset(members))
    if not members:
        raise ValueError("empty member set")
    if sample.mode == INDUCED:
        return all(m in sample.seeds for m in members)
    if len(members) == 1:
        return members[0] in sample.seeds or members[0] in sample.resolved
    return all(u in sample.resolved or v in sample.resolved
               for u, v in itertools.combinations(members, 2))


def snowball_observation_distance(g: Graph, seeds: Iterable[str], members: Iterable[str],
                                  limit: int | None = None):
    """First snowball stage at which the member set is observed.

    Simulates stage by stage; INFINITE when no stage up to the limit
    (defaults to the node count plus one) observes the motif.
    """
    seeds = _check_seeds(g, seeds)
    members = sorted(frozenset(str(m) for m in members))
    if not members:
        raise ValueError("empty member set")
    if limit is None:
        limit = g.n_nodes + 1
    if len(members) == 1 and members[0] in seeds:
        return 0
    pairs = list(itertools.combinations(members, 2))
    current = set(seeds)
    for t in range(1, limit + 1):
        resolved = current
        if len(members) == 1:
            if members[0] in resolved:
                return t
        elif all(u in resolved or v in resolved for u, v in pairs):
            return t
        grown = set(current)
        for u in current:
            grown |= g.incident(u)
        if grown == current and t > 1:
            return INFINITE
        current = grown
    return INFINITE


@dataclass(frozen=True)
class AcsObservation:
    """The grids surveyed by one adaptive cluster sample.

    ``via_network`` holds grids with a surveyed above-threshold neighbor,
    i.e. grids that the expansion reaches regardless of direct selection.
    """

    observed: frozenset[str]
    initial: frozenset[str]
    via_network: frozenset[str]


def acs_sample(grid: Graph, y: Mapping[str, object], threshold, seeds: Iterable[str]) -> AcsObservation:
    """Adaptive cluster sampling: expand across above-threshold grids."""
    seeds = _check_seeds(grid, seeds)
    thr = to_fraction(threshold)
    missing = [lab for lab in grid.labels if lab not in y]
    if missing:
        raise ValueError(f"missing y-values for grids: {missing}")
    values = {lab: to_fraction(y[lab]) for lab in grid.labels}
    observed = set(seeds)
    frontier = [u for u in sorted(seeds) if values[u] > thr]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(grid.incident(u)):
                if v not in observed:
                    observed.add(v)
                    if values[v] > thr:
                        nxt.append(v)
        frontier = nxt
    via_network = frozenset(
        u for u in observed
        if any(v in observed and values[v] > thr for v in grid.incident(u))
    )
    return AcsObservation(frozenset(observed), seeds, via_network)
