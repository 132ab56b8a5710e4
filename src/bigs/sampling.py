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

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import to_fraction
from .graph import Graph

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


def _reach(g: Graph, seeds: Iterable[str], stages: int) -> tuple[frozenset[str], dict[int, int]]:
    """The checked seed set and its ball of radius ``stages``: node index -> wave."""
    if stages < 0:
        raise ValueError("stages must be >= 0")
    seeds = _check_seeds(g, seeds)
    return seeds, g._ball([g.index_of(s) for s in seeds], stages)


def snowball_sample(g: Graph, seeds: Iterable[str], stages: int) -> SampleGraph:
    """Run T-stage snowball sampling from the seed set.

    Wave t holds the nodes first seen at stage t (wave 0 is the seed set).
    With stages=0 nothing is observed: no edges, no resolved nodes. Only
    the ball of radius T around the seeds is visited.
    """
    seeds, ball = _reach(g, seeds, stages)
    labels = g.labels
    resolved = [i for i, wave in ball.items() if wave < stages]
    edges = set()
    for i in resolved:
        for j in g._out[i]:
            edges.add((labels[i], labels[j]) if g.directed or i < j else (labels[j], labels[i]))
        if g.directed:
            edges.update((labels[j], labels[i]) for j in g._adj[i] if i in g._out[j])
    # Every node within T stages is the endpoint of an edge to a resolved
    # node, so the observed nodes are exactly the ball.
    waves = {labels[i]: wave for i, wave in ball.items()}
    return SampleGraph(INCIDENT, seeds, stages, frozenset(waves), frozenset(edges),
                       frozenset(labels[i] for i in resolved), waves)


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
    members = frozenset(members)
    if not members:
        raise ValueError("empty member set")
    if sample.mode == INDUCED:
        return members <= sample.seeds
    return _observes(members, sample.seeds, sample.resolved)


def _observes(members: frozenset[str], seeds, resolved) -> bool:
    """The incident-reciprocal rule of ``motif_observed``.

    Every member pair has a resolved endpoint exactly when at most one
    member is unresolved.
    """
    if len(members) == 1:
        (member,) = members
        return member in seeds or member in resolved
    return len(members - resolved) <= 1


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
    return _acs_expand(grid, _acs_values(grid, y), to_fraction(threshold), seeds)


def _acs_values(grid: Graph, y: Mapping[str, object]) -> dict:
    """Every grid's exact y-value; refuses a grid without one."""
    missing = [lab for lab in grid.labels if lab not in y]
    if missing:
        raise ValueError(f"missing y-values for grids: {missing}")
    return {lab: to_fraction(y[lab]) for lab in grid.labels}


def _acs_expand(grid: Graph, values: Mapping, thr, seeds: frozenset[str]) -> AcsObservation:
    """``acs_sample`` on checked seeds, exact values and an exact threshold."""
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
