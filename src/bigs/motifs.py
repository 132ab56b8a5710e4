"""Motif classes, motif enumeration, and snowball observation distances.

A motif is a measurement unit attached to a node set of the population
graph. Pattern classes (single node up to four-node patterns) match by
induced subgraph; the component class matches whole connected components
up to a maximum order. Observation distances count the snowball stages
needed before every pairwise adjacency inside the motif is resolved,
under the incident-reciprocal observation procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import design
from .errors import EnumerationCapError, to_fraction
from .graph import Graph, INFINITE, connected_components

# name -> (order, sorted degree sequence). Each pattern is the unique graph
# on its order with that degree sequence, so induced matching reduces to a
# comparison of sorted degrees.
_PATTERNS: dict[str, tuple[int, tuple[int, ...]]] = {
    "k1": (1, (0,)),
    "k2": (2, (1, 1)),
    "s2": (3, (1, 1, 2)),
    "k3": (3, (2, 2, 2)),
    "k4": (4, (3, 3, 3, 3)),
    "c4": (4, (2, 2, 2, 2)),
    "s3": (4, (1, 1, 1, 3)),
    "p3": (4, (1, 1, 2, 2)),
}

@dataclass(frozen=True)
class MotifClass:
    """A motif class tag: one of the fixed patterns or component:<max_order>."""

    name: str
    max_order: int | None = None

    def __post_init__(self):
        if self.name == "component":
            if self.max_order is None or self.max_order < 1:
                raise ValueError("component class needs max_order >= 1")
        elif self.name in _PATTERNS:
            if self.max_order is not None:
                raise ValueError("max_order applies to the component class only")
        else:
            raise ValueError(f"unknown motif class {self.name!r}")

    @classmethod
    def parse(cls, text: str) -> "MotifClass":
        text = text.strip().lower()
        if text.startswith("component:"):
            try:
                return cls("component", int(text.split(":", 1)[1]))
            except ValueError:
                raise ValueError(f"bad component order in {text!r}") from None
        return cls(text)

    @property
    def is_component(self) -> bool:
        return self.name == "component"

    @property
    def label(self) -> str:
        return f"component:{self.max_order}" if self.is_component else self.name


@dataclass(frozen=True)
class Motif:
    """One motif: a key, its member nodes, and an optional class tag.

    Motifs ingested from a BIG file may have no known member set.
    """

    key: str
    members: frozenset[str] | None = None
    motif_class: MotifClass | None = None


class MotifSet:
    """An ordered collection of motifs with y-values (default 1)."""

    __slots__ = ("motifs", "_by_key", "_y")

    def __init__(self, motifs: Iterable[Motif], y: Mapping[str, object] | None = None):
        self.motifs: tuple[Motif, ...] = tuple(motifs)
        self._by_key = {m.key: m for m in self.motifs}
        if len(self._by_key) != len(self.motifs):
            raise ValueError("duplicate motif keys")
        y = dict(y or {})
        unknown = set(y) - set(self._by_key)
        if unknown:
            raise ValueError(f"y-values for unknown motifs: {sorted(unknown)}")
        self._y = {key: to_fraction(y.get(key, 1)) for key in self._by_key}

    def __iter__(self):
        return iter(self.motifs)

    def __len__(self) -> int:
        return len(self.motifs)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def keys(self) -> tuple[str, ...]:
        return tuple(m.key for m in self.motifs)

    def get(self, key: str) -> Motif:
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"unknown motif {key!r}") from None

    def y(self, key: str) -> Fraction:
        self.get(key)
        return self._y[key]

    def total_y(self) -> Fraction:
        return sum(self._y.values(), Fraction(0))

    def with_y(self, y: Mapping[str, object]) -> "MotifSet":
        merged = dict(self._y)
        merged.update(y)
        return MotifSet(self.motifs, merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MotifSet):
            return NotImplemented
        return self.motifs == other.motifs and self._y == other._y

    def __repr__(self) -> str:
        return f"<MotifSet |Omega|={len(self.motifs)}>"


def enumerate_motifs(g: Graph, motif_class: MotifClass, y: Mapping[str, object] | None = None) -> MotifSet:
    """All motifs of the given class in ``g``, in deterministic order.

    Pattern classes match induced subgraphs on the symmetrized graph, so a
    two-star is three nodes with exactly two edges among them (a triangle
    does not match). Every pattern is connected, so only connected node
    subsets of the pattern's order are grown and tested; motifs are listed
    in the lexicographic order of their members' node indices. Growing more
    than ``design.DEFAULT_ENUMERATION_CAP`` such subsets raises
    EnumerationCapError. The component class returns whole weakly connected
    components with at most max_order nodes.
    """
    if motif_class.is_component:
        found = [comp for comp in connected_components(g) if len(comp) <= motif_class.max_order]
    else:
        labels = g.labels
        found = [frozenset(labels[i] for i in hit)
                 for hit in sorted(_pattern_hits(g._adj, motif_class))]
    tag = motif_class.label
    motifs = [Motif(f"{tag}-{i}", members, motif_class) for i, members in enumerate(found)]
    return MotifSet(motifs, y)


def _pattern_hits(adj, motif_class: MotifClass) -> list[tuple[int, ...]]:
    """Index tuples, each sorted, of the node subsets that induce the pattern.

    ESU (Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
    2006) grows each connected subset of the pattern's order exactly once,
    from its smallest node: a subset is extended only by nodes above that
    root which are not already adjacent to it, so no subset is reached
    twice. A subset matches when its sorted internal degrees equal the
    pattern's.
    """
    order, signature = _PATTERNS[motif_class.name]
    signature = list(signature)
    cap = design.DEFAULT_ENUMERATION_CAP
    hits: list[tuple[int, ...]] = []
    grown = 0

    def extend(sub: list[int], closed: frozenset[int], ext: list[int], root: int):
        nonlocal grown
        if len(sub) == order - 1:
            # Every candidate completes one subset: classify them in place.
            grown += len(ext)
            if grown > cap:
                raise EnumerationCapError(
                    f"{motif_class.name} enumeration grew {grown} connected subsets of "
                    f"{order} nodes, above the cap of {cap}")
            members = set(sub)
            inner = [len(adj[u] & members) for u in sub]
            for w in ext:
                nbrs = adj[w]
                degs = [d + 1 if u in nbrs else d for u, d in zip(sub, inner)]
                degs.append(len(nbrs & members))
                degs.sort()
                if degs == signature:
                    hits.append(tuple(sorted(sub + [w])))
            return
        while ext:
            w = ext.pop()
            extend(sub + [w], closed | adj[w],
                   ext + [u for u in adj[w] if u > root and u not in closed], root)

    if order == 1:
        extend([], frozenset(), list(range(len(adj))), -1)
    else:
        for v, nbrs in enumerate(adj):
            extend([v], nbrs | {v}, [u for u in nbrs if u > v], v)
    return hits


def _member_indices(motif: Motif, g: Graph) -> list[int]:
    """Node indices of the motif's members, which must lie in ``g``."""
    if not motif.members:
        raise ValueError(f"motif {motif.key!r} has no member set")
    try:
        return [g._index[u] for u in motif.members]
    except KeyError:
        raise ValueError(f"motif {motif.key!r} has members outside the graph") from None


def _member_distances(g: Graph, members: list[int]) -> dict[int, dict[int, int | float]]:
    """Distance, ignoring direction, from each member index to every member.

    Each search stops at the level that reaches the last member, so it
    stays inside a ball around the motif; unreachable members are INFINITE.
    """
    between = {}
    for a in members:
        reached = g._ball([a], targets=members)
        between[a] = {b: reached.get(b, INFINITE) for b in members}
    return between


def motif_diameter(motif: Motif, g: Graph):
    """Largest geodesic distance between two members, ignoring edge
    direction; 0 for singletons, INFINITE across components."""
    between = _member_distances(g, _member_indices(motif, g))
    return max(d for row in between.values() for d in row.values())


def observation_distance(motif: Motif, node: str, g: Graph):
    """Snowball stages from one seed until every member pair is resolved.

    The snowball front after t stages is the geodesic ball of radius t, so
    a node becomes resolved (all incident edges known) one stage after it
    is first reached. A member pair is observed once either endpoint is
    resolved, which makes the answer one more than the largest, over
    member pairs, of the smaller of the two geodesic distances from the
    seed. A pair with both endpoints unreachable can never be observed.
    A singleton needs no pair resolution: stage 0 when it is the seed
    itself, otherwise one stage past its geodesic distance. The seed may
    be a member or not; the rule agrees with the stage-by-stage
    simulation either way. Distances ignore edge direction.
    """
    members = _member_indices(motif, g)
    seed = g.index_of(node)
    reached = g._ball([seed], targets=members)
    return _observation_stage(seed, {j: reached.get(j, INFINITE) for j in members})


def _observation_stage(node, distance: Mapping):
    """The rule of ``observation_distance``, from the seed's distance to each member.

    Over member pairs, the largest smaller-of-two distance is the second
    largest distance overall; it is INFINITE when two members are unreachable.
    """
    if len(distance) == 1:
        ((member, d),) = distance.items()
        return 0 if member == node else d + 1
    return sorted(distance.values())[-2] + 1


def observation_diameter(motif: Motif, g: Graph):
    """Largest internal observation distance over the motif's members."""
    between = _member_distances(g, _member_indices(motif, g))
    return _observation_diameter([sorted(row.values()) for row in between.values()])


def _observation_diameter(rows) -> int | float:
    """The largest ``_observation_stage`` over a motif's members, from each
    member's sorted distances to all of them: the second largest distance
    plus one, or 0 for a singleton."""
    return max(row[-2] for row in rows) + 1 if len(rows) > 1 else 0


def ancestor_neighborhood(motif: Motif, g: Graph, t: int) -> frozenset[str]:
    """Non-members within geodesic distance t of some member, ignoring
    edge direction."""
    if t < 1:
        raise ValueError("neighborhood radius must be >= 1")
    ball = g._ball(_member_indices(motif, g), t)
    return frozenset(g.labels[u] for u, d in ball.items() if d > 0)
