"""Motif classes, motif enumeration, and snowball observation distances.

A motif is a measurement unit attached to a node set of the population
graph. Pattern classes (single node up to four-node patterns) match by
induced subgraph; the component class matches whole connected components
up to a maximum order. Observation distances count the snowball stages
needed before every pairwise adjacency inside the motif is resolved,
under the incident-reciprocal observation procedure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .graph import Graph, GeodesicMatrix, INFINITE, connected_components, geodesics

# name -> (order, number of edges, sorted degree sequence). Each pattern is
# the unique graph on its order with that signature, so induced matching
# reduces to a signature comparison.
_PATTERNS: dict[str, tuple[int, int, tuple[int, ...]]] = {
    "k1": (1, 0, (0,)),
    "k2": (2, 1, (1, 1)),
    "s2": (3, 2, (1, 1, 2)),
    "k3": (3, 3, (2, 2, 2)),
    "k4": (4, 6, (3, 3, 3, 3)),
    "c4": (4, 4, (2, 2, 2, 2)),
    "s3": (4, 3, (1, 1, 1, 3)),
    "p3": (4, 3, (1, 1, 2, 2)),
}

CLASS_NAMES = tuple(_PATTERNS) + ("component:<max_order>",)


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
    def order(self) -> int | None:
        """Number of member nodes; None for the component class."""
        return None if self.is_component else _PATTERNS[self.name][0]

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

    @property
    def order(self) -> int:
        if self.members is None:
            raise ValueError(f"motif {self.key!r} has no member set")
        return len(self.members)


def to_fraction(value) -> Fraction:
    """Exact value of a number or numeric string; floats by their shortest repr."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


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
    does not match). The component class returns whole weakly connected
    components with at most max_order nodes.
    """
    sym = g.undirected_view()
    found: list[frozenset[str]] = []
    if motif_class.is_component:
        for comp in connected_components(sym):
            if len(comp) <= motif_class.max_order:
                found.append(comp)
    else:
        order, n_edges, signature = _PATTERNS[motif_class.name]
        if order <= sym.n_nodes:
            for combo in itertools.combinations(sym.labels, order):
                degs = [0] * order
                edges = 0
                for a, b in itertools.combinations(range(order), 2):
                    if sym.has_edge(combo[a], combo[b]):
                        edges += 1
                        degs[a] += 1
                        degs[b] += 1
                if edges == n_edges and tuple(sorted(degs)) == signature:
                    found.append(frozenset(combo))
    tag = motif_class.label
    motifs = [Motif(f"{tag}-{i}", members, motif_class) for i, members in enumerate(found)]
    return MotifSet(motifs, y)


def _members(motif: Motif) -> frozenset[str]:
    if not motif.members:
        raise ValueError(f"motif {motif.key!r} has no member set")
    return motif.members


def motif_diameter(motif: Motif, geo: GeodesicMatrix):
    """Largest geodesic distance between two members; 0 for singletons."""
    members = sorted(_members(motif))
    best = 0
    for u, v in itertools.combinations(members, 2):
        d = geo.distance(u, v)
        if d == INFINITE:
            return INFINITE
        best = max(best, d)
    return best


def _sym_geo(g: Graph, geo: GeodesicMatrix | None) -> GeodesicMatrix:
    return geo if geo is not None else geodesics(g.undirected_view())


def observation_distance(motif: Motif, node: str, g: Graph, *, geo: GeodesicMatrix | None = None):
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
    simulation either way.
    """
    geo = _sym_geo(g, geo)
    return _observation_stage(node, {j: geo.distance(node, j) for j in _members(motif)})


def _observation_stage(node, distance: Mapping):
    """The rule of ``observation_distance``, from the seed's distance to each member.

    Over member pairs, the largest smaller-of-two distance is the second
    largest distance overall; it is INFINITE when two members are unreachable.
    """
    if len(distance) == 1:
        ((member, d),) = distance.items()
        return 0 if member == node else d + 1
    return sorted(distance.values())[-2] + 1


def observation_diameter(motif: Motif, g: Graph, *, geo: GeodesicMatrix | None = None):
    """Largest internal observation distance over the motif's members."""
    geo = _sym_geo(g, geo)
    worst = 0
    for node in sorted(_members(motif)):
        d = observation_distance(motif, node, g, geo=geo)
        if d == INFINITE:
            return INFINITE
        worst = max(worst, d)
    return worst


def ancestor_neighborhood(motif: Motif, geo: GeodesicMatrix, t: int) -> frozenset[str]:
    """Non-members within geodesic distance t of some member."""
    if t < 1:
        raise ValueError("neighborhood radius must be >= 1")
    members = _members(motif)
    out = set()
    for lab in geo.labels:
        if lab in members:
            continue
        if geo.distance_to_set(lab, members) <= t:
            out.add(lab)
    return frozenset(out)
