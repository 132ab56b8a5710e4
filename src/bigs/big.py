"""Bipartite incidence graphs between sampling units and motifs.

A Big records, for each motif, the ancestor units whose initial selection
guarantees the motif is observed by the paired observation procedure.
Builders cover T-stage snowball designs (full horizon, members-only, or
members plus a geodesic neighborhood) and adaptive cluster sampling
(full, self-only edge grids, or network-only edge grids).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Mapping

from .design import to_fraction
from .errors import InfeasibleError, ParseError, exact, records
from .graph import Graph, INFINITE, connected_components
from .motifs import (Motif, MotifSet, _member_distances, _member_indices,
                     _observation_diameter)
from .sampling import _acs_expand, _acs_values, _check_seeds, _observes, _reach

FULL = "full"
MOTIF_ONLY = "motif-only"
MOTIF_PLUS = "motif-plus"
ACS_B = "acs-b"
ACS_B_STAR = "acs-b-star"
ACS_B_DAGGER = "acs-b-dagger"

_SNOWBALL_KINDS = (FULL, MOTIF_ONLY, MOTIF_PLUS)
_ACS_KINDS = (ACS_B, ACS_B_STAR, ACS_B_DAGGER)


@dataclass(frozen=True)
class AncestorRule:
    """How ancestor sets are chosen when building a Big."""

    kind: str
    t: int | None = None

    def __post_init__(self):
        if self.kind not in _SNOWBALL_KINDS + _ACS_KINDS:
            raise ValueError(f"unknown ancestor rule {self.kind!r}")
        if self.kind == MOTIF_PLUS and (self.t is None or self.t < 1):
            raise ValueError("motif-plus needs a neighborhood radius t >= 1")
        if self.kind == FULL and self.t is not None and self.t < 0:
            raise ValueError("full rule needs a stage horizon >= 0")
        if self.kind not in (FULL, MOTIF_PLUS) and self.t is not None:
            raise ValueError(f"rule {self.kind!r} takes no parameter")

    @classmethod
    def full(cls, t: int | None = None) -> "AncestorRule":
        return cls(FULL, t)

    @classmethod
    def motif_only(cls) -> "AncestorRule":
        return cls(MOTIF_ONLY)

    @classmethod
    def motif_plus(cls, t: int) -> "AncestorRule":
        return cls(MOTIF_PLUS, t)

    @classmethod
    def acs_b(cls) -> "AncestorRule":
        return cls(ACS_B)

    @classmethod
    def acs_b_star(cls) -> "AncestorRule":
        return cls(ACS_B_STAR)

    @classmethod
    def acs_b_dagger(cls) -> "AncestorRule":
        return cls(ACS_B_DAGGER)

    @classmethod
    def parse(cls, text: str) -> "AncestorRule":
        text = text.strip().lower()
        if ":" in text:
            kind, arg = text.split(":", 1)
            try:
                return cls(kind, int(arg))
            except ValueError as exc:
                raise ValueError(f"bad ancestor rule {text!r}: {exc}") from None
        return cls(text)

    @property
    def label(self) -> str:
        return self.kind if self.t is None else f"{self.kind}:{self.t}"


@dataclass(frozen=True)
class AcsContext:
    """Network structure behind an adaptive-cluster Big."""

    grid: Graph
    threshold: Fraction
    networks: tuple[frozenset[str], ...]
    edge_grids: frozenset[str]


class Big:
    """A bipartite incidence graph over a unit frame and a motif set."""

    __slots__ = ("frame", "motifs", "rule", "stages_required", "acs", "_beta", "_alpha")

    def __init__(self, frame: Iterable[str], motifs: MotifSet,
                 ancestors: Mapping[str, Iterable[str]], rule: AncestorRule,
                 stages_required: int | None = None, acs: AcsContext | None = None):
        frame = tuple(str(u) for u in frame)
        if len(set(frame)) != len(frame):
            raise ValueError("frame has duplicate units")
        frame_set = frozenset(frame)
        beta: dict[str, frozenset[str]] = {}
        for m in motifs:
            anc = frozenset(str(u) for u in ancestors.get(m.key, ()))
            if not anc:
                raise InfeasibleError(
                    f"motif {m.key!r} has no ancestors: no initial selection can observe it")
            if not anc <= frame_set:
                raise ValueError(f"ancestors of {m.key!r} outside frame: {sorted(anc - frame_set)}")
            beta[m.key] = anc
        extra = set(ancestors) - set(beta)
        if extra:
            raise ValueError(f"ancestor sets for unknown motifs: {sorted(extra)}")
        alpha: dict[str, set[str]] = {u: set() for u in frame}
        for key, anc in beta.items():
            for u in anc:
                alpha[u].add(key)
        self.frame = frame
        self.motifs = motifs
        self.rule = rule
        self.stages_required = stages_required
        self.acs = acs
        self._beta = beta
        self._alpha = {u: frozenset(ks) for u, ks in alpha.items()}

    def ancestors(self, key: str) -> frozenset[str]:
        self.motifs.get(key)
        return self._beta[key]

    def successors(self, unit: str) -> frozenset[str]:
        try:
            return self._alpha[unit]
        except KeyError:
            raise KeyError(f"unknown unit {unit!r}") from None

    def edges(self):
        """Deterministic (unit, motif) incidence pairs."""
        frame_pos = {u: i for i, u in enumerate(self.frame)}
        for key in self.motifs.keys():
            for u in sorted(self._beta[key], key=frame_pos.__getitem__):
                yield (u, key)

    @property
    def n_edges(self) -> int:
        return sum(len(b) for b in self._beta.values())

    def theta(self) -> Fraction:
        return self.motifs.total_y()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Big):
            return NotImplemented
        return (self.frame == other.frame and self.motifs == other.motifs
                and self._beta == other._beta and self.rule == other.rule)

    def __repr__(self) -> str:
        return (f"<Big rule={self.rule.label} |F|={len(self.frame)} "
                f"|Omega|={len(self.motifs)} edges={self.n_edges}>")


def snowball_big(g: Graph, motifs: MotifSet, rule: AncestorRule) -> Big:
    """Build a Big for T-stage snowball sampling.

    full:T uses every unit that observes the motif within T stages;
    motif-only uses the members, needing the largest observation diameter;
    motif-plus:t adds the geodesic-t neighborhood, needing the largest
    motif diameter plus 2t stages. Distances ignore edge direction.

    Each member node is searched once, or at most twice, and its ball is
    shared by every motif it belongs to. The ball reaches the rule's radius
    r (T-1 for full:T, t for motif-plus:t, 0 for motif-only). Past r it
    stops at the level that reaches the last member of the node's larger
    motifs, and at their |M|-1 at the latest: members that induce a
    connected subgraph lie within |M|-1 of each other. A node whose
    co-members all lie closer than r is searched again to depth r. A motif
    with a member outside these balls falls back to searches that stop
    once its members are reached.
    """
    if rule.kind not in _SNOWBALL_KINDS:
        raise ValueError(f"rule {rule.label!r} is not a snowball rule")
    radius = rule.t or 0
    if rule.kind == FULL:
        radius = max(radius - 1, 0)
    # Index the motifs up to the first with members outside the graph,
    # whose ValueError is raised once the motifs before it are checked.
    indexed, unindexed = [], None
    reach: dict[int, int] = {}  # node -> largest |M|-1 over its motifs with |M|-1 > radius
    mates: dict[int, set[int]] = {}  # node -> the members of those motifs
    for m in motifs:
        try:
            members = _member_indices(m, g)
        except ValueError:
            unindexed = m
            break
        indexed.append((m, members))
        need = len(members) - 1
        if need > radius:
            for a in members:
                if a in mates:
                    mates[a].update(members)
                    if reach[a] < need:
                        reach[a] = need
                else:
                    mates[a] = set(members)
                    reach[a] = need

    memo: dict[int, dict[int, int]] = {}  # node -> its ball
    near: dict[int, list[int]] = {}  # node -> the nodes of its ball within radius
    checked = []
    for m, members in indexed:
        for a in members:
            if a in memo:
                continue
            if a in mates:
                memo[a] = ball = g._ball([a], reach[a], mates.pop(a))
                if next(reversed(ball.values())) < radius:  # the mates lie closer
                    memo[a] = ball = g._ball([a], radius)
            else:
                memo[a] = ball = g._ball([a], radius)
            if rule.kind != MOTIF_ONLY:
                near[a] = list(islice(ball, bisect_right(list(ball.values()), radius)))
        try:
            rows = [sorted(map(memo[a].__getitem__, members)) for a in members]
        except KeyError:
            between = _member_distances(g, members)
            rows = [sorted(between[a].values()) for a in members]
            if _observation_diameter(rows) == INFINITE:
                raise InfeasibleError(
                    f"motif {m.key!r} has mutually unreachable member nodes; "
                    "no snowball sample can observe it from within") from None
        # Keep only what the rule reads: the observation diameter for
        # motif-only, the largest member distance for motif-plus.
        if rule.kind == MOTIF_ONLY:
            checked.append((m, members, _observation_diameter(rows)))
        else:
            checked.append((m, members, max(row[-1] for row in rows)))
    if unindexed is not None:
        _member_indices(unindexed, g)
    memo.clear()  # the ancestors need only the nodes within radius

    label = g.labels.__getitem__
    beta: dict[str, frozenset[str]] = {}
    if rule.kind == MOTIF_ONLY:
        stages = 0
        for m, _, diameter in checked:
            beta[m.key] = m.members
            stages = max(stages, diameter)
    elif rule.kind == MOTIF_PLUS:
        stages = 0
        for m, members, spread in checked:
            if spread == INFINITE:
                raise InfeasibleError(
                    f"motif {m.key!r} has member nodes in different components; "
                    f"{rule.label} needs a finite motif diameter")
            reached = chain.from_iterable(map(near.__getitem__, members))
            beta[m.key] = frozenset(map(label, reached))
            stages = max(stages, spread + 2 * rule.t)
    else:
        if rule.t is None:
            raise ValueError("full rule needs an explicit stage horizon")
        stages = rule.t
        # A unit observes the motif within T >= 1 stages exactly when it
        # lies within T-1 of all members but one, or of a singleton's
        # member: for one or two members, the union of their balls cut at
        # T-1. Under full:0 only a singleton's own member does.
        for m, members, _ in checked:
            reached = chain.from_iterable(map(near.__getitem__, members))
            if stages == 0:
                anc = m.members if len(members) == 1 else frozenset()
            elif len(members) <= 2:
                anc = frozenset(map(label, reached))
            else:
                need = len(members) - 1
                anc = frozenset(map(label, [u for u, n in Counter(reached).items() if n >= need]))
            if not anc:
                raise InfeasibleError(
                    f"no unit observes motif {m.key!r} within {stages} stages")
            beta[m.key] = anc
    return Big(g.labels, motifs, beta, rule, stages_required=int(stages))


def acs_big(grid: Graph, y: Mapping[str, object], threshold, rule: AncestorRule) -> Big:
    """Build a Big for adaptive cluster sampling over a grid graph.

    Above-threshold grids form networks (maximal contiguous sets); their
    ancestors are the whole network. Below-threshold grids are their own
    ancestor, except edge grids (below threshold but contiguous to a
    network), whose ancestors depend on the rule: acs-b keeps self and
    every adjacent network, acs-b-star keeps self only, acs-b-dagger keeps
    the adjacent network only and refuses edge grids with two of them.
    """
    if rule.kind not in _ACS_KINDS:
        raise ValueError(f"rule {rule.label!r} is not an adaptive-cluster rule")
    values = _acs_values(grid, y)
    thr = to_fraction(threshold)
    above = [u for u in grid.labels if values[u] > thr]
    inside = frozenset(above)
    networks = connected_components(Graph(
        above, [(u, v) for u, v in grid.edges() if u in inside and v in inside], grid.directed))
    assigned = {v: idx for idx, comp in enumerate(networks) for v in comp}

    beta: dict[str, frozenset[str]] = {}
    edge_grids = set()
    for u in grid.labels:
        if u in assigned:
            beta[u] = networks[assigned[u]]
            continue
        adjacent = sorted({assigned[v] for v in grid.incident(u) if v in assigned})
        if not adjacent:
            beta[u] = frozenset([u])
            continue
        edge_grids.add(u)
        if rule.kind == ACS_B_STAR:
            beta[u] = frozenset([u])
        elif rule.kind == ACS_B:
            anc = {u}
            for idx in adjacent:
                anc |= networks[idx]
            beta[u] = frozenset(anc)
        else:
            if len(adjacent) >= 2:
                raise InfeasibleError(
                    f"edge grid {u!r} is contiguous to {len(adjacent)} networks; "
                    "no single network selection can guarantee its ancestors are observed")
            beta[u] = networks[adjacent[0]]

    motifs = MotifSet([Motif(u, frozenset([u])) for u in grid.labels], values)
    context = AcsContext(grid, thr, networks, frozenset(edge_grids))
    return Big(grid.labels, motifs, beta, rule, stages_required=None, acs=context)


def dump_big(big: Big) -> str:
    """Canonical BIG file text: FRAME, MOTIFS, EDGES sections."""
    out = ["FRAME"]
    out.extend(big.frame)
    out.append("MOTIFS")
    for m in big.motifs:
        parts = [m.key, str(big.motifs.y(m.key))]
        if m.members is not None:
            parts.extend(sorted(m.members))
        out.append(" ".join(parts))
    out.append("EDGES")
    for u, key in big.edges():
        out.append(f"{u} {key}")
    return "\n".join(out) + "\n"


def load_big(source) -> Big:
    """Parse a BIG file (FRAME, MOTIFS, EDGES sections, in that order).

    Motif rows are 'key y-value [member ...]'; y-values accept integers,
    fractions like 3/7, and decimals. A motif with no incident edges is
    refused: it could never be observed.
    """
    section = None
    frame: list[str] = []
    motif_rows: list[tuple[str, Fraction, frozenset[str] | None]] = []
    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()
    order = {"FRAME": 0, "MOTIFS": 1, "EDGES": 2}
    for lineno, parts in records(source):
        if len(parts) == 1 and (upper := parts[0].upper()) in order:
            if section is not None and order[upper] <= order[section]:
                raise ParseError(f"section {upper} out of order", line=lineno)
            section = upper
        elif section == "FRAME":
            frame.extend(parts)
        elif section == "MOTIFS":
            if len(parts) < 2:
                raise ParseError("motif row needs 'key y-value [members...]'", line=lineno)
            members = frozenset(parts[2:]) if len(parts) > 2 else None
            motif_rows.append((parts[0], exact(parts[1], "y-value", lineno), members))
        elif section == "EDGES":
            if len(parts) != 2:
                raise ParseError("edge row needs 'unit motif'", line=lineno)
            pair = (parts[0], parts[1])
            if pair in seen_edges:
                raise ParseError(f"duplicate edge {parts[0]!r} {parts[1]!r}", line=lineno)
            seen_edges.add(pair)
            edges.append(pair)
        else:
            raise ParseError("content before FRAME section", line=lineno)
    if len(set(frame)) != len(frame):
        raise ParseError("duplicate frame units")
    keys = [key for key, _, _ in motif_rows]
    if len(set(keys)) != len(keys):
        raise ParseError("duplicate motif keys")
    frame_set = set(frame)
    key_set = set(keys)
    beta: dict[str, set[str]] = {key: set() for key in keys}
    for u, key in edges:
        if u not in frame_set:
            raise ParseError(f"edge references unknown unit {u!r}")
        if key not in key_set:
            raise ParseError(f"edge references unknown motif {key!r}")
        beta[key].add(u)
    for key, _, members in motif_rows:
        if members is not None and not members <= frame_set:
            raise ParseError(f"motif {key!r} has members outside the frame")
    motifs = MotifSet([Motif(key, members) for key, _, members in motif_rows],
                      {key: yval for key, yval, _ in motif_rows})
    return Big(frame, motifs, beta, AncestorRule.full(), stages_required=None)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the feasibility checks for a Big under a design."""

    violations: tuple[str, ...]
    checks: int

    @property
    def feasible(self) -> bool:
        return not self.violations


def check_feasibility(big: Big, design=None, graph: Graph | None = None,
                      stages: int | None = None) -> FeasibilityReport:
    """Verify the conditions that make a Big usable for estimation.

    Structural check: every motif has an ancestor. ``Big`` guarantees it
    by refusing an empty ancestor set, so it only counts one check per
    motif. Design check: every frame unit belongs to the design's frame,
    where ``Design`` already gives each unit positive selection
    probability. Empirical check (when
    the population graph is supplied): simulating the paired observation
    procedure from each single ancestor must observe the motif and all of
    its fellow ancestors. ``stages`` overrides the Big's own stage horizon
    for the snowball simulation, which a Big loaded from file lacks.
    """
    violations: list[str] = []
    checks = len(big.motifs)
    if design is not None:
        covered = frozenset(design.frame)
        for u in big.frame:
            checks += 1
            if u not in covered:
                violations.append(f"unit {u!r} missing from the design frame")
    if graph is not None:
        if big.rule.kind in _ACS_KINDS:
            if big.acs is None:
                violations.append("adaptive-cluster Big lacks its grid context")
            else:
                # One expansion per unit serves all of its motifs.
                values = _acs_values(graph, {key: big.motifs.y(key) for key in big.motifs.keys()})
                for i in big.frame:
                    obs = _acs_expand(graph, values, big.acs.threshold,
                                      _check_seeds(graph, [i]))
                    for k in sorted(big.successors(i)):
                        checks += 1
                        if k not in obs.observed:
                            violations.append(
                                f"selecting {i!r} does not observe motif {k!r}")
                        missing = big.ancestors(k) - obs.observed
                        if missing:
                            violations.append(
                                f"selecting {i!r} observes motif {k!r} but not "
                                f"its ancestors {sorted(missing)}")
        else:
            horizon = stages if stages is not None else big.stages_required
            if horizon is None:
                raise ValueError(
                    "empirical check needs a stage horizon: this Big does not "
                    "carry one, so pass the number of snowball stages")
            # Ancestors beyond the members are only required to fall inside
            # the realized sample when the rule claims they are discovered
            # by the observation procedure itself. The full rule instead
            # assumes the analyst knows the observation distances, so only
            # the observation guarantee is verified for it.
            verify_reach = big.rule.kind in (MOTIF_ONLY, MOTIF_PLUS)
            labels = graph.labels
            for i in big.frame:
                # A single seed resolves the ball of radius horizon-1 and
                # observes the ball of radius horizon.
                seeds, ball = _reach(graph, [i], horizon)
                nodes = {labels[u] for u in ball}
                resolved = {labels[u] for u, wave in ball.items() if wave < horizon}
                for k in sorted(big.successors(i)):
                    checks += 1
                    m = big.motifs.get(k)
                    if not m.members:
                        violations.append(f"motif {k!r} has no member set to check")
                        continue
                    if not _observes(m.members, seeds, resolved):
                        violations.append(
                            f"selecting {i!r} does not observe motif {k!r} "
                            f"within {horizon} stages")
                    if verify_reach:
                        missing = big.ancestors(k) - nodes
                        if missing:
                            violations.append(
                                f"selecting {i!r} observes motif {k!r} but not "
                                f"its ancestors {sorted(missing)}")
    return FeasibilityReport(tuple(violations), checks)
