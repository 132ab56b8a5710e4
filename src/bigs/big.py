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

from .errors import InfeasibleError, ParseError, exact, records, to_fraction
from .graph import Graph, INFINITE, connected_components
from .motifs import (Motif, MotifSet, _member_distances, _member_indices,
                     _observation_diameter)
from .sampling import _acs_expand, _acs_values, _check_seeds, _observes

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
    """A bipartite incidence graph over a unit frame and a motif set.

    Each β_k is kept as a sorted tuple of frame positions, in motif order;
    the α_i, as tuples of motif indices, are derived on first use. The
    ``frozenset[str]`` views of ``ancestors`` and ``successors`` are built
    on each call and not kept; the library reads the positions.
    """

    __slots__ = ("frame", "motifs", "rule", "stages_required", "acs",
                 "_pos", "_keys", "_beta", "_alpha")

    def __init__(self, frame: Iterable[str], motifs: MotifSet,
                 ancestors: Mapping[str, Iterable[str]], rule: AncestorRule,
                 stages_required: int | None = None, acs: AcsContext | None = None):
        frame = tuple(str(u) for u in frame)
        pos = {u: p for p, u in enumerate(frame)}
        if len(pos) != len(frame):
            raise ValueError("frame has duplicate units")
        beta: dict[str, tuple[int, ...]] = {}
        for m in motifs:
            anc = {str(u) for u in ancestors.get(m.key, ())}
            if not anc:
                raise _unobservable(m.key)
            outside = sorted(u for u in anc if u not in pos)
            if outside:
                raise ValueError(f"ancestors of {m.key!r} outside frame: {outside}")
            beta[m.key] = tuple(sorted(map(pos.__getitem__, anc)))
        extra = set(ancestors) - set(beta)
        if extra:
            raise ValueError(f"ancestor sets for unknown motifs: {sorted(extra)}")
        self._fill(frame, pos, motifs, beta, rule, stages_required, acs)

    def _fill(self, frame, pos, motifs, beta, rule, stages_required=None, acs=None):
        self.frame = frame
        self.motifs = motifs
        self.rule = rule
        self.stages_required = stages_required
        self.acs = acs
        self._pos = pos
        self._keys = tuple(beta)
        self._beta = beta
        self._alpha = None

    @classmethod
    def _of(cls, frame: tuple[str, ...], pos: Mapping[str, int], motifs: MotifSet,
            beta: dict[str, tuple[int, ...]], rule: AncestorRule,
            stages_required: int | None = None, acs: AcsContext | None = None) -> "Big":
        """A Big from checked parts: ``pos`` maps each frame unit to its
        position and ``beta`` each motif key, in motif order, to the sorted,
        non-empty tuple of its ancestors' positions."""
        big = cls.__new__(cls)
        big._fill(frame, pos, motifs, beta, rule, stages_required, acs)
        return big

    def _position(self, unit: str) -> int:
        try:
            return self._pos[unit]
        except KeyError:
            raise KeyError(f"unknown unit {unit!r}") from None

    def _successor_indices(self) -> tuple[tuple[int, ...], ...]:
        """α by frame position: the indices of the motifs each unit observes."""
        if self._alpha is None:
            alpha: list[list[int]] = [[] for _ in self.frame]
            for j, positions in enumerate(self._beta.values()):
                for p in positions:
                    alpha[p].append(j)
            self._alpha = tuple(map(tuple, alpha))
        return self._alpha

    def _ancestry(self, key: str) -> tuple[int, ...]:
        """β_k as the sorted tuple of its units' frame positions."""
        try:
            return self._beta[key]
        except KeyError:
            raise KeyError(f"unknown motif {key!r}") from None

    def ancestors(self, key: str) -> frozenset[str]:
        return frozenset(map(self.frame.__getitem__, self._ancestry(key)))

    def successors(self, unit: str) -> frozenset[str]:
        indices = self._successor_indices()[self._position(unit)]
        return frozenset(map(self._keys.__getitem__, indices))

    def edges(self):
        """Deterministic (unit, motif) incidence pairs."""
        frame = self.frame
        for key, positions in self._beta.items():
            for p in positions:
                yield (frame[p], key)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._beta.values()))

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


def _unobservable(key: str) -> InfeasibleError:
    return InfeasibleError(f"motif {key!r} has no ancestors: no initial selection can observe it")


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
        # full:T reads no distance, and members in one ball have none to refuse.
        if rule.kind == FULL and all(map(memo[members[0]].__contains__, members)):
            checked.append((m, members, None))
            continue
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

    # The frame is the graph's labels, so a node index is a frame position.
    beta: dict[str, tuple[int, ...]] = {}
    if rule.kind == MOTIF_ONLY:
        stages = 0
        for m, members, diameter in checked:
            beta[m.key] = tuple(sorted(members))
            stages = max(stages, diameter)
    elif rule.kind == MOTIF_PLUS:
        stages = 0
        for m, members, spread in checked:
            if spread == INFINITE:
                raise InfeasibleError(
                    f"motif {m.key!r} has member nodes in different components; "
                    f"{rule.label} needs a finite motif diameter")
            beta[m.key] = tuple(sorted(set(chain.from_iterable(map(near.__getitem__, members)))))
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
                anc = members if len(members) == 1 else ()
            elif len(members) <= 2:
                anc = set(reached)
            else:
                need = len(members) - 1
                anc = [u for u, n in Counter(reached).items() if n >= need]
            if not anc:
                raise InfeasibleError(
                    f"no unit observes motif {m.key!r} within {stages} stages")
            beta[m.key] = tuple(sorted(anc))
    return Big._of(g.labels, g._index, motifs, beta, rule, stages_required=int(stages))


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

    pos = grid._index
    nets = [tuple(sorted(map(pos.__getitem__, comp))) for comp in networks]
    beta: dict[str, tuple[int, ...]] = {}
    edge_grids = set()
    for p, u in enumerate(grid.labels):
        if u in assigned:
            beta[u] = nets[assigned[u]]
            continue
        adjacent = sorted({assigned[v] for v in grid.incident(u) if v in assigned})
        if not adjacent:
            beta[u] = (p,)
            continue
        edge_grids.add(u)
        if rule.kind == ACS_B_STAR:
            beta[u] = (p,)
        elif rule.kind == ACS_B:
            beta[u] = tuple(sorted({p}.union(*(nets[idx] for idx in adjacent))))
        else:
            if len(adjacent) >= 2:
                raise InfeasibleError(
                    f"edge grid {u!r} is contiguous to {len(adjacent)} networks; "
                    "no single network selection can guarantee its ancestors are observed")
            beta[u] = nets[adjacent[0]]

    motifs = MotifSet([Motif(u, frozenset([u])) for u in grid.labels], values)
    context = AcsContext(grid, thr, networks, frozenset(edge_grids))
    return Big._of(grid.labels, pos, motifs, beta, rule, acs=context)


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
    frame = big.frame
    for key, positions in big._beta.items():
        tail = " " + key
        out.extend([frame[p] + tail for p in positions])
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
    order = {"FRAME": 0, "MOTIFS": 1, "EDGES": 2}
    rows = records(source)
    for lineno, parts in rows:
        if len(parts) == 1 and (upper := parts[0].upper()) in order:
            if section is not None and order[upper] <= order[section]:
                raise ParseError(f"section {upper} out of order", line=lineno)
            section = upper
            if section == "EDGES":
                break
        elif section == "FRAME":
            frame.extend(parts)
        elif section == "MOTIFS":
            if len(parts) < 2:
                raise ParseError("motif row needs 'key y-value [members...]'", line=lineno)
            members = frozenset(parts[2:]) if len(parts) > 2 else None
            motif_rows.append((parts[0], exact(parts[1], "y-value", lineno), members))
        else:
            raise ParseError("content before FRAME section", line=lineno)
    # The EDGES rows, if any: each edge is kept as its motif's index and its
    # unit's frame position, and one with an unknown end as its labels.
    pos = {u: p for p, u in enumerate(frame)}
    index = {key: j for j, (key, _, _) in enumerate(motif_rows)}
    beta: list[list[int]] = [[] for _ in motif_rows]
    width = len(frame)
    seen: set = set()
    unknown = None
    for lineno, parts in rows:
        if len(parts) != 2:
            if len(parts) == 1 and parts[0].upper() in order:
                raise ParseError(f"section {parts[0].upper()} out of order", line=lineno)
            raise ParseError("edge row needs 'unit motif'", line=lineno)
        u, key = parts
        p = pos.get(u)
        j = index.get(key)
        if p is not None and j is not None:
            edge = j * width + p
            beta[j].append(p)
        else:
            edge = (u, key)
            unknown = unknown or edge
        if edge in seen:
            raise ParseError(f"duplicate edge {u!r} {key!r}", line=lineno)
        seen.add(edge)
    if len(pos) != len(frame):
        raise ParseError("duplicate frame units")
    if len(index) != len(motif_rows):
        raise ParseError("duplicate motif keys")
    if unknown is not None:
        u, key = unknown
        if u not in pos:
            raise ParseError(f"edge references unknown unit {u!r}")
        raise ParseError(f"edge references unknown motif {key!r}")
    for key, _, members in motif_rows:
        if members is not None and not pos.keys() >= members:
            raise ParseError(f"motif {key!r} has members outside the frame")
    motifs = MotifSet([Motif(key, members) for key, _, members in motif_rows],
                      {key: yval for key, yval, _ in motif_rows})
    ancestors: dict[str, tuple[int, ...]] = {}
    for (key, _, _), positions in zip(motif_rows, beta):
        if not positions:
            raise _unobservable(key)
        ancestors[key] = tuple(sorted(positions))
    return Big._of(tuple(frame), pos, motifs, ancestors, AncestorRule.full())


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
        covered = design._frame_set
        for u in big.frame:
            checks += 1
            if u not in covered:
                violations.append(f"unit {u!r} missing from the design frame")
    if graph is not None:
        frame, keys, betas = big.frame, big._keys, tuple(big._beta.values())
        alpha = big._successor_indices()
        if big.rule.kind in _ACS_KINDS:
            if big.acs is None:
                violations.append("adaptive-cluster Big lacks its grid context")
            else:
                grids = [frozenset(map(frame.__getitem__, beta)) for beta in betas]
                # One expansion per unit serves all of its motifs.
                values = _acs_values(graph, {key: big.motifs.y(key) for key in keys})
                for i, found in zip(frame, alpha):
                    observed = _acs_expand(graph, values, big.acs.threshold,
                                           _check_seeds(graph, [i])).observed
                    checks += len(found)
                    for j in sorted(found, key=keys.__getitem__):
                        k = keys[j]
                        if k not in observed:
                            violations.append(
                                f"selecting {i!r} does not observe motif {k!r}")
                        if not observed.issuperset(grids[j]):
                            violations.append(
                                f"selecting {i!r} observes motif {k!r} but not "
                                f"its ancestors {sorted(grids[j] - observed)}")
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
            # Frame units and ancestors as graph node indices, which are their
            # frame positions when the frame is the graph's labels; the
            # refusals are those of ``snowball_sample`` from each unit.
            labels = graph.labels
            if frame and horizon < 0:
                raise ValueError("stages must be >= 0")
            if frame == labels:
                nodes, reach = range(len(frame)), betas
            else:
                nodes = list(map(graph._index.get, frame))
                if None in nodes:
                    raise ValueError(
                        f"seed {frame[nodes.index(None)]!r} is not a node of the graph")
                reach = [tuple(map(nodes.__getitem__, beta)) for beta in betas if verify_reach]
            members = [m.members for m in big.motifs]
            complete = all(members)
            for i, node, found in zip(frame, nodes, alpha):
                # A unit without successors checks nothing. One seed resolves
                # the ball of radius horizon-1 and observes that of radius
                # horizon; the ball lists its nodes level by level.
                if not found:
                    continue
                ball = graph._ball([node], horizon)
                cut = bisect_right(list(ball.values()), horizon - 1)
                resolved = set(map(labels.__getitem__, islice(ball, cut)))
                checks += len(found)
                # A unit that resolves every member of its motifs, and whose
                # ball holds their ancestors, passes every check at once.
                seen = complete and resolved.issuperset(
                    chain.from_iterable(map(members.__getitem__, found)))
                if seen and (not verify_reach
                             or ball.keys() >= set().union(*map(reach.__getitem__, found))):
                    continue
                for j in sorted(found, key=keys.__getitem__):
                    if not members[j]:
                        violations.append(f"motif {keys[j]!r} has no member set to check")
                        continue
                    if not _observes(members[j], (i,), resolved):
                        violations.append(
                            f"selecting {i!r} does not observe motif {keys[j]!r} "
                            f"within {horizon} stages")
                    if verify_reach and not all(map(ball.__contains__, reach[j])):
                        missing = [frame[q] for q, a in zip(betas[j], reach[j]) if a not in ball]
                        violations.append(
                            f"selecting {i!r} observes motif {keys[j]!r} but not "
                            f"its ancestors {sorted(missing)}")
    return FeasibilityReport(tuple(violations), checks)
