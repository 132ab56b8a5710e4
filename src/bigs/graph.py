"""Population graphs: labelled simple graphs with geodesic and component queries.

Graphs are immutable once constructed. Node identifiers are arbitrary
non-whitespace strings; internally they are mapped to dense integer indices
in first-appearance order, which fixes every iteration order in the package.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import ParseError, records

# Distinguished unreachable sentinel. Comparisons against finite stage
# counts work directly, never encode infinity as a large integer.
INFINITE = float("inf")


class Graph:
    """A simple graph with string node labels.

    Undirected by default. A directed graph stores each arc once;
    ``neighbors`` follows out-edges and ``incident`` ignores direction.
    Self-loops and duplicate edges are rejected. ``_adj`` holds the
    neighbours that ignore direction: ``_out`` itself when undirected.
    """

    __slots__ = ("labels", "directed", "_index", "_out", "_adj")

    def __init__(self, nodes: Iterable[str] = (), edges: Iterable[tuple[str, str]] = (),
                 directed: bool = False):
        order: list[str] = []
        index: dict[str, int] = {}

        def intern(label: str) -> int:
            got = index.get(label)
            if got is None:
                got = len(order)
                index[label] = got
                order.append(label)
            return got

        for label in nodes:
            intern(str(label))
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            iu, iv = intern(str(u)), intern(str(v))
            if iu == iv:
                raise ValueError(f"self-loop on node {u!r}")
            pairs.append((iu, iv))

        n = len(order)
        out: list[set[int]] = [set() for _ in range(n)]
        # An undirected edge is an arc each way, so its reverse goes to ``out``.
        back = [set() for _ in range(n)] if directed else out
        seen: set[tuple[int, int]] = set()
        for iu, iv in pairs:
            key = (iu, iv) if directed else (min(iu, iv), max(iu, iv))
            if key in seen:
                raise ValueError(f"duplicate edge {order[iu]!r} {order[iv]!r}")
            seen.add(key)
            out[iu].add(iv)
            back[iv].add(iu)

        self.labels: tuple[str, ...] = tuple(order)
        self.directed = directed
        self._index = index
        self._out = tuple(map(frozenset, out))
        self._adj = tuple(map(frozenset, map(set.union, out, back))) if directed else self._out

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        total = sum(len(s) for s in self._out)
        return total if self.directed else total // 2

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node {label!r}") from None

    def neighbors(self, label: str) -> frozenset[str]:
        """Out-neighbors for directed graphs, neighbors otherwise."""
        return frozenset(self.labels[j] for j in self._out[self.index_of(label)])

    def incident(self, label: str) -> frozenset[str]:
        """Neighbors ignoring edge direction."""
        i = self.index_of(label)
        return frozenset(self.labels[j] for j in self._adj[i])

    def has_edge(self, u: str, v: str) -> bool:
        return self.index_of(v) in self._out[self.index_of(u)]

    def edges(self):
        """Deterministic edge iterator; undirected edges appear once."""
        for i, nbrs in enumerate(self._out):
            for j in sorted(nbrs):
                if self.directed or i < j:
                    yield (self.labels[i], self.labels[j])

    def _ball(self, sources: Iterable[int], depth: int | None = None,
              targets: Iterable[int] | None = None) -> dict[int, int]:
        """Breadth-first distances, ignoring direction, from the source indices.

        Keys are node indices in discovery order. The search stops after
        ``depth`` levels, or at the end of the level that reaches the last
        of ``targets``; nodes it did not reach are absent.
        """
        dist = dict.fromkeys(sources, 0)
        pending = None if targets is None else set(targets).difference(dist)
        adj = self._adj
        frontier = list(dist)
        level = 0
        while frontier and (depth is None or level < depth) and (pending is None or pending):
            level += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = level
                        reached.append(v)
            if pending is not None:
                pending.difference_update(reached)
            frontier = reached
        return dist

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<Graph {kind} |U|={self.n_nodes} |A|={self.n_edges}>"


class GeodesicMatrix:
    """All-pairs shortest-path lengths; unreachable pairs are INFINITE."""

    __slots__ = ("labels", "_index", "_rows")

    def __init__(self, labels: tuple[str, ...], rows):
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._rows = rows

    def distance(self, u: str, v: str):
        return self._rows[self._index[u]][self._index[v]]


def geodesics(g: Graph) -> GeodesicMatrix:
    """BFS shortest-path lengths between all node pairs of ``g``.

    Directed graphs give directed distances. This builds the whole N x N
    table, for callers that want every pair; the motif distance helpers
    search bounded balls that ignore direction instead.
    """
    n = g.n_nodes
    adj = g._out
    rows = []
    for src in range(n):
        dist = [INFINITE] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            nxt = dist[cur] + 1
            for j in adj[cur]:
                if nxt < dist[j]:
                    dist[j] = nxt
                    queue.append(j)
        rows.append(dist)
    return GeodesicMatrix(g.labels, rows)


def connected_components(g: Graph) -> tuple[frozenset[str], ...]:
    """Weakly connected components, in first-appearance order."""
    seen: set[int] = set()
    comps = []
    for start in range(g.n_nodes):
        if start not in seen:
            comp = g._ball([start])
            seen.update(comp)
            comps.append(frozenset(g.labels[i] for i in comp))
    return tuple(comps)


def load_edge_list(source, directed: bool = False) -> Graph:
    """Parse an edge-list text into a Graph.

    Each line that ``records`` yields holds one or two node ids; a single
    id declares an isolated node. Self-loops, duplicate edges and lines
    with more than two ids raise ParseError with the line number.
    """
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, parts in records(source):
        if len(parts) == 1:
            nodes.append(parts[0])
        elif len(parts) == 2:
            u, v = parts
            if u == v:
                raise ParseError(f"self-loop on node {u!r}", line=lineno)
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"duplicate edge {u!r} {v!r}", line=lineno)
            seen.add(key)
            edges.append((u, v))
        else:
            raise ParseError("expected one or two node identifiers", line=lineno)
    return Graph(nodes, edges, directed)
