"""Connected-subgraph motif enumeration against the brute-force oracle,
and the enumeration size guard."""

import pytest
from hypothesis import example, given, settings, strategies as st

from bigs import EnumerationCapError, Graph, MotifClass, enumerate_motifs
from bigs.cli import main

from oracles import PATTERNS, oracle_pattern_motifs


@st.composite
def graphs(draw):
    """Up to 10 shuffled labels in one to three blocks, with edges inside the
    blocks only; which pairs become edges, and which way round, are the
    bits of two drawn integers. Labels left without an edge survive only if
    listed as nodes; directed graphs may hold both arcs of a pair."""
    n = draw(st.integers(1, 10))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True))) if n > 1 else []
    blocks = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    pairs = [(u, v) for block in blocks for i, u in enumerate(block) for v in block[i + 1:]]
    keep, flip = (draw(st.integers(0, 2 ** len(pairs) - 1)) for _ in range(2))
    edges = [(v, u) if flip >> i & 1 else (u, v)
             for i, (u, v) in enumerate(pairs) if keep >> i & 1]
    directed = draw(st.booleans())
    if directed and edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), unique=True))]
    edges = draw(st.permutations(edges))
    nodes = draw(st.lists(st.sampled_from(labels), unique=True))
    return nodes, edges, directed


# Pinned inputs: every order above N; and a directed graph with an isolated
# node, labels out of sorted order, reciprocal arcs and two components that
# hold every pattern class between them.
_TWO_NODES = (["b", "a"], [("b", "a")], False)
_TWO_COMPONENTS = (
    ["z", "iso", "m"],
    [("z", "m"), ("m", "z"), ("m", "c"), ("c", "z"), ("c", "d"),
     ("p", "q"), ("p", "r"), ("p", "s"), ("q", "r"), ("s", "q"), ("r", "s"), ("r", "p"),
     ("s", "t"), ("t", "u"), ("u", "w"), ("w", "x"), ("x", "t")],
    True,
)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@example(_TWO_NODES)
@example(_TWO_COMPONENTS)
@given(graphs())
def test_connected_growth_equals_brute_force_in_key_order(graph):
    nodes, edges, directed = graph
    g = Graph(nodes, edges, directed=directed)
    for name in PATTERNS:
        got = enumerate_motifs(g, MotifClass(name))
        want = oracle_pattern_motifs(nodes, edges, name)
        assert [m.members for m in got] == want, (name, nodes, edges)
        assert got.keys() == tuple(f"{name}-{i}" for i in range(len(want)))


def test_size_guard_counts_connected_subsets(monkeypatch):
    k6 = Graph(edges=[(str(a), str(b)) for a in range(6) for b in range(a + 1, 6)])
    # K6 has C(6, 4) = 15 connected four-node subsets, all of them k4.
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 15)
    assert len(enumerate_motifs(k6, MotifClass("k4"))) == 15
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 14)
    with pytest.raises(EnumerationCapError, match="grew 15 connected subsets of 4 nodes, "
                                                  "above the cap of 14"):
        enumerate_motifs(k6, MotifClass("c4"))
    # The component class is linear and not guarded.
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 1)
    assert len(enumerate_motifs(k6, MotifClass("component", 6))) == 1


def test_motifs_command_exits_two_past_the_default_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "dense.txt"
    path.write_text("".join(f"{a} {b}\n" for a in range(8) for b in range(a + 1, 8)))
    assert main(["motifs", str(path), "--motif", "k3"]) == 0
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 20)
    capsys.readouterr()
    assert main(["motifs", str(path), "--motif", "k3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "above the cap of 20" in err
