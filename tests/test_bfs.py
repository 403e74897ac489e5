"""The BFS core behind the components, distance and diameter queries,
against the dict-based oracle in conftest."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spgraphs.core
from conftest import (
    brute_force_components,
    brute_force_diameter,
    brute_force_distances,
)
from spgraphs import (
    FacetSet,
    Spg,
    SymbolTable,
    TransformConfig,
    build_exponential_spindle,
    check_connectivity,
    diameter,
    graph_distance,
    validate,
)


@st.composite
def graphs(draw):
    """Random graphs on one-symbol singleton vertices: self-loops,
    parallel edges and several components included."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return Spg.build(SymbolTable.alphabetic(n), 1,
                     [[FacetSet([i])] for i in range(n)], edges)


def disconnected_witnesses(spg):
    comps = brute_force_components(spg)
    if len(comps) == 1:
        return []
    return [("disconnected", len(comps), tuple(sorted(min(c) for c in comps)))]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_diameter_matches_oracle(spg):
    if len(brute_force_components(spg)) > 1:
        with pytest.raises(ValueError, match="disconnected"):
            diameter(spg)
        return
    assert diameter(spg) == brute_force_diameter(spg)


def on_vertices(n, edges):
    return Spg.build(SymbolTable.alphabetic(n), 1,
                     [[FacetSet([i])] for i in range(n)], edges)


@st.composite
def shaped_edges(draw, n):
    """Edges of a connected graph on vertices 0..n-1: a path, a cycle, a
    random tree, a tree with a few chords, a complete graph or a grid."""
    shape = draw(st.sampled_from(
        ["path", "cycle", "tree", "chorded-tree", "complete", "grid"]))
    if shape == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else \
            [(i, i + 1) for i in range(n - 1)]
    if shape == "complete":
        return [(u, w) for u in range(n) for w in range(u + 1, n)]
    if shape == "grid":
        cols = draw(st.integers(1, n))
        return [(v, v + 1) for v in range(n - 1) if (v + 1) % cols] + \
            [(v, v + cols) for v in range(n - cols)]
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if shape == "chorded-tree":
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=8))
    return edges


@st.composite
def shaped_graphs(draw, max_vertices=80):
    """One or two shaped components on up to ``max_vertices`` vertices,
    with the vertex labels shuffled so no sweep starts at a known end."""
    sizes = draw(st.lists(st.integers(1, max_vertices), min_size=1, max_size=2)
                 .filter(lambda s: sum(s) <= max_vertices))
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    edges, offset = [], 0
    for size in sizes:
        edges += [(label[offset + u], label[offset + w])
                  for u, w in draw(shaped_edges(size))]
        offset += size
    return on_vertices(n, edges)


@given(shaped_graphs())
@settings(max_examples=400, deadline=None)
def test_diameter_matches_oracle_on_shaped_graphs(spg):
    try:
        expected = brute_force_diameter(spg)
    except ValueError:
        with pytest.raises(ValueError, match="disconnected"):
            diameter(spg)
        return
    assert diameter(spg) == expected


def test_diameter_matches_oracle_on_seeded_sparse_graphs():
    # Random trees plus up to n chords: the kind of graph on which the
    # sweeps' bound falls short and the fringe walk has to finish the job.
    rng = random.Random(2013)
    for _ in range(1500):
        n = rng.randint(2, 30)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(1, n))]
        label = rng.sample(range(n), n)
        spg = on_vertices(n, [(label[u], label[w]) for u, w in edges])
        assert diameter(spg) == brute_force_diameter(spg), spg.edges


@pytest.mark.parametrize("n, edges, expected", [
    (0, [], 0),
    (1, [], 0),
    (1, [(0, 0)], 0),
    (2, [(0, 1)], 1),
    (7, [(i, (i + 1) % 7) for i in range(7)], 3),
    # Graphs whose sweeps find less than the diameter.
    (6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (3, 4)], 3),
    (7, [(0, 1), (0, 2), (0, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 5),
         (4, 5), (4, 6)], 3),
    (8, [(0, 1), (0, 6), (1, 2), (1, 4), (2, 3), (2, 7), (4, 6), (4, 7),
         (5, 6), (5, 7)], 4),
    (10, [(0, 5), (1, 6), (2, 6), (2, 9), (3, 7), (4, 7), (5, 6), (5, 7),
          (7, 8), (7, 9)], 4),
])
def test_diameter_small_cases(n, edges, expected):
    assert diameter(on_vertices(n, edges)) == expected


def test_diameter_of_a_long_path_runs_few_searches(monkeypatch):
    spg = build_exponential_spindle(2, TransformConfig(r=87, seed=7)).spg
    calls = []
    real_bfs = spgraphs.core._bfs

    def counting_bfs(adj, source, dist):
        calls.append(source)
        return real_bfs(adj, source, dist)

    monkeypatch.setattr(spgraphs.core, "_bfs", counting_bfs)
    assert diameter(spg) == len(spg.vertices) - 1
    assert len(calls) <= 6


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_distance_matches_oracle(spg, data):
    v1 = data.draw(st.integers(0, len(spg.vertices) - 1))
    v2 = data.draw(st.integers(0, len(spg.vertices) - 1))
    dist = brute_force_distances(spg, v1)
    if v2 not in dist:
        with pytest.raises(ValueError, match="unreachable"):
            graph_distance(spg, v1, v2)
    else:
        assert graph_distance(spg, v1, v2) == dist[v2]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_disconnected_witness_matches_oracle(spg):
    got = [w for w in validate(spg).witnesses if w[0] == "disconnected"]
    assert got == disconnected_witnesses(spg)
    assert list(check_connectivity(spg).witnesses) == disconnected_witnesses(spg)
    restriction = replace(spg, is_restriction=True)
    assert list(check_connectivity(restriction).witnesses) == \
        disconnected_witnesses(spg)
