"""The BFS core behind the components, distance and diameter queries,
against the dict-based oracle in conftest."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_components, brute_force_distances
from spgraphs import (
    FacetSet,
    Spg,
    SymbolTable,
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
    expected = max(max(brute_force_distances(spg, v).values())
                   for v in range(len(spg.vertices)))
    assert diameter(spg) == expected


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
