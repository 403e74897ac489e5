"""The near-pair join and the verifiers built on it, against the
brute-force oracles in conftest."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_adjacency,
    brute_force_endpoint_count,
    brute_force_localization,
    brute_force_near_pairs,
    brute_force_strong_adjacency,
    random_singleton_spg,
    spg_instances,
    wide_spg_instances,
)
from spgraphs import (
    FacetSet,
    InvalidSpgError,
    PermutationAssignment,
    Spg,
    SymbolTable,
    build_spindle_template,
    build_subdivision,
    check_adjacency,
    check_endpoint_count,
    check_localization,
    check_singleton,
    check_strong_adjacency,
    near_pairs,
    restrict,
    validate,
    verify_all,
)


@st.composite
def subdivisions(draw, min_r=2, max_r=5):
    """Small lifted constructions: a random singleton template, a row
    multiplier and one random row permutation per edge (bad events and
    all, so the results need not satisfy any property)."""
    seed = draw(st.integers(0, 2**32 - 1))
    template = random_singleton_spg(random.Random(seed), max_vertices=5)
    r = draw(st.integers(min_r, max_r))
    perms = PermutationAssignment.draw(
        np.random.default_rng(seed), len(template.edges), r)
    return template, build_subdivision(template, r, perms)


@st.composite
def restrictions(draw):
    """Restrictions of random graphs by a face of one member, down to the
    full member (dimension 0)."""
    spg = draw(spg_instances(max_dim=3))
    member = draw(st.sampled_from(spg.family()))
    k = draw(st.integers(0, len(member)))
    face = FacetSet(draw(st.permutations(member.elements))[:k])
    return restrict(spg, face)


# The checks kept on a graph from one near-pair join, with their oracles.
PAIR_CHECKS = {
    check_adjacency: brute_force_adjacency,
    check_strong_adjacency: brute_force_strong_adjacency,
    check_endpoint_count: brute_force_endpoint_count,
}


def individual_checks(spg):
    return (validate(spg), check_singleton(spg), check_adjacency(spg),
            check_strong_adjacency(spg), check_endpoint_count(spg))


def assert_matches_oracles(spg, order=tuple(PAIR_CHECKS)):
    """Runs the pair checks in ``order`` first, so the first of them
    computes the reports kept on the graph."""
    for check in order:
        assert check(spg) == PAIR_CHECKS[check](spg)
    assert near_pairs(spg) == brute_force_near_pairs(spg)
    assert verify_all(spg) == individual_checks(spg)


@given(spg_instances(max_symbols=8, max_dim=4, max_sets=14),
       st.permutations(list(PAIR_CHECKS)))
@settings(max_examples=150, deadline=None)
def test_general_graphs_match_oracles(spg, order):
    assert_matches_oracles(spg, order)


@given(wide_spg_instances(), st.permutations(list(PAIR_CHECKS)))
@settings(max_examples=100, deadline=None)
def test_word_boundary_and_wide_graphs_match_oracles(spg, order):
    assert_matches_oracles(spg, order)


@given(subdivisions())
@settings(max_examples=40, deadline=None)
def test_lifted_constructions_match_oracles(case):
    _, result = case
    if validate(result.spg).holds:
        assert_matches_oracles(result.spg)
    else:
        # a bad event that repeats a set: every verifier refuses it
        assert near_pairs(result.spg) == brute_force_near_pairs(result.spg)
        with pytest.raises(InvalidSpgError):
            verify_all(result.spg)


@given(subdivisions(min_r=4, max_r=6))
@settings(max_examples=40, deadline=None)
def test_localization_matches_oracle(case):
    template, result = case
    assert (check_localization(result, template)
            == brute_force_localization(result, template))


@given(restrictions())
@settings(max_examples=60, deadline=None)
def test_restrictions_match_oracles(spg):
    if spg is not None:
        assert_matches_oracles(spg)


def test_dimension_one_every_pair_is_near():
    n = 9
    spg = Spg.build(SymbolTable.alphabetic(n), 1,
                    [[FacetSet([i])] for i in range(n)],
                    [(i, i + 1) for i in range(n - 1)])
    assert near_pairs(spg) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert_matches_oracles(spg)


def test_single_set_graph_has_no_near_pairs():
    spg = Spg.build(SymbolTable.alphabetic(5), 3, [[FacetSet([0, 2, 4])]])
    assert near_pairs(spg) == []
    assert_matches_oracles(spg)


def test_dimension_zero_restriction_has_no_near_pairs():
    spg = Spg.build(SymbolTable.alphabetic(3), 2,
                    [[FacetSet([0, 1])], [FacetSet([1, 2])]], [(0, 1)])
    full = restrict(spg, FacetSet([0, 1]))
    assert full.dimension == 0
    assert near_pairs(full) == []
    assert_matches_oracles(full)


def test_pairs_span_more_than_one_band_block():
    # 400 singletons at d = 1: 79,800 near pairs, and in each block's
    # grouping the two thirds of the sets that hold no symbol of the block
    # fall into one group.
    n = 400
    spg = Spg.build(SymbolTable.alphabetic(n), 1,
                    [[FacetSet([i])] for i in range(n)],
                    [(i, i + 1) for i in range(n - 1)])
    pairs = near_pairs(spg)
    assert len(pairs) == n * (n - 1) // 2
    assert pairs == sorted(pairs)


def test_every_block_pair_and_word_boundary_found_once():
    # Sets {30, 31, 95, p}: every two of them share the 3 symbols of the
    # base and differ in bits p and q.  The positions put p and q in every
    # pair of blocks (p mod 3, q mod 3), the same block included, and
    # across the 64-bit word boundaries at 63/64 and 127/128.
    positions = [0, 1, 2, 62, 63, 64, 65, 126, 127, 128, 129, 190]
    assert {(p % 3, q % 3) for p in positions for q in positions
            if p < q} == {(a, b) for a in range(3) for b in range(3)}
    spg = Spg.build(SymbolTable.alphabetic(191), 4,
                    [[FacetSet([30, 31, 95, p])] for p in positions])
    n = len(positions)
    assert near_pairs(spg) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert near_pairs(spg) == brute_force_near_pairs(spg)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_spindle_templates_match_oracle(d):
    # All C(2d, d) d-subsets of 2d symbols: few symbols per block, so the
    # groups are large and the join does most of its confirming here.
    spg = build_spindle_template(d).spindle.spg
    assert near_pairs(spg) == brute_force_near_pairs(spg)


def test_wrong_size_sets_refused():
    spg = Spg.build(SymbolTable.alphabetic(4), 2,
                    [[FacetSet([0, 1])], [FacetSet([1, 2, 3])]], [(0, 1)])
    with pytest.raises(ValueError):
        near_pairs(spg)


def test_verify_all_refuses_invalid_graph():
    broken = Spg.build(SymbolTable.alphabetic(4), 2,
                       [[FacetSet([0, 1])], [FacetSet([2, 3])]])
    with pytest.raises(InvalidSpgError):
        verify_all(broken)
