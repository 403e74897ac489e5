"""Tests for the all-subsets spindle template and the generic templates."""

import gc
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from spgraphs import (
    FacetSet,
    InvalidSpgError,
    SymbolTable,
    TransformConfig,
    build_exponential_spindle,
    build_path_template,
    build_spindle_template,
    build_star_template,
    check_adjacency,
    check_endpoint_count,
    check_singleton,
    check_strong_adjacency,
    graph_distance,
    lift_facet,
    max_degree,
    validate,
)


def fs(*elements):
    return FacetSet(elements)


class TestSpindleTemplate:
    @pytest.mark.parametrize("d,length", [(1, 1), (2, 5), (3, 19), (4, 69)])
    def test_lengths(self, d, length):
        template = build_spindle_template(d)
        assert template.length == length
        assert template.length == comb(2 * d, d) - 1
        assert template.spindle.length() == length

    def test_enumerates_every_subset_once(self):
        template = build_spindle_template(3)
        assert set(template.order) == {
            FacetSet(c) for c in combinations(range(6), 3)}
        assert len(template.order) == comb(6, 3)

    def test_apices(self):
        template = build_spindle_template(2)
        spindle = template.spindle
        assert spindle.apex1 == fs(0, 1)
        assert spindle.apex2 == fs(2, 3)
        assert spindle.apex1.intersection_size(spindle.apex2) == 0
        assert spindle.apex1.mask | spindle.apex2.mask == (1 << 4) - 1
        assert template.order[0] == spindle.apex1
        assert template.order[-1] == spindle.apex2
        assert spindle.spg.symbols.labels == ("1.1", "2.1", "1.2", "2.2")

    def test_template_is_valid_singleton(self):
        spg = build_spindle_template(3).spindle.spg
        assert validate(spg).holds
        assert check_singleton(spg).holds
        assert max_degree(spg) == 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_template_violates_endpoint_count(self, d):
        # each symbol lies in C(2d-1, d-1) >= 3 sets, so the transform has
        # real work to do
        spg = build_spindle_template(d).spindle.spg
        report = check_endpoint_count(spg)
        assert not report.holds
        assert comb(2 * d - 1, d - 1) >= 3

    def test_d1_template_satisfies_endpoint_count(self):
        assert check_endpoint_count(build_spindle_template(1).spindle.spg).holds

    def test_exponential_growth(self):
        lengths = [build_spindle_template(d).length for d in range(1, 7)]
        ratios = [b / a for a, b in zip(lengths, lengths[1:])]
        assert all(r >= 2 for r in ratios)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            build_spindle_template(0)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match=r"^d=9 exceeds the enumeration "
                                             r"cap 8 \(C\(18,9\) = 48620 "
                                             r"vertices\)$"):
            build_spindle_template(9)


class TestExponentialSpindle:
    def test_single_edge_case(self):
        # d = 1: template is one edge, no bad events possible
        result = build_exponential_spindle(
            1, TransformConfig(r=4, seed=5, max_rounds=2))
        assert result.rounds_used == 0
        assert result.resample_log == ()
        assert result.spg.dimension == 4
        assert result.spg.symbols.n == 8
        apex1, apex2 = result.apices
        assert apex1 == lift_facet(fs(0), 4)
        assert apex2 == lift_facet(fs(1), 4)
        locate = {v[0]: i for i, v in enumerate(result.spg.vertices)}
        assert graph_distance(result.spg, locate[apex1], locate[apex2]) == 4

    def test_d2_small_r(self):
        result = build_exponential_spindle(
            2, TransformConfig(r=8, seed=42))
        assert result.spg.dimension == 16
        assert result.spg.symbols.n == 32
        locate = {v[0]: i for i, v in enumerate(result.spg.vertices)}
        length = graph_distance(
            result.spg, locate[result.apices[0]], locate[result.apices[1]])
        assert length >= 8 * 5
        assert check_strong_adjacency(result.spg).holds
        assert check_endpoint_count(result.spg).holds
        assert check_adjacency(result.spg).holds

    def test_built_spindle_retains_one_mask_per_set(self):
        # A bound on memory, not on time.  When each set also kept its
        # sorted tuple of rd = 174 ints, this result retained 1.59 MB by
        # this measure; as one mask per set it retains about 0.16 MB.
        config = TransformConfig(r=87, seed=1)
        build_exponential_spindle(1, config)  # lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            result = build_exponential_spindle(2, config)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.spg.dimension == 2 * 87
        assert retained < 0.5e6


class TestGenericTemplates:
    def test_path_template(self):
        table = SymbolTable.alphabetic(4)
        spg = build_path_template(table, [fs(0, 1), fs(1, 2), fs(2, 3)])
        assert len(spg.vertices) == 3
        assert spg.edges == ((0, 1), (1, 2))
        assert check_singleton(spg).holds

    def test_single_set_path(self):
        spg = build_path_template(SymbolTable.alphabetic(2), [fs(0, 1)])
        assert len(spg.vertices) == 1
        assert spg.edges == ()

    # the builders refuse what validate flags, naming its witness

    def test_duplicate_sets_rejected(self):
        with pytest.raises(InvalidSpgError,
                           match=r"first: duplicate-set: \{0,1\} 0 1\)$"):
            build_path_template(
                SymbolTable.alphabetic(2), [fs(0, 1), fs(0, 1)])

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidSpgError,
                           match=r"first: wrong-size-set: \{2\} 1\)$"):
            build_path_template(
                SymbolTable.alphabetic(3), [fs(0, 1), fs(2,)])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError,
                           match="^at least one facet set is required$"):
            build_path_template(SymbolTable.alphabetic(2), [])

    def test_star_template(self):
        table = SymbolTable.alphabetic(6)
        spg = build_star_template(table, fs(0, 1), [fs(2, 3), fs(4, 5)])
        assert max_degree(spg) == 2
        assert spg.edges == ((0, 1), (0, 2))

    def test_single_leaf_star_is_edge(self):
        spg = build_star_template(
            SymbolTable.alphabetic(4), fs(0, 1), [fs(2, 3)])
        assert len(spg.edges) == 1

    def test_center_duplicated_as_leaf_rejected(self):
        with pytest.raises(InvalidSpgError,
                           match=r"first: duplicate-set: \{0,1\} 0 2\)$"):
            build_star_template(
                SymbolTable.alphabetic(4), fs(0, 1), [fs(2, 3), fs(0, 1)])

    def test_star_leaves_duplicated_or_of_another_size_rejected(self):
        table = SymbolTable.alphabetic(6)
        with pytest.raises(InvalidSpgError,
                           match=r"first: duplicate-set: \{2,3\} 1 2\)$"):
            build_star_template(table, fs(0, 1), [fs(2, 3), fs(2, 3)])
        with pytest.raises(InvalidSpgError,
                           match=r"first: wrong-size-set: \{2,3,4\} 2\)$"):
            build_star_template(table, fs(0, 1), [fs(2, 3), fs(2, 3, 4)])
