"""Tests for the lift, subdivision, bad-event machinery, and resampling."""

import json
import math
from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spgraphs.transform as transform
from conftest import (
    alphabet,
    brute_force_localization,
    label_set,
    loop_fisher_yates,
    oracle_lift,
    oracle_path,
    row_structure_violations,
    spg_instances,
    wide_swap_cases,
)
from spgraphs import (
    ConstructionVerificationError,
    FacetSet,
    InvalidSpgError,
    PermutationAssignment,
    ResamplingExhaustedError,
    Spg,
    Strategy,
    SymbolTable,
    TransformConfig,
    TransformResult,
    bad_event_occurs,
    build_spindle_template,
    build_path_template,
    build_star_template,
    build_subdivision,
    check_adjacency,
    check_endpoint_count,
    check_localization,
    check_singleton,
    check_strong_adjacency,
    construct_with_resampling,
    estimate_bad_event_probability,
    find_bad_events,
    lift_facet,
    lll_sufficient,
    min_multiplier,
    restrict,
    sliding_window_path,
    validate,
)
from spgraphs import document


def fs(*elements):
    return FacetSet(elements)


def labels_of(sets, table):
    return [set(fs.render(table)[1:-1].split(",")) for fs in sets]


SINGLE_EDGE = Spg.build(
    SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]], [(0, 1)])

# star whose leaves share a symbol: bad under row-aligned permutations
SHARED_STAR = build_star_template(
    SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(2, 4)])

EXHAUSTING_SEED = 0   # round 0 of SHARED_STAR at r=2 has a bad event
CLEAN_SEED = 1        # round 0 of SHARED_STAR at r=2 is clean


class TestPermutationDraw:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 87, 261])
    def test_matches_loop_draws_and_generator_state(self, r):
        for seed in range(12):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = PermutationAssignment.draw(rng, 3, r).perms
            assert got == tuple(loop_fisher_yates(loop_rng, r) for _ in range(3))
            assert rng.bit_generator.state == loop_rng.bit_generator.state

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_loop_draws_and_generator_state(self, seed, r, count):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = transform._fisher_yates(rng, r, count)
        assert got == [loop_fisher_yates(loop_rng, r) for _ in range(count)]
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @given(st.integers(0, 2**32 - 1), st.integers(2, 130), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_leading_rows_are_those_of_the_drawn_permutations(
            self, seed, r, count):
        rng, perm_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = transform._leading_rows(rng, r, count)
        perms = transform._fisher_yates(perm_rng, r, count)
        assert got.tolist() == [list(perm[:2]) for perm in perms]
        assert rng.integers(2**62) == perm_rng.integers(2**62)


class TestMinMultiplier:
    def test_reference_values(self):
        # frozen from ceil(16 * e * delta)
        assert min_multiplier(1) == 44
        assert min_multiplier(2) == 87
        assert min_multiplier(3) == 131

    def test_degree_zero_sentinel(self):
        assert min_multiplier(0) == 2
        assert lll_sufficient(0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            min_multiplier(-1)

    def test_sufficiency_condition(self):
        assert lll_sufficient(2, 87)
        assert not lll_sufficient(2, 8)
        # 4*delta - 5 is negative for delta = 1: condition trivially true
        assert lll_sufficient(1, 2)
        assert (4 * 2 - 5) * (4 / 87) * math.e < 1.0


def lifts(result):
    """The images of the template's vertices: their lifts."""
    return [result.spg.vertices[v][0] for v in result.vertex_map]


def edge_path(a, a2, r, perm):
    """The sets along the subdivided edge of the two-set path A - A2."""
    result = TransformResult(
        build_path_template(alphabet(a, a2), [a, a2]), r, (perm,))
    return [result.spg.vertices[v][0] for v in result.edge_paths[0]]


class TestLiftProduct:
    def test_figure_example(self):
        result = TransformResult(SINGLE_EDGE, 2, ((1, 2),))
        assert result.spg.dimension == 4
        assert result.spg.symbols.n == 8
        got = labels_of(lifts(result), result.spg.symbols)
        assert got == [{"a@1", "b@1", "a@2", "b@2"}, {"c@1", "d@1", "c@2", "d@2"}]
        # each template edge joins the lifts of its ends
        assert [(path[0], path[-1]) for path in result.edge_paths] == list(
            SINGLE_EDGE.edges)
        assert validate(result.spg).holds

    def test_single_vertex(self):
        spg = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 1)]])
        result = TransformResult(spg, 3, ())
        assert len(result.spg.vertices) == 1
        assert len(result.spg.vertices[0][0]) == 6
        assert result.spg.edges == ()

    @given(spg_instances(singleton=True), st.integers(2, 4))
    @settings(max_examples=30)
    def test_dimension_scales(self, spg, r):
        result = TransformResult(
            spg, r, (tuple(range(1, r + 1)),) * len(spg.edges))
        assert result.spg.dimension == r * spg.dimension
        assert result.spg.symbols.n == r * spg.symbols.n
        assert [label_set(lift, result.spg.symbols) for lift in lifts(result)
                ] == [oracle_lift(spg.symbols.labels, vertex[0], r)
                      for vertex in spg.vertices]

    def test_rejects_non_singleton(self):
        spg = Spg.build(SymbolTable.alphabetic(3), 2, [[fs(0, 1), fs(1, 2)]])
        with pytest.raises(InvalidSpgError):
            TransformResult(spg, 2, ())

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError):
            TransformResult(SINGLE_EDGE, 1, ((1,),))


class TestSubdivisionPath:
    def test_golden_vector(self):
        table = SymbolTable.alphabetic(4).lifted(2)
        path = edge_path(fs(0, 1), fs(2, 3), 2, (1, 2))
        assert labels_of(path, table) == [
            {"a@1", "b@1", "a@2", "b@2"},
            {"c@1", "b@1", "a@2", "b@2"},
            {"c@1", "d@1", "a@2", "b@2"},
            {"c@1", "d@1", "c@2", "b@2"},
            {"c@1", "d@1", "c@2", "d@2"},
        ]

    def test_length_formula(self):
        # 1 + r * (d - |A intersect A2|) entries
        path = edge_path(fs(0, 1), fs(1, 2), 3, (2, 1, 3))
        assert len(path) == 1 + 3 * 1
        path = edge_path(fs(0, 1, 2), fs(3, 4, 5), 2, (1, 2))
        assert len(path) == 1 + 2 * 3

    def test_consecutive_sets_swap_one_symbol(self):
        path = edge_path(fs(0, 1, 2), fs(2, 3, 4), 3, (3, 1, 2))
        rd = 3 * 3
        for left, right in zip(path, path[1:]):
            assert left.intersection_size(right) == rd - 1

    def test_interpolation_all_permutations_small(self):
        for r in (2, 3):
            for perm in permutations(range(1, r + 1)):
                path = edge_path(fs(0, 1), fs(1, 2), r, perm)
                start = set(path[0].elements)
                for k, entry in enumerate(path):
                    assert len(start & set(entry.elements)) == 2 * r - k

    def test_equal_endpoints_rejected(self):
        # an edge between equal sets: the template repeats a set
        spg = Spg.build(SymbolTable.alphabetic(2), 2,
                        [[fs(0, 1)], [fs(0, 1)]], [(0, 1)])
        with pytest.raises(InvalidSpgError):
            TransformResult(spg, 2, ((1, 2),))

    def test_size_mismatch_rejected(self):
        spg = Spg.build(SymbolTable.alphabetic(5), 2,
                        [[fs(0, 1)], [fs(2, 3, 4)]], [(0, 1)])
        with pytest.raises(InvalidSpgError):
            TransformResult(spg, 2, ((1, 2),))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError, match="not a subdivision path"):
            TransformResult(SINGLE_EDGE, 2, ((1, 1),))


class TestBuildSubdivision:
    def test_figure_path(self):
        result = build_subdivision(
            SINGLE_EDGE, 2, PermutationAssignment(((1, 2),)))
        assert len(result.spg.vertices) == 5
        assert result.edge_paths == ((0, 2, 3, 4, 1),)
        table = result.spg.symbols
        got = labels_of([v[0] for v in result.spg.vertices], table)
        assert got[0] == {"a@1", "b@1", "a@2", "b@2"}
        assert got[2] == {"c@1", "b@1", "a@2", "b@2"}
        assert got[1] == {"c@1", "d@1", "c@2", "d@2"}
        assert validate(result.spg).holds

    def test_no_edges_equals_lift(self):
        spg = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 1)]])
        result = build_subdivision(spg, 2, PermutationAssignment(()))
        assert [label_set(lift, result.spg.symbols) for lift in lifts(result)
                ] == [oracle_lift(spg.symbols.labels, fs(0, 1), 2)]
        assert len(result.spg.vertices) == 1
        assert result.spg.edges == ()
        assert result.rounds_used == 0

    def test_disjoint_path_vertex_count(self):
        spg = Spg.build(
            SymbolTable.alphabetic(6), 2,
            [[fs(0, 1)], [fs(2, 3)], [fs(4, 5)]], [(0, 1), (1, 2)])
        r = 3
        result = build_subdivision(
            spg, r, PermutationAssignment(((1, 2, 3), (1, 2, 3))))
        # 3 originals + 2 edges * (r*d - 1) interiors each
        assert len(result.spg.vertices) == 3 + 2 * (r * 2 - 1)
        for path in result.edge_paths:
            assert len(path) == r * 2 + 1

    def test_missing_permutation_rejected(self):
        with pytest.raises(ValueError):
            build_subdivision(SINGLE_EDGE, 2, PermutationAssignment(()))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            build_subdivision(SINGLE_EDGE, 2, PermutationAssignment(((1, 1),)))

    @given(wide_swap_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_lift_and_path_oracle(self, case):
        template, r, perms = case
        result = TransformResult(template, r, perms)
        # the lift, then each edge's path, its interior numbered in turn,
        # all as labels; the result's symbol table encodes them
        labels = template.symbols.labels
        sets = [oracle_lift(labels, vertex[0], r) for vertex in template.vertices]
        edges, paths = [], []
        for (u, w), perm in zip(template.edges, perms):
            path = oracle_path(labels, template.vertices[u][0],
                               template.vertices[w][0], r, perm)
            assert (path[0], path[-1]) == (sets[u], sets[w])
            first = len(sets)
            sets += path[1:-1]
            paths.append((u, *range(first, len(sets)), w))
            edges += zip(paths[-1], paths[-1][1:])
        symbols = result.spg.symbols
        assert symbols == template.symbols.lifted(r)
        assert result.spg == Spg.build(
            symbols, r * template.dimension,
            [[FacetSet.from_labels(symbols, s)] for s in sets], edges)
        assert result.edge_paths == tuple(paths)
        assert result.vertex_map == tuple(range(len(template.vertices)))
        assert row_structure_violations(result, template) == ()

    def test_vertex_map_images_are_lifts(self):
        result = build_subdivision(
            SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
        for vi, vertex in enumerate(SHARED_STAR.vertices):
            image = result.vertex_map[vi]
            assert result.spg.vertices[image] == (lift_facet(vertex[0], 2),)

    @given(spg_instances(singleton=True, max_sets=5), st.integers(2, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_row_structure_law(self, spg, r, rnd):
        perms = PermutationAssignment(tuple(
            tuple(rnd.sample(range(1, r + 1), r)) for _ in spg.edges))
        result = build_subdivision(spg, r, perms)
        assert row_structure_violations(result, spg) == ()
        # interpolation law along every edge path
        for path in result.edge_paths:
            first = result.spg.vertices[path[0]][0]
            for k, idx in enumerate(path):
                entry = result.spg.vertices[idx][0]
                assert first.intersection_size(entry) == result.spg.dimension - k


class TestFindBadEvents:
    def test_shared_star_identity_permutations(self):
        result = build_subdivision(
            SHARED_STAR, 2, PermutationAssignment(((1, 2), (1, 2))))
        events = find_bad_events(result, SHARED_STAR)
        assert len(events) == 1
        event = events[0]
        assert event.vertex == 0
        assert event.edges == (0, 1)
        # both first interior sets equal {c@1, b@1, a@2, b@2}
        assert labels_of(event.witness, result.spg.symbols) == [
            {"c@1", "b@1", "a@2", "b@2"}] * 2

    def test_distinct_leading_rows_no_event(self):
        result = build_subdivision(
            SHARED_STAR, 4,
            PermutationAssignment(((1, 2, 3, 4), (3, 4, 1, 2))))
        assert find_bad_events(result, SHARED_STAR) == ()

    def test_single_edge_no_events(self):
        result = build_subdivision(
            SINGLE_EDGE, 2, PermutationAssignment(((1, 2),)))
        assert find_bad_events(result, SINGLE_EDGE) == ()

    def test_agrees_with_pairwise_set_scan(self):
        # independent oracle: plain python sets over both subdivision paths
        for p1 in permutations(range(1, 3)):
            for p2 in permutations(range(1, 3)):
                result = build_subdivision(
                    SHARED_STAR, 2, PermutationAssignment((p1, p2)))
                events = find_bad_events(result, SHARED_STAR)
                labels = SHARED_STAR.symbols.labels
                path1 = oracle_path(labels, fs(0, 1), fs(2, 3), 2, p1)[1:]
                path2 = oracle_path(labels, fs(0, 1), fs(2, 4), 2, p2)[1:]
                expected = any(
                    len(a & b) >= 3 for a in path1 for b in path2)
                assert bool(events) == expected


class TestConstructWithResampling:
    def test_no_degree_two_vertex_succeeds_immediately(self):
        result = construct_with_resampling(
            SINGLE_EDGE, TransformConfig(r=2, seed=99))
        assert result.rounds_used == 0
        assert result.resample_log == ()

    def test_deterministic(self):
        cfg = TransformConfig(r=5, seed=1234)
        first = construct_with_resampling(SHARED_STAR, cfg)
        second = construct_with_resampling(SHARED_STAR, cfg)
        assert first == second
        assert first.resample_log == second.resample_log

    def test_resampling_clears_bad_events(self):
        cfg = TransformConfig(r=4, seed=EXHAUSTING_SEED, max_rounds=200)
        result = construct_with_resampling(SHARED_STAR, cfg)
        assert find_bad_events(result, SHARED_STAR) == ()
        for check in (validate, check_singleton, check_adjacency,
                      check_strong_adjacency, check_endpoint_count):
            assert check(result.spg).holds

    def test_every_edge_witnessed_by_exact_overlap(self):
        # adjacent constructed vertices share exactly rd - 1 symbols
        result = construct_with_resampling(
            SHARED_STAR, TransformConfig(r=4, seed=6))
        rd = result.spg.dimension
        for u, w in result.spg.edges:
            a = result.spg.vertices[u][0]
            b = result.spg.vertices[w][0]
            assert a.intersection_size(b) == rd - 1

    def test_reject_strategy(self):
        cfg = TransformConfig(
            r=4, seed=21, max_rounds=500, strategy=Strategy.REJECT)
        result = construct_with_resampling(SHARED_STAR, cfg)
        assert find_bad_events(result, SHARED_STAR) == ()

    def test_exhaustion_carries_bad_events(self):
        cfg = TransformConfig(r=2, seed=EXHAUSTING_SEED, max_rounds=0)
        with pytest.raises(ResamplingExhaustedError) as err:
            construct_with_resampling(SHARED_STAR, cfg)
        assert len(err.value.bad_events) == 1
        assert err.value.resample_log[0][0] == 0

    def test_clean_seed_round_zero(self):
        cfg = TransformConfig(r=2, seed=CLEAN_SEED, max_rounds=0)
        result = construct_with_resampling(SHARED_STAR, cfg)
        assert result.rounds_used == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TransformConfig(r=4, seed=-1)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            TransformConfig(r=1, seed=0)

    def test_resample_log_shape(self):
        cfg = TransformConfig(r=2, seed=EXHAUSTING_SEED, max_rounds=50)
        try:
            result = construct_with_resampling(SHARED_STAR, cfg)
        except (ResamplingExhaustedError, ConstructionVerificationError):
            return
        assert result.rounds_used == len(result.resample_log)
        for i, (round_index, events) in enumerate(result.resample_log):
            assert round_index == i
            assert events


    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("template, r", [
        (SHARED_STAR, 2), (SHARED_STAR, 4),
        (build_spindle_template(3).spindle.spg, 4)],
        ids=["star-2", "star-4", "spindle-3"])
    def test_rounds_used_is_the_log_length(self, template, r, strategy):
        resampled = 0
        for seed in range(12):
            result = construct_with_resampling(template, TransformConfig(
                r=r, seed=seed, max_rounds=1000, strategy=strategy))
            assert result.rounds_used == len(result.resample_log)
            assert [i for i, _ in result.resample_log] == list(
                range(result.rounds_used))
            resampled += result.rounds_used > 0
        assert resampled

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("max_rounds", [0, 1, 3])
    def test_exhaustion_logs_every_round(self, max_rounds, strategy):
        template = build_spindle_template(3).spindle.spg
        exhausted = 0
        for seed in range(6):
            try:
                construct_with_resampling(template, TransformConfig(
                    r=2, seed=seed, max_rounds=max_rounds, strategy=strategy))
            except ResamplingExhaustedError as err:
                exhausted += 1
                assert len(err.resample_log) == max_rounds + 1
                assert err.resample_log[-1][1] == err.bad_events
        assert exhausted


class TestRestrictionTemplates:
    """A template flagged is_restriction is refused: the result's graph
    would drop the flag, so it would neither round-trip nor exempt a
    disconnected template from connectivity."""

    MESSAGE = ("^template is flagged is_restriction: a restriction cannot "
               "be transformed$")

    def test_result_refuses_a_flagged_template(self):
        template = replace(sliding_window_path(2), is_restriction=True)
        with pytest.raises(ValueError, match=self.MESSAGE):
            TransformResult(template, 4, ((1, 2, 3, 4),) * 2)
        with pytest.raises(ValueError, match=self.MESSAGE):
            build_subdivision(
                template, 4, PermutationAssignment(((1, 2, 3, 4),) * 2))

    def test_construction_refuses_a_disconnected_restriction(self):
        restricted = restrict(build_spindle_template(2).spindle.spg, fs(0))
        assert restricted.is_restriction
        assert validate(restricted).holds
        assert not validate(replace(restricted, is_restriction=False)).holds
        with pytest.raises(ValueError, match=self.MESSAGE):
            construct_with_resampling(restricted, TransformConfig(r=8, seed=1))

    def test_construction_refuses_before_any_draw(self, monkeypatch):
        template = build_spindle_template(3).spindle.spg
        restricted = restrict(
            template, FacetSet.from_labels(template.symbols, ["1.1"]))
        scans = []
        real = transform._scan_bad_events
        monkeypatch.setattr(transform, "_scan_bad_events",
                            lambda *args: scans.append(args) or real(*args))
        with pytest.raises(ValueError, match=self.MESSAGE):
            construct_with_resampling(restricted, TransformConfig(r=2, seed=1))
        assert scans == []
        assert "_key_verdicts" not in vars(restricted)
        # the count sees the scans of a template that is not refused
        construct_with_resampling(template, TransformConfig(r=4, seed=1))
        assert scans


class TestBadEventProbability:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_bad_event_probability(
                fs(0, 1), fs(2, 3), fs(4, 5), 8, 0, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            estimate_bad_event_probability(
                fs(0, 1), fs(2, 3), fs(4, 5), 8, 10, seed=-1)

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            estimate_bad_event_probability(
                fs(0, 1), fs(0, 1), fs(4, 5), 8, 10, seed=1)

    def test_analytic_bound_field(self):
        est = estimate_bad_event_probability(
            fs(0, 1), fs(2, 3), fs(4, 5), 8, 10, seed=1)
        assert est.analytic_bound == pytest.approx(0.5)

    @pytest.mark.parametrize("star, r, seed", [
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 8, 3),
        ((fs(0, 1), fs(2, 3), fs(2, 4)), 5, 11),
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 87, 3),
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 2, 3),
        ((fs(0, 1), fs(2, 3), fs(2, 4)), 3, 11),
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 4, 3),
    ])
    def test_matches_checked_scan_on_the_same_draws(self, star, r, seed):
        # trial counts on each side of the first and second block ends
        block = transform._trial_block(r)
        counts = {200, block - 1, block, block + 1, 2 * block + 1}
        hits = self._running_hits(star, r, seed, max(counts))
        for trials in counts:
            est = estimate_bad_event_probability(*star, r, trials, seed)
            assert est.occurrences == hits[trials]
        assert hits[-1] > 0

    def test_matches_checked_scan_at_a_large_r(self):
        star, r, seed = (fs(0, 1), fs(2, 3), fs(2, 4)), 3000, 2
        assert transform._trial_block(r) == 64
        hits = self._running_hits(star, r, seed, 70)
        for trials in (1, 63, 64, 65, 70):
            est = estimate_bad_event_probability(*star, r, trials, seed)
            assert est.occurrences == hits[trials]

    @staticmethod
    def _running_hits(star, r, seed, trials):
        """hits[t]: the bad events in the first t trials of the per-trial
        loop of draws and checked scans."""
        rng = np.random.default_rng(seed)
        hits = [0]
        for _ in range(trials):
            p1, p2 = loop_fisher_yates(rng, r), loop_fisher_yates(rng, r)
            hits.append(hits[-1] + bad_event_occurs(*star, r, p1, p2))
        return hits

    @pytest.mark.parametrize("star, r, trials, seed, occurrences", [
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 87, 1000, 1, 12),
        # the README's `spg estimate-bad-event --dim 2 --r 8 --trials
        # 10000 --seed 4`
        ((fs(0, 1), fs(2, 3), fs(4, 5)), 8, 10_000, 4, 1252),
    ])
    def test_pinned_occurrences(self, star, r, trials, seed, occurrences):
        est = estimate_bad_event_probability(*star, r, trials, seed)
        assert est.occurrences == occurrences

    def test_a_block_above_its_floor_holds_at_most_2_15_partners(self):
        for r in range(2, 5000):
            block = transform._trial_block(r)
            assert block >= 64
            if block > 64:
                assert 2 * block * (r - 1) <= 2**15

    def test_shared_star_exhaustive_r2(self):
        # all (2!)^2 permutation pairs: exactly half are bad (frozen by
        # direct enumeration); the r >= 4 bound promises nothing here
        hits = sum(
            bad_event_occurs(fs(0, 1), fs(2, 3), fs(2, 4), 2, p1, p2)
            for p1 in permutations(range(1, 3))
            for p2 in permutations(range(1, 3)))
        assert hits == 2

    def test_monte_carlo_matches_exhaustive_r3(self):
        exact_hits = sum(
            bad_event_occurs(fs(0, 1), fs(2, 3), fs(4, 5), 3, p1, p2)
            for p1 in permutations(range(1, 4))
            for p2 in permutations(range(1, 4)))
        exact = exact_hits / 36
        est = estimate_bad_event_probability(
            fs(0, 1), fs(2, 3), fs(4, 5), 3, 4000, seed=77)
        sigma = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(est.frequency - exact) <= 4 * sigma

    def test_bound_respected_at_r8(self):
        est = estimate_bad_event_probability(
            fs(0, 1), fs(2, 3), fs(4, 5), 8, 2000, seed=13)
        sigma = math.sqrt(0.5 * 0.5 / 2000)
        assert est.frequency <= est.analytic_bound + 3 * sigma


class TestCheckLocalization:
    def test_refuses_small_r(self):
        result = build_subdivision(
            SHARED_STAR, 2, PermutationAssignment(((1, 2), (1, 2))))
        with pytest.raises(ValueError):
            check_localization(result)

    def test_holds_on_any_r4_build(self):
        for seed in range(5):
            import numpy as np
            rng = np.random.default_rng(seed)
            perms = PermutationAssignment.draw(rng, len(SHARED_STAR.edges), 4)
            result = build_subdivision(SHARED_STAR, 4, perms)
            assert check_localization(result).holds

    def test_holds_on_path_template(self):
        path = sliding_window_path(2)
        result = construct_with_resampling(path, TransformConfig(r=5, seed=3))
        assert check_localization(result).holds

    def test_refuses_a_non_singleton_result(self):
        # A second set on the first vertex: the image of the last template
        # vertex with one symbol swapped.  The graph is valid and a
        # document round-trips it, but that set is near the last vertex's
        # set across edges 0 and 2, which share no endpoint; a check that
        # read only each vertex's first set would pass it.  No result
        # holds that graph, so its transform-result document is refused.
        path = sliding_window_path(3)
        result = construct_with_resampling(path, TransformConfig(r=4, seed=1))
        spg = result.spg
        last = spg.vertices[result.vertex_map[3]][0]
        swapped = FacetSet.from_mask(last.mask ^ (1 << last.elements[0]) ^ 1)
        assert 0 not in last and swapped not in spg.family()
        vertices = [list(vertex) for vertex in spg.vertices]
        vertices[result.vertex_map[0]].append(swapped)
        grown = Spg.build(spg.symbols, spg.dimension, vertices, spg.edges)
        assert validate(grown).holds
        assert document.parse(document.serialize(grown)) == grown
        assert len(check_adjacency(grown).witnesses) == 1
        doc = json.loads(document.serialize(result))
        doc["vertices"][result.vertex_map[0]].append(list(swapped.elements))
        with pytest.raises(document.DocumentError,
                           match="^vertices: a transform result is a singleton"):
            document.parse(json.dumps(doc))
        stand_in = SimpleNamespace(spg=grown, edge_paths=result.edge_paths)
        with pytest.raises(ValueError, match="singleton"):
            brute_force_localization(stand_in, path)


class TestRowStructureViolations:
    def test_detects_fabricated_corruption(self):
        result = build_subdivision(
            SINGLE_EDGE, 2, PermutationAssignment(((1, 2),)))
        # replace an interior vertex with a set differing from both
        # endpoints in two rows
        table = result.spg.symbols
        corrupt = FacetSet.from_labels(table, ["c@1", "b@1", "c@2", "b@2"])
        vertices = list(result.spg.vertices)
        vertices[3] = (corrupt,)
        broken = SimpleNamespace(
            spg=Spg.build(table, result.spg.dimension, vertices,
                          result.spg.edges),
            edge_paths=result.edge_paths)
        violations = row_structure_violations(broken, SINGLE_EDGE)
        assert violations
        assert violations[0][0] == "row-structure"
        # no result holds that graph, and parse refuses its document:
        # vertex 3 opens the path's second segment, in row 1 again
        doc = json.loads(document.serialize(result))
        doc["vertices"][3] = [list(corrupt.elements)]
        with pytest.raises(document.DocumentError,
                           match=r"^annotations\.edge_paths\[0\]: not a subdivision"):
            document.parse(json.dumps(doc))
