"""Tests for the sweep and dimension-reduction experiment harness."""

from dataclasses import replace

import pytest

from conftest import duplicating_tree
from spgraphs import (
    BudgetExceededError,
    FacetSet,
    InvalidSpgError,
    Spg,
    Strategy,
    SymbolTable,
    build_star_template,
    min_multiplier,
    sliding_window_path,
    sweep_r,
    verify_dimension_reduction_on_paths,
)
from spgraphs import core
from spgraphs.experiments import trial_seed


def fs(*elements):
    return FacetSet(elements)


SINGLE_EDGE = Spg.build(
    SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]], [(0, 1)])

SHARED_STAR = build_star_template(
    SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(2, 4)])


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_distinct_across_trials(self):
        seeds = {trial_seed(7, t) for t in range(50)}
        assert len(seeds) == 50


class TestSweep:
    def test_edge_template_always_succeeds(self):
        report = sweep_r(SINGLE_EDGE, [2, 4], trials=3, seed=1)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.successes == row.trials == 3
            assert row.mean_rounds == 0.0
            assert row.mean_round0_bad_events == 0.0

    def test_reproducible(self):
        a = sweep_r(SHARED_STAR, [4, 6], trials=4, seed=9)
        b = sweep_r(SHARED_STAR, [4, 6], trials=4, seed=9)
        assert a == b

    def test_certified_multiplier_always_succeeds(self):
        path = sliding_window_path(2)
        report = sweep_r(path, [min_multiplier(2)], trials=3, seed=5)
        (row,) = report.rows
        assert row.successes == row.trials

    def test_certified_multiplier_statistical_sanity(self):
        # statistical, not a hard law: 20 trials at the certified r should
        # all succeed for small path and star templates
        path = sliding_window_path(2)
        (row,) = sweep_r(path, [min_multiplier(2)], trials=20, seed=17).rows
        assert row.successes == 20
        star3 = build_star_template(
            SymbolTable.alphabetic(8), fs(0, 1),
            [fs(2, 3), fs(2, 4), fs(5, 6)])
        (row,) = sweep_r(star3, [min_multiplier(3)], trials=20, seed=17).rows
        assert row.successes == 20

    def test_failures_are_counted_not_raised(self):
        report = sweep_r(SHARED_STAR, [2], trials=8, seed=3, max_rounds=0)
        (row,) = report.rows
        assert 0 <= row.successes <= row.trials
        # at r=2 with no resampling budget, some trial hits a bad event
        assert row.successes < row.trials
        assert row.mean_round0_bad_events > 0

    def test_a_result_failing_validation_is_a_failed_trial(self):
        (row,) = sweep_r(duplicating_tree(), [2], trials=1, seed=0).rows
        assert (row.trials, row.successes, row.mean_rounds) == (1, 0, None)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sweep_r(SINGLE_EDGE, [], trials=3, seed=1)
        with pytest.raises(ValueError):
            sweep_r(SINGLE_EDGE, [4], trials=0, seed=1)
        with pytest.raises(ValueError):
            sweep_r(SINGLE_EDGE, [1], trials=3, seed=1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            sweep_r(SINGLE_EDGE, [4], trials=3, seed=-1)
        non_singleton = Spg.build(
            SymbolTable.alphabetic(3), 2, [[fs(0, 1), fs(1, 2)]])
        with pytest.raises(InvalidSpgError):
            sweep_r(non_singleton, [4], trials=1, seed=1)

    def test_validates_template_once(self, monkeypatch):
        calls = []
        validate = core._validate
        monkeypatch.setattr(core, "_validate",
                            lambda spg: calls.append(spg) or validate(spg))
        # a fresh copy: the module constant may keep a report from earlier
        template = replace(SHARED_STAR)
        report = sweep_r(template, [4], trials=2, seed=1)
        assert report.rows[0].successes == 2
        # the template once, then each result in its verify_all
        assert calls[0] is template
        assert len(calls) == 3

    def test_reject_strategy_runs(self):
        report = sweep_r(SHARED_STAR, [4], trials=3, seed=2,
                         strategy=Strategy.REJECT)
        (row,) = report.rows
        assert row.trials == 3


class TestDimensionReductionOnPaths:
    def test_single_edge_template_holds(self):
        summary = verify_dimension_reduction_on_paths(d=1, r=4, trials=2, seed=6)
        assert summary.constructions == 2
        assert summary.holds_count == 2
        assert summary.violation_count == 0
        assert summary.all_hold

    def test_three_vertex_path_holds(self):
        # observed to hold at desk scale for path templates
        summary = verify_dimension_reduction_on_paths(d=2, r=4, trials=2, seed=6)
        assert summary.constructions == 2
        assert summary.violation_count == 0

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            verify_dimension_reduction_on_paths(
                d=2, r=4, trials=1, seed=6, budget=10)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_dimension_reduction_on_paths(d=1, r=4, trials=0, seed=6)
