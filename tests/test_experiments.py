"""Tests for the sweep and dimension-reduction experiment harness."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    duplicating_tree,
    loop_dimension_reduction,
    loop_sweep_r,
    shared_symbol_templates,
    shared_symbol_trees,
)
from spgraphs import (
    BudgetExceededError,
    ConstructionVerificationError,
    FacetSet,
    InvalidSpgError,
    ResamplingExhaustedError,
    Spg,
    SpgProperty,
    Strategy,
    SymbolTable,
    TransformConfig,
    build_spindle_template,
    build_star_template,
    construct_with_resampling,
    min_multiplier,
    sliding_window_path,
    sweep_r,
    verify_dimension_reduction_on_paths,
)
from spgraphs import core, experiments
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

    def test_a_restriction_is_refused_at_every_r(self):
        restricted = replace(SHARED_STAR, is_restriction=True)
        for r in (3, 4):
            with pytest.raises(ValueError, match="flagged is_restriction"):
                sweep_r(restricted, [r], trials=1, seed=1)

    def test_validates_template_once(self, monkeypatch):
        calls = []
        validate = core._validate
        monkeypatch.setattr(core, "_validate",
                            lambda spg: calls.append(spg) or validate(spg))
        # a fresh copy: the module constant may keep a report from earlier
        template = replace(SHARED_STAR)
        report = sweep_r(template, [4], trials=2, seed=1)
        assert report.rows[0].successes == 2
        # the template once: each trial, at r = 4, is certified by the
        # loop's empty scan, so no result is built and none is validated
        assert calls == [template]

    def test_makes_one_lift_table_per_r(self, monkeypatch):
        bases, tables = [], []
        base, table = core._make_lift_base, core._LiftTable
        monkeypatch.setattr(core, "_make_lift_base",
                            lambda spg: bases.append(spg) or base(spg))
        monkeypatch.setattr(core, "_LiftTable",
                            lambda *args: tables.append(args) or table(*args))
        # a fresh copy: the module constant may keep its tables from earlier
        template = replace(SHARED_STAR)
        sweep_r(template, [4, 5], trials=3, seed=1)
        # one lift base for the template, scaled to one table per r
        assert bases == [template]
        assert len(tables) == 2 and list(template._lift_tables) == [4, 5]

    def test_reject_strategy_runs(self):
        report = sweep_r(SHARED_STAR, [4], trials=3, seed=2,
                         strategy=Strategy.REJECT)
        (row,) = report.rows
        assert row.trials == 3

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("template, r_values, trials, seed, max_rounds", [
        (SHARED_STAR, [4, 6], 4, 9, 1000),
        (build_spindle_template(3).spindle.spg, [4, 8], 3, 2, 1000),
        (duplicating_tree(), [4, 5], 2, 0, 1000),
    ], ids=["star", "spindle-3", "duplicating-tree"])
    def test_a_certified_trial_builds_nothing(self, monkeypatch, template,
                                              r_values, trials, seed,
                                              max_rounds, strategy):
        template = replace(template)  # keeps no report from earlier
        calls = count_calls(monkeypatch, "_build_subdivision", "_validate",
                            "_pair_reports")
        report = sweep_r(template, r_values, trials, seed,
                         max_rounds=max_rounds, strategy=strategy)
        assert sum(row.successes for row in report.rows) > 0
        assert calls == {"_build_subdivision": [], "_validate": [template],
                         "_pair_reports": []}

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("template, r, trials, seed, max_rounds", [
        (SHARED_STAR, 2, 8, 3, 0),
        (SHARED_STAR, 3, 4, 9, 1000),
        (build_spindle_template(3).spindle.spg, 3, 3, 2, 1000),
        # clean at r = 2 but invalid, so no join; at r = 3 valid
        (duplicating_tree(), 2, 2, 0, 1000),
        (duplicating_tree(), 3, 2, 0, 1000),
    ], ids=["star-2", "star-3", "spindle-3", "duplicating-tree-2",
            "duplicating-tree-3"])
    def test_below_r4_each_clean_trial_is_built_and_joined_once(
            self, monkeypatch, template, r, trials, seed, max_rounds,
            strategy):
        clean, valid = clean_trials(template, r, trials, seed, max_rounds,
                                    strategy)
        assert clean > 0
        calls = count_calls(monkeypatch, "_build_subdivision",
                            "_pair_reports")
        sweep_r(template, [r], trials, seed, max_rounds=max_rounds,
                strategy=strategy)
        assert len(calls["_build_subdivision"]) == clean
        assert len(calls["_pair_reports"]) == valid

    def test_the_sweep_consults_the_certification_predicate(
            self, monkeypatch):
        template = build_spindle_template(3).spindle.spg
        clean, valid = clean_trials(template, 4, 3, 2, 1000,
                                    Strategy.RESAMPLE)
        calls = count_calls(monkeypatch, "_build_subdivision",
                            "_pair_reports")
        monkeypatch.setattr(core, "_certifies", lambda r, scan: False)
        (row,) = sweep_r(template, [4], 3, 2).rows
        # refused, every clean trial is built and joined, and holds
        assert row.successes == clean == valid == 3
        assert len(calls["_build_subdivision"]) == 3
        assert len(calls["_pair_reports"]) == 3

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("template, r_values, trials, seed, max_rounds", [
        # r = 2 with no resampling budget: some trials exhaust (see
        # test_failures_are_counted_not_raised)
        (SHARED_STAR, [2], 8, 3, 0),
        (SHARED_STAR, [2, 4, 6], 4, 9, 1000),
        # a result failing validation is a failed trial
        (duplicating_tree(), [2, 3], 2, 0, 1000),
        (build_spindle_template(3).spindle.spg, [2, 4], 3, 2, 3),
    ], ids=["star-exhausting", "star", "duplicating-tree", "spindle-3"])
    def test_matches_the_per_trial_loop(self, template, r_values, trials,
                                        seed, max_rounds, strategy):
        report = sweep_r(template, r_values, trials, seed,
                         max_rounds=max_rounds, strategy=strategy)
        assert report == loop_sweep_r(template, r_values, trials, seed,
                                      max_rounds=max_rounds, strategy=strategy)


@given(st.one_of(shared_symbol_templates(), shared_symbol_trees()),
       st.lists(st.sampled_from([2, 3, 4, 5, 8]), min_size=1, max_size=3,
                unique=True),
       st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([0, 1, 1000]), st.sampled_from(Strategy))
# r = 2 and 3: every trial is clean and fails verification
@example(duplicating_tree(), [2, 3, 4], 2, 0, 1000, Strategy.RESAMPLE)
@example(duplicating_tree(), [3], 1, 0, 0, Strategy.REJECT)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_a_full_construction_per_trial(
        template, r_values, trials, seed, max_rounds, strategy):
    report = sweep_r(template, r_values, trials, seed,
                     max_rounds=max_rounds, strategy=strategy)
    assert report == loop_sweep_r(template, r_values, trials, seed,
                                  max_rounds=max_rounds, strategy=strategy)


def count_calls(monkeypatch, *names):
    """Record the first argument of each call of the named functions of
    ``core``, by name."""
    calls = {}
    for name in names:
        calls[name] = seen = []

        def counting(*args, _real=getattr(core, name), _seen=seen):
            _seen.append(args[0])
            return _real(*args)

        monkeypatch.setattr(core, name, counting)
    return calls


def clean_trials(template, r, trials, seed, max_rounds, strategy):
    """How many of a sweep row's trials end their resampling loop with a
    clean scan, and how many of those build a valid graph, by a
    construction per trial."""
    clean = valid = 0
    for t in range(trials):
        try:
            construct_with_resampling(template, TransformConfig(
                r=r, seed=trial_seed(seed, t), max_rounds=max_rounds,
                strategy=strategy))
        except ResamplingExhaustedError:
            continue
        except ConstructionVerificationError as err:
            valid += err.failed[0].property is not SpgProperty.VALIDITY
        else:
            valid += 1
        clean += 1
    return clean, valid


class TestDimensionReductionOnPaths:
    @pytest.mark.parametrize("d, r, trials, seed, max_rounds", [
        # the paths of a sliding-window template never come near each
        # other, so no trial fails, even at r = 2 with no budget
        (2, 2, 6, 3, 0),
        (2, 4, 2, 6, 1000),
        (1, 3, 3, 1, 0),
    ])
    def test_matches_the_per_trial_loop(self, d, r, trials, seed, max_rounds):
        summary = verify_dimension_reduction_on_paths(
            d, r, trials, seed, max_rounds=max_rounds)
        assert summary == loop_dimension_reduction(
            d, r, trials, seed, max_rounds=max_rounds)

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

    @pytest.mark.parametrize("budget", [-5, 0, 1.5, True])
    def test_bad_budget_refused_before_any_construction(self, monkeypatch,
                                                        budget):
        def no_template(d):
            raise AssertionError("a template was built")

        monkeypatch.setattr(experiments, "sliding_window_path", no_template)
        with pytest.raises(ValueError, match="^budget must be"):
            verify_dimension_reduction_on_paths(
                d=1, r=4, trials=1, seed=6, budget=budget)
