"""Empirical probes of the quantities the construction's analysis bounds:
how small the row multiplier can get in practice, how often resampling is
needed, and whether dimension reduction survives the transform on path
templates.

Everything here is measurement, not proof: sweeps report observed success
rates without asserting values the analysis does not promise.  All
randomness is derived reproducibly from one base seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import core
from .core import (
    Spg,
    _require_count,
    _require_multiplier,
    check_dimension_reduction,
    max_degree,
    require_singleton,
)
from .spindle import sliding_window_path
from .transform import (
    ConstructionVerificationError,
    ResamplingExhaustedError,
    Strategy,
    TransformConfig,
    _resample,
    _verified,
)


@dataclass(frozen=True)
class SweepRow:
    r: int
    trials: int
    successes: int
    mean_rounds: float | None
    mean_round0_bad_events: float

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")


@dataclass(frozen=True)
class SweepReport:
    template: str
    rows: tuple[SweepRow, ...]


def trial_seed(base_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed, split deterministically off the base seed."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def describe_template(spg: Spg) -> str:
    return (
        f"{len(spg.vertices)} vertices, {len(spg.edges)} edges, "
        f"dimension {spg.dimension}, max degree {max_degree(spg)}"
    )


def _trials(template: Spg, r: int, trials: int, seed: int, max_rounds: int,
            strategy: Strategy, build: bool):
    """Each trial of :func:`~spgraphs.transform.construct_with_resampling`
    in trial order, trial t seeded by :func:`trial_seed`, as (whether it
    succeeded, its result or None, its resample log).  The result is
    None where the trial failed, and without ``build`` where the
    resampling loop's last scan certifies it: such a trial cannot fail
    after the loop (:func:`~spgraphs.core._certify`), so its graph is
    not built.  Every result that is built is verified."""
    for t in range(trials):
        config = TransformConfig(
            r=r, seed=trial_seed(seed, t), max_rounds=max_rounds,
            strategy=strategy)
        try:
            perms, log = _resample(template, config)
            result = None
            # the loop's last scan is empty; the predicate is the one
            # _certify reads, looked up on core
            if build or not core._certifies(r, lambda: ()):
                result = _verified(template, r, perms, log)
        except (ResamplingExhaustedError, ConstructionVerificationError) as err:
            yield False, None, err.resample_log
        else:
            yield True, result, log


def sweep_r(
    template: Spg,
    r_values: Sequence[int],
    trials: int,
    seed: int,
    max_rounds: int = 1000,
    strategy: Strategy = Strategy.RESAMPLE,
) -> SweepReport:
    """Run the construction ``trials`` times per row multiplier and record
    success rates and resampling effort.

    Trial seeds depend only on (seed, trial index), so the same random
    permutations are replayed across r values and the whole report is
    reproducible.  A trial fails when the resampling budget runs out (or,
    below r = 4, when a bad-event-free draw still fails verification);
    failures are counted, never raised.

    Each trial runs the resampling loop of
    :func:`~spgraphs.transform.construct_with_resampling`.  A trial whose
    loop ends in a scan that certifies it (r >= 4, see
    :func:`~spgraphs.core._certify`) succeeds with the loop's rounds and
    builds no graph; any other bad-event-free draw is built and decided
    by :func:`~spgraphs.core.validate` and
    :func:`~spgraphs.core.verify_all`, as the construction does.  The
    report is the one a construction per trial gives.
    """
    require_singleton(template)
    if not r_values:
        raise ValueError("r_values must not be empty")
    for r in r_values:
        _require_multiplier(r)
    _require_count("trials", trials)
    _require_count("seed", seed)

    rows = []
    for r in r_values:
        rounds_used: list[int] = []
        round0_events = 0
        for ok, _, log in _trials(template, r, trials, seed, max_rounds,
                                  strategy, build=False):
            if ok:
                rounds_used.append(len(log))
            # a log is empty or opens with round 0
            round0_events += len(log[0][1]) if log else 0
        rows.append(SweepRow(
            r=r,
            trials=trials,
            successes=len(rounds_used),
            mean_rounds=sum(rounds_used) / len(rounds_used) if rounds_used else None,
            mean_round0_bad_events=round0_events / trials,
        ))
    return SweepReport(template=describe_template(template), rows=tuple(rows))


@dataclass(frozen=True)
class DimensionReductionSummary:
    d: int
    r: int
    trials: int
    constructions: int
    holds_count: int
    violation_count: int
    failures: tuple[tuple[int, tuple[tuple, ...]], ...]

    @property
    def all_hold(self) -> bool:
        return self.violation_count == 0 and self.constructions > 0


def verify_dimension_reduction_on_paths(
    d: int,
    r: int,
    trials: int,
    seed: int,
    max_rounds: int = 1000,
    budget: int = 10_000_000,
) -> DimensionReductionSummary:
    """Transform the canonical d-dimensional path template ``trials``
    times and exhaustively test dimension reduction on each result.

    Restriction enumeration explodes with r*d, so the check is budgeted;
    exceeding the budget refuses loudly (BudgetExceededError) instead of
    reporting a partial verdict.  Violations are reported with their
    disconnecting faces, not asserted away: path templates are expected
    to preserve dimension reduction, and this measures exactly that.
    """
    _require_count("trials", trials)
    _require_count("seed", seed)
    _require_count("budget", budget)
    template = sliding_window_path(d)

    constructions = 0
    holds_count = 0
    failures: list[tuple[int, tuple[tuple, ...]]] = []
    for t, (ok, result, _) in enumerate(_trials(
            template, r, trials, seed, max_rounds, Strategy.RESAMPLE,
            build=True)):
        if not ok:
            continue
        constructions += 1
        report = check_dimension_reduction(result.spg, budget)
        if report.holds:
            holds_count += 1
        else:
            failures.append((t, report.witnesses))
    return DimensionReductionSummary(
        d=d,
        r=r,
        trials=trials,
        constructions=constructions,
        holds_count=holds_count,
        violation_count=len(failures),
        failures=tuple(failures),
    )
