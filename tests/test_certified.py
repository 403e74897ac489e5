"""Certified verdicts: at r >= 4 a result whose bad-event scan is empty
keeps holding reports, and the near-pair join never runs on it.  The
join's reports on a copy that keeps no verdicts are the oracle."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_localization,
    joined_verdicts,
    subdivision_cases,
    verdicts,
)
from spgraphs import (
    ConstructionVerificationError,
    FacetSet,
    ResamplingExhaustedError,
    Spg,
    SymbolTable,
    TransformConfig,
    TransformResult,
    check_localization,
    construct_with_resampling,
    find_bad_events,
    parse,
    serialize,
    validate,
    verify_all,
)
from spgraphs import core


@st.composite
def templates(draw):
    """Random singleton trees, paths, stars and templates with a cycle on
    a few symbols, so that their sets share symbols; vertex labels are
    shuffled."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 3))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    k = draw(st.integers(2, min(len(pool), 6)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                         unique=True))
    at = draw(st.permutations(range(k)))
    shape = draw(st.sampled_from(("tree", "path", "star", "cycle")))
    if shape == "tree":
        parents = [draw(st.integers(0, i - 1)) for i in range(1, k)]
    elif shape == "star":
        parents = [0] * (k - 1)
    else:
        parents = list(range(k - 1))
    edges = [(at[p], at[i]) for i, p in zip(range(1, k), parents)]
    if shape == "cycle" and k >= 3:
        edges.append((at[0], at[k - 1]))
    return Spg.build(SymbolTable.alphabetic(n), d, [[s] for s in sets], edges)


@st.composite
def certificates(draw):
    """A template, r in 2..6 and arbitrary row permutations, bad events
    and all."""
    template = draw(templates())
    r = draw(st.integers(2, 6))
    perms = tuple(tuple(draw(st.permutations(range(1, r + 1))))
                  for _ in template.edges)
    return template, r, perms


def certified(spg):
    return "_pair_verdicts" in vars(spg)


@given(st.one_of(certificates(), subdivision_cases(2, 6).map(
    lambda case: (case[0], case[1], case[2].perms))))
@settings(max_examples=300, deadline=None)
def test_certified_reports_equal_the_joins(case):
    template, r, perms = case
    result = TransformResult(template, r, perms)
    scans = []
    with pytest.MonkeyPatch.context() as patch:
        real = core._scan_bad_events
        patch.setattr(core, "_scan_bad_events",
                      lambda *args: scans.append(args) or real(*args))
        core._certify(result)
    # below r = 4 no scan can certify, so none is made
    assert len(scans) == (r >= 4)
    clean = certified(result.spg)  # read before any check fills the reports
    assert clean == (r >= 4 and not find_bad_events(result, template))
    reports = verdicts(result.spg)
    assert reports == joined_verdicts(result.spg)
    if r >= 4:
        # the converse: a bad event fails some report
        assert clean == all(rep.holds for rep in reports)
        assert check_localization(result) == brute_force_localization(
            result, template)
    if validate(result.spg).holds:
        parsed = parse(serialize(result))
        assert certified(parsed.spg) == clean
        assert verdicts(parsed.spg) == reports


@given(templates(), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_construction_keeps_the_joins_reports(template, r, seed):
    joins = []
    with pytest.MonkeyPatch.context() as patch:
        real = core.near_pairs
        patch.setattr(core, "near_pairs",
                      lambda spg: joins.append(spg) or real(spg))
        try:
            result = construct_with_resampling(
                template, TransformConfig(r=r, seed=seed, max_rounds=20))
        except ResamplingExhaustedError:
            return
        except ConstructionVerificationError:
            # at r >= 4 the empty scan certifies every report
            assert r < 4
            return
    assert joins == ([] if r >= 4 else [result.spg])
    assert verdicts(result.spg) == joined_verdicts(result.spg)
    assert all(rep.holds for rep in verify_all(result.spg))
