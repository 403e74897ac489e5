"""The banded bad-event scan and the construction built on it, against
the brute-force oracles in conftest."""

import json
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spgraphs.transform as transform
from conftest import (
    brute_force_bad_event_occurs,
    brute_force_bad_events,
    replay_construction,
)
from spgraphs import (
    FacetSet,
    PermutationAssignment,
    ResamplingExhaustedError,
    Spg,
    Strategy,
    SymbolTable,
    TransformConfig,
    bad_event_occurs,
    build_star_template,
    build_subdivision,
    construct_with_resampling,
    find_bad_events,
    parse,
    serialize,
)


def fs(*elements):
    return FacetSet(elements)


SHARED_STAR = build_star_template(
    SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(2, 4)])


@st.composite
def shared_symbol_templates(draw):
    """Random singleton stars and paths on a few symbols, so that their
    sets share symbols.  Vertex labels are shuffled, so a vertex can be
    the lower or the higher endpoint of each of its edges."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 3))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    k = draw(st.integers(2, min(len(pool), 5)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                         unique=True))
    at = draw(st.permutations(range(k)))
    if draw(st.booleans()):
        edges = [(at[0], at[i]) for i in range(1, k)]
    else:
        edges = [(at[i], at[i + 1]) for i in range(k - 1)]
    return Spg.build(SymbolTable.alphabetic(n), d, [[s] for s in sets], edges)


@st.composite
def raw_subdivisions(draw):
    """A template, r in 2..8 and arbitrary row permutations, built with
    whatever bad events they carry."""
    template = draw(shared_symbol_templates())
    r = draw(st.integers(2, 8))
    perms = PermutationAssignment(tuple(
        tuple(draw(st.permutations(range(1, r + 1)))) for _ in template.edges))
    return template, build_subdivision(template, r, perms)


@given(raw_subdivisions())
@settings(max_examples=150, deadline=None)
def test_find_bad_events_matches_oracle(case):
    template, result = case
    assert find_bad_events(result, template) == brute_force_bad_events(
        result, template)


@st.composite
def star_paths(draw):
    """A degree-2 star on a few symbols and one row permutation per edge."""
    d = draw(st.integers(1, 3))
    pool = [FacetSet(c) for c in combinations(range(d + 3), d)]
    sets = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3,
                         unique=True))
    r = draw(st.integers(2, 8))
    perms = [tuple(draw(st.permutations(range(1, r + 1)))) for _ in range(2)]
    return (*sets, r, *perms)


@given(star_paths())
@settings(max_examples=200, deadline=None)
def test_bad_event_occurs_matches_oracle(case):
    assert bad_event_occurs(*case) == brute_force_bad_event_occurs(*case)


def assert_same_outcome(template, config):
    expected = replay_construction(template, config)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            construct_with_resampling(template, config)
        assert err.value.resample_log == expected.resample_log
        if isinstance(expected, ResamplingExhaustedError):
            assert err.value.bad_events == expected.bad_events
        else:
            assert err.value.failed == expected.failed
        return
    got = construct_with_resampling(template, config)
    assert got == expected
    assert got.rounds_used == expected.rounds_used
    assert got.resample_log == expected.resample_log


@given(shared_symbol_templates(), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(Strategy), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_construction_matches_round_by_round_replay(template, r, seed,
                                                    strategy, max_rounds):
    assert_same_outcome(template, TransformConfig(
        r=r, seed=seed, max_rounds=max_rounds, strategy=strategy))


@pytest.mark.parametrize("r, seed, max_rounds", [
    (2, 0, 0), (2, 1, 0), (2, 0, 50), (4, 0, 200), (4, 6, 1000), (5, 1234, 1000)])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_construction_matches_replay_on_pinned_seeds(r, seed, max_rounds, strategy):
    assert_same_outcome(SHARED_STAR, TransformConfig(
        r=r, seed=seed, max_rounds=max_rounds, strategy=strategy))


def test_non_permutation_raises():
    # (1, 1) adjusts row 1 twice: the second segment changes nothing, so
    # the sets stop moving away from the center
    with pytest.raises(ValueError, match="not a subdivision path"):
        bad_event_occurs(fs(0, 1), fs(2, 3), fs(2, 4), 2, (1, 1), (1, 2))


def test_parsed_result_with_scrambled_path_raises():
    result = build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
    doc = json.loads(serialize(result))
    # swap the sets one and two steps out along edge 0's path: still a
    # valid document, no longer a subdivision path
    a, b = result.edge_paths[0][1:3]
    doc["vertices"][a], doc["vertices"][b] = doc["vertices"][b], doc["vertices"][a]
    scrambled = parse(json.dumps(doc))
    with pytest.raises(ValueError, match="not a subdivision path"):
        find_bad_events(scrambled, SHARED_STAR)


def test_path_running_the_wrong_way_raises():
    result = build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
    reversed_path = replace(result, edge_paths=(
        result.edge_paths[0][::-1], result.edge_paths[1]))
    with pytest.raises(ValueError, match="does not run from"):
        find_bad_events(reversed_path, SHARED_STAR)


def test_set_of_the_wrong_size_raises():
    result = build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
    vertices = list(result.spg.vertices)
    idx = result.edge_paths[1][2]
    vertices[idx] = (FacetSet(vertices[idx][0].elements[1:]),)
    shrunk = replace(result, spg=replace(result.spg, vertices=tuple(vertices)))
    with pytest.raises(ValueError, match="must hold 4 symbols"):
        find_bad_events(shrunk, SHARED_STAR)


def test_construction_builds_once(monkeypatch):
    calls = []
    real = transform.build_subdivision
    monkeypatch.setattr(transform, "build_subdivision",
                        lambda *args: calls.append(1) or real(*args))
    result = construct_with_resampling(SHARED_STAR, TransformConfig(r=4, seed=4))
    assert result.rounds_used == 2 and len(calls) == 1
    with pytest.raises(ResamplingExhaustedError):
        construct_with_resampling(
            SHARED_STAR, TransformConfig(r=2, seed=0, max_rounds=0))
    assert len(calls) == 1
