"""The banded bad-event scan and the construction built on it, against
the brute-force oracles in conftest."""

import json
from dataclasses import replace
from itertools import combinations

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spgraphs.transform as transform
from spgraphs import core
from conftest import (
    brute_force_bad_event_occurs,
    brute_force_bad_events,
    duplicating_tree,
    full_rescan_construction,
    incidence_lists,
    loop_fisher_yates,
    oracle_ends,
    oracle_lift_table,
    oracle_path_masks,
    oracle_swaps,
    replay_construction,
    shared_symbol_templates,
    shared_symbol_trees,
    unkeyed_scan,
)
from spgraphs import (
    ConstructionVerificationError,
    DocumentError,
    FacetSet,
    PermutationAssignment,
    ResamplingExhaustedError,
    Spg,
    SpgProperty,
    Strategy,
    SymbolTable,
    TransformConfig,
    TransformResult,
    bad_event_occurs,
    build_spindle_template,
    build_star_template,
    build_subdivision,
    check_dimension_reduction,
    check_localization,
    construct_with_resampling,
    estimate_bad_event_probability,
    find_bad_events,
    lift_facet,
    lll_sufficient,
    min_multiplier,
    parse,
    serialize,
    sweep_r,
    validate,
    verify_dimension_reduction_on_paths,
)


def fs(*elements):
    return FacetSet(elements)


SHARED_STAR = build_star_template(
    SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(2, 4)])


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
def star_paths(draw, min_r=2, max_r=8):
    """A degree-2 star on a few symbols and one row permutation per edge."""
    d = draw(st.integers(1, 3))
    pool = [FacetSet(c) for c in combinations(range(d + 3), d)]
    sets = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3,
                         unique=True))
    r = draw(st.integers(min_r, max_r))
    perms = [tuple(draw(st.permutations(range(1, r + 1)))) for _ in range(2)]
    return (*sets, r, *perms)


@given(star_paths())
@settings(max_examples=200, deadline=None)
def test_bad_event_occurs_matches_oracle(case):
    assert bad_event_occurs(*case) == brute_force_bad_event_occurs(*case)


def assert_same_outcome(template, config, oracle=replay_construction):
    expected = oracle(template, config)
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


# A result is its certificate, so no construction makes the graphs
# below: each is a tampered document, which parse refuses.

def _shared_star_doc():
    result = build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
    return result, json.loads(serialize(result))


def test_parsed_result_with_scrambled_path_raises():
    result, doc = _shared_star_doc()
    # swap the sets one and two steps out along edge 0's path: still a
    # valid graph, no longer a subdivision path
    a, b = result.edge_paths[0][1:3]
    vertices = doc["vertices"]
    vertices[a], vertices[b] = vertices[b], vertices[a]
    # still a valid graph: parse reads it as a plain one
    parse(json.dumps({**doc, "kind": "spg", "annotations": {}}))
    with pytest.raises(DocumentError,
                       match=rf"^vertices\[{a}\]: not as rebuilt"):
        parse(json.dumps(doc))


def test_path_running_the_wrong_way_raises():
    _, doc = _shared_star_doc()
    doc["annotations"]["edge_paths"][0].reverse()
    with pytest.raises(
            DocumentError,
            match=r"^annotations\.edge_paths\[0\]: not as rebuilt"):
        parse(json.dumps(doc))


def test_set_of_the_wrong_size_raises():
    result, doc = _shared_star_doc()
    elements = doc["vertices"][result.edge_paths[1][2]][0]
    assert elements[0] == 0  # a@1
    # without a@1 the set is the wrong size, and the graph invalid; as a
    # transform result the rebuild check refuses it first: the segment
    # that lost a@1 reads as row 2 again
    shrunk = json.loads(json.dumps(doc))
    del shrunk["vertices"][result.edge_paths[1][2]][0][0]
    with pytest.raises(DocumentError, match="^document violates graph "
                                            "invariants.*wrong-size-set"):
        parse(json.dumps({**shrunk, "kind": "spg", "annotations": {}}))
    with pytest.raises(DocumentError, match=r"^annotations\.edge_paths\[1\]: "
                                            r"not a subdivision path: \(2, 2\)"):
        parse(json.dumps(shrunk))
    # with a@2 in its place, path 1's second segment reads as row 2 again
    elements[0] = 1
    with pytest.raises(DocumentError, match=r"^annotations\.edge_paths\[1\]: "
                                            r"not a subdivision path: \(2, 2\)"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("other", [
    build_star_template(SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(3, 4)]),
    # the result's own template with its edges in the other order
    Spg(SHARED_STAR.symbols, 2, SHARED_STAR.vertices, SHARED_STAR.edges[::-1]),
], ids=["other-sets", "other-edge-order"])
def test_another_template_as_original_raises(other):
    result = build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (2, 1))))
    with pytest.raises(ValueError, match="^original: "):
        find_bad_events(result, other)


def test_construction_builds_once(monkeypatch):
    calls = []
    real = core._build_subdivision
    monkeypatch.setattr(core, "_build_subdivision",
                        lambda *args: calls.append(1) or real(*args))
    result = construct_with_resampling(SHARED_STAR, TransformConfig(r=4, seed=4))
    assert result.rounds_used == 2 and len(calls) == 1
    with pytest.raises(ResamplingExhaustedError):
        construct_with_resampling(
            SHARED_STAR, TransformConfig(r=2, seed=0, max_rounds=0))
    assert len(calls) == 1


def test_checks_of_a_built_result_build_nothing(monkeypatch):
    built = construct_with_resampling(replace(SHARED_STAR),
                                      TransformConfig(r=4, seed=4))
    for result in (built, parse(serialize(built))):
        calls = []
        for name in ("_build_subdivision", "_make_lift_base", "_LiftTable"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        assert find_bad_events(result, result.template) == ()
        assert check_localization(result).holds
        # no graph, no lift base and no lift table: the checks read the
        # result's template, which keeps its table at r
        assert calls == []
        monkeypatch.undo()


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("template, r, seed, max_rounds", [
    (SHARED_STAR, 4, 4, 1000),  # two rounds, then built
    (SHARED_STAR, 2, 0, 0),  # exhausted
    (build_spindle_template(3).spindle.spg, 4, 3, 1000),
], ids=["built", "exhausted", "spindle"])
def test_construction_makes_each_edges_swaps_once(monkeypatch, template, r,
                                                  seed, max_rounds, strategy):
    calls, tables = [], []
    real, table = core._make_lift_base, core._LiftTable
    monkeypatch.setattr(core, "_make_lift_base",
                        lambda spg: calls.append(spg) or real(spg))
    monkeypatch.setattr(core, "_LiftTable",
                        lambda *args: tables.append(args) or table(*args))
    # a fresh copy: the module constant may keep a lift base from earlier
    template = replace(template)
    config = TransformConfig(r=r, seed=seed, max_rounds=max_rounds,
                             strategy=strategy)
    try:
        rounds = construct_with_resampling(template, config).rounds_used
    except ResamplingExhaustedError as err:
        rounds = len(err.resample_log)
    assert rounds > 0
    # one lift base, which pairs each edge's swaps once, scaled to one
    # table at r for every round
    assert calls == [template]
    assert len(tables) == 1 and list(template._lift_tables) == [r]
    assert template._lift_base.swaps == [
        oracle_swaps(template.vertices[u][0], template.vertices[w][0], 1)
        for u, w in template.edges]


def test_public_entry_points_validate_the_template_once(monkeypatch):
    calls = []
    validate = core._validate
    monkeypatch.setattr(core, "_validate",
                        lambda spg: calls.append(spg) or validate(spg))
    # fresh copies: the module constant may keep a report from earlier
    template = replace(SHARED_STAR)
    result = construct_with_resampling(template, TransformConfig(r=4, seed=4))
    # the template alone: at r = 4 the empty scan certified the result,
    # so its verify_all reads the kept reports
    assert "_validity" in vars(result.spg)
    assert calls == [template]
    calls.clear()
    template = replace(SHARED_STAR)
    build_subdivision(template, 2, PermutationAssignment(((1, 2), (2, 1))))
    assert calls == [template]


# The two-row lemma: every hit lies within the first two rows walked out
# of the shared vertex, so the round loop and bad_event_occurs scan only
# those.

def outward_hits(out1, out2):
    """Every (k, l), k and l >= 1, with the sets k and l steps out within
    Hamming distance 2: no band."""
    return [(k, l) for k in range(1, len(out1)) for l in range(1, len(out2))
            if (out1[k] ^ out2[l]).bit_count() <= 2]


@given(star_paths(1, 12))
@settings(max_examples=300, deadline=None)
def test_every_hit_lies_in_the_first_three_rows(case):
    center, leaf1, leaf2, r, perm1, perm2 = case
    out1 = oracle_path_masks(center, leaf1, r, perm1)
    out2 = oracle_path_masks(center, leaf2, r, perm2)
    m1, m2 = len(center.without(leaf1)), len(center.without(leaf2))
    for k, l in outward_hits(out1, out2) + core._band_hits(out1, out2):
        assert k <= 2 * m1 and l <= 2 * m2


@given(raw_subdivisions())
@settings(max_examples=150, deadline=None)
def test_oracle_witnesses_lie_in_the_first_three_rows(case):
    template, result = case
    family = [vertex[0] for vertex in result.spg.vertices]
    for event in brute_force_bad_events(result, template):
        for ei, fs in zip(event.edges, event.witness):
            u, w = template.edges[ei]
            path = [family[idx] for idx in result.edge_paths[ei]]
            if w == event.vertex:
                u, w, path = w, u, path[::-1]
            m = len(template.vertices[u][0].without(template.vertices[w][0]))
            assert path.index(fs) <= 2 * m


@given(star_paths(1, 12))
@settings(max_examples=300, deadline=None)
def test_end_masks_are_the_first_and_last_rows(case):
    a, a2, _, r, perm, _ = case
    full = oracle_path_masks(a, a2, r, perm)
    edge = Spg.build(SymbolTable.alphabetic(len(a) + 3), len(a), [[a], [a2]],
                     [(0, 1)])
    table = core._lift_table(edge, r)
    head, tail = (core._out_masks(table, (0, 1), 0, perm, back)
                  for back in (0, 1))
    steps = min(2, r) * len(a.without(a2))
    assert head == full[:steps + 1]
    assert tail == full[::-1][:steps + 1]
    if r <= 2:
        assert (head, tail) == (full, full[::-1])


@given(star_paths(9, 12))
@settings(max_examples=200, deadline=None)
def test_bad_event_occurs_matches_oracle_at_r_9_to_12(case):
    assert bad_event_occurs(*case) == brute_force_bad_event_occurs(*case)


@given(shared_symbol_templates(), st.integers(7, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(Strategy), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_construction_matches_replay_at_r_7_to_12(template, r, seed, strategy,
                                                  max_rounds):
    assert_same_outcome(template, TransformConfig(
        r=r, seed=seed, max_rounds=max_rounds, strategy=strategy))


def test_pinned_star_hit_in_the_second_row():
    # the only hit is one step out along path 1 (m1 = 2) and two along
    # path 2 (m2 = 1): inside path 2's second row
    case = (fs(0, 2), fs(1, 3), fs(1, 2), 4, (3, 1, 4, 2), (2, 3, 4, 1))
    assert bad_event_occurs(*case)
    assert brute_force_bad_event_occurs(*case)


@pytest.mark.parametrize("sets, perms", [
    # the hit is in the second row out of the centre's end of edge 0,
    # the tail of that edge's path
    ((fs(1, 2), fs(0, 2), fs(1, 3)), ((2, 1, 3, 4), (3, 2, 1, 4))),
    # ... and at the head of edge 1's path
    ((fs(1, 2), fs(3, 4), fs(2, 3)), ((3, 1, 2, 4), (1, 4, 3, 2))),
])
def test_pinned_path_hit_in_the_second_row(sets, perms):
    template = Spg.build(SymbolTable.alphabetic(5), 2, [[s] for s in sets],
                         [(0, 1), (1, 2)])
    result = build_subdivision(template, 4, PermutationAssignment(perms))
    events = core._scan_bad_events(template, 4, perms)
    assert events and events == find_bad_events(result, template)
    assert events == unkeyed_scan(template.edges, incidence_lists(template),
                                  oracle_ends(template, 4, perms))


@pytest.mark.parametrize("r", [87, 1000])
def test_bad_event_occurs_scans_at_most_three_rows(monkeypatch, r):
    seen = []  # per walk: (the vertex walked out of, the masks walked)
    real = core._out_masks

    def counting_walk(table, edge, ei, perm, back):
        masks = real(table, edge, ei, perm, back)
        seen.append((edge[back], len(masks)))
        return masks

    monkeypatch.setattr(core, "_out_masks", counting_walk)
    center, leaf1, leaf2 = fs(0, 1, 2), fs(3, 4, 5), fs(0, 6, 7)
    perm = tuple(range(r, 0, -1))
    # keys (1, 2) and (2, 1): each star is new, so each pair is walked
    for perm1, perm2 in [(perm, perm), (perm, (r - 1, r, *perm[2:]))]:
        bad_event_occurs(center, leaf1, leaf2, r, perm1, perm2)
    # 2 * m + 1 masks out of the centre, vertex 0 (m = 3 toward leaf 1,
    # 2 toward leaf 2); none out of a leaf, which has one edge
    assert seen == [(0, 2 * 3 + 1), (0, 2 * 2 + 1)] * 2
    # key (3, 4), four distinct rows, is decided unwalked
    seen.clear()
    assert not bad_event_occurs(center, leaf1, leaf2, r, perm, perm[::-1])
    assert seen == []


@pytest.mark.parametrize("r, perm", [
    # two of five rows: the distance law alone does not see it
    (5, (1, 2)),
    (87, tuple(range(1, 87))),  # one row short
    (87, (1, 2, 3, *range(3, 87))),  # row 3 repeated, row 87 missing
], ids=["short-at-5", "short-at-87", "repeated-row-after-position-3"])
def test_non_permutation_raises_at_every_r(r, perm):
    full = tuple(range(1, r + 1))
    for perms in [(perm, full), (full, perm)]:
        with pytest.raises(ValueError, match="not a subdivision path"):
            bad_event_occurs(fs(0, 1), fs(2, 3), fs(4, 5), r, *perms)


@pytest.mark.parametrize("leaf2, message", [
    (fs(2, 3), "leaves must differ"),
    (fs(2, 3, 4), "uniform size"),
    (fs(0, 1), "differ from the center"),
])
def test_bad_event_occurs_refuses_stars_outside_the_lemma(leaf2, message):
    with pytest.raises(ValueError, match=message):
        bad_event_occurs(fs(0, 1), fs(2, 3), leaf2, 4, (1, 2, 3, 4), (1, 2, 3, 4))


def test_bad_event_occurs_refuses_the_center_as_first_leaf():
    with pytest.raises(ValueError, match="differ from the center"):
        bad_event_occurs(fs(0, 1), fs(0, 1), fs(2, 3), 4, (1, 2, 3, 4), (1, 2, 3, 4))


# Each precondition has one check, so every caller refuses with one text.
_MULTIPLIER = ("row multiplier must be at least 2 for the lift to satisfy "
               "the end-point count")
_NOT_A_PERMUTATION = r"not a subdivision path: \(1, 1\) is not a permutation of 1\.\.2"
# entries equal to 1 and 2 that are no int rows: a float would fail only
# in the walk, and a bool would be kept in the result's perms
_FLOAT_ROWS = (r"not a subdivision path: \(1\.0, 2\.0\) is not a "
               r"permutation of 1\.\.2")
_BOOL_ROWS = (r"not a subdivision path: \(True, 2\) is not a permutation "
              r"of 1\.\.2")
_ROWS = "row multiplier must be positive"


@pytest.mark.parametrize("call, message", [
    (lambda: TransformConfig(r=1, seed=0), _MULTIPLIER),
    (lambda: build_subdivision(
        SHARED_STAR, 1, PermutationAssignment(((1,), (1,)))), _MULTIPLIER),
    (lambda: sweep_r(SHARED_STAR, [4, 1], 1, 0), _MULTIPLIER),
    (lambda: estimate_bad_event_probability(
        fs(0, 1), fs(2, 3), fs(2, 4), 1, 10, 0), _MULTIPLIER),
    (lambda: TransformResult(SHARED_STAR, 2, ((1, 2), (1, 1))),
     _NOT_A_PERMUTATION),
    (lambda: TransformResult(SHARED_STAR, 2, ((1, 2),) * 3),
     "assignment covers 3 edges, graph has 2"),
    (lambda: TransformResult(SHARED_STAR, 2, ((1, 2),)),
     "assignment covers 1 edges, graph has 2"),
    (lambda: TransformResult(SHARED_STAR, 1, ((1,), (1,))), _MULTIPLIER),
    (lambda: build_subdivision(
        SHARED_STAR, 2, PermutationAssignment(((1, 2), (1, 1)))),
     _NOT_A_PERMUTATION),
    (lambda: bad_event_occurs(fs(0, 1), fs(2, 3), fs(2, 4), 2, (1, 2), (1, 1)),
     _NOT_A_PERMUTATION),
    (lambda: TransformResult(SHARED_STAR, 2, ((1.0, 2.0), (1, 2))),
     _FLOAT_ROWS),
    (lambda: TransformResult(SHARED_STAR, 2, ((1, 2), (True, 2))), _BOOL_ROWS),
    (lambda: bad_event_occurs(
        fs(0, 1), fs(2, 3), fs(2, 4), 2, (1.0, 2.0), (1, 2)), _FLOAT_ROWS),
    (lambda: bad_event_occurs(
        fs(0, 1), fs(2, 3), fs(2, 4), 2, (1, 2), (True, 2)), _BOOL_ROWS),
    (lambda: bad_event_occurs(fs(0, 1), fs(2, 3), fs(2, 4), 1, (1,), (1,)),
     _MULTIPLIER),
    (lambda: estimate_bad_event_probability(
        fs(0, 1), fs(2, 3), fs(2, 3), 4, 10, 0), "leaves must differ"),
    (lambda: estimate_bad_event_probability(
        fs(0, 1), fs(0, 1), fs(2, 3), 4, 10, 0),
     "leaves must differ from the center"),
    (lambda: estimate_bad_event_probability(
        fs(0, 1), fs(2, 3), fs(2, 3, 4), 4, 10, 0),
     "star sets must have uniform size"),
    (lambda: verify_dimension_reduction_on_paths(1, 2, 1, -1),
     "seed must be non-negative, got -1"),
    (lambda: verify_dimension_reduction_on_paths(1, 2, 1, 1, budget=-5),
     "budget must be positive"),
    (lambda: check_dimension_reduction(SHARED_STAR, 0),
     "budget must be positive"),
    (lambda: lift_facet(fs(0, 1), 1), _MULTIPLIER),
    (lambda: lift_facet(fs(0, 1), 0), _MULTIPLIER),
    (lambda: lift_facet(fs(0, 1), -1), _MULTIPLIER),
    (lambda: lll_sufficient(3, 0), _ROWS),
    (lambda: SymbolTable.alphabetic(2).lifted(0), _ROWS),
    (lambda: min_multiplier(-1), "maximum degree cannot be negative"),
    (lambda: lll_sufficient(-1, 87), "maximum degree cannot be negative"),
], ids=["config", "subdivision-r", "sweep", "estimator-r",
        "assignment", "assignment-count", "result-count", "result-r",
        "subdivision-perm", "bad-event", "result-float-rows",
        "result-bool-rows", "bad-event-float-rows", "bad-event-bool-rows",
        "bad-event-r",
        "estimator-equal-leaves", "estimator-centre-leaf",
        "estimator-sizes", "reduction-seed", "reduction-budget",
        "check-budget", "lift-r", "lift-zero", "lift-negative",
        "lll-rows", "table-rows", "min-multiplier-delta", "lll-delta"])
def test_each_precondition_has_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# A row multiplier that is not an int is refused by both checks, before
# a numpy int reaches a document as r * d or a float reaches range().
@pytest.mark.parametrize("r", [np.int64(4), 4.0, True],
                         ids=["numpy-int", "float", "bool"])
@pytest.mark.parametrize("call", [
    lambda r: TransformConfig(r=r, seed=1),
    lambda r: TransformResult(SHARED_STAR, r, ((1, 2, 3, 4),) * 2),
    lambda r: sweep_r(SHARED_STAR, [r], 1, 0),
    lambda r: SymbolTable.alphabetic(2).lifted(r),
    lambda r: lll_sufficient(3, r),
    lambda r: lift_facet(fs(0, 1), r),
], ids=["config", "result", "sweep", "table", "lll", "lift"])
def test_a_row_multiplier_must_be_an_int(call, r):
    with pytest.raises(ValueError, match="^row multiplier must be an int$"):
        call(r)


# A count argument that is not an int is refused by one check, which
# names it, before numpy or range() meets the value.
_STAR = (fs(0, 1), fs(2, 3), fs(2, 4), 4)


@pytest.mark.parametrize("value", [1.5, True, "7", None],
                         ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize("name, call", [
    ("seed", lambda v: TransformConfig(r=4, seed=v)),
    ("max_rounds", lambda v: TransformConfig(r=4, seed=1, max_rounds=v)),
    ("trials", lambda v: sweep_r(SHARED_STAR, [4], v, 0)),
    ("seed", lambda v: sweep_r(SHARED_STAR, [4], 1, v)),
    ("max_rounds", lambda v: sweep_r(SHARED_STAR, [4], 1, 0, max_rounds=v)),
    ("trials", lambda v: estimate_bad_event_probability(*_STAR, v, 0)),
    ("seed", lambda v: estimate_bad_event_probability(*_STAR, 10, v)),
    ("trials", lambda v: verify_dimension_reduction_on_paths(1, 2, v, 1)),
    ("seed", lambda v: verify_dimension_reduction_on_paths(1, 2, 1, v)),
    ("max_rounds", lambda v: verify_dimension_reduction_on_paths(
        1, 2, 1, 1, max_rounds=v)),
    ("budget", lambda v: verify_dimension_reduction_on_paths(
        1, 2, 1, 1, budget=v)),
    ("budget", lambda v: check_dimension_reduction(SHARED_STAR, v)),
    ("delta", min_multiplier),
    ("delta", lambda v: lll_sufficient(v, 87)),
], ids=["config-seed", "config-max-rounds", "sweep-trials", "sweep-seed",
        "sweep-max-rounds", "estimator-trials", "estimator-seed",
        "reduction-trials", "reduction-seed", "reduction-max-rounds",
        "reduction-budget", "check-budget", "min-multiplier-delta",
        "lll-delta"])
def test_a_count_must_be_an_int(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int$"):
        call(value)


# Rounds after the first visit only the endpoints of the redrawn edges and
# rescan only the pairs holding one, and draw every redrawn permutation in
# one call: the outcome is that of a full rescan with one scalar draw loop
# per edge.

@given(st.one_of(shared_symbol_templates(), shared_symbol_trees()),
       st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(Strategy),
       st.integers(0, 4))
@example(duplicating_tree(), 2, 0, Strategy.RESAMPLE, 3)
@settings(max_examples=150, deadline=None)
def test_construction_matches_full_rescans(template, r, seed, strategy,
                                           max_rounds):
    assert_same_outcome(template, TransformConfig(
        r=r, seed=seed, max_rounds=max_rounds, strategy=strategy),
        oracle=full_rescan_construction)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("r, failed", [
    (2, [SpgProperty.VALIDITY]),
    (3, [SpgProperty.ADJACENCY, SpgProperty.STRONG_ADJACENCY]),
])
def test_a_result_that_fails_verification_raises_with_its_reports(
        r, failed, strategy):
    with pytest.raises(ConstructionVerificationError) as err:
        construct_with_resampling(duplicating_tree(), TransformConfig(
            r=r, seed=0, strategy=strategy))
    assert [rep.property for rep in err.value.failed] == failed
    if r == 2:
        # the other checks refuse an invalid graph: validity comes alone
        (report,) = err.value.failed
        assert [w[0] for w in report.witnesses] == ["duplicate-set"]


class _Visits(list):
    """Incidence lists that record which vertices are looked up."""

    def __init__(self, incidence, visited):
        super().__init__(incidence)
        self.visited = visited

    def __getitem__(self, v):
        self.visited.append(v)
        return super().__getitem__(v)


class _Reads(list):
    """Permutations that record in ``log`` the index of each one read:
    the scan reads perms[e1] and perms[e2] once for each pair it
    visits, before its key decides it."""

    def __init__(self, perms, log):
        super().__init__(perms)
        self.log = log

    def __getitem__(self, ei):
        self.log.append(ei)
        return super().__getitem__(ei)


def test_rounds_after_the_first_examine_only_redrawn_pairs(monkeypatch):
    template = build_spindle_template(3).spindle.spg
    verdicts = template._key_verdicts
    scans = []  # per scan: (redrawn, the edge pairs visited)
    visits = []  # per scan: the vertices whose incidence list is read
    reads = []  # every vertex whose incidence list is read, in turn
    incidence = vars(template)["_incidence"] = _Visits(
        template._incidence, reads)
    real_scan = core._scan_bad_events

    def counting_scan(spg, r, perms, redrawn=None):
        assert spg is template and spg._key_verdicts is verdicts
        read, first = [], len(reads)
        events = real_scan(spg, r, _Reads(perms, read), redrawn)
        visits.append(reads[first:])
        scans.append((redrawn, list(zip(read[::2], read[1::2]))))
        return events

    monkeypatch.setattr(transform, "_scan_bad_events", counting_scan)
    result = construct_with_resampling(template, TransformConfig(r=4, seed=1))
    assert result.rounds_used == len(scans) - 1 >= 2

    incident = [[] for _ in template.vertices]
    for ei, (u, w) in enumerate(template.edges):
        incident[u].append(ei)
        incident[w].append(ei)
    all_pairs = [pair for edge_ids in incident
                 for pair in combinations(edge_ids, 2)]
    assert scans[0][0] is None and scans[0][1] == all_pairs
    assert visits[0] == list(range(len(template.vertices)))
    # every scan reads the one set of incidence lists the template keeps
    assert vars(template)["_incidence"] is incidence
    for (_, events), (redrawn, examined), visited in zip(
            result.resample_log, scans[1:], visits[1:]):
        assert redrawn == {ei for ev in events for ei in ev.edges}
        assert examined == [pair for pair in all_pairs
                            if redrawn.intersection(pair)]
        assert len(examined) < len(all_pairs)
        assert visited == sorted({v for ei in redrawn
                                  for v in template.edges[ei]})


# Each pair of the scan is decided by its oriented two-row key, and each
# key's verdict, clean or its first hit, is kept on the template for
# every r: the events and witnesses are those of the scan without keys.

@st.composite
def shared_symbol_cycles(draw):
    """Random singleton cycles through k >= 3 sets on a few symbols,
    perhaps with a chord, vertex labels shuffled: each vertex is the
    lower or the higher endpoint of each of its edges."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 2, d + 3))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    k = draw(st.integers(3, min(len(pool), 6)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                         unique=True))
    at = draw(st.permutations(range(k)))
    edges = [(at[i], at[(i + 1) % k]) for i in range(k)]
    if k > 3 and draw(st.booleans()):
        edges.append((at[0], at[2]))
    return Spg.build(SymbolTable.alphabetic(n), d, [[s] for s in sets], edges)


def pair_key(perm1, back1, perm2, back2):
    """The oriented two-row key (s(b1), s(b2)) of two paths at a common
    vertex V: the rows each leaves V by (the last two, last first, for
    a path walked into V), relabelled so that path 1's are 1, 2 and
    path 2's others 3, 4 in order of appearance."""
    (a1, a2), (b1, b2) = ((p[-1], p[-2]) if back else (p[0], p[1])
                          for p, back in ((perm1, back1), (perm2, back2)))
    s = {a1: 1, a2: 2}
    for row in (b1, b2):
        s.setdefault(row, len(s) + 1)
    return s[b1], s[b2]


# the codes of the 6 keys kept, 4 * (s(b1) - 1) + s(b2) - 1: key (3, 4)
# is never bad, so it is never kept
KEY_CODES = {4 * (k1 - 1) + k2 - 1 for k1, k2 in
             [(1, 2), (2, 1), (1, 3), (2, 3), (3, 1), (3, 2)]}


def pairs_at_vertices(template):
    """The (e1, e2) of every pair of edges at a common vertex."""
    return {(e1, e2) for at in incidence_lists(template)
            for (e1, _), (e2, _) in combinations(at, 2)}


def assert_bounded(verdicts, template):
    """``verdicts`` holds keys of pairs at a vertex, only the 6 keys kept,
    and for each key None (clean) or a first hit (k, l), k and l >= 1."""
    pairs = pairs_at_vertices(template)
    assert {key[:2] for key in verdicts} <= pairs
    assert {key[2] for key in verdicts} <= KEY_CODES
    for hit in verdicts.values():
        assert hit is None or (len(hit) == 2 and min(hit) >= 1)


@given(st.one_of(shared_symbol_trees(), shared_symbol_templates(),
                 shared_symbol_cycles()),
       st.lists(st.integers(2, 8), min_size=2, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_keyed_scan_matches_the_unkeyed_oracle(template, rs, data):
    edges = template.edges
    incidence = incidence_lists(template)
    # one verdict table for every r and draw
    vars(template).pop("_key_verdicts", None)
    for r in rs:
        for _ in range(data.draw(st.integers(1, 4))):
            perms = [tuple(data.draw(st.permutations(range(1, r + 1))))
                     for _ in edges]
            redrawn = data.draw(st.none() | st.frozensets(
                st.sampled_from(range(len(edges))), min_size=1))
            expected = unkeyed_scan(
                edges, incidence, oracle_ends(template, r, perms), redrawn)
            # the second scan reads a kept verdict for every pair it
            # visits: clean, or bad and naming its witness by its first hit
            for _ in range(2):
                assert core._scan_bad_events(
                    template, r, perms, redrawn) == expected
    assert_bounded(template._key_verdicts, template)


@given(st.one_of(shared_symbol_trees(), shared_symbol_cycles()),
       st.integers(4, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_the_oracles_find_no_key_34_pair_bad(template, r, data):
    perms = [tuple(data.draw(st.permutations(range(1, r + 1))))
             for _ in template.edges]
    result = build_subdivision(template, r,
                               PermutationAssignment(tuple(perms)))
    edges = template.edges
    for events in (unkeyed_scan(edges, incidence_lists(template),
                                oracle_ends(template, r, perms)),
                   brute_force_bad_events(result, template)):
        for event in events:
            e1, e2 = event.edges
            assert pair_key(perms[e1], edges[e1][1] == event.vertex,
                            perms[e2], edges[e2][1] == event.vertex) != (3, 4)


def test_no_key_34_pair_is_walked_or_band_scanned(monkeypatch):
    template = replace(build_spindle_template(4).spindle.spg)
    edges = template.edges
    visited = []  # every pair visited, as its two edges
    walked = []  # per walk: (edge, perm, end, masks)
    scanned = []  # per band scan: the two walks it reads
    real_scan, real_walk, real_hits = (
        core._scan_bad_events, core._out_masks, core._band_hits)

    def counting_scan(spg, r, perms, redrawn=None):
        read = []
        events = real_scan(spg, r, _Reads(perms, read), redrawn)
        visited.extend((e1, e2, perms[e1], perms[e2])
                       for e1, e2 in zip(read[::2], read[1::2]))
        return events

    def counting_walk(table, edge, ei, perm, back):
        masks = real_walk(table, edge, ei, perm, back)
        walked.append((ei, perm, back, masks))
        return masks

    def counting_hits(out1, out2):
        # a band scan reads the two ends just walked
        assert out1 is walked[-2][3] and out2 is walked[-1][3]
        scanned.append((walked[-2], walked[-1]))
        return real_hits(out1, out2)

    monkeypatch.setattr(transform, "_scan_bad_events", counting_scan)
    monkeypatch.setattr(core, "_out_masks", counting_walk)
    monkeypatch.setattr(core, "_band_hits", counting_hits)
    sweep_r(template, [4, 6, 8, 12, 16], 3, seed=1)

    def key(e1, e2, perm1, perm2):
        (v,) = set(edges[e1]) & set(edges[e2])
        return pair_key(perm1, edges[e1][1] == v, perm2, edges[e2][1] == v)

    # the probes sweep visits 743 pairs of key (3, 4) ...
    assert sum(key(*pair) == (3, 4) for pair in visited) == 743
    # ... and walks none of them, so it band-scans none of them
    walks = list(zip(walked[::2], walked[1::2]))
    assert len(walks) == len(walked) // 2 == 482
    for (e1, perm1, _, _), (e2, perm2, _, _) in walks:
        assert key(e1, e2, perm1, perm2) != (3, 4)
    assert len(scanned) == 332


def test_an_edge_walked_into_v_is_keyed_on_its_last_rows():
    # at V = 1 edge 0 ends and edge 1 starts; the first draw is clean and
    # the second bad, and their keys differ only by edge 0's last rows
    # (4, 3): by its first rows (1, 2) both would be (3, 1)
    template = Spg.build(SymbolTable.alphabetic(3), 1,
                         [[fs(0)], [fs(1)], [fs(2)]], [(0, 1), (1, 2)])
    incidence = incidence_lists(template)
    for perms in [((1, 2, 3, 4), (3, 1, 2, 4)), ((1, 2, 3, 4), (4, 1, 2, 3))]:
        expected = unkeyed_scan(template.edges, incidence,
                                oracle_ends(template, 4, perms))
        assert core._scan_bad_events(template, 4, perms) == expected
    # key (2, 3) clean; key (1, 3) bad, its first hit one step out of V
    # along each path
    assert expected and template._key_verdicts == {
        (0, 1, 4 * 1 + 2): None, (0, 1, 4 * 0 + 2): (1, 1)}


class _Verdicts(dict):
    """A template's kept key verdicts that record in ``log`` each lookup,
    one per pair the scan visits whose key is not (3, 4), as
    ("lookup", key, "clean", "bad" or "new")."""

    def __init__(self, verdicts, log):
        super().__init__(verdicts)
        self.log = log

    def get(self, key, default=None):
        state = ("new" if key not in self else
                 "clean" if self[key] is None else "bad")
        self.log.append(("lookup", key, state))
        return super().get(key, default)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_second_construction_walks_no_pair_known_clean(monkeypatch, seed):
    template = build_spindle_template(3).spindle.spg
    first = construct_with_resampling(template, TransformConfig(r=4, seed=1))
    calls = []  # in order: ("lookup", key, state), ("walk", ei), ("hits",)
    vars(template)["_key_verdicts"] = _Verdicts(template._key_verdicts, calls)
    real_walk, real_hits = core._out_masks, core._band_hits
    monkeypatch.setattr(core, "_out_masks", lambda table, edge, ei, perm, back: (
        calls.append(("walk", ei)) or real_walk(table, edge, ei, perm, back)))
    monkeypatch.setattr(core, "_band_hits", lambda out1, out2: (
        calls.append(("hits",)) or real_hits(out1, out2)))
    second = construct_with_resampling(template, TransformConfig(r=4, seed=seed))
    lookups = [call for call in calls if call[0] == "lookup"]
    assert any(state == "clean" for _, _, state in lookups)
    following = calls[1:] + [("lookup",)]
    for call, after in zip(calls, following):
        if call[0] == "lookup" and call[2] == "clean":
            # after a known clean key the next call is the next lookup
            assert after[0] == "lookup"
    # only a key not yet decided is band-scanned, once
    assert calls.count(("hits",)) == sum(
        state == "new" for _, _, state in lookups)
    if seed == 1:
        # the same draws: every key is known, so nothing is band-scanned,
        # and only the edges of bad pairs are walked, to name witnesses
        assert second.resample_log == first.resample_log
        events = [ev for _, round_events in first.resample_log
                  for ev in round_events]
        assert calls.count(("hits",)) == 0
        assert sum(state == "bad" for _, _, state in lookups) == len(events)
        assert {call[1] for call in calls if call[0] == "walk"} == {
            ei for ev in events for ei in ev.edges}


def test_the_kept_keys_stay_within_six_a_pair():
    template = build_spindle_template(4).spindle.spg
    sweep_r(template, list(range(4, 17)), 3, seed=1)
    kept = dict(template._key_verdicts)
    assert_bounded(kept, template)
    assert {key[:2] for key in kept} == pairs_at_vertices(template)
    # more trials, rounds and r values add no key beyond the bound and
    # change no verdict kept
    sweep_r(template, [2, 3, 87], 3, seed=2)
    assert kept.items() <= template._key_verdicts.items()
    assert_bounded(template._key_verdicts, template)


def test_the_probes_sweep_walks_only_the_ends_it_reads(monkeypatch):
    # the benchmark's sweep: every list walked is read, by a band scan of
    # a key not yet decided or to name the witness of a key known bad,
    # so no end of a path is walked and left unread
    template = replace(build_spindle_template(4).spindle.spg)
    calls = {"walk": 0, "hits": 0, "base": 0}
    real_walk, real_hits, real_base = (
        core._walk, core._band_hits, core._make_lift_base)

    def counting_walk(*args):
        calls["walk"] += 1
        return real_walk(*args)

    def counting_hits(out1, out2):
        calls["hits"] += 1
        return real_hits(out1, out2)

    def counting_base(spg):
        calls["base"] += 1
        return real_base(spg)

    monkeypatch.setattr(core, "_walk", counting_walk)
    monkeypatch.setattr(core, "_band_hits", counting_hits)
    monkeypatch.setattr(core, "_make_lift_base", counting_base)
    # at r >= 4 every trial is certified by its last scan: no graph is
    # built, so every walk is the scan's.  Of its 550 pairs not known
    # clean, 68 have key (3, 4) and 150 a key already known bad.
    sweep_r(template, [4, 6, 8, 12, 16], 3, seed=1)
    assert calls == {"walk": 2 * (332 + 150), "hits": 332, "base": 1}


@given(st.one_of(shared_symbol_templates(), shared_symbol_trees(),
                 shared_symbol_cycles()))
@settings(max_examples=40, deadline=None)
def test_each_lift_table_is_its_lift_base_scaled(template):
    for r in range(2, 91):
        assert core._lift_table(template, r) == oracle_lift_table(template, r)
    assert sorted(template._lift_tables) == list(range(2, 91))


# Each Monte-Carlo trial is decided by the pattern of its first two rows.

@st.composite
def random_stars(draw):
    """A centre and two leaves of one size on a few symbols, so that the
    leaves may share symbols with each other and with the centre."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 2, 3 * d + 2))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    return draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3,
                         unique=True))


@given(random_stars(), st.one_of(st.integers(2, 20), st.just(87)),
       st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_estimate_matches_per_trial_loop(star, r, trials, seed):
    est = estimate_bad_event_probability(*star, r, trials, seed)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        p1, p2 = loop_fisher_yates(rng, r), loop_fisher_yates(rng, r)
        hits += bad_event_occurs(*star, r, p1, p2)
    assert est.occurrences == hits


@pytest.mark.parametrize("r, keys", [(2, 2), (3, 6), (4, 7), (87, 7)])
def test_estimate_decides_each_row_pattern_once(monkeypatch, r, keys):
    calls = []  # per star scan: its permutations
    real = transform._scan_bad_events

    def counting_scan(spg, r, perms, redrawn=None):
        calls.append(tuple(perms))
        return real(spg, r, perms, redrawn)

    monkeypatch.setattr(transform, "_scan_bad_events", counting_scan)
    estimate_bad_event_probability(
        fs(0, 1), fs(2, 3), fs(2, 4), r, 20_000, seed=5)
    assert len(calls) == len(set(calls)) == keys
    assert all(perm1 == (1, 2) for perm1, _ in calls)
