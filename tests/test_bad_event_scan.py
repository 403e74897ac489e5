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
    loop_fisher_yates,
    oracle_path_masks,
    replay_construction,
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
    check_localization,
    construct_with_resampling,
    estimate_bad_event_probability,
    find_bad_events,
    lll_sufficient,
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
        for name in ("_build_subdivision", "_swaps"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        assert find_bad_events(result, result.template) == ()
        assert check_localization(result).holds
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
    calls = []
    real = core._swaps
    monkeypatch.setattr(core, "_swaps",
                        lambda *args: calls.append(args) or real(*args))
    # a fresh copy: the module constant may keep a lift table from earlier
    template = replace(template)
    config = TransformConfig(r=r, seed=seed, max_rounds=max_rounds,
                             strategy=strategy)
    try:
        rounds = construct_with_resampling(template, config).rounds_used
    except ResamplingExhaustedError as err:
        rounds = len(err.resample_log)
    assert rounds > 0
    assert calls == [(template.vertices[u][0], template.vertices[w][0], r)
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
    head, tail = core._end_masks(core._lift_table(edge, r), (0, 1), 0, perm)
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
    table = core._lift_table(template, 4)
    ends = [core._end_masks(table, edge, ei, p)
            for ei, (edge, p) in enumerate(zip(template.edges, perms))]
    events = core._scan_bad_events(template.edges, 3, ends)
    assert events and events == find_bad_events(result, template)


@pytest.mark.parametrize("r", [87, 1000])
def test_bad_event_occurs_scans_at_most_three_rows(monkeypatch, r):
    seen = []
    real = transform._scan_bad_events

    def counting_scan(edges, num_vertices, ends):
        seen.append([(len(from_u), len(from_w)) for from_u, from_w in ends])
        return real(edges, num_vertices, ends)

    monkeypatch.setattr(transform, "_scan_bad_events", counting_scan)
    center, leaf1, leaf2 = fs(0, 1, 2), fs(3, 4, 5), fs(0, 6, 7)
    perm = tuple(range(r, 0, -1))
    for perm1, perm2 in [(perm, perm), (perm, perm[::-1])]:
        bad_event_occurs(center, leaf1, leaf2, r, perm1, perm2)
    # 2 * m + 1 masks out of the centre (m = 3 toward leaf 1, 2 toward
    # leaf 2); none out of a leaf, which has one edge
    assert seen == [[(2 * 3 + 1, 0), (2 * 2 + 1, 0)]] * 2


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
    (lambda: lll_sufficient(3, 0), _ROWS),
    (lambda: SymbolTable.alphabetic(2).lifted(0), _ROWS),
], ids=["config", "subdivision-r", "sweep", "estimator-r",
        "assignment", "assignment-count", "result-count", "result-r",
        "subdivision-perm", "bad-event",
        "estimator-equal-leaves", "estimator-centre-leaf",
        "estimator-sizes", "reduction-seed", "lll-rows", "table-rows"])
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
], ids=["config", "result", "sweep", "table", "lll"])
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
], ids=["config-seed", "config-max-rounds", "sweep-trials", "sweep-seed",
        "sweep-max-rounds", "estimator-trials", "estimator-seed",
        "reduction-trials", "reduction-seed", "reduction-max-rounds"])
def test_a_count_must_be_an_int(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int$"):
        call(value)


# Rounds after the first rescan only the pairs holding a redrawn edge,
# and draw every redrawn permutation in one call: the outcome is that of
# a full rescan with one scalar draw loop per edge.

@st.composite
def shared_symbol_trees(draw):
    """Random singleton trees on a few symbols, vertex labels shuffled."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 3))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    k = draw(st.integers(2, min(len(pool), 7)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                         unique=True))
    at = draw(st.permutations(range(k)))
    edges = [(at[draw(st.integers(0, i - 1))], at[i]) for i in range(1, k)]
    return Spg.build(SymbolTable.alphabetic(n), d, [[s] for s in sets], edges)


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


def test_rounds_after_the_first_examine_only_redrawn_pairs(monkeypatch):
    template = build_spindle_template(3).spindle.spg
    scans = []  # per scan: (redrawn, the edge pairs examined)
    edge_of = {}
    real_scan, real_hits = core._scan_bad_events, core._band_hits

    def counting_scan(edges, num_vertices, ends, redrawn=None):
        edge_of.clear()
        for ei, (from_u, from_w) in enumerate(ends):
            edge_of[id(from_u)] = edge_of[id(from_w)] = ei
        scans.append((redrawn, []))
        return real_scan(edges, num_vertices, ends, redrawn)

    def counting_hits(out1, out2):
        scans[-1][1].append((edge_of[id(out1)], edge_of[id(out2)]))
        return real_hits(out1, out2)

    monkeypatch.setattr(transform, "_scan_bad_events", counting_scan)
    monkeypatch.setattr(core, "_band_hits", counting_hits)
    result = construct_with_resampling(template, TransformConfig(r=4, seed=1))
    assert result.rounds_used == len(scans) - 1 >= 2

    incident = [[] for _ in template.vertices]
    for ei, (u, w) in enumerate(template.edges):
        incident[u].append(ei)
        incident[w].append(ei)
    all_pairs = [pair for edge_ids in incident
                 for pair in combinations(edge_ids, 2)]
    assert scans[0][0] is None and scans[0][1] == all_pairs
    for (_, events), (redrawn, examined) in zip(result.resample_log, scans[1:]):
        assert redrawn == {ei for ev in events for ei in ev.edges}
        assert examined == [pair for pair in all_pairs
                            if redrawn.intersection(pair)]
        assert len(examined) < len(all_pairs)


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
    calls = []
    real = transform._star_bad_event
    monkeypatch.setattr(transform, "_star_bad_event",
                        lambda *args: calls.append(args[3:]) or real(*args))
    estimate_bad_event_probability(
        fs(0, 1), fs(2, 3), fs(2, 4), r, 20_000, seed=5)
    assert len(calls) == len(set(calls)) == keys
    assert all(perm1 == (1, 2) for perm1, _ in calls)
