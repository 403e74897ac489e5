"""Unit and property tests for the SPG domain types and verifiers."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TupleFacetSet,
    _sorted_witnesses,
    arbitrary_spgs,
    brute_force_endpoint_violations,
    loop_facet_mask,
    loop_mask_elements,
    loop_validate,
    restrict_dimension_reduction,
    spg_instances,
    wide_spg_instances,
)
from spgraphs import (
    BudgetExceededError,
    FacetSet,
    InvalidSpgError,
    Spg,
    Spindle,
    SymbolTable,
    TransformConfig,
    build_exponential_spindle,
    build_spindle_template,
    check_adjacency,
    check_connectivity,
    check_dimension_reduction,
    check_endpoint_count,
    check_partition,
    check_singleton,
    check_strong_adjacency,
    construct_with_resampling,
    graph_distance,
    max_degree,
    restrict,
    validate,
)
from spgraphs import core


def fs(*elements):
    return FacetSet(elements)


def path_spg(*sets, n=None):
    size = max(max(s.elements) for s in sets) + 1 if n is None else n
    return Spg.build(
        SymbolTable.alphabetic(size),
        len(sets[0]),
        [[s] for s in sets],
        [(i, i + 1) for i in range(len(sets) - 1)],
    )


GOOD_PATH = path_spg(fs(0, 1), fs(1, 2), fs(2, 3))      # {a,b}-{b,c}-{c,d}
BAD_PATH = path_spg(fs(0, 1), fs(2, 3), fs(1, 2))       # {a,b}-{c,d}-{b,c}


class TestSymbolTable:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable(("a", "a"))

    def test_empty_allowed_for_full_restrictions(self):
        assert SymbolTable(()).n == 0

    def test_alphabetic(self):
        t = SymbolTable.alphabetic(3)
        assert t.labels == ("a", "b", "c")
        assert t.index("b") == 1
        with pytest.raises(KeyError):
            t.index("z")

    def test_lifted_layout(self):
        t = SymbolTable(("a", "b")).lifted(2)
        # base-major: copy of symbol x in row j sits at x*r + (j-1)
        assert t.labels == ("a@1", "a@2", "b@1", "b@2")


# Sets that share prefixes and differ in size, on a few symbols that
# straddle 64-bit word boundaries and reach bit 521.
_ORDER_SETS = st.lists(
    st.sampled_from([0, 1, 2, 3, 62, 63, 64, 65, 127, 128, 129, 521]),
    max_size=6, unique=True)


class TestFacetSet:
    def test_canonical_order(self):
        assert fs(3, 1, 2).elements == (1, 2, 3)
        assert fs(1, 2, 3) == fs(3, 2, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            fs(1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fs(-1, 2)

    def test_set_operations(self):
        a, b = fs(0, 1, 2), fs(1, 2, 3)
        assert a.intersection_size(b) == 2
        assert a.without(b) == fs(0)
        assert fs(1, 2).issubset(a)
        assert not fs(3).issubset(a)

    def test_render(self):
        assert fs(0, 2).render(SymbolTable.alphabetic(3)) == "{a,c}"
        assert fs(0, 2).render() == "{0,2}"

    @given(st.sets(st.integers(0, 40), max_size=10),
           st.sets(st.integers(0, 40), max_size=10))
    def test_mask_intersection_matches_set_intersection(self, xs, ys):
        a, b = FacetSet(xs), FacetSet(ys)
        assert a.intersection_size(b) == len(xs & ys)

    @given(st.one_of(
        st.just(0),
        st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 521]).map(lambda b: 1 << b),
        st.sets(st.sampled_from([0, 63, 64, 127, 128])).map(
            lambda bits: sum(1 << b for b in bits)),
        st.integers(0, (1 << 600) - 1),
        st.integers(1, 600).map(lambda k: (1 << k) - 1)))
    def test_from_mask_matches_loop_split(self, mask):
        fs_ = FacetSet.from_mask(mask)
        assert fs_.elements == loop_mask_elements(mask)
        assert fs_ == FacetSet(fs_.elements)

    @given(st.lists(st.one_of(
        st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 521]),
        st.integers(-3, 600),
        st.booleans())))
    @example([])
    @example([-1, 5])
    @example([64, -2, -1])
    @example([63, 64, 63])
    @example([True, 1])
    @example([False, True, 127, 128])
    @example(list(range(695, -1, -2)))  # a lifted d = 4, r = 87 set
    def test_init_matches_loop_mask(self, elements):
        try:
            expected = loop_facet_mask(elements)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                FacetSet(elements)
            assert str(raised.value) == str(err)
            return
        fs_ = FacetSet(elements)
        assert (fs_.elements, fs_.mask) == expected

    def test_mask_is_the_only_slot(self):
        assert FacetSet.__slots__ == ("mask",)
        with pytest.raises(AttributeError):
            fs(0, 1).elements = (0, 1)

    @given(st.lists(_ORDER_SETS, min_size=2, max_size=6))
    @example([[], []])
    @example([[], [0]])
    @example([[63], [64]])
    @example([[63, 64], [63]])
    @example([[127], [128], [127, 128], [127, 521]])
    @example([[0, 521], [0, 2], [0]])
    @example([[1, 2, 3], [1, 2, 4], [1, 3], [2]])
    def test_order_length_and_membership_match_tuples(self, lists):
        sets = [FacetSet(xs) for xs in lists]
        tuples = [TupleFacetSet(xs) for xs in lists]
        for a, ta in zip(sets, tuples):
            assert a.elements == ta.elements
            assert len(a) == len(ta)
            for i in (-1, 0, 63, 64, 127, 128, 521, 522, *ta.elements):
                assert (i in a) == (i in ta)
            for b, tb in zip(sets, tuples):
                assert (a < b) == (ta < tb)
        assert ([s.elements for s in sorted(sets)]
                == [t.elements for t in sorted(tuples)])


class TestValidate:
    def test_single_vertex_holds(self):
        spg = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 1)]])
        assert validate(spg).holds

    def test_duplicate_set_across_vertices(self):
        spg = Spg.build(
            SymbolTable.alphabetic(2), 2, [[fs(0, 1)], [fs(0, 1)]], [(0, 1)])
        report = validate(spg)
        assert not report.holds
        assert ("duplicate-set", fs(0, 1), 0, 1) in report.witnesses
        assert not check_partition(spg).holds

    def test_disconnected(self):
        spg = Spg.build(
            SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]])
        report = validate(spg)
        assert not report.holds
        assert any(w[0] == "disconnected" for w in report.witnesses)

    def test_restriction_exempt_from_connectivity(self):
        spg = Spg.build(
            SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]],
            is_restriction=True)
        assert validate(spg).holds
        assert not check_connectivity(spg).holds

    def test_wrong_size_and_range(self):
        spg = Spg.build(
            SymbolTable.alphabetic(2), 2, [[fs(0, 1)], [fs(0,)]], [(0, 1)])
        assert any(w[0] == "wrong-size-set" for w in validate(spg).witnesses)
        spg = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 5)]])
        assert any(w[0] == "symbol-out-of-range" for w in validate(spg).witnesses)

    def test_graph_shape_violations(self):
        table = SymbolTable.alphabetic(4)
        spg = Spg(table, 2, ((fs(0, 1),), (fs(2, 3),)), ((0, 0), (0, 1), (0, 1)))
        kinds = {w[0] for w in validate(spg).witnesses}
        assert "self-loop" in kinds
        assert "parallel-edge" in kinds
        spg = Spg(table, 2, ((fs(0, 1),),), ((0, 7),))
        assert any(w[0] == "edge-endpoint-out-of-range"
                   for w in validate(spg).witnesses)

    def test_reversed_edge_pairs(self):
        # Spg keeps edges as given; only Spg.build sorts each pair
        table = SymbolTable.alphabetic(3)
        vertices = ((fs(0, 1),), (fs(1, 2),))
        doubled = Spg(table, 2, vertices, ((1, 0), (0, 1)))
        assert ("parallel-edge", 0, 1) in validate(doubled).witnesses
        reversed_edge = Spg(table, 2, vertices, ((1, 0),))
        built = Spg.build(table, 2, vertices, [(1, 0)])
        assert built.edges == ((0, 1),)
        assert reversed_edge.edge_set() == built.edge_set()
        for check in (validate, check_adjacency, check_strong_adjacency,
                      check_endpoint_count):
            assert check(reversed_edge) == check(built)
            assert check(reversed_edge).holds

    def test_empty_vertex_and_dimension(self):
        table = SymbolTable.alphabetic(2)
        spg = Spg(table, 2, ((fs(0, 1),), ()), ((0, 1),))
        assert any(w[0] == "empty-vertex" for w in validate(spg).witnesses)
        spg = Spg(table, 3, ((fs(0, 1, 2),),), ())
        assert any(w[0] == "dimension-out-of-range"
                   for w in validate(spg).witnesses)

    @given(arbitrary_spgs())
    @example(Spg(SymbolTable.alphabetic(2), 1, (), ()))
    @example(Spg(SymbolTable.alphabetic(2), 1, ((),), (), True))
    @settings(max_examples=400)
    def test_matches_the_per_set_loop(self, spg):
        assert validate(spg) == loop_validate(spg)

    @pytest.mark.parametrize("spg", [
        GOOD_PATH, BAD_PATH,
        build_spindle_template(3).spindle.spg,
        construct_with_resampling(build_spindle_template(2).spindle,
                                  TransformConfig(r=8, seed=1)).spg,
    ], ids=["good-path", "bad-path", "spindle-3", "constructed"])
    def test_valid_graphs_match_the_per_set_loop(self, spg):
        assert validate(spg) == loop_validate(spg)

    @given(spg_instances(max_sets=6), st.data())
    @settings(max_examples=200)
    def test_one_edge_fault_matches_the_per_set_loop(self, spg, data):
        # each guard of the whole-edge passes alone: a reversed edge (which
        # is valid), a self-loop, a parallel edge, an end out of range
        nv = len(spg.vertices)
        edges = list(spg.edges)
        u, w = data.draw(st.sampled_from(edges)) if edges else (0, 0)
        fault = data.draw(st.sampled_from(
            [(w, u), (u, u), (u, w), (-1, u), (u, nv), (nv, nv + 1)]))
        if edges and fault == (w, u):
            edges.remove((u, w))
        edges.insert(data.draw(st.integers(0, len(edges))), fault)
        faulty = Spg(spg.symbols, spg.dimension, spg.vertices, tuple(edges))
        assert validate(faulty) == loop_validate(faulty)

    @given(spg_instances())
    def test_generated_instances_valid(self, spg):
        assert validate(spg).holds
        # partition: every set occurs exactly once
        family = spg.family()
        assert len(set(family)) == len(family)


class TestAdjacency:
    def test_ordered_path_holds(self):
        assert check_adjacency(GOOD_PATH).holds

    def test_reordered_path_fails(self):
        report = check_adjacency(BAD_PATH)
        assert not report.holds
        assert ("non-adjacent-pair", fs(0, 1), fs(1, 2), 0, 2) in report.witnesses

    def test_same_vertex_pairs_allowed(self):
        spg = Spg.build(
            SymbolTable.alphabetic(3), 2, [[fs(0, 1), fs(1, 2)]])
        assert check_adjacency(spg).holds

    def test_rejects_invalid(self):
        broken = Spg.build(
            SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]])
        with pytest.raises(InvalidSpgError):
            check_adjacency(broken)


@st.composite
def witness_lists(draw):
    """Witnesses of mixed kinds, as the verifiers name them: sets of
    mixed sizes, vertex indices past 9, tuples of sets and of indices."""
    sets = st.frozensets(st.integers(0, 14), max_size=5).map(FacetSet)
    vertex = st.integers(0, 120)
    witness = st.one_of(
        st.tuples(st.just("non-adjacent-pair"), sets, sets, vertex, vertex),
        st.tuples(st.just("unwitnessed-edge"), vertex, vertex),
        st.tuples(st.just("over-counted-face"), sets,
                  st.lists(sets, min_size=1, max_size=4).map(tuple)),
        st.tuples(st.just("disconnected"), vertex,
                  st.lists(vertex, min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("wrong-size-set"), sets, vertex),
        st.tuples(st.just("self-loop"), vertex),
        st.tuples(st.just("no-vertices")),
    )
    return draw(st.lists(witness, max_size=30))


class TestSortedWitnesses:
    @given(witness_lists())
    @settings(max_examples=300)
    def test_matches_the_sort_by_payload_text(self, witnesses):
        got = core._sorted_witnesses(witnesses)
        expected = _sorted_witnesses(witnesses)
        assert got == expected
        assert [tuple(map(type, w)) for w in got] == [
            tuple(map(type, w)) for w in expected]

    def test_orders_by_text(self):
        witnesses = [("unwitnessed-edge", 9, 12), ("unwitnessed-edge", 10, 11),
                     ("non-adjacent-pair", fs(0, 10), fs(1, 2), 9, 10),
                     ("non-adjacent-pair", fs(0, 2), fs(1, 2), 9, 10),
                     ("non-adjacent-pair", fs(0, 1, 2), fs(1, 3), 9, 10)]
        assert core._sorted_witnesses(witnesses) == tuple(
            witnesses[i] for i in (4, 2, 3, 1, 0))


class TestStrongAdjacency:
    def test_overlapping_edge_holds(self):
        assert check_strong_adjacency(path_spg(fs(0, 1), fs(1, 2))).holds

    def test_disjoint_edge_fails(self):
        report = check_strong_adjacency(path_spg(fs(0, 1), fs(2, 3)))
        assert not report.holds
        assert ("unwitnessed-edge", 0, 1) in report.witnesses

    @given(spg_instances())
    @settings(max_examples=60)
    def test_strong_implies_adjacency(self, spg):
        if check_strong_adjacency(spg).holds:
            assert check_adjacency(spg).holds


class TestEndpointCount:
    def test_path_family_holds(self):
        assert check_endpoint_count(GOOD_PATH).holds

    def test_three_sets_through_one_symbol(self):
        spg = Spg.build(
            SymbolTable.alphabetic(4), 2,
            [[fs(0, 1)], [fs(1, 2)], [fs(1, 3)]],
            [(0, 1), (1, 2)])
        report = check_endpoint_count(spg)
        assert not report.holds
        (witness,) = report.witnesses
        assert witness[0] == "over-counted-face"
        assert witness[1] == fs(1)
        assert set(witness[2]) == {fs(0, 1), fs(1, 2), fs(1, 3)}

    @given(spg_instances(max_symbols=7, max_sets=8))
    @settings(max_examples=80)
    def test_agrees_with_brute_force(self, spg):
        report = check_endpoint_count(spg)
        expected = brute_force_endpoint_violations(spg)
        got = {frozenset(w[1].elements) for w in report.witnesses}
        assert got == expected
        assert report.holds == (not expected)


class TestSingleton:
    def test_all_singleton_path(self):
        assert check_singleton(GOOD_PATH).holds

    def test_vertex_with_two_sets(self):
        spg = Spg.build(
            SymbolTable.alphabetic(3), 2, [[fs(0, 1), fs(1, 2)]])
        report = check_singleton(spg)
        assert not report.holds
        assert ("non-singleton-vertex", 0, 2) in report.witnesses


class TestRestrict:
    def test_empty_face_is_identity(self):
        result = restrict(GOOD_PATH, fs())
        assert result.vertices == GOOD_PATH.vertices
        assert result.edges == GOOD_PATH.edges
        assert result.symbols == GOOD_PATH.symbols
        assert result.is_restriction

    def test_ordered_path_restriction_connected(self):
        result = restrict(GOOD_PATH, fs(1))  # {b}
        assert result.dimension == 1
        assert result.symbols.labels == ("a", "c", "d")
        rendered = [[f.render(result.symbols) for f in v] for v in result.vertices]
        assert rendered == [["{a}"], ["{c}"]]
        assert result.edges == ((0, 1),)
        assert check_connectivity(result).holds

    def test_reordered_path_restriction_disconnects(self):
        result = restrict(BAD_PATH, fs(1))  # middle vertex drops out
        assert len(result.vertices) == 2
        assert result.edges == ()
        assert not check_connectivity(result).holds

    def test_face_contained_nowhere(self):
        assert restrict(GOOD_PATH, fs(0, 3)) is None

    def test_face_too_large(self):
        with pytest.raises(ValueError):
            restrict(GOOD_PATH, fs(0, 1, 2))

    def test_full_member_face_gives_dimension_zero(self):
        result = restrict(GOOD_PATH, fs(0, 1))
        assert result.dimension == 0
        assert result.vertices == ((fs(),),)
        assert validate(result).holds

    @given(spg_instances(), st.data())
    @settings(max_examples=60)
    def test_definition_replay(self, spg, data):
        face_size = data.draw(st.integers(0, spg.dimension))
        face_pool = sorted({e for s in spg.family() for e in s.elements})
        if len(face_pool) < face_size:
            return
        face = FacetSet(data.draw(
            st.lists(st.sampled_from(face_pool), min_size=face_size,
                     max_size=face_size, unique=True)))
        result = restrict(spg, face)
        expected = {
            frozenset(spg.symbols.labels[e] for e in s.elements if e not in face)
            for s in spg.family() if face.issubset(s)
        }
        if result is None:
            assert expected == set()
        else:
            got = {
                frozenset(result.symbols.labels[e] for e in s.elements)
                for s in result.family()
            }
            assert got == expected


@st.composite
def reduction_cases(draw):
    """A valid graph of either strategy, or a restriction of one by a
    subset of a member that may lose edges and disconnect, and a budget:
    small, at the count of distinct faces or one below it, or the
    default."""
    spg = draw(st.one_of(spg_instances(), wide_spg_instances()))
    if draw(st.booleans()):
        member = draw(st.sampled_from(spg.family()))
        spg = restrict(spg, FacetSet(draw(st.lists(
            st.sampled_from(member.elements), unique=True))))
        edges = draw(st.lists(st.sampled_from(spg.edges), unique=True)
                     ) if spg.edges else []
        spg = Spg.build(spg.symbols, spg.dimension, spg.vertices, edges,
                        is_restriction=True)
    faces = {sum(1 << e for e in combo) for fs in spg.family()
             for k in range(spg.dimension + 1)
             for combo in combinations(fs.elements, k)}
    # the refusal's boundary: just enough, or one face short
    boundary = st.sampled_from([len(faces), len(faces) - 1]).filter(
        lambda b: b >= 1)
    return spg, draw(st.one_of(st.integers(1, 60), boundary,
                               st.just(10_000_000)))


def _outcome(check, spg, budget):
    """The report, or the refusal's (needed, budget)."""
    try:
        return check(spg, budget)
    except BudgetExceededError as err:
        return err.needed, err.budget


class TestDimensionReduction:
    def test_single_vertex_holds(self):
        spg = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 1)]])
        assert check_dimension_reduction(spg).holds

    def test_ordered_path_holds(self):
        assert check_dimension_reduction(GOOD_PATH).holds

    def test_reordered_path_fails_on_shared_symbol(self):
        report = check_dimension_reduction(BAD_PATH)
        assert not report.holds
        assert ("disconnecting-face", fs(1)) in report.witnesses

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            check_dimension_reduction(GOOD_PATH, budget=2)

    @given(reduction_cases())
    @settings(max_examples=150)
    def test_matches_the_restriction_oracle(self, case):
        spg, budget = case
        assert (_outcome(check_dimension_reduction, spg, budget)
                == _outcome(restrict_dimension_reduction, spg, budget))

    @pytest.mark.parametrize("spg", [
        GOOD_PATH, BAD_PATH,
        restrict(BAD_PATH, fs(1)),       # disconnected on the empty face
        restrict(GOOD_PATH, fs(0, 1)),   # dimension zero
        Spg.build(SymbolTable.alphabetic(4), 2,
                  [[fs(0, 1), fs(2, 3)], [fs(1, 2)]], [(0, 1)]),
    ], ids=["good", "bad", "restriction", "dimension-zero", "two-sets"])
    def test_small_graphs_match_the_restriction_oracle(self, spg):
        assert check_dimension_reduction(spg) == restrict_dimension_reduction(spg)

    @pytest.mark.parametrize("d, count", [
        (2, 3), (3, 19), (4, 89), (5, 381), (6, 1580)])
    def test_spindle_template_witness_counts(self, d, count):
        spg = build_spindle_template(d).spindle.spg
        report = check_dimension_reduction(spg)
        assert len(report.witnesses) == count
        if d <= 4:
            assert report == restrict_dimension_reduction(spg)

    @pytest.mark.parametrize("d, r, count", [
        (2, 3, 82), (2, 4, 267), (2, 5, 969), (3, 3, 3039)])
    def test_transformed_spindle_witness_counts(self, d, r, count):
        spg = build_exponential_spindle(d, TransformConfig(r=r, seed=1)).spg
        report = check_dimension_reduction(spg)
        assert len(report.witnesses) == count
        if r < 5:
            assert report == restrict_dimension_reduction(spg)

    def test_builds_no_restricted_graph(self, monkeypatch):
        calls = []

        def counting_restrict(spg, face):
            calls.append(face)
            return restrict(spg, face)

        monkeypatch.setattr(core, "restrict", counting_restrict)
        assert not check_dimension_reduction(BAD_PATH).holds
        assert not check_dimension_reduction(
            build_spindle_template(3).spindle.spg).holds
        assert calls == []
        core.restrict(BAD_PATH, fs(1))  # the counter sees calls through core
        assert calls == [fs(1)]

    @pytest.mark.parametrize("budget, message", [
        (-5, "budget must be positive"), (0, "budget must be positive"),
        (1.5, "budget must be an int"), (True, "budget must be an int"),
    ], ids=["negative", "zero", "float", "bool"])
    def test_budget_must_be_a_positive_int(self, budget, message):
        # checked before the graph: an invalid one is not reached
        empty = Spg(SymbolTable.alphabetic(2), 1, (), ())
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_dimension_reduction(empty, budget)


class TestGraphMetrics:
    def test_distance_basics(self):
        assert graph_distance(GOOD_PATH, 1, 1) == 0
        assert graph_distance(GOOD_PATH, 0, 1) == 1
        assert graph_distance(GOOD_PATH, 0, 2) == 2

    def test_distance_bad_index(self):
        with pytest.raises(ValueError):
            graph_distance(GOOD_PATH, 0, 9)

    def test_distance_unreachable(self):
        spg = Spg.build(
            SymbolTable.alphabetic(4), 2, [[fs(0, 1)], [fs(2, 3)]],
            is_restriction=True)
        with pytest.raises(ValueError):
            graph_distance(spg, 0, 1)

    def test_max_degree(self):
        assert max_degree(GOOD_PATH) == 2
        star = Spg.build(
            SymbolTable.alphabetic(8), 2,
            [[fs(0, 1)], [fs(2, 3)], [fs(4, 5)], [fs(6, 7)]],
            [(0, 1), (0, 2), (0, 3)])
        assert max_degree(star) == 3
        single = Spg.build(SymbolTable.alphabetic(2), 2, [[fs(0, 1)]])
        assert max_degree(single) == 0

    @given(spg_instances(), st.data())
    @settings(max_examples=40)
    def test_distance_is_a_metric(self, spg, data):
        k = len(spg.vertices)
        u = data.draw(st.integers(0, k - 1))
        v = data.draw(st.integers(0, k - 1))
        w = data.draw(st.integers(0, k - 1))
        duv = graph_distance(spg, u, v)
        assert duv == graph_distance(spg, v, u)
        assert (duv == 0) == (u == v)
        assert duv <= graph_distance(spg, u, w) + graph_distance(spg, w, v)


class TestSpindleType:
    def test_apices_must_cover_symbols(self):
        spg = path_spg(fs(0, 1), fs(1, 2), n=4)
        with pytest.raises(ValueError):
            Spindle(spg, fs(0, 1), fs(1, 2))

    def test_requires_doubled_symbols(self):
        spg = path_spg(fs(0, 1), fs(1, 2), n=3)
        with pytest.raises(ValueError):
            Spindle(spg, fs(0, 1), fs(1, 2))

    def test_length(self):
        spg = Spg.build(
            SymbolTable.alphabetic(4), 2,
            [[fs(0, 1)], [fs(1, 2)], [fs(2, 3)]], [(0, 1), (1, 2)])
        spindle = Spindle(spg, fs(0, 1), fs(2, 3))
        assert spindle.length() == 2
