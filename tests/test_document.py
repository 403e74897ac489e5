"""Round-trip and error-path tests for the document format."""

import io
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_bad_events,
    brute_force_localization,
    json_dumps_canonical,
    random_singleton_spg,
    row_structure_violations,
    spg_instances,
    subdivision_cases,
    type_scan_parse_facet,
    wide_spg_instances,
)

from spgraphs import (
    DocumentError,
    DocumentVersionError,
    FacetSet,
    PermutationAssignment,
    Spg,
    Spindle,
    SymbolTable,
    TransformConfig,
    TransformResult,
    build_exponential_spindle,
    build_spindle_template,
    build_star_template,
    build_subdivision,
    check_localization,
    construct_with_resampling,
    dump,
    find_bad_events,
    lift_facet,
    parse,
    restrict,
    serialize,
    sliding_window_path,
    validate,
)
from spgraphs.document import _parse_facet, _write_canonical, canonical_json


def fs(*elements):
    return FacetSet(elements)


GOOD_PATH = sliding_window_path(2)


def test_spg_round_trip():
    assert parse(serialize(GOOD_PATH)) == GOOD_PATH


def test_restriction_round_trip_keeps_flag():
    restricted = restrict(GOOD_PATH, fs(1))
    back = parse(serialize(restricted))
    assert back == restricted
    assert back.is_restriction


def test_disconnected_restriction_parses():
    table = SymbolTable.alphabetic(4)
    spg = Spg.build(table, 2, [[fs(0, 1)], [fs(2, 3)]], is_restriction=True)
    assert parse(serialize(spg)) == spg


def test_spindle_round_trip():
    spindle = build_spindle_template(2).spindle
    back = parse(serialize(spindle))
    assert isinstance(back, Spindle)
    assert back == spindle


def test_transform_result_round_trip():
    result = build_subdivision(
        Spg.build(SymbolTable.alphabetic(4), 2,
                  [[fs(0, 1)], [fs(2, 3)]], [(0, 1)]),
        2, PermutationAssignment(((1, 2),)))
    back = parse(serialize(result))
    assert back == result
    assert back.vertex_map == result.vertex_map
    assert back.edge_paths == result.edge_paths


def test_transform_result_with_apices_and_rounds():
    result = build_exponential_spindle(1, TransformConfig(r=4, seed=2))
    back = parse(serialize(result))
    assert back == result
    assert back.apices == result.apices
    assert back.rounds_used == result.rounds_used


def test_resampled_result_round_trip_ignores_log():
    path = sliding_window_path(2)
    result = construct_with_resampling(path, TransformConfig(r=4, seed=8))
    back = parse(serialize(result))
    assert back == result
    assert back.resample_log == ()


def test_serialize_is_canonical_and_newline_terminated():
    a = serialize(GOOD_PATH)
    b = serialize(parse(serialize(GOOD_PATH)))
    assert a == b
    assert a.endswith("\n")


def test_serialize_rejects_unknown_type():
    with pytest.raises(TypeError):
        serialize(42)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(), st.text())
# ints that recur within and across lists, as a document's do; a bool
# among them (equal to 0 or 1) must still be written as true or false
_RECURRING_INTS = st.sampled_from(
    [0, 1, 2, -1, -2, 2**63, 2**64, 2**64 + 1, -2**64, 2**200])
_INT_LISTS = st.one_of(
    st.lists(st.integers(), max_size=6),
    st.lists(_RECURRING_INTS, max_size=8))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        _INT_LISTS,
        _INT_LISTS.map(tuple),
        st.lists(st.one_of(_RECURRING_INTS, st.booleans()), max_size=6),
        st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@given(_VALUES)
@example([])
@example({})
@example({"": [[], {}], "z": [[0], [-1, 2**80]]})
@example({"symbols": ["\u00e9@1", "\U0001f600", "\"q\"\n"], "flag": False})
@example([True, 1, 0, False])
@example({"a": [1, 0, 1], "b": [True, 1, False, 0], "c": [[0, 1], [1, 0]]})
@example([[2**64, 2**64, -1], [-1, 2**64]])
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == json_dumps_canonical(value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", object(), [0, {"a": [1, {2}]}], {"a": (1, b"x")}])
def test_canonical_json_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json_dumps_canonical(value)
    with pytest.raises(TypeError):
        canonical_json(value)


@st.composite
def _spindle_results(draw):
    """Results built on a spindle template with random row permutations,
    with or without the lifted apices, and any round count."""
    spindle = build_spindle_template(draw(st.integers(1, 3))).spindle
    r = draw(st.integers(2, 5))
    perms = PermutationAssignment(tuple(
        tuple(draw(st.permutations(range(1, r + 1))))
        for _ in spindle.spg.edges))
    apices = None
    if draw(st.booleans()):
        apices = (lift_facet(spindle.apex1, r), lift_facet(spindle.apex2, r))
    return replace(build_subdivision(spindle.spg, r, perms), apices=apices,
                   rounds_used=draw(st.integers(0, 2**70)))


@st.composite
def _payloads(draw):
    """Graphs (narrow, wide or flagged as restrictions), spindle templates
    and transform results with and without apices."""
    kind = draw(st.sampled_from(
        ["spg", "wide", "restriction", "spindle", "transform"]))
    if kind == "spindle":
        return build_spindle_template(draw(st.integers(1, 3))).spindle
    if kind == "transform":
        if draw(st.booleans()):
            return draw(_spindle_results())
        template = draw(spg_instances(singleton=True))
        r = draw(st.integers(2, 5))
        perms = PermutationAssignment(tuple(
            tuple(draw(st.permutations(range(1, r + 1))))
            for _ in template.edges))
        return build_subdivision(template, r, perms)
    spg = draw(wide_spg_instances() if kind == "wide" else spg_instances())
    return replace(spg, is_restriction=kind == "restriction")


@given(_payloads())
@settings(max_examples=150, deadline=None)
def test_dump_writes_what_serialize_returns(obj):
    stream = io.StringIO()
    assert dump(obj, stream) is None
    text = stream.getvalue()
    assert text == serialize(obj)
    assert text == json_dumps_canonical(json.loads(text))


@given(_spindle_results())
@settings(max_examples=60, deadline=None)
def test_results_with_apices_and_rounds_parse_back(result):
    assume(validate(result.spg).holds)  # parse refuses an invalid graph
    back = parse(serialize(result))
    assert back == result
    assert (back.apices, back.rounds_used) == (result.apices, result.rounds_used)


def _path_result(**fields):
    path = sliding_window_path(2)
    return TransformResult(path, 4, ((1, 2, 3, 4),) * len(path.edges),
                           **fields)


@pytest.mark.parametrize("rounds_used", [-1, True, 2.5, "1", None])
def test_result_refuses_a_round_count_it_could_not_write(rounds_used):
    with pytest.raises(
            ValueError,
            match=r"^rounds_used: expected a non-negative integer$"):
        _path_result(rounds_used=rounds_used)


@pytest.mark.parametrize("case", ["interior", "uncovered", "not-2d"])
def test_result_refuses_apices_that_make_no_spindle(case):
    if case == "not-2d":
        # lifts of template sets, but 5 symbols at dimension 2
        template = Spg.build(SymbolTable.alphabetic(5), 2,
                             [[fs(0, 1)], [fs(2, 3)]], [(0, 1)])
        apices = (lift_facet(fs(0, 1), 2), lift_facet(fs(2, 3), 2))
        message = r"^apices: a spindle needs n = 2d, got n=5, d=2$"
        with pytest.raises(ValueError, match=message):
            TransformResult(template, 2, ((1, 2),), apices=apices)
        return
    built = _path_result()
    if case == "interior":
        # one interior set on each path
        apices = (built.spg.vertices[3][0], built.spg.vertices[8][0])
        message = r"^apices: not lifts of template sets$"
    else:
        # the lifts of one end and its neighbour miss symbols
        apices = (lift_facet(fs(0, 1), 4), lift_facet(fs(1, 2), 4))
        message = r"^apices: apex sets must cover the whole symbol set$"
    with pytest.raises(ValueError, match=message):
        _path_result(apices=apices)
    # serialize wrote such a result, and parse refused it, naming the field
    doc = json.loads(serialize(built))
    doc["annotations"]["apices"] = [list(a.elements) for a in apices]
    with pytest.raises(DocumentError, match=message.replace(
            "^", r"^annotations\.")):
        parse(json.dumps(doc))


# Facet sets beside their element lists, which the expected text is
# written from: each set's width (its highest bit) is drawn from around
# the machine-word and table boundaries up to a lifted d = 3 spindle's.
_BITS = st.sampled_from([0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 521])
_ELEMENT_LISTS = st.one_of(
    st.lists(_BITS, unique=True),
    st.lists(st.integers(0, 600), unique=True, max_size=12),
).map(sorted)
_FACET_PAIRS = _ELEMENT_LISTS.map(lambda elems: (FacetSet(elems), elems))


def _nested_pairs(children):
    def unzip_list(pairs):
        return [v for v, _ in pairs], [e for _, e in pairs]

    def unzip_dict(pairs):
        return ({k: v for k, (v, _) in pairs.items()},
                {k: e for k, (_, e) in pairs.items()})

    return st.one_of(
        st.lists(children, max_size=5).map(unzip_list),
        st.dictionaries(st.text(max_size=3), children, max_size=4)
        .map(unzip_dict))


_FACET_TREES = st.recursive(
    st.one_of(_FACET_PAIRS, st.integers(-3, 600).map(lambda i: (i, i))),
    _nested_pairs, max_leaves=16)


def _facets(*element_lists):
    """A list of facet sets, and the list of their element lists."""
    return ([FacetSet(elems) for elems in element_lists],
            [list(elems) for elems in element_lists])


@given(_FACET_TREES)
@example(_facets([], [0], [63], [0, 63, 64], [127, 128], [0, 521], [5]))
@example(({"a": [[FacetSet([0, 127])], {"b": FacetSet([128, 521])}],
           "c": FacetSet([]), "d": [1, 2]},
          {"a": [[[0, 127]], {"b": [128, 521]}], "c": [], "d": [1, 2]}))
def test_facet_sets_are_written_from_their_masks(pair):
    # the writer behind serialize and dump, at every depth, with a table
    # of index texts that grows as wider sets come
    value, expected = pair
    text = json_dumps_canonical(expected)
    assert canonical_json(value) == text
    stream = io.StringIO()
    _write_canonical(value, stream.write)
    assert stream.getvalue() == text


@given(st.lists(_ELEMENT_LISTS, max_size=8))
@example([[], [0], [63], [0, 63, 64], [127, 128], [0, 521], [5]])
@settings(deadline=None)
def test_serialize_and_dump_write_facet_sets_from_their_masks(element_lists):
    facets, lists = _facets(*element_lists)
    # the graph is not valid, and the writer does not ask
    spg = Spg(SymbolTable.alphabetic(522), 0,
              tuple((fs,) for fs in facets), ())
    text = json_dumps_canonical({
        "dimension": 0, "edges": [], "flags": {"is_restriction": False},
        "format_version": 1, "kind": "spg",
        "symbols": list(spg.symbols.labels),
        "vertices": [[elems] for elems in lists]})
    assert serialize(spg) == text
    stream = io.StringIO()
    dump(spg, stream)
    assert stream.getvalue() == text


def _document_dict(spg=GOOD_PATH):
    return json.loads(serialize(spg))


def test_malformed_json():
    with pytest.raises(DocumentError, match="malformed"):
        parse("{not json")


def test_non_object_root():
    with pytest.raises(DocumentError, match="root"):
        parse("[1, 2]")


def test_unknown_version():
    doc = _document_dict()
    doc["format_version"] = 2
    with pytest.raises(DocumentVersionError):
        parse(json.dumps(doc))


def test_missing_version():
    doc = _document_dict()
    del doc["format_version"]
    with pytest.raises(DocumentError, match="format_version"):
        parse(json.dumps(doc))


def test_unknown_kind():
    doc = _document_dict()
    doc["kind"] = "polygon"
    with pytest.raises(DocumentError, match="kind"):
        parse(json.dumps(doc))


def test_overlapping_vertex_sets_named():
    doc = _document_dict()
    doc["vertices"] = [[[0, 1]], [[0, 1]]]
    doc["edges"] = [[0, 1]]
    with pytest.raises(DocumentError, match="duplicate-set"):
        parse(json.dumps(doc))


def test_disconnected_non_restriction_rejected():
    doc = _document_dict()
    doc["edges"] = []
    with pytest.raises(DocumentError, match="disconnected"):
        parse(json.dumps(doc))


def test_duplicate_labels_rejected():
    doc = _document_dict()
    doc["symbols"] = ["a", "a", "b", "c"]
    with pytest.raises(DocumentError, match="symbols"):
        parse(json.dumps(doc))


def test_symbol_index_out_of_range():
    doc = _document_dict()
    doc["vertices"][0] = [[0, 17]]
    with pytest.raises(DocumentError, match="out of range"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("facet, message", [
    ([0, True], "facet set must be a list of integers"),
    ([0, 1.0], "facet set must be a list of integers"),
    (["a", 1], "facet set must be a list of integers"),
    ([[0], 1], "facet set must be a list of integers"),
    ({"0": 1}, "facet set must be a list of integers"),
    ([-1, 1], "negative symbol index -1"),
    ([1, 1], r"duplicate symbol indices in \(1, 1\)"),
    ([0, 17], r"symbol index 17 out of range \(n=\d+\)"),
    # refused before a mask of 2**40 bits is allocated, in the order above
    ([0, 2**40], r"symbol index 1099511627776 out of range \(n=\d+\)"),
    ([2**40, 1, 1], r"duplicate symbol indices in \(1, 1, 1099511627776\)"),
    ([2**40, -1], "negative symbol index -1"),
    ([2**40, True], "facet set must be a list of integers"),
])
def test_bad_facet_elements_rejected(facet, message):
    doc = _document_dict()
    doc["vertices"][0] = [facet]
    with pytest.raises(DocumentError, match=r"^vertices\[0\]\[0\]: " + message):
        parse(json.dumps(doc))


_NON_INTS = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=2), st.none(),
    st.lists(st.integers(0, 3), max_size=2))


@st.composite
def _facet_lists(draw):
    """Lists of ints (negatives, repeats and indices past n = 8 among
    them) with up to two other JSON values inserted anywhere."""
    elements = draw(st.lists(st.integers(-2, 11), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        elements.insert(draw(st.integers(0, len(elements))), draw(_NON_INTS))
    return elements


@given(st.one_of(
    _facet_lists(), st.lists(st.integers(0, 10), max_size=6, unique=True),
    _NON_INTS, st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                               max_size=2)))
@example([True])
@example([1, True])
@example([-1, True])
@example([1, 1, True])
@example([True, 5, 7])
@example([False, 0])
@example([7, 0.5])
@example([1, float("nan"), False])
def test_parse_facet_matches_type_scan_oracle(elements):
    n, context = 8, "vertices[0][0]"
    try:
        expected = type_scan_parse_facet(elements, n, context)
    except DocumentError as err:
        with pytest.raises(DocumentError) as raised:
            _parse_facet(elements, n, context)
        assert str(raised.value) == str(err)
    else:
        got = _parse_facet(elements, n, context)
        assert (got.elements, got.mask) == (expected.elements, expected.mask)


def test_bad_apex_elements_rejected():
    doc = _document_dict(build_spindle_template(2).spindle)
    doc["annotations"]["apices"][1] = [2, False]
    with pytest.raises(DocumentError, match=r"^annotations\.apices\[1\]: facet set"):
        parse(json.dumps(doc))


def test_bad_edge_shape():
    doc = _document_dict()
    doc["edges"] = [[0]]
    with pytest.raises(DocumentError, match="edges"):
        parse(json.dumps(doc))


def test_apices_must_be_family_members():
    doc = _document_dict()
    doc["annotations"] = {"apices": [[0, 2], [1, 3]]}
    with pytest.raises(
            DocumentError,
            match=r"^annotations\.apices: apex \{a,c\} is not a member of "
                  r"the family$"):
        parse(json.dumps(doc))


def test_apices_on_wrong_symbol_count():
    # 3-symbol graph cannot be a spindle (needs n = 2d)
    table = SymbolTable.alphabetic(3)
    spg = Spg.build(table, 2, [[fs(0, 1)], [fs(1, 2)]], [(0, 1)])
    doc = json.loads(serialize(spg))
    doc["annotations"] = {"apices": [[0, 1], [1, 2]]}
    with pytest.raises(DocumentError, match="apices"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("case", ["uncovered", "not-2d", "interior"])
def test_transform_result_apices_must_make_a_spindle(case):
    if case == "uncovered":
        # the first apex and its neighbour on the path: both members, but
        # together they miss symbols, and the neighbour is no lift
        result = build_exponential_spindle(1, TransformConfig(r=4, seed=2))
        apices = [result.apices[0], result.spg.vertices[result.edge_paths[0][1]][0]]
    elif case == "interior":
        # two interior path sets that cover the symbols, so they make a
        # spindle of the graph, but not lifts of template sets
        result = build_exponential_spindle(2, TransformConfig(r=4, seed=2))
        apices = [result.spg.vertices[7][0], result.spg.vertices[23][0]]
        Spindle(result.spg, *apices)
    else:
        # lifts of template sets, but 5 symbols at dimension 2 (10 at 4
        # once lifted)
        template = Spg.build(SymbolTable.alphabetic(5), 2,
                             [[fs(0, 1)], [fs(2, 3)]], [(0, 1)])
        result = build_subdivision(template, 2, PermutationAssignment(((1, 2),)))
        apices = [v[0] for v in result.spg.vertices[:2]]
    doc = json.loads(serialize(result))
    doc["annotations"]["apices"] = [list(a.elements) for a in apices]
    with pytest.raises(DocumentError, match="apices"):
        parse(json.dumps(doc))


def test_transform_result_requires_maps():
    doc = _document_dict()
    doc["kind"] = "transform-result"
    with pytest.raises(DocumentError, match="vertex_map"):
        parse(json.dumps(doc))


def test_transform_result_path_indices_checked():
    result = build_subdivision(
        Spg.build(SymbolTable.alphabetic(4), 2,
                  [[fs(0, 1)], [fs(2, 3)]], [(0, 1)]),
        2, PermutationAssignment(((1, 2),)))
    doc = json.loads(serialize(result))
    doc["annotations"]["edge_paths"] = [[0, 99, 1]]
    with pytest.raises(DocumentError, match="edge_paths"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("key, value", [
    ("vertex_map", [0]),
    ("edge_paths", [[0, 5]]),
    ("rounds_used", "x"),
])
@pytest.mark.parametrize("spg", [GOOD_PATH, build_spindle_template(2).spindle],
                         ids=["plain", "spindle"])
def test_spg_document_refuses_other_annotations(spg, key, value):
    doc = _document_dict(spg)
    doc.setdefault("annotations", {})[key] = value
    with pytest.raises(
            DocumentError,
            match=rf"^annotations\.{key}: not an annotation of a spg document$"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("where, keys, message", [
    (None, ["extra"], r"^extra: not a field of a spg document$"),
    (None, ["zeta", "alpha"], r"^alpha: not a field of a spg document$"),
    ("flags", ["bogus"], r"^flags\.bogus: not a flag$"),
])
def test_unknown_fields_and_flags_are_refused(where, keys, message):
    doc = _document_dict(build_spindle_template(2).spindle)
    for key in keys:
        (doc if where is None else doc[where])[key] = True
    with pytest.raises(DocumentError, match=message):
        parse(json.dumps(doc))


def test_transform_result_refuses_unknown_annotations():
    result = build_exponential_spindle(1, TransformConfig(r=4, seed=2))
    doc = json.loads(serialize(result))
    doc["annotations"]["resample_log"] = []
    with pytest.raises(
            DocumentError,
            match=r"^annotations\.resample_log: not an annotation of a "
                  r"transform-result document$"):
        parse(json.dumps(doc))


def _two_edge_result_doc():
    # {a,b} - {b,c} - {c,d} at r = 2: paths [0, 3, 1] and [1, 4, 2]
    template = Spg.build(SymbolTable.alphabetic(4), 2,
                         [[fs(0, 1)], [fs(1, 2)], [fs(2, 3)]], [(0, 1), (1, 2)])
    result = build_subdivision(template, 2, PermutationAssignment(((1, 2), (2, 1))))
    doc = json.loads(serialize(result))
    assert doc["annotations"]["vertex_map"] == [0, 1, 2]
    assert doc["annotations"]["edge_paths"] == [[0, 3, 1], [1, 4, 2]]
    return doc


_NO_TEMPLATE = r"^annotations\.edge_paths: joining vertex_map's sets makes no template"


# Each id names the fault in the document.
@pytest.mark.parametrize("field, value, message", [
    # 0-4 is not a graph edge; read as a path, path 1 takes row 2 twice
    pytest.param(
        "edge_paths", [[0, 4, 1], [1, 3, 2]],
        r"^annotations\.edge_paths\[1\]: not a subdivision path: \(2, 2\)",
        id="edge_paths-value0-not a graph edge"),
    ("edge_paths", [[3, 1], [1, 4, 2]], "must both be in vertex_map"),
    ("vertex_map", [0, 0, 2], "distinct"),
    # two paths for one template edge: a parallel edge, and vertex 2 is
    # cut off
    pytest.param("edge_paths", [[0, 3, 1], [0, 3, 1]],
                 _NO_TEMPLATE + r" \(2 violations\): disconnected: 2 \(0, 2\); "
                                r"parallel-edge: 0 1$",
                 id="edge_paths-value3-more than one path step"),
    # the paths cover 2 of the 4 graph edges: vertex 2 is cut off
    pytest.param("edge_paths", [[0, 3, 1]], _NO_TEMPLATE,
                 id="edge_paths-value4-cover 2 of 4"),
    # vertex 3 is an interior path vertex, half of its rows swapped
    pytest.param(
        "vertex_map", [0, 1, 2, 3],
        r"^annotations\.vertex_map: entries must be distinct lifted sets$",
        id="vertex_map-value5-interior path vertices"),
])
def test_transform_result_must_describe_a_subdivision(field, value, message):
    doc = _two_edge_result_doc()
    parse(json.dumps(doc))
    doc["annotations"][field] = value
    with pytest.raises(DocumentError, match=message) as err:
        parse(json.dumps(doc))
    assert str(err.value).startswith(f"annotations.{field}")


def test_transform_result_flagged_a_restriction_is_refused():
    # no construction makes a restriction, and a result made from the
    # certificate would drop the flag
    doc = _two_edge_result_doc()
    doc["flags"]["is_restriction"] = True
    with pytest.raises(DocumentError,
                       match=r"^flags\.is_restriction: must be false"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("path, value", [
    (("format_version",), True),
    (("dimension",), True),
    (("annotations", "rounds_used"), False),
    (("annotations", "vertex_map", 1), True),
    (("annotations", "edge_paths", 0, 2), True),
])
def test_booleans_rejected_where_integers_are_required(path, value):
    # each bool replaces an int equal to it, so only its type is wrong
    if path == ("dimension",):
        doc = _document_dict(sliding_window_path(1))
    else:
        doc = _two_edge_result_doc()
    parse(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] == value
    target[path[-1]] = value
    field = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(DocumentError, match=field):
        parse(json.dumps(doc))


# A transform result is its certificate: the template, r and one row
# permutation per edge, which parse reads off the document.

@given(subdivision_cases())
@settings(max_examples=150, deadline=None)
def test_certificate_recovers_the_construction(case):
    template, r, perms, result = case
    assume(validate(result.spg).holds)  # parse refuses an invalid graph
    parsed = parse(serialize(result))
    assert (parsed.template, parsed.r, parsed.perms) == (
        template, r, perms.perms)
    assert parsed.spg == result.spg and parsed.edge_paths == result.edge_paths


@given(subdivision_cases())
@settings(max_examples=100, deadline=None)
def test_parsed_results_keep_the_row_structure(case):
    _, _, _, result = case
    assume(validate(result.spg).holds)
    parsed = parse(serialize(result))
    assert parsed == result
    assert row_structure_violations(parsed, parsed.template) == ()


@st.composite
def _unsorted_templates(draw):
    """Random singleton templates made with the plain Spg constructor,
    their edges shuffled and each drawn either way round, so not in the
    canonical form Spg.build gives."""
    seed = draw(st.integers(0, 2**32 - 1))
    template = random_singleton_spg(random.Random(seed), max_vertices=5)
    edges = tuple((w, u) if draw(st.booleans()) else (u, w)
                  for u, w in draw(st.permutations(template.edges)))
    return Spg(template.symbols, template.dimension, template.vertices, edges)


_ABCD_SETS = ((fs(0, 1),), (fs(1, 2),), (fs(2, 3),))


@given(_unsorted_templates(), st.integers(4, 6), st.integers(0, 2**32 - 1))
@example(Spg(SymbolTable.alphabetic(4), 2, _ABCD_SETS, ((1, 2), (0, 1))), 5, 1)
@example(Spg(SymbolTable.alphabetic(4), 2, _ABCD_SETS, ((1, 0), (1, 2))), 5, 1)
@settings(max_examples=60, deadline=None)
def test_results_of_templates_with_unsorted_edges_read_back(template, r, seed):
    perms = PermutationAssignment.draw(
        np.random.default_rng(seed), len(template.edges), r)
    config = TransformConfig(r=r, seed=seed)
    for result in (build_subdivision(template, r, perms),
                   construct_with_resampling(template, config)):
        if validate(result.spg).holds:  # a bad event may repeat a set
            assert parse(serialize(result)) == result
        assert check_localization(result) == brute_force_localization(
            result, template)
        assert find_bad_events(result, template) == brute_force_bad_events(
            result, template)


@st.composite
def _mutated_documents(draw):
    """The document of a valid construction with one element of one
    set, one path entry or one vertex_map entry changed, or its graph
    tampered with: one element of a set dropped or added, one set copied
    onto another vertex, a vertex emptied or given a second set, or an
    edge added, removed or redirected."""
    _, _, _, result = draw(subdivision_cases())
    assume(validate(result.spg).holds)
    doc = json.loads(serialize(result))
    vertices, edges = doc["vertices"], doc["edges"]
    symbols = range(len(doc["symbols"]))
    vertex = st.integers(0, len(vertices) - 1)
    where = draw(st.sampled_from([
        "set", "path", "vertex_map", "drop-element", "add-element",
        "copy-set", "empty-vertex", "second-set", "add-edge", "remove-edge",
        "redirect-edge"]))
    if where in ("set", "drop-element", "add-element"):
        elements = draw(st.sampled_from(vertices))[0]
        outside = sorted(set(symbols) - set(elements))
        assume(outside or where == "drop-element")
        k = draw(st.integers(0, len(elements) - 1))
        if where == "drop-element":
            del elements[k]
        elif where == "add-element":
            elements.insert(k, draw(st.sampled_from(outside)))
        else:
            elements[k] = draw(st.sampled_from(outside))
    elif where in ("copy-set", "empty-vertex", "second-set"):
        v = draw(vertex)
        if where == "empty-vertex":
            vertices[v] = []
        elif where == "second-set":
            vertices[v].append(sorted(draw(st.sets(
                st.sampled_from(symbols), min_size=doc["dimension"],
                max_size=doc["dimension"]))))
        else:
            source = draw(vertex.filter(lambda u: u != v))
            vertices[v] = [list(vertices[source][0])]
    elif where == "add-edge":
        edges.append([draw(vertex), draw(vertex)])
    elif where in ("remove-edge", "redirect-edge"):
        assume(edges)
        e = draw(st.integers(0, len(edges) - 1))
        if where == "remove-edge":
            del edges[e]
        else:
            end = draw(st.integers(0, 1))
            edges[e][end] = draw(vertex.filter(lambda v: v != edges[e][end]))
    else:
        target = (draw(st.sampled_from(doc["annotations"]["edge_paths"]))
                  if where == "path" else doc["annotations"]["vertex_map"])
        k = draw(st.integers(0, len(target) - 1))
        target[k] = draw(vertex.filter(lambda v: v != target[k]))
    return json.dumps(doc)


@given(_mutated_documents())
@settings(max_examples=400, deadline=None)
def test_one_changed_element_is_refused(text):
    # DocumentError and nothing else: any other exception fails the test
    with pytest.raises(DocumentError):
        parse(text)


def test_an_honest_result_with_a_repeated_set_is_refused():
    # A valid star template at r = 2 whose rebuilt graph repeats a set:
    # the document gives its certificate back exactly, and the rebuilt
    # graph fails validity, with its one witness named.
    star = build_star_template(SymbolTable.alphabetic(4), fs(0, 1),
                               [fs(0, 2), fs(1, 2), fs(2, 3)])
    result = TransformResult(star, 2, ((1, 2), (1, 2), (1, 2)))
    with pytest.raises(DocumentError) as err:
        parse(serialize(result))
    assert str(err.value) == (
        "document violates graph invariants (1 violations): "
        "duplicate-set: {a@2,b@1,b@2,c@1} 5 6")
