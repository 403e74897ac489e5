"""Each graph is validated once: an Spg keeps its validity report, and
the adjacency, strong-adjacency and end-point-count reports that one run
of the near-pair join gives, so every public check after the first reads
what is kept.  The near pairs themselves are not kept."""

import ast
from dataclasses import fields, replace
from itertools import permutations
from pathlib import Path

import pytest

from conftest import duplicating_tree, joined_verdicts
from spgraphs import (
    ConstructionVerificationError,
    FacetSet,
    InvalidSpgError,
    PropertyReport,
    Spg,
    SpgProperty,
    SymbolTable,
    TransformConfig,
    build_spindle_template,
    check_adjacency,
    check_connectivity,
    check_dimension_reduction,
    check_endpoint_count,
    check_localization,
    check_partition,
    check_singleton,
    check_strong_adjacency,
    construct_with_resampling,
    near_pairs,
    parse,
    restrict,
    serialize,
    sliding_window_path,
    validate,
    verify_all,
)
from spgraphs import cli, core
from spgraphs.core import require_singleton


def fs(*elements):
    return FacetSet(elements)


def path_graph():
    """{a,b}-{b,c}-{c,d}, built afresh: a module constant could keep a
    report from an earlier test."""
    return Spg.build(SymbolTable.alphabetic(4), 2,
                     [[fs(0, 1)], [fs(1, 2)], [fs(2, 3)]], [(0, 1), (1, 2)])


# Every public function that raises InvalidSpgError on an invalid graph.
RAISING = (
    check_singleton,
    check_adjacency,
    check_strong_adjacency,
    check_endpoint_count,
    check_dimension_reduction,
    verify_all,
    require_singleton,
    lambda spg: restrict(spg, fs(1)),
)


def count_validations(monkeypatch):
    """The graphs whose validity is computed, in order, into the list."""
    calls = []
    real = core._validate
    monkeypatch.setattr(core, "_validate",
                        lambda spg: calls.append(spg) or real(spg))
    return calls


def count_joins(monkeypatch):
    """The graphs the near-pair join runs on, in order, into the list."""
    calls = []
    real = core.near_pairs
    monkeypatch.setattr(core, "near_pairs",
                        lambda spg: calls.append(spg) or real(spg))
    return calls


def test_every_order_of_the_pair_checks_runs_the_join_once(monkeypatch):
    calls = count_joins(monkeypatch)
    checks = (check_adjacency, check_strong_adjacency, check_endpoint_count,
              verify_all)
    expected = verify_all(path_graph())
    for order in permutations(checks):
        calls.clear()
        spg = path_graph()
        reports = {check: check(spg) for check in order + order}
        assert calls == [spg]
        assert reports[verify_all] == expected
        assert expected[2:] == tuple(reports[check] for check in checks[:3])


def test_a_constructed_graph_keeps_verdicts_and_no_near_pairs(monkeypatch):
    result = construct_with_resampling(sliding_window_path(2),
                                       TransformConfig(r=5, seed=3))
    names = {f.name for f in fields(Spg)}
    kept = [value for name, value in vars(result.spg).items()
            if name not in names]
    assert kept
    for value in kept:
        reports = value if isinstance(value, tuple) else (value,)
        assert all(isinstance(report, PropertyReport) for report in reports)
    # the construction verified the graph, so a later check runs no join
    calls = count_joins(monkeypatch)
    assert check_strong_adjacency(result.spg).holds
    assert calls == []


def test_localization_after_the_construction_runs_no_join(monkeypatch):
    # at r = 8 the construction's empty scan certified the result: its
    # verify_all and localization read the kept, holding reports
    calls = count_joins(monkeypatch)
    result = construct_with_resampling(sliding_window_path(3),
                                       TransformConfig(r=8, seed=1))
    assert check_localization(result).holds
    assert calls == []


@pytest.mark.parametrize("r", [4, 5, 8])
def test_a_clean_construction_at_r_4_or_more_runs_no_join(monkeypatch, r):
    calls = count_joins(monkeypatch)
    template = build_spindle_template(3).spindle.spg
    result = construct_with_resampling(template, TransformConfig(r=r, seed=1))
    assert all(report.holds for report in verify_all(result.spg))
    parsed = parse(serialize(result))
    assert all(report.holds for report in verify_all(parsed.spg))
    assert check_localization(parsed).holds
    assert calls == []
    assert result.rounds_used > 0
    assert verify_all(result.spg) == joined_verdicts(result.spg)


def test_a_construction_at_r_3_runs_the_join_once(monkeypatch):
    calls = count_joins(monkeypatch)
    result = construct_with_resampling(sliding_window_path(2),
                                       TransformConfig(r=3, seed=1))
    assert all(report.holds for report in verify_all(result.spg))
    assert calls == [result.spg]
    parsed = parse(serialize(result))
    assert all(report.holds for report in verify_all(parsed.spg))
    assert calls == [result.spg, parsed.spg]


@pytest.mark.parametrize("r, failed, joins", [
    (2, [SpgProperty.VALIDITY], 0),  # the join refuses an invalid graph
    (3, [SpgProperty.ADJACENCY, SpgProperty.STRONG_ADJACENCY], 1),
])
def test_duplicating_tree_below_r_4_is_not_certified(monkeypatch, r, failed,
                                                     joins):
    # the construction's last scan is empty, yet the graph fails
    validations = count_validations(monkeypatch)
    calls = count_joins(monkeypatch)
    template = duplicating_tree()
    with pytest.raises(ConstructionVerificationError) as err:
        construct_with_resampling(template, TransformConfig(r=r, seed=0))
    assert [report.property for report in err.value.failed] == failed
    # the result was validated, not certified
    assert len(validations) == 2 and validations[0] is template
    assert len(calls) == joins


def test_a_parsed_result_keeps_the_validated_graph(monkeypatch):
    text = serialize(construct_with_resampling(sliding_window_path(2),
                                               TransformConfig(r=5, seed=3)))
    calls = count_validations(monkeypatch)
    result = parse(text)
    assert all(report.holds for report in verify_all(result.spg))
    # only the template read off the document: the document's graph is
    # checked field for field against the one rebuilt from the template,
    # which the result keeps, certified at r = 5
    assert len(calls) == 1 and calls[0] is result.template


def test_a_parsed_result_below_r_4_validates_the_rebuilt_graph(monkeypatch):
    text = serialize(construct_with_resampling(sliding_window_path(2),
                                               TransformConfig(r=3, seed=1)))
    calls = count_validations(monkeypatch)
    result = parse(text)
    assert all(report.holds for report in verify_all(result.spg))
    assert len(calls) == 2
    assert calls[0] is result.template and calls[1] is result.spg


def test_every_public_check_shares_one_validation(monkeypatch):
    calls = count_validations(monkeypatch)
    spg = path_graph()
    assert validate(spg).holds
    for check in (*RAISING, check_partition, check_connectivity):
        check(spg)
    assert near_pairs(spg) == [(0, 1), (1, 2)]
    assert calls == [spg]


def test_a_replaced_copy_that_breaks_the_graph_gets_its_own_verdict(monkeypatch):
    spg = path_graph()
    assert all(report.holds for report in verify_all(spg))
    calls = count_validations(monkeypatch)
    broken = replace(spg, edges=spg.edges + ((0, 1),))
    assert ("parallel-edge", 0, 1) in validate(broken).witnesses
    for check in RAISING:
        with pytest.raises(InvalidSpgError):
            check(broken)
    assert validate(spg).holds
    assert calls == [broken]


def test_an_invalid_graph_raises_on_every_call(monkeypatch):
    calls = count_validations(monkeypatch)
    disconnected = Spg.build(SymbolTable.alphabetic(4), 2,
                             [[fs(0, 1)], [fs(2, 3)]], [])
    for _ in range(2):
        for check in RAISING:
            with pytest.raises(InvalidSpgError, match="disconnected"):
                check(disconnected)
    assert calls == [disconnected]


def test_mutating_the_near_pairs_list_changes_no_later_report():
    spg = path_graph()
    expected = verify_all(path_graph())
    pairs = near_pairs(spg)
    pairs.clear()
    pairs.append((0, 2))
    assert near_pairs(spg) == [(0, 1), (1, 2)]
    assert verify_all(spg) == expected


def test_cli_names_no_private_attribute_of_another_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").startswith("spgraphs"))]
    modules = {alias.asname or alias.name
               for node in imports if node.module in (None, "spgraphs")
               for alias in node.names}
    assert {"core", "transform", "experiments"} <= modules
    private = [f"{node.module}.{alias.name}" for node in imports
               for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
