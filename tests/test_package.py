"""The package's public names, resolved on first access."""

import ast
import sys
from pathlib import Path

import pytest

import spgraphs
from spgraphs import core, transform


# Every change of the public API is a change of this tuple.
PUBLIC_NAMES = (
    "BadEvent", "BadEventEstimate", "BudgetExceededError",
    "ConstructionVerificationError", "DimensionReductionSummary",
    "DocumentError", "DocumentVersionError", "FacetSet", "InvalidSpgError",
    "PermutationAssignment", "PropertyReport", "ResamplingExhaustedError",
    "Spg", "SpgProperty", "Spindle", "SpindleTemplate", "Strategy",
    "SweepReport", "SweepRow", "SymbolTable", "TransformConfig",
    "TransformResult", "bad_event_occurs", "build_exponential_spindle",
    "build_path_template", "build_spindle_template", "build_star_template",
    "build_subdivision", "check_adjacency", "check_connectivity",
    "check_dimension_reduction", "check_endpoint_count",
    "check_localization", "check_partition", "check_singleton",
    "check_strong_adjacency", "construct_with_resampling", "diameter",
    "dump", "estimate_bad_event_probability", "find_bad_events",
    "graph_distance", "lift_facet", "lll_sufficient", "max_degree",
    "min_multiplier", "near_pairs", "parse", "restrict", "serialize",
    "sliding_window_path", "sweep_r", "validate", "verify_all",
    "verify_dimension_reduction_on_paths", "witness_text",
)


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(spgraphs.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", spgraphs.__all__)
def test_name_is_the_defining_modules_object(name):
    value = getattr(spgraphs, name)
    assert value.__module__.startswith("spgraphs.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spgraphs import *", namespace)
    for name in spgraphs.__all__:
        assert namespace[name] is getattr(spgraphs, name)


def test_dir_lists_every_public_name():
    listed = dir(spgraphs)
    assert listed == sorted(listed)
    assert set(spgraphs.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        spgraphs.no_such_name
    assert str(err.value) == "module 'spgraphs' has no attribute 'no_such_name'"
    assert not hasattr(spgraphs, "no_such_name")


def test_transform_re_exports_the_types_documents_read():
    assert transform.TransformResult is core.TransformResult
    assert transform.ResamplingExhaustedError is core.ResamplingExhaustedError
    assert spgraphs.TransformResult is core.TransformResult


def test_core_imports_nothing_from_transform():
    # transform builds on core; core holds every type a result carries
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        names = [getattr(node, "module", None) or ""] + [
            alias.name for alias in node.names]
        parts = {part for name in names for part in name.split(".")}
        assert "transform" not in parts, ast.unparse(node)
