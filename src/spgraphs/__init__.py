"""Subset partition graphs: verifiers, randomized subdivision, spindles.

The public names below are resolved on first access (PEP 562), so
``import spgraphs`` loads no submodule and each ``spg`` command loads only
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "BadEvent", "BudgetExceededError", "ConstructionVerificationError",
            "FacetSet", "InvalidSpgError", "PropertyReport",
            "ResamplingExhaustedError", "Spg", "SpgProperty", "Spindle",
            "SymbolTable", "TransformResult",
            "check_adjacency", "check_connectivity",
            "check_dimension_reduction", "check_endpoint_count",
            "check_partition", "check_singleton", "check_strong_adjacency",
            "diameter", "graph_distance", "max_degree", "near_pairs",
            "restrict", "validate", "verify_all", "witness_text",
        ),
        "document": (
            "DocumentError", "DocumentVersionError", "dump", "parse",
            "serialize",
        ),
        "experiments": (
            "DimensionReductionSummary", "SweepReport", "SweepRow",
            "sweep_r", "verify_dimension_reduction_on_paths",
        ),
        "spindle": (
            "SpindleTemplate", "build_exponential_spindle",
            "build_path_template", "build_spindle_template",
            "build_star_template", "sliding_window_path",
        ),
        "transform": (
            "BadEventEstimate", "PermutationAssignment", "Strategy",
            "TransformConfig",
            "bad_event_occurs", "build_subdivision", "check_localization",
            "construct_with_resampling", "estimate_bad_event_probability",
            "find_bad_events", "lift_facet", "lll_sufficient",
            "min_multiplier",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)

_SUBMODULES = frozenset(_MODULE_OF.values())


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        # importing a submodule binds it here, as an eager import would
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
