"""Command-line surface.

Subcommands build spindle templates, run the randomized construction,
verify properties, restrict, and probe bad-event frequencies.  Documents
travel on stdin/stdout by default so commands compose in pipes.  Seeds
are always explicit arguments -- there is no environment fallback -- so
identical invocations are byte-identical.

Exit status: 0 success / property holds, 1 property violation (witnesses
printed), 2 usage or I/O error, 3 construction failed (resampling budget
exhausted, or the result failed re-verification).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

# transform, spindle and experiments (and numpy, which they draw with)
# are imported in the commands that run them, so that verify, stats and
# restrict load only core and document.
from . import core, document
from .core import (
    BudgetExceededError,
    ConstructionVerificationError,
    FacetSet,
    PropertyReport,
    ResamplingExhaustedError,
    Spg,
    Spindle,
    TransformResult,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION_FAILED = 3

WITNESS_LIMIT = 20


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _spg_of(obj) -> Spg:
    return obj if isinstance(obj, Spg) else obj.spg


def _print_report(report: PropertyReport, table, all_witnesses: bool) -> None:
    if report.holds:
        print(f"{report.property.value}: holds")
        return
    print(f"{report.property.value}: VIOLATED ({len(report.witnesses)} witnesses)")
    shown = report.witnesses if all_witnesses else report.witnesses[:WITNESS_LIMIT]
    for w in shown:
        print(f"  - {core.witness_text(w, table)}")
    hidden = len(report.witnesses) - len(shown)
    if hidden > 0:
        print(f"  ... ({hidden} more; use --all-witnesses to print them)")


def _transform_config(args):
    from .transform import Strategy, TransformConfig

    return TransformConfig(
        r=args.r,
        seed=args.seed,
        max_rounds=args.max_rounds,
        strategy=Strategy(args.strategy),
    )


def cmd_build_spindle(args) -> int:
    from . import spindle

    if args.transform:
        if args.r is None or args.seed is None:
            raise ValueError("--transform requires --r and --seed")
        result = spindle.build_exponential_spindle(args.dim, _transform_config(args))
        print(f"rounds used: {result.rounds_used}", file=sys.stderr)
        document.dump(result, sys.stdout)
    else:
        template = spindle.build_spindle_template(args.dim)
        document.dump(template.spindle, sys.stdout)
    return EXIT_OK


def cmd_transform(args) -> int:
    from . import transform

    obj = document.parse(_read_input(args.input))
    if isinstance(obj, TransformResult):
        raise ValueError("input is already a transform result; expected a template")
    result = transform.construct_with_resampling(obj, _transform_config(args))
    print(f"rounds used: {result.rounds_used}", file=sys.stderr)
    document.dump(result, sys.stdout)
    return EXIT_OK


# The graph keeps its verdicts, so these share parse's validation, and
# the first of the three pair-based checks runs the one near-pair search.
_PROPERTY_CHECKS = {
    "adjacency": core.check_adjacency,
    "strong-adjacency": core.check_strong_adjacency,
    "endpoint-count": core.check_endpoint_count,
    "singleton": core.check_singleton,
    "dimension-reduction": core.check_dimension_reduction,
}


def cmd_verify(args) -> int:
    obj = document.parse(_read_input(args.input))
    spg = _spg_of(obj)

    # print as computed: a check that refuses (exit 2) keeps earlier verdicts
    _print_report(core.validate(spg), spg.symbols, args.all_witnesses)
    if args.property == "all":
        selected = list(_PROPERTY_CHECKS)
    else:
        selected = [args.property]
    violated = False
    for name in selected:
        report = _PROPERTY_CHECKS[name](spg)
        _print_report(report, spg.symbols, args.all_witnesses)
        violated = violated or not report.holds
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_restrict(args) -> int:
    obj = document.parse(_read_input(args.input))
    spg = _spg_of(obj)
    labels = [part for part in args.facet.split(",") if part]
    face = FacetSet.from_labels(spg.symbols, labels)
    restricted = core.restrict(spg, face)
    if restricted is None:
        print("restriction: empty")
        return EXIT_OK
    document.dump(restricted, sys.stdout)
    return EXIT_OK


def cmd_stats(args) -> int:
    obj = document.parse(_read_input(args.input))
    spg = _spg_of(obj)
    print(f"dimension: {spg.dimension}")
    print(f"symbols: {spg.symbols.n}")
    print(f"vertices: {len(spg.vertices)}")
    print(f"sets: {len(spg.family())}")
    print(f"edges: {len(spg.edges)}")
    print(f"max-degree: {core.max_degree(spg)}")
    try:
        print(f"diameter: {core.diameter(spg)}")
    except ValueError:
        print("diameter: unreachable (graph is disconnected)")

    if isinstance(obj, TransformResult) and obj.apices is not None:
        obj = Spindle(spg, *obj.apices)
    if isinstance(obj, Spindle):
        print(f"spindle-length: {obj.length()}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import experiments
    from .transform import Strategy

    obj = document.parse(_read_input(args.input))
    template = _spg_of(obj)
    report = experiments.sweep_r(
        template, args.r_list, args.trials, args.seed,
        max_rounds=args.max_rounds, strategy=Strategy(args.strategy))

    if args.json:
        sys.stdout.write(document.canonical_json(dataclasses.asdict(report)))
        return EXIT_OK

    print(f"template: {report.template}")
    print("r\ttrials\tsuccesses\tmean-rounds\tmean-round0-bad-events")
    for row in report.rows:
        mean_rounds = "-" if row.mean_rounds is None else f"{row.mean_rounds:.6f}"
        print(f"{row.r}\t{row.trials}\t{row.successes}\t{mean_rounds}"
              f"\t{row.mean_round0_bad_events:.6f}")
    return EXIT_OK


def cmd_estimate_bad_event(args) -> int:
    from . import transform

    d = args.dim
    center = FacetSet(range(d))
    leaf1 = FacetSet(range(d, 2 * d))
    leaf2 = FacetSet(range(2 * d, 3 * d))
    estimate = transform.estimate_bad_event_probability(
        center, leaf1, leaf2, args.r, args.trials, args.seed)
    print(f"dim: {d}")
    print(f"r: {args.r}")
    print(f"trials: {estimate.trials}")
    print(f"occurrences: {estimate.occurrences}")
    print(f"frequency: {estimate.frequency:.6f}")
    print(f"analytic-bound: {estimate.analytic_bound:.6f}")
    return EXIT_OK


# Argument types: argparse names the flag in the messages they raise and
# exits 2, before any input is read.
def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _at_least(low: int, bound: str):
    """The type of an int flag of at least ``low``, described as ``bound``."""
    def parse_int(text: str) -> int:
        value = _int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse_int


_non_negative = _at_least(0, "non-negative")
_positive_int = _at_least(1, "positive")
_multiplier = _at_least(2, "at least 2")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    # each value is a row multiplier, checked and refused as --r is
    return [_multiplier(str(value)) for value in values]


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input", default=None,
        help="input document path (default: stdin)")


def _add_transform_options(parser: argparse.ArgumentParser,
                           required: bool) -> None:
    parser.add_argument("--r", type=_multiplier, required=required,
                        help="row multiplier (at least 2)")
    parser.add_argument("--seed", type=_non_negative, required=required,
                        help="random seed (explicit, for reproducibility)")
    parser.add_argument("--strategy", choices=["resample", "reject"],
                        default="resample")
    parser.add_argument("--max-rounds", type=_non_negative, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spg",
        description="Subset partition graphs: construction and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-spindle",
                       help="emit the all-subsets spindle template, or its "
                            "full randomized construction with --transform")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--transform", action="store_true",
                   help="run the randomized construction on the template")
    _add_transform_options(p, required=False)
    p.set_defaults(func=cmd_build_spindle)

    p = sub.add_parser("transform",
                       help="run the randomized construction on a template")
    _add_input(p)
    _add_transform_options(p, required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="check properties, print witnesses")
    _add_input(p)
    p.add_argument("--property", default="all",
                   choices=[*_PROPERTY_CHECKS, "all"])
    p.add_argument("--all-witnesses", action="store_true",
                   help=f"print every witness, not just the first {WITNESS_LIMIT}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("restrict", help="restrict the graph to a face")
    _add_input(p)
    p.add_argument("--facet", required=True,
                   help="comma-separated symbol labels, e.g. a,b")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("stats", help="print size, degree, diameter, length")
    _add_input(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep",
                       help="success-rate sweep over row multipliers")
    _add_input(p)
    p.add_argument("--r-list", type=_int_list, required=True,
                   help="e.g. 4,8,16")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--max-rounds", type=_non_negative, default=1000)
    p.add_argument("--strategy", choices=["resample", "reject"],
                   default="resample")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate-bad-event",
                       help="Monte-Carlo bad-event frequency on a "
                            "disjoint degree-2 star")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--r", type=_multiplier, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.set_defaults(func=cmd_estimate_bad_event)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(err.code or 0)
    # A command builds one large graph of objects without reference
    # cycles and then exits, so the cyclic collector would only re-scan
    # it; pause it and leave it as found.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ResamplingExhaustedError, ConstructionVerificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION_FAILED
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as err:
        # str() of a KeyError quotes its message; print the message itself
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (document.DocumentError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
