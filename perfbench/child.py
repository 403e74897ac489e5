"""One child process of the benchmark: set-up, a library repetition, or
the traced replay.  run.py starts it in a fresh interpreter so that the
child's own maximum RSS belongs to exactly one piece of work:

    python3 perfbench/child.py {setup,rep,replay} --workload W --seed S \
        --size {full,tiny} --workdir DIR

``rep`` and ``replay`` print one JSON object on stdout.  The replay calls
the library's public functions itself, in the order the program calls
them, and wraps each call in a span (see tracer.py); it never patches
the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from dataclasses import replace

import numpy as np

import spgraphs as spg
from spgraphs.experiments import describe_template, trial_seed

from calibrate import sample as calibrate
from tracer import Tracer
from workloads import GENERAL_PROPERTIES, SIZES, SPINDLE_PROPERTIES, star_sets

GENERAL_DOC = "general.json"

CHECKS = {
    "adjacency": ("core.check_adjacency", spg.check_adjacency),
    "strong-adjacency": ("core.check_strong_adjacency", spg.check_strong_adjacency),
    "endpoint-count": ("core.check_endpoint_count", spg.check_endpoint_count),
    "singleton": ("core.check_singleton", spg.check_singleton),
}
# The re-verification construct_with_resampling runs, in its order.
CONSTRUCTION_CHECKS = (
    ("core.validate", spg.validate),
    CHECKS["singleton"],
    CHECKS["adjacency"],
    CHECKS["strong-adjacency"],
    CHECKS["endpoint-count"],
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- inputs

def general_spg(seed: int, sets: int, symbols: int, dim: int, per_vertex: int) -> spg.Spg:
    """Random valid SPG that is not singleton: distinct dim-subsets of the
    symbols, per_vertex to a vertex, joined by a random recursive tree."""
    rng = random.Random(seed)
    family: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(family) < sets:
        subset = tuple(sorted(rng.sample(range(symbols), dim)))
        if subset not in seen:
            seen.add(subset)
            family.append(subset)
    vertices = [[spg.FacetSet(s) for s in family[i:i + per_vertex]]
                for i in range(0, sets, per_vertex)]
    edges = [(rng.randrange(i), i) for i in range(1, len(vertices))]
    return spg.Spg.build(spg.SymbolTable.alphabetic(symbols), dim, vertices, edges)


def star_template(size: str) -> spg.Spg:
    st = SIZES[size]["star"]
    centre, leaves = star_sets(st["delta"], st["dim"])
    table = spg.SymbolTable.alphabetic(st["dim"] * (st["delta"] + 1))
    return spg.build_star_template(
        table, spg.FacetSet(centre), [spg.FacetSet(leaf) for leaf in leaves])


def mc_sets(size: str) -> tuple[spg.FacetSet, spg.FacetSet, spg.FacetSet]:
    centre, leaves = star_sets(2, SIZES[size]["mc"]["dim"])
    return spg.FacetSet(centre), spg.FacetSet(leaves[0]), spg.FacetSet(leaves[1])


def setup(args) -> None:
    """Make the workload's inputs ready; run.py times this whole process."""
    sz = SIZES[args.size]
    if args.workload == "spindle-pipe":
        spg.build_spindle_template(sz["spindle"]["dim"])
    elif args.workload == "star-certified":
        star_template(args.size)
    elif args.workload == "probes":
        spg.build_spindle_template(sz["sweep"]["dim"])
        mc_sets(args.size)
    else:
        g = sz["general"]
        text = spg.serialize(general_spg(
            args.seed, g["sets"], g["symbols"], g["dim"], g["per_vertex"]))
        with open(os.path.join(args.workdir, GENERAL_DOC), "w", encoding="utf-8") as fh:
            fh.write(text)


# ------------------------------------------------------------- summaries

def result_summary(result: spg.TransformResult) -> dict:
    """Everything structural about a construction, reduced to a digest."""
    payload = json.dumps([
        [[format(fs.mask, "x") for fs in vertex] for vertex in result.spg.vertices],
        result.spg.edges, result.edge_paths, result.vertex_map, result.rounds_used,
    ])
    return {"digest": sha256(payload), "rounds": result.rounds_used,
            "sets": len(result.spg.family())}


def sweep_rows(rows) -> list:
    return [[row.r, row.trials, row.successes, row.mean_rounds,
             row.mean_round0_bad_events] for row in rows]


# ------------------------------------------------------ untraced library

def rep(args) -> dict:
    """One untraced repetition of a library workload."""
    sz = SIZES[args.size]
    if args.workload == "star-certified":
        template = star_template(args.size)
        config = spg.TransformConfig(r=sz["star"]["r"], seed=trial_seed(args.seed, 0))
        cal = [calibrate()]
        t0 = time.perf_counter()
        result = spg.construct_with_resampling(template, config)
        t1 = time.perf_counter()
        cal.append(calibrate())
        return {"times": {"construct_s": t1 - t0}, "cal": cal,
                "summary": {"construct": result_summary(result)}}

    template = spg.build_spindle_template(sz["sweep"]["dim"]).spindle.spg
    centre, leaf1, leaf2 = mc_sets(args.size)
    sw, mc = sz["sweep"], sz["mc"]
    cal = [calibrate()]
    t0 = time.perf_counter()
    report = spg.sweep_r(template, sw["r_values"], sw["trials"], args.seed)
    t1 = time.perf_counter()
    cal.append(calibrate())
    t2 = time.perf_counter()
    estimate = spg.estimate_bad_event_probability(
        centre, leaf1, leaf2, mc["r"], mc["trials"], args.seed)
    t3 = time.perf_counter()
    cal.append(calibrate())
    return {"times": {"sweep_s": t1 - t0, "mc_s": t3 - t2}, "cal": cal,
            "summary": {"sweep": {"template": report.template,
                                  "rows": sweep_rows(report.rows)},
                        "mc": {"trials": estimate.trials,
                               "occurrences": estimate.occurrences}}}


# ---------------------------------------------------------------- replay

def verify_call(tr: Tracer, name: str, fn, graph: spg.Spg) -> spg.PropertyReport:
    before = max_rss_kb()
    with tr.span(name, sets=len(graph.family()), dim=graph.dimension) as attrs:
        report = fn(graph)
        attrs["witnesses"] = len(report.witnesses)
    attrs["rss_growth_kb"] = max_rss_kb() - before
    return report


def draw(tr: Tracer, rng, edge_count: int, r: int):
    return tr.call("transform.PermutationAssignment.draw",
                   spg.PermutationAssignment.draw, rng, edge_count, r).perms


def replay_construction(tr: Tracer, template: spg.Spg, r: int, seed: int,
                        max_rounds: int = 1000):
    """construct_with_resampling (strategy RESAMPLE), call by call.

    Returns (result or None on failure, rounds, round-0 bad events)."""
    with tr.span("bench.construction", r=r) as attrs:
        rng = np.random.default_rng(seed)
        perms = list(draw(tr, rng, len(template.edges), r))
        redrawn = round0 = 0
        for attempt in range(max_rounds + 1):
            with tr.span("transform.build_subdivision") as a:
                result = spg.build_subdivision(
                    template, r, spg.PermutationAssignment(tuple(perms)))
                a["sets"] = len(result.spg.vertices)
            with tr.span("transform.find_bad_events") as a:
                events = spg.find_bad_events(result, template)
                a["events"] = len(events)
            if attempt == 0:
                round0 = len(events)
            if not events:
                reports = [verify_call(tr, name, fn, result.spg)
                           for name, fn in CONSTRUCTION_CHECKS]
                ok = all(report.holds for report in reports)
                attrs.update(rounds=attempt, redrawn=redrawn, ok=ok)
                return (replace(result, rounds_used=attempt) if ok else None), attempt, round0
            if attempt == max_rounds:
                break
            for ei in sorted({ei for ev in events for ei in ev.edges}):
                perms[ei] = draw(tr, rng, 1, r)[0]
                redrawn += 1
        attrs.update(rounds=max_rounds, redrawn=redrawn, ok=False)
        return None, max_rounds, round0


def replay_sweep(tr: Tracer, template: spg.Spg, r_values, trials: int, seed: int) -> dict:
    with tr.span("bench.sweep_r"):
        tr.call("core.check_singleton", spg.check_singleton, template)
        rows = []
        for r in r_values:
            successes, rounds, round0s = 0, [], []
            for t in range(trials):
                result, used, round0 = replay_construction(
                    tr, template, r, tr.call("experiments.trial_seed", trial_seed, seed, t))
                round0s.append(round0)
                if result is not None:
                    successes += 1
                    rounds.append(used)
            rows.append([r, trials, successes,
                         sum(rounds) / len(rounds) if rounds else None,
                         sum(round0s) / trials])
        described = tr.call("experiments.describe_template", describe_template, template)
    return {"template": described, "rows": rows}


def replay_mc(tr: Tracer, sets, r: int, trials: int, seed: int) -> dict:
    with tr.span("bench.estimate_bad_event_probability"):
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(trials):
            with tr.span("bench.mc_trial") as attrs:
                p1 = draw(tr, rng, 1, r)[0]
                p2 = draw(tr, rng, 1, r)[0]
                occurred = tr.call("transform.bad_event_occurs",
                                   spg.bad_event_occurs, *sets, r, p1, p2)
                attrs["occurred"] = occurred
            hits += occurred
    return {"trials": trials, "occurrences": hits}


def parse_doc(tr: Tracer, text: str):
    with tr.span("document.parse", bytes=len(text.encode())):
        obj = spg.parse(text)
    graph = obj if isinstance(obj, spg.Spg) else obj.spg
    return obj, graph


def replay_build(tr: Tracer, dim: int, r: int, seed: int) -> tuple[dict, str]:
    """cmd_build_spindle with --transform: build_exponential_spindle, then serialize.

    The command builds the template once itself and once more inside
    build_exponential_spindle; so does the replay."""
    tr.call("spindle.build_spindle_template", spg.build_spindle_template, dim)
    template = tr.call("spindle.build_spindle_template", spg.build_spindle_template, dim)
    result, rounds, _ = replay_construction(tr, template.spindle.spg, r, seed)
    if result is None:
        return {"failed": True}, ""
    apices = (tr.call("transform.lift_facet", spg.lift_facet, template.spindle.apex1, r),
              tr.call("transform.lift_facet", spg.lift_facet, template.spindle.apex2, r))
    tr.call("core.graph_distance", spg.graph_distance, result.spg,
            result.vertex_map[0], result.vertex_map[len(template.order) - 1])
    result = replace(result, apices=apices)
    with tr.span("document.serialize") as attrs:
        text = spg.serialize(result)
        attrs["bytes"] = len(text.encode())
    return {"document_sha256": sha256(text), "rounds": rounds}, text


def replay_verify(tr: Tracer, text: str, prop: str) -> dict:
    _, graph = parse_doc(tr, text)
    validity = verify_call(tr, "core.validate", spg.validate, graph)
    out = {"validity": [validity.holds, len(validity.witnesses)]}
    if validity.holds:
        name, fn = CHECKS[prop]
        report = verify_call(tr, name, fn, graph)
        out[prop] = [report.holds, len(report.witnesses)]
    return out


def replay_stats(tr: Tracer, text: str) -> dict:
    obj, graph = parse_doc(tr, text)
    out = {"dimension": graph.dimension, "symbols": graph.symbols.n,
           "vertices": len(graph.vertices), "sets": len(graph.family()),
           "edges": len(graph.edges),
           "max-degree": tr.call("core.max_degree", spg.max_degree, graph)}
    try:
        out["diameter"] = tr.call("core.diameter", spg.diameter, graph)
    except ValueError:
        out["diameter"] = None
    apices = None
    if isinstance(obj, spg.Spindle):
        apices = (obj.apex1, obj.apex2)
    elif isinstance(obj, spg.TransformResult) and obj.apices is not None:
        apices = obj.apices
    if apices is not None:
        locate = {fs: vi for vi, vertex in enumerate(graph.vertices) for fs in vertex}
        out["spindle-length"] = tr.call(
            "core.graph_distance", spg.graph_distance, graph,
            locate[apices[0]], locate[apices[1]])
    return out


def replay(args) -> dict:
    """The workload's work, call by call, with a span around each call."""
    tr = Tracer()
    sz = SIZES[args.size]
    summary: dict = {}
    if args.workload == "spindle-pipe":
        sp = sz["spindle"]
        with tr.span("bench.op.build"):
            summary["build"], text = replay_build(tr, sp["dim"], sp["r"], args.seed)
        for prop in SPINDLE_PROPERTIES:
            with tr.span(f"bench.op.verify-{prop}"):
                summary[f"verify-{prop}"] = replay_verify(tr, text, prop)
        with tr.span("bench.op.stats"):
            summary["stats"] = replay_stats(tr, text)
    elif args.workload == "general-verify":
        path = os.path.join(args.workdir, GENERAL_DOC)
        for prop in GENERAL_PROPERTIES:
            with tr.span(f"bench.op.verify-{prop}"):
                with open(path, encoding="utf-8") as fh:
                    summary[f"verify-{prop}"] = replay_verify(tr, fh.read(), prop)
        with tr.span("bench.op.stats"):
            with open(path, encoding="utf-8") as fh:
                summary["stats"] = replay_stats(tr, fh.read())
    elif args.workload == "star-certified":
        template = tr.call("spindle.build_star_template", star_template, args.size)
        with tr.span("bench.op.construct"):
            seed = tr.call("experiments.trial_seed", trial_seed, args.seed, 0)
            result, _, _ = replay_construction(tr, template, sz["star"]["r"], seed)
        summary["construct"] = result_summary(result) if result else {"failed": True}
    else:
        template = tr.call("spindle.build_spindle_template",
                           spg.build_spindle_template, sz["sweep"]["dim"]).spindle.spg
        sw, mc = sz["sweep"], sz["mc"]
        with tr.span("bench.op.sweep"):
            summary["sweep"] = replay_sweep(tr, template, sw["r_values"], sw["trials"], args.seed)
        with tr.span("bench.op.mc"):
            summary["mc"] = replay_mc(tr, mc_sets(args.size), mc["r"], mc["trials"], args.seed)
    return {"summary": summary, "spans": tr.spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "rep", "replay"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(SIZES))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
        return 0
    out = rep(args) if args.mode == "rep" else replay(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
