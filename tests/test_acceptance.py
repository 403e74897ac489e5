"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Expected values are either trivial, frozen from an
independent oracle (binomials, plain-set enumeration, exhaustive
permutation scans), or inequalities the analysis guarantees.
"""

import math
import random
import subprocess
import sys
from itertools import permutations
from math import comb

import numpy as np
import pytest

from conftest import (
    brute_force_endpoint_violations,
    label_set,
    oracle_path,
    random_general_spg,
    random_singleton_spg,
    row_structure_violations,
)
from spgraphs import (
    FacetSet,
    PermutationAssignment,
    SymbolTable,
    TransformConfig,
    TransformResult,
    build_exponential_spindle,
    build_path_template,
    build_spindle_template,
    build_star_template,
    build_subdivision,
    check_adjacency,
    check_endpoint_count,
    check_localization,
    check_singleton,
    check_strong_adjacency,
    construct_with_resampling,
    estimate_bad_event_probability,
    graph_distance,
    min_multiplier,
    parse,
    restrict,
    serialize,
    sliding_window_path,
    validate,
)


def fs(*elements):
    return FacetSet(elements)


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared constructions (reused by criteria 3, 5, 6, 9)

@pytest.fixture(scope="module")
def certified_path_results():
    """Ten seeded runs of the full construction on the canonical
    max-degree-2 path at the certified multiplier."""
    template = sliding_window_path(2)
    r = min_multiplier(2)
    results = []
    for seed in range(10):
        results.append(construct_with_resampling(
            template, TransformConfig(r=r, seed=seed, max_rounds=1000)))
    return template, results


@pytest.fixture(scope="module")
def localization_cases():
    """50 random (template, permutation assignment) subdivisions with
    r in 4..8, d <= 3, at most 6 template vertices."""
    rng = random.Random(20250808)
    cases = []
    for case in range(50):
        template = random_singleton_spg(rng, max_vertices=6, max_dim=3)
        r = rng.randint(4, 8)
        perm_rng = np.random.default_rng(1000 + case)
        perms = PermutationAssignment.draw(perm_rng, len(template.edges), r)
        cases.append((template, build_subdivision(template, r, perms)))
    return cases


@pytest.fixture(scope="module")
def spindle87():
    return build_exponential_spindle(2, TransformConfig(r=87, seed=7))


# ---------------------------------------------------------------------------

def built_path(symbols, a, a2, r, perm):
    """The label sets along the subdivided edge of the two-set path
    A - A2, as the construction builds it."""
    result = TransformResult(build_path_template(symbols, [a, a2]), r, (perm,))
    return [label_set(result.spg.vertices[v][0], result.spg.symbols)
            for v in result.edge_paths[0]]


def test_criterion_01_golden_subdivision_vector():
    symbols = SymbolTable.alphabetic(4)
    args = (fs(0, 1), fs(2, 3), 2, (1, 2))
    expected = [
        {"a@1", "b@1", "a@2", "b@2"},
        {"c@1", "b@1", "a@2", "b@2"},
        {"c@1", "d@1", "a@2", "b@2"},
        {"c@1", "d@1", "c@2", "b@2"},
        {"c@1", "d@1", "c@2", "d@2"},
    ]
    ok = (built_path(symbols, *args) == expected
          and oracle_path(symbols.labels, *args) == expected)
    _criterion(1, "subdivision of {a,b}-{c,d} at r=2 reproduces the "
                  "five golden sets exactly", ok,
               detail="the construction and the label oracle")


def test_criterion_02_spindle_template_lengths():
    got = {d: build_spindle_template(d).length for d in (1, 2, 3, 4)}
    expected = {d: comb(2 * d, d) - 1 for d in (1, 2, 3, 4)}
    ok = got == expected == {1: 1, 2: 5, 3: 19, 4: 69}
    _criterion(2, "spindle template lengths for d=1..4 are 1, 5, 19, 69",
               ok, detail=f"got {sorted(got.values())}")


def test_criterion_03_certified_construction_end_to_end(certified_path_results):
    template, results = certified_path_results
    checks = (validate, check_adjacency, check_strong_adjacency,
              check_endpoint_count, check_singleton)
    failures = []
    for seed, result in enumerate(results):
        for check in checks:
            if not check(result.spg).holds:
                failures.append((seed, check.__name__))
    ok = len(results) == 10 and not failures
    _criterion(3, "max-degree-2 path, d=2, r=87: 10/10 seeds construct and "
                  "pass all five verifiers", ok,
               detail=f"failures: {failures}" if failures else "10/10")


def test_criterion_04_bad_event_frequency_bound():
    center, leaf1, leaf2 = fs(0, 1), fs(2, 3), fs(4, 5)
    trials = 10_000
    rows = []
    ok = True
    for r in (8, 16, 32):
        est = estimate_bad_event_probability(
            center, leaf1, leaf2, r, trials, seed=1000 + r)
        bound = 4 / r
        tol = bound + 3 * math.sqrt(bound * (1 - bound) / trials)
        rows.append(f"r={r}: {est.frequency:.4f} <= {tol:.4f}")
        ok = ok and est.frequency <= tol
    _criterion(4, "disjoint star bad-event frequency stays within 4/r "
                  "plus three binomial deviations (10k trials each)",
               ok, detail="; ".join(rows))


def test_criterion_05_localization(localization_cases):
    failures = []
    for idx, (template, result) in enumerate(localization_cases):
        report = check_localization(result)
        if not report.holds:
            failures.append(idx)
    _criterion(5, "50 random subdivisions with r in 4..8 localize every "
                  "near-coincidence to incident edges",
               not failures,
               detail=f"violating cases: {failures}" if failures else "50/50")


def test_criterion_06_row_structure_replay(certified_path_results, localization_cases,
                                           spindle87):
    template, results = certified_path_results
    instances = [(template, res) for res in results]
    instances += list(localization_cases)
    instances.append((build_spindle_template(2).spindle.spg, spindle87))
    total = 0
    for original, result in instances:
        total += len(row_structure_violations(result, original))
    _criterion(6, "every constructed set matches an endpoint in all rows "
                  "but at most one, across all instances of criteria 3 "
                  "and 5", total == 0,
               detail=f"{len(instances)} instances, {total} violations")


def test_criterion_07_interpolation_law():
    violations = 0
    cases = 0
    mismatches = 0
    for d in (1, 2, 3):
        symbols = SymbolTable.alphabetic(2 * d)
        for overlap in range(d):
            a = fs(*range(d))
            a2 = fs(*(list(range(overlap)) + list(range(d, 2 * d - overlap))))
            for r in (1, 2, 3, 4):
                for perm in permutations(range(1, r + 1)):
                    path = oracle_path(symbols.labels, a, a2, r, perm)
                    # the construction needs r >= 2
                    if r >= 2 and built_path(symbols, a, a2, r, perm) != path:
                        mismatches += 1
                    for k, entry in enumerate(path):
                        cases += 1
                        # plain python set intersection
                        if len(path[0] & entry) != r * d - k:
                            violations += 1
    _criterion(7, "all d<=3, r<=4, all permutations: k-th subdivision set "
                  "meets the start in exactly rd-k symbols",
               violations == 0 and mismatches == 0,
               detail=f"{cases} positions checked, {mismatches} paths "
                      f"built otherwise than the label oracle")


def test_criterion_08_endpoint_count_oracle_equivalence():
    rng = random.Random(8)
    disagreements = 0
    for _ in range(200):
        spg = random_general_spg(rng, max_sets=200)
        hashed = check_endpoint_count(spg)
        brute = brute_force_endpoint_violations(spg)
        got = {frozenset(w[1].elements) for w in hashed.witnesses}
        if got != brute or hashed.holds != (not brute):
            disagreements += 1
    _criterion(8, "hashed end-point-count verifier agrees with the "
                  "brute-force scan on 200 random instances",
               disagreements == 0)


def test_criterion_09_spindle_scaling(spindle87):
    result = spindle87
    locate = {v[0]: i for i, v in enumerate(result.spg.vertices)}
    length = graph_distance(
        result.spg, locate[result.apices[0]], locate[result.apices[1]])
    floor = 87 * (comb(4, 2) - 1)
    desk_scale_ok = all(
        build_spindle_template(d).length == comb(2 * d, d) - 1
        for d in (1, 2, 3, 4))
    ok = (length >= floor == 435 and result.spg.dimension == 174
          and result.spg.symbols.n == 348 and desk_scale_ok)
    _criterion(9, "constructed d=2, r=87 spindle keeps length >= 435",
               ok, detail=f"length {length}")


def test_criterion_10_round_trip_and_cli_determinism(spindle87):
    table = SymbolTable.alphabetic(6)
    good_path = sliding_window_path(2)
    corpus = [
        good_path,
        build_path_template(table, [fs(0, 1), fs(2, 3), fs(1, 2)]),
        build_star_template(table, fs(0, 1), [fs(2, 3), fs(4, 5)]),
        build_spindle_template(1).spindle,
        build_spindle_template(2).spindle,
        build_spindle_template(3).spindle,
        restrict(good_path, fs(1)),
        restrict(good_path, fs(0, 1)),   # dimension-zero restriction
        build_subdivision(
            build_path_template(
                SymbolTable.alphabetic(4), [fs(0, 1), fs(2, 3)]),
            2, PermutationAssignment(((1, 2),))),
        construct_with_resampling(good_path, TransformConfig(r=4, seed=3)),
        build_exponential_spindle(1, TransformConfig(r=4, seed=2)),
        spindle87,
    ]
    round_trip_ok = all(parse(serialize(obj)) == obj for obj in corpus)

    argvs = [
        [sys.executable, "-m", "spgraphs", "build-spindle", "--dim", "2",
         "--transform", "--r", "8", "--seed", "7"],
        [sys.executable, "-m", "spgraphs", "estimate-bad-event", "--dim", "2",
         "--r", "8", "--trials", "500", "--seed", "3"],
    ]
    cli_ok = True
    for argv in argvs:
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        cli_ok = cli_ok and first.stdout == second.stdout and first.stdout
    _criterion(10, "document round-trip is the identity on the corpus and "
                   "repeated CLI invocations are byte-identical",
               bool(round_trip_ok and cli_ok),
               detail=f"{len(corpus)} corpus objects, {len(argvs)} commands")
