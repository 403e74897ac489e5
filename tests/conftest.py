"""Shared strategies, random-instance generators and brute-force oracles
for the test suite."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations

from hypothesis import strategies as st

import numpy as np

from spgraphs import (
    BadEvent,
    BudgetExceededError,
    ConstructionVerificationError,
    DimensionReductionSummary,
    DocumentError,
    FacetSet,
    PermutationAssignment,
    PropertyReport,
    ResamplingExhaustedError,
    Spg,
    SpgProperty,
    Strategy,
    SweepReport,
    SweepRow,
    SymbolTable,
    TransformConfig,
    TransformResult,
    build_subdivision,
    check_dimension_reduction,
    construct_with_resampling,
    restrict,
    sliding_window_path,
    validate,
    verify_all,
)
from spgraphs import core
from spgraphs.core import require_valid
from spgraphs.experiments import describe_template, trial_seed


@st.composite
def spg_instances(draw, singleton=False, max_symbols=7, max_dim=3, max_sets=8):
    """Random valid SPGs: distinct d-subsets grouped into vertices and
    connected by a random spanning tree plus a few extra edges."""
    n = draw(st.integers(2, max_symbols))
    d = draw(st.integers(1, min(max_dim, n)))
    return draw(_spg_on(n, d, range(n), singleton, max_sets))


@st.composite
def wide_spg_instances(draw, max_dim=4, max_sets=10):
    """Random valid SPGs on 63 to 200 symbols whose sets draw on a few
    symbols, many of them at a 64-bit word boundary or at the top."""
    n = draw(st.sampled_from([63, 64, 65, 128, 129, 200]))
    hot = st.sampled_from([0, 62, 63, 64, 65, 127, 128, n - 2, n - 1])
    used = draw(st.lists(st.one_of(hot, st.integers(0, n - 1)).filter(
        lambda x: x < n), min_size=2, max_size=7, unique=True))
    d = draw(st.integers(1, min(max_dim, len(used))))
    return draw(_spg_on(n, d, used, False, max_sets))


@st.composite
def _spg_on(draw, n, d, symbols, singleton, max_sets):
    pool = [FacetSet(c) for c in combinations(sorted(symbols), d)]
    m = draw(st.integers(1, min(len(pool), max_sets)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m,
                         unique=True))

    if singleton:
        vertices = [[fs] for fs in sets]
    else:
        k = draw(st.integers(1, m))
        assignment = [draw(st.integers(0, k - 1)) for _ in sets]
        groups: dict[int, list[FacetSet]] = {}
        for fs, g in zip(sets, assignment):
            groups.setdefault(g, []).append(fs)
        vertices = [groups[g] for g in sorted(groups)]

    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, len(vertices))]
    possible_extra = [
        (u, w) for u in range(len(vertices)) for w in range(u + 1, len(vertices))
        if (u, w) not in set(edges)
    ]
    if possible_extra:
        edges += draw(st.lists(st.sampled_from(possible_extra), unique=True,
                               max_size=min(3, len(possible_extra))))
    return Spg.build(SymbolTable.alphabetic(n), d, vertices, edges)


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


def random_singleton_spg(rng: random.Random, max_vertices: int = 6,
                         max_dim: int = 3) -> Spg:
    """Plain-random singleton SPG on a random tree (for seeded corpora)."""
    d = rng.randint(1, max_dim)
    n = rng.randint(d + 1, d + 4)
    pool = list(combinations(range(n), d))
    count = rng.randint(2, min(max_vertices, len(pool)))
    sets = [FacetSet(c) for c in rng.sample(pool, count)]
    edges = [(rng.randrange(i), i) for i in range(1, count)]
    return Spg.build(SymbolTable.alphabetic(n), d, [[fs] for fs in sets], edges)


@st.composite
def subdivision_cases(draw, min_r=2, max_r=5):
    """Small lifted constructions: a random singleton template, a row
    multiplier, one random row permutation per edge (bad events and all,
    so the results need not satisfy any property) and the result built
    from them, as (template, r, perms, result)."""
    seed = draw(st.integers(0, 2**32 - 1))
    template = random_singleton_spg(random.Random(seed), max_vertices=5)
    r = draw(st.integers(min_r, max_r))
    perms = PermutationAssignment.draw(
        np.random.default_rng(seed), len(template.edges), r)
    return template, r, perms, build_subdivision(template, r, perms)


@st.composite
def wide_swap_cases(draw):
    """Random singleton trees, some with an extra edge or two, of d = 1..5
    on 2d or 2d + 1 symbols, so that the sets of an edge often differ in
    three symbols or more; with r = 2..5 and one random row permutation
    per edge, as (template, r, perms)."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2 * d, 2 * d + 1))
    pool = [FacetSet(c) for c in combinations(range(n), d)]
    k = draw(st.integers(1, min(len(pool), 8)))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                         unique=True))
    at = draw(st.permutations(range(k)))
    edges = {(at[draw(st.integers(0, i - 1))], at[i]) for i in range(1, k)}
    for _ in range(draw(st.integers(0, 2)) if k > 2 else 0):
        u, w = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        if (w, u) not in edges:
            edges.add((u, w))
    template = Spg.build(SymbolTable.alphabetic(n), d, [[s] for s in sets],
                         sorted(edges))
    r = draw(st.integers(2, 5))
    perms = tuple(tuple(draw(st.permutations(range(1, r + 1))))
                  for _ in template.edges)
    return template, r, perms


def subdivisions(min_r=2, max_r=5):
    """:func:`subdivision_cases` as (template, result)."""
    return subdivision_cases(min_r, max_r).map(lambda case: (case[0], case[3]))


def random_general_spg(rng: random.Random, max_sets: int = 200) -> Spg:
    """Plain-random (non-singleton) valid SPG with up to max_sets members."""
    d = rng.randint(1, 4)
    n = rng.randint(d + 1, 12)
    pool = list(combinations(range(n), d))
    count = rng.randint(1, min(max_sets, len(pool)))
    sets = [FacetSet(c) for c in rng.sample(pool, count)]
    k = rng.randint(1, count)
    groups: dict[int, list[FacetSet]] = {}
    for i, fs in enumerate(sets):
        groups.setdefault(i % k, []).append(fs)
    vertices = [groups[g] for g in sorted(groups)]
    edges = [(rng.randrange(i), i) for i in range(1, len(vertices))]
    return Spg.build(SymbolTable.alphabetic(n), d, vertices, edges)


def brute_force_endpoint_violations(spg: Spg) -> set[frozenset[int]]:
    """Independent end-point-count oracle: for every (d-1)-subset of every
    member, scan the whole family with plain set containment."""
    family = [frozenset(fs.elements) for fs in spg.family()]
    violating: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()
    for member in family:
        for face in combinations(sorted(member), len(member) - 1):
            fface = frozenset(face)
            if fface in seen:
                continue
            seen.add(fface)
            holders = [m for m in family if fface <= m]
            if len(holders) > 2:
                violating.add(fface)
    return violating


# Brute-force oracles for the near-pair join and the verifiers built on
# it: plain loops over all pairs of sets (and, for the end-point count, a
# hash map over every set's (d-1)-subsets).

def _sorted_witnesses(witnesses: list[tuple]) -> tuple[tuple, ...]:
    return tuple(sorted(witnesses, key=lambda w: (w[0], str(w[1:]))))


def brute_force_near_pairs(spg: Spg) -> list[tuple[int, int]]:
    """Every i < j in facets_with_vertex order sharing exactly d-1 symbols."""
    family = spg.family()
    d = spg.dimension
    return [(i, j) for i in range(len(family)) for j in range(i + 1, len(family))
            if (family[i].mask & family[j].mask).bit_count() == d - 1]


def brute_force_adjacency(spg: Spg) -> PropertyReport:
    require_valid(spg)
    d = spg.dimension
    pairs = spg.facets_with_vertex()
    edge_set = spg.edge_set()
    witnesses: list[tuple] = []
    for i in range(len(pairs)):
        vi, a = pairs[i]
        for j in range(i + 1, len(pairs)):
            vj, b = pairs[j]
            if (a.mask & b.mask).bit_count() != d - 1:
                continue
            if vi == vj:
                continue
            if (min(vi, vj), max(vi, vj)) not in edge_set:
                witnesses.append(("non-adjacent-pair", a, b, vi, vj))
    return PropertyReport(SpgProperty.ADJACENCY, _sorted_witnesses(witnesses))


def brute_force_strong_adjacency(spg: Spg) -> PropertyReport:
    require_valid(spg)
    d = spg.dimension
    witnesses = list(brute_force_adjacency(spg).witnesses)
    for u, w in spg.edges:
        if not any(
            a.intersection_size(b) == d - 1
            for a in spg.vertices[u]
            for b in spg.vertices[w]
        ):
            witnesses.append(("unwitnessed-edge", u, w))
    return PropertyReport(SpgProperty.STRONG_ADJACENCY, _sorted_witnesses(witnesses))


def brute_force_endpoint_count(spg: Spg) -> PropertyReport:
    """Counts over each set's own d subsets of size d-1 (hash map)."""
    require_valid(spg)
    containing: dict[int, list[FacetSet]] = {}
    for fs in spg.family():
        for e in fs.elements:
            containing.setdefault(fs.mask ^ (1 << e), []).append(fs)
    witnesses = [
        ("over-counted-face", FacetSet.from_mask(sub), tuple(sorted(sets)))
        for sub, sets in containing.items() if len(sets) > 2
    ]
    return PropertyReport(SpgProperty.ENDPOINT_COUNT, _sorted_witnesses(witnesses))


def brute_force_localization(result: TransformResult, original: Spg) -> PropertyReport:
    if any(len(vertex) != 1 for vertex in result.spg.vertices):
        raise ValueError("localization needs a singleton result graph")
    on_edges: list[set[int]] = [set() for _ in result.spg.vertices]
    for ei, path in enumerate(result.edge_paths):
        for idx in path:
            on_edges[idx].add(ei)

    def share_endpoint(e1: int, e2: int) -> bool:
        if e1 == e2:
            return True
        u1, w1 = original.edges[e1]
        u2, w2 = original.edges[e2]
        return u1 in (u2, w2) or w1 in (u2, w2)

    rd = result.spg.dimension
    facet_of = [vertex[0] for vertex in result.spg.vertices]
    witnesses: list[tuple] = []
    for i in range(len(facet_of)):
        mi = facet_of[i].mask
        for j in range(i + 1, len(facet_of)):
            if (mi & facet_of[j].mask).bit_count() != rd - 1:
                continue
            if not any(share_endpoint(e1, e2)
                       for e1 in on_edges[i] for e2 in on_edges[j]):
                witnesses.append(
                    ("delocalized-pair", facet_of[i], facet_of[j], i, j))
    return PropertyReport(SpgProperty.LOCALIZATION, _sorted_witnesses(witnesses))


def facet_rows(fs: FacetSet, r: int) -> dict[int, frozenset[int]]:
    """Split a lifted set into its per-row base-symbol sets, keyed by the
    1-based row index."""
    rows: dict[int, set[int]] = {j: set() for j in range(1, r + 1)}
    for e in fs.elements:
        rows[e % r + 1].add(e // r)
    return {j: frozenset(s) for j, s in rows.items()}


def row_structure_violations(
    result: TransformResult, original: Spg
) -> tuple[tuple, ...]:
    """The row-structure law, the oracle of the certificate check that
    parse runs: constructed sets must agree row-wise with one endpoint
    or the other of their edge, in all but at most one row.  Returns one
    violation tuple per offending set (empty when the law holds)."""
    r = result.spg.dimension // original.dimension
    facet_of = [vertex[0] for vertex in result.spg.vertices]
    violations: list[tuple] = []
    for ei, (u, w) in enumerate(original.edges):
        end_u = frozenset(original.vertices[u][0].elements)
        end_w = frozenset(original.vertices[w][0].elements)
        for idx in result.edge_paths[ei]:
            rows = facet_rows(facet_of[idx], r)
            differing = sum(
                1 for row_set in rows.values()
                if row_set != end_u and row_set != end_w)
            if differing > 1:
                violations.append(("row-structure", idx, ei, differing))
    return tuple(sorted(violations, key=str))


# The oracle of the construction's build: the lift and each subdivision
# path made from the construction's description alone, as sets of labels
# "x@j" (base symbol x, row j).  It shares only SymbolTable's labels with
# the builder in core, not its masks, swap lists or walk.

def _labels_of_rows(labels, rows: dict[int, list[int]]) -> frozenset[str]:
    return frozenset(f"{labels[x]}@{j}" for j, ranks in rows.items()
                     for x in ranks)


def oracle_lift(labels, fs: FacetSet, r: int) -> frozenset[str]:
    """A x [r]: every base symbol of A in each of the rows 1..r, labelled
    from the base symbol labels ``labels``."""
    return _labels_of_rows(labels, {j: list(fs) for j in range(1, r + 1)})


def oracle_path(labels, a: FacetSet, a2: FacetSet, r: int, perm
                ) -> list[frozenset[str]]:
    """The subdivision path from A x [r] to A2 x [r], each set as its
    labels.  Each row holds a list of base-symbol ranks, A's at the
    start.  The rows are adjusted in the order of ``perm``, one row
    finished before the next; each step retires one symbol of A - A2
    from the row and introduces one of A2 - A, paired by ascending
    rank."""
    rows = {j: list(a) for j in range(1, r + 1)}
    retired = sorted(set(a) - set(a2))
    introduced = sorted(set(a2) - set(a))
    path = [_labels_of_rows(labels, rows)]
    for j in perm:
        for gone, came in zip(retired, introduced):
            rows[j].remove(gone)
            rows[j].append(came)
            path.append(_labels_of_rows(labels, rows))
    return path


def alphabet(*sets: FacetSet) -> SymbolTable:
    """Alphabetic labels for every base symbol the sets hold."""
    return SymbolTable.alphabetic(1 + max(x for fs in sets for x in fs))


def oracle_path_masks(a: FacetSet, a2: FacetSet, r: int, perm) -> list[int]:
    """:func:`oracle_path`'s sets as masks, each label at its index in the
    lifted symbol table."""
    symbols = alphabet(a, a2)
    lifted = symbols.lifted(r)
    return [FacetSet.from_labels(lifted, labels).mask
            for labels in oracle_path(symbols.labels, a, a2, r, perm)]


def label_set(fs: FacetSet, symbols: SymbolTable) -> frozenset[str]:
    """The labels of ``fs`` in ``symbols``."""
    return frozenset(symbols.labels[x] for x in fs)


# Brute-force oracles for the bad-event scan: every pair of sets on two
# subdivision paths out of a common vertex, with no band.

def brute_force_bad_events(result: TransformResult, original: Spg
                           ) -> tuple[BadEvent, ...]:
    """First witness pair in path order per incident edge pair, over all
    pairs of sets (the vertex's own image excluded)."""
    rd = result.spg.dimension
    facet_of = [vertex[0] for vertex in result.spg.vertices]
    incident: list[list[int]] = [[] for _ in original.vertices]
    for ei, (u, w) in enumerate(original.edges):
        incident[u].append(ei)
        incident[w].append(ei)
    events = []
    for v, edge_ids in enumerate(incident):
        own = result.vertex_map[v]
        candidates = {ei: [idx for idx in result.edge_paths[ei] if idx != own]
                      for ei in edge_ids}
        for e1, e2 in combinations(edge_ids, 2):
            witness = next(
                ((facet_of[b1], facet_of[b2])
                 for b1 in candidates[e1] for b2 in candidates[e2]
                 if facet_of[b1].intersection_size(facet_of[b2]) >= rd - 1),
                None)
            if witness:
                events.append(BadEvent(v, (e1, e2), witness))
    return tuple(events)


def brute_force_bad_event_occurs(center, leaf1, leaf2, r, perm1, perm2) -> bool:
    labels = alphabet(center, leaf1, leaf2).labels
    rd = r * len(center)
    path1 = oracle_path(labels, center, leaf1, r, perm1)[1:]
    path2 = oracle_path(labels, center, leaf2, r, perm2)[1:]
    return any(len(a & b) >= rd - 1 for a in path1 for b in path2)


def failed_reports(spg: Spg) -> list[PropertyReport]:
    """The reports a built construction fails: validity alone on an
    invalid graph, which the other checks refuse, else every failed
    report of verify_all."""
    validity = validate(spg)
    if not validity.holds:
        return [validity]
    return [rep for rep in verify_all(spg) if not rep.holds]


def verdicts(spg: Spg) -> tuple[PropertyReport, ...]:
    """:func:`verify_all` of ``spg``, reading what it keeps, or validity
    alone on an invalid graph, which verify_all refuses."""
    validity = validate(spg)
    return verify_all(spg) if validity.holds else (validity,)


def joined_verdicts(spg: Spg) -> tuple[PropertyReport, ...]:
    """:func:`verdicts` of ``dataclasses.replace(spg)``, a copy that keeps
    no verdicts, so that the near-pair join decides them: the oracle of
    a certified graph's kept reports."""
    return verdicts(replace(spg))


def replay_construction(spg: Spg, config: TransformConfig):
    """construct_with_resampling round by round: build every round, scan
    with the oracle, redraw from the same stream.  Returns the result, or
    the exception the construction should raise."""
    rng = np.random.default_rng(config.seed)
    perms = list(PermutationAssignment.draw(rng, len(spg.edges), config.r).perms)
    log = []
    for attempt in range(config.max_rounds + 1):
        result = build_subdivision(
            spg, config.r, PermutationAssignment(tuple(perms)))
        events = brute_force_bad_events(result, spg)
        if not events:
            failed = failed_reports(result.spg)
            if failed:
                return ConstructionVerificationError(failed, tuple(log))
            return replace(result, rounds_used=attempt, resample_log=tuple(log))
        log.append((attempt, events))
        if attempt == config.max_rounds:
            return ResamplingExhaustedError(events, log, config.max_rounds)
        if config.strategy is Strategy.RESAMPLE:
            targets = sorted({ei for ev in events for ei in ev.edges})
        else:
            targets = range(len(spg.edges))
        for ei in targets:
            perms[ei] = PermutationAssignment.draw(rng, 1, config.r).perms[0]


def path_ends(a: FacetSet, a2: FacetSet, r: int, perm) -> tuple[list[int], list[int]]:
    """The masks of the first min(2, r) rows of the subdivision path from
    A x [r] to A2 x [r], walked out of each end, cut from the whole
    path."""
    path = oracle_path_masks(a, a2, r, perm)
    steps = min(2, r) * (len(path) - 1) // r
    return path[:steps + 1], path[::-1][:steps + 1]


def oracle_ends(spg: Spg, r: int, perms) -> list[tuple[list[int], list[int]]]:
    """:func:`path_ends` of the subdivision path of each edge of the
    singleton template ``spg``, drawn with its permutation in ``perms``."""
    return [path_ends(spg.vertices[u][0], spg.vertices[w][0], r, perm)
            for (u, w), perm in zip(spg.edges, perms)]


def oracle_swaps(a: FacetSet, a2: FacetSet, r: int) -> list[tuple[int, int]]:
    """The steps of one row of the walk from A x [r] to A2 x [r]: the
    row-1 bit of the lifted symbol each retires (of A minus A2) and of the
    one it introduces (of A2 minus A), paired by ascending base-symbol
    rank."""
    return list(zip((e * r for e in a.elements if e not in a2),
                    (e * r for e in a2.elements if e not in a)))


def oracle_lift_table(spg: Spg, r: int) -> core._LiftTable:
    """The lift table of the singleton template ``spg`` at ``r``, made
    from its sets at r alone: each set's :func:`oracle_lift`, each
    edge's :func:`oracle_swaps` and the mask of every label in row 1."""
    sets = [vertex[0] for vertex in spg.vertices]
    labels, lifted = spg.symbols.labels, spg.symbols.lifted(r)
    return core._LiftTable(
        [FacetSet.from_labels(lifted, oracle_lift(labels, fs, r)).mask
         for fs in sets],
        [oracle_swaps(sets[u], sets[w], r) for u, w in spg.edges],
        FacetSet.from_labels(lifted, [f"{x}@1" for x in labels]).mask)


def incidence_lists(spg: Spg) -> list[list[tuple[int, int]]]:
    """For each vertex of ``spg``, the (index, end) of each edge at it, in
    edge order: end 0 where the vertex is the edge's first, 1 where it
    is its second."""
    incidence = [[] for _ in spg.vertices]
    for ei, (u, w) in enumerate(spg.edges):
        incidence[u].append((ei, 0))
        incidence[w].append((ei, 1))
    return incidence


def unkeyed_scan(edges, incidence, ends, redrawn=None) -> tuple[BadEvent, ...]:
    """The bad-event scan without keyed verdicts: every pair visited
    band-scans its end masks, ``ends[ei]`` = (out of the edge's first
    endpoint, out of its second), and names its first hit in path
    order.  Visits as :func:`spgraphs.core._scan_bad_events` does."""
    if redrawn is None:
        at = range(len(incidence))
    else:
        at = sorted({v for ei in redrawn for v in edges[ei]})
    events = []
    for v in at:
        for (e1, back1), (e2, back2) in combinations(incidence[v], 2):
            if redrawn is not None and e1 not in redrawn and e2 not in redrawn:
                continue
            out1, out2 = ends[e1][back1], ends[e2][back2]
            hits = core._band_hits(out1, out2)
            if hits:
                # first in path order: a path ending at V is walked inward
                k, l = min(hits, key=lambda kl: (
                    -kl[0] if back1 else kl[0], -kl[1] if back2 else kl[1]))
                events.append(BadEvent(v, (e1, e2), (
                    FacetSet.from_mask(out1[k]), FacetSet.from_mask(out2[l]))))
    return tuple(events)


def full_rescan_construction(spg: Spg, config: TransformConfig):
    """construct_with_resampling with every pair of end masks, cut from
    whole paths, rescanned each round by :func:`unkeyed_scan` and each
    permutation drawn by its own scalar loop.  Returns the result, or
    the exception the construction should raise."""
    r = config.r
    rng = np.random.default_rng(config.seed)
    perms = [loop_fisher_yates(rng, r) for _ in spg.edges]
    log = []
    for attempt in range(config.max_rounds + 1):
        events = unkeyed_scan(spg.edges, incidence_lists(spg),
                              oracle_ends(spg, r, perms))
        if not events:
            result = build_subdivision(
                spg, r, PermutationAssignment(tuple(perms)))
            failed = failed_reports(result.spg)
            if failed:
                return ConstructionVerificationError(failed, tuple(log))
            return replace(result, rounds_used=attempt, resample_log=tuple(log))
        log.append((attempt, events))
        if attempt == config.max_rounds:
            return ResamplingExhaustedError(events, log, config.max_rounds)
        if config.strategy is Strategy.RESAMPLE:
            targets = sorted({ei for ev in events for ei in ev.edges})
        else:
            targets = range(len(spg.edges))
        for ei in targets:
            perms[ei] = loop_fisher_yates(rng, r)


# Oracles for the experiment harness: one loop of its own per experiment,
# each trial configured, constructed and caught in place.

def loop_sweep_r(template: Spg, r_values, trials: int, seed: int,
                 max_rounds: int = 1000,
                 strategy: Strategy = Strategy.RESAMPLE) -> SweepReport:
    """sweep_r without its argument checks, each trial constructed in
    full by :func:`full_rescan_construction`, which decides every result
    by the near-pair join: it shares neither the resampling loop nor the
    certification with the library."""
    rows = []
    for r in r_values:
        successes = 0
        rounds_used: list[int] = []
        round0_counts: list[int] = []
        for t in range(trials):
            config = TransformConfig(
                r=r, seed=trial_seed(seed, t), max_rounds=max_rounds,
                strategy=strategy)
            result = full_rescan_construction(template, config)
            if isinstance(result, Exception):
                log = result.resample_log
            else:
                successes += 1
                rounds_used.append(result.rounds_used)
                log = result.resample_log
            round0_counts.append(
                len(log[0][1]) if log and log[0][0] == 0 else 0)
        rows.append(SweepRow(
            r=r,
            trials=trials,
            successes=successes,
            mean_rounds=sum(rounds_used) / len(rounds_used) if rounds_used else None,
            mean_round0_bad_events=sum(round0_counts) / trials,
        ))
    return SweepReport(template=describe_template(template), rows=tuple(rows))


def loop_dimension_reduction(d: int, r: int, trials: int, seed: int,
                             max_rounds: int = 1000, budget: int = 10_000_000
                             ) -> DimensionReductionSummary:
    """verify_dimension_reduction_on_paths without its argument checks."""
    template = sliding_window_path(d)
    constructions = 0
    holds_count = 0
    failures = []
    for t in range(trials):
        config = TransformConfig(
            r=r, seed=trial_seed(seed, t), max_rounds=max_rounds)
        try:
            result = construct_with_resampling(template, config)
        except (ResamplingExhaustedError, ConstructionVerificationError):
            continue
        constructions += 1
        report = check_dimension_reduction(result.spg, budget)
        if report.holds:
            holds_count += 1
        else:
            failures.append((t, report.witnesses))
    return DimensionReductionSummary(
        d=d, r=r, trials=trials, constructions=constructions,
        holds_count=holds_count, violation_count=len(failures),
        failures=tuple(failures))


@st.composite
def arbitrary_spgs(draw):
    """Spgs that may break every validity rule: duplicate sets, sets of
    the wrong size or past the last symbol, empty vertices, no vertices,
    edges out of range, self-loops, parallel edges, disconnection, a
    dimension out of range, the restriction flag either way."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(0, 4))
    sized = [sum(1 << e for e in c) for c in combinations(range(n), d)]
    masks = st.integers(0, 2 ** (n + 2) - 1)
    if sized:
        masks = st.one_of(st.sampled_from(sized), masks)
    vertices = draw(st.lists(st.lists(masks.map(FacetSet.from_mask),
                                      max_size=3), max_size=5))
    ends = st.integers(-1, len(vertices))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=6))
    return Spg(SymbolTable.alphabetic(n), d,
               tuple(tuple(vertex) for vertex in vertices), tuple(edges),
               draw(st.booleans()))


def loop_validate(spg: Spg) -> PropertyReport:
    """validate with one pass over the sets, checking each in turn, and
    the components found by dict-based searches."""
    witnesses: list[tuple] = []
    n = spg.symbols.n
    d = spg.dimension
    min_dim = 0 if spg.is_restriction else 1
    if not (min_dim <= d <= n):
        witnesses.append(("dimension-out-of-range", d, n))
    if not spg.vertices:
        witnesses.append(("no-vertices",))
    seen: dict[int, int] = {}
    for vi, vertex in enumerate(spg.vertices):
        if not vertex:
            witnesses.append(("empty-vertex", vi))
        for fs in vertex:
            if len(fs) != d:
                witnesses.append(("wrong-size-set", fs, vi))
            if fs.mask.bit_length() > n:
                witnesses.append(("symbol-out-of-range", fs, vi))
            if fs.mask in seen:
                witnesses.append(("duplicate-set", fs, seen[fs.mask], vi))
            else:
                seen[fs.mask] = vi
    edges_ok = True
    seen_edges: set[tuple[int, int]] = set()
    for u, w in spg.edges:
        if not (0 <= u < len(spg.vertices) and 0 <= w < len(spg.vertices)):
            witnesses.append(("edge-endpoint-out-of-range", u, w))
            edges_ok = False
            continue
        if u == w:
            witnesses.append(("self-loop", u))
            continue
        key = (min(u, w), max(u, w))
        if key in seen_edges:
            witnesses.append(("parallel-edge", *key))
        seen_edges.add(key)
    if not spg.is_restriction and edges_ok:
        comps = brute_force_components(spg)
        if len(comps) > 1:
            witnesses.append(
                ("disconnected", len(comps), tuple(min(c) for c in comps)))
    return PropertyReport(SpgProperty.VALIDITY, _sorted_witnesses(witnesses))


# The oracle of the dimension-reduction check: each face's restriction
# built in full by restrict and searched for its components.

def restrict_dimension_reduction(spg: Spg, budget: int = 10_000_000
                                 ) -> PropertyReport:
    """check_dimension_reduction as one restricted graph per face, the
    faces of each member by size, then in combinations order."""
    require_valid(spg)
    d = spg.dimension
    if spg.vertices and (1 << d) > budget:
        # Every subset of a single member is already a candidate face.
        raise BudgetExceededError(1 << d, budget)

    witnesses: list[tuple] = []
    seen_faces: set[int] = set()
    checked = 0
    for fs in spg.family():
        for k in range(0, d + 1):
            for combo in combinations(fs.elements, k):
                face = FacetSet(combo)
                if face.mask in seen_faces:
                    continue
                seen_faces.add(face.mask)
                checked += 1
                if checked > budget:
                    raise BudgetExceededError(checked, budget)
                sub = restrict(spg, face)
                if sub is None:
                    continue
                if core._disconnected(sub.neighbors()):
                    witnesses.append(("disconnecting-face", face))
    return PropertyReport(
        SpgProperty.DIMENSION_REDUCTION, _sorted_witnesses(witnesses))


# Dict-based breadth-first search: the oracle for the BFS core.

def brute_force_distances(spg: Spg, source: int) -> dict[int, int]:
    adj = spg.neighbors()
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def brute_force_components(spg: Spg) -> list[set[int]]:
    comps: list[set[int]] = []
    for v in range(len(spg.vertices)):
        if not any(v in comp for comp in comps):
            comps.append(set(brute_force_distances(spg, v)))
    return comps


def brute_force_diameter(spg: Spg) -> int:
    """Largest distance over a BFS from every vertex; raises on a
    disconnected graph, 0 for graphs of 0 or 1 vertices."""
    best = 0
    for v in range(len(spg.vertices)):
        dist = brute_force_distances(spg, v)
        if len(dist) != len(spg.vertices):
            raise ValueError("graph is disconnected")
        best = max(best, max(dist.values()))
    return best


# Loop forms of the vectorized or string-based primitives.

def loop_fisher_yates(rng: np.random.Generator, r: int) -> tuple[int, ...]:
    """Fisher-Yates over rows 1..r with one scalar draw per row."""
    rows = list(range(1, r + 1))
    for i in range(r - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        rows[i], rows[j] = rows[j], rows[i]
    return tuple(rows)


def loop_mask_elements(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask`` ascending, split off lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def loop_facet_mask(elements) -> tuple[tuple[int, ...], int]:
    """Sorted elements and bit mask of a facet set, one shift per element;
    raises ValueError as FacetSet does."""
    elems = tuple(sorted(elements))
    mask = 0
    for e in elems:
        if e < 0:
            raise ValueError(f"negative symbol index {e}")
        mask |= 1 << e
    if mask.bit_count() != len(elems):
        raise ValueError(f"duplicate symbol indices in {elems}")
    return elems, mask


class TupleFacetSet:
    """A facet set that stores its sorted tuple of elements beside the
    mask and orders by the tuple: the oracle for FacetSet's mask-only
    length, membership and order."""

    __slots__ = ("elements", "mask")

    def __init__(self, elements):
        self.elements, self.mask = loop_facet_mask(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, index: int) -> bool:
        return index in self.elements

    def __lt__(self, other: "TupleFacetSet") -> bool:
        return self.elements < other.elements


def type_scan_parse_facet(elements, n: int, context: str) -> FacetSet:
    """The document reader's facet check with the element types scanned
    first: a list of exact ints, then FacetSet's own checks, then the
    index bound.  Allocates a mask as wide as the largest index, so keep
    indices small."""
    if not isinstance(elements, list) or not set(map(type, elements)) <= {int}:
        raise DocumentError(f"{context}: facet set must be a list of integers")
    try:
        fs = FacetSet(elements)
    except ValueError as err:
        raise DocumentError(f"{context}: {err}") from None
    if fs.elements and fs.elements[-1] >= n:
        raise DocumentError(
            f"{context}: symbol index {fs.elements[-1]} out of range (n={n})")
    return fs


def json_dumps_canonical(value) -> str:
    """The canonical document text by the standard library's encoder."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def duplicating_tree() -> Spg:
    """A singleton tree whose construction at r = 2 can put one set on
    two vertices (at seed 0, on the paths of two edges that share no
    endpoint, where no bad event looks): the result fails validation.
    At r = 3 and seed 0 it fails adjacency and strong adjacency."""
    sets = [(0, 2, 3), (1, 2, 3), (0, 2, 4), (1, 2, 4), (0, 1, 2)]
    return Spg.build(SymbolTable.alphabetic(5), 3,
                     [[FacetSet(s)] for s in sets],
                     [(0, 3), (0, 4), (1, 2), (2, 3)])
