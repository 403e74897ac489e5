"""Randomized row-permutation subdivision of singleton subset partition graphs.

The construction turns any singleton SPG into one that additionally
satisfies strong adjacency and end-point count, at the cost of
multiplying the dimension and the symbol count by a row multiplier r.
It has two steps:

1. *Product lift*: every facet set A becomes A x [r] (r stacked copies,
   "rows") over the replicated symbol set.
2. *Edge subdivision*: every template edge between sets A and A' is
   replaced by a path of length r * (d - |A intersect A'|) that swaps
   exactly one lifted symbol per step, finishing one row before touching
   the next.  The order in which rows are adjusted is a permutation of
   [r] drawn uniformly and independently per edge; within a row, retired
   and introduced symbols are paired by ascending base-symbol rank.

Adjacency of the result can only fail where two subdivision paths
incident to a common template vertex come too close: a *bad event* for an
edge pair (e1, e2) at a shared vertex is a pair of subdivision sets, one
per path, agreeing in all but at most one lifted symbol.  Bad events are
detected exhaustively and resampled away by redrawing the row
permutations of the participating edges; for r >= ceil(16 * e * delta)
(delta the template's maximum degree) an assignment without bad events
exists and the resampling loop finds one quickly in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np  # imported where used: only the draws need it

# TransformResult, its builder and the construction errors live in core,
# so that reading a document does not load this module; re-exported here.
from .core import (
    ConstructionVerificationError,
    FacetSet,
    PropertyReport,
    ResamplingExhaustedError,
    Spg,
    SpgProperty,
    Spindle,
    TransformResult,
    _build_subdivision,
    _certificate,
    _lift_mask,
    _lift_table,
    _LiftTable,
    _require_permutation,
    _require_rows,
    _swaps,
    _walk,
    require_singleton,
    validate,
    verify_all,
)


class Strategy(Enum):
    """How to redraw after a round with bad events: only the permutations
    of participating edges (partial resampling) or all of them (rejection)."""

    RESAMPLE = "resample"
    REJECT = "reject"


@dataclass(frozen=True)
class TransformConfig:
    r: int
    seed: int
    max_rounds: int = 1000
    strategy: Strategy = Strategy.RESAMPLE

    def __post_init__(self):
        _require_multiplier(self.r)
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        _require_seed(self.seed)


@dataclass(frozen=True)
class PermutationAssignment:
    """One row permutation per template edge.

    ``perms[i]`` belongs to ``edges[i]`` = (u, w) and is read from u,
    the lower-indexed endpoint in a canonical graph: its j-th entry is
    the (1-based) row adjusted by the j-th segment when walking from u
    to w.  The view from w is the reversal of the segment order,
    computed where needed rather than stored twice.
    """

    perms: tuple[tuple[int, ...], ...]

    def require_covers(self, edge_count: int, r: int) -> None:
        if len(self.perms) != edge_count:
            raise ValueError(
                f"assignment covers {len(self.perms)} edges, graph has {edge_count}")
        for perm in self.perms:
            _require_permutation(perm, r)

    @classmethod
    def draw(cls, rng: np.random.Generator, edge_count: int, r: int
             ) -> "PermutationAssignment":
        return cls(tuple(_fisher_yates(rng, r, edge_count)))


@dataclass(frozen=True)
class BadEvent:
    """Two subdivision sets on distinct edges at a common template vertex
    that agree in all but at most one lifted symbol."""

    vertex: int
    edges: tuple[int, int]
    witness: tuple[FacetSet, FacetSet]


def min_multiplier(delta: int) -> int:
    """Smallest row multiplier the sufficiency bound certifies for a
    template of maximum degree ``delta``: ceil(16 * e * delta).

    A degree-0 template has no edges and hence no bad events; the floor
    of 2 (needed by the lift alone) is returned for it.
    """
    if delta < 0:
        raise ValueError("maximum degree cannot be negative")
    if delta == 0:
        return 2
    return math.ceil(16 * math.e * delta)


def lll_sufficient(delta: int, r: int) -> bool:
    """Whether (4*delta - 5) * (4/r) * e < 1, the local-lemma sufficiency
    condition for a bad-event-free assignment to exist: each bad event
    has probability at most 4/r and depends on at most 4*delta - 6
    others."""
    _require_rows(r)
    return (4 * delta - 5) * (4.0 / r) * math.e < 1.0


def _require_multiplier(r: int) -> None:
    if r < 2:
        raise ValueError(
            "row multiplier must be at least 2 for the lift to satisfy "
            "the end-point count")


def _require_star(center: FacetSet, leaf1: FacetSet, leaf2: FacetSet) -> None:
    if not len(center) == len(leaf1) == len(leaf2):
        raise ValueError("star sets must have uniform size")
    if leaf1 == leaf2:
        raise ValueError("leaves must differ")
    if center in (leaf1, leaf2):
        raise ValueError("leaves must differ from the center")


def _require_seed(seed: int) -> None:
    # numpy refuses a negative seed too, but without naming it, and only
    # once a generator is made from it
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _fisher_yates(rng: np.random.Generator, r: int, count: int
                  ) -> list[tuple[int, ...]]:
    """``count`` uniform permutations of rows 1..r, drawn in turn.

    One vectorized draw gives the swap partners of rows r-1 .. 1 of
    each permutation in turn: numpy draws them in order, one bounded
    integer each, so the permutations and the generator state equal
    those of ``count`` loops of scalar draws."""
    import numpy as np

    partners = iter(rng.integers(0, np.tile(np.arange(r, 1, -1), count)).tolist())
    perms = []
    for _ in range(count):
        rows = list(range(1, r + 1))
        # zip asks the range first, so it takes r - 1 partners, no more
        for i, j in zip(range(r - 1, 0, -1), partners):
            rows[i], rows[j] = rows[j], rows[i]
        perms.append(tuple(rows))
    return perms


def lift_facet(fs: FacetSet, r: int) -> FacetSet:
    """A x [r]: the copy of base symbol x in row j sits at index x*r + (j-1)."""
    return FacetSet.from_mask(_lift_mask(fs, r))


def lift_product(spg: Spg, r: int) -> Spg:
    """First construction step: replicate every facet set r times.

    Graph structure is unchanged; dimension becomes r*d over the
    replicated symbol set.  Requires a singleton input and r >= 2.
    """
    _require_multiplier(r)
    require_singleton(spg)
    return Spg.build(
        spg.symbols.lifted(r),
        r * spg.dimension,
        [[lift_facet(fs, r) for fs in vertex] for vertex in spg.vertices],
        spg.edges,
    )


# Rows read out of each end of a subdivision path by the bad-event scan:
# by the two-row lemma (see _scan_bad_events) they hold every hit.
_END_ROWS = 2


def _end_masks(table: _LiftTable, edge: tuple[int, int], ei: int,
               perm: Sequence[int]) -> tuple[list[int], list[int]]:
    """The masks of the first min(2, r) rows walked out of each end of the
    subdivision path of ``edge``, the ``ei``-th template edge, from
    the lift of its first vertex to that of its second: (out of the
    first, out of the second).

    The tail starts from the second lift with the rows ``perm[-2:]``
    put back to the first and steps forward through them; reversed, it
    walks out of the second.  By the two-row lemma (see
    :func:`_scan_bad_events`) every bad event lies inside these lists.
    For r <= 2 they are the whole path and its reversal.
    """
    lift, lift2 = table.lifts[edge[0]], table.lifts[edge[1]]
    swaps = table.swaps[ei]
    last = perm[-_END_ROWS:]
    # undone < 2**r, so the product carries nothing from one symbol's
    # rows into the next
    undone = sum(1 << (row - 1) for row in last) * table.every
    return (_walk(lift, swaps, perm[:_END_ROWS]),
            _walk((lift2 & ~undone) | (lift & undone), swaps, last)[::-1])


def subdivision_path(
    a: FacetSet, a2: FacetSet, r: int, perm: Sequence[int]
) -> list[FacetSet]:
    """The sequence of r*d-sized sets interpolating between two lifted
    endpoints, 1 + r * (d - |A intersect A2|) entries, one symbol swapped
    per consecutive pair.

    Segment j adjusts row perm[j-1]: each step retires one lifted copy of
    A minus A2 and introduces the rank-paired copy of A2 minus A, both in
    ascending base-symbol order.
    """
    if len(a) != len(a2):
        raise ValueError("endpoint sets must have equal size")
    if a == a2:
        raise ValueError("endpoint sets must differ")
    _require_rows(r)
    _require_permutation(perm, r)
    return [FacetSet.from_mask(m)
            for m in _walk(_lift_mask(a, r), _swaps(a, a2, r), perm)]


def build_subdivision(
    spg: Spg, r: int, perms: PermutationAssignment
) -> TransformResult:
    """Second construction step, deterministic given the permutations.

    Every edge of the product lift is replaced by its subdivision path;
    interior path sets become fresh singleton vertices.  Original
    vertices keep their indices, so the vertex map is the identity.
    """
    _require_multiplier(r)
    require_singleton(spg)
    perms.require_covers(len(spg.edges), r)
    return _build_subdivision(spg, r, _lift_table(spg, r), perms.perms)


def _band_hits(out1: list[int], out2: list[int]) -> list[tuple[int, int]]:
    """Every (k, l), k and l >= 1 and |k - l| <= 1, at which the sets k
    and l steps out along two paths lie within Hamming distance 2."""
    hits = []
    for shift in (-1, 0, 1):  # l = k + shift
        k0 = max(1, 1 - shift)
        for k, (m1, m2) in enumerate(zip(out1[k0:], out2[k0 + shift:]), k0):
            if (m1 ^ m2).bit_count() <= 2:
                hits.append((k, k + shift))
    return hits


def _scan_bad_events(
    edges: Sequence[tuple[int, int]],
    num_vertices: int,
    ends: Sequence[tuple[list[int], list[int]]],
    redrawn: frozenset[int] | None = None,
) -> tuple[BadEvent, ...]:
    """The bad events of the subdivision paths of ``edges``, given for
    ``edges[ei]`` = (u, w) as ``ends[ei]`` = (the masks walked out of u,
    the masks walked out of w): the first two rows out of each end, as
    :func:`_end_masks` walks them.  With ``redrawn`` given, only the
    pairs holding at least one of those edges are examined; the events
    come in the order of a full scan.

    Each step out of a template vertex V retires one of V's lifted
    symbols and introduces one from outside, so the set k steps out lies
    at Hamming distance exactly 2k from V's lift; by the triangle
    inequality two sets within distance 2 (sharing rd - 1 of their rd
    symbols) then lie in the band |k - l| <= 1.  Every caller walks its
    masks with :func:`~spgraphs.core._walk` from a checked template or
    star, so the law holds and is not checked here.

    Two-row lemma: take paths out of V toward distinct sets L1 and L2
    of V's size, and let m1 = |V minus L1| and m2 = |V minus L2|.  In
    each row a path's state is V, its target, or (in the one row it is
    partway through) a set strictly between them.  A row that path 1
    has finished holds L1, which differs by at least 2 bits from V and
    from L2, so it costs at least 2 of the pair's budget of 2 bits
    unless it is path 2's partial row.  So path 1 has finished at most
    two rows.  If it has finished two, one of them, row p, is path 2's
    partial row and the other spends the whole budget, so every other
    row agrees exactly.  In row p path 2 has made fewer than m2 swaps
    and reached L1, which lies m1 swaps from V: m1 < m2.  A row that
    path 1 is partway through (fewer than m1 swaps from V) would have to
    equal path 2's state there, V or L2; not V, so L2, and m2 < m1.
    Both cannot hold, so path 1 has not started a third row: k <= 2 * m1,
    and likewise l <= 2 * m2.  The first two rows out of each end (see
    :func:`_end_masks`) therefore hold every hit, and the witness, the
    first hit in path order, is the one the whole paths give.
    """
    outward = [[] for _ in range(num_vertices)]
    for ei, ((u, w), (from_u, from_w)) in enumerate(zip(edges, ends)):
        outward[u].append((ei, from_u, False))
        outward[w].append((ei, from_w, True))

    events: list[BadEvent] = []
    for v, incident in enumerate(outward):
        for (e1, out1, back1), (e2, out2, back2) in combinations(incident, 2):
            if redrawn is not None and e1 not in redrawn and e2 not in redrawn:
                continue
            hits = _band_hits(out1, out2)
            if hits:
                # first in path order: a path ending at V is walked inward
                k, l = min(hits, key=lambda kl: (
                    -kl[0] if back1 else kl[0], -kl[1] if back2 else kl[1]))
                events.append(BadEvent(v, (e1, e2), (
                    FacetSet.from_mask(out1[k]), FacetSet.from_mask(out2[l]))))
    return tuple(events)


def find_bad_events(result: TransformResult, original: Spg) -> tuple[BadEvent, ...]:
    """Exhaustive bad-event scan of a built subdivision.

    For every template vertex V and unordered pair of distinct edges
    incident to V, examine the pairs of subdivision sets (one per path,
    excluding V's own image but including the opposite endpoints) and
    report the pair of edges as bad if some two sets agree in rd - 1 or
    more lifted symbols.  Using >= rather than exact equality also
    catches outright duplicates, which would break the partition
    property.  At most one witness pair, the first in path order, is
    recorded per edge pair.

    The scan reads the result through its certificate
    (:func:`~spgraphs.core._certificate`): a result that the template, r
    and permutations read off it do not rebuild raises ValueError naming
    the field at fault, and so does an ``original`` other than that
    template.  It then scans the first two rows out of each end of every
    path, walked from the certificate as the construction walks them
    (the two-row lemma of :func:`_scan_bad_events`).
    """
    template, r, perms = _certificate(result)
    if original != template:
        raise ValueError("original: not the template the result was built from")
    table = _lift_table(template, r)
    return _scan_bad_events(template.edges, len(template.vertices), [
        _end_masks(table, edge, ei, perm)
        for ei, (edge, perm) in enumerate(zip(template.edges, perms))])


def construct_with_resampling(template: Spg | Spindle, config: TransformConfig
                              ) -> TransformResult:
    """Full construction: draw row permutations, resample away bad
    events until none remain, then build.  On a :class:`Spindle` the
    result is one too: its apices are the lifted apex sets, and its
    length, checked, is at least r times the template's.

    All randomness flows from one generator seeded with ``config.seed``;
    permutations are drawn in full per edge in canonical index order, and
    redraws consume the same stream (one call of :func:`_fisher_yates`
    per round, targets ascending), so identical inputs give bit-identical
    output.  Each round scans only the masks of the first two rows out
    of each end of every path (the two-row lemma of
    :func:`_scan_bad_events`), so its cost does not grow with r beyond
    the draws.  With strategy RESAMPLE only edges participating in a bad
    event are redrawn each round (and only their end masks recomputed);
    REJECT redraws all of them.  Every walk starts from one table made
    per construction (each template vertex's lift, each edge's
    :func:`_swaps`), so redraws and the build lift nothing again.  The
    graph is built once, in canonical form, and re-verified (validity,
    singleton, adjacency, strong adjacency, end-point count) before
    being returned, or raises with the failed reports; exhausting
    ``max_rounds`` raises with the bad events left.

    Under RESAMPLE, rounds after the first rescan only the pairs that
    hold a redrawn edge.  Every pair left out is clean: by induction,
    after each scan the only pairs not known clean are the bad ones, and
    both edges of a bad pair are redrawn; a pair with neither edge
    redrawn was therefore clean, and its paths have not changed.  So the
    events found, and the witnesses, log and exhaustion error they make,
    are those of a full rescan.  REJECT redraws every edge and rescans
    every pair.
    """
    spg = template.spg if isinstance(template, Spindle) else template
    require_singleton(spg)
    r = config.r
    table = _lift_table(spg, r)
    import numpy as np
    rng = np.random.default_rng(config.seed)
    perms = _fisher_yates(rng, r, len(spg.edges))
    ends = [_end_masks(table, edge, ei, perm)
            for ei, (edge, perm) in enumerate(zip(spg.edges, perms))]
    log: list[tuple[int, tuple[BadEvent, ...]]] = []

    attempt = 0
    redrawn = None  # round 0 scans every pair
    while events := _scan_bad_events(spg.edges, len(spg.vertices), ends,
                                     redrawn):
        log.append((attempt, events))
        if attempt == config.max_rounds:
            raise ResamplingExhaustedError(events, log, config.max_rounds)
        if config.strategy is Strategy.RESAMPLE:
            targets = sorted({ei for ev in events for ei in ev.edges})
            redrawn = frozenset(targets)
        else:
            targets = range(len(spg.edges))
        for ei, perm in zip(targets, _fisher_yates(rng, r, len(targets))):
            perms[ei] = perm
            ends[ei] = _end_masks(table, spg.edges[ei], ei, perm)
        attempt += 1

    result = _build_subdivision(spg, r, table, perms)
    # the other checks refuse an invalid graph, so it is reported alone
    validity = validate(result.spg)
    failed = [validity] if not validity.holds else [
        rep for rep in verify_all(result.spg) if not rep.holds]
    if failed:
        raise ConstructionVerificationError(failed, log)
    apices = None
    if isinstance(template, Spindle):
        apices = (lift_facet(template.apex1, r), lift_facet(template.apex2, r))
        length = Spindle(result.spg, *apices).length()
        if length < r * template.length():
            raise RuntimeError(
                f"constructed spindle has length {length}, below "
                f"r * {template.length()}")
    return replace(result, rounds_used=attempt, resample_log=tuple(log),
                   apices=apices)


@dataclass(frozen=True)
class BadEventEstimate:
    frequency: float
    analytic_bound: float
    trials: int
    occurrences: int


def bad_event_occurs(
    center: FacetSet,
    leaf1: FacetSet,
    leaf2: FacetSet,
    r: int,
    perm1: Sequence[int],
    perm2: Sequence[int],
) -> bool:
    """Whether the two subdivision paths out of ``center`` (rows adjusted
    per ``perm1``/``perm2``) contain sets agreeing in rd - 1 or more
    lifted symbols, the center's own lift excluded.

    This models an outward star: both edges leave the centre, and each
    path adjusts the rows of its ``perm`` in order, starting from the
    centre.  In a template, the path of an edge walked into the centre
    leaves it through its last two rows, undoing each row's swaps in
    reverse order; the construction's scan (:func:`_scan_bad_events`)
    follows that orientation, this function does not.

    Only the first two rows out of each end are built and scanned (the
    two-row lemma of :func:`_scan_bad_events`), so past the checks of
    the perms the cost does not grow with r.  The lemma needs leaves of
    the center's size, distinct from each other and from the center, and
    permutations of 1..r: anything else raises ValueError."""
    _require_star(center, leaf1, leaf2)
    _require_permutation(perm1, r)
    _require_permutation(perm2, r)
    return _star_bad_event(_lift_mask(center, r), _swaps(center, leaf1, r),
                           _swaps(center, leaf2, r), perm1, perm2)


def _star_bad_event(lift: int, swaps1: list[tuple[int, int]],
                    swaps2: list[tuple[int, int]], perm1: Sequence[int],
                    perm2: Sequence[int]) -> bool:
    """bad_event_occurs, given the centre's lift and the :func:`_swaps`
    toward each leaf, without its checks of the star and the perms."""
    # each leaf has one edge, so the scan reads only the heads
    ends = [(_walk(lift, swaps1, perm1[:_END_ROWS]), []),
            (_walk(lift, swaps2, perm2[:_END_ROWS]), [])]
    return bool(_scan_bad_events(((0, 1), (0, 2)), 3, ends))


# Monte-Carlo trials whose permutations one _fisher_yates call draws:
# drawing all of them at once would hold a partner array of 2 * trials
# * (r - 1) integers.
_TRIAL_BLOCK = 64


def estimate_bad_event_probability(
    center: FacetSet,
    leaf1: FacetSet,
    leaf2: FacetSet,
    r: int,
    trials: int,
    seed: int,
) -> BadEventEstimate:
    """Monte-Carlo frequency of the bad event on a degree-2 star, next to
    the analytic bound 4/r it should respect once r >= 4.

    The star is outward, as in :func:`bad_event_occurs`: both edges
    leave the centre, and each trial walks both paths forward out of it.

    Each trial draws two permutations and is decided by the pattern of
    their first two rows.  Relabelling the rows by a permutation s of
    [r] maps each lifted symbol x@j to x@s(j).  This bijection fixes the
    centre's lift, keeps the base-rank pairing of :func:`_swaps` (so it
    maps the path with rows p to the path with rows s(p)) and keeps
    Hamming distances, so it keeps the verdict.  By the two-row lemma
    (see :func:`_scan_bad_events`) the verdict reads only the first two
    rows (a1, a2) of perm1 and (b1, b2) of perm2.  Take s with a1 -> 1,
    a2 -> 2 and the rows of (b1, b2) outside {a1, a2} -> 3, 4 in order of
    first appearance: the verdict is that of perm1 = (1, 2) and
    perm2 = (s(b1), s(b2)), one of at most 7 keys, each decided once.
    The draws are those of the per-trial loop, made a block of trials at
    a time.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _require_multiplier(r)
    _require_seed(seed)
    _require_star(center, leaf1, leaf2)

    import numpy as np
    rng = np.random.default_rng(seed)
    # the star is the same in every trial; only the perms are drawn
    lift = _lift_mask(center, r)
    swaps1, swaps2 = _swaps(center, leaf1, r), _swaps(center, leaf2, r)
    verdicts: dict[tuple[int, int], bool] = {}
    hits = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        perms = _fisher_yates(rng, r, 2 * min(_TRIAL_BLOCK, trials - start))
        for p1, p2 in zip(perms[::2], perms[1::2]):
            # rows outside p1's first two become 3, then 4, as they come
            relabel = {p1[0]: 1, p1[1]: 2}
            key = (relabel.setdefault(p2[0], 3),
                   relabel.setdefault(p2[1], len(relabel) + 1))
            verdict = verdicts.get(key)
            if verdict is None:
                # the checks above and _fisher_yates meet
                # bad_event_occurs' terms
                verdict = verdicts[key] = _star_bad_event(
                    lift, swaps1, swaps2, (1, 2), key)
            hits += verdict
    return BadEventEstimate(
        frequency=hits / trials,
        analytic_bound=4.0 / r,
        trials=trials,
        occurrences=hits,
    )


def check_localization(result: TransformResult) -> PropertyReport:
    """Exhaustive check that near-coincidences stay local: every pair of
    constructed sets agreeing in exactly rd - 1 lifted symbols must lie
    on a single subdivided edge or on two edges sharing a template
    endpoint.  The template and r are the result's own, read off it by
    :func:`~spgraphs.core._certificate`.  Refuses (ValueError) a result
    that its certificate does not rebuild, a non-singleton one included,
    and r below 4, where the guarantee does not apply.

    Every edge of a certified result is a step of one path, so a near
    pair on adjacent vertices is local: the delocalized pairs are the
    graph's kept adjacency witnesses (read without refusing an invalid
    graph) whose edges share no endpoint, in the same sorted order.
    """
    template, r, _ = _certificate(result)
    if r < 4:
        raise ValueError(f"localization is only guaranteed for r >= 4, got r={r}")

    # edges e1, e2 share an endpoint when their endpoint pairs meet, so a
    # pair is local when the endpoints of the edges through each meet
    ends: list[set[int]] = [set() for _ in result.spg.vertices]
    for edge, path in zip(template.edges, result.edge_paths):
        for idx in path:
            ends[idx].update(edge)
    return PropertyReport(SpgProperty.LOCALIZATION, tuple(
        ("delocalized-pair", a, b, i, j)
        for _, a, b, i, j in result.spg._pair_verdicts[0].witnesses
        if not ends[i] & ends[j]))
