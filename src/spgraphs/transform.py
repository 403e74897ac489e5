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

The output, a :class:`~spgraphs.core.TransformResult`, keeps the template,
r and the final permutations and derives its graph; the bad-event scan
and the localization check read those, so they rebuild nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np  # imported where used: only the draws need it

# TransformResult, its BadEvents, builder, bad-event scan and errors live
# in core, so that reading a document does not load this module;
# re-exported here.
from .core import (
    BadEvent,
    ConstructionVerificationError,
    FacetSet,
    PropertyReport,
    ResamplingExhaustedError,
    Spg,
    SpgProperty,
    Spindle,
    TransformResult,
    _END_ROWS,
    _bad_events,
    _certify,
    _end_masks,
    _lift_mask,
    _lift_table,
    _require_multiplier,
    _require_permutation,
    _require_rows,
    _require_template,
    _scan_bad_events,
    _swaps,
    _walk,
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
        _require_count("max_rounds", self.max_rounds)
        _require_count("seed", self.seed)


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

    @classmethod
    def draw(cls, rng: np.random.Generator, edge_count: int, r: int
             ) -> "PermutationAssignment":
        return cls(tuple(_fisher_yates(rng, r, edge_count)))


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


def _require_star(center: FacetSet, leaf1: FacetSet, leaf2: FacetSet) -> None:
    if not len(center) == len(leaf1) == len(leaf2):
        raise ValueError("star sets must have uniform size")
    if leaf1 == leaf2:
        raise ValueError("leaves must differ")
    if center in (leaf1, leaf2):
        raise ValueError("leaves must differ from the center")


# The least value of each count argument, and the refusal of a value
# below it.  numpy refuses a negative seed too, but without naming it,
# and only once a generator is made from it.
_COUNT_FLOORS = {
    "seed": (0, "seed must be non-negative, got {}"),
    "trials": (1, "trials must be positive"),
    "max_rounds": (0, "max_rounds must be non-negative"),
}


def _require_count(name: str, value: int) -> None:
    """Refuse the count argument ``name`` unless it is an int at or above
    its floor.  bool is a subclass of int, but no count, and a float or
    a numpy int would fail later, in numpy or in range()."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int")
    floor, refusal = _COUNT_FLOORS[name]
    if value < floor:
        raise ValueError(refusal.format(value))


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


def build_subdivision(
    spg: Spg, r: int, perms: PermutationAssignment
) -> TransformResult:
    """Second construction step, deterministic given the permutations.

    Every edge of the product lift is replaced by its subdivision path;
    interior path sets become fresh singleton vertices.  Original
    vertices keep their indices, so the vertex map is the identity.
    :class:`TransformResult`'s constructor checks the arguments.
    """
    return TransformResult(spg, r, perms.perms)


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

    An ``original`` other than the result's template raises ValueError.
    The scan walks the first two rows out of each end of every path from
    the template's lift table, as the construction does (the two-row
    lemma of :func:`_scan_bad_events`), so it builds no graph.
    """
    if original != result.template:
        raise ValueError("original: not the template the result was built from")
    return _bad_events(result)


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
    REJECT redraws all of them.  Every walk starts from the template's
    table for r (each template vertex's lift, each edge's :func:`_swaps`),
    kept on the template, so redraws and the build lift nothing again.
    The result is made once, after the last round, its graph in
    canonical form, and re-verified (validity, singleton,
    adjacency, strong adjacency, end-point count) before being returned,
    or raises with the failed reports; exhausting ``max_rounds`` raises
    with the bad events left.  A template flagged ``is_restriction`` is
    refused before any draw.  At r >= 4 the loop's last, empty scan
    certifies the graph (:func:`~spgraphs.core._certify`): its reports
    are kept holding, so the re-verification reads them and runs no
    near-pair join, and cannot fail.  Below r = 4 the join decides them.

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
    _require_template(spg)
    r = config.r
    table = _lift_table(spg, r)
    import numpy as np
    rng = np.random.default_rng(config.seed)
    perms = _fisher_yates(rng, r, len(spg.edges))
    ends = [_end_masks(table, edge, ei, perm)
            for ei, (edge, perm) in enumerate(zip(spg.edges, perms))]
    # one entry per round with bad events, so len(log) counts the rounds
    log: list[tuple[int, tuple[BadEvent, ...]]] = []
    redrawn = None  # round 0 scans every pair
    while events := _scan_bad_events(spg.edges, len(spg.vertices), ends,
                                     redrawn):
        log.append((len(log), events))
        if len(log) > config.max_rounds:
            raise ResamplingExhaustedError(events, log, config.max_rounds)
        if config.strategy is Strategy.RESAMPLE:
            targets = sorted({ei for ev in events for ei in ev.edges})
            redrawn = frozenset(targets)
        else:
            targets = range(len(spg.edges))
        for ei, perm in zip(targets, _fisher_yates(rng, r, len(targets))):
            perms[ei] = perm
            ends[ei] = _end_masks(table, spg.edges[ei], ei, perm)

    apices = None
    if isinstance(template, Spindle):
        apices = (lift_facet(template.apex1, r), lift_facet(template.apex2, r))
    result = TransformResult(spg, r, tuple(perms), len(log), tuple(log), apices)
    _certify(result, events)  # the loop's last scan, empty
    # the other checks refuse an invalid graph, so it is reported alone
    validity = validate(result.spg)
    failed = [validity] if not validity.holds else [
        rep for rep in verify_all(result.spg) if not rep.holds]
    if failed:
        raise ConstructionVerificationError(failed, log)
    if apices is not None:
        length = Spindle(result.spg, *apices).length()
        if length < r * template.length():
            raise RuntimeError(
                f"constructed spindle has length {length}, below "
                f"r * {template.length()}")
    return result


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
    _require_count("trials", trials)
    _require_multiplier(r)
    _require_count("seed", seed)
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
    endpoint.  The template and r are the result's own.  Refuses
    (ValueError) r below 4, where the guarantee does not apply.

    Every edge of the result's graph is a step of one path, so a near
    pair on adjacent vertices is local: the delocalized pairs are the
    graph's kept adjacency witnesses (read without refusing an invalid
    graph) whose edges share no endpoint, in the same sorted order.  A
    certified result (see :func:`~spgraphs.core._certify`) keeps no
    adjacency witness, so it holds and runs no join; any other runs the
    join once, unless a check ran it already.
    """
    if result.r < 4:
        raise ValueError(
            f"localization is only guaranteed for r >= 4, got r={result.r}")

    # edges e1, e2 share an endpoint when their endpoint pairs meet, so a
    # pair is local when the endpoints of the edges through each meet
    ends: list[set[int]] = [set() for _ in result.spg.vertices]
    for edge, path in zip(result.template.edges, result.edge_paths):
        for idx in path:
            ends[idx].update(edge)
    return PropertyReport(SpgProperty.LOCALIZATION, tuple(
        ("delocalized-pair", a, b, i, j)
        for _, a, b, i, j in result.spg._pair_verdicts[0].witnesses
        if not ends[i] & ends[j]))
