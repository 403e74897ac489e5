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
    SymbolTable,
    TransformResult,
    _certify,
    _lift_mask,
    _require_count,
    _require_multiplier,
    _require_permutation,
    _require_rows,
    _require_template,
    _scan_bad_events,
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
    _require_count("delta", delta)
    if delta == 0:
        return 2
    return math.ceil(16 * math.e * delta)


def lll_sufficient(delta: int, r: int) -> bool:
    """Whether (4*delta - 5) * (4/r) * e < 1, the local-lemma sufficiency
    condition for a bad-event-free assignment to exist: each bad event
    has probability at most 4/r and depends on at most 4*delta - 6
    others."""
    _require_count("delta", delta)
    _require_rows(r)
    return (4 * delta - 5) * (4.0 / r) * math.e < 1.0


def _star(center: FacetSet, leaf1: FacetSet, leaf2: FacetSet) -> Spg:
    """The three-vertex star template of ``center`` and two leaves, the
    centre at vertex 0, so that both its edges, (0, 1) and (0, 2), leave
    the centre.  Leaves of another size than the centre's, equal leaves
    or a leaf equal to the centre raise ValueError: there the two-row
    lemma does not hold."""
    if not len(center) == len(leaf1) == len(leaf2):
        raise ValueError("star sets must have uniform size")
    if leaf1 == leaf2:
        raise ValueError("leaves must differ")
    if center in (leaf1, leaf2):
        raise ValueError("leaves must differ from the center")
    n = (center.mask | leaf1.mask | leaf2.mask).bit_length()
    return Spg.build(SymbolTable.alphabetic(n), len(center),
                     [[center], [leaf1], [leaf2]], [(0, 1), (0, 2)])


def _partners(rng: np.random.Generator, r: int, count: int) -> np.ndarray:
    """The swap partners of ``count`` Fisher-Yates permutations of rows
    1..r, one row of shape (r - 1,) each: column c holds the partner j of
    row i = r - 1 - c, uniform on 0..i.

    One vectorized draw gives them all: numpy draws them in order, one
    bounded integer each, so the partners and the generator state equal
    those of ``count`` loops of scalar draws."""
    import numpy as np

    return rng.integers(0, np.tile(np.arange(r, 1, -1), count)
                        ).reshape(count, r - 1)


def _fisher_yates(rng: np.random.Generator, r: int, count: int
                  ) -> list[tuple[int, ...]]:
    """``count`` uniform permutations of rows 1..r, drawn in turn from
    :func:`_partners`."""
    perms = []
    for partners in _partners(rng, r, count).tolist():
        rows = list(range(1, r + 1))
        for i, j in zip(range(r - 1, 0, -1), partners):
            rows[i], rows[j] = rows[j], rows[i]
        perms.append(tuple(rows))
    return perms


def _leading_rows(rng: np.random.Generator, r: int, count: int
                  ) -> np.ndarray:
    """The first two rows of each of the ``count`` permutations of rows
    1..r (r >= 2) that :func:`_fisher_yates` would draw, as an int array
    of shape (count, 2), from the same draw and leaving the generator in
    the same state.  Each position is traced back through the swaps (see
    :func:`estimate_bad_event_probability`), so no permutation is built.
    """
    import numpy as np

    partners = _partners(rng, r, count)
    # undo swap i = 1 (the last column): positions 0 and 1 trade places
    # exactly when its partner is 0
    first = (partners[:, r - 2] == 0).astype(partners.dtype)
    second = 1 - first
    # undo swaps i = 2 .. r - 1: a traced position, below i, moves to i
    # exactly when it is i's partner
    for i in range(2, r):
        partner = partners[:, r - 1 - i]
        first[partner == first] = i
        second[partner == second] = i
    return np.stack((first, second), axis=1) + 1


def lift_facet(fs: FacetSet, r: int) -> FacetSet:
    """A x [r]: the copy of base symbol x in row j sits at index x*r + (j-1)."""
    _require_multiplier(r)
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
    The scan is the construction's (:func:`_scan_bad_events`) of the
    result's template, r and permutations: it decides each pair by its
    two-row key, skips a key the template keeps as clean, and walks the
    first two rows out of the one end each path of a pair left reads,
    so it builds no graph.
    """
    if original != result.template:
        raise ValueError("original: not the template the result was built from")
    return _scan_bad_events(result.template, result.r, result.perms)


def construct_with_resampling(template: Spg | Spindle, config: TransformConfig
                              ) -> TransformResult:
    """Full construction: draw row permutations, resample away bad
    events until none remain (:func:`_resample`), then build.  On a
    :class:`Spindle` the result is one too: its apices are the lifted
    apex sets, and its length, checked, is at least r times the
    template's.

    The result is made once, after the last round, its graph in
    canonical form, and re-verified (validity, singleton, adjacency,
    strong adjacency, end-point count) before being returned, or raises
    with the failed reports; exhausting ``max_rounds`` raises with the
    bad events left.  A template flagged ``is_restriction`` is refused
    before any draw.  At r >= 4 the loop's last, empty scan certifies
    the graph (:func:`~spgraphs.core._certify`): its reports are kept
    holding, so the re-verification reads them and runs no near-pair
    join, and cannot fail; :func:`~spgraphs.experiments.sweep_r` relies
    on that and builds no graph for such a trial.  Below r = 4 the join
    decides them.
    """
    spg = template.spg if isinstance(template, Spindle) else template
    return _verified(template, config.r, *_resample(spg, config))


def _resample(spg: Spg, config: TransformConfig
              ) -> tuple[tuple[tuple[int, ...], ...],
                         tuple[tuple[int, tuple[BadEvent, ...]], ...]]:
    """The resampling loop of :func:`construct_with_resampling` on the
    template ``spg``: the row permutations of its first draw without bad
    events, and the log of the rounds before it, one entry per round
    with bad events, so that ``len(log)`` counts the rounds.  Exhausting
    ``config.max_rounds`` raises :class:`ResamplingExhaustedError`; a
    template flagged ``is_restriction`` is refused before any draw.
    The loop's last scan, the one that ends it, is empty.

    All randomness flows from one generator seeded with ``config.seed``;
    permutations are drawn in full per edge in canonical index order, and
    redraws consume the same stream (one call of :func:`_fisher_yates`
    per round, targets ascending), so identical inputs give bit-identical
    output.  Each pair is decided by its two-row key (the keyed verdicts
    of :func:`_scan_bad_events`): each key's verdict is kept on the
    template, for every r and every construction on it, a pair whose
    key is known clean, or is (3, 4), reads no masks, and one whose key
    is known bad is not band-scanned again.  Any other pair walks the
    first two rows out of the end of each of its paths at the pair's
    vertex (the two-row lemma), so a round's cost does not grow with r
    beyond the draws.  With strategy RESAMPLE only edges participating
    in a bad event are redrawn each round; REJECT redraws all of them.
    Every walk starts from the template's table for r (each template
    vertex's lift, each edge's swap list), scaled from the template's
    one lift base and kept on the template, so redraws and the build
    lift nothing again.

    Under RESAMPLE, rounds after the first visit only the endpoints of
    the redrawn edges, off the template's incidence lists, and there
    rescan only the pairs that hold a redrawn edge.  Every pair left out is
    clean: by induction, after each scan the only pairs not known clean
    are the bad ones, and both edges of a bad pair are redrawn; a pair
    with neither edge redrawn was therefore clean, and its paths have
    not changed.  So the events found, and the witnesses, log and
    exhaustion error they make, are those of a full rescan.  REJECT
    redraws every edge and rescans every pair.
    """
    _require_template(spg)
    r = config.r
    import numpy as np
    rng = np.random.default_rng(config.seed)
    perms = _fisher_yates(rng, r, len(spg.edges))
    log: list[tuple[int, tuple[BadEvent, ...]]] = []
    redrawn = None  # round 0 scans every pair
    while events := _scan_bad_events(spg, r, perms, redrawn):
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
    return tuple(perms), tuple(log)


def _verified(template: Spg | Spindle, r: int,
              perms: tuple[tuple[int, ...], ...],
              log: tuple[tuple[int, tuple[BadEvent, ...]], ...]
              ) -> TransformResult:
    """The steps of :func:`construct_with_resampling` after its loop:
    the result of ``perms``, drawn by :func:`_resample` on ``template``
    at ``r`` after the rounds of ``log``, built once, certified by the
    loop's last scan where it can be, and re-verified."""
    spg = template.spg if isinstance(template, Spindle) else template
    apices = None
    if isinstance(template, Spindle):
        apices = (lift_facet(template.apex1, r), lift_facet(template.apex2, r))
    result = TransformResult(spg, r, perms, len(log), log, apices)
    _certify(result, ())  # the loop's last scan, empty
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
    centre.  It is the construction's scan (:func:`_scan_bad_events`) of
    a three-vertex star template with the centre at vertex 0, the lower
    endpoint of both edges, so both paths are walked out of it.  In
    another template the path of an edge walked into a vertex leaves it
    through its last two rows, undoing each row's swaps in reverse
    order; a star of that orientation is just another template to scan.

    Only the first two rows out of the centre are walked and scanned
    (the two-row lemma of :func:`_scan_bad_events`), and a leaf, with
    one edge, holds no pair, so past the checks of the perms the cost
    does not grow with r.  The lemma needs leaves of the center's size,
    distinct from each other and from the center, and permutations of
    1..r, each entry an int; the lift needs r >= 2.  Anything else
    raises ValueError."""
    _require_multiplier(r)
    star = _star(center, leaf1, leaf2)
    _require_permutation(perm1, r)
    _require_permutation(perm2, r)
    return bool(_scan_bad_events(star, r, (perm1, perm2)))


# Monte-Carlo trials whose leading rows one _leading_rows call draws:
# at most 2**15 swap partners a block, but never fewer than 64 trials.
def _trial_block(r: int) -> int:
    return max(64, 2**15 // (2 * (r - 1)))


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

    Each trial draws two permutations and is decided by the key of
    their first two rows, (a1, a2) of perm1 and (b1, b2) of perm2: the
    keyed verdicts of :func:`_scan_bad_events` show that relabelling
    the rows by s keeps the verdict.  With s taking a1 -> 1, a2 -> 2 and
    the rows of (b1, b2) outside {a1, a2} -> 3, 4 in order of first
    appearance, the verdict is that of perm1 = (1, 2) and
    perm2 = (s(b1), s(b2)), one of at most 7 keys, each decided once.

    The leading rows are read off the swap partners without building the
    permutations.  Fisher-Yates swaps row i with its partner j_i for
    i = r - 1 down to 1; trace a final position back through the swaps,
    undoing the last first.  Undoing i = 1 exchanges positions 0 and 1
    exactly when j_1 = 0.  Before swap i is undone the traced position is
    below i, so undoing it moves the position to i exactly when j_i
    equals it, and leaves it otherwise.  The row at a final position is
    its traced start + 1.  A block of trials costs one draw and r - 2
    vectorized column steps; the keys are counted with one bincount.
    The draws are those of the per-trial loop, made a block of trials at
    a time, a block holding at most 2**15 partners (at least 64 trials).
    """
    _require_count("trials", trials)
    _require_multiplier(r)
    _require_count("seed", seed)
    star = _star(center, leaf1, leaf2)

    import numpy as np
    rng = np.random.default_rng(seed)
    block = _trial_block(r)
    # counts[4 * (k1 - 1) + k2 - 1] trials have key (k1, k2)
    counts = np.zeros(12, dtype=np.int64)
    for start in range(0, trials, block):
        lead = _leading_rows(rng, r, 2 * min(block, trials - start))
        (a1, a2), (b1, b2) = lead[::2].T, lead[1::2].T
        # rows outside p1's first two become 3, then 4, as they come
        k1 = np.where(b1 == a1, 1, np.where(b1 == a2, 2, 3))
        k2 = np.where(b2 == a1, 1, np.where(b2 == a2, 2, 3 + (k1 == 3)))
        counts += np.bincount(4 * (k1 - 1) + k2 - 1, minlength=12)
    # the star is the same in every trial; only the perms are drawn.  The
    # scan reads the first two rows of each perm out of the centre, and
    # each key is those of two permutations of 1..r.
    hits = sum(count * bool(_scan_bad_events(
                   star, r, ((1, 2), (code // 4 + 1, code % 4 + 1))))
               for code, count in enumerate(counts.tolist()) if count)
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
