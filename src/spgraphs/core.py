"""Domain types for subset partition graphs and exhaustive property verifiers.

A subset partition graph (SPG) is a connected undirected graph whose
vertices partition a family of d-element subsets ("facet sets") of a
symbol set.  Symbols abstract the facets of a simple polyhedron: a
polyhedron vertex is identified with the d facets containing it, and the
graph abstracts the polyhedron's vertex-edge graph.

The verifiers in this module decide, by exhaustive enumeration, whether a
graph carries the combinatorial properties such abstractions may satisfy
(adjacency, strong adjacency, end-point count, the singleton property,
dimension reduction under restriction).  Verifiers never raise on a
violation: they return a :class:`PropertyReport` whose witnesses name
every offending set, vertex, or restriction, so callers can localize
failures.  Only malformed *calls* (precondition breaches) raise.

The construction's output, a :class:`TransformResult` kept as its
certificate with the graph this module's builder derives from it, is
defined here too, with the bad-event scan that certifies its verdicts,
so that reading a document loads no construction code.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import combinations, compress, count, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class InvalidSpgError(ValueError):
    """A verifier was handed a graph that fails basic validation."""

    def __init__(self, report: "PropertyReport"):
        self.report = report
        first = witness_text(report.witnesses[0]) if report.witnesses else "unknown"
        super().__init__(
            f"invalid subset partition graph "
            f"({len(report.witnesses)} violations; first: {first})"
        )


class BudgetExceededError(RuntimeError):
    """An enumeration-bounded check refused to run past its budget."""

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"restriction enumeration needs more than {budget} "
            f"connectivity checks (at least {needed}); refusing rather than "
            f"reporting a partial result"
        )


class ResamplingExhaustedError(RuntimeError):
    """The resampling budget ran out with bad events still present.

    Carries the last bad-event list and the full log; no partial graph is
    ever returned as a success.
    """

    def __init__(self, bad_events, resample_log, max_rounds):
        self.bad_events = tuple(bad_events)
        self.resample_log = tuple(resample_log)
        self.max_rounds = max_rounds
        super().__init__(
            f"still {len(self.bad_events)} bad events after {max_rounds} "
            f"resampling rounds")


class ConstructionVerificationError(RuntimeError):
    """A bad-event-free assignment failed re-verification.  Possible only
    below r = 4: at r >= 4 the empty scan certifies every report (see
    :func:`_certify`), so this is never raised there."""

    def __init__(self, failed: Iterable["PropertyReport"], resample_log=()):
        self.failed = tuple(failed)
        self.resample_log = tuple(resample_log)
        names = ", ".join(rep.property.value for rep in self.failed)
        super().__init__(f"constructed graph failed verification: {names}")


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_digits(mask: int) -> bytes:
    """The binary digits of ``mask``, least significant first, as 0/1
    bytes (one byte, 0, for the empty mask): one C-level pass each for
    bin, the reversal and translate.  ``itertools.compress`` with these
    selects the items at the set bits' indices."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _mask_elements(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    return tuple(compress(count(), _mask_digits(mask)))


def _sorted_mask(elems: tuple[int, ...]) -> int:
    """The bit mask of ``elems``, a tuple in ascending order; ValueError
    on a negative or repeated index."""
    mask = 0
    if elems:
        if elems[0] < 0:
            raise ValueError(f"negative symbol index {elems[0]}")
        # The binary digits, most significant last, read as one int:
        # a byte store per element instead of a bigint OR per element.
        digits = bytearray(b"0") * (elems[-1] + 1)
        for e in elems:
            digits[e] = 49  # ord("1")
        mask = int(digits[::-1], 2)
    if mask.bit_count() != len(elems):
        raise ValueError(f"duplicate symbol indices in {elems}")
    return mask


@dataclass(frozen=True)
class SymbolTable:
    """Named symbols with a stable integer encoding 0..n-1.

    Set arithmetic everywhere else runs on the integer indices (packed
    into bit masks); labels exist only for input and output.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        # n = 0 is tolerated so that restricting a degenerate d = n graph
        # by a full member stays representable; validate() still demands
        # d >= 1 (hence n >= 1) for anything that is not a restriction.
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("symbol labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown symbol label {label!r}") from None

    def lifted(self, r: int) -> "SymbolTable":
        """Table for the r-fold replicated symbol set.

        The copy of base symbol x in row j (1-based) is labelled
        ``"x@j"`` and encoded at index ``x*r + (j-1)``.
        """
        _require_rows(r)
        return SymbolTable(
            tuple(f"{base}@{j}" for base in self.labels for j in range(1, r + 1))
        )

    @classmethod
    def alphabetic(cls, n: int) -> "SymbolTable":
        """n symbols labelled a, b, c, ... (s26, s27, ... past the alphabet)."""
        letters = "abcdefghijklmnopqrstuvwxyz"
        return cls(
            tuple(letters[i] if i < 26 else f"s{i}" for i in range(n))
        )


class FacetSet:
    """An immutable set of symbol indices, stored as one bit mask.

    One member of the partitioned family: the d facets identifying one
    abstract polyhedron vertex.  Bit i of ``mask`` is set when symbol i
    is a member, so intersection sizes cost one AND plus a popcount.
    The mask is the only representation: ``elements``, the indices in
    ascending order, is split off it on each read.  Equality is
    structural, and sets order as their ``elements`` tuples do.
    """

    __slots__ = ("mask",)

    def __init__(self, elements: Iterable[int]):
        self.mask = _sorted_mask(tuple(sorted(elements)))

    @classmethod
    def from_mask(cls, mask: int) -> "FacetSet":
        fs = cls.__new__(cls)
        fs.mask = mask
        return fs

    @classmethod
    def from_labels(cls, table: SymbolTable, labels: Iterable[str]) -> "FacetSet":
        return cls(table.index(lbl) for lbl in labels)

    @property
    def elements(self) -> tuple[int, ...]:
        return _mask_elements(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, index: int) -> bool:
        return index >= 0 and (self.mask >> index) & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FacetSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "FacetSet") -> bool:
        return self.elements < other.elements

    def __repr__(self) -> str:
        return f"FacetSet({list(self.elements)})"

    def intersection_size(self, other: "FacetSet") -> int:
        return (self.mask & other.mask).bit_count()

    def issubset(self, other: "FacetSet") -> bool:
        return self.mask & other.mask == self.mask

    def without(self, other: "FacetSet") -> "FacetSet":
        """Set difference self minus other."""
        return FacetSet.from_mask(self.mask & ~other.mask)

    def render(self, table: SymbolTable | None = None) -> str:
        if table is None:
            inner = ",".join(str(e) for e in self.elements)
        else:
            inner = ",".join(table.labels[e] for e in self.elements)
        return "{" + inner + "}"


@dataclass(frozen=True)
class Spg:
    """A (possibly invalid) subset partition graph.

    ``vertices[i]`` is the tuple of facet sets forming graph vertex i;
    ``edges`` are unordered index pairs.  Construction never rejects:
    structural violations (duplicate sets, disconnectedness, wrong set
    sizes) are data for :func:`validate`, not constructor errors --
    intermediate products of the randomized construction may be invalid
    on purpose.

    ``is_restriction`` exempts the graph from the connectivity
    requirement: restrictions routinely disconnect, and measuring
    exactly that is the point of dimension reduction.

    The fields never change, so the verdicts the checks derive from them
    (the validity report, and the three reports built on the near pairs)
    are computed on first use and kept on the object (or filled in,
    holding, when :func:`_certify` certifies a transform result's
    graph), and so are a template's lift base and lift tables, its
    incidence lists and the verdict of each pair key its bad-event scan
    decided; the near pairs themselves are not kept.
    A parsed transform result keeps the graph rebuilt from its
    certificate, so validity is decided on that one object, once.
    :func:`dataclasses.replace` builds a new object that derives its own.
    """

    symbols: SymbolTable
    dimension: int
    vertices: tuple[tuple[FacetSet, ...], ...]
    edges: tuple[tuple[int, int], ...]
    is_restriction: bool = False

    @classmethod
    def build(
        cls,
        symbols: SymbolTable,
        dimension: int,
        vertices: Iterable[Iterable[FacetSet]],
        edges: Iterable[tuple[int, int]] = (),
        is_restriction: bool = False,
    ) -> "Spg":
        """Canonical constructor: sorts facet sets within each vertex and
        normalizes edges to sorted (low, high) pairs.  Duplicates and
        self-loops are preserved for validate() to flag."""
        vtx = tuple(tuple(sorted(v)) for v in vertices)
        edg = tuple(sorted((u, w) if u < w else (w, u) for u, w in edges))
        return cls(symbols, dimension, vtx, edg, is_restriction)

    def family(self) -> list[FacetSet]:
        """All facet sets in vertex order (the family the vertices partition)."""
        return [fs for vertex in self.vertices for fs in vertex]

    def facets_with_vertex(self) -> list[tuple[int, FacetSet]]:
        return [(vi, fs) for vi, vertex in enumerate(self.vertices) for fs in vertex]

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return adj

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, w) if u < w else (w, u) for u, w in self.edges)

    @cached_property
    def _validity(self) -> "PropertyReport":
        return _validate(self)

    @cached_property
    def _pair_verdicts(self) -> tuple["PropertyReport", ...]:
        return _pair_reports(self)

    @cached_property
    def _lift_base(self) -> "_LiftBase":
        return _make_lift_base(self)

    @cached_property
    def _lift_tables(self) -> dict[int, "_LiftTable"]:
        return {}  # by r, filled by _lift_table

    @cached_property
    def _key_verdicts(self) -> dict[tuple[int, int, int],
                                    tuple[int, int] | None]:
        return {}  # for every r, filled by _scan_bad_events

    @cached_property
    def _incidence(self) -> list[list[tuple[int, int]]]:
        """For each vertex, the (index, end) of each edge at it, in edge
        order: end 0 where the vertex is the edge's first, 1 where it is
        its second."""
        incidence: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for ei, (u, w) in enumerate(self.edges):
            incidence[u].append((ei, 0))
            incidence[w].append((ei, 1))
        return incidence


@dataclass(frozen=True)
class Spindle:
    """An SPG on n = 2d symbols with two distinguished apex sets covering S."""

    spg: Spg
    apex1: FacetSet
    apex2: FacetSet

    def __post_init__(self):
        d = self.spg.dimension
        n = self.spg.symbols.n
        if n != 2 * d:
            raise ValueError(f"a spindle needs n = 2d, got n={n}, d={d}")
        if (self.apex1.mask | self.apex2.mask) != (1 << n) - 1:
            raise ValueError("apex sets must cover the whole symbol set")
        fam = set(self.spg.family())
        for apex in (self.apex1, self.apex2):
            if apex not in fam:
                raise ValueError(
                    f"apex {apex.render(self.spg.symbols)} is not a member "
                    f"of the family")

    def apex_vertices(self) -> tuple[int, int]:
        v1 = v2 = -1
        for vi, vertex in enumerate(self.spg.vertices):
            if self.apex1 in vertex:
                v1 = vi
            if self.apex2 in vertex:
                v2 = vi
        return v1, v2

    def length(self) -> int:
        """Graph distance between the vertices holding the two apices."""
        v1, v2 = self.apex_vertices()
        return graph_distance(self.spg, v1, v2)


@dataclass(frozen=True)
class BadEvent:
    """Two subdivision sets on distinct edges at a common template vertex
    that agree in all but at most one lifted symbol."""

    vertex: int
    edges: tuple[int, int]
    witness: tuple[FacetSet, FacetSet]


@dataclass(frozen=True)
class TransformResult:
    """A construction's output, kept as its certificate (McConnell,
    Mehlhorn, Näher & Schweitzer, Comput. Sci. Rev. 2011): the singleton
    template, the row multiplier r >= 2 and one row permutation of 1..r
    per template edge, as the constructor checks.  From them it derives
    the graph ``spg``, ``vertex_map`` (template vertices keep their
    indices) and ``edge_paths``, the vertices of each subdivided edge;
    the graph would drop an ``is_restriction`` flag, so a flagged
    template is refused.  The constructor also checks ``rounds_used``, a
    non-negative int (not a bool), and ``apices``, None or the lifts of
    two template sets that make the template a :class:`Spindle`, so
    that every result :func:`serialize` writes parses back.
    ``resample_log`` is diagnostic only.  This
    type and :class:`BadEvent` live here rather than in
    :mod:`spgraphs.transform`, so that reading a document does not load
    the construction code."""

    template: Spg
    r: int
    perms: tuple[tuple[int, ...], ...]
    rounds_used: int = 0
    resample_log: tuple[tuple[int, tuple[BadEvent, ...]], ...] = field(
        default=(), compare=False)
    apices: tuple[FacetSet, FacetSet] | None = None
    spg: Spg = field(init=False, repr=False, compare=False)
    vertex_map: tuple[int, ...] = field(init=False, repr=False, compare=False)
    edge_paths: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_multiplier(self.r)
        _require_template(self.template)
        if len(self.perms) != len(self.template.edges):
            raise ValueError(f"assignment covers {len(self.perms)} edges, "
                             f"graph has {len(self.template.edges)}")
        for perm in self.perms:
            _require_permutation(perm, self.r)
        # bool is a subclass of int, but no count
        if type(self.rounds_used) is not int or self.rounds_used < 0:
            raise ValueError("rounds_used: expected a non-negative integer")
        if self.apices is not None:
            _require_apices(self.template, self.r, self.apices)
        for name, value in zip(("spg", "vertex_map", "edge_paths"),
                               _build_subdivision(self.template, self.r,
                                                  self.perms)):
            object.__setattr__(self, name, value)


def _require_multiplier(r: int) -> None:
    if type(r) is int and r < 2:
        raise ValueError(
            "row multiplier must be at least 2 for the lift to satisfy "
            "the end-point count")
    _require_rows(r)  # refuses any other type


def _require_permutation(perm: Sequence[int], r: int, context: str = "") -> None:
    # r ints covering 1..r: then they are 1..r, each once.  bool is a
    # subclass of int, but no row, and a float would fail only in _walk.
    if (len(perm) != r or any(type(row) is not int for row in perm)
            or not set(perm).issuperset(range(1, r + 1))):
        raise ValueError(f"{context}not a subdivision path: {perm} is not a "
                         f"permutation of 1..{r}")


def _require_apices(template: Spg, r: int, apices: tuple) -> None:
    """Refuse ``apices`` unless they are the lifts of two template sets
    that make the template a :class:`Spindle`; the lifts then make the
    result's graph one, since n = 2d and covering hold after a lift
    exactly when they hold before it."""
    lifted = dict(zip(_lift_table(template, r).lifts, template.vertices))
    try:
        Spindle(template, *(lifted[apex.mask][0] for apex in apices))
    except KeyError:
        raise ValueError("apices: not lifts of template sets") from None
    except ValueError as err:
        raise ValueError(f"apices: {err}") from None


def _lift_mask(elements: Iterable[int], r: int) -> int:
    """Mask of A x [r], A given by its base symbols (a :class:`FacetSet`
    or its elements): base symbol x's copy in row j is bit x*r + j - 1."""
    rows = (1 << r) - 1
    return sum(rows << (e * r) for e in elements)


def _walk(mask: int, swaps: list[tuple[int, int]], rows: Sequence[int]
          ) -> list[int]:
    """``mask`` and the masks after each step of ``swaps`` (an edge's
    swap list of a :class:`_LiftTable`) made in each of ``rows``
    (1-based), in turn."""
    seq = [mask]
    for row in rows:
        offset = row - 1
        for gone, came in swaps:
            mask &= ~(1 << (gone + offset))
            mask |= 1 << (came + offset)
            seq.append(mask)
    return seq


class _LiftBase(NamedTuple):
    """What a singleton template's lift tables are scaled from, at every
    r: the base symbols of each vertex's set, and each edge's swap pairs,
    the base symbol each step of one row retires (of A minus A2, for the
    edge from A to A2) and the one it introduces (of A2 minus A), paired
    by ascending rank."""

    elements: list[tuple[int, ...]]
    swaps: list[list[tuple[int, int]]]


def _make_lift_base(spg: Spg) -> _LiftBase:
    """The :class:`_LiftBase` of the singleton template ``spg``, made
    once per template (``Spg._lift_base``)."""
    masks = [vertex[0].mask for vertex in spg.vertices]
    return _LiftBase(
        [_mask_elements(mask) for mask in masks],
        [list(zip(_mask_elements(masks[u] & ~masks[w]),
                  _mask_elements(masks[w] & ~masks[u])))
         for u, w in spg.edges])


class _LiftTable(NamedTuple):
    """What every walk of one construction starts from: each template
    vertex's lift, each template edge's swap list (its
    :class:`_LiftBase` swap pairs as the row-1 bits of the lifted
    symbols they name), and ``every``, the mask with row 1 of each base
    symbol set, so that ``rows * every`` is the mask of the rows set in
    the bit mask ``rows`` of every base symbol."""

    lifts: list[int]
    swaps: list[list[tuple[int, int]]]
    every: int


def _lift_table(spg: Spg, r: int) -> _LiftTable:
    """The lift table of the singleton template ``spg`` at ``r``, scaled
    from its lift base on first use and kept on the graph, so that every
    construction, build and scan of one template at one r walks from one
    table.  Base symbol x's copy in row j is bit x*r + j - 1, so a swap
    pair (x, y) steps from bit x*r to bit y*r in row 1."""
    if r not in spg._lift_tables:
        elements, swaps = spg._lift_base
        spg._lift_tables[r] = _LiftTable(
            [_lift_mask(elems, r) for elems in elements],
            [[(x * r, y * r) for x, y in pairs] for pairs in swaps],
            sum([1 << (x * r) for x in range(spg.symbols.n)]))
    return spg._lift_tables[r]


def _build_subdivision(spg: Spg, r: int, perms: Sequence[Sequence[int]]
                       ) -> tuple[Spg, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The graph, vertex map and edge paths of :class:`TransformResult`,
    without its checks.

    The graph comes out canonical as :meth:`Spg.build` would make it,
    without its sorts.  Each path's interior vertices are numbered in
    turn past the template's, and r >= 2 gives every path one, so an
    edge's low end is a template vertex or the lower of two consecutive
    interior vertices.  The edges at template vertex v, (v, x), come in
    the order of their paths, which is the order of x; the interior
    edges (k, k + 1) come after all of them, in the order of k.
    """
    table = _lift_table(spg, r)
    vertices = [(FacetSet.from_mask(m),) for m in table.lifts]
    at_template: list[list[int]] = [[] for _ in vertices]
    interior: list[tuple[int, int]] = []
    edge_paths: list[tuple[int, ...]] = []
    for (u, w), swaps, perm in zip(spg.edges, table.swaps, perms):
        masks = _walk(table.lifts[u], swaps, perm)
        first = len(vertices)
        vertices += [(FacetSet.from_mask(m),) for m in masks[1:-1]]
        last = len(vertices) - 1
        at_template[u].append(first)
        at_template[w].append(last)
        interior += zip(range(first, last), range(first + 1, last + 1))
        edge_paths.append((u, *range(first, last + 1), w))
    edges = [(v, x) for v, xs in enumerate(at_template) for x in xs]
    return (Spg(spg.symbols.lifted(r), r * spg.dimension, tuple(vertices),
                tuple(edges + interior)),
            tuple(range(len(spg.vertices))), tuple(edge_paths))


# Rows read out of each end of a subdivision path by the bad-event scan:
# by the two-row lemma (see _scan_bad_events) they hold every hit.
_END_ROWS = 2


def _out_masks(table: _LiftTable, edge: tuple[int, int], ei: int,
               perm: Sequence[int], back: int) -> list[int]:
    """The masks of the first min(2, r) rows walked out of one end of the
    subdivision path of ``edge``, the ``ei``-th template edge, from the
    lift of its first vertex to that of its second: out of the first
    where ``back`` is 0, out of the second where it is 1.

    Out of the second, the rows ``perm[-2:]`` are walked forward from
    the second lift with those rows put back to the first, and the masks
    reversed.  By the two-row lemma (see :func:`_scan_bad_events`) every
    bad event lies inside these lists.  For r <= 2 they are the whole
    path or its reversal.
    """
    lift, swaps = table.lifts[edge[0]], table.swaps[ei]
    if not back:
        return _walk(lift, swaps, perm[:_END_ROWS])
    last = perm[-_END_ROWS:]
    # undone < 2**r, so the product carries nothing from one symbol's
    # rows into the next
    undone = sum(1 << (row - 1) for row in last) * table.every
    return _walk((table.lifts[edge[1]] & ~undone) | (lift & undone),
                 swaps, last)[::-1]


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


def _scan_bad_events(spg: Spg, r: int, perms: Sequence[Sequence[int]],
                     redrawn: frozenset[int] | None = None
                     ) -> tuple[BadEvent, ...]:
    """The bad events of the subdivision of the singleton template
    ``spg`` at row multiplier ``r`` with the row permutations ``perms``,
    one per edge.  Everything else it reads belongs to the template and
    is kept on it: its incidence lists, its lift table for r
    (:func:`_lift_table`) and the verdict of each pair key decided.  A
    pair whose key (below) is neither (3, 4) nor known clean walks the
    one end of each of its two paths that the pair reads
    (:func:`_out_masks`); nothing walked is kept.  With ``redrawn``
    given, only the endpoints of those edges are visited, in ascending
    order, and there only the pairs holding at least one of them, in the
    order of :func:`itertools.combinations`: the events come in the
    order of a full scan.

    Each step out of a template vertex V retires one of V's lifted
    symbols and introduces one from outside, so the set k steps out lies
    at Hamming distance exactly 2k from V's lift; by the triangle
    inequality two sets within distance 2 (sharing rd - 1 of their rd
    symbols) then lie in the band |k - l| <= 1.  The masks are walked
    with :func:`_walk` on a template whose sets have one size, which
    every caller checks, so the law holds and is not checked here.

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
    :func:`_out_masks`) therefore hold every hit, and the witness, the
    first hit in path order, is the one the whole paths give.

    Keyed verdicts: a pair (V, e1, e2) is decided by its oriented
    two-row key.  The rows out of V along an edge are ``perm[0]``,
    ``perm[1]`` where V is the edge's first endpoint, and ``perm[-1]``,
    ``perm[-2]`` where the edge is walked into V: its path leaves V by
    undoing its last row first.  Relabelling the rows by a permutation s
    of [r] maps each lifted symbol x@j to x@s(j).  It fixes every
    template lift, maps the path with rows p to the path with rows s(p)
    in either orientation (each row makes the same steps, on its own
    bits) and keeps Hamming distances, so it keeps the distance at every
    (k, l): the verdict and the first hit.  Take s with e1's rows at V,
    (a1, a2), -> 1, 2 and e2's rows (b1, b2) outside them -> 3, 4 in
    order of first appearance.  The pair is then decided as the one with
    rows (1, 2) on e1 and (s(b1), s(b2)) on e2, one of 7 keys: (1, 2),
    (2, 1), (1, 3), (2, 3), (3, 1), (3, 2) and (3, 4).  Nor does the
    distance at any (k, l) depend on r: in both windows every row but
    the keyed ones holds V's own row, so it adds no bit to any distance,
    and a window holds 2m + 1 masks whatever r is.  So the hits at a key
    are the same (k, l) at every r, and so is the first of them in path
    order, which the ends of e1 and e2 at V decide: one verdict per key,
    clean or its first hit, serves every r, draw and round on the
    template.  That includes r = 2 and 3, where the lemma holds too: at
    r = 2 each window is its whole path, far end included, its rows are
    all the rows, and the key is (1, 2) or (2, 1); at r = 3 the key
    (3, 4) cannot occur.  There the scan certifies nothing
    (:func:`_certifies`), but it still names the edges to redraw.

    Key (3, 4) is never bad.  Its four rows are distinct, so in their
    windows, which hold every hit, path 1 differs from V's lift only in
    its own two rows, by 2k bits, and path 2 only in its two, by 2l
    bits: the two sets are 2k + 2l >= 4 bits apart, and no pair is
    within 2.  Such a pair is neither walked nor kept.

    The template's ``_key_verdicts`` maps the (e1, e2, key) of every
    other pair decided, the key coded 4 * (s(b1) - 1) + s(b2) - 1, to
    None where the pair is clean and to its first hit (k, l) where it
    is bad; e1 and e2 name the pair, since two edges of a simple
    template share at most one endpoint, which fixes V and the end of
    each edge at V.  A pair whose key is known clean is skipped unread,
    and one whose key is known bad walks its two windows only to name
    its witness, out1[k] and out2[l].  Any other is walked and
    band-scanned, as a scan without keys would, and its verdict kept.
    So the events and witnesses are those of that scan, each key is
    band-scanned once per template, and the map holds at most 6 keys a
    pair.
    """
    edges, incidence = spg.edges, spg._incidence
    verdicts = spg._key_verdicts
    table = _lift_table(spg, r)
    if redrawn is None:
        at = range(len(incidence))
    else:
        at = sorted({v for ei in redrawn for v in edges[ei]})
    events: list[BadEvent] = []
    for v in at:
        for (e1, back1), (e2, back2) in combinations(incidence[v], 2):
            if redrawn is not None and e1 not in redrawn and e2 not in redrawn:
                continue
            p1, p2 = perms[e1], perms[e2]
            a1, a2 = (p1[-1], p1[-2]) if back1 else (p1[0], p1[1])
            b1, b2 = (p2[-1], p2[-2]) if back2 else (p2[0], p2[1])
            # s(b1) - 1 and s(b2) - 1
            k1 = 0 if b1 == a1 else 1 if b1 == a2 else 2
            k2 = 0 if b2 == a1 else 1 if b2 == a2 else 2 + (k1 == 2)
            if k2 == 3:  # key (3, 4): never bad
                continue
            key = (e1, e2, 4 * k1 + k2)
            hit = verdicts.get(key, ())  # (): not decided yet
            if hit is None:  # known clean
                continue
            out1 = _out_masks(table, edges[e1], e1, p1, back1)
            out2 = _out_masks(table, edges[e2], e2, p2, back2)
            if not hit:
                hits = _band_hits(out1, out2)
                # first in path order: a path ending at V is walked inward
                hit = verdicts[key] = min(hits, default=None, key=lambda kl: (
                    -kl[0] if back1 else kl[0], -kl[1] if back2 else kl[1]))
                if hit is None:
                    continue
            k, l = hit
            events.append(BadEvent(v, (e1, e2), (
                FacetSet.from_mask(out1[k]), FacetSet.from_mask(out2[l]))))
    return tuple(events)


def _certify(result: TransformResult,
             events: tuple[BadEvent, ...] | None = None) -> None:
    """Fill the kept reports of ``result.spg`` (validity and the three
    pair reports) with holding ones when :func:`_certifies` holds of r
    and the result's bad events: ``events``, the scan a caller already
    made, or else the result's own :func:`_scan_bad_events`, made only
    where the predicate asks.  Otherwise they are left to
    :func:`_validate` and the near-pair join, which name the witnesses.

    The argument (r >= 4; the template is a valid singleton SPG, as the
    result's constructor checks).  Two sets of the result are near when
    they share rd - 1 symbols, 2 bits apart.  A path walks its rows one
    at a time, so it is partway through at most one row, and every other
    row holds the row of one of its two end sets.

    - *Paths of edges that share no endpoint.*  Take a set of each.  At
      least r - 2 >= 2 rows are whole on both sides, where they hold an
      end of each edge, two distinct template sets, at least 2 bits
      apart.  So the two sets are at least 4 bits apart: neither near
      nor equal.
    - *A template vertex W against a set of a path not ending at W.*  At
      least r - 1 >= 3 rows of the path hold whole sets other than W's,
      each at least 2 bits from W's row: at least 6 bits.
    - *Within one path.*  Each step retires one lifted symbol and
      introduces one, and no step is undone, so the sets k and l steps
      along are 2|k - l| bits apart: near exactly when consecutive,
      which is an edge, and never equal.
    - *Two paths at a shared vertex V* (two edges of a simple template
      share at most one end).  V's lift lies 2k bits from the set k
      steps out, so it is near only the first step, an edge.  Every
      other near or equal pair, k and l >= 1, is a bad event, and
      :func:`_scan_bad_events` finds every one (the two-row lemma).

    So with no bad events the near pairs are exactly the edges, and no
    set repeats.  That decides each report :func:`verify_all` gives:

    - validity: every set holds rd symbols, none repeats, the edges are
      built canonical, and the result is connected as the template is;
    - singleton: every vertex holds one set;
    - adjacency and strong adjacency: every near pair is an edge, and
      every edge, one step, is a near pair;
    - the end-point count: a face with three holders makes them pairwise
      near, a triangle of edges, and a subdivision whose paths have at
      least r >= 2 edges has no triangle.

    Converse: a bad event is a near or equal pair on two vertices that
    are not adjacent (on two paths, neither at V, and neither path's far
    end on the other), so it fails adjacency or validity.  At r >= 4 a
    result is therefore certified exactly when all five reports hold.
    Below r = 4 the first case fails: two paths that share no endpoint
    can meet where no scan looks (``duplicating_tree`` in the tests).

    So a construction on a plain template whose resampling loop ends in
    a scan that :func:`_certifies` cannot fail after the loop:
    :func:`~spgraphs.experiments.sweep_r` relies on that, and counts
    such a trial a success without building its graph.
    """
    if _certifies(result.r, lambda: (
            _scan_bad_events(result.template, result.r, result.perms)
            if events is None else events)):
        vars(result.spg).update(
            _validity=PropertyReport(SpgProperty.VALIDITY),
            _pair_verdicts=(PropertyReport(SpgProperty.ADJACENCY),
                            PropertyReport(SpgProperty.STRONG_ADJACENCY),
                            PropertyReport(SpgProperty.ENDPOINT_COUNT)))


def _certifies(r: int, scan: Callable[[], Sequence[BadEvent]]) -> bool:
    """Whether a subdivision at row multiplier ``r`` is certified by
    its bad-event scan, whose events ``scan()`` gives: r >= 4 and no
    event (the argument of :func:`_certify`).  ``scan`` is called only
    at r >= 4, so below it nothing is scanned.  :func:`_certify` and
    :func:`~spgraphs.experiments.sweep_r` both decide by it."""
    return r >= 4 and not scan()


class SpgProperty(Enum):
    VALIDITY = "validity"
    PARTITION = "partition"
    CONNECTIVITY = "connectivity"
    ADJACENCY = "adjacency"
    STRONG_ADJACENCY = "strong-adjacency"
    ENDPOINT_COUNT = "endpoint-count"
    SINGLETON = "singleton"
    DIMENSION_REDUCTION = "dimension-reduction"
    LOCALIZATION = "localization"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one verifier: pass/fail plus every violating witness.

    Witnesses are tuples whose first element is a short kind tag; the
    remaining entries name the facet sets, vertex indices, or restriction
    faces involved.  ``holds`` is true exactly when there are none.
    """

    property: SpgProperty
    witnesses: tuple[tuple, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.witnesses


def witness_text(witness: tuple, table: SymbolTable | None = None) -> str:
    """Render one witness tuple as a stable, human-readable line."""
    kind, *payload = witness
    parts = []
    for item in payload:
        if isinstance(item, FacetSet):
            parts.append(item.render(table))
        elif isinstance(item, tuple):
            parts.append("(" + ", ".join(
                p.render(table) if isinstance(p, FacetSet) else str(p)
                for p in item) + ")")
        else:
            parts.append(str(item))
    return f"{kind}: " + " ".join(parts) if parts else str(kind)


def _sorted_witnesses(witnesses: list[tuple]) -> tuple[tuple, ...]:
    """``witnesses`` in a deterministic order, whatever the order of
    their making: by kind, then by ``str(w[1:])``, the text of the
    payload (so vertex 10 sorts before vertex 9).  The text is put
    together here, each facet set rendered once per call."""
    texts: dict[int, str] = {}  # by mask

    def text(payload: tuple) -> str:  # str(payload)
        parts = []
        for item in payload:
            if isinstance(item, FacetSet):
                part = texts.get(item.mask)
                if part is None:
                    part = texts[item.mask] = repr(item)
            elif isinstance(item, tuple):
                part = text(item)
            else:
                part = repr(item)
            parts.append(part)
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    return tuple(sorted(witnesses, key=lambda w: (w[0], text(w[1:]))))


def _require_rows(r: int) -> None:
    # r = 1 lifts nothing but is a valid row count; the construction
    # needs r >= 2 (_require_multiplier).  bool is a subclass of int, but
    # no count, and a numpy int would reach a document as r * d.
    if type(r) is not int:
        raise ValueError("row multiplier must be an int")
    if r < 1:
        raise ValueError("row multiplier must be positive")


# The least value of each count argument, and the refusal of a value
# below it.  numpy refuses a negative seed too, but without naming it,
# and only once a generator is made from it.
_COUNT_FLOORS = {
    "seed": (0, "seed must be non-negative, got {}"),
    "trials": (1, "trials must be positive"),
    "max_rounds": (0, "max_rounds must be non-negative"),
    "budget": (1, "budget must be positive"),
    "delta": (0, "maximum degree cannot be negative"),
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


def require_valid(spg: Spg) -> None:
    report = validate(spg)
    if not report.holds:
        raise InvalidSpgError(report)


def require_singleton(spg: Spg) -> None:
    report = check_singleton(spg)
    if not report.holds:
        raise InvalidSpgError(report)


def _require_template(spg: Spg) -> None:
    """A construction's template: not flagged a restriction (the result's
    graph would drop the flag), then a valid singleton SPG."""
    if spg.is_restriction:
        raise ValueError("template is flagged is_restriction: a "
                         "restriction cannot be transformed")
    require_singleton(spg)


def validate(spg: Spg) -> PropertyReport:
    """Gatekeeper check: partition property, uniform set size, simple
    connected graph.  Violations are data, never exceptions.

    Computed once per graph object and kept on it, so every check after
    the first reads the kept report.
    """
    return spg._validity


def _validate(spg: Spg) -> PropertyReport:
    """:func:`validate` itself, run once per graph by ``Spg._validity``:
    one loop over the sets and one over the edges, each deciding and
    naming its witnesses at once.  A certified transform result's graph
    (:func:`_certify`) never reaches it."""
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

    nv = len(spg.vertices)
    edges_ok = True
    seen_edges: set[tuple[int, int]] = set()
    for u, w in spg.edges:
        if not (0 <= u < nv and 0 <= w < nv):
            witnesses.append(("edge-endpoint-out-of-range", u, w))
            edges_ok = False
            continue
        if u == w:
            witnesses.append(("self-loop", u))
            continue
        key = (u, w) if u < w else (w, u)
        if key in seen_edges:
            witnesses.append(("parallel-edge", key[0], key[1]))
        seen_edges.add(key)

    if not spg.is_restriction and edges_ok:
        witnesses += _disconnected(spg.neighbors())

    return PropertyReport(SpgProperty.VALIDITY, _sorted_witnesses(witnesses))


def check_partition(spg: Spg) -> PropertyReport:
    """Partition aspect of validity only (duplicate or ill-formed sets)."""
    kinds = {"duplicate-set", "wrong-size-set", "symbol-out-of-range",
             "empty-vertex", "no-vertices"}
    ws = tuple(w for w in validate(spg).witnesses if w[0] in kinds)
    return PropertyReport(SpgProperty.PARTITION, ws)


def check_connectivity(spg: Spg) -> PropertyReport:
    """Actual connectivity, reported even for restriction-flagged graphs
    (which validate() exempts from the connectivity invariant)."""
    nv = len(spg.vertices)
    usable = tuple((u, w) for u, w in spg.edges if 0 <= u < nv and 0 <= w < nv)
    return PropertyReport(SpgProperty.CONNECTIVITY,
                          tuple(_disconnected(replace(spg, edges=usable).neighbors())))


def _bfs(adj: list[list[int]], source: int, dist: list[int]) -> list[int]:
    """Breadth-first search from ``source`` over adjacency lists.

    Writes hop counts into ``dist``, whose entries for vertices not yet
    reached must be negative, and returns the vertices it reached in
    visit order, so the last one is the farthest.
    """
    dist[source] = 0
    order = [source]
    for v in order:  # the list grows behind the loop: it is the queue
        step = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = step
                order.append(w)
    return order


def _disconnected(adj: list[list[int]]) -> list[tuple]:
    """No witness for a connected graph; otherwise one naming the number
    of components and each component's least vertex."""
    dist = [-1] * len(adj)
    least = []
    for s in range(len(adj)):
        if dist[s] < 0:  # s opens a new component
            least.append(s)
            _bfs(adj, s, dist)
    return [("disconnected", len(least), tuple(least))] if len(least) > 1 else []


# Near pairs by a pigeonhole join, as in multi-index hashing (Norouzi,
# Punjani & Fleet, CVPR 2012).  Two d-sets sharing d-1 symbols differ in
# exactly 2 bits, which touch at most 2 of 3 symbol blocks, so the pair
# agrees exactly on the third and meets in that block's grouping.  Blocks
# interleave (symbol i in block i mod 3): a lifted symbol x@j sits at
# x*r + j - 1, so contiguous blocks would group whole base symbols.
def near_pairs(spg: Spg) -> list[tuple[int, int]]:
    """Every index pair i < j, in :meth:`Spg.facets_with_vertex` order,
    of family members sharing exactly d-1 symbols: a new list of
    ``(i, j)`` tuples in ascending order on each call.

    Exact and exhaustive; the graph must pass :func:`validate` (sets of
    a size other than d raise ValueError).  Each set is paired, as it
    joins a block's grouping, with the earlier sets of its group; a pair
    is coded as the int i*N + j (N sets) until the codes are sorted, and
    only then made a tuple.
    """
    masks = [fs.mask for fs in spg.family()]
    d = spg.dimension
    if not set(map(int.bit_count, masks)) <= {d}:
        raise ValueError(f"near pairs need every set to hold {d} symbols")
    n = len(masks)
    width = max(masks, default=0).bit_length()
    every_third = int("001" * (width // 3 + 1), 2)  # bits 0, 3, 6, ...
    found: set[int] = set()
    for block in (every_third, every_third << 1, every_third << 2):
        groups: dict[int, list[int]] = {}
        for j, m in enumerate(masks):
            key = m & block
            earlier = groups.get(key)
            if earlier is None:
                groups[key] = [j]
                continue
            for i in earlier:
                if (masks[i] ^ m).bit_count() == 2:
                    found.add(i * n + j)
            earlier.append(j)
    return list(map(divmod, sorted(found), repeat(n)))


def _pair_reports(spg: Spg) -> tuple[PropertyReport, ...]:
    """The adjacency, strong-adjacency and end-point-count reports, from
    one run of the near-pair join; run once per graph by
    ``Spg._pair_verdicts``.

    One loop over the near pairs decides and names them together.  A
    pair across two distinct vertices marks that vertex pair witnessed,
    and is named unless the two are joined by an edge; an edge left
    unwitnessed is named after the loop.  A (d-1)-face held by k >= 2
    members makes those k pairwise near with that face as their
    intersection, so grouping the pairs by X & Y recovers every face's
    full list of holders, and a face with more than two is named.
    """
    located = spg.facets_with_vertex()
    edge_set = spg.edge_set()
    across: set[tuple[int, int]] = set()
    holders: dict[int, set[int]] = {}  # face mask -> family indices
    non_adjacent: list[tuple] = []
    for i, j in near_pairs(spg):
        (vi, a), (vj, b) = located[i], located[j]
        holders.setdefault(a.mask & b.mask, set()).update((i, j))
        # i < j in vertex order, hence vi <= vj
        if vi != vj:
            across.add((vi, vj))
            if (vi, vj) not in edge_set:
                non_adjacent.append(("non-adjacent-pair", a, b, vi, vj))
    unwitnessed = [("unwitnessed-edge", u, w) for u, w in spg.edges
                   if ((u, w) if u < w else (w, u)) not in across]
    over_counted = [("over-counted-face", FacetSet.from_mask(face),
                     tuple(sorted(located[k][1] for k in members)))
                    for face, members in holders.items() if len(members) > 2]
    return (
        PropertyReport(SpgProperty.ADJACENCY, _sorted_witnesses(non_adjacent)),
        PropertyReport(SpgProperty.STRONG_ADJACENCY,
                       _sorted_witnesses(non_adjacent + unwitnessed)),
        PropertyReport(SpgProperty.ENDPOINT_COUNT, _sorted_witnesses(over_counted)),
    )


def check_adjacency(spg: Spg) -> PropertyReport:
    """Every pair of facet sets sharing d-1 symbols must sit in the same
    vertex or in adjacent vertices."""
    require_valid(spg)
    return spg._pair_verdicts[0]


def check_strong_adjacency(spg: Spg) -> PropertyReport:
    """Adjacency, plus: every graph edge is witnessed by some pair of
    facet sets sharing d-1 symbols across it."""
    require_valid(spg)
    return spg._pair_verdicts[1]


def check_endpoint_count(spg: Spg) -> PropertyReport:
    """Every (d-1)-subset of symbols is contained in at most two family
    members."""
    require_valid(spg)
    return spg._pair_verdicts[2]


def check_singleton(spg: Spg) -> PropertyReport:
    """Every vertex holds exactly one facet set."""
    require_valid(spg)
    return PropertyReport(SpgProperty.SINGLETON, _sorted_witnesses([
        ("non-singleton-vertex", vi, len(vertex))
        for vi, vertex in enumerate(spg.vertices) if len(vertex) != 1]))


def verify_all(spg: Spg) -> tuple[PropertyReport, ...]:
    """Validity, singleton, adjacency, strong adjacency and end-point
    count, in that order.

    Equal, report for report, to running :func:`validate` and the four
    checks one by one; like them it raises :class:`InvalidSpgError` on a
    graph that fails validation.  Validity and the three reports built
    on near pairs are the ones kept on the graph object, so they are
    computed at most once whichever of these runs first.  Each report is
    decided and named in one pass: validity by one loop over the sets
    and one over the edges, the singleton property by one over the
    vertices, and the three pair reports by one loop over the near
    pairs.  A construction at r >= 4 whose bad-event
    scan is empty (the one that ends its resampling loop, or the one
    :func:`parse` makes of a transform result) has those reports kept
    already, all holding, and runs no join: they rest on the argument
    of :func:`_certify`.
    """
    return (validate(spg), check_singleton(spg), *spg._pair_verdicts)


def restrict(spg: Spg, face: FacetSet) -> Spg | None:
    """The restriction of the graph to the sets containing ``face``.

    Each surviving set drops the face's symbols; the symbol table shrinks
    to the complement; the induced graph keeps an edge iff both endpoint
    vertices survive.  Returns None when no set contains the face.  The
    result is flagged as a restriction (connectivity may legitimately
    fail, and the dimension may reach zero).
    """
    require_valid(spg)
    if len(face) > spg.dimension:
        raise ValueError(
            f"restriction face has {len(face)} symbols, dimension is {spg.dimension}")
    kept_syms = [i for i in range(spg.symbols.n) if i not in face]
    remap = {old: new for new, old in enumerate(kept_syms)}

    new_vertices = []
    surviving = {}
    for vi, vertex in enumerate(spg.vertices):
        restricted = [
            FacetSet(remap[e] for e in fs.elements if e not in face)
            for fs in vertex
            if face.issubset(fs)
        ]
        if restricted:
            surviving[vi] = len(new_vertices)
            new_vertices.append(restricted)
    if not new_vertices:
        return None

    new_edges = [
        (surviving[u], surviving[w])
        for u, w in spg.edges
        if u in surviving and w in surviving
    ]
    table = SymbolTable(tuple(spg.symbols.labels[i] for i in kept_syms))
    return Spg.build(
        table,
        spg.dimension - len(face),
        new_vertices,
        new_edges,
        is_restriction=True,
    )


def check_dimension_reduction(spg: Spg, budget: int = 10_000_000) -> PropertyReport:
    """Every restriction by at most d symbols is connected or empty.

    Decided on the graph itself, in one pass over the family: every
    subset of a member is a face (all other restrictions are empty,
    hence vacuous), walked as the submasks of the member's mask, and
    collects the vertices holding it.  The restriction to a face is
    connected exactly when a breadth-first search kept inside its
    holders reaches all of them; no restricted graph is built.

    ``budget`` bounds the number of distinct faces.  Refuses outright
    with :class:`BudgetExceededError` when a single member's 2^d faces
    exceed it, or as soon as the faces collected do; it never silently
    reports a partial pass.
    """
    _require_count("budget", budget)
    require_valid(spg)
    d = spg.dimension
    if spg.vertices and (1 << d) > budget:
        # Every subset of a single member is already a candidate face.
        raise BudgetExceededError(1 << d, budget)

    # Each face's holders in vertex order: a bare vertex index until a
    # second vertex holds it.  One holder is trivially connected.
    holders: dict[int, int | list[int]] = {}
    for vi, fs in spg.facets_with_vertex():
        face = mask = fs.mask
        for _ in range(1 << d):  # every submask of mask, mask first
            held = holders.setdefault(face, vi)
            if len(holders) > budget:
                raise BudgetExceededError(budget + 1, budget)
            if type(held) is int:
                if held != vi:
                    holders[face] = [held, vi]
            elif held[-1] != vi:
                held.append(vi)
            face = (face - 1) & mask

    adj = spg.neighbors()
    witnesses: list[tuple] = []
    for face, held in holders.items():
        # every other vertex reads as reached, so the search stays inside
        if type(held) is list and len(_bfs(adj, held[0], defaultdict(
                int, dict.fromkeys(held, -1)))) < len(held):
            witnesses.append(("disconnecting-face", FacetSet.from_mask(face)))
    return PropertyReport(
        SpgProperty.DIMENSION_REDUCTION, _sorted_witnesses(witnesses))


def graph_distance(spg: Spg, v1: int, v2: int) -> int:
    """Shortest-path distance in the underlying graph (breadth-first)."""
    if not (0 <= v1 < len(spg.vertices) and 0 <= v2 < len(spg.vertices)):
        raise ValueError(f"vertex index out of range: {v1}, {v2}")
    dist = [-1] * len(spg.vertices)
    _bfs(spg.neighbors(), v1, dist)
    if dist[v2] < 0:
        raise ValueError(f"vertex {v2} unreachable from {v1}")
    return dist[v2]


def max_degree(spg: Spg) -> int:
    """Largest vertex degree of the graph."""
    deg = [0] * len(spg.vertices)
    for u, w in spg.edges:
        deg[u] += 1
        deg[w] += 1
    return max(deg, default=0)


def diameter(spg: Spg) -> int:
    """Largest pairwise graph distance; raises on disconnected input.

    Exact, by iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, TCS 2013):
    sweeps pick a central vertex u, and the vertices farthest from u get
    their own breadth-first search, level by level, until no pair left
    can beat the longest distance found.  On a long path that is a
    handful of searches instead of one per vertex.
    """
    adj = spg.neighbors()
    if not adj:
        return 0

    def sweep(source: int) -> tuple[list[int], list[int]]:
        dist = [-1] * len(adj)
        return dist, _bfs(adj, source, dist)

    dist, order = sweep(0)
    if len(order) != len(adj):
        raise ValueError("graph is disconnected")
    dist, order = sweep(order[-1])
    dist, order = sweep(order[-1])
    lower = dist[order[-1]]
    # u: the midpoint of a shortest path between the two ends of the last
    # sweep, walked back from its far end.
    u = order[-1]
    for k in range(lower - 1, lower // 2 - 1, -1):
        u = next(w for w in adj[u] if dist[w] == k)

    dist_u, order_u = sweep(u)
    lower = max(lower, dist_u[order_u[-1]])
    # Fringes from the deepest level of u's search down: once the vertices
    # at levels i and above have had their own search, every pair left
    # lies within levels <= i of u, so no more than 2i apart.
    for v in reversed(order_u):
        if lower >= 2 * dist_u[v]:
            break
        dist, order = sweep(v)
        lower = max(lower, dist[order[-1]])
    return lower
