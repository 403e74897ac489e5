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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import combinations, compress, count
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .transform import BadEvent


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
    """A bad-event-free assignment failed re-verification (possible only
    below the localization regime r >= 4)."""

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
    are computed on first use and kept on the object; the near pairs
    themselves are not kept.  :func:`dataclasses.replace` builds a new
    object that derives its own.
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

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

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
class TransformResult:
    """The constructed graph plus the bookkeeping tying it back to the
    template: where each original vertex went and which new vertices make
    up each subdivided edge.  ``resample_log`` is diagnostic only and
    excluded from structural equality.

    :func:`_certificate` reads its template, row multiplier and row
    permutations off it and rebuilds it from them.  The type, the builder
    and that check live here rather than in :mod:`spgraphs.transform`, so
    that reading a document does not load the construction code."""

    spg: Spg
    vertex_map: tuple[int, ...]
    edge_paths: tuple[tuple[int, ...], ...]
    rounds_used: int = 0
    resample_log: tuple[tuple[int, tuple[BadEvent, ...]], ...] = field(
        default=(), compare=False)
    apices: tuple[FacetSet, FacetSet] | None = None


def _require_permutation(perm: Sequence[int], r: int, context: str = "") -> None:
    # r entries covering 1..r: then they are 1..r, each once
    if len(perm) != r or not set(perm).issuperset(range(1, r + 1)):
        raise ValueError(f"{context}not a subdivision path: {perm} is not a "
                         f"permutation of 1..{r}")


def _lift_mask(fs: FacetSet, r: int) -> int:
    """Mask of A x [r]."""
    rows = (1 << r) - 1
    return sum(rows << (e * r) for e in fs.elements)


def _swaps(a: FacetSet, a2: FacetSet, r: int) -> list[tuple[int, int]]:
    """The steps of one row of the walk from A x [r] to A2 x [r]: the
    row-1 bit of the lifted symbol each retires (of A minus A2) and of the
    one it introduces (of A2 minus A), paired by ascending base-symbol
    rank."""
    return list(zip((e * r for e in _mask_elements(a.mask & ~a2.mask)),
                    (e * r for e in _mask_elements(a2.mask & ~a.mask))))


def _walk(mask: int, swaps: list[tuple[int, int]], rows: Sequence[int]
          ) -> list[int]:
    """``mask`` and the masks after each step of ``swaps`` (see
    :func:`_swaps`) made in each of ``rows`` (1-based), in turn."""
    seq = [mask]
    for row in rows:
        offset = row - 1
        for gone, came in swaps:
            mask &= ~(1 << (gone + offset))
            mask |= 1 << (came + offset)
            seq.append(mask)
    return seq


class _LiftTable(NamedTuple):
    """What every walk of one construction starts from: each template
    vertex's lift, each template edge's :func:`_swaps`, and ``every``,
    the mask with row 1 of each base symbol set, so that
    ``rows * every`` is the mask of the rows set in the bit mask
    ``rows`` of every base symbol."""

    lifts: list[int]
    swaps: list[list[tuple[int, int]]]
    every: int


def _lift_table(spg: Spg, r: int) -> _LiftTable:
    sets = [vertex[0] for vertex in spg.vertices]
    return _LiftTable(
        [_lift_mask(fs, r) for fs in sets],
        [_swaps(sets[u], sets[w], r) for u, w in spg.edges],
        sum(1 << (x * r) for x in range(spg.symbols.n)))


def _build_subdivision(spg: Spg, r: int, table: _LiftTable,
                       perms: Sequence[Sequence[int]]) -> TransformResult:
    """build_subdivision from the walks' table, without its checks.

    The graph comes out canonical as :meth:`Spg.build` would make it,
    without its sorts.  Each path's interior vertices are numbered in
    turn past the template's, and r >= 2 gives every path one, so an
    edge's low end is a template vertex or the lower of two consecutive
    interior vertices.  The edges at template vertex v, (v, x), come in
    the order of their paths, which is the order of x; the interior
    edges (k, k + 1) come after all of them, in the order of k.
    """
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
    return TransformResult(
        spg=Spg(spg.symbols.lifted(r), r * spg.dimension, tuple(vertices),
                tuple(edges + interior)),
        vertex_map=tuple(range(len(spg.vertices))),
        edge_paths=tuple(edge_paths),
    )


def _certificate(result: TransformResult
                 ) -> tuple[Spg, int, list[tuple[int, ...]]]:
    """The template, row multiplier r and row permutations (one per edge)
    from which :func:`_build_subdivision` rebuilds ``result`` exactly,
    its certificate (McConnell, Mehlhorn, Näher & Schweitzer, Comput.
    Sci. Rev. 2011): the template's sets are the vertex map's images, its
    edges join each path's ends, in the paths' order and direction (as
    the template gave them; :meth:`Spg.build` would sort them), and each
    permutation lists the row of the first step of each segment.  The
    graph must be singleton, not valid; apices must be images.  Anything
    else raises ValueError naming the document field at fault, and an
    invalid template by up to three of its witnesses."""
    spg = result.spg
    if any(len(vertex) != 1 for vertex in spg.vertices):
        raise ValueError("vertices: a transform result is a singleton graph")
    labels = spg.symbols.labels
    # distinct, as the labels are
    table = SymbolTable(tuple(lbl[:-2] for lbl in labels if lbl.endswith("@1")))
    r = len(labels) // max(table.n, 1)
    if r < 2 or spg.dimension % r or table.lifted(r).labels != labels:
        raise ValueError("symbols: not the base@row labels of a lift by a "
                         "row multiplier of at least 2 dividing the dimension")

    masks = [vertex[0].mask for vertex in spg.vertices]
    images = result.vertex_map
    sets = [FacetSet(e // r for e in _mask_elements(masks[v])[::r])
            for v in images]
    if len(set(images)) != len(images) or any(
            _lift_mask(a, r) != masks[v] for v, a in zip(images, sets)):
        raise ValueError(
            "annotations.vertex_map: entries must be distinct lifted sets")
    template_of = {v: i for i, v in enumerate(images)}
    for pi, path in enumerate(result.edge_paths):
        if path[0] not in template_of or path[-1] not in template_of:
            raise ValueError(f"annotations.edge_paths[{pi}]: endpoints {path[0]} "
                             f"and {path[-1]} must both be in vertex_map")
    edges = tuple((template_of[p[0]], template_of[p[-1]])
                  for p in result.edge_paths)
    template = Spg(table, spg.dimension // r, tuple((a,) for a in sets), edges)
    report = validate(template)
    if not report.holds:
        shown = "; ".join(witness_text(w, table) for w in report.witnesses[:3])
        raise ValueError(f"annotations.edge_paths: joining vertex_map's sets "
                         f"makes no template ({len(report.witnesses)} "
                         f"violations): {shown}")

    perms = []
    for pi, ((u, w), path) in enumerate(zip(edges, result.edge_paths)):
        m = len(sets[u].without(sets[w]))
        # a segment's first step retires a bit of its row; none reads as r
        gone = [masks[path[s]] & ~masks[path[s + 1]]
                for s in range(0, len(path) - 1, m)]
        perms.append(tuple(((g & -g).bit_length() - 1) % r + 1 for g in gone))
        _require_permutation(perms[-1], r, f"annotations.edge_paths[{pi}]: ")

    rebuilt = _build_subdivision(template, r, _lift_table(template, r), perms)
    for name, given, again in (
            ("annotations.vertex_map", images, rebuilt.vertex_map),
            ("annotations.edge_paths", result.edge_paths, rebuilt.edge_paths),
            ("vertices", masks, [v[0].mask for v in rebuilt.spg.vertices]),
            ("edges", spg.edges, rebuilt.spg.edges)):
        if given != again:
            at = next((i for i, pair in enumerate(zip(given, again))
                       if pair[0] != pair[1]), min(len(given), len(again)))
            raise ValueError(f"{name}[{at}]: not as rebuilt from the "
                             f"template, r = {r} and the permutations")
    if not set(result.apices or ()) <= {spg.vertices[v][0] for v in images}:
        raise ValueError("annotations.apices: not lifts of template sets")
    return template, r, perms


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
    # Deterministic order regardless of internal iteration:
    # by kind, then by the text of the payload.
    return tuple(sorted(witnesses, key=lambda w: (w[0], str(w[1:]))))


def _require_rows(r: int) -> None:
    # r = 1 lifts nothing but is a valid row count; the construction
    # needs r >= 2 (transform._require_multiplier)
    if r < 1:
        raise ValueError("row multiplier must be positive")


def require_valid(spg: Spg) -> None:
    report = validate(spg)
    if not report.holds:
        raise InvalidSpgError(report)


def require_singleton(spg: Spg) -> None:
    report = check_singleton(spg)
    if not report.holds:
        raise InvalidSpgError(report)


def validate(spg: Spg) -> PropertyReport:
    """Gatekeeper check: partition property, uniform set size, simple
    connected graph.  Violations are data, never exceptions.

    Computed once per graph object and kept on it, so every check after
    the first reads the kept report.
    """
    return spg._validity


def _validate(spg: Spg) -> PropertyReport:
    """:func:`validate` itself, run once per graph by ``Spg._validity``."""
    witnesses: list[tuple] = []
    n = spg.symbols.n
    d = spg.dimension

    min_dim = 0 if spg.is_restriction else 1
    if not (min_dim <= d <= n):
        witnesses.append(("dimension-out-of-range", d, n))

    if not spg.vertices:
        witnesses.append(("no-vertices",))

    # Whole-family passes decide the partition checks; the per-set loop
    # runs only to name the witnesses of a family that fails one.
    masks = [fs.mask for vertex in spg.vertices for fs in vertex]
    if not (all(spg.vertices) and len(set(masks)) == len(masks)
            and set(map(int.bit_count, masks)) <= {d}
            and max(masks, default=0).bit_length() <= n):
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
    a size other than d raise ValueError).
    """
    masks = [fs.mask for fs in spg.family()]
    d = spg.dimension
    if any(m.bit_count() != d for m in masks):
        raise ValueError(f"near pairs need every set to hold {d} symbols")
    width = max((m.bit_length() for m in masks), default=0)
    every_third = int("001" * (width // 3 + 1), 2)  # bits 0, 3, 6, ...
    found: set[tuple[int, int]] = set()
    for block in (every_third, every_third << 1, every_third << 2):
        groups: dict[int, list[int]] = {}
        for i, m in enumerate(masks):
            groups.setdefault(m & block, []).append(i)
        for members in groups.values():
            if len(members) > 1:
                found.update((i, j) for i, j in combinations(members, 2)
                             if (masks[i] ^ masks[j]).bit_count() == 2)
    return sorted(found)


def _pair_reports(spg: Spg) -> tuple[PropertyReport, ...]:
    """The adjacency, strong-adjacency and end-point-count reports, from
    one run of the near-pair join; run once per graph by
    ``Spg._pair_verdicts``."""
    pairs = near_pairs(spg)
    located = spg.facets_with_vertex()
    edge_set = spg.edge_set()
    carried: set[tuple[int, int]] = set()
    non_adjacent: list[tuple] = []
    for i, j in pairs:
        vi, a = located[i]
        vj, b = located[j]
        if vi == vj:
            continue
        # i < j in vertex order, hence vi < vj
        if (vi, vj) in edge_set:
            carried.add((vi, vj))
        else:
            non_adjacent.append(("non-adjacent-pair", a, b, vi, vj))
    unwitnessed = [("unwitnessed-edge", u, w) for u, w in spg.edges
                   if ((u, w) if u < w else (w, u)) not in carried]
    del located, edge_set, carried  # freed before the grouping: a lower peak

    # A (d-1)-face held by k >= 2 members makes those k pairwise near with
    # that face as their intersection, so grouping near pairs by X & Y
    # recovers every face's full list of holders.
    family = spg.family()
    holders: dict[int, set[int]] = {}
    for i, j in pairs:
        holders.setdefault(family[i].mask & family[j].mask, set()).update((i, j))
    over_counted = [
        ("over-counted-face", FacetSet.from_mask(face),
         tuple(sorted(family[k] for k in members)))
        for face, members in holders.items() if len(members) > 2
    ]
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
    witnesses = [
        ("non-singleton-vertex", vi, len(vertex))
        for vi, vertex in enumerate(spg.vertices)
        if len(vertex) != 1
    ]
    return PropertyReport(SpgProperty.SINGLETON, _sorted_witnesses(witnesses))


def verify_all(spg: Spg) -> tuple[PropertyReport, ...]:
    """Validity, singleton, adjacency, strong adjacency and end-point
    count, in that order.

    Equal, report for report, to running :func:`validate` and the four
    checks one by one; like them it raises :class:`InvalidSpgError` on a
    graph that fails validation.  Validity and the three reports built
    on near pairs are the ones kept on the graph object, so they are
    computed at most once whichever of these runs first.
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

    Only faces contained in some family member are enumerated (all other
    restrictions are empty, hence vacuous).  Refuses outright with
    :class:`BudgetExceededError` when the enumeration would exceed
    ``budget`` restriction-connectivity checks; it never silently reports
    a partial pass.
    """
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
                if _disconnected(sub.neighbors()):
                    witnesses.append(("disconnecting-face", face))
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
