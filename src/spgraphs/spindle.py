"""Template builders: the exponential-length abstract spindle and the
path/star fixtures used by the experiment harness, made by one builder.

An abstract spindle lives on n = 2d symbols and distinguishes two apex
sets whose union is the whole symbol set; its length is the graph
distance between the two apex vertices.  Arranging *all* C(2d, d)
d-subsets of the symbols on a path, apices at the ends, gives a singleton
spindle whose length C(2d, d) - 1 is exponential in d.  The template
violates end-point count (for d >= 2 every symbol lies in far more than
two sets), which is exactly what the row-permutation subdivision then
repairs without shortening the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (
    FacetSet,
    Spg,
    Spindle,
    SymbolTable,
    require_valid,
)
from .transform import (
    TransformConfig,
    TransformResult,
    construct_with_resampling,
)


@dataclass(frozen=True)
class SpindleTemplate:
    """A spindle whose path enumerates every d-subset exactly once,
    apices first and last."""

    spindle: Spindle
    order: tuple[FacetSet, ...]

    def __post_init__(self):
        d = self.spindle.spg.dimension
        n = self.spindle.spg.symbols.n
        if len(set(self.order)) != len(self.order):
            raise ValueError("subset order contains duplicates")
        if len(self.order) != comb(n, d):
            raise ValueError(
                f"order has {len(self.order)} subsets, expected {comb(n, d)}")
        if self.order[0] != self.spindle.apex1 or self.order[-1] != self.spindle.apex2:
            raise ValueError("apices must come first and last in the order")

    @property
    def length(self) -> int:
        return len(self.order) - 1


# The enumeration cap: C(16, 8) = 12870 vertices at d = 8.
MAX_DIMENSION = 8


def build_spindle_template(d: int) -> SpindleTemplate:
    """Path over all C(2d, d) d-subsets of 2d symbols, as singletons.

    Symbols are the pairs (i, side) for i in 1..d and side in {1, 2},
    labelled "i.side"; apex 1 is side 1, apex 2 is side 2.  Interior
    subsets follow colexicographic order, a fixed choice among the many
    that work.  A d above :data:`MAX_DIMENSION` raises ValueError.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > MAX_DIMENSION:
        raise ValueError(
            f"d={d} exceeds the enumeration cap {MAX_DIMENSION} "
            f"(C({2 * d},{d}) = {comb(2 * d, d)} vertices)")

    labels = tuple(f"{i}.1" for i in range(1, d + 1)) + tuple(
        f"{i}.2" for i in range(1, d + 1))
    table = SymbolTable(labels)
    apex1 = FacetSet(range(d))
    apex2 = FacetSet(range(d, 2 * d))

    order = [
        FacetSet(c)
        for c in sorted(combinations(range(2 * d), d), key=lambda c: c[::-1])
    ]

    spg = build_path_template(table, order)
    return SpindleTemplate(Spindle(spg, apex1, apex2), tuple(order))


def build_exponential_spindle(d: int, config: TransformConfig) -> TransformResult:
    """Run the full randomized construction on the spindle template.

    The result is again a spindle: apices are the lifted apex sets, the
    dimension is r*d over 2*r*d symbols, and the length grows to at least
    r * (C(2d, d) - 1) since every template edge becomes a path of length
    at least r.  Strong adjacency, end-point count and that length bound
    hold on success (checked by the construction itself)."""
    return construct_with_resampling(build_spindle_template(d).spindle, config)


def _singleton_template(symbols: SymbolTable, sets: list[FacetSet],
                        edges: list[tuple[int, int]]) -> Spg:
    """The valid graph with one vertex per set, in order, of the first
    set's size.  No sets raise ValueError; a repeated set, one of
    another size or any other fault raises InvalidSpgError, which names
    it with :func:`~spgraphs.core.validate`'s witness."""
    if not sets:
        raise ValueError("at least one facet set is required")
    spg = Spg.build(symbols, len(sets[0]), [[fs] for fs in sets], edges)
    require_valid(spg)
    return spg


def build_path_template(symbols: SymbolTable, sets: list[FacetSet]) -> Spg:
    """Singleton path in the given order; generic experiment fixture."""
    return _singleton_template(
        symbols, sets, [(i, i + 1) for i in range(len(sets) - 1)])


def build_star_template(
    symbols: SymbolTable, center: FacetSet, leaves: list[FacetSet]
) -> Spg:
    """Singleton star with the given center; max degree = number of leaves."""
    return _singleton_template(
        symbols, [center, *leaves], [(0, i + 1) for i in range(len(leaves))])


def sliding_window_path(d: int) -> Spg:
    """The canonical d-dimensional path template: d+1 windows of width d
    sliding over 2d symbols ({a,b}, {b,c}, ... for d = 2)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    symbols = SymbolTable.alphabetic(2 * d)
    sets = [FacetSet(range(i, i + d)) for i in range(d + 1)]
    return build_path_template(symbols, sets)
