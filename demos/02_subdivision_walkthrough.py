"""Step through the randomized construction on the smallest examples.

The construction replicates every set r times (the lift) and then
replaces each edge by a path that swaps one lifted symbol at a time,
finishing one row before starting the next.  The only randomness is the
per-edge order in which rows are adjusted; the only way adjacency can
fail afterwards is a "bad event", two subdivision sets on different
edges at a shared vertex that agree in all but one symbol.  Resampling
the offending edges' row orders removes them.
"""

from spgraphs import (
    FacetSet,
    PermutationAssignment,
    SymbolTable,
    TransformConfig,
    TransformResult,
    build_path_template,
    build_star_template,
    build_subdivision,
    construct_with_resampling,
    find_bad_events,
    sliding_window_path,
)

# --- the lift ---------------------------------------------------------------

# A result keeps its template, r and one row order per edge; the images
# of the template's vertices are their lifts.
edge = sliding_window_path(1)  # single edge {a} - {b}
result = TransformResult(edge, 3, ((1, 2, 3),))
print("lift of {a} - {b} at r=3:")
for v in result.vertex_map:
    print("  ", result.spg.vertices[v][0].render(result.spg.symbols))

# --- one subdivided edge ----------------------------------------------------

edge = build_path_template(SymbolTable.alphabetic(4),
                           [FacetSet([0, 1]), FacetSet([2, 3])])
result = TransformResult(edge, 2, ((1, 2),))
print("\nsubdivision of {a,b} - {c,d} at r=2, rows in order (1, 2):")
for v in result.edge_paths[0]:
    print("  ", result.spg.vertices[v][0].render(result.spg.symbols))
print("each consecutive pair differs in exactly one lifted symbol,")
print("and the k-th set meets the start in exactly rd - k symbols.")

# --- bad events -------------------------------------------------------------

# A star whose two leaves share the symbol c.  If both edges adjust row 1
# first, both subdivision paths start with the same set: a collision.
star = build_star_template(
    SymbolTable.alphabetic(5), FacetSet([0, 1]),
    [FacetSet([2, 3]), FacetSet([2, 4])])

aligned = PermutationAssignment(((1, 2), (1, 2)))
result = build_subdivision(star, 2, aligned)
events = find_bad_events(result, star)
print(f"\nrow-aligned permutations on the shared-leaf star: "
      f"{len(events)} bad event(s)")
w1, w2 = events[0].witness
print("  colliding sets:", w1.render(result.spg.symbols),
      w2.render(result.spg.symbols))

staggered = PermutationAssignment(((1, 2), (2, 1)))
result = build_subdivision(star, 2, staggered)
print(f"staggered permutations: {len(find_bad_events(result, star))} bad events")

# --- resampling -------------------------------------------------------------

# The full construction draws permutations from a seeded generator and
# redraws the participating edges until no bad event remains.
config = TransformConfig(r=4, seed=0, max_rounds=100)
result = construct_with_resampling(star, config)
print(f"\nfull construction at r=4, seed 0: "
      f"{result.rounds_used} resampling round(s)")
for round_index, round_events in result.resample_log:
    print(f"  round {round_index}: {len(round_events)} bad event(s), redrawn")
print(f"result: {len(result.spg.vertices)} vertices of dimension "
      f"{result.spg.dimension}; all verifiers re-checked on return")
