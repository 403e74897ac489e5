"""Expected verifier and stats results for a general SPG document, computed
by the benchmark itself from the raw document (standard library only).

Two distinct d-sets share d-1 symbols exactly when they share one
(d-1)-face, so grouping the sets by their d faces finds every near pair
in O(N*d) hash-map work; the verdicts follow from those groups.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def _far_end(adj: list[list[int]], start: int) -> tuple[int, int]:
    dist = {start: 0}
    queue = deque([start])
    far = start
    while queue:
        v = queue.popleft()
        if dist[v] > dist[far]:
            far = v
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return far, dist[far]


def general_expectations(doc: dict) -> dict:
    """Witness counts per property and the ``spg stats`` figures.

    The document's graph must be a tree (the generator joins the vertices
    by a spanning tree), where two sweeps of breadth-first search give
    the exact diameter.
    """
    d = doc["dimension"]
    vertices = doc["vertices"]
    edges = {(min(u, w), max(u, w)) for u, w in doc["edges"]}
    if len(edges) != len(vertices) - 1:
        raise ValueError("general SPG is not a tree")

    faces: dict[int, list[tuple[int, int]]] = {}
    masks: list[list[int]] = []
    for vi, vertex in enumerate(vertices):
        masks.append([])
        for elements in vertex:
            mask = sum(1 << e for e in elements)
            masks[vi].append(mask)
            for e in elements:
                faces.setdefault(mask ^ (1 << e), []).append(vi)

    non_adjacent = 0
    for holders in faces.values():
        for vi, vj in combinations(holders, 2):
            if vi != vj and (min(vi, vj), max(vi, vj)) not in edges:
                non_adjacent += 1
    unwitnessed = sum(
        1 for u, w in edges
        if not any((a & b).bit_count() == d - 1 for a in masks[u] for b in masks[w]))
    over_counted = sum(1 for holders in faces.values() if len(holders) > 2)

    adj: list[list[int]] = [[] for _ in vertices]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    far, _ = _far_end(adj, 0)
    _, diam = _far_end(adj, far)
    return {
        "witnesses": {
            "adjacency": non_adjacent,
            "strong-adjacency": non_adjacent + unwitnessed,
            "endpoint-count": over_counted,
        },
        "stats": {
            "dimension": d,
            "symbols": len(doc["symbols"]),
            "vertices": len(vertices),
            "sets": sum(len(v) for v in vertices),
            "edges": len(edges),
            "max-degree": max((len(a) for a in adj), default=0),
            "diameter": diam,
        },
    }
