"""Canonical text documents for subset partition graphs and transform
results.

One versioned, self-describing JSON schema covers plain graphs,
spindles (via an apices annotation), and transform results (via
vertex-map and edge-path annotations).  Serialization is canonical --
sets sorted, keys sorted, two-space indent, trailing newline -- so equal
objects produce byte-equal documents and parse(serialize(x)) == x.  The
text is byte-equal to ``json.dumps(doc, indent=2, sort_keys=True)`` plus
a newline, written by :func:`canonical_json` without the pure-Python
encoder that ``indent`` would otherwise force; :func:`dump` writes the
same text to a stream as it goes.
Parsing validates everything: structural errors and invariant violations
are reported as :class:`DocumentError` with field context, never as a
silently repaired object.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import Any, Union

from .core import (
    FacetSet,
    Spg,
    Spindle,
    SymbolTable,
    TransformResult,
    _mask_digits,
    _sorted_mask,
    validate,
    witness_text,
)

FORMAT_VERSION = 1

Payload = Union[Spg, Spindle, TransformResult]

# The keys the writer emits, which parse reads; it refuses any other.
_FIELDS = {"format_version", "kind", "symbols", "dimension", "vertices",
           "edges", "flags", "annotations"}
_FLAGS = {"is_restriction"}
_ANNOTATIONS = {
    "spg": {"apices"},
    "transform-result": {"apices", "vertex_map", "edge_paths", "rounds_used"},
}


class DocumentError(ValueError):
    """Malformed or invariant-violating document."""


class DocumentVersionError(DocumentError):
    """Document declares a format version this code does not speak."""


def _write(value, write, indent: str, indices: list[str]) -> None:
    """Pass the canonical text of ``value`` to ``write`` piece by piece;
    ``indent`` is the newline and spaces that open its line, and
    ``indices[i]`` is ``str(i)`` for every i below the widest facet set
    written so far.
    A :class:`FacetSet` is written as the list of its elements straight
    from its mask: the mask's binary digits select the elements' texts
    out of ``indices``."""
    if isinstance(value, FacetSet):
        if not value.mask:
            write("[]")
            return
        digits = _mask_digits(value.mask)
        if len(digits) > len(indices):
            indices.extend(map(str, range(len(indices), len(digits))))
        inner = indent + "  "
        write("[" + inner + ("," + inner).join(compress(indices, digits))
              + indent + "]")
        return
    if isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            # edges, paths and the vertex map; exact ints only, since
            # str(True) is not JSON
            write("[" + inner + ("," + inner).join(map(str, value))
                  + indent + "]")
            return
        opener = "[" + inner
        for item in value:
            write(opener)
            _write(item, write, inner, indices)
            opener = "," + inner
        write(indent + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = indent + "  "
        opener = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}")
            write(opener + json.dumps(key) + ": ")
            _write(value[key], write, inner, indices)
            opener = "," + inner
        write(indent + "}")
    else:
        # strings, numbers, bools and None; anything else raises TypeError
        write(json.dumps(value))


def _write_canonical(value, write) -> None:
    """Pass the canonical text of ``value``, newline included, to ``write``."""
    _write(value, write, "\n", [])
    write("\n")


def canonical_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` plus a newline,
    byte for byte, for values whose dict keys are strings (a
    :class:`FacetSet` is written as the list of its elements)."""
    out: list[str] = []
    _write_canonical(value, out.append)
    return "".join(out)


def _spg_fields(spg: Spg) -> dict[str, Any]:
    # The writer takes tuples for lists and facet sets for their element
    # lists, so the payload goes in as it is: no copy of the family.
    return {
        "format_version": FORMAT_VERSION,
        "symbols": spg.symbols.labels,
        "dimension": spg.dimension,
        "vertices": spg.vertices,
        "edges": spg.edges,
        "flags": {"is_restriction": spg.is_restriction},
    }


def _document(obj: Payload) -> dict[str, Any]:
    """The document of a graph, spindle, or transform result, as a value
    for the canonical writer."""
    if isinstance(obj, Spindle):
        doc = _spg_fields(obj.spg)
        doc["kind"] = "spg"
        doc["annotations"] = {"apices": [obj.apex1, obj.apex2]}
    elif isinstance(obj, TransformResult):
        doc = _spg_fields(obj.spg)
        doc["kind"] = "transform-result"
        annotations: dict[str, Any] = {
            "vertex_map": obj.vertex_map,
            "edge_paths": obj.edge_paths,
            "rounds_used": obj.rounds_used,
        }
        if obj.apices is not None:
            annotations["apices"] = obj.apices
        doc["annotations"] = annotations
    elif isinstance(obj, Spg):
        doc = _spg_fields(obj)
        doc["kind"] = "spg"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return doc


def serialize(obj: Payload) -> str:
    """Canonical text form of a graph, spindle, or transform result."""
    return canonical_json(_document(obj))


def dump(obj: Payload, fp) -> None:
    """Write :func:`serialize`'s text of ``obj`` to the text stream
    ``fp``, as :func:`json.dump` does: piece by piece, so that neither
    the whole text nor a list of every facet set's elements is held."""
    _write_canonical(_document(obj), fp.write)


def _expect(doc: dict, key: str, types, context: str = "document"):
    if key not in doc:
        raise DocumentError(f"{context}: missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int, but JSON true and false are not numbers
    if not isinstance(value, types) or isinstance(value, bool):
        raise DocumentError(
            f"{context}.{key}: expected {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}")
    return value


def _parse_facet(elements, n: int, context: str) -> FacetSet:
    # Besides ints and bools, JSON gives floats, strings, None, lists and
    # objects, on all of which the sort or FacetSet raises TypeError; it
    # raises ValueError on a negative or repeated index.  Among distinct
    # non-negative ints a bool is 0 or 1, so it sorts into the first two
    # places.  The bound is checked before FacetSet allocates a mask that
    # wide.  A NaN compares false with everything, so the sort can leave
    # the list out of order and FacetSet index past its digit buffer
    # (IndexError); the NaN itself is refused by the type scan.  Only a
    # refused facet set pays for _facet_fault's type scan.
    try:
        if isinstance(elements, list):
            elems = tuple(sorted(elements))
            if ((not elems or elems[-1] < n)
                    and bool not in map(type, elems[:2])):
                return FacetSet.from_mask(_sorted_mask(elems))
    except (TypeError, ValueError, IndexError):
        pass
    raise DocumentError(f"{context}: {_facet_fault(elements, n)}")


def _facet_fault(elements, n: int) -> str:
    """Why :func:`_parse_facet` refused ``elements``: wrong types first,
    then a negative or repeated index, then an index out of range."""
    if not isinstance(elements, list) or not set(map(type, elements)) <= {int}:
        return "facet set must be a list of integers"
    elems = tuple(sorted(elements))
    if elems[0] < 0:
        return f"negative symbol index {elems[0]}"
    if len(set(elems)) < len(elems):
        return f"duplicate symbol indices in {elems}"
    return f"symbol index {elems[-1]} out of range (n={n})"


def _check_subdivision(spg: Spg, vertex_map: list[int],
                       paths: list[tuple[int, ...]]) -> None:
    """The annotations must describe a subdivision of the graph: distinct
    template images, paths that walk graph edges between images and use
    every edge exactly once, and one vertex per image or interior path
    vertex.  Costs O(|V| + |E|)."""
    if len(set(vertex_map)) != len(vertex_map):
        raise DocumentError("annotations.vertex_map: entries must be distinct")
    images = set(vertex_map)
    edge_set = spg.edge_set()
    walked: set[tuple[int, int]] = set()
    for pi, path in enumerate(paths):
        context = f"annotations.edge_paths[{pi}]"
        if path[0] not in images or path[-1] not in images:
            raise DocumentError(
                f"{context}: endpoints {path[0]} and {path[-1]} must both be "
                f"in vertex_map")
        for u, w in zip(path, path[1:]):
            key = (u, w) if u < w else (w, u)
            if key not in edge_set:
                raise DocumentError(f"{context}: {u}-{w} is not a graph edge")
            if key in walked:
                raise DocumentError(
                    f"{context}: edge {u}-{w} lies on more than one path step")
            walked.add(key)
    if len(walked) != len(edge_set):
        raise DocumentError(
            f"annotations.edge_paths: cover {len(walked)} of "
            f"{len(edge_set)} graph edges")
    interior = sum(len(path) - 2 for path in paths)
    if len(vertex_map) + interior != len(spg.vertices):
        raise DocumentError(
            f"annotations.vertex_map: {len(vertex_map)} entries plus "
            f"{interior} interior path vertices, but the graph has "
            f"{len(spg.vertices)} vertices")


def _refuse_stray(obj: dict, known: set[str], prefix: str, what: str) -> None:
    # name the first stray key in sorted order
    stray = sorted(set(obj) - known)
    if stray:
        raise DocumentError(f"{prefix}{stray[0]}: not {what}")


def parse(text: str) -> Payload:
    """Parse and fully validate a document.

    Returns a plain graph, a spindle (when an apices annotation is
    present on an "spg" document), or a transform result.  Any invariant
    violation -- duplicate sets, disconnected non-restriction, bad
    indices, unknown version -- raises with the offending field named.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"malformed document: line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")

    version = _expect(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise DocumentVersionError(
            f"unsupported format_version {version} (this build reads "
            f"{FORMAT_VERSION})")

    kind = _expect(doc, "kind", str)
    if kind not in ("spg", "transform-result"):
        raise DocumentError(f"kind: unknown document kind {kind!r}")
    _refuse_stray(doc, _FIELDS, "", f"a field of a {kind} document")

    labels = _expect(doc, "symbols", list)
    if not all(isinstance(lbl, str) for lbl in labels):
        raise DocumentError("symbols: labels must be strings")
    try:
        table = SymbolTable(tuple(labels))
    except ValueError as err:
        raise DocumentError(f"symbols: {err}") from None

    dimension = _expect(doc, "dimension", int)
    if dimension < 0:
        raise DocumentError(f"dimension: must be non-negative, got {dimension}")

    raw_vertices = _expect(doc, "vertices", list)
    vertices = []
    for vi, raw_vertex in enumerate(raw_vertices):
        if not isinstance(raw_vertex, list):
            raise DocumentError(f"vertices[{vi}]: expected a list of facet sets")
        vertices.append([
            _parse_facet(raw, table.n, f"vertices[{vi}][{fi}]")
            for fi, raw in enumerate(raw_vertex)
        ])

    raw_edges = _expect(doc, "edges", list)
    edges = []
    for ei, raw_edge in enumerate(raw_edges):
        if (not isinstance(raw_edge, list) or len(raw_edge) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in raw_edge)):
            raise DocumentError(f"edges[{ei}]: expected a pair of vertex indices")
        edges.append((raw_edge[0], raw_edge[1]))

    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise DocumentError("flags: expected an object")
    _refuse_stray(flags, _FLAGS, "flags.", "a flag")
    is_restriction = flags.get("is_restriction", False)
    if not isinstance(is_restriction, bool):
        raise DocumentError("flags.is_restriction: expected a boolean")

    spg = Spg.build(table, dimension, vertices, edges,
                    is_restriction=is_restriction)
    report = validate(spg)
    if not report.holds:
        shown = "; ".join(
            witness_text(w, table) for w in report.witnesses[:3])
        raise DocumentError(
            f"document violates graph invariants "
            f"({len(report.witnesses)} violations): {shown}")

    annotations = doc.get("annotations", {})
    if not isinstance(annotations, dict):
        raise DocumentError("annotations: expected an object")
    _refuse_stray(annotations, _ANNOTATIONS[kind], "annotations.",
                  f"an annotation of a {kind} document")

    apices = None
    if "apices" in annotations:
        raw_apices = annotations["apices"]
        if not isinstance(raw_apices, list) or len(raw_apices) != 2:
            raise DocumentError("annotations.apices: expected a pair of facet sets")
        apices = tuple(
            _parse_facet(raw, table.n, f"annotations.apices[{i}]")
            for i, raw in enumerate(raw_apices))
        try:
            spindle = Spindle(spg, apices[0], apices[1])
        except ValueError as err:
            raise DocumentError(f"annotations.apices: {err}") from None

    if kind == "spg":
        return spg if apices is None else spindle

    vertex_map = annotations.get("vertex_map")
    edge_paths = annotations.get("edge_paths")
    rounds_used = annotations.get("rounds_used", 0)
    if not isinstance(vertex_map, list) or not all(
            type(v) is int and 0 <= v < len(vertices) for v in vertex_map):
        raise DocumentError(
            "annotations.vertex_map: expected a list of vertex indices")
    if not isinstance(edge_paths, list):
        raise DocumentError("annotations.edge_paths: expected a list of paths")
    parsed_paths = []
    for pi, path in enumerate(edge_paths):
        if (not isinstance(path, list) or len(path) < 2 or not all(
                type(v) is int and 0 <= v < len(vertices) for v in path)):
            raise DocumentError(
                f"annotations.edge_paths[{pi}]: expected a list of at least "
                f"two vertex indices")
        parsed_paths.append(tuple(path))
    if type(rounds_used) is not int or rounds_used < 0:
        raise DocumentError(
            "annotations.rounds_used: expected a non-negative integer")
    _check_subdivision(spg, vertex_map, parsed_paths)

    return TransformResult(
        spg=spg,
        vertex_map=tuple(vertex_map),
        edge_paths=tuple(parsed_paths),
        rounds_used=rounds_used,
        apices=apices,
    )
