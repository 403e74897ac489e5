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
silently repaired object.  A transform result is written as its
derived graph with the vertex map and edge paths; :func:`parse` reads
its certificate, the template, row multiplier and row permutations, off
them (the only place a certificate is read) and refuses the document
unless the result made from that certificate gives it back.
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
    _certify,
    _lift_mask,
    _mask_digits,
    _mask_elements,
    _require_permutation,
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
    indices, unknown version, a transform result that its certificate
    does not rebuild -- raises with the offending field named.

    Each document is validated once, at one site.  A plain graph is
    validated before its annotations are read.  A transform result's
    graph is not: :func:`_certificate` compares every field of it with
    the graph rebuilt from the certificate, and validity is decided on
    that rebuilt graph, the one the result keeps (at r >= 4 with no bad
    events it is certified, so nothing is computed).  Either way a
    graph that fails is refused as "document violates graph invariants".
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
    result = None
    if kind == "transform-result":
        try:
            result = _certificate(spg, *_annotations(doc, kind, table.n))
        except ValueError as err:
            raise DocumentError(str(err)) from None
    # A transform result's graph is validated as the one rebuilt from its
    # certificate, which _certificate has found equal to it field for field.
    report = validate(spg if result is None else result.spg)
    if not report.holds:
        shown = "; ".join(
            witness_text(w, table) for w in report.witnesses[:3])
        raise DocumentError(
            f"document violates graph invariants "
            f"({len(report.witnesses)} violations): {shown}")
    if result is not None:
        return result
    apices = _annotations(doc, kind, table.n)[1]
    try:
        return spg if apices is None else Spindle(spg, *apices)
    except ValueError as err:
        raise DocumentError(f"annotations.apices: {err}") from None


def _annotations(doc: dict, kind: str, n: int
                 ) -> tuple[dict, tuple[FacetSet, FacetSet] | None]:
    """A document's annotations object and its apices (None if absent)."""
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
            _parse_facet(raw, n, f"annotations.apices[{i}]")
            for i, raw in enumerate(raw_apices))
    return annotations, apices


def _certificate(spg: Spg, annotations: dict,
                 apices: tuple[FacetSet, FacetSet] | None) -> TransformResult:
    """The transform result that a transform-result document describes,
    given its graph ``spg``, not yet validated, its annotations and its
    apices: read as its certificate, the template, row multiplier r and
    row permutations (one per edge) from which the result is rebuilt,
    and must give the document back exactly.

    The template's sets are the vertex map's images, its edges join each
    path's ends, in the paths' order and direction (as the template gave
    them; :meth:`Spg.build` would sort them), and each permutation lists
    the row of the first step of each segment.  The graph must be
    singleton and not flagged a restriction; ``rounds_used`` and the
    apices are checked by the result's constructor.  Anything else
    raises ValueError naming the document field at fault, and an invalid
    template by up to three of its witnesses.  The rebuilt graph, equal
    to ``spg`` in every field, is the one the result keeps, and the
    only one whose validity is decided: at r >= 4 the result is scanned
    for bad events, and with none that graph is certified
    (:func:`~spgraphs.core._certify`)."""
    nv = len(spg.vertices)
    images = annotations.get("vertex_map")
    edge_paths = annotations.get("edge_paths")
    if not isinstance(images, list) or not all(
            type(v) is int and 0 <= v < nv for v in images):
        raise ValueError(
            "annotations.vertex_map: expected a list of vertex indices")
    if not isinstance(edge_paths, list):
        raise ValueError("annotations.edge_paths: expected a list of paths")
    for pi, path in enumerate(edge_paths):
        if (not isinstance(path, list) or len(path) < 2 or not all(
                type(v) is int and 0 <= v < nv for v in path)):
            raise ValueError(
                f"annotations.edge_paths[{pi}]: expected a list of at least "
                f"two vertex indices")
    images, edge_paths = tuple(images), tuple(map(tuple, edge_paths))
    if any(len(vertex) != 1 for vertex in spg.vertices):
        raise ValueError("vertices: a transform result is a singleton graph")
    if spg.is_restriction:
        raise ValueError("flags.is_restriction: must be false for a transform result")
    labels = spg.symbols.labels
    # distinct, as the labels are
    table = SymbolTable(tuple(lbl[:-2] for lbl in labels if lbl.endswith("@1")))
    r = len(labels) // max(table.n, 1)
    if r < 2 or spg.dimension % r or table.lifted(r).labels != labels:
        raise ValueError("symbols: not the base@row labels of a lift by a "
                         "row multiplier of at least 2 dividing the dimension")

    masks = [vertex[0].mask for vertex in spg.vertices]
    sets = [FacetSet(e // r for e in _mask_elements(masks[v])[::r])
            for v in images]
    if len(set(images)) != len(images) or any(
            _lift_mask(a, r) != masks[v] for v, a in zip(images, sets)):
        raise ValueError(
            "annotations.vertex_map: entries must be distinct lifted sets")
    template_of = {v: i for i, v in enumerate(images)}
    for pi, path in enumerate(edge_paths):
        if path[0] not in template_of or path[-1] not in template_of:
            raise ValueError(f"annotations.edge_paths[{pi}]: endpoints {path[0]} "
                             f"and {path[-1]} must both be in vertex_map")
    edges = tuple((template_of[p[0]], template_of[p[-1]]) for p in edge_paths)
    template = Spg(table, spg.dimension // r, tuple((a,) for a in sets), edges)
    report = validate(template)
    if not report.holds:
        shown = "; ".join(witness_text(w, table) for w in report.witnesses[:3])
        raise ValueError(f"annotations.edge_paths: joining vertex_map's sets "
                         f"makes no template ({len(report.witnesses)} "
                         f"violations): {shown}")

    perms = []
    for pi, ((u, w), path) in enumerate(zip(edges, edge_paths)):
        m = len(sets[u].without(sets[w]))
        # a segment's first step retires a bit of its row; none reads as r
        gone = [masks[path[s]] & ~masks[path[s + 1]]
                for s in range(0, len(path) - 1, m)]
        perms.append(tuple(((g & -g).bit_length() - 1) % r + 1 for g in gone))
        _require_permutation(perms[-1], r, f"annotations.edge_paths[{pi}]: ")

    try:  # after the checks above, only rounds_used and apices can fail
        result = TransformResult(template, r, tuple(perms),
                                 annotations.get("rounds_used", 0),
                                 apices=apices)
    except ValueError as err:
        raise ValueError(f"annotations.{err}") from None
    for name, given, again in (
            ("annotations.vertex_map", images, result.vertex_map),
            ("annotations.edge_paths", edge_paths, result.edge_paths),
            ("vertices", masks, [v[0].mask for v in result.spg.vertices]),
            ("edges", spg.edges, result.spg.edges)):
        if given != again:
            at = next((i for i, pair in enumerate(zip(given, again))
                       if pair[0] != pair[1]), min(len(given), len(again)))
            raise ValueError(f"{name}[{at}]: not as rebuilt from the "
                             f"template, r = {r} and the permutations")
    _certify(result)
    return result
