"""Graph file writers: DOT, Pajek, VOSviewer-style JSON, and edge-list CSV.

All writers are deterministic string builders over the canonical node and
edge order of a SignificanceGraph, so repeated exports of the same graph
are byte-identical.
"""

import csv
import io
import json
import math

from .siggraph import SignificanceGraph

__all__ = ["GRAPH_FORMATS", "render_graph", "write_dot", "write_pajek",
           "write_vjson", "write_edge_csv"]

GRAPH_FORMATS = ("csv", "dot", "pajek", "vjson")


def _edge_rows(g: SignificanceGraph):
    """(src, dst, z, strong) of every edge as Python values, in canonical order."""
    return zip(g.src.tolist(), g.dst.tolist(), g.z.tolist(), g.strong.tolist())


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(g: SignificanceGraph) -> str:
    """Undirected DOT graph with z node attributes."""
    quoted = [_dot_quote(name) for name in g.names]
    strong_attr = ("", ", strong=true")
    lines = ["graph ranksig {"]
    lines += [f"  {q} [z={node.z:.6f}];" for q, node in zip(quoted, g.nodes)]
    lines += [
        f"  {quoted[i]} -- {quoted[j]} [z={z:.6f}{strong_attr[strong]}];"
        for i, j, z, strong in _edge_rows(g)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_pajek(g: SignificanceGraph) -> str:
    """Pajek network: *Vertices with 1-based ids, then *Edges with |z| weights."""
    labels = [name.replace('"', "'") for name in g.names]
    lines = [f"*Vertices {len(g.nodes)}"]
    lines += [f'{k} "{label}"' for k, label in enumerate(labels, 1)]
    lines.append("*Edges")
    lines += [
        f"{i} {j} {w:.6f}"
        for i, j, w in zip((g.src + 1).tolist(), (g.dst + 1).tolist(),
                           abs(g.z).tolist())
    ]
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    """A float as the json module writes it (NaN and infinities included)."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _json_list(entries: list) -> str:
    return "[" + ",".join(entries) + "\n    ]" if entries else "[]"


def write_vjson(g: SignificanceGraph) -> str:
    """Viewer-compatible network JSON: items weighted by node z, links by |z|.

    The text is what ``json.dumps(doc, indent=2, sort_keys=True)`` writes
    for the document, filled into a fixed template.
    """
    items = [
        f'\n      {{\n        "id": {k},\n        "label": {json.dumps(n.name)},'
        f'\n        "weight": {json.dumps(n.z)}\n      }}'
        for k, n in enumerate(g.nodes, 1)
    ]
    strengths = map(_json_float, abs(g.z).tolist())
    links = [
        f'\n      {{\n        "source_id": {i},\n        "strength": {w},'
        f'\n        "target_id": {j}\n      }}'
        for i, j, w in zip((g.src + 1).tolist(), (g.dst + 1).tolist(), strengths)
    ]
    return (
        '{\n  "network": {\n    "items": ' + _json_list(items)
        + ',\n    "links": ' + _json_list(links) + "\n  }\n}\n"
    )


def write_edge_csv(g: SignificanceGraph) -> str:
    """Edge list CSV (isolated nodes do not appear; use the rank tables for nodes)."""
    names = g.names
    flags = ("false", "true")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "z", "strong"])
    writer.writerows(
        (names[i], names[j], repr(z), flags[strong]) for i, j, z, strong in _edge_rows(g)
    )
    return buf.getvalue()


def render_graph(g: SignificanceGraph, fmt: str) -> str:
    if fmt == "dot":
        return write_dot(g)
    if fmt == "pajek":
        return write_pajek(g)
    if fmt == "vjson":
        return write_vjson(g)
    if fmt == "csv":
        return write_edge_csv(g)
    raise ValueError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
