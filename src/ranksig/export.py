"""Graph file writers: DOT, Pajek, VOSviewer-style JSON, and edge-list CSV.

Each format is a private generator of text chunks in the canonical order
of a SignificanceGraph, one block of ``_EDGE_BLOCK`` edges per chunk:
``write_graph`` streams them and ``render_graph`` joins them into a string.
"""

import csv
import io
import json
import sys

from .siggraph import SignificanceGraph

__all__ = ["GRAPH_FORMATS", "render_graph", "write_graph"]

_EDGE_BLOCK = 1 << 10  # edges per chunk


def _blocks(g: SignificanceGraph):
    return (slice(k, k + _EDGE_BLOCK) for k in range(0, g.edge_count, _EDGE_BLOCK))


def _fill(template: str, *columns: list) -> str:
    """``template`` once per row of the equal-length ``columns``, in one ``%`` pass."""
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k::len(columns)] = column
    return (template * len(columns[0])) % tuple(flat)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_chunks(g: SignificanceGraph):
    """Undirected DOT graph with z node attributes."""
    quoted = [_dot_quote(name) for name in g.names]
    strong_attr = ("", ", strong=true")
    yield "graph ranksig {\n" + _fill("  %s [z=%.6f];\n", quoted, [n.z for n in g.nodes])
    for s in _blocks(g):
        yield _fill("  %s -- %s [z=%.6f%s];\n", [quoted[i] for i in g.src[s].tolist()],
                    [quoted[j] for j in g.dst[s].tolist()], g.z[s].tolist(),
                    [strong_attr[f] for f in g.strong[s].tolist()])
    yield "}\n"


def _pajek_chunks(g: SignificanceGraph):
    """Pajek network: *Vertices with 1-based ids, then *Edges with |z| weights."""
    labels = [name.replace('"', "'") for name in g.names]
    yield (f"*Vertices {len(g.nodes)}\n"
           + _fill('%d "%s"\n', list(range(1, len(labels) + 1)), labels) + "*Edges\n")
    for s in _blocks(g):
        yield _fill("%d %d %.6f\n", (g.src[s] + 1).tolist(), (g.dst[s] + 1).tolist(),
                    abs(g.z[s]).tolist())


_VJSON_ITEM = ',\n      {\n        "id": %d,\n        "label": %s,\n        "weight": %s\n      }'
_VJSON_LINK = (',\n      {\n        "source_id": %d,\n        "strength": %s,'
               '\n        "target_id": %d\n      }')


def _vjson_chunks(g: SignificanceGraph):
    """Viewer-compatible network JSON: items weighted by node z, links by |z|.

    The text is what ``json.dumps(doc, indent=2, sort_keys=True)`` writes
    for the document, filled into a fixed template.
    """
    # every entry starts with a comma; the first one of a list opens it instead
    items = _fill(_VJSON_ITEM, list(range(1, len(g.nodes) + 1)),
                  [json.dumps(n.name) for n in g.nodes], [json.dumps(n.z) for n in g.nodes])
    yield ('{\n  "network": {\n    "items": ' + ("[" + items[1:] + "\n    ]" if items else "[]")
           + ',\n    "links": ' + ("" if g.edge_count else "[]"))
    for s in _blocks(g):
        # json writes repr for finite floats and NaN/Infinity otherwise, in one C pass
        links = _fill(_VJSON_LINK, (g.src[s] + 1).tolist(),
                      json.dumps(abs(g.z[s]).tolist())[1:-1].split(", "), (g.dst[s] + 1).tolist())
        yield "[" + links[1:] if s.start == 0 else links
    yield ("\n    ]" if g.edge_count else "") + "\n  }\n}\n"


def _csv_field(value: str) -> str:
    """``value`` quoted as csv.writer quotes a field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def _edge_csv_chunks(g: SignificanceGraph):
    """Edge list CSV (isolated nodes do not appear; use the rank tables for nodes)."""
    fields = [_csv_field(name) for name in g.names]
    flags = ("false", "true")
    yield "source,target,z,strong\n"
    for s in _blocks(g):
        yield _fill("%s,%s,%r,%s\n", [fields[i] for i in g.src[s].tolist()],
                    [fields[j] for j in g.dst[s].tolist()], g.z[s].tolist(),
                    [flags[f] for f in g.strong[s].tolist()])


_CHUNKS = {"csv": _edge_csv_chunks, "dot": _dot_chunks, "pajek": _pajek_chunks,
           "vjson": _vjson_chunks}
GRAPH_FORMATS = tuple(_CHUNKS)


def _chunks(g: SignificanceGraph, fmt: str):
    if fmt not in _CHUNKS:
        raise ValueError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    return _CHUNKS[fmt](g)


def render_graph(g: SignificanceGraph, fmt: str) -> str:
    """The graph file text in ``fmt``, one of GRAPH_FORMATS."""
    return "".join(_chunks(g, fmt))


def write_graph(g: SignificanceGraph, fmt: str, out=None) -> None:
    """Write ``render_graph(g, fmt)`` chunk by chunk to the file ``out``, or to stdout."""
    chunks = _chunks(g, fmt)
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
