"""Graph file writers: DOT, Pajek, VOSviewer-style JSON, and edge-list CSV.

Each format is a private layout of three parts in the canonical order of a
SignificanceGraph: the text before the edges, a renderer of any one block
of ``_EDGE_BLOCK`` edges, which needs no block before it, and the text
after the edges. ``render_graph`` joins them into a string, and
``write_graph`` streams them to a file or stdout one block at a time, so
memory stays bounded by a block whatever the edge count.

vjson link strengths come from a numpy kernel (``_jsonfloat``): for each
value in [1e-4, 1e16) it proves repr's shortest round-trip digits by exact
double-double scaling, and it writes 0.0 as ``0.0``. Every other value,
and every value whose digits it cannot prove, goes to ``json.dumps``, so
the bytes are those json writes.

A block holds 4,096 edges. Writing 179,700 vjson edges (19.6 MB) peaks at
0.63 MB traced with 1,024-edge blocks, 1.02 MB with 2,048, 1.97 MB with
4,096 and 3.87 MB with 8,192, past an eighth of the file. The 142,140
edges of a 1,000-institution edition took 65, 60 and 55 ms with the first
three, in-process on a shared 2-core machine.
"""

from __future__ import annotations

import contextlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .siggraph import SignificanceGraph

__all__ = ["GRAPH_FORMATS", "render_graph", "write_graph"]

_EDGE_BLOCK = 1 << 12  # edges per block (see the module docstring)


def _fill(template: str, *columns: list) -> str:
    """``template`` once per row of the equal-length ``columns``, in one ``%`` pass."""
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k::len(columns)] = column
    return (template * len(columns[0])) % tuple(flat)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(g: SignificanceGraph):
    """Undirected DOT graph with z node attributes."""
    quoted = [_dot_quote(name) for name in g.names]
    strong_attr = ("", ", strong=true")

    def block(s: slice) -> str:
        return _fill("  %s -- %s [z=%.6f%s];\n", [quoted[i] for i in g.src[s].tolist()],
                     [quoted[j] for j in g.dst[s].tolist()], g.z[s].tolist(),
                     [strong_attr[f] for f in g.strong[s].tolist()])
    head = "graph ranksig {\n" + _fill("  %s [z=%.6f];\n", quoted, g.node_z.tolist())
    return head, block, "}\n"


def _pajek(g: SignificanceGraph):
    """Pajek network: *Vertices with 1-based ids, then *Edges with |z| weights.

    A label writes ``"`` as ``'`` and a line break as a space, so that each
    vertex stays on its line."""
    labels = [name.replace('"', "'").replace("\r", " ").replace("\n", " ") for name in g.names]

    def block(s: slice) -> str:
        return _fill("%d %d %.6f\n", (g.src[s] + 1).tolist(), (g.dst[s] + 1).tolist(),
                     abs(g.z[s]).tolist())
    head = (f"*Vertices {len(labels)}\n"
            + _fill('%d "%s"\n', list(range(1, len(labels) + 1)), labels) + "*Edges\n")
    return head, block, ""


_VJSON_ITEM = ',\n      {\n        "id": %d,\n        "label": %s,\n        "weight": %r\n      }'
# a link's text around its source id, strength and target id
_VJSON_LINK = (b',\n      {\n        "source_id": ', b',\n        "strength": ',
               b',\n        "target_id": ', b'\n      }')


def _vjson(g: SignificanceGraph):
    """Viewer-compatible network JSON: items weighted by node z, links by |z|.

    The text is what ``json.dumps(doc, indent=2, sort_keys=True)`` writes
    for the document, filled into a fixed template; a non-finite z, which
    JSON cannot hold, raises InvalidStatistic before any text is made. Each
    block of links fills one byte matrix laid out once per call, a row per
    link: the link's constant text holds the 1-based node ids from a table
    of NUL-padded ids and each strength |z| as ``float_rows`` writes it; the
    NULs are dropped in one pass and the rest decoded as ASCII. numpy and
    the kernel are imported here, not with the module, so that ``import
    ranksig.cli`` neither loads numpy nor compiles the kernel.
    """
    import json

    import numpy as np

    from ._jsonfloat import ROW_WIDTH, float_rows
    from .errors import InvalidStatistic

    for what, zs in (("node", g.node_z), ("edge", g.z)):
        for k in np.flatnonzero(~np.isfinite(zs))[:1].tolist():
            at = g.names[k] if what == "node" else (g.names[g.src[k]], g.names[g.dst[k]])
            raise InvalidStatistic(f"{what} {at!r}: z is {zs[k]}, which vjson cannot write")
    ids = np.array([b"%d" % i for i in range(1, len(g.names) + 1)], dtype="S")
    row, cols = _VJSON_LINK[0], []  # the link's text; its source id, strength, target id
    for gap, text in zip((ids.itemsize, ROW_WIDTH, ids.itemsize), _VJSON_LINK[1:]):
        cols.append(slice(len(row), len(row) + gap))
        row += b"\0" * gap + text
    buf = bytearray(row * min(_EDGE_BLOCK, g.edge_count))
    template = np.frombuffer(buf, np.uint8).reshape(-1, len(row))
    ids = ids.view(f"V{ids.itemsize}")  # a column is filled item by item, not byte by byte

    def block(s: slice) -> str:
        z = float_rows(np.abs(g.z[s]))
        rows = template[:len(z)]
        for col, items in zip(cols, (ids[g.src[s]], z.view(f"V{ROW_WIDTH}")[:, 0], ids[g.dst[s]])):
            rows[:, col].view(items.dtype)[:, 0] = items
        text = buf if rows.size == len(buf) else buf[:rows.size]  # copied for a short block
        links = text.translate(None, b"\0").decode("ascii")
        return "[" + links[1:] if s.start == 0 else links
    # every entry starts with a comma; the first one of a list opens it instead
    items = _fill(_VJSON_ITEM, list(range(1, len(g.names) + 1)),
                  [json.dumps(name) for name in g.names],
                  g.node_z.tolist())  # finite, so %r writes json's text
    head = ('{\n  "network": {\n    "items": ' + ("[" + items[1:] + "\n    ]" if items else "[]")
            + ',\n    "links": ' + ("" if g.edge_count else "[]"))
    return head, block, ("\n    ]" if g.edge_count else "") + "\n  }\n}\n"


def csv_line(cells) -> str:
    """``cells`` as one CSV line, each field as csv.writer writes it, except that
    a lone ``\\r`` is quoted too, so that csv.reader reads the row back whole."""
    fields = [str(cell) for cell in cells]
    for k, text in enumerate(fields):
        if "," in text or '"' in text or "\r" in text or "\n" in text:
            fields[k] = '"' + text.replace('"', '""') + '"'
    return ",".join(fields) + "\n"


def _edge_csv(g: SignificanceGraph):
    """Edge list CSV (isolated nodes do not appear; use the rank tables for nodes)."""
    fields = [csv_line((name,))[:-1] for name in g.names]
    flags = ("false", "true")

    def block(s: slice) -> str:
        return _fill("%s,%s,%r,%s\n", [fields[i] for i in g.src[s].tolist()],
                     [fields[j] for j in g.dst[s].tolist()], g.z[s].tolist(),
                     [flags[f] for f in g.strong[s].tolist()])
    return "source,target,z,strong\n", block, ""


_LAYOUTS = {"csv": _edge_csv, "dot": _dot, "pajek": _pajek, "vjson": _vjson}
GRAPH_FORMATS = tuple(_LAYOUTS)


def _layout(g: SignificanceGraph, fmt: str):
    """(head, block, tail) of the file in ``fmt``: the text before the edges, a
    function rendering the edges in a slice of one block, and the text after."""
    if fmt not in _LAYOUTS:
        raise ValueError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    return _LAYOUTS[fmt](g)


def _edge_text(g: SignificanceGraph, block):
    """The text of the edges of ``g``, one block at a time."""
    return (block(slice(lo, lo + _EDGE_BLOCK)) for lo in range(0, g.edge_count, _EDGE_BLOCK))


def render_graph(g: SignificanceGraph, fmt: str) -> str:
    """The graph file text in ``fmt``, one of GRAPH_FORMATS."""
    head, block, tail = _layout(g, fmt)
    return head + "".join(_edge_text(g, block)) + tail


def write_graph(g: SignificanceGraph, fmt: str, out=None) -> None:
    """Write ``render_graph(g, fmt)`` to the file ``out``, or to stdout when
    ``out`` is None, one edge block at a time: memory stays bounded by a
    block, not by the file."""
    head, block, tail = _layout(g, fmt)
    with (open(out, "w", encoding="utf-8") if out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(head)
        fh.writelines(_edge_text(g, block))
        fh.write(tail)
