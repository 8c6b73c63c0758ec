"""Graph file writers: DOT, Pajek, VOSviewer-style JSON, and edge-list CSV.

Each format is a private layout of three parts in the canonical order of a
SignificanceGraph: the text before the edges, a renderer of any one block
of ``_EDGE_BLOCK`` edges, which needs no block before it, and the text
after the edges. ``render_graph`` joins them into a string, and
``write_graph`` writes them one block at a time. A large file is rendered
on up to all usable cores with the same bytes: w = min(usable CPUs,
blocks // 16) processes, at least one, each render a contiguous range of
blocks.
"""

from __future__ import annotations

import os
import stat
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .siggraph import SignificanceGraph

__all__ = ["GRAPH_FORMATS", "render_graph", "write_graph"]

_EDGE_BLOCK = 1 << 10  # edges per block
_BLOCKS_PER_WORKER = 16  # a process renders at least this many blocks


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
    """Pajek network: *Vertices with 1-based ids, then *Edges with |z| weights."""
    labels = [name.replace('"', "'") for name in g.names]

    def block(s: slice) -> str:
        return _fill("%d %d %.6f\n", (g.src[s] + 1).tolist(), (g.dst[s] + 1).tolist(),
                     abs(g.z[s]).tolist())
    head = (f"*Vertices {len(labels)}\n"
            + _fill('%d "%s"\n', list(range(1, len(labels) + 1)), labels) + "*Edges\n")
    return head, block, ""


_VJSON_ITEM = ',\n      {\n        "id": %d,\n        "label": %s,\n        "weight": %s\n      }'
_VJSON_LINK = (',\n      {\n        "source_id": %d,\n        "strength": %s,'
               '\n        "target_id": %d\n      }')


def _vjson(g: SignificanceGraph):
    """Viewer-compatible network JSON: items weighted by node z, links by |z|.

    The text is what ``json.dumps(doc, indent=2, sort_keys=True)`` writes
    for the document, filled into a fixed template.
    """
    import json

    def block(s: slice) -> str:
        # json writes repr for finite floats and NaN/Infinity otherwise, in one C pass
        links = _fill(_VJSON_LINK, (g.src[s] + 1).tolist(),
                      json.dumps(abs(g.z[s]).tolist())[1:-1].split(", "), (g.dst[s] + 1).tolist())
        return "[" + links[1:] if s.start == 0 else links
    # every entry starts with a comma; the first one of a list opens it instead
    items = _fill(_VJSON_ITEM, list(range(1, len(g.names) + 1)),
                  [json.dumps(name) for name in g.names],
                  [json.dumps(z) for z in g.node_z.tolist()])
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


def _edge_text(block, lo: int, hi: int):
    """The text of edge blocks ``lo`` to ``hi - 1``, one block at a time."""
    return (block(slice(k * _EDGE_BLOCK, (k + 1) * _EDGE_BLOCK)) for k in range(lo, hi))


def render_graph(g: SignificanceGraph, fmt: str) -> str:
    """The graph file text in ``fmt``, one of GRAPH_FORMATS."""
    head, block, tail = _layout(g, fmt)
    return head + "".join(_edge_text(block, 0, -(-g.edge_count // _EDGE_BLOCK))) + tail


def _workers(blocks: int) -> int:
    """Processes that render a file of ``blocks`` edge blocks: one per 16
    blocks, at most one per usable CPU, and one where ``os.fork`` is missing
    or SIGCHLD is ignored (a worker's exit status could not be read)."""
    if not hasattr(os, "fork") or blocks < 2 * _BLOCKS_PER_WORKER:
        return 1
    import signal
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks // _BLOCKS_PER_WORKER))


def write_graph(g: SignificanceGraph, fmt: str, out=None) -> None:
    """Write ``render_graph(g, fmt)`` one edge block at a time to the file ``out``,
    or to stdout.

    A file is rendered by ``_workers`` processes, each taking a contiguous
    range of blocks: this one writes the head and the first range, and each
    forked worker renders its range into an unlinked temporary file in the
    directory of ``out``, which is copied in after it. The bytes are the
    same for any number of workers. A worker that fails raises OSError, and
    no worker outlives the call.
    """
    head, block, tail = _layout(g, fmt)
    blocks = -(-g.edge_count // _EDGE_BLOCK)
    if out is None:
        _write_blocks(sys.stdout, None, head, block, tail, [0, blocks])
        return
    with open(out, "w", encoding="utf-8") as fh:
        # a device or a pipe (such as /dev/stdout) has no directory for the parts
        workers = _workers(blocks) if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else 1
        _write_blocks(fh, out, head, block, tail,
                      [blocks * k // workers for k in range(workers + 1)])


def _write_blocks(fh, out, head: str, block, tail: str, cuts: list) -> None:
    """Write the file to ``fh``, rendering block range k (``cuts[k]`` to
    ``cuts[k + 1] - 1``) in forked worker k for every k > 0; a single range
    forks nothing."""
    parts, pids = [], []  # each worker's temporary file and process id, in range order
    reaped = 0
    if len(cuts) > 2:
        import shutil
        import signal
        import tempfile
        # a worker leaves by os._exit: it flushes no buffer and runs no atexit hook,
        # so nothing it inherited is written twice
        sys.stdout.flush()
        sys.stderr.flush()
        directory = os.path.dirname(os.path.abspath(out))
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            parts.append(tempfile.TemporaryFile(dir=directory))
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(parts[-1].fileno(), "w", encoding="utf-8", closefd=False) as text:
                        text.writelines(_edge_text(block, lo, hi))
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        fh.write(head)
        fh.writelines(_edge_text(block, cuts[0], cuts[1]))
        fh.flush()  # the parts are copied in below the text layer
        for pid, part in zip(pids, parts):
            _, status = os.waitpid(pid, 0)
            reaped += 1
            if status:
                raise OSError(f"{out}: a graph writer process failed "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer)
        fh.write(tail)
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            part.close()
