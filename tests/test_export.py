"""Graph writers against reference writers that walk the GraphEdge tuple.

The references are the writers as they were before they read the edge
arrays: string builders over ``g.nodes`` and ``g.edges`` and, for vjson,
``json.dumps(doc, indent=2, sort_keys=True)``. Every writer must give the
same bytes on graphs built by build_graph and on graphs built from
user-supplied edges, whatever the edge count is against the writers'
edge block, and ``write_graph`` must stream those bytes to a file or
stdout without holding the whole text.
"""

import csv
import io
import itertools
import json
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ranksig import export
from ranksig.export import GRAPH_FORMATS, csv_line, render_graph, write_graph
from ranksig.siggraph import Criterion, GraphEdge, SignificanceGraph, build_graph

from conftest import make_record


def _dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_dot(g):
    lines = ["graph ranksig {"]
    for node in g.nodes:
        lines.append(f"  {_dot_quote(node.name)} [z={node.z:.6f}];")
    for e in g.edges:
        attrs = f"z={e.z:.6f}"
        if e.strong:
            attrs += ", strong=true"
        lines.append(f"  {_dot_quote(e.a)} -- {_dot_quote(e.b)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_pajek(g):
    ids = {node.name: i + 1 for i, node in enumerate(g.nodes)}
    lines = [f"*Vertices {len(g.nodes)}"]
    for node in g.nodes:
        label = node.name.replace('"', "'")
        lines.append(f'{ids[node.name]} "{label}"')
    lines.append("*Edges")
    for e in g.edges:
        lines.append(f"{ids[e.a]} {ids[e.b]} {abs(e.z):.6f}")
    return "\n".join(lines) + "\n"


def reference_vjson(g):
    ids = {node.name: i + 1 for i, node in enumerate(g.nodes)}
    doc = {
        "network": {
            "items": [
                {"id": ids[n.name], "label": n.name, "weight": n.z}
                for n in g.nodes
            ],
            "links": [
                {"source_id": ids[e.a], "target_id": ids[e.b], "strength": abs(e.z)}
                for e in g.edges
            ],
        }
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_edge_csv(g):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "z", "strong"])
    for e in g.edges:
        writer.writerow([e.a, e.b, repr(e.z), "true" if e.strong else "false"])
    return buf.getvalue()


REFERENCES = {
    "csv": reference_edge_csv,
    "dot": reference_dot,
    "pajek": reference_pajek,
    "vjson": reference_vjson,
}
# (format, reference); the ids keep the form write_<name>-reference_<name>
# so that test ids stay stable
WRITERS = [
    pytest.param(fmt, ref, id=f"write_{ref.__name__[len('reference_'):]}-{ref.__name__}")
    for fmt, ref in REFERENCES.items()
]

# names that need escaping in every format: quotes, backslashes, non-ASCII,
# a delimiter and a line break
ODD_NAMES = ['Univ "Q"', "Back\\slash U", "Universität Zürich", "北京大学",
             "Comma, U", "Two\nLines U"]


def odd_records(ci):
    shares = (0.100, 0.102, 0.098, 0.101, 0.300, 0.099)
    intervals = ((0.09, 0.11), (0.095, 0.105), (0.09, 0.12),
                 (0.10, 0.13), (0.29, 0.31), (0.099, 0.099))
    return [
        make_record(name=name, p=2000.0 + 100 * k, pp=pp, ci=iv if ci else None)
        for k, (name, pp, iv) in enumerate(zip(ODD_NAMES, shares, intervals))
    ]


GRAPHS = {
    "empty": lambda: SignificanceGraph.from_scores([]),
    "single node": lambda: build_graph([make_record(name="Solo U")]),
    "edgeless": lambda: build_graph([make_record(name="Low U", pp=0.01),
                                     make_record(name="High U", pp=0.5)]),
    "z criterion, odd labels": lambda: build_graph(odd_records(ci=False)),
    "ci criterion, strong edges": lambda: build_graph(
        odd_records(ci=True), criterion=Criterion.CI_OVERLAP),
    "user edges, negative and non-finite z": lambda: SignificanceGraph.from_scores(
        [("a", -1.5), ("b", 0.0), ("c", 2.25), ("d", math.inf), ("e", -0.0)],
        [("c", "a", -3.125), ("a", "b", -0.0), ("b", "c", 1e-300),
         ("d", "e", -math.inf), ("b", "d", math.nan), ("a", "e")],
    ),
}


def test_every_format_has_a_reference():
    assert sorted(REFERENCES) == sorted(GRAPH_FORMATS)


@pytest.mark.parametrize("fmt, reference", WRITERS)
@pytest.mark.parametrize("graph", list(GRAPHS), ids=str)
def test_writer_matches_reference(fmt, reference, graph):
    g = GRAPHS[graph]()
    assert render_graph(g, fmt) == reference(g)


def test_fixtures_cover_the_cases():
    odd = GRAPHS["z criterion, odd labels"]()
    ci = GRAPHS["ci criterion, strong edges"]()
    user = GRAPHS["user edges, negative and non-finite z"]()
    assert GRAPHS["edgeless"]().edge_count == 0
    assert odd.edge_count > 0 and any(e.z < 0 for e in odd.edges)
    assert any(e.strong for e in ci.edges) and not all(e.strong for e in ci.edges)
    assert any(e.z < 0 for e in user.edges)
    assert '"links": []' in render_graph(GRAPHS["edgeless"](), "vjson")
    assert '"items": []' in render_graph(GRAPHS["empty"](), "vjson")


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
@pytest.mark.parametrize("graph", list(GRAPHS), ids=str)
def test_write_graph_streams_render_graph(fmt, graph, tmp_path, capsys):
    g = GRAPHS[graph]()
    text = render_graph(g, fmt)
    path = tmp_path / f"graph.{fmt}"
    write_graph(g, fmt, path)
    assert path.read_bytes() == text.encode("utf-8")
    capsys.readouterr()
    write_graph(g, fmt)
    assert capsys.readouterr().out == text


def test_unknown_format_writes_nothing(tmp_path):
    g = GRAPHS["z criterion, odd labels"]()
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph(g, "graphml", tmp_path / "graph.xml")
    assert not (tmp_path / "graph.xml").exists()


BLOCK = 4


def graph_with_edges(count):
    """Six user-built nodes and the first ``count`` of their pairs as edges."""
    names = ["a", "b", 'c "q"', "d, e", "f\\g", "h"]
    zs = [-2.5, 0.0, 1e-300, -0.0, math.inf, math.nan, 3.125, -1.0]
    edges = [
        GraphEdge(a, b, zs[k % len(zs)], strong=k % 3 == 0)
        for k, (a, b) in enumerate(itertools.combinations(sorted(names), 2))
    ]
    return SignificanceGraph.from_scores(
        [(name, 0.5 * k) for k, name in enumerate(names)], edges[:count]
    )


@pytest.mark.parametrize("fmt, reference", WRITERS)
@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_edge_counts_around_the_block(fmt, reference, count, monkeypatch):
    monkeypatch.setattr(export, "_EDGE_BLOCK", BLOCK)
    g = graph_with_edges(count)
    assert g.edge_count == count
    assert render_graph(g, fmt) == reference(g)


def test_vjson_stream_memory_is_bounded(tmp_path):
    # 600 institutions with near-equal shares: most of the 179,700 pairs are edges
    records = [
        make_record(name=f"Univ {k:03d}", p=1000.0 + 7 * k, pp=0.1 + 1e-5 * (k % 97))
        for k in range(600)
    ]
    g = build_graph(records)
    path = tmp_path / "graph.json"
    tracemalloc.start()
    try:
        write_graph(g, "vjson", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert g.edge_count > 100_000
    assert peak < size / 8, (peak, size)


# the characters csv quoting turns on, plus a few it must leave alone
_CSV_TEXT = st.text(st.sampled_from(list("ab ,\"\n\r\t'\\é")))


@given(st.lists(_CSV_TEXT.filter(lambda t: "\r" not in t), min_size=2, max_size=5))
def test_csv_line_matches_csv_writer_without_carriage_returns(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    assert csv_line(cells) == buf.getvalue()


@given(st.lists(_CSV_TEXT, min_size=2, max_size=5))
def test_csv_line_reads_back_whole(cells):
    assert list(csv.reader(io.StringIO(csv_line(cells), newline=""))) == [cells]
