"""Graph writers against reference writers that walk the GraphEdge tuple.

The references are the writers as they were before they read the edge
arrays: string builders over ``g.nodes`` and ``g.edges`` and, for vjson,
``json.dumps(doc, indent=2, sort_keys=True)``. Every writer must give the
same bytes on graphs built by build_graph and on graphs built from
user-supplied edges.
"""

import csv
import io
import json
import math

import pytest

from ranksig.export import write_dot, write_edge_csv, write_pajek, write_vjson
from ranksig.siggraph import Criterion, SignificanceGraph, build_graph

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


WRITERS = [
    (write_dot, reference_dot),
    (write_pajek, reference_pajek),
    (write_vjson, reference_vjson),
    (write_edge_csv, reference_edge_csv),
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


@pytest.mark.parametrize("writer, reference", WRITERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("graph", list(GRAPHS), ids=str)
def test_writer_matches_reference(writer, reference, graph):
    g = GRAPHS[graph]()
    assert writer(g) == reference(g)


def test_fixtures_cover_the_cases():
    odd = GRAPHS["z criterion, odd labels"]()
    ci = GRAPHS["ci criterion, strong edges"]()
    user = GRAPHS["user edges, negative and non-finite z"]()
    assert GRAPHS["edgeless"]().edge_count == 0
    assert odd.edge_count > 0 and any(e.z < 0 for e in odd.edges)
    assert any(e.strong for e in ci.edges) and not all(e.strong for e in ci.edges)
    assert any(e.z < 0 for e in user.edges)
    assert '"links": []' in write_vjson(GRAPHS["edgeless"]())
    assert '"items": []' in write_vjson(GRAPHS["empty"]())
