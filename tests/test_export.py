"""Graph writers against reference writers that walk the GraphEdge tuple.

The references are the writers as they were before they read the edge
arrays: string builders over the node columns and ``g.edges`` and, for vjson,
``json.dumps(doc, indent=2, sort_keys=True)``. Every writer must give the
same bytes on graphs built by build_graph and on graphs built from
user-supplied edges, whatever the edge count is against the writers'
edge block, and ``write_graph`` must stream those bytes to a file or
stdout without holding the whole text. JSON has no non-finite number, so
vjson refuses a graph with one, as the strict reference does, and writes
nothing; the other formats write ``inf``. The vjson strength kernel must
give ``json.dumps``'s text exactly on seeded, boundary and generated values.
"""

import csv
import io
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranksig import export
from ranksig._jsonfloat import float_rows
from ranksig.errors import InvalidStatistic
from ranksig.export import GRAPH_FORMATS, csv_line, render_graph, write_graph
from ranksig.siggraph import Criterion, SignificanceGraph, build_graph

from conftest import make_record


def _dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_dot(g):
    lines = ["graph ranksig {"]
    for name, z in zip(g.names, g.node_z.tolist()):
        lines.append(f"  {_dot_quote(name)} [z={z:.6f}];")
    for e in g.edges:
        attrs = f"z={e.z:.6f}"
        if e.strong:
            attrs += ", strong=true"
        lines.append(f"  {_dot_quote(e.a)} -- {_dot_quote(e.b)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_pajek(g):
    ids = {name: i + 1 for i, name in enumerate(g.names)}
    lines = [f"*Vertices {len(g.names)}"]
    for name in g.names:
        label = name.replace('"', "'").replace("\r", " ").replace("\n", " ")
        lines.append(f'{ids[name]} "{label}"')
    lines.append("*Edges")
    for e in g.edges:
        lines.append(f"{ids[e.a]} {ids[e.b]} {abs(e.z):.6f}")
    return "\n".join(lines) + "\n"


def reference_vjson(g):
    ids = {name: i + 1 for i, name in enumerate(g.names)}
    doc = {
        "network": {
            "items": [
                {"id": ids[name], "label": name, "weight": z}
                for name, z in zip(g.names, g.node_z.tolist())
            ],
            "links": [
                {"source_id": ids[e.a], "target_id": ids[e.b], "strength": abs(e.z)}
                for e in g.edges
            ],
        }
    }
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a non-finite z: JSON has no such number
        raise InvalidStatistic("non-finite z") from None


def reference_edge_csv(g):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "z", "strong"])
    for e in g.edges:
        writer.writerow([e.a, e.b, repr(e.z), "true" if e.strong else "false"])
    return buf.getvalue()


def outcome(render, *args):
    """The text ``render(*args)`` returns, or InvalidStatistic if it raises that."""
    try:
        return render(*args)
    except InvalidStatistic:
        return InvalidStatistic


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
         ("d", "e", -math.inf), ("b", "d", math.inf), ("a", "e")],
    ),
}


def test_every_format_has_a_reference():
    assert sorted(REFERENCES) == sorted(GRAPH_FORMATS)


@pytest.mark.parametrize("fmt, reference", WRITERS)
@pytest.mark.parametrize("graph", list(GRAPHS), ids=str)
def test_writer_matches_reference(fmt, reference, graph):
    g = GRAPHS[graph]()
    assert outcome(render_graph, g, fmt) == outcome(reference, g)


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
    text = outcome(render_graph, g, fmt)
    path = tmp_path / f"graph.{fmt}"
    if text is InvalidStatistic:  # raised before the file is opened
        for out in (path, None):
            with pytest.raises(InvalidStatistic):
                write_graph(g, fmt, out)
        assert not path.exists() and capsys.readouterr().out == ""
        return
    write_graph(g, fmt, path)
    assert path.read_bytes() == text.encode("utf-8")
    capsys.readouterr()
    write_graph(g, fmt)
    assert capsys.readouterr().out == text


def test_vjson_refuses_a_non_finite_z_that_other_formats_write():
    user = GRAPHS["user edges, negative and non-finite z"]()
    with pytest.raises(InvalidStatistic, match=r"^node 'd': z is inf, which vjson cannot write$"):
        render_graph(user, "vjson")
    for fmt in ("csv", "dot", "pajek"):
        assert "inf" in render_graph(user, fmt)
    # finite nodes: the first non-finite edge in edge order is named
    edges = graph_with_edges(2 * BLOCK + 1)
    with pytest.raises(InvalidStatistic, match=r"^edge \('a', 'h'\): z is inf, "):
        render_graph(edges, "vjson")


@pytest.mark.parametrize("graph", [name for name in GRAPHS if "non-finite" not in name],
                         ids=str)
def test_vjson_of_a_finite_graph_is_strict_json(graph):
    g = GRAPHS[graph]()

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")
    doc = json.loads(render_graph(g, "vjson"), parse_constant=refuse)
    assert len(doc["network"]["links"]) == g.edge_count


def test_unknown_format_writes_nothing(tmp_path):
    g = GRAPHS["z criterion, odd labels"]()
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph(g, "graphml", tmp_path / "graph.xml")
    assert not (tmp_path / "graph.xml").exists()


BLOCK = 4


def graph_with_edges(count):
    """Six user-built nodes and the first ``count`` of their pairs as edges."""
    names = ["a", "b", 'c "q"', "d, e", "f\\g", "h"]
    zs = [-2.5, 0.0, 1e-300, -0.0, math.inf, -math.inf, 3.125, -1.0]
    edges = [(a, b, zs[k % len(zs)])
             for k, (a, b) in enumerate(itertools.combinations(sorted(names), 2))]
    return SignificanceGraph.from_scores(
        [(name, 0.5 * k) for k, name in enumerate(names)], edges[:count]
    )


@pytest.mark.parametrize("fmt, reference", WRITERS)
@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_edge_counts_around_the_block(fmt, reference, count, monkeypatch):
    monkeypatch.setattr(export, "_EDGE_BLOCK", BLOCK)
    g = graph_with_edges(count)
    assert g.edge_count == count
    assert outcome(render_graph, g, fmt) == outcome(reference, g)


def crowded_graph(n):
    """n institutions with near-equal shares: most of their pairs are edges."""
    return build_graph([
        make_record(name=f"Univ {k:03d}", p=1000.0 + 7 * k, pp=0.1 + 1e-5 * (k % 97))
        for k in range(n)
    ])


def test_vjson_stream_memory_is_bounded(tmp_path):
    g = crowded_graph(600)  # most of the 179,700 pairs are edges
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


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("fmt, reference", WRITERS)
def test_every_worker_count_writes_the_same_bytes(fmt, reference, block, tmp_path,
                                                  monkeypatch):
    # the name and ids are those of the forked writer's test, kept stable; one
    # process writes every file now, so the parameter is the edge block size
    monkeypatch.setattr(export, "_EDGE_BLOCK", block)
    graphs = {name: make() for name, make in GRAPHS.items()}
    graphs.update({f"{count} edges": graph_with_edges(count)
                   for count in (0, 1, block - 1, block, block + 1, 2 * block + 1)})
    path = tmp_path / f"graph.{fmt}"
    for name, g in graphs.items():
        if outcome(reference, g) is InvalidStatistic:
            with pytest.raises(InvalidStatistic):
                write_graph(g, fmt, tmp_path / "refused")
            assert not (tmp_path / "refused").exists(), name
            continue
        write_graph(g, fmt, path)
        text = path.read_bytes().decode("utf-8")
        assert text == render_graph(g, fmt) == reference(g), name


def test_a_pipe_is_written_whole(monkeypatch):
    # like /dev/stdout on a pipe
    monkeypatch.setattr(export, "_EDGE_BLOCK", BLOCK)
    g = graph_with_edges(2 * BLOCK + 1)
    r, w = os.pipe()
    with open(r, "rb") as reader:
        try:
            write_graph(g, "csv", f"/proc/self/fd/{w}")
        finally:
            os.close(w)
        assert reader.read() == render_graph(g, "csv").encode()


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


def kernel_text(values):
    """float_rows on ``values``, one value's text per line."""
    x = np.asarray(values, dtype=np.float64)
    newline = np.full((min(len(x), 1 << 16), 1), ord("\n"), dtype=np.uint8)
    return b"".join(
        np.hstack([float_rows(x[lo:lo + (1 << 16)]), newline[:len(x) - lo]]).tobytes()
        for lo in range(0, len(x), 1 << 16)).translate(None, b"\0").decode("ascii")


def assert_kernel_matches_json(values):
    values = np.asarray(values, dtype=np.float64)
    got = kernel_text(values)
    values = values.tolist()
    want = (json.dumps(values)[1:-1].replace(", ", "\n") + "\n") if values else ""
    if got != want:
        wrong = [(v, g, w) for v, g, w in zip(values, got.split("\n"), want.split("\n"))
                 if g != w]
        pytest.fail(f"{len(wrong)} values differ from json.dumps, first (value, kernel, json): "
                    f"{wrong[:5]}")


# seeded draws of 10**6 values each: the kernel's domain at the z scale, below 1,
# up to 1e15 (where two candidates often tie), and every positive finite double
# (subnormals and 0.0 included) equally likely
ORACLE_SETS = {
    "uniform [0, 3)": lambda rng: rng.uniform(0, 3, 10 ** 6),
    "uniform [1e-4, 1)": lambda rng: rng.uniform(1e-4, 1, 10 ** 6),
    "uniform [1, 1e15)": lambda rng: rng.uniform(1, 1e15, 10 ** 6),
    "random bit patterns": lambda rng: rng.integers(
        0, 0x7FF0000000000000, 10 ** 6, dtype=np.uint64).view(np.float64),
}


@pytest.mark.parametrize("values", list(ORACLE_SETS), ids=str)
def test_float_kernel_matches_json_on_seeded_values(values):
    assert_kernel_matches_json(ORACLE_SETS[values](np.random.default_rng(2020)))


def _around(v):
    return [float(np.nextafter(v, 0)), v, float(np.nextafter(v, math.inf))]


BOUNDARY_VALUES = (
    [0.0, 5e-324, 2.2250738585072014e-308, *_around(1e-4), 9.999999999999999e-05,
     *_around(1e16), 0.1, 0.2, 0.3, 0.30000000000000004, 2.5758293035489004,
     # halfway between two 17-digit decimals: repr rounds the last digit to even
     1234567890123456.25, 1234567890123457.75, 123456789012345.625,
     # the nearest 16-digit decimal 3.6e-14 units of the 17th digit outside and inside
     # the rounding interval, the closest a decimal comes to it in the kernel's range
     0.00010023777152232459, 0.0001002377715223246, math.inf, math.nan,
     # 17 digits with zeros across the splits of digit text: 10**9 and 10**8 (the
     # kernel's two int32 halves) and its 4-digit groups
     1.0000000000000002, 1.000000001, 10000000.000000002, *_around(1e8),
     100000000.10000001, 1000000.0000000001, 1.0000000100000004, 100000001.00000003,
     1.0000000001000007, 1000000.0000010001, 1000000010000000.1, 9.999999990000001,
     1.2345678900000001, 1000000000100.0007]
    + [2.0 ** k for k in range(-20, 61)] + [float(f"1e{k}") for k in range(-20, 23)]
)


def test_float_kernel_matches_json_on_boundary_values():
    assert_kernel_matches_json(BOUNDARY_VALUES)


@given(st.lists(st.floats(min_value=0.0) | st.just(math.nan), max_size=40))
def test_float_kernel_matches_json_on_generated_values(values):
    assert_kernel_matches_json(values)
