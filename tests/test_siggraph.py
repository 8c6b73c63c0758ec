import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksig import data
from ranksig.errors import (
    DegeneratePoolWarning, EmptyInstitution, InvalidStatistic, MissingInterval,
)
from ranksig.export import GRAPH_FORMATS, render_graph
from ranksig.siggraph import (
    Criterion,
    GroupTable,
    Grouping,
    RankedRow,
    SignificanceGraph,
    _grouping,
    _louvain,
    build_graph,
    cluster,
    modularity,
    rank_groups,
    weak_components,
)
from ranksig.stats import link_z

from conftest import make_record


def clique_graph(k1, k2, bridge=True):
    a = [f"a{i}" for i in range(k1)]
    b = [f"b{i}" for i in range(k2)]
    nodes = [(n, float(i)) for i, n in enumerate(a + b)]
    edges = list(itertools.combinations(a, 2)) + list(itertools.combinations(b, 2))
    if bridge:
        edges.append(("a0", "b0"))
    return SignificanceGraph.from_scores(nodes, edges)


def name_degree(g):
    """Each name's edge count, from the GraphEdge list."""
    degree = dict.fromkeys(g.names, 0)
    for e in g.edges:
        degree[e.a] += 1
        degree[e.b] += 1
    return degree


def isolate_names(g, grouping):
    """The members of the tables rank_groups marks as isolates."""
    return frozenset(t.rows[0].name for t in rank_groups(g, grouping) if t.isolate)


def assert_isolate_tables(g, grouping, degree):
    """A table is an isolate exactly when it has one member, of degree 0."""
    for t in rank_groups(g, grouping):
        assert t.isolate == (len(t.rows) == 1 and degree[t.rows[0].name] == 0)


def random_records(rng, n, prefix="u"):
    return [
        make_record(
            name=f"{prefix}{i:03d}",
            p=float(rng.uniform(100, 40000)),
            pp=float(rng.uniform(0.03, 0.25)),
        )
        for i in range(n)
    ]


def random_graph(rng, max_nodes=60):
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    nodes = [(name, float(rng.normal())) for name in names]
    edges = []
    prob = float(rng.uniform(0.02, 0.3))
    for a, b in itertools.combinations(names, 2):
        if rng.random() < prob:
            edges.append((a, b, float(rng.normal())))
    return SignificanceGraph.from_scores(nodes, edges)


class TestGraphValidation:
    @pytest.mark.parametrize("edges, message", [
        ([("a", "a")], "self-edge on 'a'"),
        ([("a", "zz")], r"edge \('a', 'zz'\) references a missing node"),
        ([("a", "b"), ("a", "b")], r"duplicate edge \('a', 'b'\)"),
        ([("a", "b"), ("b", "a")], r"duplicate edge \('a', 'b'\)"),
        # a fourth item is not dropped: this is no strong edge
        ([("a", "b", 0.9, True)], r"edge \('a', 'b', 0.9, True\) is not \(a, b\) or \(a, b, z\)"),
        ([("a",)], r"edge \('a',\) is not \(a, b\) or \(a, b, z\)"),
        ([("a", "b", 0.9, True), ("a", "a")], r"edge \('a', 'b', 0.9, True\) is not"),
    ], ids=["self-edge", "missing node", "duplicate", "reversed duplicate", "four items",
            "one item", "checked in input order"])
    def test_bad_edges_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SignificanceGraph.from_scores([(n, 0.0) for n in "abc"], edges)

    def test_nan_node_z_rejected(self):
        # a NaN has no place in the (-z, name) order that ranks and tiers read
        with pytest.raises(InvalidStatistic, match=r"^node 'b': z is NaN$"):
            SignificanceGraph.from_scores([("a", 1.0), ("b", math.nan), ("c", 2.0), ("d", 3.0)])

    def test_nan_edge_z_rejected_in_input_order(self):
        # the vjson writer would write a bare NaN, which is not JSON
        nodes = [(n, 0.0) for n in "abc"]
        with pytest.raises(InvalidStatistic, match=r"^edge \('b', 'a'\): z is NaN$"):
            SignificanceGraph.from_scores(nodes, [("a", "c", 1.0), ("b", "a", math.nan),
                                                  ("a", "a")])
        with pytest.raises(ValueError, match="self-edge on 'a'"):
            SignificanceGraph.from_scores(nodes, [("a", "a"), ("b", "a", math.nan)])
        g = SignificanceGraph.from_scores(nodes, [("a", "b", math.inf), ("c", "a", -math.inf)])
        assert g.z.tolist() == [math.inf, -math.inf]

    def test_infinite_node_z_ranks_in_place(self):
        g = SignificanceGraph.from_scores(
            [("a", 1.0), ("b", math.inf), ("c", -math.inf), ("d", 3.0)])
        assert g.node_z.tolist() == [1.0, math.inf, -math.inf, 3.0]
        tables = rank_groups(g, weak_components(g))
        assert [t.rows[0].name for t in tables] == ["b", "d", "a", "c"]
        assert [t.rows[0].overall_rank for t in tables] == [1, 2, 3, 4]

    NAMES = ("a", "b", 'c "q"', "d, e", "é")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_order_and_orientation_give_one_graph(self, data):
        pairs = data.draw(st.lists(
            st.sampled_from(list(itertools.combinations(self.NAMES, 2))), unique=True))
        zs = data.draw(st.lists(st.one_of(st.none(), st.floats(allow_nan=False)),
                                min_size=len(pairs), max_size=len(pairs)))
        items = [(a, b) if z is None else (a, b, z) for (a, b), z in zip(pairs, zs)]
        flips = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
        scores = [(n, 0.5 * k) for k, n in enumerate(self.NAMES)]
        g = SignificanceGraph.from_scores(scores, items)
        h = SignificanceGraph.from_scores(
            data.draw(st.permutations(scores)),
            data.draw(st.permutations(
                [(e[1], e[0], *e[2:]) if flip else e for e, flip in zip(items, flips)])),
        )
        assert h == g
        finite = all(z is None or math.isfinite(z) for z in zs)
        for fmt in GRAPH_FORMATS:
            if fmt == "vjson" and not finite:  # JSON has no inf: both raise
                for graph in (g, h):
                    with pytest.raises(InvalidStatistic, match="which vjson cannot write"):
                        render_graph(graph, fmt)
                continue
            assert render_graph(h, fmt) == render_graph(g, fmt)

    def test_edges_are_canonical_and_lazy(self):
        g = SignificanceGraph.from_scores(
            [("c", 3.0), ("a", 1.0), ("b", 2.0)], [("c", "a", -1.5), ("b", "a", 0.5)]
        )
        assert [(e.a, e.b, e.z) for e in g.edges] == [("a", "b", 0.5), ("a", "c", -1.5)]
        assert (g.src.tolist(), g.dst.tolist(), g.edge_count) == ([0, 0], [1, 2], 2)
        built = build_graph([make_record(name=n, pp=0.1) for n in "cab"])
        assert built.edges is built.edges
        assert built == SignificanceGraph.from_scores(
            zip(built.names, built.node_z.tolist()), [(e.a, e.b, e.z) for e in built.edges])

    def test_containment_either_way_is_strong(self):
        intervals = {"A": (0.08, 0.13), "B": (0.09, 0.125), "C": (0.07, 0.14),
                     "D": (0.11, 0.15), "E": (0.08, 0.13)}
        records = [make_record(name=n, ci=iv) for n, iv in intervals.items()]
        g = build_graph(records, criterion=Criterion.CI_OVERLAP)
        strong = {(e.a, e.b): e.strong for e in g.edges}
        # B in A, A in C, A and E mutual; A and D only overlap
        assert strong[("A", "B")] and strong[("A", "C")] and strong[("A", "E")]
        assert strong[("A", "D")] is False

    def test_graph_is_immutable(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)], [("a", "b")])
        with pytest.raises(AttributeError):
            g.names = ()
        with pytest.raises(ValueError):
            g.z[0] = 5.0
        with pytest.raises(ValueError):
            g.node_z[0] = 5.0
        with pytest.raises(AttributeError):
            del g.src
        with pytest.raises(AttributeError):
            g.node_z = np.zeros(2)
        with pytest.raises(AttributeError):
            g.edges = ()
        # a writeable node_z is copied, so the caller's array stays its own
        node_z = np.array([7.0, 8.0])
        h = SignificanceGraph(g.names, node_z, g.src, g.dst, g.z, g.strong)
        assert node_z.flags.writeable and h.node_z is not node_z
        node_z[0] = 0.0
        assert h.node_z.tolist() == [7.0, 8.0]
        assert not h.node_z.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)], [("a", "b", 0.3)])
        arr = np.array([0.7])
        h = dataclasses.replace(g, z=arr)
        assert arr.flags.writeable and h.z is not arr
        arr[0] = 9.0
        assert h.z.tolist() == [0.7]
        with pytest.raises(ValueError):
            h.z[0] = 5.0
        # an array that is already read-only is kept, not copied
        assert dataclasses.replace(h, dst=h.dst).dst is h.dst


class TestBuildGraph:
    def test_trio_topology(self, trio):
        g = build_graph(trio, criterion=Criterion.Z_TEST, threshold=2.576)
        assert [(e.a, e.b) for e in g.edges] == [
            ("Peking University", "Zhejiang University")
        ]
        assert abs(g.edges[0].z) < 2.576

    def test_single_record(self):
        g = build_graph([make_record(name="Solo U")])
        assert len(g.names) == 1 and g.edges == ()

    def test_identical_records_form_complete_graph(self):
        recs = [make_record(name=f"Twin {i}", p=1000.0, pp=0.1) for i in range(4)]
        g = build_graph(recs)
        assert len(g.edges) == 4 * 3 // 2
        assert all(e.z == 0.0 for e in g.edges)

    def test_ci_criterion_strong_edge(self, trio):
        g = build_graph(trio, criterion=Criterion.CI_OVERLAP)
        (edge,) = g.edges
        assert {edge.a, edge.b} == {"Peking University", "Zhejiang University"}
        assert edge.strong  # Peking's interval sits inside Zhejiang's

    def test_ci_criterion_requires_intervals(self):
        recs = [
            make_record(name="A", ci=(0.08, 0.13)),
            make_record(name="B"),
        ]
        with pytest.raises(MissingInterval, match="B"):
            build_graph(recs, criterion=Criterion.CI_OVERLAP)

    def test_empty_institution_is_named(self):
        recs = [make_record(name="Ghost U", p=0.0, pp=0.0), make_record(name="B")]
        with pytest.raises(EmptyInstitution, match="Ghost U"):
            build_graph(recs)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(23)
        recs = random_records(rng, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePoolWarning)
            g1 = build_graph(recs, threshold=1.96)
            g2 = build_graph(recs, threshold=2.576)
            g3 = build_graph(recs, threshold=3.29)
        e1 = {(e.a, e.b) for e in g1.edges}
        e2 = {(e.a, e.b) for e in g2.edges}
        e3 = {(e.a, e.b) for e in g3.edges}
        assert e1 <= e2 <= e3
        # components only merge as the threshold grows: the stricter
        # partition refines the looser one
        for fine_g, coarse_g in ((g1, g2), (g2, g3)):
            fine = weak_components(fine_g).assignment
            coarse = weak_components(coarse_g).assignment
            by_fine_group = {}
            for name, gid in fine.items():
                by_fine_group.setdefault(gid, set()).add(coarse[name])
            assert all(len(targets) == 1 for targets in by_fine_group.values())

    def test_input_order_invariance(self, trio):
        rng = np.random.default_rng(1)
        base_graph = build_graph(trio)
        base_groups = weak_components(base_graph).groups()
        base_tables = rank_groups(base_graph, weak_components(base_graph))
        for _ in range(5):
            shuffled = list(trio)
            rng.shuffle(shuffled)
            g = build_graph(shuffled)
            assert g == base_graph
            assert weak_components(g).groups() == base_groups
            assert rank_groups(g, weak_components(g)) == base_tables


class TestWeakComponents:
    def test_trio_example(self, trio):
        g = build_graph(trio)
        grouping = weak_components(g)
        assert grouping.groups() == (
            ("Peking University", "Zhejiang University"),
            ("Tsinghua University",),
        )
        assert isolate_names(g, grouping) == frozenset({"Tsinghua University"})

    def test_edgeless_graph_all_isolates(self):
        g = SignificanceGraph.from_scores([(f"n{i}", float(i)) for i in range(5)])
        grouping = weak_components(g)
        assert all(len(c) == 1 for c in grouping.groups())
        assert len(isolate_names(g, grouping)) == 5
        # isolates sort by descending z like every other group list
        assert grouping.groups() == (("n4",), ("n3",), ("n2",), ("n1",), ("n0",))

    def test_path_is_one_component(self):
        g = SignificanceGraph.from_scores(
            [("a", 1.0), ("b", 2.0), ("c", 3.0)], [("a", "b"), ("b", "c")]
        )
        grouping = weak_components(g)
        assert grouping.groups() == (("a", "b", "c"),)
        assert not isolate_names(g, grouping)

    def test_soundness_cross_component_pairs_significant(self):
        # any two institutions in different weak components differ at the threshold
        rng = np.random.default_rng(31)
        threshold = 2.576
        recs = random_records(rng, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePoolWarning)
            g = build_graph(recs, threshold=threshold)
        grouping = weak_components(g)
        by_name = {r.name: r for r in recs}
        for a, b in itertools.combinations(recs, 2):
            if grouping.assignment[a.name] != grouping.assignment[b.name]:
                assert abs(link_z(by_name[a.name], by_name[b.name])) >= threshold


class TestModularity:
    def test_complete_graph_single_group(self):
        names = [f"n{i}" for i in range(6)]
        g = SignificanceGraph.from_scores(
            [(n, 0.0) for n in names], itertools.combinations(names, 2)
        )
        single = Grouping(assignment={n: 0 for n in names})
        assert modularity(g, single) == pytest.approx(0.0, abs=1e-12)
        assert modularity(g, single, resolution=2.0) == pytest.approx(-1.0)

    def test_two_disjoint_cliques(self):
        g = clique_graph(4, 4, bridge=False)
        grouping = weak_components(g)
        assert modularity(g, grouping) == pytest.approx(0.5)

    def test_all_singletons_never_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(rng, max_nodes=20)
            singles = Grouping(assignment={n: i for i, n in enumerate(g.names)})
            assert modularity(g, singles) <= 1e-12

    def test_empty_graph_is_zero(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)])
        grouping = weak_components(g)
        assert modularity(g, grouping) == 0.0

    def test_uncovered_partition_rejected(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)])
        partial = Grouping(assignment={"a": 0})
        with pytest.raises(ValueError, match="cover"):
            modularity(g, partial)

    def test_partition_naming_a_missing_node_rejected(self):
        # the graph lacks "Z": both readers of a partition refuse it alike
        g = SignificanceGraph.from_scores([("A", 1.0), ("B", 2.0)], [("A", "B")])
        extra = Grouping(assignment={"A": 0, "B": 0, "Z": 1})
        for fn in (modularity, rank_groups):
            with pytest.raises(ValueError, match=r"^partition names nodes the graph "
                                                 r"lacks: \['Z'\]$"):
                fn(g, extra)


class TestCluster:
    def test_bridged_cliques_recovered(self):
        g = clique_graph(4, 4)
        grouping = cluster(g, seed=3)
        groups = set(grouping.groups())
        assert groups == {
            ("a0", "a1", "a2", "a3"),
            ("b0", "b1", "b2", "b3"),
        }

    def test_edgeless_graph_all_singletons(self):
        g = SignificanceGraph.from_scores([(f"n{i}", float(i)) for i in range(6)])
        grouping = cluster(g, seed=0)
        assert all(len(c) == 1 for c in grouping.groups())
        # no edge, so no node moves: the weak components, in their order
        assert_same_grouping(grouping, weak_components(g))

    def test_complete_graph_single_group(self):
        names = [f"n{i}" for i in range(7)]
        g = SignificanceGraph.from_scores(
            [(n, 0.0) for n in names], itertools.combinations(names, 2)
        )
        assert len(cluster(g, seed=0).groups()) == 1

    def test_never_worse_than_weak_components(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g = random_graph(rng, max_nodes=40)
            assert modularity(g, cluster(g, seed=5)) >= modularity(
                g, weak_components(g)
            ) - 1e-12

    def test_clusters_stay_inside_weak_components(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_graph(rng, max_nodes=30)
            weak = weak_components(g)
            fine = cluster(g, seed=2)
            for comp in fine.groups():
                assert len({weak.assignment[n] for n in comp}) == 1

    def test_isolates_stay_singletons(self):
        g = SignificanceGraph.from_scores(
            [("a", 1.0), ("b", 2.0), ("c", 3.0), ("lone", 9.0)],
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        grouping = cluster(g, seed=0)
        assert ("lone",) in grouping.groups()
        assert "lone" in isolate_names(g, grouping)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(47)
        g = random_graph(rng, max_nodes=50)
        first = cluster(g, seed=11)
        for _ in range(3):
            again = cluster(g, seed=11)
            assert again == first


def nx_modularity(g, grouping, resolution):
    """Modularity of the same partition as networkx computes it."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(g.names)
    G.add_edges_from(
        (g.names[i], g.names[j]) for i, j in zip(g.src.tolist(), g.dst.tolist())
    )
    communities = [set(members) for members in grouping.groups()]
    return nx.community.modularity(G, communities, resolution=resolution)


def partitions_of(g, rng):
    """Weak components, Louvain, all singletons and a random labelling of g."""
    names = g.names
    k = int(rng.integers(1, len(names) + 1))
    labels = {n: int(rng.integers(0, k)) for n in names}
    return [
        weak_components(g),
        cluster(g, seed=int(rng.integers(0, 100))),
        Grouping(assignment={n: i for i, n in enumerate(names)}),
        Grouping(assignment=labels),
    ]


class TestModularityOracle:
    """modularity() against networkx.algorithms.community.modularity."""

    def test_random_graphs(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, max_nodes=40)
            if not g.edge_count:
                continue  # networkx divides by the edge count
            for grouping in partitions_of(g, rng):
                for resolution in (0.5, 1.0, 2.0):
                    assert modularity(g, grouping, resolution) == pytest.approx(
                        nx_modularity(g, grouping, resolution), abs=1e-12
                    )
                    checked += 1
        assert checked > 300

    def test_published_tier_fixture(self):
        # the fixture carries node z only: join institutions whose z differ by under 1
        tiers = data.china_tiers()
        g = SignificanceGraph.from_scores(
            [(r.name, r.z) for r in tiers],
            [(a.name, b.name) for a, b in itertools.combinations(tiers, 2)
             if abs(a.z - b.z) < 1.0],
        )
        gid = {"top": 0, "middle": 1, "bottom": 2}
        published = Grouping(assignment={r.name: gid[r.tier] for r in tiers})
        for grouping in (published, *partitions_of(g, np.random.default_rng(59))):
            for resolution in (0.5, 1.0, 2.0):
                assert modularity(g, grouping, resolution) == pytest.approx(
                    nx_modularity(g, grouping, resolution), abs=1e-12
                )


@st.composite
def graphs(draw, max_nodes=24):
    """Small graphs with any edge density, named so that name order is index order."""
    n = draw(st.integers(1, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    ends = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends).filter(lambda p: p[0] < p[1]),
                         max_size=n * (n - 1) // 2))
    z = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return SignificanceGraph.from_scores(
        [(name, float(v)) for name, v in zip(names, z)],
        [(names[a], names[b]) for a, b in pairs],
    )


def louvain_of(g, seed):
    return dict(zip(g.names, _louvain(g, 1.0, seed)))


class TestLouvainInvariants:
    """The promises of _louvain and cluster over generated graphs."""

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_seed_determinism(self, g, seed):
        assert louvain_of(g, seed) == louvain_of(g, seed)
        assert cluster(g, seed=seed) == cluster(g, seed=seed)

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_clusters_inside_weak_components(self, g, seed):
        weak = weak_components(g).assignment
        clusters = {}
        for name, c in louvain_of(g, seed).items():
            clusters.setdefault(c, set()).add(weak[name])
        assert all(len(comps) == 1 for comps in clusters.values())

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1), st.sampled_from((0.5, 1.0, 2.0)))
    def test_never_below_weak_components(self, g, seed, resolution):
        fine = cluster(g, resolution=resolution, seed=seed)
        weak = weak_components(g)
        assert modularity(g, fine, resolution) >= modularity(g, weak, resolution) - 1e-12


def make_grouping(components, node_z, edgeless):
    """Name-keyed components into a Grouping, non-isolates by max z and
    isolates (one member, named in ``edgeless``) last: the reference for
    _grouping."""
    comps = [tuple(sorted(c)) for c in components]
    regular = [c for c in comps if not (len(c) == 1 and c[0] in edgeless)]
    singles = [c for c in comps if len(c) == 1 and c[0] in edgeless]

    def sort_key(comp):
        top = min(comp, key=lambda n: (-node_z[n], n))
        return (-node_z[top], top)

    ordered = sorted(regular, key=sort_key) + sorted(singles, key=sort_key)
    assignment = {}
    for gid, comp in enumerate(ordered):
        for name in comp:
            assignment[name] = gid
    return Grouping(assignment=assignment)


def dfs_components(g):
    """weak_components as a stack DFS over adjacency lists: the reference."""
    names = g.names
    index = {name: k for k, name in enumerate(names)}
    adjacency = [[] for _ in names]
    for e in g.edges:
        adjacency[index[e.a]].append(index[e.b])
        adjacency[index[e.b]].append(index[e.a])
    seen = [False] * len(names)
    components = []
    for start in range(len(names)):
        if seen[start]:
            continue
        stack = [start]
        comp = []
        seen[start] = True
        while stack:
            k = stack.pop()
            comp.append(names[k])
            for m in adjacency[k]:
                if not seen[m]:
                    seen[m] = True
                    stack.append(m)
        components.append(comp)
    edgeless = frozenset(name for k, name in enumerate(names) if not adjacency[k])
    return make_grouping(components, dict(zip(g.names, g.node_z.tolist())), edgeless)


@st.composite
def component_graphs(draw, max_nodes=60):
    """Graphs with planted components: each one a path through its members in
    a shuffled order, plus random chords inside it; singletons are isolates."""
    n = draw(st.integers(0, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    comp = draw(st.lists(st.integers(0, draw(st.integers(0, n))), min_size=n, max_size=n))
    edges, last = set(), {}
    for v in draw(st.permutations(range(n))):
        if comp[v] in last:
            edges.add((min(last[comp[v]], v), max(last[comp[v]], v)))
        last[comp[v]] = v
    ends = st.integers(0, max(0, n - 1))
    chords = draw(st.sets(st.tuples(ends, ends), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in chords if a != b and comp[a] == comp[b]}
    z = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return SignificanceGraph.from_scores(
        [(name, float(v)) for name, v in zip(names, z)],
        [(names[a], names[b]) for a, b in edges],
    )


def shuffled_path(n, seed):
    """A path through n nodes visited in a random name order."""
    order = np.random.default_rng(seed).permutation(n).tolist()
    names = [f"v{i:05d}" for i in range(n)]
    return SignificanceGraph.from_scores(
        [(name, float(i % 7)) for i, name in enumerate(names)],
        [(names[a], names[b]) for a, b in zip(order, order[1:])],
    )


def assert_same_grouping(got, want):
    assert got == want
    assert list(got.assignment) == list(want.assignment)


class TestWeakComponentsOracle:
    """weak_components against the stack DFS it replaced, and networkx."""

    @settings(max_examples=300, deadline=None)
    @given(component_graphs())
    def test_planted_components(self, g):
        grouping = weak_components(g)
        assert_same_grouping(grouping, dfs_components(g))
        assert_isolate_tables(g, grouping, name_degree(g))

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        grouping = weak_components(g)
        assert_same_grouping(grouping, dfs_components(g))
        assert_isolate_tables(g, grouping, name_degree(g))

    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 0), (2, 1), (2000, 2), (2000, 3)])
    def test_long_shuffled_path(self, n, seed):
        g = shuffled_path(n, seed)
        grouping = weak_components(g)
        assert_same_grouping(grouping, dfs_components(g))
        assert_isolate_tables(g, grouping, name_degree(g))
        assert len(grouping.groups()) == (1 if n else 0)

    def test_networkx_connected_components(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(67)
        for _ in range(30):
            g = random_graph(rng, max_nodes=80)
            G = nx.Graph()
            G.add_nodes_from(g.names)
            G.add_edges_from((g.names[i], g.names[j])
                             for i, j in zip(g.src.tolist(), g.dst.tolist()))
            grouping = weak_components(g)
            assert set(grouping.groups()) == {
                tuple(sorted(c)) for c in nx.connected_components(G)
            }
            assert isolate_names(g, grouping) == frozenset(n for n, d in G.degree if d == 0)
            assert_isolate_tables(g, grouping, dict(G.degree))


@st.composite
def labelled_graphs(draw, max_nodes=30):
    """A graph and any label per node: a label may split a component, span
    two, or hold degree-0 nodes with others; z values tie often, and include
    signed zeros and infinities, which from_scores keeps."""
    n = draw(st.integers(0, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    ends = st.integers(0, max(0, n - 1))
    pairs = draw(st.sets(st.tuples(ends, ends).filter(lambda p: p[0] < p[1]), max_size=n))
    zs = st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 2.5, math.inf, -math.inf)),
                   st.floats(allow_nan=False, allow_infinity=False))
    z = draw(st.lists(zs, min_size=n, max_size=n))
    label = draw(st.lists(st.integers(-2, draw(st.integers(0, n))), min_size=n, max_size=n))
    g = SignificanceGraph.from_scores(
        list(zip(names, z)), [(names[a], names[b]) for a, b in pairs])
    return g, label


class TestGroupingBuilder:
    """_grouping over node labels against the name-keyed reference."""

    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs())
    def test_any_labels(self, graph_and_label):
        g, label = graph_and_label
        comps = {}
        for name, c in zip(g.names, label):
            comps.setdefault(c, []).append(name)
        degree = name_degree(g)
        edgeless = frozenset(name for name, d in degree.items() if not d)
        grouping = _grouping(g, label)
        assert_same_grouping(grouping,
                             make_grouping(comps.values(), dict(zip(g.names, g.node_z.tolist())), edgeless))
        assert_isolate_tables(g, grouping, degree)


class TestResolution:
    GRAPHS = {"cliques": clique_graph(3, 4), "edgeless": SignificanceGraph.from_scores(
        [("a", 1.0), ("b", 2.0)])}

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_invalid_resolution_raises(self, graph, resolution):
        g = self.GRAPHS[graph]
        message = rf"^resolution must be a finite number >= 0 \(got {resolution!r}\)$"
        with pytest.raises(InvalidStatistic, match=message):
            cluster(g, resolution)
        with pytest.raises(InvalidStatistic, match=message):
            modularity(g, weak_components(g), resolution)


def name_louvain(adj, resolution, seed):
    """_louvain as it ran on a name-keyed adjacency dict: the reference.

    ``adj`` maps each name to {neighbour name: weight}; the result maps each
    name to its community id.
    """
    rng = random.Random(seed)
    names = sorted(adj)
    level_nodes = [(n,) for n in names]
    graph = {i: {} for i in range(len(names))}
    index = {n: i for i, n in enumerate(names)}
    for a, nbrs in adj.items():
        for b, w in nbrs.items():
            if a != b:
                graph[index[a]][index[b]] = w

    while True:
        ids = sorted(graph)
        degree = {}
        for i in ids:
            d = 0.0
            for j, w in graph[i].items():
                d += 2.0 * w if j == i else w
            degree[i] = d
        two_m = math.fsum(degree.values())
        if two_m == 0:
            break

        comm = {i: i for i in ids}
        comm_tot = dict(degree)
        order = list(ids)
        rng.shuffle(order)

        moved_any = False
        improved = True
        while improved:
            improved = False
            for i in order:
                old = comm[i]
                k_i = degree[i]
                comm_tot[old] -= k_i
                links = {}
                for j, w in graph[i].items():
                    if j != i:
                        links[comm[j]] = links.get(comm[j], 0.0) + w

                def score(c):
                    return links.get(c, 0.0) - resolution * k_i * comm_tot[c] / two_m

                best, best_score = old, score(old)
                for c in sorted(links):
                    sc = score(c)
                    if sc > best_score + 1e-12 * two_m / 2.0:
                        best, best_score = c, sc
                comm[i] = best
                comm_tot[best] += k_i
                if best != old:
                    improved = True
                    moved_any = True

        if not moved_any:
            break

        new_ids = {}
        for i in ids:
            new_ids.setdefault(comm[i], len(new_ids))
        next_nodes = [[] for _ in range(len(new_ids))]
        for i in ids:
            next_nodes[new_ids[comm[i]]].extend(level_nodes[i])
        next_graph = {c: {} for c in range(len(new_ids))}
        for i in ids:
            ci = new_ids[comm[i]]
            for j, w in graph[i].items():
                cj = new_ids[comm[j]]
                if i == j:
                    next_graph[ci][ci] = next_graph[ci].get(ci, 0.0) + w
                elif i < j:
                    if ci == cj:
                        next_graph[ci][ci] = next_graph[ci].get(ci, 0.0) + w
                    else:
                        next_graph[ci][cj] = next_graph[ci].get(cj, 0.0) + w
                        next_graph[cj][ci] = next_graph[cj].get(ci, 0.0) + w

        level_nodes = [tuple(sorted(ns)) for ns in next_nodes]
        graph = next_graph

    out = {}
    for c, members in enumerate(level_nodes):
        for n in members:
            out[n] = c
    return out


def name_adjacency(g):
    """Name -> {neighbour name: 1.0}, each in ascending name order."""
    adj = {name: {} for name in g.names}
    for e in g.edges:
        adj[e.a][e.b] = 1.0
        adj[e.b][e.a] = 1.0
    return adj


def name_cluster(g, resolution, seed):
    """cluster as it ran on the name-keyed adjacency: the reference."""
    if not g.edge_count:
        return weak_components(g)
    adj = name_adjacency(g)
    comps = {}
    for n, c in name_louvain(adj, resolution, seed).items():
        comps.setdefault(c, []).append(n)
    edgeless = frozenset(n for n, ns in adj.items() if not ns)
    louvain_grouping = make_grouping(comps.values(), dict(zip(g.names, g.node_z.tolist())), edgeless)
    weak = weak_components(g)
    if modularity(g, louvain_grouping, resolution) >= modularity(g, weak, resolution):
        return louvain_grouping
    return weak


def seeded_edition(seed, n):
    """n institutions with 95% stability intervals, shares spread like an edition."""
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n):
        p = float(rng.uniform(500, 40000))
        pp = float(np.clip(rng.normal(0.12, 0.03), 0.03, 0.3))
        half = 1.96 * math.sqrt(pp * (1 - pp) / p)
        records.append(make_record(name=f"Univ {k:03d}", p=p, pp=pp,
                                   ci=(max(0.0, pp - half), min(1.0, pp + half))))
    return records


class TestLouvainOracle:
    """_louvain and cluster on node indices against the name-keyed reference."""

    def check(self, g, resolution, seed):
        want = name_louvain(name_adjacency(g), resolution, seed)
        assert dict(zip(g.names, _louvain(g, resolution, seed))) == want
        grouping = cluster(g, resolution, seed)
        assert_same_grouping(grouping, name_cluster(g, resolution, seed))
        assert_isolate_tables(g, grouping, name_degree(g))

    @settings(max_examples=300, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1), st.sampled_from((0.5, 1.0, 2.0)))
    def test_generated_graphs(self, g, seed, resolution):
        self.check(g, resolution, seed)

    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
    def test_seeded_edition(self, criterion, resolution):
        g = build_graph(seeded_edition(11, 300), criterion=criterion)
        self.check(g, resolution, seed=7)
        assert len(cluster(g, resolution, seed=7).groups()) > len(weak_components(g).groups())


class TestRankGroups:
    def test_single_node(self):
        g = SignificanceGraph.from_scores([("only", 4.2)])
        (t,) = rank_groups(g, weak_components(g))
        assert t.rows[0].overall_rank == 1
        assert t.rows[0].within_group_rank == 1

    def test_tie_breaks_by_name(self):
        g = SignificanceGraph.from_scores(
            [("Beta U", 1.0), ("Alpha U", 1.0)], [("Alpha U", "Beta U")]
        )
        (t,) = rank_groups(g, weak_components(g))
        assert [r.name for r in t.rows] == ["Alpha U", "Beta U"]
        assert [r.overall_rank for r in t.rows] == [1, 2]

    def test_overall_ranks_dense_across_groups(self, trio):
        g = build_graph(trio)
        tables = rank_groups(g, weak_components(g))
        ranks = sorted(r.overall_rank for t in tables for r in t.rows)
        assert ranks == [1, 2, 3]

    def test_tiers_by_max_z_isolates_last(self):
        g = SignificanceGraph.from_scores(
            [("a", 5.0), ("b", 1.0), ("c", 0.5), ("big lone", 9.0)],
            [("a", "b"), ("b", "c")],
        )
        tables = rank_groups(g, weak_components(g))
        # the isolate has the highest z but still lists after the regular group
        assert [t.isolate for t in tables] == [False, True]
        assert tables[0].rows[0].name == "a"
        assert tables[1].rows[0].name == "big lone"
        assert tables[1].rows[0].overall_rank == 1

    def test_isolates_come_from_the_graph(self):
        # A-B plus a lone C: a tier is an isolate only when its one member
        # has no edge, whatever the partition; the one field is the assignment
        assert [f.name for f in dataclasses.fields(Grouping)] == ["assignment"]
        g = SignificanceGraph.from_scores([("A", 2.0), ("B", 1.0), ("C", 3.0)], [("A", "B")])
        apart = rank_groups(g, Grouping({"A": 0, "B": 1, "C": 2}))
        assert [(t.rows[0].name, t.isolate) for t in apart] == [
            ("A", False), ("B", False), ("C", True)]
        joined = rank_groups(g, Grouping({"A": 0, "B": 0, "C": 1}))
        assert [([r.name for r in t.rows], t.isolate) for t in joined] == [
            (["A", "B"], False), (["C"], True)]


@st.composite
def groupings(draw):
    """Any assignment: ids may repeat and skip values."""
    names = draw(st.lists(st.text(min_size=1, max_size=3), max_size=20, unique=True))
    ids = st.integers(0, 6)
    return Grouping(assignment={name: draw(ids) for name in names})


def scan_members(grouping, gid):
    """The names assigned ``gid``, in name order, from a scan of the assignment."""
    return tuple(sorted(n for n, c in grouping.assignment.items() if c == gid))


def members_rank_groups(g, grouping):
    """rank_groups with one assignment scan per group id, tables numbered by
    position in ascending id order, a table an isolate when its one member
    has no edge: the reference."""
    degree = name_degree(g)
    zmap = dict(zip(g.names, g.node_z.tolist()))
    order = sorted(zmap, key=lambda n: (-zmap[n], n))
    overall = {name: i + 1 for i, name in enumerate(order)}
    tables = []
    for position, gid in enumerate(sorted(set(grouping.assignment.values()))):
        members = sorted(scan_members(grouping, gid), key=lambda n: (-zmap[n], n))
        rows = tuple(RankedRow(n, zmap[n], overall[n], i + 1) for i, n in enumerate(members))
        isolate = len(members) == 1 and degree[members[0]] == 0
        tables.append(GroupTable(group=position, isolate=isolate, rows=rows))
    return tuple(tables)


class TestGroupsOnePass:
    """Grouping.groups() and rank_groups read the assignment once."""

    @settings(max_examples=300, deadline=None)
    @given(groupings())
    def test_groups_equal_members(self, grouping):
        ids = sorted(set(grouping.assignment.values()))
        assert grouping.groups() == tuple(scan_members(grouping, gid) for gid in ids)

    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs())
    def test_rank_groups_any_labels(self, graph_and_label):
        g, label = graph_and_label
        grouping = Grouping(dict(zip(g.names, label)))
        assert rank_groups(g, grouping) == members_rank_groups(g, grouping)

    def test_rank_groups_many_groups(self):
        rng = np.random.default_rng(3)
        names = [f"n{i:04d}" for i in range(3000)]
        # every node but names[::60] gets one edge, so singleton tiers with
        # and without an edge both occur
        paired = [n for i, n in enumerate(names) if i % 60]
        g = SignificanceGraph.from_scores([(n, float(rng.integers(-20, 20))) for n in names],
                                          zip(paired[::2], paired[1::2]))
        grouping = Grouping(
            {n: int(c) for n, c in zip(names, rng.integers(0, 2000, size=3000))})
        tables = rank_groups(g, grouping)
        assert tables == members_rank_groups(g, grouping)
        assert sum(len(t.rows) for t in tables) == 3000
        singles = [t.isolate for t in tables if len(t.rows) == 1]
        assert any(singles) and not all(singles)
