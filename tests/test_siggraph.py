import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksig import data
from ranksig.errors import DegeneratePoolWarning, EmptyInstitution, MissingInterval
from ranksig.siggraph import (
    Criterion,
    GraphEdge,
    GraphNode,
    Grouping,
    SignificanceGraph,
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
    ], ids=["self-edge", "missing node", "duplicate", "reversed duplicate"])
    def test_bad_edges_rejected(self, edges, message):
        nodes = [GraphNode(n, 0.0) for n in "abc"]
        with pytest.raises(ValueError, match=message):
            SignificanceGraph(nodes, [GraphEdge(a, b, 1.0) for a, b in edges])
        with pytest.raises(ValueError, match=message):
            SignificanceGraph.from_scores([(n.name, n.z) for n in nodes], edges)

    def test_edges_are_canonical_and_lazy(self):
        g = SignificanceGraph.from_scores(
            [("c", 3.0), ("a", 1.0), ("b", 2.0)], [("c", "a", -1.5), ("b", "a", 0.5)]
        )
        assert [(e.a, e.b, e.z) for e in g.edges] == [("a", "b", 0.5), ("a", "c", -1.5)]
        assert (g.src.tolist(), g.dst.tolist(), g.edge_count) == ([0, 0], [1, 2], 2)
        built = build_graph([make_record(name=n, pp=0.1) for n in "cab"])
        assert built.edges is built.edges
        assert built == SignificanceGraph(built.nodes, built.edges)

    def test_graph_is_immutable(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)], [("a", "b")])
        with pytest.raises(AttributeError):
            g.nodes = ()
        with pytest.raises(ValueError):
            g.z[0] = 5.0


class TestBuildGraph:
    def test_trio_topology(self, trio):
        g = build_graph(trio, criterion=Criterion.Z_TEST, threshold=2.576)
        assert [(e.a, e.b) for e in g.edges] == [
            ("Peking University", "Zhejiang University")
        ]
        assert abs(g.edges[0].z) < 2.576

    def test_single_record(self):
        g = build_graph([make_record(name="Solo U")])
        assert len(g.nodes) == 1 and g.edges == ()

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
        assert edge.relation is not None

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
        grouping = weak_components(build_graph(trio))
        assert grouping.groups() == (
            ("Peking University", "Zhejiang University"),
            ("Tsinghua University",),
        )
        assert grouping.isolates == frozenset({"Tsinghua University"})

    def test_edgeless_graph_all_isolates(self):
        g = SignificanceGraph.from_scores([(f"n{i}", float(i)) for i in range(5)])
        grouping = weak_components(g)
        assert all(len(c) == 1 for c in grouping.groups())
        assert len(grouping.isolates) == 5
        # isolates sort by descending z like every other group list
        assert grouping.groups() == (("n4",), ("n3",), ("n2",), ("n1",), ("n0",))

    def test_path_is_one_component(self):
        g = SignificanceGraph.from_scores(
            [("a", 1.0), ("b", 2.0), ("c", 3.0)], [("a", "b"), ("b", "c")]
        )
        grouping = weak_components(g)
        assert grouping.groups() == (("a", "b", "c"),)
        assert not grouping.isolates

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
        single = Grouping(
            assignment={n: 0 for n in names}, group_order=(0,), isolates=frozenset()
        )
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
            singles = Grouping(
                assignment={n: i for i, n in enumerate(g.names)},
                group_order=tuple(range(len(g.names))),
                isolates=frozenset(),
            )
            assert modularity(g, singles) <= 1e-12

    def test_empty_graph_is_zero(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)])
        grouping = weak_components(g)
        assert modularity(g, grouping) == 0.0

    def test_uncovered_partition_rejected(self):
        g = SignificanceGraph.from_scores([("a", 1.0), ("b", 2.0)])
        partial = Grouping(assignment={"a": 0}, group_order=(0,), isolates=frozenset())
        with pytest.raises(ValueError, match="cover"):
            modularity(g, partial)


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
        assert "lone" in grouping.isolates

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(47)
        g = random_graph(rng, max_nodes=50)
        first = cluster(g, seed=11)
        for _ in range(3):
            again = cluster(g, seed=11)
            assert again.assignment == first.assignment
            assert again.group_order == first.group_order


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
        Grouping(
            assignment={n: i for i, n in enumerate(names)},
            group_order=tuple(range(len(names))),
        ),
        Grouping(assignment=labels, group_order=tuple(sorted(set(labels.values())))),
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
        published = Grouping(
            assignment={r.name: gid[r.tier] for r in tiers}, group_order=(0, 1, 2)
        )
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
    adj = {n: dict.fromkeys(nbrs, 1.0) for n, nbrs in g.neighbors().items()}
    return _louvain(adj, 1.0, seed)


class TestLouvainInvariants:
    """The promises of _louvain and cluster over generated graphs."""

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_seed_determinism(self, g, seed):
        assert louvain_of(g, seed) == louvain_of(g, seed)
        first, again = cluster(g, seed=seed), cluster(g, seed=seed)
        assert again.assignment == first.assignment
        assert again.group_order == first.group_order

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

    def test_group_order_by_max_z_isolates_last(self):
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
