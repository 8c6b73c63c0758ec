import itertools
import math
import random
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
    GroupTable,
    Grouping,
    RankedRow,
    SignificanceGraph,
    _louvain,
    _make_grouping,
    build_graph,
    cluster,
    modularity,
    rank_groups,
    weak_components,
)
from ranksig.stats import Direction, ci_relation, link_z

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

    def test_reversed_edges_state_the_same_relations(self):
        intervals = {"A": (0.08, 0.13), "B": (0.09, 0.125), "C": (0.07, 0.14),
                     "D": (0.11, 0.15), "E": (0.08, 0.13)}
        records = [make_record(name=n, ci=iv) for n, iv in intervals.items()]
        g = build_graph(records, criterion=Criterion.CI_OVERLAP)
        assert {e.relation.direction for e in g.edges} >= {
            Direction.A_IN_B, Direction.B_IN_A, Direction.MUTUAL}
        flipped = [
            GraphEdge(e.b, e.a, e.z, ci_relation(intervals[e.b], intervals[e.a]), e.strong)
            for e in g.edges
        ]
        assert SignificanceGraph(g.nodes, flipped) == g

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
    return dict(zip(g.names, _louvain(g, 1.0, seed)))


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
    isolates = frozenset(name for k, name in enumerate(names) if not adjacency[k])
    return _make_grouping(components, g.node_z, isolates)


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
        assert_same_grouping(weak_components(g), dfs_components(g))

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        assert_same_grouping(weak_components(g), dfs_components(g))

    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 0), (2, 1), (2000, 2), (2000, 3)])
    def test_long_shuffled_path(self, n, seed):
        g = shuffled_path(n, seed)
        grouping = weak_components(g)
        assert_same_grouping(grouping, dfs_components(g))
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
            assert grouping.isolates == frozenset(n for n, d in G.degree if d == 0)


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
    isolates = frozenset(n for n, ns in adj.items() if not ns)
    louvain_grouping = _make_grouping(comps.values(), g.node_z, isolates)
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
        assert_same_grouping(cluster(g, resolution, seed), name_cluster(g, resolution, seed))

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


@st.composite
def groupings(draw):
    """Any assignment and group_order: ids may repeat, be missing or name no member."""
    names = draw(st.lists(st.text(min_size=1, max_size=3), max_size=20, unique=True))
    ids = st.integers(0, 6)
    return Grouping(
        assignment={name: draw(ids) for name in names},
        group_order=tuple(draw(st.lists(ids, max_size=10))),
        isolates=frozenset(draw(st.sets(st.sampled_from(names)))) if names else frozenset(),
    )


def members_rank_groups(g, grouping):
    """rank_groups with one members() scan per group: the reference."""
    zmap = g.node_z
    order = sorted(zmap, key=lambda n: (-zmap[n], n))
    overall = {name: i + 1 for i, name in enumerate(order)}
    tables = []
    for gid in grouping.group_order:
        members = sorted(grouping.members(gid), key=lambda n: (-zmap[n], n))
        rows = tuple(RankedRow(n, zmap[n], overall[n], i + 1) for i, n in enumerate(members))
        isolate = len(members) == 1 and members[0] in grouping.isolates
        tables.append(GroupTable(group=gid, isolate=isolate, rows=rows))
    return tuple(tables)


class TestGroupsOnePass:
    """Grouping.groups() and rank_groups read the assignment once."""

    @settings(max_examples=300, deadline=None)
    @given(groupings())
    def test_groups_equal_members(self, grouping):
        assert grouping.groups() == tuple(grouping.members(g) for g in grouping.group_order)

    def test_rank_groups_many_groups(self):
        rng = np.random.default_rng(3)
        names = [f"n{i:04d}" for i in range(3000)]
        g = SignificanceGraph.from_scores([(n, float(rng.integers(-20, 20))) for n in names])
        grouping = Grouping(
            assignment={n: int(c) for n, c in zip(names, rng.integers(0, 2000, size=3000))},
            group_order=tuple(rng.permutation(2000).tolist()),
            isolates=frozenset(names[::60]),
        )
        tables = rank_groups(g, grouping)
        assert tables == members_rank_groups(g, grouping)
        assert sum(len(t.rows) for t in tables) == 3000
