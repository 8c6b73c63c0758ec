"""Significance graphs and tier grouping.

Institutions become nodes weighted by their z against the 10% reference
expectation; an edge joins two institutions whose indicator values are
statistically indistinguishable, either because their pairwise |z| falls
below a threshold or because their stability intervals overlap. Weak
components of that graph are performance tiers; a modularity-based
clustering is available as a finer alternative. Interval containment is
kept as a ``strong`` edge attribute rather than a directed arc.

Everything here is deterministic: node and edge order are canonical
(sorted by name), and the clustering uses a seeded node order, so results
do not depend on input order or evaluation order.

Edges are numpy arrays. Only the commands that build a graph (``group``,
``compare`` and ``export``) import this module, so ``import ranksig`` and
the other commands start without numpy's import cost.
"""

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DuplicateRecord, InvalidStatistic, MissingInterval
from .ingest import InstitutionRecord
from .stats import (
    Direction,
    IntervalRelation,
    RelationKind,
    Z_P01,
    ci_relation,  # noqa: F401  the scalar form of build_graph's interval pass
    link_z,
    z_vs_expectation,
)

__all__ = [
    "Criterion", "GraphNode", "GraphEdge", "SignificanceGraph",
    "Grouping", "RankedRow", "GroupTable",
    "build_graph", "weak_components", "modularity", "cluster", "rank_groups",
]

# Smallest modularity improvement worth a move; also the convergence cutoff.
_GAIN_EPS = 1e-12


class Criterion(enum.Enum):
    """How indistinguishability is decided when building the graph."""

    Z_TEST = "ztest"
    CI_OVERLAP = "ci"


@dataclass(frozen=True)
class GraphNode:
    name: str
    z: float


@dataclass(frozen=True)
class GraphEdge:
    """Undirected edge; endpoints are stored in ascending name order."""

    a: str
    b: str
    z: float
    relation: Optional[IntervalRelation] = None
    strong: bool = False


# Relation code of an edge -> GraphEdge.relation. Code 0 is "no relation"
# (z-criterion edges); codes 1-4 are what the interval criterion produces.
_RELATIONS = (
    None,
    IntervalRelation(RelationKind.OVERLAP),
    IntervalRelation(RelationKind.CONTAINMENT, Direction.A_IN_B),
    IntervalRelation(RelationKind.CONTAINMENT, Direction.B_IN_A),
    IntervalRelation(RelationKind.CONTAINMENT, Direction.MUTUAL),
    IntervalRelation(RelationKind.DISJOINT),
)
_RELATION_CODE = {rel: code for code, rel in enumerate(_RELATIONS)}
# A containment direction read from the other endpoint
_REVERSED = {_RELATIONS[2]: _RELATIONS[3], _RELATIONS[3]: _RELATIONS[2]}


def _frozen(a):
    a.flags.writeable = False
    return a


class SignificanceGraph:
    """Undirected graph of institutions with z node weights.

    Nodes are sorted by name and edges by endpoint pair, so two graphs over
    the same data compare equal regardless of construction order.

    Edges are stored as parallel arrays in that canonical order: ``src``
    and ``dst`` index into ``nodes`` (``src < dst``), ``z`` holds the pair
    z, ``strong`` the containment flag and ``relation`` a code for the
    interval relation (0 when there is none). ``edges`` is the same edge
    list as a tuple of GraphEdge, built on first use. Graphs are
    immutable.
    """

    def __init__(self, nodes: Iterable[GraphNode], edges: Iterable[GraphEdge]):
        nodes = tuple(sorted(nodes, key=lambda n: n.name))
        index = {n.name: i for i, n in enumerate(nodes)}
        if len(index) != len(nodes):
            raise DuplicateRecord("graph nodes must have unique names")
        canonical = []
        seen = set()
        for e in edges:
            if e.a == e.b:
                raise ValueError(f"self-edge on {e.a!r}")
            if e.a not in index or e.b not in index:
                raise ValueError(f"edge ({e.a!r}, {e.b!r}) references a missing node")
            if e.a > e.b:
                e = GraphEdge(e.b, e.a, e.z, _REVERSED.get(e.relation, e.relation), e.strong)
            if (e.a, e.b) in seen:
                raise ValueError(f"duplicate edge ({e.a!r}, {e.b!r})")
            if e.relation not in _RELATION_CODE:
                raise ValueError(f"edge ({e.a!r}, {e.b!r}) has an unknown relation")
            seen.add((e.a, e.b))
            canonical.append(e)
        canonical.sort(key=lambda e: (e.a, e.b))
        self._set(
            nodes,
            np.array([index[e.a] for e in canonical], dtype=np.intp),
            np.array([index[e.b] for e in canonical], dtype=np.intp),
            np.array([e.z for e in canonical], dtype=np.float64),
            np.array([bool(e.strong) for e in canonical], dtype=bool),
            np.array([_RELATION_CODE[e.relation] for e in canonical], dtype=np.int8),
        )
        object.__setattr__(self, "_edges", tuple(canonical))

    @classmethod
    def _from_arrays(cls, nodes, src, dst, z, strong, relation) -> "SignificanceGraph":
        """A graph from nodes sorted by name and edge arrays in canonical order.

        Nothing is checked: the caller guarantees ``src < dst``, unique
        pairs, and row-major (src, dst) order.
        """
        g = cls.__new__(cls)
        g._set(nodes, src, dst, z, strong, relation)
        return g

    def _set(self, nodes, src, dst, z, strong, relation) -> None:
        fields = {
            "nodes": nodes,
            "names": tuple(n.name for n in nodes),
            "src": _frozen(src),
            "dst": _frozen(dst),
            "z": _frozen(z),
            "strong": _frozen(strong),
            "relation": _frozen(relation),
            "_edges": None,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SignificanceGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SignificanceGraph is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.strong, other.strong)
            and np.array_equal(self.relation, other.relation)
        )

    def __hash__(self):
        return hash((self.nodes, self.edge_count))

    def __repr__(self):
        return f"SignificanceGraph({len(self.nodes)} nodes, {self.edge_count} edges)"

    @classmethod
    def from_scores(
        cls,
        scores: Iterable[Tuple[str, float]],
        edges: Iterable = (),
    ) -> "SignificanceGraph":
        """Build a graph directly from (name, z) pairs.

        ``edges`` items may be (a, b) pairs, (a, b, z) triples, or GraphEdge
        instances. Useful for feeding externally computed z tables.
        """
        nodes = tuple(GraphNode(name, float(z)) for name, z in scores)
        built = []
        for item in edges:
            if isinstance(item, GraphEdge):
                built.append(item)
            elif len(item) == 2:
                built.append(GraphEdge(item[0], item[1], 0.0))
            else:
                built.append(GraphEdge(item[0], item[1], float(item[2])))
        return cls(nodes=nodes, edges=tuple(built))

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> Tuple[GraphEdge, ...]:
        if self._edges is None:
            names = self.names
            edges = tuple(
                GraphEdge(names[i], names[j], z, _RELATIONS[code], strong)
                for i, j, z, strong, code in zip(
                    self.src.tolist(), self.dst.tolist(), self.z.tolist(),
                    self.strong.tolist(), self.relation.tolist(),
                )
            )
            object.__setattr__(self, "_edges", edges)
        return self._edges

    @property
    def node_z(self) -> Dict[str, float]:
        return {n.name: n.z for n in self.nodes}


@dataclass(frozen=True)
class Grouping:
    """A partition of the node set into ordered tiers.

    ``group_order`` lists group ids from the strongest tier down (by the
    maximum node z inside each group); isolate singletons come last.
    """

    assignment: Dict[str, int]
    group_order: Tuple[int, ...]
    isolates: frozenset = field(default_factory=frozenset)

    def members(self, group_id: int) -> Tuple[str, ...]:
        return tuple(sorted(n for n, g in self.assignment.items() if g == group_id))

    def groups(self) -> Tuple[Tuple[str, ...], ...]:
        """``members(g)`` for each g in ``group_order``, from one pass over the assignment."""
        buckets: Dict[int, List[str]] = {g: [] for g in self.group_order}
        for name, g in self.assignment.items():
            if g in buckets:
                buckets[g].append(name)
        return tuple(tuple(sorted(buckets[g])) for g in self.group_order)


@dataclass(frozen=True)
class RankedRow:
    name: str
    z: float
    overall_rank: int
    within_group_rank: int


@dataclass(frozen=True)
class GroupTable:
    group: int
    isolate: bool
    rows: Tuple[RankedRow, ...]


# Pair cells computed per row block of the pair pass; bounds its
# temporaries to a few MiB whatever the edition size.
_BLOCK_CELLS = 1 << 18


def build_graph(
    records: Sequence[InstitutionRecord],
    criterion: Criterion = Criterion.Z_TEST,
    threshold: float = Z_P01,
    proportions: str = "stored",
) -> SignificanceGraph:
    """Connect institutions that are not significantly different.

    Under the z criterion an edge joins a and b when |z(a, b)| is below
    ``threshold``. Under the interval criterion an edge exists when the
    stability intervals overlap or one contains the other; containment sets
    the ``strong`` flag and every record must carry interval bounds. Node
    weights are always the z against the 10% expectation.

    Every pair is tested in one vectorised pass, in row blocks of the
    name-ordered pair matrix, with the operation order of ``link_z``, so
    each z is bit-equal to the scalar value. Pairs the scalar test treats
    specially (pooled proportion 0 or 1, zero or non-finite intermediates)
    go through ``link_z`` itself, in name order: it warns and returns 0
    or raises DegeneratePool exactly as a pair-by-pair loop would.
    """
    recs = sorted(records, key=lambda r: r.name)
    if len({r.name for r in recs}) != len(recs):
        raise DuplicateRecord("records passed to build_graph must have unique names")
    nodes = tuple(GraphNode(r.name, z_vs_expectation(r)) for r in recs)

    if criterion is Criterion.CI_OVERLAP:
        for r in recs:
            if not r.has_interval:
                raise MissingInterval(f"{r.name}: record has no stability interval")

    n = len(recs)
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0),
              np.empty(0, np.int8))]
    if n > 1:
        if proportions not in ("stored", "exact"):
            raise InvalidStatistic(f"unknown proportion mode {proportions!r}")
        t = np.array([r.t_top10 for r in recs], dtype=np.float64)
        p = np.array([r.p for r in recs], dtype=np.float64)
        inv_p = 1.0 / p
        if proportions == "exact":
            share = t / p
        else:
            share = np.array([r.pp_top10 for r in recs], dtype=np.float64)
        if criterion is Criterion.CI_OVERLAP:
            lo = np.array([r.ci_lower for r in recs], dtype=np.float64)
            hi = np.array([r.ci_upper for r in recs], dtype=np.float64)
        rows = max(1, _BLOCK_CELLS // n)
        # block rows i0..i1-1 against columns i0+1..n-1; keep cells with j > i
        for i0 in range(0, n - 1, rows):
            i1 = min(i0 + rows, n - 1)
            a, b = slice(i0, i1), slice(i0 + 1, n)
            upper = np.arange(n - i0 - 1)[None, :] >= np.arange(i1 - i0)[:, None]
            with np.errstate(all="ignore"):
                pooled = (t[a, None] + t[None, b]) / (p[a, None] + p[None, b])
                se = np.sqrt(pooled * (1.0 - pooled) * (inv_p[a, None] + inv_p[None, b]))
                z = (share[a, None] - share[None, b]) / se
                regular = (pooled > 0) & (pooled < 1) & (se > 0) & np.isfinite(z)
            for r, c in zip(*np.nonzero(upper & ~regular)):
                z[r, c] = link_z(recs[i0 + r], recs[i0 + 1 + c], proportions)
            if criterion is Criterion.Z_TEST:
                keep = upper & (np.abs(z) < threshold)
                code = np.zeros(z.shape, dtype=np.int8)
            else:
                a_lo, a_hi, b_lo, b_hi = lo[a, None], hi[a, None], lo[None, b], hi[None, b]
                keep = upper & ~((a_hi < b_lo) | (b_hi < a_lo))
                a_in_b = (b_lo <= a_lo) & (a_hi <= b_hi)
                b_in_a = (a_lo <= b_lo) & (b_hi <= a_hi)
                # 1 overlap, 2 a in b, 3 b in a, 4 mutual: indices into _RELATIONS
                code = (1 + a_in_b + 2 * b_in_a).astype(np.int8)
            r, c = np.nonzero(keep)
            parts.append((r + i0, c + (i0 + 1), z[r, c], code[r, c]))

    src, dst, z, relation = (np.concatenate(col) for col in zip(*parts))
    return SignificanceGraph._from_arrays(nodes, src, dst, z, relation >= 2, relation)


def _make_grouping(
    components: Iterable[Iterable[str]],
    node_z: Mapping[str, float],
    isolates: frozenset,
) -> Grouping:
    """Order components into a Grouping: non-isolates by max z, isolates last."""
    comps = [tuple(sorted(c)) for c in components]
    regular = [c for c in comps if not (len(c) == 1 and c[0] in isolates)]
    singles = [c for c in comps if len(c) == 1 and c[0] in isolates]

    def sort_key(comp):
        top = min(comp, key=lambda n: (-node_z[n], n))
        return (-node_z[top], top)

    ordered = sorted(regular, key=sort_key) + sorted(singles, key=sort_key)
    assignment = {}
    for gid, comp in enumerate(ordered):
        for name in comp:
            assignment[name] = gid
    return Grouping(
        assignment=assignment,
        group_order=tuple(range(len(ordered))),
        isolates=isolates,
    )


def weak_components(g: SignificanceGraph) -> Grouping:
    """Connected components of the undirected edge set.

    Degree-zero nodes are isolates: their own singleton groups, listed
    after the regular tiers.

    Min-label hooking and pointer jumping on the edge arrays.
    """
    n = len(g.nodes)
    label = np.arange(n)
    while True:
        a, b = label[g.src], label[g.dst]
        if np.array_equal(a, b):
            break
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    components: Dict[int, List[str]] = {}
    for name, root in zip(g.names, label.tolist()):
        components.setdefault(root, []).append(name)
    degree = np.bincount(np.concatenate((g.src, g.dst)), minlength=n)
    isolates = frozenset(name for name, d in zip(g.names, degree.tolist()) if d == 0)
    return _make_grouping(components.values(), g.node_z, isolates)


def _check_partition(g: SignificanceGraph, grouping: Grouping) -> None:
    missing = [n for n in g.names if n not in grouping.assignment]
    if missing:
        raise ValueError(f"partition does not cover nodes: {missing[:5]}")


def modularity(
    g: SignificanceGraph, partition: Grouping, resolution: float = 1.0
) -> float:
    """Newman modularity Q of a partition, with a resolution multiplier.

    Q = sum over groups of [intra_edges/m - resolution * (degree_sum/2m)^2]
    on unweighted edges. Defined as 0 for an edgeless graph. Q <= 1, and a
    partition into all singletons is never positive.
    """
    _check_partition(g, partition)
    m = g.edge_count
    if m == 0:
        return 0.0
    # dense codes for the group ids, so the edge counts are two bincounts
    codes: Dict[int, int] = {}
    node_code = np.array(
        [codes.setdefault(partition.assignment[n], len(codes)) for n in g.names],
        dtype=np.intp,
    )
    ga, gb = node_code[g.src], node_code[g.dst]
    degree_sum = np.bincount(np.concatenate((ga, gb)), minlength=len(codes)).tolist()
    intra = np.bincount(ga[ga == gb], minlength=len(codes)).tolist()
    # the float sum runs over the groups in this set's order, as it always has
    q = 0.0
    groups = set(partition.assignment[n] for n in g.names)
    for c in groups:
        mc = intra[codes[c]]
        dc = degree_sum[codes[c]]
        q += mc / m - resolution * (dc / (2.0 * m)) ** 2
    return q


def _louvain(g: SignificanceGraph, resolution: float, seed: int) -> List[int]:
    """Greedy modularity maximization: local moving plus aggregation.

    Returns the community id of each node index. Node visit order is a
    seeded shuffle, candidate communities are scanned in sorted order, and
    ties keep the current community, so the result is a pure function of
    (graph, resolution, seed).

    Each level is edge arrays: pairs ``a < b`` of level nodes with weights
    ``w``, and each level node's self-loop weight ``loop``; ``member`` maps
    every node index to the level node that holds it. Weights are
    integer-valued floats, so every sum is exact in any order: the order in
    which a node's neighbours are scanned cannot change a decision.
    """
    rng = random.Random(seed)
    size = len(g.nodes)
    member = np.arange(size)
    a, b, w, loop = g.src, g.dst, np.ones(g.edge_count), np.zeros(size)

    while True:
        ends, others = np.concatenate((a, b)), np.concatenate((b, a))
        ws = np.concatenate((w, w))
        # a self-loop is intra weight, counted twice in its node's degree
        degree = (np.bincount(ends, ws, size) + 2.0 * loop).tolist()
        two_m = math.fsum(degree)
        if two_m == 0:
            break
        # neighbour lists: the doubled pairs grouped by node (CSR offsets)
        by_node = np.argsort(ends, kind="stable")
        nbr, wt = others[by_node].tolist(), ws[by_node].tolist()
        offsets = [0] + np.cumsum(np.bincount(ends, minlength=size)).tolist()
        adjacency = [(nbr[s:e], wt[s:e]) for s, e in zip(offsets, offsets[1:])]

        comm = list(range(size))
        comm_tot = list(degree)

        order = list(range(size))
        rng.shuffle(order)

        moved_any = False
        improved = True
        while improved:
            improved = False
            for i in order:
                old = comm[i]
                k_i = degree[i]
                comm_tot[old] -= k_i
                links: Dict[int, float] = {}
                for j, wj in zip(*adjacency[i]):
                    links[comm[j]] = links.get(comm[j], 0.0) + wj

                def score(c: int) -> float:
                    return links.get(c, 0.0) - resolution * k_i * comm_tot[c] / two_m

                best, best_score = old, score(old)
                for c in sorted(links):
                    s = score(c)
                    if s > best_score + _GAIN_EPS * two_m / 2.0:
                        best, best_score = c, s
                comm[i] = best
                comm_tot[best] += k_i
                if best != old:
                    improved = True
                    moved_any = True

        if not moved_any:
            break

        # communities, numbered by first appearance, are the next level's nodes
        new_ids: Dict[int, int] = {}
        new = np.array([new_ids.setdefault(c, len(new_ids)) for c in comm], dtype=np.intp)
        size = len(new_ids)
        member, a, b = new[member], new[a], new[b]
        intra = a == b
        loop = np.bincount(new, loop, size) + np.bincount(a[intra], w[intra], size)
        # parallel pairs between two communities merge into one weighted pair
        a, b, w = a[~intra], b[~intra], w[~intra]
        pairs, merged = np.unique(np.minimum(a, b) * size + np.maximum(a, b),
                                  return_inverse=True)
        a, b, w = pairs // size, pairs % size, np.bincount(merged, w, len(pairs))

    return member.tolist()


def cluster(
    g: SignificanceGraph, resolution: float = 1.0, seed: int = 0
) -> Grouping:
    """Deterministic greedy modularity clustering of the graph.

    Runs seeded local moving with aggregation until no move improves Q by
    more than 1e-12, then keeps whichever of (clustering, weak components)
    scores the higher modularity, so the result is never worse than the
    plain tier partition. Isolates stay singletons, and every cluster lies
    inside one weak component.
    """
    weak = weak_components(g)
    if not g.edge_count:
        return weak

    comps: Dict[int, List[str]] = {}
    for name, c in zip(g.names, _louvain(g, resolution, seed)):
        comps.setdefault(c, []).append(name)
    louvain_grouping = _make_grouping(comps.values(), g.node_z, weak.isolates)
    if modularity(g, louvain_grouping, resolution) >= modularity(g, weak, resolution):
        return louvain_grouping
    return weak


def rank_groups(g: SignificanceGraph, grouping: Grouping) -> Tuple[GroupTable, ...]:
    """Ranked tier tables: per-group rows by descending z plus overall ranks.

    Ranks are 1-based and dense; ties in z order by ascending name, both
    within groups and overall.
    """
    _check_partition(g, grouping)
    listed = set(grouping.group_order)
    stray = sorted({grouping.assignment[n] for n in g.names} - listed)
    if stray:
        raise ValueError(f"group ids missing from group_order: {stray[:5]}")
    zmap = g.node_z
    order = sorted(zmap, key=lambda n: (-zmap[n], n))
    overall = {name: i + 1 for i, name in enumerate(order)}

    tables = []
    for gid, members in zip(grouping.group_order, grouping.groups()):
        members = sorted(members, key=lambda n: (-zmap[n], n))
        rows = tuple(
            RankedRow(
                name=n,
                z=zmap[n],
                overall_rank=overall[n],
                within_group_rank=i + 1,
            )
            for i, n in enumerate(members)
        )
        is_isolate = len(members) == 1 and members[0] in grouping.isolates
        tables.append(GroupTable(group=gid, isolate=is_isolate, rows=rows))
    return tuple(tables)
