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
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DegeneratePoolWarning, DuplicateRecord, EmptyInstitution, InvalidStatistic
from .ingest import InstitutionRecord
from .stats import (
    ALPHA_THRESHOLDS,
    ci_relation,  # noqa: F401  the scalar form of build_graph's interval pass
    link_z,  # noqa: F401  the scalar form of build_graph's z pass
    z_vs_expectation,  # noqa: F401  the scalar form of build_graph's node z
)

__all__ = [
    "Criterion", "GraphEdge", "SignificanceGraph",
    "Grouping", "RankedRow", "GroupTable",
    "build_graph", "weak_components", "modularity", "cluster", "rank_groups",
    "check_resolution",
]

# Smallest modularity improvement worth a move; also the convergence cutoff.
_GAIN_EPS = 1e-12

# The array fields of a SignificanceGraph: frozen on construction, compared by value.
_ARRAYS = ("node_z", "src", "dst", "z", "strong")


class Criterion(enum.Enum):
    """How indistinguishability is decided when building the graph."""

    Z_TEST = "ztest"
    CI_OVERLAP = "ci"


@dataclass(frozen=True)
class GraphEdge:
    """Undirected edge; endpoints are stored in ascending name order."""

    a: str
    b: str
    z: float
    strong: bool = False


@dataclass(frozen=True, eq=False, repr=False)
class SignificanceGraph:
    """Undirected graph of institutions with z node weights.

    Nodes are sorted by name and edges by endpoint pair, so two graphs over
    the same data compare equal regardless of construction order.

    Nodes are two columns by node index: ``names``, and each node's z in
    ``node_z``. Edges are parallel arrays in canonical order: ``src`` and
    ``dst`` are node indices (``src < dst``), ``z`` holds the pair z and
    ``strong`` the containment flag (one interval contains the other).
    Graphs are immutable, arrays included: a writeable input array is
    copied, so the caller's array stays writeable.

    The constructor checks nothing: ``build_graph`` and ``from_scores``,
    the two builders, guarantee name order, ``src < dst``, unique pairs and
    row-major (src, dst) order.

    ``edges`` is the same edge list as a tuple of GraphEdge, built on first
    use. Nothing in the package reads it; it stays because the benchmark
    tracer reads ``edges`` and ``GraphEdge.strong``, and goes once the
    tracer reads the arrays.
    """

    names: Tuple[str, ...]
    node_z: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    z: np.ndarray
    strong: np.ndarray

    def __post_init__(self):
        for name in _ARRAYS:
            a = getattr(self, name)
            if a.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS)

    def __hash__(self):
        return hash((self.names, self.edge_count))

    def __repr__(self):
        return f"SignificanceGraph({len(self.names)} nodes, {self.edge_count} edges)"

    @classmethod
    def from_scores(
        cls,
        scores: Iterable[Tuple[str, float]],
        edges: Iterable[tuple] = (),
    ) -> "SignificanceGraph":
        """Build a graph from (name, z) pairs and (a, b) or (a, b, z) edges.

        Useful for feeding externally computed z tables. A NaN node z raises
        InvalidStatistic (it has no place in the z order); +-inf is kept. An
        edge without z gets 0.0, and no edge is strong. Edges are checked in
        input order: an edge of other than 2 or 3 items, a self-edge, an
        endpoint that is not a node, and a pair given twice (in either
        orientation) raise ValueError, and a NaN edge z raises
        InvalidStatistic (the vjson file would hold a bare NaN); +-inf is
        kept. The csv, dot and pajek writers write +-inf as ``inf``; the
        vjson writer raises InvalidStatistic on it, as JSON has no such
        number.
        """
        nodes = sorted((name, float(z)) for name, z in scores)
        names = tuple(name for name, _ in nodes)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise DuplicateRecord("graph nodes must have unique names")
        for name, z in nodes:
            if math.isnan(z):
                raise InvalidStatistic(f"node {name!r}: z is NaN")
        pair_z: Dict[Tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) not in (2, 3):
                raise ValueError(f"edge {edge!r} is not (a, b) or (a, b, z)")
            a, b, *z = edge
            if a == b:
                raise ValueError(f"self-edge on {a!r}")
            if a not in index or b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) references a missing node")
            i, j = sorted((index[a], index[b]))
            if (i, j) in pair_z:
                raise ValueError(f"duplicate edge ({names[i]!r}, {names[j]!r})")
            pair_z[i, j] = float(z[0]) if z else 0.0
            if math.isnan(pair_z[i, j]):
                raise InvalidStatistic(f"edge ({a!r}, {b!r}): z is NaN")
        pairs = sorted(pair_z)
        return cls(
            names,
            np.array([z for _, z in nodes], dtype=np.float64),
            np.array([i for i, _ in pairs], dtype=np.intp),
            np.array([j for _, j in pairs], dtype=np.intp),
            np.array([pair_z[pair] for pair in pairs], dtype=np.float64),
            np.zeros(len(pairs), dtype=bool),
        )

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @cached_property
    def edges(self) -> Tuple[GraphEdge, ...]:
        names = self.names
        return tuple(
            GraphEdge(names[i], names[j], z, strong)
            for i, j, z, strong in zip(
                self.src.tolist(), self.dst.tolist(), self.z.tolist(), self.strong.tolist(),
            )
        )


@dataclass(frozen=True)
class Grouping:
    """A partition of the node set into tiers; ascending group id is tier order.

    The builders number tiers 0..k-1 from the strongest down (by the
    maximum node z inside each group), with isolates (one member, no edge)
    last; the graph decides what is an isolate, and ``rank_groups`` reads it.
    """

    assignment: Dict[str, int]

    def groups(self) -> Tuple[Tuple[str, ...], ...]:
        """Each group's members in name order, by ascending group id, from one pass."""
        buckets: Dict[int, List[str]] = {}
        for name, g in self.assignment.items():
            buckets.setdefault(g, []).append(name)
        return tuple(tuple(sorted(buckets[g])) for g in sorted(buckets))


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


# Pair cells computed per row block of the pair pass. Each float64
# temporary of a block is then 512 KiB, which stays in a core's cache
# between the pass's steps. A cold 1,000-institution pass took 20 ms at
# 2**14 to 2**16 cells, 21 ms at 2**17 and 24 ms at 2**18 (2 MiB
# temporaries; medians of 11 new processes on a shared 2-core machine);
# 2**16 is the largest of the fast ones, and keeps a 203-institution pass
# in one block.
_BLOCK_CELLS = 1 << 16


def _z_cells(one, two, keep):
    """z over the cells of sides ``one`` and ``two``, and how many where ``keep`` have variance 0.

    A side is (t, p, 1/p, share), arrays or numbers that broadcast. z is
    bit-equal to ``link_z``'s, +0.0 where the pooled variance is 0; call
    under ``np.errstate(all="ignore")``, as such a cell divides by 0.
    """
    t1, n1, inv1, s1 = one
    t2, n2, inv2, s2 = two
    pooled = (t1 + t2) / (n1 + n2)
    se = np.sqrt(pooled * (1.0 - pooled) * (inv1 + inv2))
    z = (s1 - s2) / se
    zero_var = keep & ~(se > 0)
    if count := np.count_nonzero(zero_var):  # z 0, as link_z defines it
        z[zero_var] = 0.0
    return z, count


def build_graph(
    records: Sequence[InstitutionRecord],
    criterion: Criterion = Criterion.Z_TEST,
    threshold: float = ALPHA_THRESHOLDS[0.01],
    proportions: str = "stored",
) -> SignificanceGraph:
    """Connect institutions that are not significantly different.

    Under the z criterion an edge joins a and b when |z(a, b)| is below
    ``threshold``. Under the interval criterion an edge exists when the
    stability intervals overlap or one contains the other; containment sets
    the ``strong`` flag and every record must carry interval bounds. Node
    weights are always the z against the 10% expectation.

    Every z comes from one vectorised pass with the scalar tests' operation
    order, so each is bit-equal to the scalar value: node z to
    ``z_vs_expectation`` (each node paired with its 10% twin: t 0.1 p, p,
    share 0.1), pair z to ``link_z`` (in row blocks of the name-ordered pair
    matrix). A node pool or pair whose pooled variance is 0 (a pool of 0 or
    1, or one that underflows) gets z +0.0, and the call issues one
    DegeneratePoolWarning whose ``count`` is the number of them. A positive
    se is at least sqrt(5e-324), so every other z is finite. ``threshold``
    must be a finite number > 0, whatever the criterion.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise InvalidStatistic(f"threshold must be a finite number > 0 (got {threshold!r})")
    if not isinstance(criterion, Criterion):
        raise InvalidStatistic(f"unknown criterion {criterion!r}")
    if proportions not in ("stored", "exact"):
        raise InvalidStatistic(f"unknown proportion mode {proportions!r}")
    recs = sorted(records, key=lambda r: r.name)
    names = tuple(r.name for r in recs)
    if len(set(names)) != len(recs):
        raise DuplicateRecord("records passed to build_graph must have unique names")
    t, p, pp = np.array([(r.t_top10, r.p, r.pp_top10) for r in recs],
                        dtype=np.float64).reshape(-1, 3).T
    if (empty := np.flatnonzero(p <= 0)).size:
        raise EmptyInstitution(f"{names[empty[0]]}: institution has no publications")

    if criterion is Criterion.CI_OVERLAP:
        # every record needs its interval, paired or not
        lo, hi = np.array([r.interval() for r in recs], dtype=np.float64).reshape(-1, 2).T

    n = len(recs)
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0),
              np.empty(0, bool))]
    with np.errstate(all="ignore"):  # 1/p overflows on a subnormal p
        inv_p = 1.0 / p
        node_z, degenerate = _z_cells((t, p, inv_p, pp), (0.1 * p, p, inv_p, 0.1), True)
        # each column's (t, p, 1/p, share): a block's rows and columns are its sides
        side = np.stack((t, p, inv_p, t / p if proportions == "exact" else pp))
        rows = max(1, _BLOCK_CELLS // (n or 1))
        # block rows i0..i1-1 against columns i0+1..n-1; keep cells with j > i
        for i0 in range(0, n - 1, rows):
            i1 = min(i0 + rows, n - 1)
            a, b = slice(i0, i1), slice(i0 + 1, n)
            upper = np.arange(n - i0 - 1)[None, :] >= np.arange(i1 - i0)[:, None]
            z, count = _z_cells(side[:, a, None], side[:, None, b], upper)
            degenerate += count
            if criterion is Criterion.Z_TEST:
                r, c = np.nonzero(upper & (np.abs(z) < threshold))
                strong = np.zeros(len(r), dtype=bool)
            else:
                apart = (hi[a, None] < lo[None, b]) | (hi[None, b] < lo[a, None])
                r, c = np.nonzero(upper & ~apart)
                a_lo, a_hi, b_lo, b_hi = lo[r + i0], hi[r + i0], lo[c + i0 + 1], hi[c + i0 + 1]
                strong = ((b_lo <= a_lo) & (a_hi <= b_hi)) | ((a_lo <= b_lo) & (b_hi <= a_hi))
            parts.append((r + i0, c + (i0 + 1), z[r, c], strong))
    if degenerate:
        warnings.warn(DegeneratePoolWarning(degenerate), stacklevel=2)

    cols = [np.concatenate(col) for col in zip(*parts)]
    for col in [node_z] + cols:  # new arrays: frozen here, so that the graph need not copy them
        col.flags.writeable = False
    return SignificanceGraph(names, node_z, *cols)


def _ranked_tiers(g: SignificanceGraph, label: Sequence[int]) -> List[tuple]:
    """The tiers of one label per node index, ranked, in tier order.

    Nodes are ranked once, by a stable sort on -z: index order is name
    order, so ties in z break by name. Each tier is (label, isolate, rows):
    its rows are (overall rank, node index) in that order, so a row's
    within-tier rank is its position plus 1, and it is an isolate when its
    one member has no edge. Tiers come in the order their top members
    appear, isolates last: the order (isolate, -max z, top member's name).
    """
    # marked in place: bincount would copy each read-only edge column first
    linked = np.zeros(len(g.names), dtype=bool)
    linked[g.src] = linked[g.dst] = True
    tiers: Dict[int, List[Tuple[int, int]]] = {}
    for rank, k in enumerate(np.argsort(-g.node_z, kind="stable").tolist(), 1):
        tiers.setdefault(label[k], []).append((rank, k))
    ranked = [(c, len(rows) == 1 and not linked[rows[0][1]], rows) for c, rows in tiers.items()]
    return sorted(ranked, key=lambda tier: tier[1])


def _grouping(g: SignificanceGraph, label: Sequence[int]) -> Grouping:
    """Tiers from one label per node index: nodes with equal labels share a tier.

    Group ids number the tiers in ``_ranked_tiers`` order, and each tier's
    members are listed by name.
    """
    return Grouping({g.names[k]: gid for gid, (_, _, rows) in enumerate(_ranked_tiers(g, label))
                     for k in sorted(k for _, k in rows)})


def weak_components(g: SignificanceGraph) -> Grouping:
    """Connected components of the undirected edge set.

    A node without an edge is an isolate: its own singleton group, listed
    after the regular tiers.

    Min-label hooking and pointer jumping on the edge arrays.
    """
    n = len(g.names)
    # int32 labels halve the gathers over the edges; on 142,140 edges that
    # cut a new process's first call from about 1,600 page faults to 800
    label = np.arange(n, dtype=np.int32)
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
    return _grouping(g, label.tolist())


def check_resolution(resolution: float) -> None:
    """Raise InvalidStatistic unless ``resolution`` is a finite number >= 0."""
    if not (math.isfinite(resolution) and resolution >= 0):
        raise InvalidStatistic(f"resolution must be a finite number >= 0 (got {resolution!r})")


def _group_ids(g: SignificanceGraph, grouping: Grouping) -> List[int]:
    """Each node index's group id; a partition must name exactly the nodes of ``g``."""
    assignment = grouping.assignment
    missing = [n for n in g.names if n not in assignment]
    if missing:
        raise ValueError(f"partition does not cover nodes: {missing[:5]}")
    if len(assignment) != len(g.names):
        extra = sorted(set(assignment) - set(g.names))
        raise ValueError(f"partition names nodes the graph lacks: {extra[:5]}")
    return [assignment[n] for n in g.names]


def modularity(
    g: SignificanceGraph, partition: Grouping, resolution: float = 1.0
) -> float:
    """Newman modularity Q of a partition, with a resolution multiplier.

    Q = sum over groups of [intra_edges/m - resolution * (degree_sum/2m)^2]
    on unweighted edges. Defined as 0 for an edgeless graph. Q <= 1, and a
    partition into all singletons is never positive. ``resolution`` must be
    a finite number >= 0.
    """
    check_resolution(resolution)
    label = _group_ids(g, partition)
    m = g.edge_count
    if m == 0:
        return 0.0
    # dense codes for the group ids, so the edge counts are two bincounts
    codes: Dict[int, int] = {}
    node_code = np.array([codes.setdefault(c, len(codes)) for c in label], dtype=np.intp)
    ga, gb = node_code[g.src], node_code[g.dst]
    degree_sum = np.bincount(np.concatenate((ga, gb)), minlength=len(codes)).tolist()
    intra = np.bincount(ga[ga == gb], minlength=len(codes)).tolist()
    # the float sum runs over the groups in this set's order, as it always has
    q = 0.0
    for c in set(label):
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
    size = len(g.names)
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
    plain tier partition. Isolates (nodes without an edge) stay singletons,
    listed last, and every cluster lies inside one weak component. On an
    edgeless graph no node moves, so the result equals ``weak_components``,
    assignment order included. ``resolution`` must be a finite number >= 0.
    """
    check_resolution(resolution)
    weak = weak_components(g)
    louvain_grouping = _grouping(g, _louvain(g, resolution, seed))
    if modularity(g, louvain_grouping, resolution) >= modularity(g, weak, resolution):
        return louvain_grouping
    return weak


def rank_groups(g: SignificanceGraph, grouping: Grouping) -> Tuple[GroupTable, ...]:
    """Ranked tier tables: per-group rows by descending z plus overall ranks.

    The tiers and ranks are those of ``_ranked_tiers``, listed and numbered
    by ascending group id. Ranks are 1-based and dense; ties in z order by
    ascending name, both within groups and overall. A table is an isolate
    when its one member has no edge in ``g``.
    """
    names, zs = g.names, g.node_z.tolist()
    tiers = sorted(_ranked_tiers(g, _group_ids(g, grouping)), key=lambda tier: tier[0])
    return tuple(
        GroupTable(group=gid, isolate=isolate, rows=tuple(
            RankedRow(names[k], zs[k], rank, j) for j, (rank, k) in enumerate(rows, 1)))
        for gid, (_, isolate, rows) in enumerate(tiers))
