"""The vectorised pair pass of build_graph against a pair-by-pair reference.

``reference_graph`` is the scalar loop build_graph used before the pass
was vectorised: one ``link_z`` (and, under the interval criterion, one
``ci_relation``) per pair in name order. The vectorised pass must give
the same edge list with bit-equal z, the same strong flags and relations,
the same DegeneratePoolWarning count, and the same exception when a pair
cannot be tested.
"""

import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ranksig import siggraph
from ranksig.errors import DegeneratePoolWarning, InvalidStatistic, MissingInterval
from ranksig.siggraph import Criterion, GraphEdge, build_graph
from ranksig.stats import RelationKind, ci_relation, link_z, z_vs_expectation

from conftest import make_record


def reference_graph(records, criterion, threshold, proportions):
    """(node z list, edge list) as the pair-by-pair build_graph made them."""
    recs = sorted(records, key=lambda r: r.name)
    node_z = [(r.name, z_vs_expectation(r).hex()) for r in recs]
    if criterion is Criterion.CI_OVERLAP:
        for r in recs:
            if not r.has_interval:
                raise MissingInterval(f"{r.name}: record has no stability interval")
    edges = []
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            z = link_z(a, b, proportions)
            if criterion is Criterion.Z_TEST:
                if abs(z) < threshold:
                    edges.append(GraphEdge(a.name, b.name, z))
            else:
                rel = ci_relation(a.interval(), b.interval())
                if rel.kind is not RelationKind.DISJOINT:
                    edges.append(GraphEdge(
                        a.name, b.name, z,
                        relation=rel,
                        strong=rel.kind is RelationKind.CONTAINMENT,
                    ))
    return node_z, edges


def new_graph(records, criterion, threshold, proportions):
    g = build_graph(records, criterion, threshold, proportions)
    return [(n.name, n.z.hex()) for n in g.nodes], g.edges


def outcome(fn):
    """(edge facts or the exception, DegeneratePoolWarning count) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            nodes, edges = fn()
        except Exception as exc:  # compared by type and message below
            result = ("raised", type(exc), str(exc))
        else:
            # z.hex(): bit equality, so 0.0 and -0.0 count as different
            result = nodes, [(e.a, e.b, e.z.hex(), e.strong, e.relation) for e in edges]
    count = sum(issubclass(w.category, DegeneratePoolWarning) for w in caught)
    return result, count


# Publication counts include the extremes: 1e308 overflows p_i + p_j, and a
# subnormal p overflows 1/p.
counts = st.one_of(
    st.sampled_from([1.0, 2.0, 10.0, 1000.0, 1e308, 5e-324]),
    st.floats(min_value=1e-3, max_value=1e7),
)
# Top counts of 0 and p give degenerate pools (pooled proportion 0 or 1).
fractions = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def records(draw):
    names = draw(st.lists(
        st.text(alphabet="abcdé\"\\ ", min_size=1, max_size=3),
        unique=True, max_size=9,
    ))
    out = []
    for name in names:
        p = draw(counts)
        t = min(p, p * draw(fractions))
        # stored share: either the count ratio or an independent value, so
        # degenerate pools see both equal and unequal proportions
        pp = draw(st.one_of(st.just(t / p), fractions))
        lo = pp * draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        hi = min(1.0, pp + (1.0 - pp) * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
        out.append(make_record(name=name, p=p, t=t, pp=pp, ci=(lo, hi)))
    return out


@settings(max_examples=400, deadline=None)
@given(
    recs=records(),
    criterion=st.sampled_from(list(Criterion)),
    proportions=st.sampled_from(["stored", "exact"]),
    threshold=st.sampled_from([1.96, 2.576, 3.29, 0.5, math.inf]),
    block_cells=st.sampled_from([1, 7, 1 << 18]),
)
def test_vectorised_pass_matches_pair_loop(recs, criterion, proportions, threshold,
                                           block_cells):
    expected = outcome(
        lambda: reference_graph(recs, criterion, threshold, proportions))
    with mock.patch.object(siggraph, "_BLOCK_CELLS", block_cells):
        got = outcome(lambda: new_graph(recs, criterion, threshold, proportions))
    assert got == expected


def test_unknown_proportion_mode_raises_only_with_pairs():
    one = [make_record(name="Solo")]
    assert build_graph(one, proportions="bogus").edges == ()
    two = one + [make_record(name="Duo")]
    with pytest.raises(InvalidStatistic, match="unknown proportion mode 'bogus'"):
        build_graph(two, proportions="bogus")


def test_regular_pairs_never_reach_the_scalar_test():
    recs = [make_record(name=f"u{i}", p=500.0 + 37 * i, pp=0.05 + 0.01 * i)
            for i in range(30)]

    def fail(*args):
        raise AssertionError("scalar link_z called for a regular pair")

    with mock.patch.object(siggraph, "link_z", fail), \
            mock.patch.object(siggraph, "_BLOCK_CELLS", 50):
        g = build_graph(recs)
    assert [(e.a, e.b, e.z) for e in g.edges] == [
        (e.a, e.b, e.z)
        for e in reference_graph(recs, Criterion.Z_TEST, 2.576, "stored")[1]
    ]
