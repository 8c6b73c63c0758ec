"""The vectorised pair pass of build_graph against a pair-by-pair reference.

``reference_graph`` is the scalar loop build_graph used before the pass
was vectorised: one ``z_vs_expectation`` per record, then one ``link_z``
(and, under the interval criterion, one ``ci_relation``) per pair in name
order. The vectorised pass must give bit-equal node z, the same edge list
with bit-equal z, the same strong flags, the same DegeneratePoolWarning
count, and the same exception when a record or pair cannot be tested.
"""

import math
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ranksig import siggraph
from ranksig.errors import DegeneratePoolWarning, InvalidStatistic, MissingInterval
from ranksig.ingest import MAX_COUNT
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
                        a.name, b.name, z, strong=rel.kind is RelationKind.CONTAINMENT,
                    ))
    return node_z, edges


def new_graph(records, criterion, threshold, proportions):
    g = build_graph(records, criterion, threshold, proportions)
    return [(name, z.hex()) for name, z in zip(g.names, g.node_z.tolist())], g.edges


def outcome(fn):
    """(edge facts or the exception, summed DegeneratePoolWarning count) of one call."""
    result, counts = warned_outcome(fn)
    return result, sum(counts)


def warned_outcome(fn):
    """(edge facts or the exception, each DegeneratePoolWarning's count) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            nodes, edges = fn()
        except Exception as exc:  # compared by type and message below
            result = ("raised", type(exc), str(exc))
        else:
            # z.hex(): bit equality, so 0.0 and -0.0 count as different
            result = nodes, [(e.a, e.b, e.z.hex(), e.strong) for e in edges]
    return result, [w.message.count for w in caught
                    if issubclass(w.category, DegeneratePoolWarning)]


# Publication counts include the extremes: MAX_COUNT, the largest count a
# record accepts, the count just below it, and a subnormal p, which
# overflows 1/p.
counts = st.one_of(
    st.sampled_from([1.0, 2.0, 10.0, 1000.0, math.nextafter(MAX_COUNT, 0.0), MAX_COUNT,
                     5e-324]),
    st.floats(min_value=1e-3, max_value=1e7),
)
# The largest finite threshold keeps every pair: each z is finite.
KEEP_ALL = sys.float_info.max
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
        # stored share: the count ratio, the expectation 0.1 exactly, or any
        # value the record's t_top10 tolerance allows (kept clear of its
        # rounding edge), so degenerate pools see both equal and unequal
        # proportions
        band = 0.999 * (0.5 + 0.005 * p)
        low, high = max(0.0, (t - band) / p), min(1.0, (t + band) / p)
        shares = [t / p] + [0.1] * (low <= 0.1 <= high)
        pp = draw(st.one_of(st.sampled_from(shares), st.floats(min_value=low, max_value=high)))
        lo = pp * draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        hi = min(1.0, pp + (1.0 - pp) * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
        out.append(make_record(name=name, p=p, t=t, pp=pp, ci=(lo, hi)))
    return out


@settings(max_examples=400, deadline=None)
@given(
    recs=records(),
    criterion=st.sampled_from(list(Criterion)),
    proportions=st.sampled_from(["stored", "exact"]),
    threshold=st.sampled_from([1.96, 2.576, 3.29, 0.5, KEEP_ALL]),
    block_cells=st.sampled_from([1, 7, 1 << 16, 1 << 18]),
)
def test_vectorised_pass_matches_pair_loop(recs, criterion, proportions, threshold,
                                           block_cells):
    expected = outcome(
        lambda: reference_graph(recs, criterion, threshold, proportions))
    with mock.patch.object(siggraph, "_BLOCK_CELLS", block_cells):
        result, counts = warned_outcome(
            lambda: new_graph(recs, criterion, threshold, proportions))
    # the scalar loop warns once per degenerate node pool and pair, the pass
    # once per call
    assert (result, sum(counts)) == expected
    assert len(counts) <= 1


@pytest.mark.parametrize("count", [0, 1, 2])
def test_unknown_proportion_mode_raises(count):
    recs = [make_record(name=f"u{i}") for i in range(count)]
    with pytest.raises(InvalidStatistic, match="unknown proportion mode 'bogus'"):
        build_graph(recs, proportions="bogus")


@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
def test_invalid_threshold_raises_before_any_work(threshold, criterion):
    # a NaN or non-positive threshold joins no pair and an infinite one every pair
    recs = [make_record(name="A", ci=(0.1, 0.2)), make_record(name="B", ci=(0.1, 0.2))]

    def unread():
        raise AssertionError("a record was read for an invalid threshold")
        yield from recs  # a generator: its body runs when build_graph reads a record

    message = rf"^threshold must be a finite number > 0 \(got {threshold!r}\)$"
    with pytest.raises(InvalidStatistic, match=message):
        build_graph(unread(), criterion, threshold)


@pytest.mark.parametrize("criterion", ["ci", "ztest", None])
def test_criterion_that_is_not_a_criterion_raises(criterion):
    recs = [make_record(name="A", ci=(0.1, 0.2)), make_record(name="B", ci=(0.1, 0.2))]
    with pytest.raises(InvalidStatistic, match="unknown criterion"):
        build_graph(recs, criterion=criterion)


@pytest.mark.parametrize("proportions", ["stored", "exact"])
def test_zero_variance_pairs_match_the_pair_loop(proportions):
    # pool 0 (A, B), pool 1 (C, D), a pool that rounds to 1 (C, E) and a
    # positive pool whose variance underflows (A, F), among regular pairs
    recs = [make_record(name="A", p=10.0, t=0.0, pp=0.0),
            make_record(name="B", p=10.0, t=0.0, pp=0.04),
            make_record(name="C", p=10.0, t=10.0, pp=1.0),
            make_record(name="D", p=10.0, t=10.0, pp=0.97),
            make_record(name="E", p=10.0, t=math.nextafter(10.0, 0.0), pp=1.0),
            make_record(name="F", p=10.0, t=1e-322, pp=0.0),
            make_record(name="G", p=50.0, t=5.0, pp=0.1),
            make_record(name="H", p=80.0, t=20.0, pp=0.25)]
    for threshold in (2.576, KEEP_ALL):
        expected = outcome(
            lambda: reference_graph(recs, Criterion.Z_TEST, threshold, proportions))
        got = outcome(lambda: new_graph(recs, Criterion.Z_TEST, threshold, proportions))
        assert got == expected
        assert got[0][0] != "raised" and got[1] >= 4


def test_regular_pairs_never_reach_the_scalar_test():
    # regular pairs and the degenerate pools of the test above, one row per
    # block: no pair goes through the scalar link_z and no node through the
    # scalar z_vs_expectation, whatever its pool
    recs = [make_record(name=f"u{i}", p=500.0 + 37 * i, pp=0.05 + 0.01 * i)
            for i in range(30)] + [
        make_record(name="A", p=10.0, t=0.0, pp=0.0),
        make_record(name="B", p=10.0, t=0.0, pp=0.04),
        make_record(name="C", p=10.0, t=10.0, pp=1.0),
        make_record(name="D", p=10.0, t=10.0, pp=0.97),
        make_record(name="E", p=10.0, t=math.nextafter(10.0, 0.0), pp=1.0),
        make_record(name="F", p=10.0, t=1e-322, pp=0.0)]
    expected = outcome(lambda: reference_graph(recs, Criterion.Z_TEST, 2.576, "stored"))

    with mock.patch.object(siggraph, "link_z",
                           side_effect=AssertionError("scalar link_z called")) as scalar, \
            mock.patch.object(siggraph, "z_vs_expectation",
                              side_effect=AssertionError("scalar node z called")) as node, \
            mock.patch.object(siggraph, "_BLOCK_CELLS", 50):
        result, counts = warned_outcome(lambda: new_graph(recs, Criterion.Z_TEST, 2.576,
                                                          "stored"))
    scalar.assert_not_called()
    node.assert_not_called()
    assert len(counts) == 1 and expected[1] >= 4
    assert (result, counts[0]) == expected


def test_subnormal_pools_warn_once_without_a_numpy_warning():
    # 1/p overflows for A and B: their own pools and their pair have variance
    # 0, and the overflow stays inside the pass
    recs = [make_record(name="A", p=5e-324, t=0.0, pp=0.0),
            make_record(name="B", p=5e-324, t=0.0, pp=0.0),
            make_record(name="C", p=50.0, t=5.0, pp=0.1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build_graph(recs)
    assert [w.category for w in caught] == [DegeneratePoolWarning]
    assert caught[0].message.count == 3
    assert g.node_z.tolist() == [0.0, 0.0, 0.0]
