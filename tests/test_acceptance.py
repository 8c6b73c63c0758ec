"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from ranksig import data
from ranksig.compare import cramers_v, crosstab
from ranksig.dynamics import bootstrap_interval, decompose_change
from ranksig.ingest import Counting, InstitutionRecord
from ranksig.siggraph import (
    Grouping,
    SignificanceGraph,
    build_graph,
    cluster,
    modularity,
    rank_groups,
    weak_components,
)
from ranksig.stats import (
    ContingencyTable,
    SignificanceLevel,
    chi_square,
    chi_square_level,
    chi_square_terms,
    expected_table,
    link_z,
    pair_table,
    significance_level,
    standardized_residuals,
    z_two_proportions,
)


@contextmanager
def criterion(cid: str, title: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {cid} {title}: FAIL")
        raise
    print(f"[acceptance] {cid} {title}: PASS")


def worked_example_records():
    common = dict(
        country="CN", period="2015-2018", field="All sciences",
        counting=Counting.FRACTIONAL,
    )
    a = InstitutionRecord(
        name="Tsinghua University", p=19902.0, t_top10=2738.0,
        pp_top10=2738.0 / 19902.0, **common,
    )
    b = InstitutionRecord(
        name="Zhejiang University", p=23510.0, t_top10=2604.0,
        pp_top10=2604.0 / 23510.0, **common,
    )
    return a, b


def worked_table():
    return ContingencyTable(
        rows=("Tsinghua University", "Zhejiang University"),
        cols=("top10", "other"),
        observed=((2738.0, 17164.0), (2604.0, 20906.0)),
    )


def test_c1_expected_table():
    with criterion("C1", "expected table"):
        exp = expected_table(worked_table())
        assert exp.observed[0][0] == pytest.approx(2449.01, abs=0.01)


def test_c2_chi_square_and_contributions():
    with criterion("C2", "chi-square"):
        t = worked_table()
        assert chi_square(t) == pytest.approx(71.80, abs=0.05)
        terms = chi_square_terms(t)
        flat = (terms[0][0], terms[0][1], terms[1][0], terms[1][1])
        for got, want in zip(flat, (34.10, 4.79, 28.87, 4.05)):
            assert got == pytest.approx(want, abs=0.05)


def test_c3_standardized_residuals():
    with criterion("C3", "residuals"):
        t = worked_table()
        resid = standardized_residuals(t)
        flat = (resid[0][0], resid[0][1], resid[1][0], resid[1][1])
        for got, want in zip(flat, (5.84, -2.19, -5.37, 2.01)):
            assert got == pytest.approx(want, abs=0.01)
        assert math.fsum(x * x for row in resid for x in row) == pytest.approx(
            chi_square(t), rel=1e-6
        )


def test_c4_two_proportion_z_modes():
    with criterion("C4", "z-test modes"):
        z_rounded = z_two_proportions(0.138, 19902, 0.111, 23510, 0.1234)
        assert z_rounded == pytest.approx(8.525, abs=0.01)

        a, b = worked_example_records()
        z_exact = link_z(a, b, proportions="exact")
        assert z_exact * z_exact == pytest.approx(
            chi_square(pair_table(a, b)), rel=1e-6
        )


def test_c5_trio_grouping_and_stars():
    with criterion("C5", "three-university grouping"):
        records = data.trio_records()
        g = build_graph(records, threshold=2.576)
        assert [(e.a, e.b) for e in g.edges] == [
            ("Peking University", "Zhejiang University")
        ]
        grouping = weak_components(g)
        assert set(grouping.groups()) == {
            ("Peking University", "Zhejiang University"),
            ("Tsinghua University",),
        }
        assert significance_level(8.460).stars == "***"
        assert significance_level(0.638).stars == ""
        assert significance_level(8.533).stars == "***"


def test_c6_two_nation_crosstab():
    with criterion("C6", "cross-tabulation"):
        counts = {
            ("China", "low"): 116, ("China", "middle"): 67,
            ("China", "high"): 21, ("China", "isolate"): 1,
            ("USA", "low"): 36, ("USA", "middle"): 60,
            ("USA", "high"): 99, ("USA", "isolate"): 2,
        }
        country, tier = {}, {}
        i = 0
        for (nation, level), n in counts.items():
            for _ in range(n):
                country[f"i{i:03d}"] = nation
                tier[f"i{i:03d}"] = level
                i += 1
        ct = crosstab(country, tier)
        chi2 = chi_square(ct)
        assert chi2 == pytest.approx(93.40, abs=0.05)
        dof = (len(ct.rows) - 1) * (len(ct.cols) - 1)
        assert chi_square_level(chi2, dof) >= SignificanceLevel.P01
        assert cramers_v(ct) == pytest.approx(math.sqrt(93.40 / 402), abs=0.005)


def test_c7_change_decomposition():
    with criterion("C7", "change decomposition"):
        d = decompose_change(9.81, 9.54, 9.03)
        assert 100 * d.model_share == pytest.approx(65.4, abs=0.1)
        assert 100 * d.data_share == pytest.approx(34.6, abs=0.1)
        assert d.data_effect + d.model_effect == d.total  # exact additivity


def test_c8_published_tier_fixture():
    with criterion("C8", "published tier table"):
        start = time.perf_counter()

        tiers = data.china_tiers()
        graph = SignificanceGraph.from_scores((r.name, r.z) for r in tiers)
        gid = {"top": 0, "middle": 1, "bottom": 2}
        grouping = Grouping(assignment={r.name: gid[r.tier] for r in tiers})
        tables = rank_groups(graph, grouping)

        published = {
            tier: [r for r in tiers if r.tier == tier]
            for tier in ("top", "middle", "bottom")
        }
        for table, tier in zip(tables, ("top", "middle", "bottom")):
            rows = table.rows
            # strictly descending by (z, name): z never increases, ties by name
            for earlier, later in zip(rows, rows[1:]):
                assert (earlier.z, later.name) > (later.z, earlier.name) or (
                    earlier.z > later.z
                )
                assert earlier.z >= later.z
                if earlier.z == later.z:
                    assert earlier.name < later.name
            # within-group ranks reproduce the published column exactly
            assert [r.name for r in rows] == [p.name for p in published[tier]]
            assert [r.within_group_rank for r in rows] == [
                p.within_rank for p in published[tier]
            ]

        top_rows = tables[0].rows
        bottom_rows = tables[2].rows
        assert top_rows[0].name == "Tsinghua University"
        assert top_rows[0].z == pytest.approx(11.005)
        assert bottom_rows[-1].name == "Capital Medical University"
        assert bottom_rows[-1].z == pytest.approx(-12.944)

        assert time.perf_counter() - start < 1.0


# --- criterion 9: substitute property suite --------------------------------

def _random_record(rng, name):
    p = float(rng.uniform(10.0, 1e5))
    pp = float(rng.uniform(0.01, 0.6))
    return InstitutionRecord(
        name=name, country="XX", period="2015-2018", field="All sciences",
        counting=Counting.FRACTIONAL, p=p, t_top10=pp * p, pp_top10=pp,
    )


def _random_table(rng):
    r = int(rng.integers(2, 7))
    c = int(rng.integers(2, 7))
    cells = rng.uniform(0.5, 300.0, size=(r, c))
    return ContingencyTable(
        rows=tuple(f"r{i}" for i in range(r)),
        cols=tuple(f"c{j}" for j in range(c)),
        observed=tuple(tuple(float(x) for x in row) for row in cells),
    )


def _random_graph(rng, max_nodes=60):
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    nodes = [(name, float(rng.normal())) for name in names]
    prob = float(rng.uniform(0.02, 0.3))
    edges = [
        (a, b, float(rng.normal()))
        for a, b in itertools.combinations(names, 2)
        if rng.random() < prob
    ]
    return SignificanceGraph.from_scores(nodes, edges)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _grouping_from_parts(parts):
    assignment = {}
    for gid, comp in enumerate(parts):
        for name in comp:
            assignment[name] = gid
    return Grouping(assignment=assignment)


def _planted_graph(k1, k2):
    a = [f"a{i}" for i in range(k1)]
    b = [f"b{i}" for i in range(k2)]
    nodes = [(n, float(i)) for i, n in enumerate(a + b)]
    edges = list(itertools.combinations(a, 2)) + list(itertools.combinations(b, 2))
    edges.append(("a0", "b0"))
    return SignificanceGraph.from_scores(nodes, edges), frozenset(a), frozenset(b)


def test_c9_substitute_property_suite():
    suite_start = time.perf_counter()
    rng = np.random.default_rng(20200802)

    with criterion("C9a", "z antisymmetry and z^2 = chi^2 on 1000 pairs"):
        for i in range(1000):
            a = _random_record(rng, "A")
            b = _random_record(rng, "B")
            z_ab = link_z(a, b, "exact")
            assert z_ab == -link_z(b, a, "exact")
            assert z_ab * z_ab == pytest.approx(
                chi_square(pair_table(a, b)), rel=1e-6
            )

    with criterion("C9b", "margin preservation and scale property"):
        for _ in range(200):
            t = _random_table(rng)
            exp = expected_table(t)
            for got, want in zip(exp.row_totals, t.row_totals):
                assert got == pytest.approx(want, rel=1e-9)
            for got, want in zip(exp.col_totals, t.col_totals):
                assert got == pytest.approx(want, rel=1e-9)
            k = float(rng.uniform(0.25, 8.0))
            scaled = ContingencyTable(
                rows=t.rows, cols=t.cols,
                observed=tuple(tuple(k * x for x in row) for row in t.observed),
            )
            assert chi_square(scaled) == pytest.approx(k * chi_square(t), rel=1e-9)
            root_k = math.sqrt(k)
            for ra, rb in zip(
                standardized_residuals(scaled), standardized_residuals(t)
            ):
                for sa, sb in zip(ra, rb):
                    assert sa == pytest.approx(root_k * sb, rel=1e-9)

    with criterion("C9c", "cluster never below weak components on 100 graphs"):
        for _ in range(100):
            g = _random_graph(rng)
            q_cluster = modularity(g, cluster(g, seed=17))
            q_weak = modularity(g, weak_components(g))
            assert q_cluster >= q_weak - 1e-12

    with criterion("C9d", "planted cliques match exhaustive Q maximization"):
        for k1, k2 in ((3, 3), (4, 4), (3, 4)):
            g, left, right = _planted_graph(k1, k2)
            names = list(g.names)
            best_q = max(
                modularity(g, _grouping_from_parts(parts))
                for parts in _set_partitions(names)
            )
            got = cluster(g, seed=5)
            assert modularity(g, got) == pytest.approx(best_q, abs=1e-9)
            groups = {frozenset(c) for c in got.groups()}
            assert groups == {left, right}  # bridge endpoints separated

    with criterion("C9e", "bootstrap width and thread invariance"):
        rec = InstitutionRecord(
            name="Synthetic U", country="XX", period="2015-2018",
            field="All sciences", counting=Counting.FRACTIONAL,
            p=10000.0, t_top10=1000.0, pp_top10=0.10,
        )
        iv = bootstrap_interval(rec, draws=2000, coverage=0.95, seed=42)
        predicted_half = 1.96 * math.sqrt(0.1 * 0.9 / 10000.0)
        assert abs(iv.width / 2 - predicted_half) / predicted_half < 0.20

        recs = [
            InstitutionRecord(
                name=f"U{i}", country="XX", period="2015-2018",
                field="All sciences", counting=Counting.FRACTIONAL,
                p=4000.0 + i, t_top10=(4000.0 + i) * 0.11, pp_top10=0.11,
            )
            for i in range(8)
        ]
        serial = [bootstrap_interval(r, draws=500, seed=7) for r in recs]
        for workers in (2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                threaded = list(pool.map(
                    lambda r: bootstrap_interval(r, draws=500, seed=7), recs
                ))
            assert [(i.lower, i.upper) for i in serial] == [
                (i.lower, i.upper) for i in threaded
            ]

    elapsed = time.perf_counter() - suite_start
    print(f"[acceptance] C9 total runtime: {elapsed:.1f}s")
    assert elapsed < 60.0
