import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranksig import data
from ranksig.compare import (
    cramers_v,
    crosstab,
    phi,
    spearman,
    z_distribution_series,
)
from ranksig.errors import ConstantInput, LengthMismatch, NoOverlap
from ranksig.stats import ContingencyTable, chi_square


def country_tier_labels():
    """Label maps reproducing the published two-nation tier cross-tab."""
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
            name = f"inst{i:03d}"
            country[name] = nation
            tier[name] = level
            i += 1
    return country, tier


class TestCrosstab:
    def test_two_nation_tier_table(self):
        country, tier = country_tier_labels()
        ct = crosstab(country, tier)
        assert ct.grand_total == 402
        get = lambda r, c: ct.observed[ct.rows.index(r)][ct.cols.index(c)]
        assert [get("China", t) for t in ("low", "middle", "high", "isolate")] == [
            116, 67, 21, 1,
        ]
        assert [get("USA", t) for t in ("low", "middle", "high", "isolate")] == [
            36, 60, 99, 2,
        ]

    def test_identical_labelings_are_diagonal(self):
        labels = {f"i{k}": f"cat{k % 3}" for k in range(9)}
        ct = crosstab(labels, labels)
        for i, r in enumerate(ct.rows):
            for j, c in enumerate(ct.cols):
                want = 3.0 if r == c else 0.0
                assert ct.observed[i][j] == want

    def test_two_singletons(self):
        ct = crosstab({"a": "x", "b": "y"}, {"a": "u", "b": "v"})
        assert sorted(x for row in ct.observed for x in row) == [0.0, 0.0, 1.0, 1.0]

    def test_counts_sum_to_intersection(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            names_a = {f"i{k}" for k in rng.choice(50, size=30, replace=False)}
            names_b = {f"i{k}" for k in rng.choice(50, size=30, replace=False)}
            label_a = {n: f"a{rng.integers(3)}" for n in names_a}
            label_b = {n: f"b{rng.integers(4)}" for n in names_b}
            shared = set(label_a) & set(label_b)
            if not shared or len({label_a[n] for n in shared}) < 2 \
                    or len({label_b[n] for n in shared}) < 2:
                continue
            ct = crosstab(label_a, label_b)
            assert ct.grand_total == len(shared)

    def test_no_overlap(self):
        with pytest.raises(NoOverlap):
            crosstab({"a": "x", "b": "x"}, {"c": "y", "d": "y"})

    def test_categories_by_rank_else_by_label(self):
        tiers = {"a": "tier10", "b": "tier2", "c": "isolate", "d": "tier2"}
        other = {"a": "y", "b": "x", "c": "x", "d": "z"}
        ranks = {"tier2": 1, "tier10": 2, "isolate": 3}
        ct = crosstab(tiers, other, (ranks, None))
        assert (ct.rows, ct.cols) == (("tier2", "tier10", "isolate"), ("x", "y", "z"))
        ct = crosstab(other, tiers, (None, ranks))
        assert (ct.rows, ct.cols) == (("x", "y", "z"), ("tier2", "tier10", "isolate"))
        assert crosstab(tiers, other).rows == ("isolate", "tier10", "tier2")

    def test_insertion_order_does_not_matter(self):
        label_a = {"b": "x", "a": "y", "c": "x"}
        label_b = {"c": "v", "a": "u", "b": "u"}
        ct1 = crosstab(label_a, label_b)
        ct2 = crosstab(dict(sorted(label_a.items())), dict(sorted(label_b.items())))
        assert ct1 == ct2


class TestAssociation:
    def test_two_nation_chi_square(self):
        country, tier = country_tier_labels()
        assert chi_square(crosstab(country, tier)) == pytest.approx(
            93.40, abs=0.05
        )

    def test_diagonal_2x2(self):
        ct = ContingencyTable(("r0", "r1"), ("c0", "c1"), ((10.0, 0.0), (0.0, 10.0)))
        assert chi_square(ct) == pytest.approx(20.0)
        assert phi(ct) == pytest.approx(1.0)
        assert cramers_v(ct) == pytest.approx(1.0)

    def test_identical_k_category_labelings_give_v_one(self):
        labels = {f"i{k}": f"cat{k % 4}" for k in range(20)}
        assert cramers_v(crosstab(labels, labels)) == pytest.approx(1.0)

    def test_independent_table_gives_zero(self):
        # outer product of margins: observed equals expected
        ct = ContingencyTable(
            ("r0", "r1"), ("c0", "c1", "c2"),
            ((6.0, 9.0, 15.0), (4.0, 6.0, 10.0)),
        )
        assert cramers_v(ct) == pytest.approx(0.0, abs=1e-9)
        assert phi(ct) == pytest.approx(0.0, abs=1e-9)

    def test_two_nation_v_value(self):
        country, tier = country_tier_labels()
        v = cramers_v(crosstab(country, tier))
        assert v == pytest.approx(math.sqrt(93.40 / 402), abs=0.005)
        # 2 x 4 table: min(r, c) - 1 == 1, so phi coincides
        assert phi(crosstab(country, tier)) == pytest.approx(v)

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(8)
        cells = rng.uniform(1, 50, size=(3, 4))
        base = ContingencyTable(
            ("r0", "r1", "r2"), ("c0", "c1", "c2", "c3"),
            tuple(tuple(row) for row in cells),
        )
        rp = rng.permutation(3)
        cp = rng.permutation(4)
        shuffled = ContingencyTable(
            tuple(base.rows[i] for i in rp),
            tuple(base.cols[j] for j in cp),
            tuple(tuple(cells[i][j] for j in cp) for i in rp),
        )
        assert cramers_v(shuffled) == pytest.approx(cramers_v(base), rel=1e-12)
        assert phi(shuffled) == pytest.approx(phi(base), rel=1e-12)

    @given(st.lists(st.floats(1, 100), min_size=4, max_size=4))
    def test_phi_equals_v_on_2x2(self, cells):
        ct = ContingencyTable(
            ("r0", "r1"), ("c0", "c1"),
            ((cells[0], cells[1]), (cells[2], cells[3])),
        )
        assert phi(ct) == pytest.approx(cramers_v(ct), rel=1e-12)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_example(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ties_use_midranks(self):
        # duplicate x maps to averaged rank; value checked against direct formula
        rho = spearman([1, 1, 2, 3], [1, 2, 3, 4])
        assert -1.0 <= rho <= 1.0
        assert rho == pytest.approx(spearman([10, 10, 20, 30], [1, 2, 3, 4]))

    @given(
        st.lists(st.integers(-100, 100), min_size=3, max_size=20, unique=True),
    )
    def test_monotone_transform_invariance(self, values):
        # integer spacing keeps the transforms injective in float arithmetic
        xs = [float(v) for v in values]
        ys = [x * 2 + 1 for x in xs]
        base = spearman(xs, ys)
        assert spearman([math.exp(x / 50) for x in xs], ys) == pytest.approx(base)
        assert spearman(xs, [y ** 3 for y in ys]) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            spearman([1], [1])

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            spearman([1, 1, 1], [1, 2, 3])


class TestZDistributionSeries:
    def test_published_tier_endpoints(self):
        scores = [(row.name, row.z) for row in data.china_tiers()]
        series = z_distribution_series({"CN": scores})["CN"]
        assert series[0].name == "Tsinghua University"
        assert series[0].z == pytest.approx(11.005)
        assert series[0].rank == 1
        assert series[-1].name == "Capital Medical University"
        assert series[-1].z == pytest.approx(-12.944)
        assert series[-1].rank == 203

    def test_single_institution(self):
        series = z_distribution_series({"X": [("only", 1.5)]})["X"]
        assert len(series) == 1 and series[0].rank == 1

    def test_identical_categories_identical_curves(self):
        scores = [("a", 2.0), ("b", 1.0), ("c", -1.0)]
        series = z_distribution_series({"one": scores, "two": list(scores)})
        assert series["one"] == series["two"]
