import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranksig.errors import (
    DegeneratePool,
    DegeneratePoolWarning,
    DegenerateTable,
    DegenerateTableWarning,
    EmptyInstitution,
    EmptyPool,
    InvalidStatistic,
    MissingInterval,
    ZeroExpectedCell,
)
from ranksig.stats import (
    ContingencyTable,
    Direction,
    RelationKind,
    SignificanceLevel,
    chi_square,
    chi_square_level,
    chi_square_terms,
    ci_relation,
    expected_table,
    link_z,
    pair_table,
    pairwise_test,
    pooled_proportion,
    significance_level,
    standardized_residuals,
    z_two_proportions,
    z_vs_expectation,
)
from ranksig.stats import _chi2_sf

from conftest import make_record


def table(cells, rows=None, cols=None):
    r, c = len(cells), len(cells[0])
    return ContingencyTable(
        rows=tuple(rows or [f"r{i}" for i in range(r)]),
        cols=tuple(cols or [f"c{j}" for j in range(c)]),
        observed=tuple(tuple(float(x) for x in row) for row in cells),
    )


def brute_chi_square(cells):
    """Independent oracle: margins and per-cell terms spelled out."""
    r, c = len(cells), len(cells[0])
    row_tot = [sum(row) for row in cells]
    col_tot = [sum(cells[i][j] for i in range(r)) for j in range(c)]
    grand = sum(row_tot)
    total = 0.0
    for i in range(r):
        for j in range(c):
            e = row_tot[i] * col_tot[j] / grand
            total += (cells[i][j] - e) ** 2 / e
    return total


def random_table(rng, max_dim=6):
    r = rng.integers(2, max_dim + 1)
    c = rng.integers(2, max_dim + 1)
    cells = rng.uniform(0.5, 200.0, size=(r, c))
    return table(cells.tolist())


class TestExpectedTable:
    def test_worked_example(self, worked_table):
        exp = expected_table(worked_table)
        assert exp.observed[0][0] == pytest.approx(2449.01, abs=0.01)

    def test_uniform_table_is_fixed_point(self):
        t = table([[5, 5], [5, 5]])
        assert expected_table(t).observed == t.observed

    def test_diagonal_table(self):
        exp = expected_table(table([[10, 0], [0, 10]]))
        assert exp.observed == ((5.0, 5.0), (5.0, 5.0))

    def test_margins_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_table(rng)
            exp = expected_table(t)
            for got, want in zip(exp.row_totals, t.row_totals):
                assert got == pytest.approx(want, rel=1e-9)
            for got, want in zip(exp.col_totals, t.col_totals):
                assert got == pytest.approx(want, rel=1e-9)

    def test_zero_margin_warns_but_returns(self):
        t = table([[0, 0], [3, 4]])
        with pytest.warns(DegenerateTableWarning):
            exp = expected_table(t)
        assert exp.observed[0] == (0.0, 0.0)

    def test_table_invariants(self):
        with pytest.raises(DegenerateTable):
            table([[1.0]])
        with pytest.raises(DegenerateTable):
            table([[1, -2], [3, 4]])
        with pytest.raises(DegenerateTable):
            table([[0, 0], [0, 0]])


class TestChiSquare:
    def test_worked_example(self, worked_table):
        assert chi_square(worked_table) == pytest.approx(71.80, abs=0.05)

    def test_worked_example_terms(self, worked_table):
        terms = chi_square_terms(worked_table)
        flat = [terms[0][0], terms[0][1], terms[1][0], terms[1][1]]
        for got, want in zip(flat, (34.10, 4.79, 28.87, 4.05)):
            assert got == pytest.approx(want, abs=0.05)

    def test_self_expected_is_zero(self):
        t = table([[12, 18], [20, 30]])  # rank-1 table equals its expectation
        assert chi_square(t) == pytest.approx(0.0, abs=1e-12)

    def test_against_brute_force(self):
        cells = [[30, 70], [10, 90]]
        assert chi_square(table(cells)) == pytest.approx(brute_chi_square(cells), rel=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = random_table(rng)
            assert chi_square(t) == pytest.approx(
                brute_chi_square([list(r) for r in t.observed]), rel=1e-9
            )

    def test_zero_expected_cell_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateTableWarning)
            with pytest.raises(ZeroExpectedCell, match="c0"):
                chi_square(table([[0, 5], [0, 7]]))

    def test_scale_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_table(rng)
            k = float(rng.uniform(0.5, 10.0))
            scaled = table([[k * x for x in row] for row in t.observed])
            assert chi_square(scaled) == pytest.approx(k * chi_square(t), rel=1e-9)
            for ra, rb in zip(standardized_residuals(scaled), standardized_residuals(t)):
                for a, b in zip(ra, rb):
                    assert a == pytest.approx(math.sqrt(k) * b, rel=1e-9)


class TestResiduals:
    def test_worked_example(self, worked_table):
        resid = standardized_residuals(worked_table)
        assert resid[0][0] == pytest.approx(5.84, abs=0.01)
        assert resid[0][1] == pytest.approx(-2.19, abs=0.01)
        assert resid[1][0] == pytest.approx(-5.37, abs=0.01)
        assert resid[1][1] == pytest.approx(2.01, abs=0.01)

    def test_zero_when_observed_equals_expected(self):
        resid = standardized_residuals(table([[12, 18], [20, 30]]))
        assert all(abs(x) < 1e-12 for row in resid for x in row)

    def test_squares_sum_to_chi_square(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_table(rng)
            total = math.fsum(x * x for row in standardized_residuals(t) for x in row)
            assert total == pytest.approx(chi_square(t), rel=1e-9)

    def test_2x2_signs_alternate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = random_table(rng, max_dim=2)
            r = standardized_residuals(t)
            assert r[0][0] * r[0][1] <= 0 and r[1][0] * r[1][1] <= 0
            assert r[0][0] * r[1][0] <= 0 and r[0][1] * r[1][1] <= 0


class TestPooledProportion:
    def test_worked_example(self):
        assert pooled_proportion(2738, 19902, 2604, 23510) == pytest.approx(
            0.123054, abs=1e-6
        )

    def test_trivial_values(self):
        assert pooled_proportion(0, 10, 0, 10) == 0.0
        assert pooled_proportion(5, 10, 5, 10) == 0.5

    @given(
        st.floats(0.0, 1.0), st.floats(1.0, 1e6),
        st.floats(0.0, 1.0), st.floats(1.0, 1e6),
    )
    def test_lies_between_the_proportions(self, f1, n1, f2, n2):
        t1, t2 = f1 * n1, f2 * n2
        pooled = pooled_proportion(t1, n1, t2, n2)
        p1, p2 = t1 / n1, t2 / n2
        assert min(p1, p2) - 1e-12 <= pooled <= max(p1, p2) + 1e-12

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            pooled_proportion(0, 0, 0, 0)


class TestZTwoProportions:
    def test_rounded_mode_worked_example(self):
        z = z_two_proportions(0.138, 19902, 0.111, 23510, 0.1234)
        assert z == pytest.approx(8.525, abs=0.01)

    def test_equal_proportions_give_exact_zero(self):
        assert z_two_proportions(0.25, 100, 0.25, 300, 0.25) == 0.0

    def test_exact_count_mode_frozen_value(self):
        z = z_two_proportions(
            2738 / 19902, 19902, 2604 / 23510, 23510, 5342 / 43412
        )
        assert z == pytest.approx(8.473782422664932, rel=1e-12)

    @given(
        st.floats(0.01, 0.99), st.floats(1.0, 1e5),
        st.floats(0.01, 0.99), st.floats(1.0, 1e5),
        st.floats(0.01, 0.99),
    )
    def test_antisymmetry_is_exact(self, p1, n1, p2, n2, pooled):
        assert z_two_proportions(p1, n1, p2, n2, pooled) == -z_two_proportions(
            p2, n2, p1, n1, pooled
        )

    def test_degenerate_pool_equal_proportions(self):
        with pytest.warns(DegeneratePoolWarning):
            assert z_two_proportions(0.0, 10, 0.0, 20, 0.0) == 0.0
        with pytest.warns(DegeneratePoolWarning):
            assert z_two_proportions(1.0, 10, 1.0, 20, 1.0) == 0.0

    def test_degenerate_pool_unequal_proportions_raises(self):
        with pytest.raises(DegeneratePool):
            z_two_proportions(0.1, 10, 0.0, 20, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidStatistic):
            z_two_proportions(float("nan"), 10, 0.1, 10, 0.1)

    def test_zero_sample_rejected(self):
        with pytest.raises(EmptyInstitution):
            z_two_proportions(0.1, 0, 0.1, 10, 0.1)


class TestLinkZDegeneratePool:
    """A pool of 0 or 1 reads the count ratios, equal on both sides, whatever the shares."""

    @pytest.mark.parametrize("proportions", ["stored", "exact"])
    @pytest.mark.parametrize("t, shares", [(0.0, (0.04, 0.0)), (10.0, (1.0, 0.97))],
                             ids=["pool-0", "pool-1"])
    def test_zero_with_warning(self, proportions, t, shares):
        a, b = (make_record(name=name, p=10.0, t=t, pp=pp) for name, pp in zip("DE", shares))
        with pytest.warns(DegeneratePoolWarning):
            assert link_z(a, b, proportions) == 0.0

    def test_pool_that_rounds_to_1_still_raises(self):
        # (10 + t) / 20 rounds to 1 while t / 10 stays below 1
        a = make_record(name="A", p=10.0, t=10.0, pp=1.0)
        b = make_record(name="B", p=10.0, t=math.nextafter(10.0, 0.0), pp=1.0)
        for proportions in ("stored", "exact"):
            with pytest.raises(DegeneratePool):
                link_z(a, b, proportions)


class TestZVsExpectation:
    def test_at_expectation_is_zero(self):
        assert z_vs_expectation(make_record(p=123.0, pp=0.1)) == 0.0
        assert z_vs_expectation(make_record(p=99999.0, pp=0.1)) == 0.0

    def test_below_expectation_frozen_value(self):
        rec = make_record(name="Big City U", p=15442.0, t=1395.0, pp=1395 / 15442)
        assert z_vs_expectation(rec) == pytest.approx(-2.893147147155624, rel=1e-12)

    def test_far_above_expectation(self):
        rec = make_record(name="Mining U", p=1576.0, pp=0.19)
        z = z_vs_expectation(rec)
        assert z == pytest.approx(7.1752751517082825, rel=1e-12)
        assert z > 3.29
        assert significance_level(z) is SignificanceLevel.P001

    def test_sign_tracks_share(self):
        assert z_vs_expectation(make_record(p=500.0, pp=0.12)) > 0
        assert z_vs_expectation(make_record(p=500.0, pp=0.08)) < 0

    def test_empty_institution(self):
        with pytest.raises(EmptyInstitution, match="Empty U"):
            z_vs_expectation(make_record(name="Empty U", p=0.0, pp=0.0))


class TestSignificanceLevel:
    @pytest.mark.parametrize("z, want", [
        (0.638, SignificanceLevel.NOT_SIGNIFICANT),
        (2.689, SignificanceLevel.P01),
        (-8.533, SignificanceLevel.P001),
        (1.96, SignificanceLevel.P05),
        (2.576, SignificanceLevel.P01),
        (3.29, SignificanceLevel.P001),
        (1.9599, SignificanceLevel.NOT_SIGNIFICANT),
    ])
    def test_thresholds(self, z, want):
        assert significance_level(z) is want

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone_in_magnitude(self, a, b):
        if abs(a) <= abs(b):
            assert significance_level(a) <= significance_level(b)

    @given(st.floats(-50, 50))
    def test_sign_invariant(self, z):
        assert significance_level(z) is significance_level(-z)

    def test_nan_raises(self):
        with pytest.raises(InvalidStatistic):
            significance_level(float("nan"))

    def test_stars(self):
        assert significance_level(8.533).stars == "***"
        assert significance_level(0.638).stars == ""


class TestChiSquareLevel:
    def test_agrees_with_z_thresholds_at_dof_1(self):
        for z in (0.5, 2.0, 2.7, 5.0):
            assert chi_square_level(z * z, 1) is significance_level(z)

    def test_higher_dof(self):
        assert chi_square_level(93.40, 3) is SignificanceLevel.P001
        assert chi_square_level(1.0, 3) is SignificanceLevel.NOT_SIGNIFICANT

    def test_invalid_inputs(self):
        with pytest.raises(InvalidStatistic):
            chi_square_level(-1.0, 1)
        with pytest.raises(InvalidStatistic):
            chi_square_level(1.0, 0)

    def test_non_integer_dof(self):
        with pytest.raises(InvalidStatistic, match="degrees of freedom"):
            chi_square_level(1.0, 3.0)
        assert chi_square_level(93.40, np.int64(3)) is SignificanceLevel.P001


class TestChiSquareTailOracle:
    """The closed-form tail behind chi_square_level against scipy's chi2.sf."""

    DOFS = list(range(1, 201)) + [500, 1000, 5000]

    def grid(self, rng, chi2, dof):
        xs = [0.0, 5e-324, 1e-5, 1e4, math.inf]
        xs += rng.uniform(0.0, 3 * dof + 60, 50).tolist()
        # either side of each critical value; the critical float itself is
        # left out, since scipy's own sf(isf(t)) lands on either side of t
        xs += [float(chi2.isf(t, dof)) * (1 + s)
               for t in (0.05, 0.01, 0.001) for s in (-1e-9, 1e-9)]
        return xs

    def test_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        rng = np.random.default_rng(20201)
        for dof in self.DOFS:
            xs = self.grid(rng, chi2, dof)
            for x, ref in zip(xs, chi2.sf(xs, dof).tolist()):
                got = _chi2_sf(x, dof)
                if ref > 1e-300:
                    assert abs(got - ref) <= 1e-10 * ref, (dof, x, got, ref)
                else:
                    assert got <= 1e-299, (dof, x, got, ref)
                want = SignificanceLevel(sum(ref <= t for t in (0.05, 0.01, 0.001)))
                assert chi_square_level(x, dof) is want, (dof, x, got, ref)


class TestCiRelation:
    def test_disjoint_worked_example(self):
        rel = ci_relation((0.132, 0.144), (0.105, 0.117))
        assert rel.kind is RelationKind.DISJOINT
        assert rel.direction is None

    def test_identical_intervals_are_mutual(self):
        rel = ci_relation((0.1, 0.2), (0.1, 0.2))
        assert rel.kind is RelationKind.CONTAINMENT
        assert rel.direction is Direction.MUTUAL

    def test_containment_direction(self):
        rel = ci_relation((10.5, 12.0), (10.5, 11.4))
        assert rel.kind is RelationKind.CONTAINMENT
        assert rel.direction is Direction.B_IN_A
        rel = ci_relation((10.5, 11.4), (10.5, 12.0))
        assert rel.direction is Direction.A_IN_B

    def test_shared_endpoint_is_overlap(self):
        assert ci_relation((1.0, 2.0), (2.0, 3.0)).kind is RelationKind.OVERLAP

    def test_plain_overlap(self):
        assert ci_relation((1.0, 2.5), (2.0, 3.0)).kind is RelationKind.OVERLAP

    @given(
        st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted),
        st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted),
    )
    def test_symmetry(self, a, b):
        ab = ci_relation(a, b)
        ba = ci_relation(b, a)
        assert ab.kind is ba.kind
        flip = {
            Direction.A_IN_B: Direction.B_IN_A,
            Direction.B_IN_A: Direction.A_IN_B,
            Direction.MUTUAL: Direction.MUTUAL,
            None: None,
        }
        assert ba.direction is flip[ab.direction]

    def test_missing_interval(self):
        with pytest.raises(MissingInterval):
            ci_relation(None, (0.1, 0.2))
        with pytest.raises(MissingInterval):
            ci_relation((0.1, None), (0.1, 0.2))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidStatistic):
            ci_relation((0.2, 0.1), (0.0, 1.0))


class TestPairwise:
    def test_z_squared_equals_chi_square_in_exact_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p1, p2 = rng.uniform(100, 50000, size=2)
            a = make_record(name="A", p=p1, pp=float(rng.uniform(0.02, 0.5)))
            b = make_record(name="B", p=p2, pp=float(rng.uniform(0.02, 0.5)))
            test = pairwise_test(a, b, proportions="exact")
            assert test.z * test.z == pytest.approx(test.chi2, rel=1e-6)

    def test_antisymmetry_over_records(self):
        a = make_record(name="A", p=1000.0, pp=0.15)
        b = make_record(name="B", p=2000.0, pp=0.12)
        assert link_z(a, b) == -link_z(b, a)
        assert link_z(a, b, "exact") == -link_z(b, a, "exact")

    def test_level_comes_from_z(self):
        a = make_record(name="A", p=19902.0, t=2738.0, pp=0.1376)
        b = make_record(name="B", p=23510.0, t=2604.0, pp=0.1108)
        test = pairwise_test(a, b)
        assert test.level is SignificanceLevel.P001
        assert test.a == "A" and test.b == "B"

    def test_pair_table_layout(self):
        a = make_record(name="A", p=100.0, t=20.0, pp=0.2)
        b = make_record(name="B", p=50.0, t=5.0, pp=0.1)
        t = pair_table(a, b)
        assert t.rows == ("A", "B")
        assert t.observed == ((20.0, 80.0), (5.0, 45.0))
