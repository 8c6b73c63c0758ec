"""Core significance statistics for comparing institutions.

Implements the chi-square machinery over contingency tables (expected
values from margin products, cell contributions, standardized residuals),
the two-proportion z-test with a pooled variance estimate, the
single-institution test against the 10% reference expectation, the
star-threshold mapping of z values, and interval overlap/containment
classification.

All operations are pure functions of immutable inputs and evaluate over
reals: fractional counting produces non-integer counts, so the usual
integer-count significance interpretation is approximate. Squared
standardized residuals sum to the chi-square, and for a 2x2 table built
from exact counts the squared two-proportion z equals the chi-square.
"""

import enum
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
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
from .ingest import InstitutionRecord

__all__ = [
    "Z_P05", "Z_P01", "Z_P001", "ALPHA_THRESHOLDS", "threshold_for_alpha",
    "SignificanceLevel", "ContingencyTable", "PairwiseTest",
    "RelationKind", "Direction", "IntervalRelation",
    "expected_table", "chi_square_terms", "chi_square",
    "standardized_residuals", "pooled_proportion", "z_two_proportions",
    "z_vs_expectation", "significance_level", "chi_square_level",
    "ci_relation", "pair_table", "pairwise_test",
]

# Two-sided z thresholds for the three conventional significance levels.
Z_P05 = 1.96
Z_P01 = 2.576
Z_P001 = 3.29

ALPHA_THRESHOLDS = {0.05: Z_P05, 0.01: Z_P01, 0.001: Z_P001}


def threshold_for_alpha(alpha: float) -> float:
    try:
        return ALPHA_THRESHOLDS[alpha]
    except KeyError:
        raise InvalidStatistic(
            f"alpha must be one of {sorted(ALPHA_THRESHOLDS)}, got {alpha}"
        ) from None


class SignificanceLevel(enum.IntEnum):
    """Significance class of a statistic; comparable by strength."""

    NOT_SIGNIFICANT = 0
    P05 = 1
    P01 = 2
    P001 = 3

    @property
    def stars(self) -> str:
        return ("", "*", "**", "***")[int(self)]

    @property
    def label(self) -> str:
        return ("n.s.", "p < .05", "p < .01", "p < .001")[int(self)]


@dataclass(frozen=True)
class ContingencyTable:
    """An r x c table of non-negative real-valued counts with labels.

    Margins are computed, never stored, so they always equal the cell
    sums. Requires at least two rows and two columns and a positive grand
    total.
    """

    rows: Tuple[str, ...]
    cols: Tuple[str, ...]
    observed: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(
            self, "observed",
            tuple(tuple(float(x) for x in row) for row in self.observed),
        )
        r, c = len(self.rows), len(self.cols)
        if r < 2 or c < 2:
            raise DegenerateTable(f"table must be at least 2x2, got {r}x{c}")
        if len(self.observed) != r or any(len(row) != c for row in self.observed):
            raise DegenerateTable("observed matrix does not match label shape")
        for i, row in enumerate(self.observed):
            for j, x in enumerate(row):
                if not (math.isfinite(x) and x >= 0):
                    raise DegenerateTable(
                        f"cell ({self.rows[i]!r}, {self.cols[j]!r}) must be a "
                        f"finite real >= 0, got {x}"
                    )
        if self.grand_total <= 0:
            raise DegenerateTable("grand total must be positive")

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.cols))

    @property
    def row_totals(self) -> Tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.observed)

    @property
    def col_totals(self) -> Tuple[float, ...]:
        return tuple(
            math.fsum(row[j] for row in self.observed)
            for j in range(len(self.cols))
        )

    @property
    def grand_total(self) -> float:
        return math.fsum(math.fsum(row) for row in self.observed)

    def cell(self, row_label: str, col_label: str) -> float:
        return self.observed[self.rows.index(row_label)][self.cols.index(col_label)]


@dataclass(frozen=True)
class PairwiseTest:
    """Result of testing two institutions against each other."""

    a: str
    b: str
    z: float
    chi2: float
    residuals: Tuple[Tuple[float, ...], ...]
    level: SignificanceLevel


class RelationKind(enum.Enum):
    DISJOINT = "disjoint"
    OVERLAP = "overlap"
    CONTAINMENT = "containment"


class Direction(enum.Enum):
    A_IN_B = "a_in_b"
    B_IN_A = "b_in_a"
    MUTUAL = "mutual"


@dataclass(frozen=True)
class IntervalRelation:
    """How two stability intervals relate; direction set for containment only."""

    kind: RelationKind
    direction: Optional[Direction] = None

    def __post_init__(self):
        if (self.kind is RelationKind.CONTAINMENT) != (self.direction is not None):
            raise InvalidStatistic(
                "direction must be present exactly when kind is containment"
            )


def expected_table(obs: ContingencyTable) -> ContingencyTable:
    """Expected cell values under independence: row total * column total / grand total.

    Margins of the result equal the observed margins up to rounding. A zero
    row or column total is reported with a DegenerateTableWarning (the
    corresponding expected cells are zero) but the table is still returned.
    """
    row_totals = obs.row_totals
    col_totals = obs.col_totals
    grand = obs.grand_total
    if any(t == 0 for t in row_totals) or any(t == 0 for t in col_totals):
        warnings.warn(
            "table has a zero row or column total; expected cells there are zero",
            DegenerateTableWarning,
            stacklevel=2,
        )
    cells = tuple(
        tuple(row_totals[i] * col_totals[j] / grand for j in range(len(obs.cols)))
        for i in range(len(obs.rows))
    )
    return ContingencyTable(rows=obs.rows, cols=obs.cols, observed=cells)


def _cellwise(obs: ContingencyTable, f) -> Tuple[Tuple[float, ...], ...]:
    """f(observed, expected) for every cell, row by row.

    Raises ZeroExpectedCell at the first cell whose expected value is zero.
    """
    exp = expected_table(obs)
    out = []
    for i, row_label in enumerate(obs.rows):
        row = []
        for j, col_label in enumerate(obs.cols):
            e = exp.observed[i][j]
            if e <= 0:
                raise ZeroExpectedCell(
                    f"expected cell ({row_label!r}, {col_label!r}) is zero"
                )
            row.append(f(obs.observed[i][j], e))
        out.append(tuple(row))
    return tuple(out)


def chi_square_terms(obs: ContingencyTable) -> Tuple[Tuple[float, ...], ...]:
    """Per-cell contributions (observed - expected)^2 / expected."""
    return _cellwise(obs, lambda o, e: (o - e) * (o - e) / e)


def chi_square(obs: ContingencyTable) -> float:
    """Sum of (observed - expected)^2 / expected over all cells."""
    return math.fsum(x for row in chi_square_terms(obs) for x in row)


def standardized_residuals(obs: ContingencyTable) -> Tuple[Tuple[float, ...], ...]:
    """Per-cell (observed - expected) / sqrt(expected).

    Residuals behave as z-scores per cell; their squares sum to the
    chi-square of the table.
    """
    return _cellwise(obs, lambda o, e: (o - e) / math.sqrt(e))


def pooled_proportion(t1: float, n1: float, t2: float, n2: float) -> float:
    """Combined success rate (t1 + t2) / (n1 + n2) of two samples."""
    for t, n, which in ((t1, n1, "first"), (t2, n2, "second")):
        if not (0 <= t <= n):
            raise InvalidStatistic(
                f"{which} sample needs 0 <= t <= n, got t={t}, n={n}"
            )
    if n1 + n2 <= 0:
        raise EmptyPool("pooled proportion over zero total observations")
    return (t1 + t2) / (n1 + n2)


def z_two_proportions(
    p1: float, n1: float, p2: float, n2: float, pooled: float
) -> float:
    """Two-proportion z statistic with a caller-supplied pooled estimate.

    z = (p1 - p2) / sqrt(pooled * (1 - pooled) * (1/n1 + 1/n2)). The caller
    chooses the pooled proportion (stored shares or exact count ratios give
    slightly different values). Antisymmetric under swapping the samples.

    When the pool is degenerate (pooled is 0 or 1) and p1 equals p2, the
    two samples are identical all-top or all-bottom sets: z is defined as 0
    and a DegeneratePoolWarning is emitted. Unequal proportions over a
    degenerate pool raise DegeneratePool.
    """
    if any(math.isnan(v) for v in (p1, n1, p2, n2, pooled)):
        raise InvalidStatistic("z-test inputs must not be NaN")
    if n1 <= 0 or n2 <= 0:
        raise EmptyInstitution(f"sample sizes must be positive, got {n1}, {n2}")
    if not (0 <= pooled <= 1):
        raise InvalidStatistic(f"pooled proportion must lie in [0, 1], got {pooled}")
    if pooled in (0.0, 1.0):
        if p1 == p2:
            warnings.warn(
                "identical proportions over a degenerate pool: z defined as 0",
                DegeneratePoolWarning,
                stacklevel=2,
            )
            return 0.0
        raise DegeneratePool(
            f"pooled proportion is {pooled:g} but the proportions differ "
            f"({p1} vs {p2})"
        )
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return (p1 - p2) / se


def z_vs_expectation(rec: InstitutionRecord, p0: float = 0.1) -> float:
    """z of one institution's top-10% share against the reference share p0.

    The institution is compared with a same-size sample scoring exactly p0:
    n1 = n2 = p, p1 = pp_top10, p2 = p0, and the pool combines the stored
    top count with the expected count p0 * p. Positive exactly when
    pp_top10 exceeds p0.
    """
    if rec.p <= 0:
        raise EmptyInstitution(f"{rec.name}: institution has no publications")
    if not (0 <= p0 <= 1):
        raise InvalidStatistic(f"reference proportion must lie in [0, 1], got {p0}")
    pooled = (rec.t_top10 + p0 * rec.p) / (2.0 * rec.p)
    return z_two_proportions(rec.pp_top10, rec.p, p0, rec.p, pooled)


def significance_level(z: float) -> SignificanceLevel:
    """Map |z| through the 1.96 / 2.576 / 3.29 thresholds.

    Boundaries are inclusive on the more-significant side: |z| = 1.96 is
    already P05. Monotone in |z| and invariant under sign flip.
    """
    if math.isnan(z):
        raise InvalidStatistic("z is NaN")
    a = abs(z)
    if a >= Z_P001:
        return SignificanceLevel.P001
    if a >= Z_P01:
        return SignificanceLevel.P01
    if a >= Z_P05:
        return SignificanceLevel.P05
    return SignificanceLevel.NOT_SIGNIFICANT


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution at an integer dof.

    The closed form of the regularized upper incomplete gamma Q(dof/2, y),
    y = x/2: exp(-y) * sum(y^j / j!, j < dof/2) for even dof, and
    erfc(sqrt(y)) + exp(-y) * sum(y^(j+1/2) / gamma(j+3/2), j < (dof-1)/2)
    for odd dof. Each term is formed in log space and the terms are added
    with fsum, so none overflows or underflows on its own at a dof in the
    thousands. O(dof) per call.
    """
    y = x / 2.0
    if y == 0:  # x = 0, or x so small that x / 2 underflows
        return 1.0
    if math.isinf(y):
        return 0.0
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(j * log_y - y - math.lgamma(j + 1)) for j in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(y))]
        terms += [math.exp((j + 0.5) * log_y - y - math.lgamma(j + 1.5))
                  for j in range((dof - 1) // 2)]
    return math.fsum(terms)


def chi_square_level(chi2_value: float, dof: int) -> SignificanceLevel:
    """Significance class of a chi-square value at the given degrees of freedom.

    ``dof`` must be an integer (a float such as 3.0 is rejected).
    """
    if math.isnan(chi2_value) or chi2_value < 0:
        raise InvalidStatistic(f"chi-square must be a non-negative real, got {chi2_value}")
    if not isinstance(dof, numbers.Integral):
        raise InvalidStatistic(f"degrees of freedom must be an integer, got {dof!r}")
    if dof < 1:
        raise InvalidStatistic(f"degrees of freedom must be >= 1, got {dof}")
    p = _chi2_sf(chi2_value, dof)
    if p <= 0.001:
        return SignificanceLevel.P001
    if p <= 0.01:
        return SignificanceLevel.P01
    if p <= 0.05:
        return SignificanceLevel.P05
    return SignificanceLevel.NOT_SIGNIFICANT


def ci_relation(
    a: Optional[Sequence], b: Optional[Sequence]
) -> IntervalRelation:
    """Classify two (lower, upper) intervals as disjoint, overlapping, or contained.

    Shared endpoints count as overlap, never as disjoint. Containment uses
    closed bounds; identical intervals contain each other (Mutual).
    """
    if a is None or b is None:
        raise MissingInterval("both intervals are required")
    a_lo, a_hi = a
    b_lo, b_hi = b
    for lo, hi, which in ((a_lo, a_hi, "first"), (b_lo, b_hi, "second")):
        if lo is None or hi is None:
            raise MissingInterval(f"{which} interval has missing bounds")
        if not (lo <= hi):
            raise InvalidStatistic(
                f"{which} interval must have lower <= upper, got [{lo}, {hi}]"
            )

    if a_hi < b_lo or b_hi < a_lo:
        return IntervalRelation(RelationKind.DISJOINT)
    a_in_b = b_lo <= a_lo and a_hi <= b_hi
    b_in_a = a_lo <= b_lo and b_hi <= a_hi
    if a_in_b and b_in_a:
        return IntervalRelation(RelationKind.CONTAINMENT, Direction.MUTUAL)
    if a_in_b:
        return IntervalRelation(RelationKind.CONTAINMENT, Direction.A_IN_B)
    if b_in_a:
        return IntervalRelation(RelationKind.CONTAINMENT, Direction.B_IN_A)
    return IntervalRelation(RelationKind.OVERLAP)


def pair_table(a: InstitutionRecord, b: InstitutionRecord) -> ContingencyTable:
    """2x2 observed table of (top-10%, other) counts for two records."""
    return ContingencyTable(
        rows=(a.name, b.name),
        cols=("top10", "other"),
        observed=(
            (a.t_top10, a.p - a.t_top10),
            (b.t_top10, b.p - b.t_top10),
        ),
    )


def link_z(
    a: InstitutionRecord, b: InstitutionRecord, proportions: str = "stored"
) -> float:
    """Two-proportion z between two records.

    ``proportions="stored"`` feeds the published pp_top10 shares into the
    test; ``"exact"`` uses the t/p count ratios. Both pool via
    (t1 + t2) / (n1 + n2). Only the exact mode satisfies z^2 = chi-square
    of the 2x2 count table.

    A pooled proportion of 0 or 1 means that neither institution has a
    top-10% paper, or that every paper of both is one. In either mode the
    test then reads the count ratios, which are equal, so z is 0 with a
    DegeneratePoolWarning whatever the stored shares say. A pool that only
    rounds to 1 while the counts differ still raises DegeneratePool.
    """
    if proportions not in ("stored", "exact"):
        raise InvalidStatistic(f"unknown proportion mode {proportions!r}")
    if a.p <= 0:
        raise EmptyInstitution(f"{a.name}: institution has no publications")
    if b.p <= 0:
        raise EmptyInstitution(f"{b.name}: institution has no publications")
    pooled = pooled_proportion(a.t_top10, a.p, b.t_top10, b.p)
    if proportions == "exact" or pooled in (0.0, 1.0):
        p1, p2 = a.t_top10 / a.p, b.t_top10 / b.p
    else:
        p1, p2 = a.pp_top10, b.pp_top10
    return z_two_proportions(p1, a.p, p2, b.p, pooled)


def pairwise_test(
    a: InstitutionRecord, b: InstitutionRecord, proportions: str = "stored"
) -> PairwiseTest:
    """Full pairwise comparison: z, chi-square, residuals, significance class."""
    table = pair_table(a, b)
    z = link_z(a, b, proportions)
    return PairwiseTest(
        a=a.name,
        b=b.name,
        z=z,
        chi2=chi_square(table),
        residuals=standardized_residuals(table),
        level=significance_level(z),
    )
