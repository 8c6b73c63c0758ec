"""Core significance statistics for comparing institutions.

Implements the chi-square machinery over contingency tables (expected
values from margin products, cell contributions, standardized residuals),
the two-proportion z-test with a pooled variance estimate, the
single-institution test against the 10% reference expectation, the
significance ladder and interval overlap/containment classification.
``ALPHA_THRESHOLDS`` is the one ladder (alpha -> two-sided |z| cut, weakest
first): both level functions, the stars, the labels and the graph's
default cut read it.

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
    DegeneratePoolWarning,
    DegenerateTable,
    EmptyInstitution,
    InvalidStatistic,
    MissingInterval,
    ZeroExpectedCell,
)
from .ingest import InstitutionRecord

__all__ = [
    "ALPHA_THRESHOLDS", "threshold_for_alpha",
    "SignificanceLevel", "ContingencyTable",
    "RelationKind", "Direction", "IntervalRelation",
    "expected_table", "chi_square_terms", "chi_square",
    "standardized_residuals", "z_two_proportions",
    "z_vs_expectation", "significance_level", "chi_square_level",
    "ci_relation", "pair_table", "link_z",
]

# alpha -> two-sided |z| cut for the three conventional significance
# levels, weakest first: the cuts rise as alpha falls.
ALPHA_THRESHOLDS = {0.05: 1.96, 0.01: 2.576, 0.001: 3.29}


def threshold_for_alpha(alpha: float) -> float:
    try:
        return ALPHA_THRESHOLDS[alpha]
    except KeyError:
        raise InvalidStatistic(
            f"alpha must be one of {sorted(ALPHA_THRESHOLDS)}, got {alpha}"
        ) from None


class SignificanceLevel(enum.IntEnum):
    """Significance class of a statistic; comparable by strength. Level k > 0
    is the k-th entry of ``ALPHA_THRESHOLDS``."""

    NOT_SIGNIFICANT = 0
    P05 = 1
    P01 = 2
    P001 = 3

    @property
    def stars(self) -> str:
        return "*" * self

    @property
    def label(self) -> str:
        if not self:
            return "n.s."
        return "p < " + str(list(ALPHA_THRESHOLDS)[self - 1]).lstrip("0")


@dataclass(frozen=True)
class ContingencyTable:
    """An r x c table of non-negative real-valued counts with labels.

    Margins are computed, never stored, so they always equal the cell
    sums. Requires at least two rows and two columns and a grand total that
    is positive and within the float range.
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
        for row_label, row in zip(self.rows, self.observed):
            for col_label, x in zip(self.cols, row):
                if not (math.isfinite(x) and x >= 0):
                    raise DegenerateTable(f"cell ({row_label!r}, {col_label!r}) must be "
                                          f"a finite real >= 0, got {x}")
        try:
            total = self.grand_total
        except OverflowError:  # finite cells whose sum passes the float range
            raise DegenerateTable("grand total overflows the float range") from None
        if total <= 0:
            raise DegenerateTable("grand total must be positive")

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


def _expected_cells(obs: ContingencyTable) -> Tuple[Tuple[float, ...], ...]:
    """Row total * column total / grand total for every cell, row by row;
    DegenerateTable if a margin product overflows."""
    row_totals, col_totals, grand = obs.row_totals, obs.col_totals, obs.grand_total
    cells = tuple(tuple(r * c / grand for c in col_totals) for r in row_totals)
    if any(math.isinf(e) for row in cells for e in row):
        raise DegenerateTable("expected counts overflow the float range")
    return cells


def expected_table(obs: ContingencyTable) -> ContingencyTable:
    """Expected cell values under independence: row total * column total / grand total.

    Margins of the result equal the observed margins up to rounding. A zero
    margin, or a margin product that underflows, makes a cell zero; the
    statistics that divide by it raise ZeroExpectedCell, as this does when
    every cell is zero. DegenerateTable when a margin product overflows.
    """
    exp = _expected_cells(obs)
    if not any(map(any, exp)):
        raise ZeroExpectedCell(f"expected cell {(obs.rows[0], obs.cols[0])!r} is zero")
    return ContingencyTable(obs.rows, obs.cols, exp)


def _cellwise(obs: ContingencyTable, f) -> Tuple[Tuple[float, ...], ...]:
    """f(observed, expected) for every cell, row by row.

    Raises DegenerateTable if a margin product overflows, else ZeroExpectedCell
    at the first zero expected cell (a zero margin or an underflowing product).
    """
    exp = _expected_cells(obs)
    zero = [(r, c) for r, row in zip(obs.rows, exp) for c, e in zip(obs.cols, row) if e == 0]
    if zero:
        raise ZeroExpectedCell(f"expected cell {zero[0]!r} is zero")
    return tuple(tuple(map(f, o_row, e_row)) for o_row, e_row in zip(obs.observed, exp))


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


def z_two_proportions(
    p1: float, n1: float, p2: float, n2: float, pooled: float
) -> float:
    """Two-proportion z statistic with a caller-supplied pooled estimate.

    z = (p1 - p2) / sqrt(pooled * (1 - pooled) * (1/n1 + 1/n2)). The caller
    chooses the pooled proportion (stored shares or exact count ratios give
    slightly different values). Antisymmetric under swapping the samples.

    When the pooled variance is 0, no difference can be tested: z is 0 with
    a DegeneratePoolWarning, whatever p1 and p2 are. That is a pool of 0 or
    1 (neither sample has a success, or every trial of both is one), and a
    pool so close to 0 or 1 that the variance underflows.
    """
    if any(math.isnan(v) for v in (p1, n1, p2, n2, pooled)):
        raise InvalidStatistic("z-test inputs must not be NaN")
    if n1 <= 0 or n2 <= 0:
        raise EmptyInstitution(f"sample sizes must be positive, got {n1}, {n2}")
    if not (0 <= pooled <= 1):
        raise InvalidStatistic(f"pooled proportion must lie in [0, 1], got {pooled}")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    # NaN here is a pool of 0 or 1 times the inf of an overflowing 1/n
    if not se > 0:
        warnings.warn(DegeneratePoolWarning(), stacklevel=2)
        return 0.0
    return (p1 - p2) / se


def z_vs_expectation(rec: InstitutionRecord) -> float:
    """z of one institution's top-10% share against the 10% expectation.

    The institution is compared with a same-size sample scoring exactly 0.1:
    n1 = n2 = p, p1 = pp_top10, p2 = 0.1, and the pool combines the stored
    top count with the expected count 0.1 * p. Positive exactly when
    pp_top10 exceeds 0.1.
    """
    if rec.p <= 0:
        raise EmptyInstitution(f"{rec.name}: institution has no publications")
    pooled = (rec.t_top10 + 0.1 * rec.p) / (2.0 * rec.p)
    return z_two_proportions(rec.pp_top10, rec.p, 0.1, rec.p, pooled)


def significance_level(z: float) -> SignificanceLevel:
    """The level whose number is the count of ``ALPHA_THRESHOLDS`` cuts |z| reaches.

    Boundaries are inclusive on the more-significant side: |z| at the 0.05
    cut is already P05. Monotone in |z| and invariant under sign flip.
    """
    if math.isnan(z):
        raise InvalidStatistic("z is NaN")
    return SignificanceLevel(sum(abs(z) >= cut for cut in ALPHA_THRESHOLDS.values()))


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
    """Significance class of a chi-square value at the given degrees of freedom:
    the count of ``ALPHA_THRESHOLDS`` alphas at or above its upper-tail p.

    ``dof`` must be an integer (a float such as 3.0 is rejected).
    """
    if math.isnan(chi2_value) or chi2_value < 0:
        raise InvalidStatistic(f"chi-square must be a non-negative real, got {chi2_value}")
    if not isinstance(dof, numbers.Integral):
        raise InvalidStatistic(f"degrees of freedom must be an integer, got {dof!r}")
    if dof < 1:
        raise InvalidStatistic(f"degrees of freedom must be >= 1, got {dof}")
    p = _chi2_sf(chi2_value, dof)
    return SignificanceLevel(sum(p <= alpha for alpha in ALPHA_THRESHOLDS))


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
    (t1 + t2) / (n1 + n2) and go through ``z_two_proportions``. Only the
    exact mode satisfies z^2 = chi-square of the 2x2 count table.

    A pool of 0 or 1 means that neither institution has a top-10% paper, or
    that every paper of both is one, at least up to rounding. In either mode
    z is then 0 with a DegeneratePoolWarning, whatever the stored shares or
    the count ratios say, as for any pool whose variance is 0.
    """
    if proportions not in ("stored", "exact"):
        raise InvalidStatistic(f"unknown proportion mode {proportions!r}")
    if a.p <= 0:
        raise EmptyInstitution(f"{a.name}: institution has no publications")
    if b.p <= 0:
        raise EmptyInstitution(f"{b.name}: institution has no publications")
    pooled = (a.t_top10 + b.t_top10) / (a.p + b.p)
    if proportions == "exact":
        p1, p2 = a.t_top10 / a.p, b.t_top10 / b.p
    else:
        p1, p2 = a.pp_top10, b.pp_top10
    return z_two_proportions(p1, a.p, p2, b.p, pooled)
