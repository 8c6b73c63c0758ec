"""Comparing groupings and cross-tabulating them against metadata.

Two labelings of institutions (tier membership, country, ...) are
cross-tabulated over their shared institutions into an integer-count
contingency table; association strength comes from the chi-square of that
table via Cramer's V and phi, and rank agreement from a tie-aware
Spearman correlation. A per-category sorted-z series supports plotting
how score distributions differ between categories.
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ConstantInput, LengthMismatch, NoOverlap
from .ingest import InstitutionRecord
from .stats import ContingencyTable, chi_square, z_vs_expectation

__all__ = [
    "crosstab", "cramers_v", "phi", "spearman",
    "SeriesPoint", "z_distribution_series", "scores_by_category",
]


def crosstab(
    label_a: Mapping[str, str],
    label_b: Mapping[str, str],
    ranks: Tuple[Optional[Mapping[str, int]], Optional[Mapping[str, int]]] = (None, None),
) -> ContingencyTable:
    """Cross-tabulate two categorical labelings over their shared institutions.

    Cells are integer counts. The categories of a side are listed by their
    rank when ``ranks`` gives that side a category -> rank map (tiers, say),
    and by label otherwise, so the table depends neither on the names nor
    on mapping insertion order.
    """
    shared = set(label_a) & set(label_b)
    if not shared:
        raise NoOverlap("the two labelings share no institutions")

    def categories(labels, rank):
        cats = sorted({labels[name] for name in shared})
        return cats if rank is None else sorted(cats, key=rank.__getitem__)

    row_cats, col_cats = map(categories, (label_a, label_b), ranks)

    counts = [[0 for _ in col_cats] for _ in row_cats]
    for name in shared:
        counts[row_cats.index(label_a[name])][col_cats.index(label_b[name])] += 1
    return ContingencyTable(
        rows=tuple(row_cats),
        cols=tuple(col_cats),
        observed=tuple(tuple(float(c) for c in row) for row in counts),
    )


def cramers_v(ct: ContingencyTable) -> float:
    """Cramer's V = sqrt(chi2 / (N * (min(r, c) - 1))), in [0, 1]."""
    k = min(len(ct.rows), len(ct.cols))
    return math.sqrt(chi_square(ct) / (ct.grand_total * (k - 1)))


def phi(ct: ContingencyTable) -> float:
    """phi = sqrt(chi2 / N); equals Cramer's V on 2x2 tables."""
    return math.sqrt(chi_square(ct) / ct.grand_total)


def _midranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Pearson correlation of the midrank-transformed sequences; invariant
    under strictly monotone transforms of either input.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise LengthMismatch(
            f"need two sequences of equal length >= 2, got {len(xs)} and {len(ys)}"
        )
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ConstantInput("rank correlation of a constant sequence is undefined")
    rx = _midranks(xs)
    ry = _midranks(ys)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


@dataclass(frozen=True)
class SeriesPoint:
    rank: int
    name: str
    z: float


def z_distribution_series(
    groups: Mapping[str, Iterable[Tuple[str, float]]]
) -> Dict[str, Tuple[SeriesPoint, ...]]:
    """Per-category (name, z) scores sorted by descending z with rank index.

    Input categories map to iterables of (institution, z) pairs; the output
    series are plot-ready curves of z against rank.
    """
    out: Dict[str, Tuple[SeriesPoint, ...]] = {}
    for category in sorted(groups):
        scores = sorted(groups[category], key=lambda s: (-s[1], s[0]))
        out[category] = tuple(
            SeriesPoint(rank=i + 1, name=name, z=z)
            for i, (name, z) in enumerate(scores)
        )
    return out


def scores_by_category(
    records: Iterable[InstitutionRecord],
) -> Dict[str, List[Tuple[str, float]]]:
    """Group records by country and score each against the 10% expectation."""
    out: Dict[str, List[Tuple[str, float]]] = {}
    for rec in records:
        out.setdefault(rec.country, []).append((rec.name, z_vs_expectation(rec)))
    return out
