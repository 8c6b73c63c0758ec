"""Stability intervals and decomposition of indicator change over time.

The stability interval of an institution's top-10% share is a bootstrap
percentile interval: the publication set is modeled as round(p)
exchangeable items that are top-10% with probability pp_top10, each
replicate resamples that many items with replacement, and the interval
takes empirical percentiles of the replicate shares. Replicate top counts
are therefore binomial draws, which keeps large institutions fast.

A change in a published indicator between editions splits into a data
effect (old edition minus the old value reconstructed under the current
methodology) and a model effect (reconstructed old value minus the
current value); the two effects add up to the total change exactly.

numpy and hashlib are imported inside the functions that use them, and
``ingest`` only for type checking, so ``decompose`` starts without their
import cost; ``TestStartup`` in ``tests/test_cli.py`` checks this.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from .errors import AmbiguousPeriodLabel, EmptyInstitution, InvalidStatistic

if TYPE_CHECKING:
    from .ingest import InstitutionRecord

__all__ = [
    "StabilityInterval", "ChangeDecomposition", "IndicatorField",
    "bootstrap_interval", "decompose_change", "series_view", "aligned_series",
]


@dataclass(frozen=True)
class StabilityInterval:
    """Bootstrap percentile interval for one institution's top-10% share."""

    lower: float
    upper: float
    point: float
    draws: int
    coverage: float
    seed: int

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError(f"interval bounds out of order: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class ChangeDecomposition:
    """Split of an indicator change into data and model effects.

    All values are in the indicator's own unit (typically percent).
    ``total`` is computed as ``data_effect + model_effect`` so additivity
    is exact; shares are None when the total change is zero.
    """

    reported_old: float
    reconstructed_old: float
    current: float
    total: float
    data_effect: float
    model_effect: float
    data_share: Optional[float]
    model_share: Optional[float]


def _stream_seed(seed: int, name: str) -> int:
    """Independent per-institution RNG stream: stable hash of (seed, name).

    hashlib keeps this reproducible across processes (the built-in hash is
    salted per run), so evaluation order and thread count cannot change
    any institution's draws.
    """
    import hashlib
    digest = hashlib.sha256(f"{seed}|{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def _nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile (no interpolation) of an ascending array."""
    n = len(sorted_values)
    idx = max(math.ceil(q * n), 1) - 1
    return float(sorted_values[min(idx, n - 1)])


def bootstrap_interval(
    rec: InstitutionRecord,
    draws: int = 1000,
    coverage: float = 0.95,
    seed: int = 0,
) -> StabilityInterval:
    """Stability interval of pp_top10 from seeded bootstrap resampling.

    Each of ``draws`` replicates resamples n = round(rec.p) publications
    with replacement (top count is a binomial draw with success
    probability rec.pp_top10) and records the top share. Bounds are the
    (1 - coverage)/2 and 1 - (1 - coverage)/2 nearest-rank percentiles of
    the replicate shares. Bit-identical for a fixed seed regardless of
    evaluation order; the RNG is numpy's PCG64 seeded per institution.
    """
    import numpy as np

    if rec.p < 1:
        raise EmptyInstitution(
            f"{rec.name}: need at least one publication to resample (p={rec.p})"
        )
    if draws < 1:
        raise InvalidStatistic(f"draws must be >= 1, got {draws}")
    if not (0 < coverage < 1):
        raise InvalidStatistic(f"coverage must lie in (0, 1), got {coverage}")

    n = round(rec.p)
    rng = np.random.default_rng(_stream_seed(seed, rec.name))
    shares = np.sort(rng.binomial(n, rec.pp_top10, size=draws) / n)
    tail = (1.0 - coverage) / 2.0
    return StabilityInterval(
        lower=_nearest_rank(shares, tail),
        upper=_nearest_rank(shares, 1.0 - tail),
        point=rec.pp_top10,
        draws=draws,
        coverage=coverage,
        seed=seed,
    )


def decompose_change(
    reported_old: float, reconstructed_old: float, current: float
) -> ChangeDecomposition:
    """Split the change between two editions into data and model effects.

    data_effect = reported_old - reconstructed_old (what new data did),
    model_effect = reconstructed_old - current (what the recalculated
    methodology did), total = their sum. Works symmetrically for increases;
    opposing effects yield shares outside [0, 1].
    """
    for v in (reported_old, reconstructed_old, current):
        if not math.isfinite(v):
            raise InvalidStatistic(f"decomposition inputs must be finite, got {v}")
    data_effect = reported_old - reconstructed_old
    model_effect = reconstructed_old - current
    total = data_effect + model_effect
    if total != 0:
        data_share: Optional[float] = data_effect / total
        model_share: Optional[float] = model_effect / total
    else:
        data_share = model_share = None
    return ChangeDecomposition(
        reported_old=reported_old,
        reconstructed_old=reconstructed_old,
        current=current,
        total=total,
        data_effect=data_effect,
        model_effect=model_effect,
        data_share=data_share,
        model_share=model_share,
    )


class IndicatorField(enum.Enum):
    P = "p"
    T_TOP10 = "t_top10"
    PP_TOP10 = "pp_top10"

    def of(self, rec: InstitutionRecord) -> float:
        return getattr(rec, self.value)


_YEAR = re.compile(r"^\s*(\d{4})")


def _start_year(period: str) -> int:
    m = _YEAR.match(period)
    if not m:
        raise AmbiguousPeriodLabel(
            f"period label {period!r} has no parseable start year"
        )
    return int(m.group(1))


def series_view(
    records: Iterable[InstitutionRecord], value: IndicatorField
) -> Tuple[Tuple[str, float], ...]:
    """One institution's indicator across periods as ordered (period, value) pairs.

    Periods sort by the four-digit start year of their label; a duplicate
    period label keeps its first record.
    """
    seen = _period_values(records, value)
    if not seen:
        raise AmbiguousPeriodLabel("no records to view")
    return tuple((period, seen[(year, period)]) for year, period in sorted(seen))


def aligned_series(
    a_records: Iterable[InstitutionRecord],
    b_records: Iterable[InstitutionRecord],
    value: IndicatorField,
) -> Tuple[Tuple[str, Optional[float], Optional[float]], ...]:
    """Two datasets' series aligned on period for side-by-side diffing.

    Rows are (period, value_in_a, value_in_b) over the union of periods;
    a missing side is None. Useful for comparing a yearly-edition series
    against a reconstructed series.
    """
    a = _period_values(a_records, value)
    b = _period_values(b_records, value)
    keys = sorted(set(a) | set(b))
    return tuple((period, a.get((year, period)), b.get((year, period)))
                 for year, period in keys)


def _period_values(records: Iterable[InstitutionRecord], value: IndicatorField):
    out = {}
    for rec in records:
        key = (_start_year(rec.period), rec.period)
        if key not in out:
            out[key] = value.of(rec)
    return out
