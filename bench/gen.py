"""Seeded synthetic ranking editions for the benchmark.

Every file is written with ``ranksig.ingest.dump_records``, so it is valid
ingest input by construction, and the records are built as
``InstitutionRecord`` objects, so the record invariants are checked while
generating. The same seed gives byte-identical files.

Shape of the data, after the Leiden Ranking indicator files:

* ``p`` is log-normal above a publication floor (800 for the all-sciences
  fractional slice), with one decimal because fractional counting gives
  partial credit;
* the true top-10% share is drawn around 0.1, ``t_top10`` is the share
  times ``p`` rounded to one decimal, and ``pp_top10`` is ``t/p`` rounded
  to four decimals, so ``t`` and ``pp * p`` agree within ingest's
  ``_t_consistent`` tolerance;
* the stability interval is a normal-approximation interval rounded
  outwards to three decimals, so it always brackets ``pp_top10``;
* country codes follow a fixed, skewed mix.

Sizes and shares are stratified draws: the i-th of n values comes from the
i-th of n equal-probability strata, jittered inside it by the seed. Each
seed gives different values, but every seed gives nearly the same
distribution, so the work a workload does (edges, edge ratio, tier
sizes) moves little from seed to seed while the inputs still differ.

Every ``t_top10`` is at least one publication, so no pair has a pooled
proportion of 0 or 1. The degenerate-pool abort (a pair with ``t = 0``)
is therefore outside this traffic; it is left to the tests of that case,
not hidden by the benchmark.
"""

import math
import random
from pathlib import Path
from statistics import NormalDist

from ranksig.ingest import Counting, InstitutionRecord, dump_records

FIELDS = (
    "All sciences",
    "Biomedical and health sciences",
    "Life and earth sciences",
    "Mathematics and computer science",
    "Physical sciences and engineering",
    "Social sciences and humanities",
)
PERIODS = tuple(f"{y}-{y + 3}" for y in range(2009, 2017))
COUNTRIES = (
    ("CN", 0.22), ("US", 0.18), ("DE", 0.07), ("GB", 0.07), ("JP", 0.06),
    ("FR", 0.05), ("IT", 0.05), ("KR", 0.04), ("ES", 0.04), ("CA", 0.04),
    ("AU", 0.04), ("IN", 0.04), ("BR", 0.03), ("NL", 0.03), ("TW", 0.02),
    ("HK", 0.02),
)
P_FLOOR = 800.0
SHARE_SD = 0.045  # z edges join about 28% of pairs at n = 1000

_NORMAL = NormalDist()


def _stratified_normals(rng: random.Random, n: int) -> list:
    """n standard-normal draws, one per equal-probability stratum, shuffled."""
    zs = [_NORMAL.inv_cdf((i + rng.uniform(0.02, 0.98)) / n) for i in range(n)]
    rng.shuffle(zs)
    return zs


def _record(name, country, period, field, counting, p, share) -> InstitutionRecord:
    t = max(1.0, round(p * share, 1))
    pp = round(t / p, 4)
    half = 1.1 * 1.96 * math.sqrt(pp * (1.0 - pp) / p)
    lo = max(0.0, math.floor((pp - half) * 1000.0) / 1000.0)
    hi = min(1.0, math.ceil((pp + half) * 1000.0) / 1000.0)
    return InstitutionRecord(
        name=name, country=country, period=period, field=field,
        counting=counting, p=p, t_top10=t, pp_top10=pp,
        ci_lower=min(lo, pp), ci_upper=max(hi, pp),
    )


def _institutions(rng: random.Random, n: int, share_sd: float, elite: int = 0) -> list:
    """(name, country, base p, base share) for n institutions.

    The first ``elite`` institutions form a leading group: large (p of 20k
    to 30k), each share at least 0.025 above the previous one from 0.19,
    while every other share is capped at 0.15. With the publication floor
    that keeps each of them significantly above every other institution
    under both criteria, so an edition with an elite group always has more
    than one tier, as national editions with a few leading universities do.
    """
    codes = [c for c, _ in COUNTRIES]
    weights = [w for _, w in COUNTRIES]
    sizes = _stratified_normals(rng, n)
    shares = _stratified_normals(rng, n)
    cap = 0.15 if elite else 0.3
    out = []
    for i in range(n):
        country = rng.choices(codes, weights)[0]
        if i < elite:
            p = round(rng.uniform(20000.0, 30000.0), 1)
            share = 0.19 + 0.025 * i + rng.uniform(0.0, 0.005)
        else:
            p = round(P_FLOOR + math.exp(math.log(1500.0) + sizes[i]), 1)
            share = min(cap, max(0.03, 0.1 + share_sd * shares[i]))
        out.append((f"Institution {i + 1:04d}", country, p, share))
    return out


def single_slice(seed: int, n: int, share_sd: float = SHARE_SD, elite: int = 0) -> list:
    """One all-sciences, fractional-counting edition of n institutions."""
    rng = random.Random(seed)
    return [
        _record(name, country, PERIODS[-1], FIELDS[0], Counting.FRACTIONAL, p, share)
        for name, country, p, share in _institutions(rng, n, share_sd, elite)
    ]


def multi_slice(seed: int, n: int) -> list:
    """A full download: every institution in every period, field and counting.

    The all-sciences fractional slice keeps the publication floor; field
    slices take an institution-specific part of its output and full
    counting credits more publications than fractional counting.
    """
    rng = random.Random(seed)
    base = _institutions(rng, n, SHARE_SD)
    mix = [[rng.uniform(0.05, 0.45) for _ in FIELDS[1:]] for _ in base]
    growth = [rng.uniform(0.96, 1.08) for _ in base]
    records = []
    for k, period in enumerate(PERIODS):
        for f, field in enumerate(FIELDS):
            for counting, credit in ((Counting.FRACTIONAL, 1.0), (Counting.FULL, 1.7)):
                for i, (name, country, p_all, share) in enumerate(base):
                    part = 1.0 if f == 0 else mix[i][f - 1]
                    p = p_all * part * credit * growth[i] ** (k - len(PERIODS) + 1)
                    if f == 0 and counting is Counting.FRACTIONAL:
                        p = max(P_FLOOR, p)
                    p = round(max(10.0, p), 1)
                    s = min(0.3, max(0.03, share + rng.gauss(0.0, 0.006)))
                    records.append(_record(name, country, period, field, counting, p, s))
    return records


def write(path: Path, records: list) -> Path:
    path.write_text(dump_records(records), encoding="utf-8")
    return path
