"""Embedded fixture datasets.

``china_trio.csv`` holds the three-university worked example (indicator
records with stability intervals) and ``china_tiers_z2020.csv`` the
published three-tier z table for 203 Chinese universities (name, tier,
z, overall rank, within-group rank). Both ship with the package so every
command runs out of the box.
"""

import csv
from dataclasses import dataclass
from importlib import resources
from typing import List, Tuple

from ..ingest import InstitutionRecord, parse_records

__all__ = ["trio_records", "trio_csv", "TierRow", "china_tiers"]


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def trio_csv() -> str:
    """Raw CSV text of the embedded three-university dataset."""
    return _read("china_trio.csv")


def trio_records() -> List[InstitutionRecord]:
    """The embedded three-university dataset as parsed records."""
    return parse_records(trio_csv())


@dataclass(frozen=True)
class TierRow:
    name: str
    tier: str
    z: float
    overall_rank: int
    within_rank: int


def china_tiers() -> Tuple[TierRow, ...]:
    """Published (name, tier, z, ranks) table for 203 Chinese universities."""
    reader = csv.DictReader(_read("china_tiers_z2020.csv").splitlines())
    return tuple(
        TierRow(
            name=row["name"],
            tier=row["tier"],
            z=float(row["z"]),
            overall_rank=int(row["overall_rank"]),
            within_rank=int(row["within_rank"]),
        )
        for row in reader
    )

