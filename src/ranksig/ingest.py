"""Reading, validating, and selecting institution indicator records.

The input format is UTF-8 delimited text with a comma separator and the
header::

    name,country,period,field,counting,p,t_top10,pp_top10,ci_lower,ci_upper

An optional first line ``#pp_unit=percent`` (or ``#pp_unit=fraction``, the
default) declares the unit of ``pp_top10`` and the interval bounds; there
is no heuristic unit guessing. Empty cells mean an optional value is
absent. The ``t_top10``, ``ci_lower``, and ``ci_upper`` columns may be
omitted from the header entirely; a missing top count is reconstructed as
``pp_top10 * p``. LF and CRLF line endings and a leading byte-order mark
are accepted.

The reader turns text into values and ``InstitutionRecord`` judges them:
text that gives no value is a ``MalformedRow``; a value that breaks a record
invariant raises the record's own ``InvariantViolation``, with the line.
Counts are reals, as fractional counting gives partial publication credit.
A count above ``MAX_COUNT`` (10^12 publications, far beyond any real
edition) breaks an invariant: sums of such counts can overflow the
statistics downstream.
"""

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Union

from .errors import (
    DuplicateRecord,
    InvariantViolation,
    MalformedRow,
    MissingInterval,
    NoMatch,
)
from .export import csv_line

__all__ = [
    "Counting",
    "InstitutionRecord",
    "DatasetSelector",
    "parse_records",
    "load_records",
    "load_labels",
    "select_records",
    "dump_records",
    "MAX_COUNT",
]

_COLUMNS = (
    "name", "country", "period", "field", "counting",
    "p", "t_top10", "pp_top10", "ci_lower", "ci_upper",
)
_OPTIONAL_COLUMNS = frozenset({"t_top10", "ci_lower", "ci_upper"})

# Largest publication count (``p``, and so ``t_top10``) a record accepts.
MAX_COUNT = 1e12


class Counting(enum.Enum):
    """Publication counting rule used when the indicator file was built."""

    FRACTIONAL = "frac"
    FULL = "full"

    @classmethod
    def parse(cls, token: str) -> "Counting":
        t = token.strip().lower()
        if t in ("frac", "fractional"):
            return cls.FRACTIONAL
        if t == "full":
            return cls.FULL
        raise ValueError(f"unknown counting rule {token!r}")


@dataclass(frozen=True)
class InstitutionRecord:
    """One institution's indicator row for a given period/field/counting.

    ``p`` is the total publication count and ``t_top10`` the count of
    publications in the top-10% citation class; both are reals because
    fractional counting yields non-integer credit. ``pp_top10`` is the
    top-10% share as a proportion in [0, 1]. ``ci_lower``/``ci_upper``
    carry the stability interval when the source provides one.

    Instances are immutable and validated on construction, so they are
    safe to share across threads.
    """

    name: str
    country: str
    period: str
    field: str
    counting: Counting
    p: float
    t_top10: float
    pp_top10: float
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise InvariantViolation("record has an empty name")
        if not (math.isfinite(self.p) and self.p >= 0):
            raise InvariantViolation(f"{self.name}: p must be a finite real >= 0")
        # t_top10 <= p below, so this bounds both counts
        if self.p > MAX_COUNT:
            raise InvariantViolation(
                f"{self.name}: p={self.p} exceeds the ceiling of {MAX_COUNT:g}"
            )
        if not (math.isfinite(self.t_top10) and 0 <= self.t_top10 <= self.p):
            raise InvariantViolation(
                f"{self.name}: t_top10 must satisfy 0 <= t_top10 <= p "
                f"(got t_top10={self.t_top10}, p={self.p})"
            )
        if not (math.isfinite(self.pp_top10) and 0 <= self.pp_top10 <= 1):
            raise InvariantViolation(
                f"{self.name}: pp_top10 must be a proportion in [0, 1] "
                f"(got {self.pp_top10})"
            )
        # half a publication plus 0.5% of p absorbs rounding of published shares
        if abs(self.t_top10 - self.pp_top10 * self.p) > 0.5 + 0.005 * self.p:
            raise InvariantViolation(
                f"{self.name}: t_top10={self.t_top10} is inconsistent with "
                f"pp_top10*p={self.pp_top10 * self.p:.4f}"
            )
        if (self.ci_lower is None) != (self.ci_upper is None):
            raise InvariantViolation(
                f"{self.name}: interval bounds must be both present or both absent"
            )
        if self.ci_lower is not None:
            ok = (
                math.isfinite(self.ci_lower)
                and math.isfinite(self.ci_upper)
                and 0 <= self.ci_lower <= self.pp_top10 <= self.ci_upper <= 1
            )
            if not ok:
                raise InvariantViolation(
                    f"{self.name}: interval must satisfy "
                    f"0 <= lower <= pp_top10 <= upper <= 1 "
                    f"(got [{self.ci_lower}, {self.ci_upper}], pp={self.pp_top10})"
                )

    @property
    def has_interval(self) -> bool:
        return self.ci_lower is not None

    def interval(self) -> tuple:
        """Stability interval as a (lower, upper) pair.

        Raises MissingInterval when the source carried no bounds.
        """
        if self.ci_lower is None:
            raise MissingInterval(f"{self.name}: record has no stability interval")
        return (self.ci_lower, self.ci_upper)

    def key(self) -> tuple:
        """Deduplication key: (name, period, field, counting)."""
        return (self.name, self.period, self.field, self.counting)


@dataclass(frozen=True)
class DatasetSelector:
    """Subset selection over records; None fields match everything."""

    period: Optional[str] = None
    field: Optional[str] = None
    counting: Optional[Counting] = None
    countries: Optional[frozenset] = None

    def matches(self, rec: InstitutionRecord) -> bool:
        if self.period is not None and rec.period != self.period:
            return False
        if self.field is not None and rec.field != self.field:
            return False
        if self.counting is not None and rec.counting != self.counting:
            return False
        if self.countries is not None and rec.country not in self.countries:
            return False
        return True

    def describe(self) -> str:
        parts = []
        if self.period is not None:
            parts.append(f"period={self.period!r}")
        if self.field is not None:
            parts.append(f"field={self.field!r}")
        if self.counting is not None:
            parts.append(f"counting={self.counting.value}")
        if self.countries is not None:
            parts.append(f"countries={{{', '.join(sorted(self.countries))}}}")
        return ", ".join(parts) if parts else "<all records>"


def _as_text(source: Union[str, bytes, IO]) -> str:
    """The text of ``source`` without one leading byte-order mark (spreadsheets
    save "CSV UTF-8" with one); a bad byte is reported at its line."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            raise MalformedRow(line, f"input is not valid UTF-8: {exc}") from exc
    return source.removeprefix("\ufeff")


def _parse_float(line_no: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MalformedRow(line_no, f"column {column!r}: {cell!r} is not a number") from None


def parse_records(source: Union[str, bytes, IO]) -> list:
    """Parse indicator records from delimited text.

    Returns the records in input order (none for a header without data
    rows), deduplicated by (name, period, field, counting) keeping the
    first occurrence. Two rows with the same key must be identical;
    otherwise DuplicateRecord is raised. Use ``select_records`` to pick a subset.

    Raises:
        MalformedRow: a line breaks the schema (carries line number and reason).
        InvariantViolation: a row violates the record invariants ("line N: ...").
        DuplicateRecord: conflicting rows share a deduplication key.
    """
    text = _as_text(source)
    buf = io.StringIO(text, newline="")
    offset = 0
    percent = False
    if text.startswith("#"):
        offset = 1
        line = buf.readline().rstrip("\r\n")
        directive = line[1:].strip()
        key, _, value = directive.partition("=")
        if key.strip() != "pp_unit" or value.strip() not in ("fraction", "percent"):
            raise MalformedRow(1, f"unrecognized directive {line!r}")
        percent = value.strip() == "percent"

    rows = _rows(buf, offset)
    first = next(rows, None)
    if first is None:
        raise MalformedRow(offset + 1, "missing header row")
    line_no, header = first
    header = [h.strip() for h in header]
    _check_header(header, line_no)

    records = []
    for line_no, cells in rows:
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue  # a blank line
        if len(cells) != len(header):
            raise MalformedRow(
                line_no, f"expected {len(header)} cells, got {len(cells)}"
            )
        records.append(_build_record(dict(zip(header, cells)), line_no, percent))

    return select_records(records)


def _rows(buf: IO, offset: int):
    """(line number, cells) for each CSV row of ``buf``; the line is the row's last.

    One reader for the whole text, so a quoted field may hold any line break.
    """
    reader = csv.reader(buf)
    try:
        yield from ((offset + reader.line_num, cells) for cells in reader)
    except csv.Error as exc:
        raise MalformedRow(offset + reader.line_num, str(exc)) from None


def _check_header(header: list, line_no: int) -> None:
    missing = [c for c in _COLUMNS if c not in header and c not in _OPTIONAL_COLUMNS]
    if missing:
        raise MalformedRow(line_no, f"header is missing columns: {', '.join(missing)}")
    unknown = [c for c in header if c not in _COLUMNS]
    if unknown:
        raise MalformedRow(line_no, f"header has unknown columns: {', '.join(unknown)}")
    order = [c for c in _COLUMNS if c in header]
    if header != order:
        raise MalformedRow(line_no, "header columns are out of order")


def _build_record(cells: dict, line_no: int, percent: bool) -> InstitutionRecord:
    for col in ("country", "period", "field", "counting", "p", "pp_top10"):
        if not cells.get(col, "").strip():
            raise MalformedRow(line_no, f"column {col!r} is empty")

    try:
        counting = Counting.parse(cells["counting"])
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from None

    p = _parse_float(line_no, "p", cells["p"])
    pp = _parse_float(line_no, "pp_top10", cells["pp_top10"])
    scale = 0.01 if percent else 1.0
    pp *= scale

    t_cell = cells.get("t_top10", "").strip()
    t = _parse_float(line_no, "t_top10", t_cell) if t_cell else pp * p

    lo_cell = cells.get("ci_lower", "").strip()
    hi_cell = cells.get("ci_upper", "").strip()
    lo = _parse_float(line_no, "ci_lower", lo_cell) * scale if lo_cell else None
    hi = _parse_float(line_no, "ci_upper", hi_cell) * scale if hi_cell else None

    try:
        return InstitutionRecord(
            name=cells["name"].strip(),
            country=cells["country"].strip(),
            period=cells["period"].strip(),
            field=cells["field"].strip(),
            counting=counting,
            p=p,
            t_top10=t,
            pp_top10=pp,
            ci_lower=lo,
            ci_upper=hi,
        )
    except InvariantViolation as exc:
        # a name recurs once per slice, so the line is what locates the row
        raise InvariantViolation(exc.reason, line_no) from None


def select_records(
    records: Iterable[InstitutionRecord],
    selector: Optional[DatasetSelector] = None,
) -> list:
    """Apply a selector and deduplicate, preserving first-seen order.

    Raises NoMatch when a selector matches nothing (without one, no records
    give no records), DuplicateRecord on conflicting rows that share a key.
    """
    seen = {}
    out = []
    for rec in records:
        if selector is not None and not selector.matches(rec):
            continue
        key = rec.key()
        if key in seen:
            if seen[key] != rec:
                raise DuplicateRecord(
                    f"conflicting duplicate rows for {rec.name!r} "
                    f"(period={rec.period!r}, field={rec.field!r}, "
                    f"counting={rec.counting.value})"
                )
            continue
        seen[key] = rec
        out.append(rec)
    if not out and selector is not None:
        raise NoMatch(f"no records match selector: {selector.describe()}")
    return out


def _read_file(path, parse):
    """``parse`` over the open file at ``path``; an error located at a row names the file."""
    with open(path, "rb") as fh:
        try:
            return parse(fh)
        except (MalformedRow, InvariantViolation) as exc:
            raise type(exc)(line_no=exc.line_no, reason=f"{path}: {exc.reason}") from None


def load_records(path) -> list:
    """parse_records over a file path; an error located at a row names the file."""
    return _read_file(path, parse_records)


def load_labels(path) -> dict:
    """name -> category map from a CSV of name and category columns under a
    header row, read as records are: blank rows are skipped, an error located
    at a row (an empty name or category among them) names the file, and a
    name given two categories raises DuplicateRecord."""
    def parse(fh) -> dict:
        rows = _rows(io.StringIO(_as_text(fh), newline=""), 0)
        if next(rows, None) is None:
            raise MalformedRow(1, "empty labels file")
        labels: dict = {}
        for line_no, row in rows:
            if not "".join(row).strip():
                continue
            if len(row) < 2:
                raise MalformedRow(line_no, "need name and category columns")
            name, category = row[0].strip(), row[1].strip()
            if not (name and category):
                raise MalformedRow(line_no, "name and category must not be empty")
            if labels.setdefault(name, category) != category:
                raise DuplicateRecord(f"{path}: conflicting categories for {name!r}")
        if not labels:
            raise MalformedRow(1, "no label rows")
        return labels
    return _read_file(path, parse)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return repr(float(value))


def dump_records(records: Iterable[InstitutionRecord]) -> str:
    """Serialize records back to the input schema (pp_unit=fraction).

    Reals are written with full precision, so parsing the output yields
    field-identical records.
    """
    lines = [csv_line(_COLUMNS)]
    for rec in records:
        lines.append(csv_line((
            rec.name, rec.country, rec.period, rec.field, rec.counting.value,
            _fmt(rec.p), _fmt(rec.t_top10), _fmt(rec.pp_top10),
            _fmt(rec.ci_lower), _fmt(rec.ci_upper),
        )))
    return "".join(lines)
