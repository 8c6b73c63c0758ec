import dataclasses

import pytest
from hypothesis import given, strategies as st

from ranksig.errors import (
    DuplicateRecord,
    InvariantViolation,
    MalformedRow,
    MissingInterval,
    NoMatch,
)
from ranksig.ingest import (
    MAX_COUNT,
    Counting,
    DatasetSelector,
    InstitutionRecord,
    dump_records,
    parse_records,
    select_records,
)

HEADER = "name,country,period,field,counting,p,t_top10,pp_top10,ci_lower,ci_upper"

TSINGHUA_ROW = "Tsinghua University,CN,2015-2018,All sciences,frac,19902,2738,0.1376,,"


def parse_rows(*rows, directive=None, header=HEADER, selector=None):
    lines = ([directive] if directive else []) + [header, *rows]
    return select_records(parse_records("\n".join(lines)), selector)


class TestParsing:
    def test_worked_example_row(self):
        (rec,) = parse_rows(TSINGHUA_ROW)
        assert rec.name == "Tsinghua University"
        assert rec.p == 19902.0
        assert rec.t_top10 == 2738.0
        assert rec.pp_top10 == 0.1376
        assert rec.ci_lower is None and rec.ci_upper is None

    def test_degenerate_institution_is_valid(self):
        (rec,) = parse_rows("Empty U,XX,2015-2018,All sciences,frac,0,0,0,,")
        assert rec.p == 0.0 and rec.t_top10 == 0.0 and rec.pp_top10 == 0.0

    def test_missing_top_count_column_reconstructs_t(self):
        header = "name,country,period,field,counting,p,pp_top10,ci_lower,ci_upper"
        (rec,) = parse_rows(
            "X,CN,2015-2018,All sciences,frac,1000,0.138,,", header=header
        )
        assert rec.t_top10 == pytest.approx(138.0)

    def test_empty_top_count_cell_reconstructs_t(self):
        (rec,) = parse_rows("X,CN,2015-2018,All sciences,frac,1000,,0.138,,")
        assert rec.t_top10 == pytest.approx(138.0)

    def test_percent_unit_directive(self):
        (rec,) = parse_rows(
            "X,CN,2015-2018,All sciences,frac,1000,138,13.8,12.9,14.6",
            directive="#pp_unit=percent",
        )
        assert rec.pp_top10 == pytest.approx(0.138)
        assert rec.ci_lower == pytest.approx(0.129)
        assert rec.ci_upper == pytest.approx(0.146)

    def test_fraction_directive_is_accepted(self):
        (rec,) = parse_rows(TSINGHUA_ROW, directive="#pp_unit=fraction")
        assert rec.pp_top10 == 0.1376

    def test_crlf_and_quoted_names(self):
        text = HEADER + "\r\n" + '"Foo, Bar University",US,2015-2018,F,full,10,1,0.1,,\r\n'
        (rec,) = parse_records(text)
        assert rec.name == "Foo, Bar University"
        assert rec.counting is Counting.FULL

    def test_bytes_input(self):
        text = HEADER + "\n" + TSINGHUA_ROW + "\n"
        (rec,) = parse_records(text.encode("utf-8"))
        assert rec.p == 19902.0


class TestMalformed:
    # text that gives no value is malformed; a value the record rejects
    # raises the record's own InvariantViolation, at the row's line
    @pytest.mark.parametrize("row, fragment, error", [
        ("X,CN,2015-2018,F,frac,abc,1,0.1,,", "not a number", MalformedRow),
        ("X,CN,2015-2018,F,frac,10,1,0.1,", "cells", MalformedRow),
        ("X,CN,2015-2018,F,sideways,10,1,0.1,,", "counting", MalformedRow),
        ("X,CN,2015-2018,F,frac,inf,1,0.1,,", "p must be a finite real", InvariantViolation),
        (",CN,2015-2018,F,frac,10,1,0.1,,", "empty name", InvariantViolation),
        ("X,CN,2015-2018,F,frac,10,1,nan,,", "pp_top10 must be a proportion", InvariantViolation),
        ("X,CN,2015-2018,F,frac,1e308,1,0.1,,", "ceiling", InvariantViolation),
        ("X,CN,2015-2018,F,frac,1e12,2e12,0.1,,", "t_top10 <= p", InvariantViolation),
    ])
    def test_bad_rows_raise_with_line_number(self, row, fragment, error):
        with pytest.raises(error) as err:
            parse_rows(row)
        assert err.value.line_no == 2
        assert fragment in str(err.value)

    def test_count_at_the_ceiling_is_accepted(self):
        (rec,) = parse_rows(f"X,CN,2015-2018,F,frac,{MAX_COUNT!r},{MAX_COUNT / 10!r},0.1,,")
        assert rec.p == MAX_COUNT

    def test_missing_header(self):
        with pytest.raises(MalformedRow):
            parse_records("")

    def test_unknown_header_column(self):
        with pytest.raises(MalformedRow, match="header"):
            parse_rows(header=HEADER.replace("country", "nation"))
        with pytest.raises(MalformedRow, match="unknown"):
            parse_rows(header=HEADER + ",extra")

    def test_out_of_order_header(self):
        cols = HEADER.split(",")
        cols[0], cols[1] = cols[1], cols[0]
        with pytest.raises(MalformedRow, match="order"):
            parse_rows(header=",".join(cols))

    def test_unknown_directive(self):
        with pytest.raises(MalformedRow):
            parse_rows(TSINGHUA_ROW, directive="#pp_unit=permille")

    def test_directive_without_equals_sign(self):
        with pytest.raises(MalformedRow, match="^line 1: unrecognized directive '#pp_unit'$"):
            parse_rows(TSINGHUA_ROW, directive="#pp_unit")

    @pytest.mark.parametrize("column, row", [
        ("country", "X,,2015-2018,All sciences,frac,1000,138,0.138,,"),
        ("p", "X,CN,2015-2018,All sciences,frac, ,138,0.138,,"),
        ("pp_top10", "X,CN,2015-2018,All sciences,frac,1000,138,,,"),
    ])
    def test_empty_required_cell(self, column, row):
        with pytest.raises(MalformedRow, match=rf"^line 3: column '{column}' is empty$"):
            parse_rows(TSINGHUA_ROW, row)

    def test_line_numbers_count_blank_lines_and_quoted_breaks(self):
        with pytest.raises(MalformedRow) as err:
            parse_rows('"Two\nLines U",CN,2015-2018,F,frac,10,1,0.1,,', "",
                       "X,CN,2015-2018,F,frac,abc,1,0.1,,", directive="#pp_unit=fraction")
        assert err.value.line_no == 6

    def test_overlong_field_is_a_malformed_row(self):
        # an unclosed quote runs to the end of the text
        with pytest.raises(MalformedRow, match="field limit"):
            parse_rows('"Unclosed U,CN,2015-2018,F,frac,10,1,0.1,,', "x" * 200_000)

    def test_non_utf8_bytes(self):
        with pytest.raises(MalformedRow, match="UTF-8"):
            parse_records(b"\xff\xfe\x00bad")

    def test_byte_order_mark_is_skipped(self):
        text = "\n".join([HEADER, TSINGHUA_ROW]).encode("utf-8")
        assert parse_records(b"\xef\xbb\xbf" + text) == parse_records(text)
        assert parse_records("\ufeff" + text.decode()) == parse_records(text)


class TestInvariants:
    @pytest.mark.parametrize("row", [
        "X,CN,2015-2018,F,frac,10,11,0.5,,",        # t > p
        "X,CN,2015-2018,F,frac,10,-1,0.1,,",        # t < 0
        "X,CN,2015-2018,F,frac,-5,0,0.1,,",         # p < 0
        "X,CN,2015-2018,F,frac,10,1,1.5,,",         # pp > 1
        "X,CN,2015-2018,F,frac,1000,100,0.1,0.2,0.3",   # lower > pp
        "X,CN,2015-2018,F,frac,1000,100,0.1,0.05,0.08",  # upper < pp
        "X,CN,2015-2018,F,frac,1000,100,0.1,0.08,",  # one-sided interval
        "X,CN,2015-2018,F,frac,1000,500,0.1,,",      # t inconsistent with pp*p
    ])
    def test_invalid_rows_always_raise(self, row):
        with pytest.raises((InvariantViolation, MalformedRow), match=r"^line 2: "):
            parse_rows(row)

    def test_t_consistency_tolerance_allows_rounding(self):
        # |2738 - 0.1376 * 19902| = 0.515, inside 0.5 + 0.005 * p
        (rec,) = parse_rows(TSINGHUA_ROW)
        assert rec.t_top10 == 2738.0

    def test_t_inconsistent_with_the_share_raises(self):
        # the rule a file row is held to holds for a record built in Python
        with pytest.raises(InvariantViolation, match=r"^X: t_top10=500.0 is inconsistent "
                                                     r"with pp_top10\*p=100.0000$"):
            InstitutionRecord(
                name="X", country="CN", period="p", field="f",
                counting=Counting.FULL, p=1000.0, t_top10=500.0, pp_top10=0.1,
            )

    def test_direct_construction_validates(self):
        with pytest.raises(InvariantViolation):
            InstitutionRecord(
                name="X", country="CN", period="p", field="f",
                counting=Counting.FULL, p=10.0, t_top10=20.0, pp_top10=0.5,
            )

    @staticmethod
    def record(p, t):
        return InstitutionRecord(
            name="Big U", country="CN", period="p", field="f",
            counting=Counting.FULL, p=p, t_top10=t, pp_top10=t / p,
        )

    # the record owns the ceiling, for rows read from files as for Python;
    # t_top10 <= p, so t_top10 can pass it only when p does
    @pytest.mark.parametrize("p, t", [(1e13, 1e12), (1e13, 1e13), (1e308, 1e307)],
                             ids=["p", "p and t_top10", "overflowing"])
    def test_count_past_the_ceiling_raises(self, p, t):
        with pytest.raises(InvariantViolation, match=r"^Big U: p=.* exceeds the ceiling"):
            self.record(p, t)

    def test_count_at_the_ceiling_is_accepted(self):
        rec = self.record(MAX_COUNT, MAX_COUNT)
        assert rec.p == rec.t_top10 == MAX_COUNT

    def test_replace_past_the_ceiling_raises(self):
        rec = self.record(1000.0, 100.0)
        with pytest.raises(InvariantViolation, match="ceiling"):
            dataclasses.replace(rec, p=1e308)

    def test_interval_accessor(self):
        (rec,) = parse_rows("X,CN,2015-2018,F,frac,1000,100,0.1,0.09,0.12")
        assert rec.interval() == (0.09, 0.12)
        (bare,) = parse_rows(TSINGHUA_ROW)
        with pytest.raises(MissingInterval):
            bare.interval()


class TestSelection:
    ROWS = [
        "A,CN,2015-2018,All sciences,frac,10,1,0.1,,",
        "B,US,2015-2018,All sciences,frac,10,1,0.1,,",
        "A,CN,2011-2014,All sciences,frac,20,2,0.1,,",
        "C,CN,2015-2018,All sciences,full,30,3,0.1,,",
    ]

    def test_selector_filters(self):
        recs = parse_rows(*self.ROWS, selector=DatasetSelector(period="2015-2018"))
        assert [r.name for r in recs] == ["A", "B", "C"]
        recs = parse_rows(*self.ROWS, selector=DatasetSelector(
            period="2015-2018", counting=Counting.FRACTIONAL,
            countries=frozenset({"CN"}),
        ))
        assert [r.name for r in recs] == ["A"]

    def test_no_match_raises(self):
        with pytest.raises(NoMatch):
            parse_rows(*self.ROWS, selector=DatasetSelector(period="1999-2002"))

    def test_identical_duplicate_keeps_first(self):
        recs = parse_rows(self.ROWS[0], self.ROWS[1], self.ROWS[0])
        assert [r.name for r in recs] == ["A", "B"]

    def test_conflicting_duplicate_raises(self):
        clash = "A,CN,2015-2018,All sciences,frac,99,9,0.0909,,"
        with pytest.raises(DuplicateRecord):
            parse_rows(self.ROWS[0], clash)

    def test_order_preserved(self):
        recs = parse_rows(*reversed(self.ROWS))
        assert [r.name for r in recs] == ["C", "A", "B", "A"][:len(recs)]


# --- round trip -----------------------------------------------------------

_name = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" ,'-\""),
    min_size=1, max_size=30,
).map(str.strip).filter(bool)


@st.composite
def _records(draw):
    p = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    pp = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    # any top count the record's tolerance around pp * p allows, clear of its
    # rounding edge, so the stored share need not be the count ratio
    band = 0.999 * (0.5 + 0.005 * p)
    t = min(p, max(0.0, pp * p + draw(st.floats(min_value=-band, max_value=band))))
    with_ci = draw(st.booleans())
    ci = None
    if with_ci:
        lo = draw(st.floats(min_value=0.0, max_value=pp, allow_nan=False))
        hi = draw(st.floats(min_value=pp, max_value=1.0, allow_nan=False))
        ci = (lo, hi)
    return InstitutionRecord(
        name=draw(_name),
        country=draw(st.sampled_from(["CN", "US", "DE", "JP"])),
        period=draw(st.sampled_from(["2015-2018", "2011-2014", "2006-2009"])),
        field=draw(st.sampled_from(["All sciences", "Physical sciences"])),
        counting=draw(st.sampled_from(list(Counting))),
        p=p,
        t_top10=t,
        pp_top10=pp,
        ci_lower=None if ci is None else ci[0],
        ci_upper=None if ci is None else ci[1],
    )


@given(st.lists(_records(), min_size=0, max_size=8, unique_by=lambda r: r.name))
def test_round_trip(records):
    parsed = parse_records(dump_records(records))
    assert parsed == records


@pytest.mark.parametrize("name", ["Uni\nY", "Uni\rY", "Uni\u2028Y", "Uni\x85Y", "Uni\x0cY"],
                         ids=repr)
def test_round_trip_of_line_breaks_in_names(name):
    rec = InstitutionRecord(name=name, country="CN", period="2015-2018", field="F",
                            counting=Counting.FULL, p=10.0, t_top10=1.0, pp_top10=0.1)
    assert parse_records(dump_records([rec])) == [rec]


def test_round_trip_of_parsed_records():
    from ranksig import data

    once = data.trio_records()
    again = parse_records(dump_records(once))
    assert again == once


def test_load_records_from_path(tmp_path):
    from ranksig.ingest import load_records

    path = tmp_path / "rows.csv"
    path.write_text(HEADER + "\n" + TSINGHUA_ROW + "\n", encoding="utf-8")
    (rec,) = load_records(path)
    assert rec.name == "Tsinghua University"


def test_load_records_names_the_file_of_an_invariant_error(tmp_path):
    from ranksig.ingest import load_records

    path = tmp_path / "inv.csv"
    path.write_text(HEADER + "\nA,CN,2015-2018,F,frac,100,150,1.5,,\n", encoding="utf-8")
    with pytest.raises(InvariantViolation) as caught:
        load_records(path)
    exc = caught.value
    assert exc.line_no == 2 and exc.reason.startswith(f"{path}: A: t_top10 must satisfy")
    assert str(exc) == f"line 2: {exc.reason}"


@given(st.lists(_records(), min_size=0, max_size=8, unique_by=lambda r: r.name))
def test_select_records_identity_without_selector(records):
    assert select_records(records) == list(records)


class TestLoadLabels:
    """``load_labels`` reads a name,category CSV as records are read."""

    def test_blank_rows_are_skipped(self, tmp_path):
        from ranksig.ingest import load_labels

        path = tmp_path / "labels.csv"
        path.write_text("name,category\n\nx1,cat\n , \n\r\nx2 , dog\nx1,cat\n", encoding="utf-8")
        assert load_labels(path) == {"x1": "cat", "x2": "dog"}

    @pytest.mark.parametrize("text, line, reason", [
        ("name,category\nx1,cat\n\nlonely\n", 4, "need name and category columns"),
        ("name,category\n\"x1\nx2\",cat\nlonely\n", 4, "need name and category columns"),
        ("", 1, "empty labels file"),
        ("name,category\n\n", 1, "no label rows"),
    ], ids=["short-row", "after-quoted-line-break", "empty", "header-only"])
    def test_bad_file_names_its_file_and_line(self, tmp_path, text, line, reason):
        from ranksig.ingest import load_labels

        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRow) as caught:
            load_labels(path)
        assert (caught.value.line_no, caught.value.reason) == (line, f"{path}: {reason}")

    def test_conflicting_categories_raise(self, tmp_path):
        from ranksig.ingest import load_labels

        path = tmp_path / "labels.csv"
        path.write_text("name,category\nx1,cat\nx2,dog\nx1,dog\n", encoding="utf-8")
        with pytest.raises(DuplicateRecord) as caught:
            load_labels(path)
        assert str(caught.value) == f"{path}: conflicting categories for 'x1'"
