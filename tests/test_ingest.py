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
    return parse_records("\n".join(lines), selector)


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
    @pytest.mark.parametrize("row, fragment", [
        ("X,CN,2015-2018,F,frac,abc,1,0.1,,", "not a number"),
        ("X,CN,2015-2018,F,frac,10,1,0.1,", "cells"),
        ("X,CN,2015-2018,F,sideways,10,1,0.1,,", "counting"),
        ("X,CN,2015-2018,F,frac,inf,1,0.1,,", "non-finite"),
        (",CN,2015-2018,F,frac,10,1,0.1,,", "empty"),
        ("X,CN,2015-2018,F,frac,10,1,nan,,", "non-finite"),
        ("X,CN,2015-2018,F,frac,1e308,1,0.1,,", "ceiling"),
        ("X,CN,2015-2018,F,frac,1e12,2e12,0.1,,", "ceiling"),
    ])
    def test_bad_rows_raise_with_line_number(self, row, fragment):
        with pytest.raises(MalformedRow) as err:
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
        with pytest.raises((InvariantViolation, MalformedRow)):
            parse_rows(row)

    def test_t_consistency_tolerance_allows_rounding(self):
        # |2738 - 0.1376 * 19902| = 0.515, inside 0.5 + 0.005 * p
        (rec,) = parse_rows(TSINGHUA_ROW)
        assert rec.t_top10 == 2738.0

    def test_direct_construction_validates(self):
        with pytest.raises(InvariantViolation):
            InstitutionRecord(
                name="X", country="CN", period="p", field="f",
                counting=Counting.FULL, p=10.0, t_top10=20.0, pp_top10=0.5,
            )

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
        t_top10=pp * p,
        pp_top10=pp,
        ci_lower=None if ci is None else ci[0],
        ci_upper=None if ci is None else ci[1],
    )


@given(st.lists(_records(), min_size=1, max_size=8, unique_by=lambda r: r.name))
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


@given(st.lists(_records(), min_size=1, max_size=8, unique_by=lambda r: r.name))
def test_select_records_identity_without_selector(records):
    assert select_records(records) == list(records)
