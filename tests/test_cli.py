import argparse
import ast
import csv
import dataclasses
import gc
import importlib
import json
import math
import os
import pty
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ranksig
from ranksig import cli, dynamics, export
from ranksig.cli import main
from ranksig.errors import InvariantViolation
from ranksig.export import GRAPH_FORMATS, render_graph
from ranksig.ingest import dump_records, load_records
from ranksig.siggraph import build_graph

from conftest import make_record
from test_readme import BLOCKS as README_BLOCKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPairwise:
    def test_worked_example_report(self, capsys):
        code, out, err = run(
            capsys, "pairwise", "Tsinghua University", "Zhejiang University"
        )
        assert code == 0
        for fragment in (
            "2449.01", "71.80", "34.10", "4.79", "28.87", "4.05",
            "5.84", "-2.19", "-5.37", "2.01",
            "z (stored shares) = 8.470", "z (exact ratios)  = 8.474", "***",
        ):
            assert fragment in out, fragment

    def test_same_institution(self, capsys):
        code, out, _ = run(
            capsys, "pairwise", "Tsinghua University", "Tsinghua University"
        )
        assert code == 0
        assert "chi-square = 0.00" in out
        assert "z (stored shares) = 0.000" in out

    def test_unknown_institution_exit_2(self, capsys):
        code, out, err = run(capsys, "pairwise", "Tsinghua University", "Nowhere U")
        assert code == 2
        assert "Nowhere U" in err
        assert out == ""


class TestGroup:
    def test_fixture_grouping_csv(self, capsys, tmp_path):
        out_file = tmp_path / "groups.csv"
        code, out, err = run(capsys, "group", "--out", str(out_file))
        assert code == 0
        assert out == ""  # data went to the file, stdout stays clean
        rows = list(csv.DictReader(out_file.read_text().splitlines()))
        by_name = {r["name"]: r for r in rows}
        assert by_name["Tsinghua University"]["isolate"] == "true"
        assert by_name["Zhejiang University"]["group"] == by_name["Peking University"]["group"]
        assert by_name["Zhejiang University"]["within_group_rank"] == "1"
        assert by_name["Tsinghua University"]["overall_rank"] == "1"

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "group", "--out", str(a))
        run(capsys, "group", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dot_graph_round_trip(self, capsys, tmp_path):
        graph_file = tmp_path / "graph.dot"
        code, _, _ = run(
            capsys, "group", "--format", "dot", "--graph-out", str(graph_file),
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        text = graph_file.read_text()
        assert text.startswith("graph ") and text.rstrip().endswith("}")
        edges = re.findall(r'"([^"]+)" -- "([^"]+)"', text)
        assert edges == [("Peking University", "Zhejiang University")]
        nodes = re.findall(r'^  "([^"]+)" \[z=', text, flags=re.M)
        assert len(nodes) == 3

    # an existing file is matched on disk (a link to it too), a new one by its path
    @pytest.mark.parametrize("exists, graph_out", [
        (False, "same.csv"), (False, "./same.csv"), (False, "sub/../same.csv"),
        (True, "same.csv"), (True, "sub/../same.csv"), (True, "link.csv")])
    def test_out_and_graph_out_on_one_file_exit_2(self, capsys, tmp_path, monkeypatch,
                                                 exists, graph_out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        if exists:
            (tmp_path / "same.csv").write_text("kept\n")
            (tmp_path / "link.csv").symlink_to("same.csv")
        code, out, err = run(capsys, "group", "--out", "same.csv", "--graph-out", graph_out)
        assert (code, out) == (2, "")
        assert err == (f"ranksig: error: --out and --graph-out name the same file ('same.csv' "
                       f"and {graph_out!r}); the graph would replace the tier table\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["link.csv", "same.csv", "sub"] if exists else ["sub"])
        if exists:
            assert (tmp_path / "same.csv").read_text() == "kept\n"

    def test_out_and_graph_out_on_two_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text("old\n")
        (tmp_path / "g.csv").write_text("old\n")
        code, _, err = run(capsys, "group", "--out", "t.csv", "--graph-out", "g.csv",
                           "--format", "csv")
        assert code == 0 and err.endswith("wrote t.csv\nwrote g.csv\n")
        assert (tmp_path / "g.csv").read_text().startswith("source,target,z,strong\n")
        assert (tmp_path / "t.csv").read_text().startswith("group,")

    def test_ci_criterion_without_intervals_exit_2(self, capsys, tmp_path):
        bare = [make_record(name=f"U{i}", p=1000.0 + i, pp=0.1 + i / 100) for i in range(3)]
        path = tmp_path / "bare.csv"
        path.write_text(dump_records(bare))
        code, out, err = run(
            capsys, "group", "--input", str(path), "--criterion", "ci"
        )
        assert code == 2
        assert "interval" in err

    def test_modularity_grouping_flag(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, _, _ = run(
            capsys, "group", "--grouping", "modularity", "--seed", "7",
            "--out", str(out_file),
        )
        assert code == 0
        assert "Tsinghua University" in out_file.read_text()

    @pytest.mark.parametrize("grouping, value", [
        *(pytest.param("modularity", v, id=v) for v in ("nan", "inf", "-1")),
        *(pytest.param("components", v, id=f"components-{v}") for v in ("nan", "inf", "-1")),
    ])
    def test_resolution_outside_the_range_exit_2(self, capsys, tmp_path, grouping, value):
        out_file = tmp_path / "m.csv"
        code, out, err = run(capsys, "group", "--grouping", grouping,
                             "--resolution", value, "--out", str(out_file))
        assert code == 2
        assert err == ("ranksig: error: resolution must be a finite number >= 0 "
                       f"(got {float(value)!r})\n")
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("value", ["0", "0.5", "1"])
    def test_resolution_in_range_exit_0(self, capsys, tmp_path, value):
        out_file = tmp_path / "m.csv"
        code, _, _ = run(capsys, "group", "--grouping", "modularity",
                         "--resolution", value, "--out", str(out_file))
        assert code == 0
        assert "Tsinghua University" in out_file.read_text()


# (nation, level) of each institution of a two-nation edition, in name order
TWO_NATIONS = [
    (nation, level)
    for (nation, level), n in {
        ("China", "low"): 116, ("China", "middle"): 67,
        ("China", "high"): 21, ("China", "isolate"): 1,
        ("USA", "low"): 36, ("USA", "middle"): 60,
        ("USA", "high"): 99, ("USA", "isolate"): 2,
    }.items()
    for _ in range(n)
]


def _two_nation_labels(tmp_path, names):
    """country.csv and tier.csv labelling ``names`` as TWO_NATIONS does."""
    country_file = tmp_path / "country.csv"
    tier_file = tmp_path / "tier.csv"
    for path, column in ((country_file, 0), (tier_file, 1)):
        path.write_text("name,category\n" + "".join(
            f"{name},{labels[column]}\n" for name, labels in zip(names, TWO_NATIONS)))
    return country_file, tier_file


def _crosstab_labels(out):
    """The row and column labels of a compare report's cross-tabulation,
    without its margins."""
    lines = out.splitlines()
    start = lines.index("Cross-tabulation") + 1
    header, *rows, _ = (line.split() for line in lines[start:lines.index("", start)])
    return [row[0] for row in rows], header[1:-1]


class TestCompare:
    def test_two_nation_labels(self, capsys, tmp_path):
        country_file, tier_file = _two_nation_labels(
            tmp_path, [f"inst{i:03d}" for i in range(len(TWO_NATIONS))])

        code, out, _ = run(
            capsys, "compare",
            "--labels-a", str(country_file), "--labels-b", str(tier_file),
        )
        assert code == 0
        assert "chi-square = 93.40" in out
        assert "Cramer's V = 0.482" in out
        assert "***" in out

    def test_identical_groupings_give_v_one(self, capsys):
        code, out, _ = run(capsys, "compare", "--criterion-b", "ztest")
        assert code == 0
        assert "Cramer's V = 1.000" in out

    def test_disjoint_label_sets_exit_2(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("name,category\nx1,cat\nx2,dog\n")
        b.write_text("name,category\ny1,cat\ny2,dog\n")
        code, out, err = run(
            capsys, "compare", "--labels-a", str(a), "--labels-b", str(b)
        )
        assert code == 2
        assert "share no institutions" in err

    def test_one_country_is_named(self, capsys):
        # the embedded trio is all CN: the crosstab would be 1x2
        code, out, err = run(capsys, "compare", "--split-by-country")
        assert code == 2
        assert out == ""
        assert "the country labelling puts all 3 institutions in one country (CN)" in err
        assert "table must be" not in err

    def test_one_tier_under_both_criteria_is_named(self, capsys, tmp_path):
        # near-equal shares and overlapping intervals: one tier either way, a 1x1 crosstab
        recs = [
            make_record(name=f"U{i}", p=1000.0, pp=0.100 + i / 1000, ci=(0.08, 0.12))
            for i in range(4)
        ]
        path = tmp_path / "flat.csv"
        path.write_text(dump_records(recs))
        code, out, err = run(
            capsys, "compare", "--input", str(path), "--criterion", "ztest",
            "--criterion-b", "ci",
        )
        assert code == 2
        assert out == ""
        assert "the ztest grouping (--criterion ztest) puts all 4 institutions in one tier" in err
        assert "the ci grouping (--criterion-b ci) puts all 4 institutions in one tier" in err
        assert "--alpha" in err
        assert "table must be" not in err

    def test_split_by_country(self, capsys, tmp_path):
        recs = [
            make_record(name=f"CN{i}", country="CN", p=5000.0, pp=0.08 + i / 200)
            for i in range(3)
        ] + [
            make_record(name=f"US{i}", country="US", p=5000.0, pp=0.20 + i / 200)
            for i in range(3)
        ]
        path = tmp_path / "mix.csv"
        path.write_text(dump_records(recs))
        code, out, _ = run(capsys, "compare", "--input", str(path), "--split-by-country")
        assert code == 0
        assert "country" in out
        assert "Cramer's V = 1.000" in out  # tiers align perfectly with countries

    def test_labels_report_does_not_depend_on_names(self, capsys, tmp_path):
        names = [f"inst{i:03d}" for i in range(len(TWO_NATIONS))]
        reports = []
        for _ in range(2):
            country_file, tier_file = _two_nation_labels(tmp_path, names)
            code, out, _ = run(capsys, "compare", "--labels-a", str(country_file),
                               "--labels-b", str(tier_file))
            assert code == 0
            reports.append(out)
            random.Random(1).shuffle(names)
        assert reports[0] == reports[1]
        assert _crosstab_labels(reports[0]) == (
            ["China", "USA"], ["high", "isolate", "low", "middle"])
        assert reports[0].endswith("Spearman   = n/a (unordered categories)\n")

    @pytest.mark.parametrize("argv", [(), ("--split-by-country",)], ids=["tiers", "country"])
    def test_records_report_does_not_depend_on_names(self, capsys, tmp_path, argv):
        # four z tiers of three; the top two share one interval tier
        countries = "CN CN US CN US DE US DE DE US CN DE".split()
        names = [f"U{k:02d}" for k in range(len(countries))]
        reports = []
        for _ in range(2):
            records = []
            for k, (name, country) in enumerate(zip(names, countries)):
                pp = 0.08 + 0.04 * (k // 3) + 0.002 * (k % 3)
                width = 0.03 if k >= 9 else 0.01
                records.append(make_record(name=name, country=country, p=5000.0, pp=pp,
                                           ci=(pp - width, pp + width)))
            path = tmp_path / "edition.csv"
            path.write_text(dump_records(records))
            code, out, _ = run(capsys, "compare", "--input", str(path), *argv)
            assert code == 0
            reports.append(out)
            random.Random(2).shuffle(names)
        assert reports[0] == reports[1]
        # tiers are listed in tier order, countries by name
        tiers = ["tier1", "tier2", "tier3", "tier4"]
        assert _crosstab_labels(reports[0]) == (
            (tiers, tiers[:3]) if not argv else (["CN", "DE", "US"], tiers))
        assert reports[0].endswith("Spearman   = 0.949\n" if not argv
                                   else "Spearman   = n/a (unordered categories)\n")


class TestDecompose:
    def test_published_example(self, capsys):
        code, out, _ = run(capsys, "decompose", "9.81", "9.54", "9.03")
        assert code == 0
        assert "total change : 0.78" in out
        assert "(65.4%)" in out and "(34.6%)" in out

    def test_zero_change_flags_undefined(self, capsys):
        code, out, _ = run(capsys, "decompose", "5", "5", "5")
        assert code == 0
        assert "undefined" in out


class TestBootstrap:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "bootstrap", "--name", "Peking University",
            "--draws", "200", "--seed", "5",
        )
        assert code == 0
        assert "interval" in out and "draws=200" in out

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "bootstrap", "--name", "Missing U")
        assert code == 2 and "Missing U" in err


class TestZcurve:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "zcurve")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["institution"] for r in rows] == [
            "Tsinghua University", "Zhejiang University", "Peking University"
        ]
        assert [r["rank"] for r in rows] == ["1", "2", "3"]
        assert all(r["category"] == "CN" for r in rows)


class TestExport:
    def test_pajek_round_trip(self, capsys):
        code, out, _ = run(capsys, "export", "--format", "pajek")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "*Vertices 3"
        edge_at = lines.index("*Edges")
        vertex_ids = {}
        for line in lines[1:edge_at]:
            node_id, label = line.split(" ", 1)
            vertex_ids[int(node_id)] = label.strip('"')
        (edge_line,) = lines[edge_at + 1:]
        u, v, w = edge_line.split()
        assert {vertex_ids[int(u)], vertex_ids[int(v)]} == {
            "Peking University", "Zhejiang University"
        }
        assert float(w) == pytest.approx(0.5441, abs=1e-4)

    def test_vjson_schema(self, capsys):
        code, out, _ = run(capsys, "export", "--format", "vjson")
        assert code == 0
        doc = json.loads(out)
        items = doc["network"]["items"]
        links = doc["network"]["links"]
        assert {i["label"] for i in items} == {
            "Tsinghua University", "Peking University", "Zhejiang University"
        }
        assert all({"id", "label", "weight"} <= set(i) for i in items)
        (link,) = links
        assert {"source_id", "target_id", "strength"} <= set(link)
        assert link["strength"] >= 0

    def test_edge_csv(self, capsys):
        code, out, _ = run(capsys, "export", "--format", "csv")
        assert code == 0
        (row,) = list(csv.DictReader(out.splitlines()))
        assert row["source"] == "Peking University"
        assert row["strong"] == "false"


class TestOneSlice:
    """Records from two periods must not be mixed by any command."""

    @pytest.fixture
    def two_periods(self, tmp_path):
        trio = ranksig.data.trio_records()
        earlier = [dataclasses.replace(r, period="2014-2017") for r in trio]
        path = tmp_path / "two.csv"
        path.write_text(dump_records(trio + earlier))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("pairwise", "Tsinghua University", "Peking University"),
        ("group",),
        ("compare",),
        ("compare", "--split-by-country"),
        ("bootstrap", "--name", "Peking University", "--draws", "10"),
        ("zcurve",),
        ("export",),
    ])
    def test_mixed_slices_exit_2(self, capsys, two_periods, argv):
        code, out, err = run(capsys, *argv, "--input", two_periods)
        assert code == 2
        assert out == ""
        assert "span 2 slices" in err
        assert "--period, --field and --counting" in err
        assert "period='2014-2017', field='All sciences', counting=frac (3 records)" in err
        assert "period='2015-2018', field='All sciences', counting=frac (3 records)" in err

    def test_selected_slice_matches_embedded_run(self, capsys, two_periods):
        code, out, _ = run(capsys, "zcurve", "--input", two_periods, "--period", "2015-2018")
        assert code == 0
        assert out == run(capsys, "zcurve")[1]


class TestErrorPaths:
    def test_group_of_one_institution_exit_2(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(dump_records([make_record(name="A"),
                                      make_record(name="B", country="US")]))
        code, out, err = run(capsys, "group", "--input", str(path), "--countries", "CN")
        assert (code, out) == (2, "")
        assert err == ("ranksig: error: grouping needs at least two institutions "
                       "after selection\n")

    def test_header_only_file_contributes_nothing(self, capsys, tmp_path):
        trio, empty = tmp_path / "trio.csv", tmp_path / "empty.csv"
        trio.write_text(dump_records(ranksig.data.trio_records()))
        empty.write_text(dump_records([]))
        expected = run(capsys, "group", "--input", str(trio))
        assert expected[0] == 0
        for inputs in ((empty, trio), (trio, empty)):
            argv = [arg for path in inputs for arg in ("--input", str(path))]
            assert run(capsys, "group", *argv) == expected

    def test_missing_input_file_is_user_error(self, capsys):
        code, _, err = run(capsys, "group", "--input", "/nonexistent/file.csv")
        assert code == 2
        assert "file.csv" in err

    def test_empty_selection_exit_2(self, capsys, tmp_path):
        header_only = tmp_path / "header-only.csv"
        header_only.write_text(dump_records([]))
        # the selector is named part by part; a header-only input names no part
        for argv, desc in [
            (("--period", "1999-2002"), "period='1999-2002'"),
            (("--field", "Physics"), "field='Physics'"),
            (("--counting", "full"), "counting=full"),
            (("--period", "1999-2002", "--field", "Physics", "--counting", "frac",
              "--countries", "US,CN"),
             "period='1999-2002', field='Physics', counting=frac, countries={CN, US}"),
            (("--input", str(header_only)), "<all records>"),
        ]:
            code, out, err = run(capsys, "group", *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"ranksig: error: no records match selector: {desc}\n"

    @pytest.mark.parametrize("countries", ["", ","], ids=["empty", "comma"])
    def test_empty_country_list_matches_nothing(self, capsys, countries):
        code, out, err = run(capsys, "zcurve", "--countries", countries)
        assert (code, out) == (2, "")
        assert err == "ranksig: error: no records match selector: countries={}\n"

    # the reader turns text into values and the record judges them: a row's
    # value defect reads as building that record in Python does, after its
    # line and file
    @pytest.mark.parametrize("name, p, t, pp", [
        ("X", math.inf, 1.0, 0.1), ("", 10.0, 1.0, 0.1), ("X", 10.0, 1.0, math.nan),
        ("X", 1e308, 1.0, 0.1), ("X", 1e12, 2e12, 0.1),
    ], ids=["inf-p", "empty-name", "nan-pp", "p-past-ceiling", "t-past-ceiling"])
    def test_record_defect_in_a_file_reads_as_the_record(self, capsys, tmp_path,
                                                         name, p, t, pp):
        with pytest.raises(InvariantViolation) as built:
            make_record(name=name, p=p, t=t, pp=pp)
        path = tmp_path / "bad.csv"
        path.write_text(dump_records([make_record(name="A")]) +
                        f"{name},CN,2015-2018,All sciences,frac,{p!r},{t!r},{pp!r},,\n")
        code, out, err = run(capsys, "group", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"ranksig: error: line 3: {path}: {built.value}\n"

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        text = dump_records([make_record(name="A", pp=0.1), make_record(name="B", pp=0.2)])
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert run(capsys, "group", "--input", str(bom)) == (
            run(capsys, "group", "--input", str(plain)))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8").replace(b"\nB,", b"\nB\xff,"))
        code, out, err = run(capsys, "group", "--input", str(bom))
        assert (code, out) == (2, "")
        assert err.startswith(f"ranksig: error: line 3: {bom}: input is not valid UTF-8")

    def test_count_past_the_ceiling_exit_2(self, capsys, tmp_path):
        # p = 1e308 used to overflow the pair table's fsum: exit 1
        path = tmp_path / "huge.csv"
        path.write_text(
            "name,country,period,field,counting,p,t_top10,pp_top10,ci_lower,ci_upper\n"
            "A,CN,2015-2018,All sciences,frac,1e308,1e307,0.1,,\n"
            "B,CN,2015-2018,All sciences,frac,1e308,2e307,0.2,,\n"
        )
        code, out, err = run(capsys, "pairwise", "--input", str(path), "A", "B")
        assert code == 2
        assert "ceiling" in err and "internal error" not in err
        assert out == ""

    @pytest.mark.parametrize("pair, empty", [
        (("Z1", "Z2"), "Z1"),
        (("Peking University", "Z2"), "Z2"),
    ], ids=["both-empty", "one-empty"])
    def test_pairwise_names_the_empty_institution(self, capsys, tmp_path, pair, empty):
        path = tmp_path / "empty.csv"
        path.write_text(dump_records(ranksig.data.trio_records() + [
            make_record(name=name, p=0.0, t=0.0, pp=0.0) for name in ("Z1", "Z2")
        ]))
        code, out, err = run(capsys, "pairwise", "--input", str(path), *pair)
        assert code == 2
        assert err == f"ranksig: error: {empty}: institution has no publications\n"
        assert out == ""

    def test_non_utf8_input_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        text = dump_records([make_record(name="A"), make_record(name="B")])
        path.write_bytes(text.replace("B", "B\udcff").encode("utf-8", "surrogateescape"))
        code, out, err = run(capsys, "pairwise", "--input", str(path), "A", "B")
        assert code == 2
        assert err.startswith(f"ranksig: error: line 3: {path}: input is not valid UTF-8")
        assert out == ""

    # line 3 of the second file ends in a bad byte, or holds too few cells
    @pytest.mark.parametrize("fault, reason", [
        (b"\xff", "input is not valid UTF-8"), (b"", "expected 10 cells, got 1"),
    ], ids=["not-utf8", "short-row"])
    def test_second_input_file_is_named(self, capsys, tmp_path, fault, reason):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text(dump_records([make_record(name="A"), make_record(name="B")]))
        bad.write_bytes(dump_records([make_record(name="C")]).encode("utf-8")
                        + b"D" + fault + b"\n")
        code, out, err = run(capsys, "group", "--input", str(ok), "--input", str(bad))
        assert code == 2
        assert err.startswith(f"ranksig: error: line 3: {bad}: {reason}")
        assert out == ""

    def test_invariant_error_in_second_input_file_is_named(self, capsys, tmp_path):
        ok, bad = tmp_path / "ok.csv", tmp_path / "inv.csv"
        ok.write_text(dump_records([make_record(name="A"), make_record(name="B")]))
        # line 3 parses but breaks a record invariant: t_top10 > p
        bad.write_text(dump_records([make_record(name="C")])
                       + "D,CN,2015-2018,All sciences,frac,100,150,1.5,,\n")
        code, out, err = run(capsys, "group", "--input", str(ok), "--input", str(bad))
        assert code == 2
        assert err.startswith(f"ranksig: error: line 3: {bad}: D: t_top10 must satisfy")
        assert out == ""

    @pytest.mark.parametrize("fault, reason", [
        (b"\xff", "input is not valid UTF-8"), (b"", "need name and category columns"),
    ], ids=["not-utf8", "short-row"])
    def test_second_labels_file_is_named(self, capsys, tmp_path, fault, reason):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text("name,category\nx1,cat\nx2,dog\n")
        bad.write_bytes(b"name,category\nx1,cat\nx2" + fault + b"\n")
        code, out, err = run(capsys, "compare", "--labels-a", str(ok), "--labels-b", str(bad))
        assert code == 2
        assert err.startswith(f"ranksig: error: line 3: {bad}: {reason}")
        assert out == ""

    @pytest.mark.parametrize("labels, line", [
        (b"\xff\xfe", 1),
        (b'name,category\nx1,cat\n"' + b"a" * 140_000 + b"\n", 3),
        (b'name,category\n"Two\nLines U",cat\nlonely\n', 4),
        (b"name,category\nx1,cat\n,x\n", 3),
        (b"name,category\nx1,cat\nC, \n", 3),
    ], ids=["not-utf8", "overlong-field", "after-quoted-line-break", "empty-name",
            "empty-category"])
    def test_bad_labels_file_names_its_line(self, capsys, tmp_path, labels, line):
        bad, ok = tmp_path / "bad.csv", tmp_path / "ok.csv"
        bad.write_bytes(labels)
        ok.write_text("name,category\nx1,cat\nx2,dog\n")
        code, out, err = run(capsys, "compare", "--labels-a", str(bad), "--labels-b", str(ok))
        assert code == 2
        assert err.startswith(f"ranksig: error: line {line}: {bad}: ")
        assert out == ""

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "group", "--criterion", "astrology")
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (("--split-by-country",), "--split-by-country"),
        (("--input", "/nonexistent.csv"), "--input"),
        (("--period", "2015-2018"), "--period"),
        (("--field", "All sciences"), "--field"),
        (("--counting", "frac"), "--counting"),
        (("--countries", "CN"), "--countries"),
        (("--countries", "CN", "--input", "x.csv", "--split-by-country"),
         "--split-by-country, --input, --countries"),
        # an empty value is still a flag given
        (("--countries", ""), "--countries"),
        (("--period", ""), "--period"),
        (("--field", ""), "--field"),
    ], ids=["split-by-country", "input", "period", "field", "counting", "countries", "three",
            "countries-empty", "period-empty", "field-empty"])
    def test_labels_mode_rejects_record_flags(self, capsys, tmp_path, flags, named):
        labels = tmp_path / "labels.csv"
        labels.write_text("name,category\nx1,cat\nx2,dog\n")
        code, out, err = run(capsys, "compare", "--labels-a", str(labels),
                             "--labels-b", str(labels), *flags)
        assert code == 2
        assert err == ("ranksig: error: --labels-a and --labels-b compare two label files; "
                       f"they do not read {named}\n")
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (("decompose", "nan", "1", "2"), "decomposition inputs must be finite, got nan"),
        (("decompose", "inf", "1", "2"), "decomposition inputs must be finite, got inf"),
        (("bootstrap", "--name", "Peking University", "--draws", "0"),
         "draws must be >= 1, got 0"),
        (("bootstrap", "--name", "Peking University", "--draws", "10000001"),
         "draws must be at most 10000000, got 10000001"),
        (("bootstrap", "--name", "Peking University", "--draws", "1180591620717411303424"),
         "draws must be at most 10000000, got 1180591620717411303424"),
        (("decompose", "--", "1e308", "-1e308", "-1e308"),
         "the total change overflows (data effect inf, model effect 0)"),
        (("bootstrap", "--name", "Peking University", "--coverage", "1.5"),
         "coverage must lie in (0, 1), got 1.5"),
        (("compare", "--labels-a", "labels.csv"),
         "--labels-a and --labels-b must be given together"),
    ], ids=["decompose-nan", "decompose-inf", "bootstrap-draws", "bootstrap-draws-ceiling",
            "bootstrap-draws-huge", "decompose-overflow", "bootstrap-coverage",
            "compare-one-labels-file"])
    def test_bad_argument_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"ranksig: error: {message}\n"
        assert out == ""


_IO = ("-h", "--help", "--input", "--period", "--field", "--counting", "--countries", "--out")
_ANALYSIS = ("--criterion", "--alpha", "--proportions")

# every subcommand's option strings, in help order: a flag added to a shared
# parent parser shows up here
OPTIONS = {
    "pairwise": _IO,
    "group": _IO + _ANALYSIS + ("--resolution", "--seed", "--format", "--grouping",
                                "--graph-out"),
    "compare": _IO + _ANALYSIS + ("--criterion-b", "--labels-a", "--labels-b",
                                  "--split-by-country"),
    "decompose": ("-h", "--help", "--out"),
    "bootstrap": _IO + ("--name", "--draws", "--coverage", "--seed"),
    "zcurve": _IO,
    "export": _IO + _ANALYSIS + ("--format",),
}


class TestOptions:
    def test_option_table(self):
        (commands,) = (a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        assert {
            name: tuple(s for action in p._actions for s in action.option_strings)
            for name, p in commands.choices.items()
        } == OPTIONS

    def test_alpha_choices_are_the_ladder(self):
        """--alpha spells its choices out, so that decompose loads no stats;
        they are the ALPHA_THRESHOLDS alphas, in order."""
        from ranksig import stats
        (commands,) = (a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        for name in ("group", "compare", "export"):
            (alpha,) = (a for a in commands.choices[name]._actions
                        if "--alpha" in a.option_strings)
            assert list(alpha.choices) == [str(a) for a in stats.ALPHA_THRESHOLDS], name

    def test_copied_vocabularies_equal_their_owners(self):
        """Each choice list the parser spells out (so that parsing imports no
        numpy) is the vocabulary of the library code that reads it."""
        from ranksig.errors import InvalidStatistic
        from ranksig.ingest import Counting
        from ranksig.siggraph import Criterion
        from ranksig.stats import ALPHA_THRESHOLDS, link_z
        (commands,) = (a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        seen = {}
        for p in commands.choices.values():
            for action in p._actions:
                if action.choices is not None:
                    for option in action.option_strings:
                        seen.setdefault(option, set()).add(frozenset(action.choices))
        criteria = {c.value for c in Criterion}
        owners = {
            "--criterion": criteria,
            "--criterion-b": criteria,
            "--counting": {c.value for c in Counting},
            "--alpha": {str(a) for a in ALPHA_THRESHOLDS},
            "--proportions": {"stored", "exact"},
            "--format": set(GRAPH_FORMATS),
        }
        # --grouping names the two grouping functions, which have no such list
        assert set(seen) == set(owners) | {"--grouping"}
        for option, owner in owners.items():
            assert seen[option] == {frozenset(owner)}, option
        # the proportion modes are those that build_graph and link_z accept
        a, b = make_record(name="A"), make_record(name="B", pp=0.2)
        for mode in owners["--proportions"]:
            build_graph([a, b], proportions=mode)
            link_z(a, b, mode)
        for mode in ("", "Stored", "EXACT", "ratio", "stored "):
            for call in (lambda: build_graph([a, b], proportions=mode),
                         lambda: link_z(a, b, mode)):
                with pytest.raises(InvalidStatistic, match="unknown proportion mode"):
                    call()

    @pytest.mark.parametrize("argv", [
        ("compare", "--seed", "3"),
        ("compare", "--resolution", "2"),
        ("compare", "--format", "dot"),
        ("export", "--seed", "3"),
        ("export", "--resolution", "2"),
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert out == ""


class TestLineBreakInName:
    """A name holding a lone carriage return reads back whole from every CSV output."""

    NAME = "Uni\rY"

    @staticmethod
    def _edition(tmp_path, name):
        # Peking University is on the trio's only edge
        records = [dataclasses.replace(r, name=name) if r.name == "Peking University"
                   else r for r in ranksig.data.trio_records()]
        path = tmp_path / "cr.csv"
        path.write_text(dump_records(records), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def edition(self, tmp_path):
        return self._edition(tmp_path, self.NAME)

    @staticmethod
    def _rows(path, width):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [width] * len(rows)
        return rows[1:]

    def test_tier_and_edge_csv(self, capsys, tmp_path, edition):
        tiers, edges = tmp_path / "t.csv", tmp_path / "g.csv"
        code, _, _ = run(capsys, "group", "--input", edition, "--out", str(tiers),
                         "--graph-out", str(edges), "--format", "csv")
        assert code == 0
        assert self.NAME in [row[2] for row in self._rows(tiers, 6)]
        assert [row[:2] for row in self._rows(edges, 4)] == [[self.NAME, "Zhejiang University"]]

    def test_export_csv(self, capsys, tmp_path, edition):
        out = tmp_path / "x.csv"
        code, _, _ = run(capsys, "export", "--input", edition, "--format", "csv",
                         "--out", str(out))
        assert code == 0
        assert [row[:2] for row in self._rows(out, 4)] == [[self.NAME, "Zhejiang University"]]

    def test_zcurve_csv(self, capsys, tmp_path, edition):
        out = tmp_path / "z.csv"
        code, _, _ = run(capsys, "zcurve", "--input", edition, "--out", str(out))
        assert code == 0
        assert self.NAME in [row[2] for row in self._rows(out, 4)]

    @pytest.mark.parametrize("name, label", [(NAME, "Uni Y"), ("Uni\nA", "Uni A"),
                                             ("B\r\nX", "B  X")])
    def test_export_pajek(self, capsys, tmp_path, name, label):
        # a Pajek label is one line: a line break in it is written as a space
        out = tmp_path / "g.net"
        code, _, _ = run(capsys, "export", "--input", self._edition(tmp_path, name),
                         "--format", "pajek", "--out", str(out))
        assert code == 0
        lines = out.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == 1 + 3 + 1 + 1  # *Vertices, 3 vertices, *Edges, 1 edge
        assert (lines[0], lines[4]) == ("*Vertices 3", "*Edges")
        assert {line.split(" ", 1)[1] for line in lines[1:4]} == {
            f'"{label}"', '"Tsinghua University"', '"Zhejiang University"'}
        nx = pytest.importorskip("networkx")
        graph = nx.read_pajek(out)
        assert sorted(graph.nodes) == sorted([label, "Tsinghua University", "Zhejiang University"])
        assert [set(edge) for edge in graph.edges()] == [{label, "Zhejiang University"}]


def _child_env():
    """Environment of a new process that imports this checkout of ranksig."""
    src = str(Path(ranksig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _python(*args, cwd=None):
    """``python *args`` in a new process that imports this checkout of ranksig."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120,
    )


def _on_a_terminal(*argv, env):
    """stdout of ``ranksig *argv`` in a new process with environment ``env``
    whose stdout is a pseudo-terminal."""
    main_fd, child_fd = pty.openpty()
    try:
        try:
            # the trio's reports are far smaller than the terminal's buffer
            subprocess.run([sys.executable, "-m", "ranksig.cli", *argv], stdout=child_fd,
                           stderr=subprocess.DEVNULL, env=env, timeout=120, check=True)
        finally:
            os.close(child_fd)
        chunks = []
        while True:
            try:
                chunk = os.read(main_fd, 4096)
            except OSError:  # EIO: the terminal has no writer left
                break
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(main_fd)
    return b"".join(chunks)


def _piped(*argv, env):
    """stdout of ``ranksig *argv`` in a new process with environment ``env``."""
    result = subprocess.run([sys.executable, "-m", "ranksig.cli", *argv], env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestStdoutBytes:
    """A report is one byte string: the same on a terminal as in a pipe,
    whatever the environment, and UTF-8 whatever the locale."""

    @pytest.mark.parametrize("no_color", [None, "1"], ids=["unset", "no-color"])
    @pytest.mark.parametrize("argv", [
        ("group",),
        ("pairwise", "Peking University", "Zhejiang University"),
    ], ids=["group", "pairwise"])
    def test_terminal_bytes_are_the_pipe_bytes(self, argv, no_color):
        env = {k: v for k, v in _child_env().items() if k != "RANKSIG_NO_COLOR"}
        if no_color is not None:
            env["RANKSIG_NO_COLOR"] = no_color
        shown = _on_a_terminal(*argv, env=env)
        assert b"\x1b" not in shown
        # the terminal itself turns each \n into \r\n
        assert shown.replace(b"\r\n", b"\n") == _piped(*argv, env=env)

    NAMES = {"Peking University": "北京大学", "Zhejiang University": "Universität Zhejiang"}

    @pytest.mark.parametrize("argv", [
        ("group",),
        ("zcurve",),
        ("export", "--format", "csv"),
        ("pairwise", *NAMES.values()),
    ], ids=["group", "zcurve", "export", "pairwise"])
    def test_utf8_whatever_the_locale(self, tmp_path, argv):
        # the trio's only edge joins the two renamed institutions
        records = [dataclasses.replace(r, name=self.NAMES.get(r.name, r.name))
                   for r in ranksig.data.trio_records()]
        path = tmp_path / "names.csv"
        path.write_text(dump_records(records), encoding="utf-8")
        out = {encoding: _piped(*argv, "--input", str(path),
                                env={**_child_env(), "PYTHONIOENCODING": encoding})
               for encoding in ("ascii", "utf-8")}
        assert out["ascii"] == out["utf-8"]
        assert all(name.encode("utf-8") in out["ascii"] for name in self.NAMES.values())

    def test_closed_stdout_with_out_file(self, tmp_path):
        # the process starts with no stdout at all; the report goes to the file
        report = tmp_path / "report.txt"
        result = subprocess.run(
            [sys.executable, "-m", "ranksig.cli", "decompose", "9.81", "9.54", "9.03",
             "--out", str(report)],
            env=_child_env(), stderr=subprocess.PIPE, timeout=120,
            preexec_fn=lambda: os.close(1))
        assert result.returncode == 0, result.stderr
        assert report.read_text(encoding="utf-8").startswith("Change decomposition\n")


def _loaded_after(statement):
    """The names in sys.modules after ``statement`` runs in a new process."""
    script = (
        "import sys\n"
        f"{statement}\n"
        'print(" ".join(sys.modules))\n'
    )
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _main_exits_0(*argv):
    return f"from ranksig.cli import main; assert main({list(argv)!r}) == 0"


class TestStartup:
    def test_import_does_not_load_scipy(self):
        # importing scipy.stats took about 1.1 s of every CLI call
        assert "scipy" not in _loaded_after("import ranksig.cli")

    # importing numpy takes about 0.1-0.15 s, most of what is left of start-up;
    # commands that run no array code must not pay it
    @pytest.mark.parametrize("statement", [
        "import ranksig",
        "import ranksig.cli",
        _main_exits_0("pairwise", "Tsinghua University", "Zhejiang University"),
        _main_exits_0("decompose", "9.81", "9.54", "9.03"),
        _main_exits_0("zcurve"),
    ], ids=["import-ranksig", "import-cli", "pairwise", "decompose", "zcurve"])
    def test_numpy_not_loaded(self, statement):
        assert "numpy" not in _loaded_after(statement)

    # the same probe sees numpy where array code runs
    @pytest.mark.parametrize("statement", [
        _main_exits_0("bootstrap", "--name", "Peking University", "--draws", "10"),
        _main_exits_0("group"),
    ], ids=["bootstrap", "group"])
    def test_numpy_loaded_where_arrays_run(self, statement):
        assert "numpy" in _loaded_after(statement)

    # every command loads ranksig, cli, errors and export; the rest are
    # imported by the command that runs them
    @pytest.mark.parametrize("argv, modules", [
        (None, ()),
        (("decompose", "9.81", "9.54", "9.03"), ("dynamics",)),
        (("pairwise", "--input", "trio.csv", "Tsinghua University", "Zhejiang University"),
         ("ingest", "stats")),
        (("zcurve", "--input", "trio.csv"), ("ingest", "stats", "compare")),
        (("bootstrap", "--input", "trio.csv", "--name", "Peking University", "--draws", "10"),
         ("ingest", "dynamics")),
        (("group", "--input", "trio.csv"), ("ingest", "stats", "siggraph")),
        (("export", "--input", "trio.csv"), ("ingest", "stats", "siggraph")),
        (("compare", "--input", "trio.csv"), ("ingest", "stats", "siggraph", "compare")),
        (("group",), ("ingest", "stats", "siggraph", "data")),
    ], ids=["import-cli", "decompose", "pairwise", "zcurve", "bootstrap", "group", "export",
            "compare", "group-embedded"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, modules):
        (tmp_path / "trio.csv").write_text(ranksig.data.trio_csv(), encoding="utf-8")
        statement = "import ranksig.cli" if argv is None else _main_exits_0(*argv)
        loaded = _loaded_after(f"import os; os.chdir({str(tmp_path)!r}); {statement}")
        expected = {"ranksig", "ranksig.cli", "ranksig.errors", "ranksig.export"}
        assert {m for m in loaded if m.split(".")[0] == "ranksig"} == (
            expected | {f"ranksig.{m}" for m in modules})
        if argv is None:
            assert not loaded & {"dataclasses", "json", "hashlib", "numpy"}

    def test_import_ranksig_loads_no_submodule(self):
        loaded = _loaded_after("import ranksig")
        assert {m for m in loaded if m.split(".")[0] == "ranksig"} == {"ranksig"}


class TestProcessEntry:
    """A new process runs main with the cyclic collector off, then freezes
    the heap before the interpreter tears down; main itself changes neither,
    so in-process callers keep their collector as it was."""

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert main(["group"]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["group"]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_module_entry_freezes_after_main(self):
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,\n"
                  "                              'collector', gc.isenabled()))\n"
                  "sys.argv = ['ranksig', 'decompose', '9.81', '9.54', '9.03']\n"
                  "runpy.run_module('ranksig.cli', run_name='__main__')\n")
        result = _python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("frozen True collector False\n")

    # numpy's OpenBLAS starts one idle thread per core unless told otherwise
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_entry_runs_one_blas_thread_unless_the_user_sets_it(self):
        count = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), " \
                "len(os.listdir('/proc/self/task')))"
        script = ("import sys, ranksig.cli as cli\n"
                  "def main():\n"
                  f"    import numpy; {count}\n"
                  "cli.main = main\n"
                  "sys.exit(cli._entry())\n")
        def threads(setting, code):
            env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
            if setting is not None:
                env["OPENBLAS_NUM_THREADS"] = setting
            result = subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            return result.stdout
        assert threads(None, script) == "1 1\n"
        # a value the user set is kept: as many threads as numpy alone starts
        assert threads("2", script) == threads("2", f"import numpy; {count}")

    def test_large_graph_file_in_a_new_process(self, capsys, tmp_path, monkeypatch):
        records = [make_record(name=f"Univ {k:03d}", p=1000.0 + 7 * k, pp=0.1 + 1e-5 * (k % 97))
                   for k in range(540)]
        (tmp_path / "x.csv").write_text(dump_records(records), encoding="utf-8")
        def argv(tag):
            return ["group", "--input", "x.csv", "--out", f"t{tag}.csv",
                    "--graph-out", f"g{tag}.json", "--format", "vjson"]
        result = _python("-m", "ranksig.cli", *argv(""), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        graph = build_graph(load_records(tmp_path / "x.csv"))
        assert graph.edge_count > 32 * export._EDGE_BLOCK
        assert (tmp_path / "g.json").read_bytes() == render_graph(graph, "vjson").encode()
        # the same output as main in this process
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv("2"))
        assert (code, out, err.replace("2.", ".")) == (0, result.stdout, result.stderr)
        for name in ("t.csv", "g.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / name.replace(".", "2.")).read_bytes()


class TestTracedNames:
    """Library functions the CLI calls are looked up as attributes of ranksig.cli."""

    def test_wrappers_set_before_a_command_are_what_runs(self, capsys, monkeypatch):
        names = ("select_records", "build_graph", "cluster", "rank_groups")
        for name in names:  # as in a new process: nothing bound yet
            monkeypatch.delitem(vars(cli), name, raising=False)
        calls = []

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, wrap(name, getattr(cli, name)))
        code, out, _ = run(capsys, "group", "--grouping", "modularity")
        assert code == 0 and "== Group 1 ==" in out
        assert calls == list(names)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name


# the public names of ``ranksig``: each re-exported name and each submodule
PUBLIC_NAMES = sorted("""
    ALPHA_THRESHOLDS ChangeDecomposition ContingencyTable Counting Criterion DatasetSelector
    Direction GraphEdge GroupTable Grouping InstitutionRecord IntervalRelation
    RankedRow RanksigError RelationKind SeriesPoint SignificanceGraph SignificanceLevel
    StabilityInterval bootstrap_interval build_graph chi_square chi_square_level
    chi_square_terms ci_relation cluster compare cramers_v crosstab data decompose_change
    dump_records dynamics errors expected_table export ingest link_z load_records modularity
    pair_table parse_records phi rank_groups render_graph
    scores_by_category select_records siggraph significance_level spearman
    standardized_residuals stats threshold_for_alpha weak_components write_graph
    z_distribution_series z_two_proportions z_vs_expectation
""".split())
SUBMODULES = ("compare", "data", "dynamics", "errors", "export", "ingest", "siggraph", "stats")


def _in_new_process(script):
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _names_read(code, strings=False):
    """Each name a module loads or an attribute it names; with ``strings``, its
    string constants too."""
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


class TestPublicSurface:
    """``import ranksig`` loads submodules on first access; its public names stay the same."""

    def test_public_names_resolve(self):
        out = _in_new_process(
            "import ranksig\n"
            f"for name in {PUBLIC_NAMES!r}:\n"
            "    assert getattr(ranksig, name) is not None, name\n"
            "print(ranksig.__version__)\n"
        )
        assert out == "0.1.0\n"

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_is_an_attribute(self, name):
        out = _in_new_process(f"import ranksig\nprint(ranksig.{name}.__name__)\n")
        assert out == f"ranksig.{name}\n"

    def test_star_import_binds_the_public_names(self):
        out = _in_new_process(
            "ns = {}\n"
            "exec('from ranksig import *', ns)\n"
            "print(' '.join(sorted(k for k in ns if k != '__builtins__')))\n"
        )
        assert out.split() == PUBLIC_NAMES

    def test_dir_lists_the_public_names(self):
        out = _in_new_process("import ranksig\nprint(' '.join(dir(ranksig)))\n")
        assert set(PUBLIC_NAMES) <= set(out.split())

    def test_unknown_attribute(self):
        assert not hasattr(ranksig, "no_such_name")

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_star_import(self, name):
        # fails on an ``__all__`` entry that names something gone
        _in_new_process(f"from ranksig.{name} import *\n")

    def test_every_public_name_is_read(self):
        """A re-exported name that no library module, bench file or README
        example reads is surface nothing uses. bench/spans.py names the
        functions it wraps as strings, so bench strings count."""
        root = Path(__file__).resolve().parents[1]
        read = set()
        for path in (root / "src" / "ranksig").rglob("*.py"):
            read.update(_names_read(path.read_text(encoding="utf-8")))
        for path in (root / "bench").glob("*.py"):
            read.update(_names_read(path.read_text(encoding="utf-8"), strings=True))
        for code in README_BLOCKS:
            read.update(_names_read(code))
        exported = {name for names in ranksig._EXPORTS.values() for name in names}
        assert sorted(exported - read) == []

    def test_ladder_cuts_are_written_once(self):
        """The |z| cuts 1.96, 2.576 and 3.29 appear as literals in the package
        only in the one ALPHA_THRESHOLDS entry."""
        src = Path(__file__).resolve().parents[1] / "src" / "ranksig"
        cuts = {1.96, 2.576, 3.29}
        table, stray = [], []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {id(node) for owner in ast.walk(tree)
                      if isinstance(owner, ast.Assign)
                      and any(getattr(t, "id", None) == "ALPHA_THRESHOLDS" for t in owner.targets)
                      for node in ast.walk(owner)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                        and node.value in cuts:
                    where = f"{path.relative_to(src)}:{node.lineno}: {node.value!r}"
                    (table if id(node) in inside else stray).append(where)
        assert stray == []
        assert len(table) == len(cuts) and all(w.startswith("stats.py:") for w in table)

    def test_environment_is_read_only_by_the_process_entry(self):
        """No module of the package reads the process environment (``os.environ``
        or ``os.getenv``) outside ``cli._entry``, so no output byte depends on
        an environment variable."""
        src = Path(__file__).resolve().parents[1] / "src" / "ranksig"
        readers = {"environ", "environb", "getenv", "getenvb"}
        entry, stray = [], []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {id(node) for owner in tree.body
                      if path.name == "cli.py" and isinstance(owner, ast.FunctionDef)
                      and owner.name == "_entry"
                      for node in ast.walk(owner)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                where = [f"{path.relative_to(src)}:{node.lineno}: {n}"
                         for n in names if n in readers]
                (entry if id(node) in inside else stray).extend(where)
        assert stray == []
        assert len(entry) == 1 and entry[0].startswith("cli.py:")

    def test_no_private_name_crosses_a_module(self):
        """No module of the package imports a ``_`` name from another: a rule
        that two modules read is public in the module that owns it."""
        src = Path(__file__).resolve().parents[1] / "src" / "ranksig"
        crossing = [
            f"{path.relative_to(src)}:{node.lineno}: {alias.name}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "ranksig")
            for alias in node.names if alias.name.startswith("_")
        ]
        assert crossing == []

    def test_no_unused_import(self):
        """Every name a module of the package or of the tests imports is read
        in it, unless its line says ``# noqa: F401`` (a name looked up from
        outside, such as siggraph's ``ci_relation`` for the bench tracer)."""
        root = Path(__file__).resolve().parents[1]
        unused = []
        for path in sorted([*(root / "src" / "ranksig").rglob("*.py"),
                            *(root / "tests").glob("*.py")]):
            text = path.read_text(encoding="utf-8")
            lines, tree = text.splitlines(), ast.parse(text)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [
                f"{path.relative_to(root)}:{alias.lineno}: {bound}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names
                for bound in [alias.asname or alias.name.split(".")[0]]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]
            ]
        assert unused == []

    def test_numpy_is_the_only_run_time_dependency(self):
        """The package imports nothing outside the standard library but numpy,
        and pyproject.toml declares nothing else."""
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        allowed = set(sys.stdlib_module_names) | {"numpy", "ranksig"}
        foreign = []
        for path in sorted((root / "src" / "ranksig").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                foreign += [f"{path.name}:{node.lineno}: {m}" for m in modules
                            if m.split(".")[0] not in allowed]
        assert foreign == []
        project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
        declared = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
                    for dep in project["project"]["dependencies"]]
        assert declared == ["numpy"]

    def test_every_error_class_is_raised(self):
        """An exception or warning class of errors.py that no other module of
        the package raises (``raise X(``) or warns (``warn(..., X`` or
        ``warn(X(``) is dead."""
        src = Path(__file__).resolve().parents[1] / "src" / "ranksig"
        defined = {node.name for node in ast.parse((src / "errors.py").read_text("utf-8")).body
                   if isinstance(node, ast.ClassDef)}

        def name(node):
            return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

        used = set()
        for path in src.glob("*.py"):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    used.add(name(node.exc.func))
                elif isinstance(node, ast.Call) and name(node.func) == "warn" and node.args:
                    first, *rest = node.args
                    if isinstance(first, ast.Call):
                        used.add(name(first.func))
                    used.update(name(arg) for arg in rest)
        assert defined and sorted(defined - used) == []


class TestCountedWarnings:
    """Degenerate pairs are counted on one stderr line per kind."""

    @pytest.fixture
    def degenerate(self, tmp_path):
        # A, B and D publish no top-10% papers: each of their three pairs
        # has a pooled proportion of 0
        path = tmp_path / "degenerate.csv"
        path.write_text(dump_records([
            make_record(name="A", t=0.0, pp=0.0),
            make_record(name="B", t=0.0, pp=0.0),
            make_record(name="C", pp=0.2),
            make_record(name="D", t=0.0, pp=0.0),
        ]))
        return str(path)

    def test_degenerate_pool(self, tmp_path, degenerate):
        result = _python("-m", "ranksig.cli", "group", "--input", degenerate, cwd=tmp_path)
        assert result.returncode == 0
        assert result.stderr == (
            "4 institutions, 3 edges, 1 groups, 1 isolates\n"
            "ranksig: warning: 3 x DegeneratePoolWarning: pooled variance is 0: "
            "z defined as 0\n"
        )

    def test_degenerate_table_in_pairwise(self, tmp_path, degenerate):
        # the top10 column total is zero: the report keeps the observed
        # counts and both z lines, and says the chi-square test is undefined
        result = _python("-m", "ranksig.cli", "pairwise", "--input", degenerate, "A", "B",
                         cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout == (
            "Pairwise comparison: A vs B\n"
            "period=2015-2018  field=All sciences  counting=frac\n"
            "\n"
            "Observed counts\n"
            "observed  top10    other    total\n"
            "A          0.00  1000.00  1000.00\n"
            "B          0.00  1000.00  1000.00\n"
            "total      0.00  2000.00  2000.00\n"
            "\n"
            "chi-square test undefined: an expected count is zero\n"
            "\n"
            "Two-proportion z\n"
            "z (stored shares) = 0.000   (n.s.)\n"
            "z (exact ratios)  = 0.000   (n.s.)\n"
        )
        assert result.stderr == (
            "ranksig: warning: 2 x DegeneratePoolWarning: pooled variance is 0: "
            "z defined as 0\n"
        )

    def test_subnormal_counts_without_a_numpy_warning(self, tmp_path):
        # 1/p overflows for A and B: their own pools and their pair have
        # variance 0, and the overflow prints nothing
        (tmp_path / "tiny.csv").write_text(
            "name,country,period,field,counting,p,t_top10,pp_top10\n"
            "A,CN,2020,All,frac,5e-324,0,0\n"
            "B,CN,2020,All,frac,5e-324,0,0\n"
            "C,CN,2020,All,frac,50,5,0.1\n", encoding="utf-8")
        result = _python("-m", "ranksig.cli", "group", "--input", "tiny.csv", "--out", "t.csv",
                         cwd=tmp_path)
        assert result.returncode == 0
        assert result.stderr == (
            "3 institutions, 3 edges, 1 groups, 0 isolates\n"
            "wrote t.csv\n"
            "ranksig: warning: 3 x DegeneratePoolWarning: pooled variance is 0: "
            "z defined as 0\n"
        )

    def test_stderr_unchanged_without_degenerate_pairs(self, tmp_path):
        result = _python("-m", "ranksig.cli", "group", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stderr == "3 institutions, 1 edges, 1 groups, 1 isolates\n"

    def test_other_warnings_pass_through(self, capsys, monkeypatch):
        def cmd_zcurve(args):
            warnings.warn("unrelated", RuntimeWarning)
            return 0

        monkeypatch.setattr(cli, "cmd_zcurve", cmd_zcurve)
        with pytest.warns(RuntimeWarning, match="unrelated"):
            code, _, err = run(capsys, "zcurve")
        assert code == 0 and err == ""


class TestBenchTracerHooks:
    @pytest.fixture
    def spans(self, monkeypatch):
        bench = Path(__file__).resolve().parents[1] / "bench"
        if not (bench / "spans.py").is_file():
            pytest.skip("no bench/ directory in this tree")
        monkeypatch.syspath_prepend(str(bench))
        return importlib.import_module("spans")

    def test_traced_names_exist(self, spans):
        # bench/spans.py patches these (module, attribute) pairs; a missing
        # one makes ``bench/run.py --trace 1`` raise AttributeError
        for module_name, attr, _ in spans.SPANS + spans.COUNTED:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

    def test_facts_read_real_results(self, spans):
        # the counters ``--trace 1`` reports, read from what the library
        # returns: a change to those results must keep them readable
        from ranksig.siggraph import Criterion, rank_groups, weak_components
        # wide and narrow intervals in turn: some edges are containments
        records = [make_record(name=f"U{k}", p=1000.0 + 10 * k, pp=0.1 + 0.02 * k,
                               ci=(0.1 + 0.02 * k - w, 0.1 + 0.02 * k + w))
                   for k, w in enumerate([0.05, 0.01] * 3)]
        g = build_graph(records, criterion=Criterion.CI_OVERLAP)
        assert 0 < g.strong.sum() < g.edge_count
        assert spans._facts("siggraph.build_graph", (records,), g) == {
            "pairs": 15, "edges": g.edge_count, "strong_edges": g.strong.sum()}
        tables = rank_groups(g, weak_components(g))
        assert spans._facts("siggraph.rank_groups", (g,), tables) == {
            "groups": sum(not t.isolate for t in tables),
            "isolates": sum(t.isolate for t in tables),
            "largest_group": max(len(t.rows) for t in tables if not t.isolate),
        }
        assert spans._facts("ingest.parse_records", (), records) == {"rows": 6}
        assert spans._facts("ingest.select_records", (), records[:4]) == {"selected": 4}
        text = render_graph(g, "vjson")
        assert spans._facts("export.render_graph", (g, "vjson"), text) == {
            "bytes_out": len(text.encode("utf-8"))}


class TestDegeneratePool:
    """A pair whose pooled variance is 0 (a pool of 0 or 1, or one that underflows)
    gets z 0 and a counted warning."""

    WARNING = ("ranksig: warning: {} x DegeneratePoolWarning: pooled variance is 0: "
               "z defined as 0\n")

    # (t of D and E, their stored shares, their interval): no top-10% papers
    # on either side, or only those; the stored shares still differ
    @pytest.fixture(params=[(0.0, (0.04, 0.0), (0.0, 0.1)), (10.0, (1.0, 0.97), (0.9, 1.0))],
                    ids=["pool-0", "pool-1"])
    def edition(self, request, tmp_path, monkeypatch):
        t, shares, ci = request.param
        records = ranksig.data.trio_records() + [
            make_record(name=name, p=10.0, t=t, pp=pp, ci=ci) for name, pp in zip("DE", shares)
        ]
        (tmp_path / "x.csv").write_text(dump_records(records), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return t

    def test_group_joins_the_pair(self, capsys, edition):
        code, _, err = run(capsys, "group", "--input", "x.csv", "--out", "t.csv")
        assert code == 0
        assert err.endswith("wrote t.csv\n" + self.WARNING.format(1))
        with open("t.csv", encoding="utf-8", newline="") as fh:
            tier = {row[2]: row[0] for row in list(csv.reader(fh))[1:]}
        assert tier["D"] == tier["E"]

    @pytest.mark.parametrize("proportions", ["stored", "exact"])
    def test_export_edge_has_z_0(self, capsys, edition, proportions):
        code, out, err = run(capsys, "export", "--input", "x.csv", "--proportions", proportions)
        assert code == 0
        assert "D,E,0.0,false\n" in out
        assert err == self.WARNING.format(1)

    def test_pairwise(self, capsys, edition):
        code, out, err = run(capsys, "pairwise", "--input", "x.csv", "D", "E")
        assert code == 0
        assert "z (stored shares) = 0.000" in out and "z (exact ratios)  = 0.000" in out
        assert err == self.WARNING.format(2)

    def test_compare(self, capsys, edition):
        code, _, err = run(capsys, "compare", "--input", "x.csv")
        assert err.endswith(self.WARNING.format(2))
        if edition == 0.0:
            # D and E, without top-10% papers, chain the edition into one z tier
            assert code == 2 and "puts all 5 institutions in one tier" in err
        else:
            assert code == 0

    def test_pool_whose_variance_underflows(self, capsys, tmp_path, monkeypatch):
        # A and B pool to 5e-324, whose variance rounds to 0
        (tmp_path / "x.csv").write_text(
            "name,country,period,field,counting,p,t_top10,pp_top10\n"
            "A,CN,2020,All,frac,10,1e-322,0\n"
            "B,CN,2020,All,frac,10,0,0\n"
            "C,CN,2020,All,frac,50,5,0.1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for argv, count in ((("pairwise", "A", "B"), 2), (("group",), 1), (("export",), 1)):
            code, _, err = run(capsys, *argv, "--input", "x.csv")
            assert code == 0
            assert err.endswith(self.WARNING.format(count))
            assert err.count("ranksig: warning:") == 1

    def test_expected_cell_that_underflows(self, capsys, tmp_path, monkeypatch):
        # A's top count of 5e-324 makes a positive column total whose expected
        # cells round to 0; papers of 1e-300 make margins whose products all
        # round to 0. Chi-square is undefined, and the report still prints
        monkeypatch.chdir(tmp_path)
        for a, b in (("10,5e-324,0", "10,0,0"), ("1e-300,0,0", "1e-300,0,0")):
            (tmp_path / "x.csv").write_text(
                "name,country,period,field,counting,p,t_top10,pp_top10\n"
                f"A,CN,2020,All,frac,{a}\n"
                f"B,CN,2020,All,frac,{b}\n"
                "C,CN,2020,All,frac,50,5,0.1\n", encoding="utf-8")
            code, out, err = run(capsys, "pairwise", "--input", "x.csv", "A", "B")
            assert code == 0, err
            assert "\nchi-square test undefined: an expected count is zero\n" in out
            assert "z (stored shares) = 0.000" in out and "z (exact ratios)  = 0.000" in out
            assert err == self.WARNING.format(2)
            for argv in (("group",), ("export",)):
                code, _, err = run(capsys, *argv, "--input", "x.csv")
                assert code == 0
                assert err.endswith(self.WARNING.format(1))

    def test_pool_that_rounds_to_1(self, capsys, tmp_path, monkeypatch):
        # A and B pool to 1.0 while B's t / p stays below 1
        records = [make_record(name="A", p=10.0, t=10.0, pp=1.0),
                   make_record(name="B", p=10.0, t=math.nextafter(10.0, 0.0), pp=1.0),
                   make_record(name="C", p=50.0, t=5.0, pp=0.1)]
        (tmp_path / "x.csv").write_text(dump_records(records), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "group", "--input", "x.csv")
        assert code == 0
        assert err == "3 institutions, 1 edges, 1 groups, 1 isolates\n" + self.WARNING.format(1)
        code, out, err = run(capsys, "pairwise", "--input", "x.csv", "A", "B")
        assert code == 0
        assert "z (stored shares) = 0.000" in out and "z (exact ratios)  = 0.000" in out
        assert err == self.WARNING.format(2)


def _records_csv(rows):
    """Dumped records from (p, t fraction, share offset, with interval) rows,
    named U0, U1, ...; the stored share is t/p moved by the offset, which
    ingest's tolerance allows at every p."""
    records = []
    for k, (p, frac, offset, with_ci) in enumerate(rows):
        t = p * frac
        pp = min(1.0, max(0.0, (t / p if p else 0.0) + offset))
        ci = (max(0.0, pp - 0.05), min(1.0, pp + 0.05)) if with_ci else None
        records.append(make_record(name=f"U{k}", p=p, t=t, pp=pp, ci=ci))
    return dump_records(records)


EDITION_ROWS = st.lists(
    st.tuples(st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 10.0, 1e6)),
              st.sampled_from((0.0, 1.0, 0.5)), st.sampled_from((0.0, 0.004, -0.004)),
              st.booleans()),
    min_size=2, max_size=6,
)

EXIT_CALLS = [
    ("group", "--criterion", criterion, "--grouping", grouping, "--proportions", proportions)
    for criterion in ("ztest", "ci")
    for grouping in ("components", "modularity")
    for proportions in ("stored", "exact")
] + [("pairwise", "U0", "U1"), ("compare",), ("export",), ("zcurve",)]


class TestExitCodes:
    """Over generated editions, the CLI exits 0 or 2, never 1."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # two rows without top-10% papers whose margin products underflow
    @example(rows=[(1e-300, 0.0, 0.0, False), (1e-300, 0.0, 0.0, False)])
    @given(rows=EDITION_ROWS)
    def test_only_0_or_2(self, capsys, tmp_path, rows):
        path = tmp_path / "edition.csv"
        path.write_text(_records_csv(rows), encoding="utf-8")
        every_p_positive = all(row[0] > 0 for row in rows)
        for argv in EXIT_CALLS:
            code, _, err = run(capsys, *argv, "--input", str(path))
            assert code in (0, 2), (argv, err)
            if every_p_positive and argv[:3] in (("group", "--criterion", "ztest"),
                                                 ("pairwise", "U0", "U1"), ("export",)):
                assert code == 0, (argv, err)

    # draw counts stay small or above the ceiling, so no example allocates much
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draws=st.one_of(st.integers(max_value=10 ** 4),
                           st.integers(min_value=dynamics.MAX_DRAWS + 1)),
           coverage=st.floats(),
           values=st.lists(st.floats(min_value=-1e308, max_value=1e308),
                           min_size=3, max_size=3))
    def test_bootstrap_and_decompose_only_0_or_2(self, capsys, draws, coverage, values):
        code, _, err = run(capsys, "bootstrap", "--name", "Peking University",
                           f"--draws={draws}", f"--coverage={coverage!r}")
        assert code in (0, 2), err
        if 1 <= draws <= 10 ** 4 and 0 < coverage < 1:
            assert code == 0, err
        code, out, err = run(capsys, "decompose", "--", *map(repr, values))
        assert code in (0, 2), err
        if code == 0:
            assert "inf" not in out and "nan" not in out, out
