import argparse
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ranksig
from ranksig import cli
from ranksig.cli import main
from ranksig.ingest import dump_records

from conftest import make_record


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


class TestCompare:
    def test_two_nation_labels(self, capsys, tmp_path):
        country_file = tmp_path / "country.csv"
        tier_file = tmp_path / "tier.csv"
        counts = {
            ("China", "low"): 116, ("China", "middle"): 67,
            ("China", "high"): 21, ("China", "isolate"): 1,
            ("USA", "low"): 36, ("USA", "middle"): 60,
            ("USA", "high"): 99, ("USA", "isolate"): 2,
        }
        c_rows, t_rows = ["name,category"], ["name,category"]
        i = 0
        for (nation, level), n in counts.items():
            for _ in range(n):
                c_rows.append(f"inst{i:03d},{nation}")
                t_rows.append(f"inst{i:03d},{level}")
                i += 1
        country_file.write_text("\n".join(c_rows) + "\n")
        tier_file.write_text("\n".join(t_rows) + "\n")

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
    def test_missing_input_file_is_user_error(self, capsys):
        code, _, err = run(capsys, "group", "--input", "/nonexistent/file.csv")
        assert code == 2
        assert "file.csv" in err

    def test_empty_selection_exit_2(self, capsys):
        code, _, err = run(capsys, "group", "--period", "1999-2002")
        assert code == 2
        assert "no records match" in err

    def test_count_past_the_ceiling_exit_2(self, capsys, tmp_path):
        # p = 1e308 used to overflow the pair table's fsum: exit 1
        path = tmp_path / "huge.csv"
        path.write_text(dump_records([
            make_record(name="A", p=1e308, pp=0.1),
            make_record(name="B", p=1e308, pp=0.2),
        ]))
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

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "group", "--criterion", "astrology")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("decompose", "nan", "1", "2"), "decomposition inputs must be finite, got nan"),
        (("decompose", "inf", "1", "2"), "decomposition inputs must be finite, got inf"),
        (("bootstrap", "--name", "Peking University", "--draws", "0"),
         "draws must be >= 1, got 0"),
        (("bootstrap", "--name", "Peking University", "--coverage", "1.5"),
         "coverage must lie in (0, 1), got 1.5"),
        (("compare", "--labels-a", "labels.csv"),
         "--labels-a and --labels-b must be given together"),
    ], ids=["decompose-nan", "decompose-inf", "bootstrap-draws", "bootstrap-coverage",
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

    @pytest.fixture
    def edition(self, tmp_path):
        # Peking University is on the trio's only edge
        records = [dataclasses.replace(r, name=self.NAME) if r.name == "Peking University"
                   else r for r in ranksig.data.trio_records()]
        path = tmp_path / "cr.csv"
        path.write_text(dump_records(records), encoding="utf-8")
        return str(path)

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


def _python(*args, cwd=None):
    """``python *args`` in a new process that imports this checkout of ranksig."""
    src = str(Path(ranksig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["RANKSIG_NO_COLOR"] = "1"
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


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


# the names ``import ranksig`` exposed when it imported every submodule
PUBLIC_NAMES = sorted("""
    ALPHA_THRESHOLDS ChangeDecomposition ContingencyTable Counting Criterion DatasetSelector
    Direction GraphEdge GraphNode GroupTable Grouping IndicatorField InstitutionRecord
    IntervalRelation PairwiseTest RankedRow RanksigError RelationKind SeriesPoint
    SignificanceGraph SignificanceLevel StabilityInterval aligned_series bootstrap_interval
    build_graph chi_square chi_square_level chi_square_terms ci_relation cluster compare
    cramers_v crosstab crosstab_chi_square data decompose_change dump_records dynamics errors
    expected_table export ingest link_z load_records modularity pair_table pairwise_test
    parse_records phi pooled_proportion rank_groups render_graph scores_by_category
    select_records series_view siggraph significance_level spearman standardized_residuals
    stats threshold_for_alpha weak_components write_graph z_distribution_series
    z_two_proportions z_vs_expectation
""".split())
SUBMODULES = ("compare", "data", "dynamics", "errors", "export", "ingest", "siggraph", "stats")


def _in_new_process(script):
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    return result.stdout


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


class TestCountedWarnings:
    """Degenerate pairs and tables are counted on one stderr line per kind."""

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
            "ranksig: warning: 3 x DegeneratePoolWarning: identical proportions "
            "over a degenerate pool: z defined as 0\n"
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
            "chi-square test undefined: a row or column total is zero\n"
            "\n"
            "Two-proportion z\n"
            "z (stored shares) = 0.000   (n.s.)\n"
            "z (exact ratios)  = 0.000   (n.s.)\n"
        )
        assert result.stderr == (
            "ranksig: warning: 2 x DegeneratePoolWarning: identical proportions "
            "over a degenerate pool: z defined as 0\n"
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
    def test_traced_names_exist(self, monkeypatch):
        # bench/spans.py patches these (module, attribute) pairs; a missing
        # one makes ``bench/run.py --trace 1`` raise AttributeError
        bench = Path(__file__).resolve().parents[1] / "bench"
        if not (bench / "spans.py").is_file():
            pytest.skip("no bench/ directory in this tree")
        monkeypatch.syspath_prepend(str(bench))
        spans = importlib.import_module("spans")
        for module_name, attr, _ in spans.SPANS + spans.COUNTED:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


class TestDegeneratePool:
    """A pair whose pooled proportion is 0 or 1 gets z 0 and a counted warning."""

    WARNING = ("ranksig: warning: {} x DegeneratePoolWarning: identical proportions "
               "over a degenerate pool: z defined as 0\n")

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
    st.tuples(st.sampled_from((0.0, 0.5, 1.0, 3.0, 10.0, 1e6)),
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
