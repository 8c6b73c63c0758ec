"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ranksig import cli  # noqa: E402
from ranksig.data import trio_records  # noqa: E402
from ranksig.ingest import Counting, parse_records  # noqa: E402


def run_in_process(calls, work):
    """{label: (call, exit code, stdout)} for one in-process pass."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {c.label: (c, *run.in_process(cli.main, c.argv)) for c in calls}
    finally:
        os.chdir(cwd)


def problems(outcome):
    call, code, stdout = outcome
    assert code == 0
    return call.check(stdout)


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("make", [
    lambda seed: gen.single_slice(seed, 50),
    lambda seed: gen.single_slice(seed, 50, share_sd=0.02, elite=3),
    lambda seed: gen.multi_slice(seed, 6),
])
def test_generator_is_deterministic_and_valid(tmp_path, make):
    a = gen.write(tmp_path / "a.csv", make(5)).read_bytes()
    b = gen.write(tmp_path / "b.csv", make(5)).read_bytes()
    c = gen.write(tmp_path / "c.csv", make(6)).read_bytes()
    assert a == b
    assert a != c
    parsed = parse_records(a)
    assert parsed == make(5)
    assert all(r.has_interval and r.t_top10 >= 1 for r in parsed)


def test_multi_slice_layout():
    records = gen.multi_slice(1, 4)
    assert len(records) == 4 * len(gen.PERIODS) * len(gen.FIELDS) * 2
    assert len({r.key() for r in records}) == len(records)


# ---------------------------------------------------------------- checker

@pytest.fixture(scope="module")
def interactive(tmp_path_factory):
    work = tmp_path_factory.mktemp("interactive")
    return work, run_in_process(workloads.interactive(7, work), work)


def test_interactive_outputs_pass(interactive):
    _, outcomes = interactive
    for label, outcome in outcomes.items():
        assert problems(outcome) == [], label


def test_checker_flags_dropped_pajek_edge(interactive):
    work, outcomes = interactive
    path = work / "graph.net"
    clean = path.read_text()
    lines = clean.splitlines()
    try:
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert any("missing" in p for p in problems(outcomes["export-pajek"]))
    finally:
        path.write_text(clean)


def _edit_tiers(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def test_checker_flags_moved_tier_member(interactive):
    work, outcomes = interactive
    path = work / "tiers_z.csv"
    clean = path.read_text()

    def move(rows):  # last member of tier 1 joins the first isolate's group
        member = max((r for r in rows if r[0] == "1"), key=lambda r: int(r[5]))
        member[0] = next(r[0] for r in rows if r[1] == "true")
    try:
        _edit_tiers(path, move)
        assert problems(outcomes["group-ztest-components"])
    finally:
        path.write_text(clean)


def test_checker_flags_perturbed_z(interactive):
    work, outcomes = interactive
    path = work / "tiers_ci.csv"
    clean = path.read_text()

    def perturb(rows):
        rows[10][3] = repr(float(rows[10][3]) + 1e-12)
    try:
        _edit_tiers(path, perturb)
        assert any("z differs" in p for p in problems(outcomes["group-ci-modularity"]))
    finally:
        path.write_text(clean)


def test_checker_flags_wrong_report_lines():
    assert check.check_decompose("model effect : -0.51 (34.6%)\n", 9.81, 9.54, 9.03)
    assert check.check_pairwise("z (stored shares) = 0.000\n", trio_records(),
                                "Tsinghua University", "Zhejiang University")


@pytest.fixture(scope="module")
def small_edition(tmp_path_factory):
    work = tmp_path_factory.mktemp("edition")
    calls = workloads.full_edition_z(3, work, n=80)
    return work, run_in_process(calls, work)["group-ztest"]


def _edit_vjson(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["network"])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name,edit,expect", [
    ("dropped edge", lambda net: net["links"].pop(5), "missing"),
    ("perturbed strength",
     lambda net: net["links"][5].update(strength=net["links"][5]["strength"] * (1 + 1e-15)),
     "strengths differ"),
    ("perturbed weight",
     lambda net: net["items"][2].update(weight=net["items"][2]["weight"] + 1e-9),
     "node weights"),
])
def test_checker_flags_corrupted_vjson(small_edition, name, edit, expect):
    work, outcome = small_edition
    path = work / "graph.json"
    clean = path.read_text()
    assert problems(outcome) == []
    try:
        _edit_vjson(path, edit)
        assert any(expect in p for p in problems(outcome)), name
    finally:
        path.write_text(clean)


def test_checker_flags_rows_from_other_slices(tmp_path):
    records = gen.multi_slice(2, 40)
    gen.write(tmp_path / "download.csv", records)
    period, other = gen.PERIODS[-1], gen.PERIODS[-2]
    selected = [r for r in records if r.period == period and r.field == gen.FIELDS[0]
                and r.counting is Counting.FRACTIONAL]

    def tiers_of(p):
        argv = ("group", "--input", "download.csv", "--period", p, "--field", gen.FIELDS[0],
                "--counting", "frac", "--criterion", "ci", "--grouping", "modularity",
                "--out", f"tiers-{p}.csv")
        call = workloads.Call(p, argv, (), lambda _out: [])
        assert run_in_process([call], tmp_path)[p][1] == 0
        return check.read_tiers(tmp_path / f"tiers-{p}.csv")

    assert check.check_tiers(tiers_of(period), selected) == []
    assert any("z differs" in p for p in check.check_tiers(tiers_of(other), selected))


# ---------------------------------------------------------------- tracing

def test_self_times_sum_to_root():
    tracer = spans.Tracer(clock=iter(range(0, 100, 1)).__next__)

    def middle():
        for _ in range(3):
            counted()
        wrapped_leaf()

    counted = tracer.count("stats.link_z", lambda: 1)
    wrapped_leaf = tracer.wrap("siggraph.rank_groups", lambda: ())
    tracer.wrap("cli.main", tracer.wrap("siggraph.cluster", middle))()
    own = spans.self_times(tracer.spans)
    root = next(s for s in tracer.spans if s["parent"] is None)
    assert sum(own.values()) == spans.duration(root)
    agg = next(s for s in tracer.spans if s["name"] == "stats.link_z")
    assert agg["calls"] == 3


def test_importtime_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       880 |    1247964 |   ranksig\n"
            "import time:      7397 |    1255360 | ranksig.cli\n")
    assert spans.parse_importtime(text) == {"ranksig": 1.247964, "ranksig.cli": 1.25536}


# ---------------------------------------------------------------- names and output

def test_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layer = set(spans.layer_metrics([])) | {
        "cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s", "trace.overhead_s"}
    assert layer == set(run.PER_LAYER)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_run_prints_every_metric_of_its_mode(trace, names):
    proc = _bench(REPO, "--workload", "interactive", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(names)
    assert all(m["unit"] == names[k] for k, m in result["metrics"].items())


def test_fails_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "interactive", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
