"""Benchmark of the ranksig command line: two closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload full-edition-z --seed 1 --seconds 50 --trace 0

Each workload is one client that spawns one ``python -m ranksig.cli``
child at a time, with ``src`` on ``PYTHONPATH``, and starts the next call
only when the previous one has exited. Inputs are generated from
``--seed`` by ``gen.py``; the program sees only the generated CSV files.
Scratch files go to ``.bench_work/`` under the current directory.

``--trace 0`` measures the end-to-end metrics: it repeats whole passes of
the workload's calls for about ``--seconds`` (at least one pass), with one
``python -c "import ranksig.cli"`` spawn before each pass for ``setup_s``.
``--trace 1`` measures the per-layer metrics instead: it runs one pass
in-process through ``ranksig.cli.main`` untraced, then one pass traced
(see ``spans.py``), and reads import times from ``python -X importtime``.

Every call's outputs are checked against the library (``check.py``)
outside the timed region. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("full-edition-z", "interactive")
SETUP_SPAWNS = 5  # at least: one before each pass, the rest after the last
IMPORTTIME_SPAWNS = 3
CALL_TIMEOUT_S = 120.0

# name -> unit; the same names, units and order as in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "ingest.parse_records_s": "s",
    "ingest.rows_parsed": "count",
    "ingest.rows_per_s": "1/s",
    "ingest.select_records_s": "s",
    "ingest.records_selected": "count",
    "ingest.selected_ratio": "ratio",
    "stats.link_z_calls": "count",
    "stats.link_z_s": "s",
    "stats.ci_relation_calls": "count",
    "stats.ci_relation_s": "s",
    "stats.z_vs_expectation_calls": "count",
    "stats.z_vs_expectation_s": "s",
    "siggraph.build_graph_s": "s",
    "siggraph.build_graph_self_s": "s",
    "siggraph.pairs": "count",
    "siggraph.edges": "count",
    "siggraph.strong_edges": "count",
    "siggraph.edge_ratio": "ratio",
    "siggraph.pairs_per_s": "1/s",
    "siggraph.cluster_s": "s",
    "siggraph.weak_components_s": "s",
    "siggraph.modularity_s": "s",
    "siggraph.groups": "count",
    "siggraph.isolates": "count",
    "siggraph.largest_group": "count",
    "siggraph.rank_groups_s": "s",
    "export.render_graph_s": "s",
    "export.bytes_out": "B",
    "export.mb_per_s": "MB/s",
    "stats.chi_square_level_s": "s",
    "dynamics.bootstrap_interval_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Result:
    """One spawned call: wall seconds, peak RSS, exit code and output digest."""

    label: str
    wall: float
    rss_mib: float
    code: int
    digest: str


# ---------------------------------------------------------------- children

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RANKSIG_NO_COLOR"] = "1"
    return env


def spawn(args, work, stdout_path, stderr_path):
    """Run ``python <args>`` to completion: (wall seconds, peak RSS MiB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=_child_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _digest(work, call, stdout_path):
    h = hashlib.sha256(stdout_path.read_bytes())
    for name in call.outputs:
        path = work / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_call(call, work):
    stdout_path = work / f"{call.label}.stdout"
    wall, rss, code = spawn(("-m", "ranksig.cli", *call.argv), work,
                            stdout_path, work / f"{call.label}.stderr")
    return Result(call.label, wall, rss, code, _digest(work, call, stdout_path))


def setup_time(work):
    """Wall seconds of one ``import ranksig.cli`` spawn: the start-up every call pays."""
    out, err = work / "setup.stdout", work / "setup.stderr"
    wall, _, code = spawn(("-c", "import ranksig.cli"), work, out, err)
    if code != 0:
        raise RuntimeError(f"import ranksig.cli exited {code}: {err.read_text()}")
    return wall


def import_breakdown(work, n):
    """Median cumulative import seconds of ranksig.cli, scipy.stats and numpy."""
    args = ("-X", "importtime", "-c", "import ranksig.cli")
    out, err = work / "importtime.stdout", work / "importtime.stderr"
    samples = []
    for _ in range(n):
        spawn(args, work, out, err)
        samples.append(spans.parse_importtime(err.read_text(encoding="utf-8")))
    return {
        metric: statistics.median(s.get(module, 0.0) for s in samples)
        for metric, module in (("cli.import_s", "ranksig.cli"),
                               ("cli.import_scipy_s", "scipy.stats"),
                               ("cli.import_numpy_s", "numpy"))
    }


# ---------------------------------------------------------------- runs

def _problems_of(call, work, code, stdout):
    if code != 0:
        return [f"exit code {code}"]
    try:
        return call.check(stdout)
    except (OSError, ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
        return [f"output unreadable: {exc!r}"]


def measure(calls, work, seconds):
    """End-to-end run: repeat whole passes for about ``seconds``.

    An import spawn precedes every pass, so the ``setup_s`` samples are
    spread over the run as the calls are.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_time(work))
        passes.append([run_call(call, work) for call in calls])
        elapsed = time.perf_counter() - start
        # another pass only if it should end nearer ``seconds`` than this one
        if elapsed * (len(passes) + 0.5) / len(passes) > seconds:
            break
    while len(setups) < SETUP_SPAWNS:
        setups.append(setup_time(work))

    failed = 0
    last = {r.label: r for r in passes[-1]}
    for call in calls:
        stdout = (work / f"{call.label}.stdout").read_text(encoding="utf-8")
        problems = _problems_of(call, work, last[call.label].code, stdout)
        for problem in problems:
            print(f"check failed: {call.label}: {problem}")
        for p in passes:
            r = next(x for x in p if x.label == call.label)
            if problems or r.code != 0 or r.digest != last[call.label].digest:
                failed += 1
    walls = [r.wall for p in passes for r in p]
    metrics = {
        # the mean over the whole run, not a median of passes: on a shared
        # machine the processor's speed drifts in phases of tens of seconds,
        # and the mean integrates over every phase the run saw where a
        # median jumps between them
        "wall_s": sum(walls) / len(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.rss_mib for p in passes for r in p),
    }
    print(f"passes={len(passes)} calls={len(walls)} call_s="
          + ",".join(f"{w:.3f}" for w in walls))
    print(f"call_p50_s {statistics.median(walls):.6g} s (median of {len(walls)} calls)")
    print("setup_samples_s=" + ",".join(f"{w:.3f}" for w in setups))
    return len(walls), failed, metrics


def in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def traced(calls, work, spans_path):
    """Per-layer run: one untraced and one traced in-process pass of the calls."""
    import ranksig.cli as cli

    attempted = failed = 0
    untraced_s = traced_s = 0.0
    tracer = spans.Tracer()
    root = tracer.wrap("cli.main", cli.main)
    outcomes = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for call in calls:
            start = time.perf_counter()
            code, _ = in_process(cli.main, call.argv)
            untraced_s += time.perf_counter() - start
            attempted += 1
            failed += code != 0
        with spans.installed(tracer):
            for call in calls:
                start = time.perf_counter()
                outcomes.append(in_process(root, call.argv))
                traced_s += time.perf_counter() - start
                attempted += 1
    finally:
        os.chdir(cwd)
    tracer.dump(spans_path)

    # checks call library functions, so they run after the tracer is removed
    for call, (code, stdout) in zip(calls, outcomes):
        problems = _problems_of(call, work, code, stdout)
        for problem in problems:
            print(f"check failed: {call.label}: {problem}")
        failed += bool(problems)

    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    own = sum(spans.self_times(tracer.spans).values())
    if abs(own - metrics["cli.main_s"]) > 1e-6 * max(1.0, metrics["cli.main_s"]):
        print(f"check failed: span self times sum to {own}, cli.main_s is "
              f"{metrics['cli.main_s']}")
        failed += 1
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ranksig" / "cli.py").is_file():
        print(f"bench: no ranksig sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # needs ranksig on sys.path

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = WORKLOADS[args.workload](args.seed, work)

    if args.trace:
        metrics = import_breakdown(work, IMPORTTIME_SPAWNS)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        attempted, failed, layer = traced(calls, work, spans_path)
        metrics.update(layer)
        units = PER_LAYER
    else:
        attempted, failed, metrics = measure(calls, work, args.seconds)
        units = END_TO_END
        print(f"ops_failed {failed / attempted:.6g} ratio ({failed}/{attempted})")

    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in report.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
