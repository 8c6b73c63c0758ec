"""In-memory spans around the library calls the CLI makes, and the per-layer report.

``installed(tracer)`` replaces the public names as ``ranksig.cli`` and
``ranksig.siggraph`` look them up (module attributes) with wrappers and
puts the originals back on exit; no file under ``src/`` changes. Each
span records its name, its parent span, start and end. Per-pair
functions (``link_z``, ``ci_relation``, ``z_vs_expectation``) would cost
more to record one by one than they cost to run, so they get one
aggregated span per parent holding a call count and the summed time.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root sum to the root's
duration.
"""

import contextlib
import importlib
import json
import time

# (module, attribute, span name): one span per call
SPANS = (
    ("ranksig.cli", "parse_records", "ingest.parse_records"),
    ("ranksig.cli", "select_records", "ingest.select_records"),
    ("ranksig.cli", "build_graph", "siggraph.build_graph"),
    ("ranksig.cli", "cluster", "siggraph.cluster"),
    ("ranksig.cli", "weak_components", "siggraph.weak_components"),
    ("ranksig.siggraph", "weak_components", "siggraph.weak_components"),
    ("ranksig.siggraph", "modularity", "siggraph.modularity"),
    ("ranksig.cli", "rank_groups", "siggraph.rank_groups"),
    ("ranksig.cli", "render_graph", "export.render_graph"),
    ("ranksig.stats", "chi_square_level", "stats.chi_square_level"),
    ("ranksig.dynamics", "bootstrap_interval", "dynamics.bootstrap_interval"),
)
# (module, attribute, span name): one aggregated span per parent
COUNTED = (
    ("ranksig.siggraph", "link_z", "stats.link_z"),
    ("ranksig.siggraph", "ci_relation", "stats.ci_relation"),
    ("ranksig.siggraph", "z_vs_expectation", "stats.z_vs_expectation"),
)


def _facts(name, args, result):
    """Counts recorded on a span, read from its arguments and result."""
    if name == "ingest.parse_records":
        return {"rows": len(result)}
    if name == "ingest.select_records":
        return {"selected": len(result)}
    if name == "siggraph.build_graph":
        n = len(args[0])
        return {
            "pairs": n * (n - 1) // 2,
            "edges": len(result.edges),
            "strong_edges": sum(1 for e in result.edges if e.strong),
        }
    if name == "siggraph.rank_groups":
        sizes = [len(t.rows) for t in result if not t.isolate]
        return {
            "groups": len(sizes),
            "isolates": sum(1 for t in result if t.isolate),
            "largest_group": max(sizes, default=0),
        }
    if name == "export.render_graph":
        return {"bytes_out": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Spans kept in memory: dicts with id, name, parent, start, end, calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = [None]
        self._counted = {}

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._stack[-1],
                    "calls": 1, "start": self.clock()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            span.update(_facts(name, args, result))
            return result
        return traced

    def count(self, name, fn):
        clock, stack, counted, spans = self.clock, self._stack, self._counted, self.spans

        def counted_call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (stack[-1], name)
                span = counted.get(key)
                if span is None:
                    span = {"id": len(spans), "name": name, "parent": stack[-1],
                            "calls": 0, "total": 0.0}
                    spans.append(span)
                    counted[key] = span
                span["calls"] += 1
                span["total"] += elapsed
        return counted_call

    def dump(self, path):
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


@contextlib.contextmanager
def installed(tracer):
    """Patch the traced names for the duration of the block."""
    saved = []
    try:
        for table, make in ((SPANS, tracer.wrap), (COUNTED, tracer.count)):
            for module_name, attr, span_name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def duration(span):
    return span["total"] if "total" in span else span["end"] - span["start"]


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_metrics(spans):
    """Per-layer metrics (name -> value) from one traced pass."""
    own = self_times(spans)
    total, self_total, calls, facts = {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + duration(s)
        self_total[name] = self_total.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + s["calls"]
        for key in ("rows", "selected", "pairs", "edges", "strong_edges",
                    "groups", "isolates", "bytes_out"):
            if key in s:
                facts[key] = facts.get(key, 0) + s[key]
        if "largest_group" in s:
            facts["largest_group"] = max(facts.get("largest_group", 0), s["largest_group"])

    def t(name):
        return total.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    rows, selected = facts.get("rows", 0), facts.get("selected", 0)
    pairs, edges = facts.get("pairs", 0), facts.get("edges", 0)
    out = {
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_total.get("cli.main", 0.0),
        "ingest.parse_records_s": t("ingest.parse_records"),
        "ingest.rows_parsed": rows,
        "ingest.rows_per_s": ratio(rows, t("ingest.parse_records")),
        "ingest.select_records_s": t("ingest.select_records"),
        "ingest.records_selected": selected,
        "ingest.selected_ratio": ratio(selected, rows),
    }
    for fn in ("link_z", "ci_relation", "z_vs_expectation"):
        out[f"stats.{fn}_calls"] = calls.get(f"stats.{fn}", 0)
        out[f"stats.{fn}_s"] = t(f"stats.{fn}")
    out.update({
        "siggraph.build_graph_s": t("siggraph.build_graph"),
        "siggraph.build_graph_self_s": self_total.get("siggraph.build_graph", 0.0),
        "siggraph.pairs": pairs,
        "siggraph.edges": edges,
        "siggraph.strong_edges": facts.get("strong_edges", 0),
        "siggraph.edge_ratio": ratio(edges, pairs),
        "siggraph.pairs_per_s": ratio(pairs, t("siggraph.build_graph")),
        "siggraph.cluster_s": t("siggraph.cluster"),
        "siggraph.weak_components_s": t("siggraph.weak_components"),
        "siggraph.modularity_s": t("siggraph.modularity"),
        "siggraph.groups": facts.get("groups", 0),
        "siggraph.isolates": facts.get("isolates", 0),
        "siggraph.largest_group": facts.get("largest_group", 0),
        "siggraph.rank_groups_s": t("siggraph.rank_groups"),
        "export.render_graph_s": t("export.render_graph"),
        "export.bytes_out": facts.get("bytes_out", 0),
        "export.mb_per_s": ratio(facts.get("bytes_out", 0) / 1e6, t("export.render_graph")),
        "stats.chi_square_level_s": t("stats.chi_square_level"),
        "dynamics.bootstrap_interval_s": t("dynamics.bootstrap_interval"),
    })
    return out


def parse_importtime(stderr):
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        name = name.strip()
        if cumulative.strip().isdigit() and name not in out:
            out[name] = int(cumulative) / 1e6
    return out
