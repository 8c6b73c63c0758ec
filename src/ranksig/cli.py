"""Command-line front end: ingestion -> statistics -> grouping -> export.

Subcommands: ``pairwise``, ``group``, ``compare``, ``decompose``,
``bootstrap``, ``zcurve``, ``export``. Without ``--input`` the embedded
three-university dataset is used, so every command runs out of the box.

Exit codes: 0 on success, 2 on user-input errors (bad files, unknown
institutions, empty selections, selections spanning more than one
(period, field, counting) slice), 1 on internal errors. Machine-readable
output goes to ``--out`` or stdout; log lines go to stderr, never mixed
into the data stream. Given identical inputs, flags, and seed, emitted
files are byte-identical across runs. A report is the same bytes whether
stdout is a terminal, a pipe or a file, and a process writes stdout as UTF-8
whatever the locale.

A command imports the library modules it runs when it runs: start-up
costs only this module, ``errors`` and ``export``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import (
    DegeneratePoolWarning, DegenerateTable, MixedSlices, NoMatch, RanksigError,
    UnknownInstitution, ZeroExpectedCell,
)
from .export import GRAPH_FORMATS, csv_line

if TYPE_CHECKING:
    from .ingest import InstitutionRecord
    from .siggraph import SignificanceGraph

__all__ = ["main"]

# Library functions the commands call, read from the package on first use. A
# wrapper set on one of these attributes before a command runs is what the
# command calls (bench/spans.py traces them so, parse_records and render_graph
# included).
_LIBRARY = frozenset({
    "load_records", "parse_records", "select_records", "build_graph", "cluster",
    "rank_groups", "weak_components", "render_graph", "write_graph",
})


def __getattr__(name):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(importlib.import_module(__package__), name))


def _bind(*names: str) -> None:
    """Bind library functions as globals of this module, keeping any already set."""
    for name in names:
        if name not in globals():
            __getattr__(name)


# ---------------------------------------------------------------- helpers

def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _grid(rows: List[List[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [c.rjust(widths[i]) for i, c in enumerate(row) if i > 0]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _load_records(args) -> List[InstitutionRecord]:
    from .ingest import Counting, DatasetSelector
    _bind("load_records", "select_records")
    countries = None
    if args.countries is not None:
        countries = frozenset(c.strip() for c in args.countries.split(",") if c.strip())
    counting = Counting.parse(args.counting) if args.counting else None
    selector = DatasetSelector(period=args.period, field=args.field, counting=counting,
                               countries=countries)
    if args.input:
        records = [rec for path in args.input for rec in load_records(path)]
    else:
        from . import data
        records = data.trio_records()
    return _one_slice(select_records(records, selector))


def _one_slice(records: List[InstitutionRecord]) -> List[InstitutionRecord]:
    """The selected records, provided they form one (period, field, counting) slice.

    Every command compares institutions within one edition: records from
    several slices would mix editions in one test or list an institution
    once per slice.
    """
    slices = Counter((r.period, r.field, r.counting.value) for r in records)
    if len(slices) > 1:
        listing = "".join(
            f"\n  period={period!r}, field={fld!r}, counting={counting} ({n} records)"
            for (period, fld, counting), n in sorted(slices.items())
        )
        raise MixedSlices(
            f"the selected records span {len(slices)} slices; pick one with "
            f"--period, --field and --counting:{listing}"
        )
    return records


def _find(records: List[InstitutionRecord], name: str) -> InstitutionRecord:
    for rec in records:
        if rec.name == name:
            return rec
    raise UnknownInstitution(f"unknown institution: {name!r}")


def _graph_for(args, records, criterion_token: str) -> SignificanceGraph:
    from . import stats
    from .siggraph import Criterion
    _bind("build_graph")
    return build_graph(
        records,
        criterion=Criterion(criterion_token),
        threshold=stats.threshold_for_alpha(float(args.alpha)),
        proportions=args.proportions,
    )


def _tiers(graph: SignificanceGraph) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Tier label of each name in the ranked weak components of ``graph``, and
    the rank of each label: tier1..tierK rank 1..K, isolate K + 1."""
    _bind("weak_components", "rank_groups")
    tables = rank_groups(graph, weak_components(graph))
    k = sum(not t.isolate for t in tables)
    labels: Dict[str, str] = {}
    ranks: Dict[str, int] = {}
    for t in tables:
        label, rank = ("isolate", k + 1) if t.isolate else (f"tier{t.group + 1}", t.group + 1)
        ranks[label] = rank
        labels.update(dict.fromkeys((row.name for row in t.rows), label))
    return labels, ranks


# ---------------------------------------------------------------- pairwise

def _matrix_grid(title_col: str, table, matrix=None) -> str:
    """``matrix`` under the labels of ``table``; without one, the table's own
    cells and margins."""
    margins = matrix is None
    rows = [[title_col, *table.cols] + (["total"] if margins else [])]
    if margins:
        matrix = [(*cells, total) for cells, total in zip(table.observed, table.row_totals)]
    rows += [[label, *(f"{x:.2f}" for x in cells)] for label, cells in zip(table.rows, matrix)]
    if margins:
        rows.append(["total", *(f"{x:.2f}" for x in (*table.col_totals, table.grand_total))])
    return _grid(rows)


def _marked(level) -> str:
    """A significance level as report text: ``<stars> (<label>)``."""
    return f"{level.stars} ({level.label})"


def cmd_pairwise(args) -> int:
    from . import stats
    records = _load_records(args)
    a = _find(records, args.a)
    b = _find(records, args.b)

    # before the table, so that an institution with no papers is named
    z_stored = stats.link_z(a, b, "stored")
    z_exact = stats.link_z(a, b, "exact")
    table = stats.pair_table(a, b)
    # an expected count of zero (no top-10% papers, or only those, on both
    # sides, or too few to survive rounding) leaves chi-square undefined; z
    # is defined as 0 as in group
    try:
        terms = stats.chi_square_terms(table)
        chi2 = stats.chi_square(table)
        resid = stats.standardized_residuals(table)
    except ZeroExpectedCell:
        chi_part = ["chi-square test undefined: an expected count is zero"]
    else:
        chi_level = stats.chi_square_level(chi2, (len(table.rows) - 1) * (len(table.cols) - 1))
        chi_part = [
            "Expected counts",
            _matrix_grid("expected", stats.expected_table(table)),
            "",
            "Chi-square contributions",
            _matrix_grid("chi2 term", table, terms),
            f"chi-square = {chi2:.2f}  {_marked(chi_level)}",
            "",
            "Standardized residuals",
            _matrix_grid("residual", table, resid),
        ]

    parts = [
        f"Pairwise comparison: {a.name} vs {b.name}",
        f"period={a.period}  field={a.field}  counting={a.counting.value}",
        "",
        "Observed counts",
        _matrix_grid("observed", table),
        "",
        *chi_part,
        "",
        "Two-proportion z",
        f"z (stored shares) = {z_stored:.3f}  {_marked(stats.significance_level(z_stored))}",
        f"z (exact ratios)  = {z_exact:.3f}  {_marked(stats.significance_level(z_exact))}",
    ]
    if a.has_interval and b.has_interval:
        rel = stats.ci_relation(a.interval(), b.interval())
        detail = rel.kind.value
        if rel.direction is not None:
            detail += f" ({rel.direction.value})"
        parts += [
            "",
            "Stability intervals",
            f"{a.name}: [{a.ci_lower:g}, {a.ci_upper:g}]",
            f"{b.name}: [{b.ci_lower:g}, {b.ci_upper:g}]",
            f"relation: {detail}",
        ]
    _emit("\n".join(parts) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- group

def _group_tables_csv(tables) -> str:
    lines = [csv_line(("group", "isolate", "name", "z", "overall_rank", "within_group_rank"))]
    for t in tables:
        isolate = "true" if t.isolate else "false"
        for row in t.rows:
            lines.append(csv_line((t.group + 1, isolate, row.name, repr(row.z),
                                   row.overall_rank, row.within_group_rank)))
    return "".join(lines)


def _group_tables_text(tables) -> str:
    parts = []
    for t in tables:
        title = f"Isolate (group {t.group + 1})" if t.isolate else f"Group {t.group + 1}"
        parts.append(f"== {title} ==")
        rows = [["name", "within", "overall", "z"]]
        for r in t.rows:
            rows.append([r.name, str(r.within_group_rank), str(r.overall_rank), f"{r.z:.3f}"])
        parts.append(_grid(rows))
        parts.append("")
    return "\n".join(parts)


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: one file on disk when both
    exist, else one normalised absolute path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.normcase(os.path.abspath(a)) == os.path.normcase(os.path.abspath(b))


def cmd_group(args) -> int:
    if args.out and args.graph_out and _same_file(args.out, args.graph_out):
        raise RanksigError(f"--out and --graph-out name the same file ({args.out!r} and "
                           f"{args.graph_out!r}); the graph would replace the tier table")
    from .siggraph import check_resolution
    check_resolution(args.resolution)  # under either grouping, before any work
    records = _load_records(args)
    if len(records) < 2:
        raise NoMatch("grouping needs at least two institutions after selection")
    graph = _graph_for(args, records, args.criterion)
    _bind("cluster", "weak_components", "rank_groups", "write_graph")
    if args.grouping == "modularity":
        grouping = cluster(graph, resolution=args.resolution, seed=args.seed)
    else:
        grouping = weak_components(graph)
    tables = rank_groups(graph, grouping)

    n_groups = sum(1 for t in tables if not t.isolate)
    n_isolates = sum(1 for t in tables if t.isolate)
    print(
        f"{len(records)} institutions, {graph.edge_count} edges, "
        f"{n_groups} groups, {n_isolates} isolates",
        file=sys.stderr,
    )

    _emit(_group_tables_csv(tables) if args.out else _group_tables_text(tables), args.out)

    if args.graph_out:
        write_graph(graph, args.format, args.graph_out)
        print(f"wrote {args.graph_out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- compare

def _tier_side(flag: str, token: str):
    """How a tier grouping is named when it has a single tier (see _two_categories)."""
    if token == "ztest":
        hint = ("another --alpha or the ci criterion may split it "
                "(a larger --alpha drops z edges)")
    else:
        hint = "the ztest criterion may split it (--alpha does not change interval edges)"
    return f"the {token} grouping ({flag} {token})", "tier", hint


def _two_categories(sides, shared) -> None:
    """Fail on a labelling that puts every shared institution in one category.

    ``sides`` holds (labels, what, unit, hint) for each labelling: the
    error names the labelling and says what could give it more categories.
    """
    single = []
    for labels, what, unit, hint in sides:
        cats = {labels[n] for n in shared}
        if len(cats) == 1:
            single.append(
                f"{what} puts all {len(shared)} institutions in one {unit} "
                f"({cats.pop()}); {hint}"
            )
    if single:
        raise DegenerateTable(
            "a cross-tabulation needs two categories on each side, but "
            + "; and ".join(single)
        )


def _compare_report(sides, ranks, heading) -> str:
    """The report on two labellings; ``ranks`` holds each side's category ->
    rank map, or None for a side whose categories have no order."""
    from . import compare as cmp_mod, stats
    (label_a, *_), (label_b, *_) = sides
    shared = sorted(set(label_a) & set(label_b))
    _two_categories(sides, shared)
    ct = cmp_mod.crosstab(label_a, label_b, ranks)
    chi2 = stats.chi_square(ct)
    dof = (len(ct.rows) - 1) * (len(ct.cols) - 1)
    level = stats.chi_square_level(chi2, dof)
    v = cmp_mod.cramers_v(ct)
    ph = cmp_mod.phi(ct)

    # only tiers are ordered: category codes would tie rho to the names
    if None in ranks:
        rho = "n/a (unordered categories)"
    else:
        # _two_categories has ruled out a constant side
        xs, ys = ([float(rank[labels[n]]) for n in shared]
                  for (labels, *_), rank in zip(sides, ranks))
        rho = f"{cmp_mod.spearman(xs, ys):.3f}"

    parts = [
        heading,
        f"{len(shared)} shared institutions",
        "",
        "Cross-tabulation",
        _matrix_grid("counts", ct),
        "",
        f"chi-square = {chi2:.2f} (dof = {dof})  {_marked(level)}",
        f"Cramer's V = {v:.3f}",
        f"phi        = {ph:.3f}",
        f"Spearman   = {rho}",
    ]
    return "\n".join(parts) + "\n"


# compare's flags that read records; a comparison of two label files reads none
_RECORD_FLAGS = ("split_by_country", "input", "period", "field", "counting", "countries")


def cmd_compare(args) -> int:
    if args.labels_a or args.labels_b:
        if not (args.labels_a and args.labels_b):
            raise RanksigError("--labels-a and --labels-b must be given together")
        unread = ["--" + dest.replace("_", "-") for dest in _RECORD_FLAGS
                  if getattr(args, dest) not in (None, False)]
        if unread:
            raise RanksigError(f"--labels-a and --labels-b compare two label files; "
                               f"they do not read {', '.join(unread)}")
        from .ingest import load_labels
        sides = [
            (load_labels(path), f"{flag} {path}", "category", "give it two or more")
            for flag, path in (("--labels-a", args.labels_a), ("--labels-b", args.labels_b))
        ]
        ranks = (None, None)
        heading = f"Association: {args.labels_a} vs {args.labels_b}"
    elif args.split_by_country:
        records = _load_records(args)
        tiers, tier_ranks = _tiers(_graph_for(args, records, args.criterion))
        sides = [
            ({r.name: r.country for r in records}, "the country labelling", "country",
             "--split-by-country needs records from two or more countries"),
            (tiers, *_tier_side("--criterion", args.criterion)),
        ]
        ranks = (None, tier_ranks)
        heading = f"Association: country vs {args.criterion} tiers"
    else:
        records = _load_records(args)
        (tiers_a, ranks_a), (tiers_b, ranks_b) = (
            _tiers(_graph_for(args, records, token))
            for token in (args.criterion, args.criterion_b)
        )
        sides = [
            (tiers_a, *_tier_side("--criterion", args.criterion)),
            (tiers_b, *_tier_side("--criterion-b", args.criterion_b)),
        ]
        ranks = (ranks_a, ranks_b)
        heading = f"Association: {args.criterion} tiers vs {args.criterion_b} tiers"
    _emit(_compare_report(sides, ranks, heading), args.out)
    return 0


# ---------------------------------------------------------------- decompose

def cmd_decompose(args) -> int:
    from . import dynamics
    d = dynamics.decompose_change(args.reported_old, args.reconstructed_old, args.current)

    def share(s: Optional[float]) -> str:
        return "undefined" if s is None else f"{100.0 * s:.1f}%"

    parts = [
        "Change decomposition",
        f"reported old value      : {d.reported_old:g}",
        f"reconstructed old value : {d.reconstructed_old:g}",
        f"current value           : {d.current:g}",
        "",
        f"total change : {d.total:g}",
        f"data effect  : {d.data_effect:g} ({share(d.data_share)})",
        f"model effect : {d.model_effect:g} ({share(d.model_share)})",
    ]
    _emit("\n".join(parts) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- bootstrap

def cmd_bootstrap(args) -> int:
    from . import dynamics
    records = _load_records(args)
    rec = _find(records, args.name)
    interval = dynamics.bootstrap_interval(
        rec, draws=args.draws, coverage=args.coverage, seed=args.seed
    )
    parts = [
        f"Stability interval: {rec.name}",
        f"point estimate : {interval.point:g}",
        f"interval       : [{interval.lower:g}, {interval.upper:g}]",
        f"width          : {interval.width:g}",
        f"draws={interval.draws}  coverage={interval.coverage:g}  seed={interval.seed}",
    ]
    _emit("\n".join(parts) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- zcurve

def cmd_zcurve(args) -> int:
    from . import compare as cmp_mod
    records = _load_records(args)
    series = cmp_mod.z_distribution_series(cmp_mod.scores_by_category(records))
    lines = [csv_line(("category", "rank", "institution", "z"))]
    for category in sorted(series):
        for point in series[category]:
            lines.append(csv_line((category, point.rank, point.name, repr(point.z))))
    _emit("".join(lines), args.out)
    return 0


# ---------------------------------------------------------------- export

def cmd_export(args) -> int:
    records = _load_records(args)
    graph = _graph_for(args, records, args.criterion)
    _bind("write_graph")
    write_graph(graph, args.format, args.out or None)
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument(
        "--input", action="append", metavar="PATH",
        help="indicator CSV file; repeatable; embedded dataset when omitted",
    )
    io_flags.add_argument("--period", help="select records with this period label")
    io_flags.add_argument("--field", help="select records with this field label")
    io_flags.add_argument("--counting", choices=("frac", "full"),
                          help="select records with this counting rule")
    io_flags.add_argument("--countries", metavar="CC[,CC...]",
                          help="select records from these country codes")
    io_flags.add_argument("--out", metavar="PATH",
                          help="write output here instead of stdout")

    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--criterion", choices=("ztest", "ci"), default="ztest",
                          help="edge criterion (default: ztest)")
    analysis.add_argument("--alpha", choices=("0.05", "0.01", "0.001"), default="0.01",
                          help="significance level for the z threshold (default: 0.01)")
    analysis.add_argument("--proportions", choices=("stored", "exact"), default="stored",
                          help="feed stored shares or exact t/p ratios into the z-test")
    graph_format = dict(choices=GRAPH_FORMATS, default="csv",
                        help="graph file format (default: csv edge list)")

    parser = argparse.ArgumentParser(
        prog="ranksig",
        description="Significance testing and tier grouping for institutional rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairwise", parents=[io_flags],
                       help="full worked comparison of two institutions")
    p.add_argument("a", metavar="NAME_A")
    p.add_argument("b", metavar="NAME_B")
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("group", parents=[io_flags, analysis],
                       help="build the significance graph and rank its tiers")
    p.add_argument("--resolution", type=float, default=1.0,
                   help="modularity resolution, a finite number >= 0 (default: 1.0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the clustering node order (default: 0)")
    p.add_argument("--format", **graph_format)
    p.add_argument("--grouping", choices=("components", "modularity"),
                   default="components",
                   help="weak components (default) or modularity clustering")
    p.add_argument("--graph-out", metavar="PATH",
                   help="also write the graph itself in --format")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("compare", parents=[io_flags, analysis],
                       help="cross-tabulate two groupings or labelings")
    p.add_argument("--criterion-b", choices=("ztest", "ci"), default="ci",
                   help="second grouping criterion (default: ci)")
    p.add_argument("--labels-a", metavar="PATH", help="name,category CSV")
    p.add_argument("--labels-b", metavar="PATH", help="name,category CSV")
    p.add_argument("--split-by-country", action="store_true",
                   help="compare country labels against the tier grouping")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("decompose", parents=[],
                       help="split an indicator change into data and model effects")
    p.add_argument("reported_old", type=float)
    p.add_argument("reconstructed_old", type=float)
    p.add_argument("current", type=float)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bootstrap", parents=[io_flags],
                       help="bootstrap stability interval for one institution")
    p.add_argument("--name", required=True, metavar="NAME")
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--coverage", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("zcurve", parents=[io_flags],
                       help="per-country z distributions in decreasing order")
    p.set_defaults(func=cmd_zcurve)

    p = sub.add_parser("export", parents=[io_flags, analysis],
                       help="write the significance graph to a file format")
    p.add_argument("--format", **graph_format)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # zero-variance pools, summed over the warnings' counts (one warning per
    # graph, one per scalar z), reported on one line after the command's output
    degenerate = 0
    try:
        with warnings.catch_warnings():
            show = warnings.showwarning

            def count(message, category, *rest, **kwargs):
                nonlocal degenerate
                if issubclass(category, DegeneratePoolWarning):
                    degenerate += message.count
                else:
                    show(message, category, *rest, **kwargs)
            warnings.showwarning = count
            warnings.simplefilter("always", DegeneratePoolWarning)
            return args.func(args) or 0
    except RanksigError as exc:
        print(f"ranksig: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except OSError as exc:
        # every path this tool touches came from the command line
        print(f"ranksig: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ranksig: internal error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        if degenerate:
            print(f"ranksig: warning: {degenerate} x DegeneratePoolWarning: "
                  f"{DegeneratePoolWarning()}", file=sys.stderr)


def _entry() -> int:
    """Process entry (``python -m ranksig.cli`` and the console script): ``main``
    with stdout in UTF-8 whatever the locale (a name outside its encoding is
    written, not an internal error), one BLAS thread and the cyclic collector
    off, then the heap frozen.

    ranksig runs no BLAS code, but numpy's OpenBLAS starts one thread per core
    when it loads, and the idle pool costs CPU in every call; a value the user
    set is kept.

    A run is one short process that leaves a few hundred cyclic objects
    whatever its input, so the automatic collections (about 40, 8-11 ms, in
    a 1,000-institution graph call) free almost nothing. Finalisation still
    collects with the collector off; freezing first makes those collections
    skip every object the run left behind (numpy's import alone makes about
    20k). ``main`` itself changes none of these: tests and benchmarks call it
    in-process with their own stdout."""
    import gc
    if sys.stdout is not None:  # None when the shell closed it; --out needs none
        sys.stdout.reconfigure(encoding="utf-8")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(_entry())
