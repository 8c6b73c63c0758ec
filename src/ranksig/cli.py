"""Command-line front end: ingestion -> statistics -> grouping -> export.

Subcommands: ``pairwise``, ``group``, ``compare``, ``decompose``,
``bootstrap``, ``zcurve``, ``export``. Without ``--input`` the embedded
three-university dataset is used, so every command runs out of the box.

Exit codes: 0 on success, 2 on user-input errors (bad files, unknown
institutions, empty selections, selections spanning more than one
(period, field, counting) slice), 1 on internal errors. Machine-readable
output goes to ``--out`` or stdout; log lines go to stderr, never mixed
into the data stream. Given identical inputs, flags, and seed, emitted
files are byte-identical across runs. Set ``RANKSIG_NO_COLOR`` to disable
ANSI styling of terminal reports.

A command imports the library modules it runs when it runs: start-up
costs only this module, ``errors`` and ``export``.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import os
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import (
    ConstantInput, DegeneratePoolWarning, DegenerateTable, DegenerateTableWarning,
    DuplicateRecord, MalformedRow, MixedSlices, NoMatch, RanksigError, UnknownInstitution,
)
from .export import GRAPH_FORMATS, csv_line

if TYPE_CHECKING:
    from .ingest import InstitutionRecord
    from .siggraph import Grouping, SignificanceGraph

__all__ = ["main"]

# Library functions the commands call, imported on first use. A wrapper set
# on one of these attributes before a command runs is what the command calls
# (bench/spans.py traces them so, parse_records and render_graph included).
_LIBRARY = {
    "load_records": "ingest", "parse_records": "ingest", "select_records": "ingest",
    "build_graph": "siggraph", "cluster": "siggraph", "rank_groups": "siggraph",
    "weak_components": "siggraph", "render_graph": "export", "write_graph": "export",
}


def __getattr__(name):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LIBRARY[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def _bind(*names: str) -> None:
    """Bind library functions as globals of this module, keeping any already set."""
    for name in names:
        if name not in globals():
            __getattr__(name)


# ---------------------------------------------------------------- helpers

def _styler(plain: bool):
    enabled = (
        not plain
        and sys.stdout.isatty()
        and not os.environ.get("RANKSIG_NO_COLOR")
    )
    if enabled:
        return lambda s: f"\x1b[1m{s}\x1b[0m"
    return lambda s: s


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
    if args.countries:
        countries = frozenset(c.strip() for c in args.countries.split(",") if c.strip())
    counting = Counting.parse(args.counting) if args.counting else None
    selector = DatasetSelector(period=args.period, field=args.field, counting=counting,
                               countries=countries)
    if not args.input:
        from . import data
        return _one_slice(select_records(data.trio_records(), selector))
    batches: List[InstitutionRecord] = []
    for path in args.input:
        try:
            batches.extend(load_records(path))
        except NoMatch:
            continue  # a file with zero data rows contributes nothing
    return _one_slice(select_records(batches, selector))


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


def _tiers(grouping: Grouping) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Tier label and ordinal of each name: tier1..tierK and 1..K for the
    regular groups in order, isolate and K + 1 for the isolates (listed last)."""
    labels: Dict[str, str] = {}
    ordinals: Dict[str, int] = {}
    tier = 0
    for members in grouping.groups():
        if len(members) == 1 and members[0] in grouping.isolates:
            labels[members[0]], ordinals[members[0]] = "isolate", tier + 1
        else:
            tier += 1
            for name in members:
                labels[name], ordinals[name] = f"tier{tier}", tier
    return labels, ordinals


def _read_labels(path: str) -> Dict[str, str]:
    """name -> category map from a two-column CSV with a header row."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedRow(1, f"{path}: empty labels file")
    labels: Dict[str, str] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or not "".join(row).strip():
            continue
        if len(row) < 2:
            raise MalformedRow(line_no, f"{path}: need name and category columns")
        name, category = row[0].strip(), row[1].strip()
        if name in labels and labels[name] != category:
            raise DuplicateRecord(f"{path}: conflicting categories for {name!r}")
        labels.setdefault(name, category)
    if not labels:
        raise MalformedRow(1, f"{path}: no label rows")
    return labels


# ---------------------------------------------------------------- pairwise

def _matrix_grid(title_col: str, table, matrix, margins: bool) -> str:
    rows = [[title_col, *table.cols] + (["total"] if margins else [])]
    for i, label in enumerate(table.rows):
        cells = [f"{x:.2f}" for x in matrix[i]]
        if margins:
            cells.append(f"{sum(matrix[i]):.2f}")
        rows.append([label, *cells])
    if margins:
        col_totals = [sum(m[j] for m in matrix) for j in range(len(table.cols))]
        grand = sum(col_totals)
        rows.append(["total", *[f"{t:.2f}" for t in col_totals], f"{grand:.2f}"])
    return _grid(rows)


def cmd_pairwise(args) -> int:
    from . import stats
    records = _load_records(args)
    a = _find(records, args.a)
    b = _find(records, args.b)

    bold = _styler(plain=bool(args.out))
    # before the table, so that an institution with no papers is named
    z_stored = stats.link_z(a, b, "stored")
    z_exact = stats.link_z(a, b, "exact")
    table = stats.pair_table(a, b)
    # a zero column total (no top-10% papers, or only those, on both sides)
    # leaves expected cells of zero: chi-square is undefined, z is defined as
    # 0 as in group
    if 0 in table.col_totals:
        chi_part = ["chi-square test undefined: a row or column total is zero"]
    else:
        expected = stats.expected_table(table)
        terms = stats.chi_square_terms(table)
        chi2 = stats.chi_square(table)
        resid = stats.standardized_residuals(table)
        chi_level = stats.chi_square_level(chi2, (len(table.rows) - 1) * (len(table.cols) - 1))
        chi_part = [
            bold("Expected counts"),
            _matrix_grid("expected", table, expected.observed, margins=True),
            "",
            bold("Chi-square contributions"),
            _matrix_grid("chi2 term", table, terms, margins=False),
            f"chi-square = {chi2:.2f}  {chi_level.stars} ({chi_level.label})",
            "",
            bold("Standardized residuals"),
            _matrix_grid("residual", table, resid, margins=False),
        ]

    parts = [
        bold(f"Pairwise comparison: {a.name} vs {b.name}"),
        f"period={a.period}  field={a.field}  counting={a.counting.value}",
        "",
        bold("Observed counts"),
        _matrix_grid("observed", table, table.observed, margins=True),
        "",
        *chi_part,
        "",
        bold("Two-proportion z"),
        f"z (stored shares) = {z_stored:.3f}  "
        f"{stats.significance_level(z_stored).stars} "
        f"({stats.significance_level(z_stored).label})",
        f"z (exact ratios)  = {z_exact:.3f}  "
        f"{stats.significance_level(z_exact).stars} "
        f"({stats.significance_level(z_exact).label})",
    ]
    if a.has_interval and b.has_interval:
        rel = stats.ci_relation(a.interval(), b.interval())
        detail = rel.kind.value
        if rel.direction is not None:
            detail += f" ({rel.direction.value})"
        parts += [
            "",
            bold("Stability intervals"),
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


def _group_tables_text(tables, bold) -> str:
    parts = []
    for t in tables:
        title = f"Isolate (group {t.group + 1})" if t.isolate else f"Group {t.group + 1}"
        parts.append(bold(f"== {title} =="))
        rows = [["name", "within", "overall", "z"]]
        for r in t.rows:
            rows.append([r.name, str(r.within_group_rank), str(r.overall_rank), f"{r.z:.3f}"])
        parts.append(_grid(rows))
        parts.append("")
    return "\n".join(parts)


def cmd_group(args) -> int:
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

    if args.out:
        _emit(_group_tables_csv(tables), args.out)
    else:
        _emit(_group_tables_text(tables, _styler(plain=False)), None)

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


def _compare_report(sides, ordinals, heading, bold) -> str:
    from . import compare as cmp_mod, stats
    (label_a, *_), (label_b, *_) = sides
    shared = sorted(set(label_a) & set(label_b))
    _two_categories(sides, shared)
    ct = cmp_mod.crosstab(label_a, label_b)
    chi2 = cmp_mod.crosstab_chi_square(ct)
    dof = (len(ct.rows) - 1) * (len(ct.cols) - 1)
    level = stats.chi_square_level(chi2, dof)
    v = cmp_mod.cramers_v(ct)
    ph = cmp_mod.phi(ct)

    if ordinals is not None:
        xs = [float(ordinals[0][n]) for n in shared]
        ys = [float(ordinals[1][n]) for n in shared]
    else:
        xs = [float(ct.rows.index(label_a[n])) for n in shared]
        ys = [float(ct.cols.index(label_b[n])) for n in shared]
    try:
        rho = f"{cmp_mod.spearman(xs, ys):.3f}"
    except ConstantInput:
        rho = "n/a (constant labeling)"

    parts = [
        bold(heading),
        f"{len(shared)} shared institutions",
        "",
        bold("Cross-tabulation"),
        _matrix_grid("counts", ct, ct.observed, margins=True),
        "",
        f"chi-square = {chi2:.2f} (dof = {dof})  {level.stars} ({level.label})",
        f"Cramer's V = {v:.3f}",
        f"phi        = {ph:.3f}",
        f"Spearman   = {rho}",
    ]
    return "\n".join(parts) + "\n"


def cmd_compare(args) -> int:
    bold = _styler(plain=bool(args.out))
    if args.labels_a or args.labels_b:
        if not (args.labels_a and args.labels_b):
            raise RanksigError("--labels-a and --labels-b must be given together")
        sides = [
            (_read_labels(path), f"{flag} {path}", "category", "give it two or more")
            for flag, path in (("--labels-a", args.labels_a), ("--labels-b", args.labels_b))
        ]
        report = _compare_report(
            sides, None, f"Association: {args.labels_a} vs {args.labels_b}", bold,
        )
    elif args.split_by_country:
        records = _load_records(args)
        _bind("weak_components")
        tiers, _ = _tiers(weak_components(_graph_for(args, records, args.criterion)))
        countries = {r.name: r.country for r in records}
        sides = [
            (countries, "the country labelling", "country",
             "--split-by-country needs records from two or more countries"),
            (tiers, *_tier_side("--criterion", args.criterion)),
        ]
        report = _compare_report(
            sides, None, f"Association: country vs {args.criterion} tiers", bold,
        )
    else:
        records = _load_records(args)
        _bind("weak_components")
        (tiers_a, ordinals_a), (tiers_b, ordinals_b) = (
            _tiers(weak_components(_graph_for(args, records, token)))
            for token in (args.criterion, args.criterion_b)
        )
        sides = [
            (tiers_a, *_tier_side("--criterion", args.criterion)),
            (tiers_b, *_tier_side("--criterion-b", args.criterion_b)),
        ]
        report = _compare_report(
            sides,
            (ordinals_a, ordinals_b),
            f"Association: {args.criterion} tiers vs {args.criterion_b} tiers", bold,
        )
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------- decompose

def cmd_decompose(args) -> int:
    from . import dynamics
    d = dynamics.decompose_change(args.reported_old, args.reconstructed_old, args.current)
    bold = _styler(plain=bool(args.out))

    def share(s: Optional[float]) -> str:
        return "undefined" if s is None else f"{100.0 * s:.1f}%"

    parts = [
        bold("Change decomposition"),
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
    bold = _styler(plain=bool(args.out))
    parts = [
        bold(f"Stability interval: {rec.name}"),
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
                   help="modularity resolution (default: 1.0)")
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


# Warned once per pair or table: counted, then reported on one line per kind.
_COUNTED_WARNINGS = (DegeneratePoolWarning, DegenerateTableWarning)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    counted: Dict[type, list] = {}  # kind -> [count, first message]
    try:
        with warnings.catch_warnings():
            show = warnings.showwarning

            def count(message, category, *rest, **kwargs):
                if issubclass(category, _COUNTED_WARNINGS):
                    counted.setdefault(category, [0, message])[0] += 1
                else:
                    show(message, category, *rest, **kwargs)
            warnings.showwarning = count
            for kind in _COUNTED_WARNINGS:
                warnings.simplefilter("always", kind)
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
        for kind, (n, message) in counted.items():
            print(f"ranksig: warning: {n} x {kind.__name__}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
