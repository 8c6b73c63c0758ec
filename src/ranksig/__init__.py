"""ranksig: are differences between ranked institutions statistically significant?

The toolkit tests pairwise differences in top-10% publication shares
(two-proportion z-tests, chi-square with standardized residuals), groups
institutions into performance tiers via significance graphs, compares
alternative groupings with association statistics, and splits indicator
changes over time into data effects versus model effects.

Submodules and the names re-exported here are imported on first access
(PEP 562), so ``import ranksig`` loads none of them.
"""

import importlib

_SUBMODULES = ("compare", "data", "dynamics", "errors", "export", "ingest", "siggraph", "stats")
_EXPORTS = {
    "compare": ("SeriesPoint", "cramers_v", "crosstab", "crosstab_chi_square", "phi",
                "scores_by_category", "spearman", "z_distribution_series"),
    "dynamics": ("ChangeDecomposition", "IndicatorField", "StabilityInterval", "aligned_series",
                 "bootstrap_interval", "decompose_change", "series_view"),
    "errors": ("RanksigError",),
    "export": ("render_graph", "write_graph"),
    "ingest": ("Counting", "DatasetSelector", "InstitutionRecord", "dump_records",
               "load_records", "parse_records", "select_records"),
    "siggraph": ("Criterion", "GraphEdge", "GraphNode", "GroupTable", "Grouping", "RankedRow",
                 "SignificanceGraph", "build_graph", "cluster", "modularity", "rank_groups",
                 "weak_components"),
    "stats": ("ALPHA_THRESHOLDS", "ContingencyTable", "Direction", "IntervalRelation",
              "PairwiseTest", "RelationKind", "SignificanceLevel", "chi_square",
              "chi_square_level", "chi_square_terms", "ci_relation", "expected_table", "link_z",
              "pair_table", "pairwise_test", "pooled_proportion", "significance_level",
              "standardized_residuals", "threshold_for_alpha", "z_two_proportions",
              "z_vs_expectation"),
}
# public name -> the submodule that defines it (a submodule names itself)
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update((module, module) for module in _SUBMODULES)

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
