"""ranksig: are differences between ranked institutions statistically significant?

The toolkit tests pairwise differences in top-10% publication shares
(two-proportion z-tests, chi-square with standardized residuals), groups
institutions into performance tiers via significance graphs, compares
alternative groupings with association statistics, and splits indicator
changes over time into data effects versus model effects.
"""

from . import data
from .compare import (
    SeriesPoint,
    cramers_v,
    crosstab,
    crosstab_chi_square,
    phi,
    scores_by_category,
    spearman,
    z_distribution_series,
)
from .dynamics import (
    ChangeDecomposition,
    IndicatorField,
    StabilityInterval,
    aligned_series,
    bootstrap_interval,
    decompose_change,
    series_view,
)
from .errors import RanksigError
from .export import render_graph, write_graph
from .ingest import (
    Counting,
    DatasetSelector,
    InstitutionRecord,
    dump_records,
    load_records,
    parse_records,
    select_records,
)
from .siggraph import (
    Criterion,
    GraphEdge,
    GraphNode,
    GroupTable,
    Grouping,
    RankedRow,
    SignificanceGraph,
    build_graph,
    cluster,
    modularity,
    rank_groups,
    weak_components,
)
from .stats import (
    ALPHA_THRESHOLDS,
    ContingencyTable,
    Direction,
    IntervalRelation,
    PairwiseTest,
    RelationKind,
    SignificanceLevel,
    chi_square,
    chi_square_level,
    chi_square_terms,
    ci_relation,
    expected_table,
    link_z,
    pair_table,
    pairwise_test,
    pooled_proportion,
    significance_level,
    standardized_residuals,
    threshold_for_alpha,
    z_two_proportions,
    z_vs_expectation,
)

__version__ = "0.1.0"
