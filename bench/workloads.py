"""The benchmark's workloads: the CLI calls of one pass and how to check each.

Each workload function takes the seed and the work directory, writes the
generated inputs there and returns the calls of one pass. Every call
carries a check that compares what the call wrote with the library's own
values (see ``check.py``).

Why these workloads:

* ``full-edition-z``: the paper's main use at full-ranking scale, one
  edition of 1,000 institutions (499,500 pairs) grouped by z with the
  vjson graph written. The z pair path, edge assembly and the writer carry
  almost all the work; ingest and grouping are small.
* ``interactive``: ten short calls on the embedded trio and a
  203-institution edition. Process start-up dominates and the pair layer
  does almost nothing. Removing scipy moves this workload and should leave
  ``full-edition-z`` nearly unchanged.

The edition size is chosen so that one ``full-edition-z`` call takes
about 4 to 6 s on a 2-core machine: a run of the benchmark then holds
about ten calls, and their mean is steadier than one 11 s call at 1,500
institutions.

A third workload, a 76,800-row multi-slice download grouped by stability
intervals with Louvain, was dropped: its runs spread too widely for a
bound on the shared machines the benchmark runs on (see ``NOTES.md``).
"""

import random
from dataclasses import dataclass
from typing import Callable, Tuple

import check
import gen
from ranksig.data import trio_records
from ranksig.stats import threshold_for_alpha

ALPHA = "0.01"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``ranksig <argv>``, run in the work directory."""

    label: str
    argv: Tuple[str, ...]
    outputs: Tuple[str, ...]
    check: Callable[[str], list]  # stdout text -> problems


def full_edition_z(seed, work, n=1000):
    """n institutions in one slice, z criterion, tier CSV plus vjson graph."""
    records = gen.single_slice(seed, n)
    gen.write(work / "edition.csv", records)
    threshold = threshold_for_alpha(float(ALPHA))

    def verify(_stdout):
        rows = check.read_tiers(work / "tiers.csv")
        names, weights, links = check.read_vjson(work / "graph.json")
        expected = check.z_edges(records, threshold)
        problems = check.check_tiers(rows, records)
        problems += check.check_links(names, links, records, expected)
        problems += check.check_node_weights(weights, records)
        problems += check.check_tiers_equal_components(rows, names, links)
        problems += check.sample_pairs(records, random.Random(seed))
        return problems

    return [Call(
        "group-ztest",
        ("group", "--input", "edition.csv", "--criterion", "ztest", "--alpha", ALPHA,
         "--out", "tiers.csv", "--graph-out", "graph.json", "--format", "vjson"),
        ("tiers.csv", "graph.json"),
        verify,
    )]


def interactive(seed, work):
    """Short calls on the embedded trio and on a 203-institution edition."""
    records = gen.single_slice(seed, 203, share_sd=0.02, elite=3)
    gen.write(work / "edition203.csv", records)
    names = sorted(r.name for r in records)
    by_name = {r.name: r for r in records}
    rng = random.Random(seed)
    a, b, boot = rng.sample(names, 3)
    threshold = threshold_for_alpha(float(ALPHA))
    z_links = check.z_edges(records, threshold)
    ci_links = check.ci_edges(records)
    trio = trio_records()
    edition = ("--input", "edition203.csv")

    def tiers(path, links, grouping_check):
        def verify(_stdout):
            rows = check.read_tiers(work / path)
            return check.check_tiers(rows, records) + grouping_check(rows, names, links)
        return verify

    def pajek(_stdout):
        got_names, links = check.read_pajek(work / "graph.net")
        expected = {k: f"{v:.6f}" for k, v in z_links.items()}
        return (check.check_links(got_names, links, records, expected)
                + check.sample_pairs(records, random.Random(seed)))

    return [
        Call("pairwise-trio", ("pairwise", "Tsinghua University", "Zhejiang University"), (),
             lambda out: check.check_pairwise(out, trio, "Tsinghua University",
                                              "Zhejiang University")),
        Call("pairwise-edition", ("pairwise", *edition, a, b), (),
             lambda out: check.check_pairwise(out, records, a, b)),
        Call("bootstrap", ("bootstrap", *edition, "--name", boot, "--draws", "1000",
                           "--seed", str(seed)), (),
             lambda out: check.check_bootstrap(out, by_name[boot], 1000, seed)),
        Call("decompose", ("decompose", "9.81", "9.54", "9.03"), (),
             lambda out: check.check_decompose(out, 9.81, 9.54, 9.03)),
        Call("zcurve", ("zcurve", *edition, "--out", "zcurve.csv"), ("zcurve.csv",),
             lambda out: check.check_zcurve(work / "zcurve.csv", records)),
        Call("group-ztest-components",
             ("group", *edition, "--criterion", "ztest", "--grouping", "components",
              "--out", "tiers_z.csv"), ("tiers_z.csv",),
             tiers("tiers_z.csv", z_links, check.check_tiers_equal_components)),
        Call("group-ci-modularity",
             ("group", *edition, "--criterion", "ci", "--grouping", "modularity",
              "--out", "tiers_ci.csv"), ("tiers_ci.csv",),
             tiers("tiers_ci.csv", ci_links, check.check_tiers_within_components)),
        Call("compare-criteria", ("compare", *edition, "--criterion", "ztest",
                                  "--criterion-b", "ci"), (),
             lambda out: check.check_compare(out, len(records))),
        Call("compare-country", ("compare", *edition, "--split-by-country"), (),
             lambda out: check.check_compare(out, len(records))),
        Call("export-pajek", ("export", *edition, "--format", "pajek", "--out", "graph.net"),
             ("graph.net",), pajek),
    ]


WORKLOADS = {
    "full-edition-z": full_edition_z,
    "interactive": interactive,
}
