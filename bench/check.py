"""Output checks for the benchmark. Each check returns a list of problems.

The checks run outside the timed region. They compare what the CLI wrote
with the library's own values:

* tier tables hold every selected institution once, with its z against
  the 10% expectation from the selected slice, and dense ranks ordered by
  (-z, name) overall and within each tier;
* an emitted graph holds exactly the pairs the criterion connects, and
  each link strength (or Pajek weight) is |z| of that pair. The full edge
  set comes from ``pair_z``/``pair_overlap``, which repeat the arithmetic
  of ``ranksig.stats.link_z`` and ``ci_relation`` in numpy; a seeded sample
  of pairs checks those against the library functions themselves;
* tiers from weak components equal the connected components of the
  links, and every modularity tier lies inside one component;
* report lines of ``pairwise``, ``decompose`` and ``bootstrap`` match the
  library values.
"""

import csv
import json
from pathlib import Path

import numpy as np

from ranksig import dynamics, stats


def _sorted(records):
    return sorted(records, key=lambda r: r.name)


def pair_z(records):
    """Upper-triangle z of every pair, rows in name order: {i: array over j > i}.

    Same operation order as ``stats.link_z`` with stored proportions, so
    the values are bit-equal to the scalar path.
    """
    recs = _sorted(records)
    t = np.array([r.t_top10 for r in recs])
    p = np.array([r.p for r in recs])
    pp = np.array([r.pp_top10 for r in recs])
    out = {}
    for i in range(len(recs) - 1):
        pooled = (t[i] + t[i + 1:]) / (p[i] + p[i + 1:])
        se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / p[i] + 1.0 / p[i + 1:]))
        out[i] = (pp[i] - pp[i + 1:]) / se
    return out


def pair_overlap(records):
    """Upper-triangle "intervals are not disjoint" flags, as ``pair_z``."""
    recs = _sorted(records)
    lo = np.array([r.ci_lower for r in recs])
    hi = np.array([r.ci_upper for r in recs])
    return {
        i: ~((hi[i] < lo[i + 1:]) | (hi[i + 1:] < lo[i]))
        for i in range(len(recs) - 1)
    }


def z_edges(records, threshold):
    """{(i, j): |z|} for every pair the z criterion connects, i < j in name order."""
    edges = {}
    for i, z in pair_z(records).items():
        for k in np.flatnonzero(np.abs(z) < threshold):
            edges[(i, i + 1 + int(k))] = abs(float(z[k]))
    return edges


def ci_edges(records):
    return [
        (i, i + 1 + int(k))
        for i, flags in pair_overlap(records).items()
        for k in np.flatnonzero(flags)
    ]


def sample_pairs(records, rng, k=3000):
    """Check ``pair_z``/``pair_overlap`` against the library on a seeded sample."""
    recs = _sorted(records)
    zs, overlaps = pair_z(recs), pair_overlap(recs)
    with_ci = all(r.has_interval for r in recs)
    problems = []
    for _ in range(k):
        i, j = sorted(rng.sample(range(len(recs)), 2))
        z = stats.link_z(recs[i], recs[j], "stored")
        if z != zs[i][j - i - 1]:
            problems.append(f"z of {recs[i].name} / {recs[j].name} differs from link_z")
        if with_ci:
            rel = stats.ci_relation(recs[i].interval(), recs[j].interval())
            if (rel.kind is not stats.RelationKind.DISJOINT) != bool(overlaps[i][j - i - 1]):
                problems.append(
                    f"overlap of {recs[i].name} / {recs[j].name} differs from ci_relation")
    return problems[:5]


def components(n, edges):
    """Connected components of an undirected graph on 0..n-1, as frozensets."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(g) for g in groups.values()]


def read_tiers(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        {
            "group": int(r["group"]),
            "isolate": r["isolate"] == "true",
            "name": r["name"],
            "z": float(r["z"]),
            "overall_rank": int(r["overall_rank"]),
            "within_group_rank": int(r["within_group_rank"]),
        }
        for r in rows
    ]


def tier_sets(rows):
    groups = {}
    for r in rows:
        groups.setdefault(r["group"], set()).add(r["name"])
    return [frozenset(g) for g in groups.values()]


def check_tiers(rows, records):
    """Membership, z values and dense (-z, name) ranks of one tier table."""
    problems = []
    expected = {r.name: stats.z_vs_expectation(r) for r in records}
    names = [r["name"] for r in rows]
    if sorted(names) != sorted(expected):
        missing = sorted(set(expected) - set(names))[:3]
        extra = sorted(set(names) - set(expected))[:3]
        dup = len(names) - len(set(names))
        problems.append(f"tier members wrong: missing {missing}, extra {extra}, {dup} repeated")
        return problems
    wrong_z = [r["name"] for r in rows if r["z"] != expected[r["name"]]]
    if wrong_z:
        problems.append(f"z differs from the selected slice for {wrong_z[:3]}")
    order = sorted(rows, key=lambda r: (-r["z"], r["name"]))
    if [r["overall_rank"] for r in order] != list(range(1, len(order) + 1)):
        problems.append("overall ranks are not dense in (-z, name) order")
    by_group = {}
    for r in order:
        by_group.setdefault(r["group"], []).append(r)
    for gid, members in by_group.items():
        if [r["within_group_rank"] for r in members] != list(range(1, len(members) + 1)):
            problems.append(f"within-group ranks of group {gid} are not dense")
        if any(r["isolate"] for r in members) and len(members) != 1:
            problems.append(f"isolate group {gid} has {len(members)} members")
    if sorted(by_group) != list(range(1, len(by_group) + 1)):
        problems.append("group numbers are not 1..G")
    return problems


def check_tiers_equal_components(rows, names, edges):
    comps = {frozenset(names[i] for i in c) for c in components(len(names), edges)}
    if set(tier_sets(rows)) != comps:
        return ["tiers differ from the connected components of the links"]
    return []


def check_tiers_within_components(rows, names, edges):
    comp_of = {}
    for c, members in enumerate(components(len(names), edges)):
        for i in members:
            comp_of[names[i]] = c
    split = [min(g) for g in tier_sets(rows) if len({comp_of[n] for n in g}) != 1]
    if split:
        return [f"tiers span several components, e.g. the one holding {split[0]}"]
    return []


def read_vjson(path):
    """Names in id order and {(i, j): strength} with 0-based ids, i < j."""
    with open(path, encoding="utf-8") as fh:
        net = json.load(fh)["network"]
    items = sorted(net["items"], key=lambda it: it["id"])
    links = {}
    for link in net["links"]:
        i, j = sorted((link["source_id"] - 1, link["target_id"] - 1))
        links[(i, j)] = link["strength"]
    return [it["label"] for it in items], [it["weight"] for it in items], links


def check_node_weights(weights, records):
    expected = [stats.z_vs_expectation(r) for r in _sorted(records)]
    if weights != expected:
        return ["graph node weights differ from z against the expectation"]
    return []


def read_pajek(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split()[1])
    names = [line.split(" ", 1)[1].strip('"') for line in lines[1:n + 1]]
    links = {}
    for line in lines[n + 2:]:
        a, b, w = line.split()
        i, j = sorted((int(a) - 1, int(b) - 1))
        links[(i, j)] = w
    return names, links


def check_links(names, links, records, expected):
    """Emitted links against the expected {(i, j): |z|}, exact set and strengths."""
    problems = []
    if names != [r.name for r in _sorted(records)]:
        return ["graph nodes are not the selected institutions in name order"]
    missing = expected.keys() - links.keys()
    extra = links.keys() - expected.keys()
    if missing or extra:
        problems.append(f"graph has {len(missing)} missing and {len(extra)} extra links")
    wrong = [k for k in links.keys() & expected.keys() if links[k] != expected[k]]
    if wrong:
        i, j = wrong[0]
        problems.append(
            f"{len(wrong)} link strengths differ from |z|, e.g. {names[i]} / {names[j]}")
    return problems


def check_pairwise(text, records, a, b):
    ra = next(r for r in records if r.name == a)
    rb = next(r for r in records if r.name == b)
    table = stats.pair_table(ra, rb)
    chi2 = stats.chi_square(table)
    level = stats.chi_square_level(chi2, 1)
    want = [
        f"Pairwise comparison: {a} vs {b}",
        f"chi-square = {chi2:.2f}  {level.stars} ({level.label})",
    ]
    for mode, label in (("stored", "z (stored shares) ="), ("exact", "z (exact ratios)  =")):
        z = stats.link_z(ra, rb, mode)
        lv = stats.significance_level(z)
        want.append(f"{label} {z:.3f}  {lv.stars} ({lv.label})")
    lines = text.splitlines()
    return [f"pairwise output lacks {w!r}" for w in want if w not in lines]


def check_decompose(text, old, recon, current):
    d = dynamics.decompose_change(old, recon, current)
    want = [
        f"total change : {d.total:g}",
        f"data effect  : {d.data_effect:g} ({100.0 * d.data_share:.1f}%)",
        f"model effect : {d.model_effect:g} ({100.0 * d.model_share:.1f}%)",
    ]
    lines = text.splitlines()
    problems = [f"decompose output lacks {w!r}" for w in want if w not in lines]
    if (old, recon, current) == (9.81, 9.54, 9.03) and "(65.4%)" not in text:
        problems.append("decompose output lacks the paper's 65.4% model share")
    return problems


def check_bootstrap(text, rec, draws, seed):
    iv = dynamics.bootstrap_interval(rec, draws=draws, coverage=0.95, seed=seed)
    want = [
        f"Stability interval: {rec.name}",
        f"point estimate : {iv.point:g}",
        f"interval       : [{iv.lower:g}, {iv.upper:g}]",
    ]
    lines = text.splitlines()
    return [f"bootstrap output lacks {w!r}" for w in want if w not in lines]


def check_zcurve(path, records):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = {r.name: (r.country, stats.z_vs_expectation(r)) for r in records}
    got = {row["institution"]: (row["category"], float(row["z"])) for row in rows}
    if len(rows) != len(expected) or got != expected:
        return ["zcurve rows differ from the records' countries and z"]
    problems = []
    for country in {c for c, _ in expected.values()}:
        series = [row for row in rows if row["category"] == country]
        order = sorted(series, key=lambda row: (-float(row["z"]), row["institution"]))
        if [int(row["rank"]) for row in order] != list(range(1, len(order) + 1)):
            problems.append(f"zcurve ranks for {country} are not dense in (-z, name) order")
    return problems


def check_compare(text, n):
    problems = []
    if f"{n} shared institutions" not in text.splitlines():
        problems.append(f"compare output lacks '{n} shared institutions'")
    if not any(line.startswith("chi-square = ") for line in text.splitlines()):
        problems.append("compare output lacks the chi-square line")
    return problems
