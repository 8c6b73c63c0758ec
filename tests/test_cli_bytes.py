"""CLI output bytes pinned as sha256 digests.

Each call runs in-process in a scratch directory; the digests of its
stdout, stderr and every file it writes are compared with a table recorded
from an earlier tree. A change that moves one byte of a report, a tier
table or a graph file fails here; one that is meant to must update the
table and say why. Digests are the first 16 hex digits of the sha256.
"""

import hashlib

import pytest

from ranksig.cli import main
from ranksig.ingest import dump_records

from test_siggraph import seeded_edition

GRAPH_OUT = "graph.out"

# (id, argv, files written): a "trio-" call runs on the embedded trio, the
# others read a seeded 300-institution edition with intervals
CALLS = [
    ("trio-group", ("group",), ()),
    ("trio-pairwise", ("pairwise", "Tsinghua University", "Zhejiang University"), ()),
    ("group-ztest", ("group", "--criterion", "ztest", "--out", "t.csv"), ("t.csv",)),
    ("group-ci", ("group", "--criterion", "ci", "--out", "t.csv"), ("t.csv",)),
    ("group-ztest-modularity",
     ("group", "--criterion", "ztest", "--grouping", "modularity", "--out", "t.csv"), ("t.csv",)),
    ("group-ci-modularity",
     ("group", "--criterion", "ci", "--grouping", "modularity", "--out", "t.csv"), ("t.csv",)),
    ("graph-out-csv", ("group", "--graph-out", GRAPH_OUT, "--format", "csv"), (GRAPH_OUT,)),
    ("graph-out-dot", ("group", "--graph-out", GRAPH_OUT, "--format", "dot"), (GRAPH_OUT,)),
    ("graph-out-pajek", ("group", "--graph-out", GRAPH_OUT, "--format", "pajek"), (GRAPH_OUT,)),
    ("graph-out-vjson", ("group", "--criterion", "ci", "--grouping", "modularity",
                         "--graph-out", GRAPH_OUT, "--format", "vjson"), (GRAPH_OUT,)),
    ("modularity-r0.5-seed3",
     ("group", "--grouping", "modularity", "--resolution", "0.5", "--seed", "3"), ()),
    ("export-ci-vjson", ("export", "--criterion", "ci", "--format", "vjson"), ()),
    ("compare", ("compare",), ()),
    ("compare-by-country", ("compare", "--split-by-country"), ()),
    ("zcurve", ("zcurve", "--out", "z.csv"), ("z.csv",)),
    ("pairwise", ("pairwise", "Univ 000", "Univ 001"), ()),
]

# id -> (exit code, stdout, stderr, files in CALLS order)
DIGESTS = {
    "trio-group": (0, "f25f6c67b5331573", "aa102ec302a19407", ()),
    "trio-pairwise": (0, "6f03abedb3e5a9a2", "e3b0c44298fc1c14", ()),
    "group-ztest": (0, "e3b0c44298fc1c14", "402832dcb2b4fe45", ("dee3daa1a1fbbf94",)),
    "group-ci": (0, "e3b0c44298fc1c14", "aea3368632e92b83", ("1316c2054e9ae82a",)),
    "group-ztest-modularity": (0, "e3b0c44298fc1c14", "5e786881f868ff2f", ("73246e770d2b58fc",)),
    "group-ci-modularity": (0, "e3b0c44298fc1c14", "02e46de88d2994f8", ("4bb228bba9c96c38",)),
    "graph-out-csv": (0, "0a9038579d081338", "34e5de994c018352", ("448e169343fdd9e9",)),
    "graph-out-dot": (0, "0a9038579d081338", "34e5de994c018352", ("94e4a005edcf9f33",)),
    "graph-out-pajek": (0, "0a9038579d081338", "34e5de994c018352", ("bbcb697831c4a9da",)),
    "graph-out-vjson": (0, "0315da0504b53a17", "f36078868d1d325d", ("0e56a60d627b2e10",)),
    "modularity-r0.5-seed3": (0, "337e8975c9fc61d5", "fb1d53090471254a", ()),
    "export-ci-vjson": (0, "0e56a60d627b2e10", "e3b0c44298fc1c14", ()),
    "compare": (0, "9b7335d27d104d64", "e3b0c44298fc1c14", ()),
    "compare-by-country": (2, "e3b0c44298fc1c14", "3cf9c5834a856ab5", ()),
    "zcurve": (0, "e3b0c44298fc1c14", "3d1ec584978eb4c5", ("856a9529a098c694",)),
    "pairwise": (0, "f14e1dbb7ae45031", "e3b0c44298fc1c14", ()),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outputs(capsysbinary, tmp_path, call_id, argv, files):
    """Exit code and digests of one in-process call run in ``tmp_path``."""
    if not call_id.startswith("trio-"):
        argv = (*argv, "--input", "edition.csv")
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return (code, _sha(captured.out), _sha(captured.err),
            tuple(_sha((tmp_path / name).read_bytes()) for name in files))


@pytest.fixture
def edition_dir(tmp_path, monkeypatch):
    (tmp_path / "edition.csv").write_text(dump_records(seeded_edition(5, 300)),
                                          encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("call_id, argv, files", CALLS, ids=[c[0] for c in CALLS])
def test_bytes_pinned(capsysbinary, edition_dir, call_id, argv, files):
    assert outputs(capsysbinary, edition_dir, call_id, argv, files) == DIGESTS[call_id]
