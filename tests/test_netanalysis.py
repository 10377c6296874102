import numpy as np
import pytest

from citeprof import netanalysis
from citeprof.ingest import PaperRecord, build_graph, extract_series
from citeprof.profiles import CATEGORIES, ClassifierConfig, ProfileCategory, classify_corpus

from conftest import FIXTURE_SERIES, corpus_from_series

PI = ProfileCategory.PEAK_INIT
OTH = ProfileCategory.OTH


# ---------------------------------------------------------------------------
# citation buckets


def test_bucket_histogram_basic():
    labels = {f"p{i}": PI for i in range(6)} | {"q0": OTH, "q1": OTH}
    totals = {
        "p0": 5,  # below minimum, excluded
        "p1": 11,
        "p2": 12,
        "p3": 14,
        "p4": 17,
        "p5": 30,
        "q0": 13,
        "q1": 200,
    }
    buckets = netanalysis.citation_bucket_histogram(labels, totals)
    assert buckets.n_below_minimum == 1
    assert buckets.boundaries[:3] == ((11, 12), (13, 15), (16, 19))
    # the open top range is split into sub-ranges starting at 20
    assert buckets.boundaries[3][0] == 20
    assert (31, 200) in buckets.boundaries
    for cat in (PI, OTH):
        assert sum(buckets.probabilities[cat]) == pytest.approx(1.0)
    assert PI not in buckets.empty_categories
    assert ProfileCategory.MON_DEC in buckets.empty_categories


def test_bucket_histogram_no_top_members():
    labels = {"a": PI}
    buckets = netanalysis.citation_bucket_histogram(labels, {"a": 12})
    assert buckets.boundaries == ((11, 12), (13, 15), (16, 19))
    assert buckets.probabilities[PI][0] == 1.0


# ---------------------------------------------------------------------------
# venue / year


def test_venue_year_composition():
    records = {
        "a": PaperRecord("a", 1990, venue_type="journal"),
        "b": PaperRecord("b", 1992, venue_type="conference"),
        "c": PaperRecord("c", 1994, venue_type="unknown"),
    }
    labels = {"a": PI, "b": PI, "c": PI}
    rows = {r.category: r for r in netanalysis.venue_year_composition(labels, records)}
    row = rows[PI]
    assert row.n_papers == 3
    assert row.mean_year == pytest.approx(1992.0)
    # unknown venue is excluded from the split but not the year stats
    assert row.pct_conference == pytest.approx(50.0)
    assert row.pct_journal == pytest.approx(50.0)
    assert rows[OTH].n_papers == 0
    assert np.isnan(rows[OTH].mean_year)


# ---------------------------------------------------------------------------
# self-citations


def selfcite_corpus():
    return [
        PaperRecord("t", 1980, author_ids=("alice",)),
        PaperRecord("s1", 1982, author_ids=("alice", "bob"), reference_ids=("t",)),
        PaperRecord("s2", 1985, author_ids=("alice",), reference_ids=("t", "s1")),
        PaperRecord("o1", 1983, author_ids=("carol",), reference_ids=("t",)),
    ]


def test_strip_self_citations():
    graph = build_graph(selfcite_corpus())
    stripped, log = netanalysis.strip_self_citations(graph)
    assert sorted((u, v) for u, v, _ in log.removed) == [("s1", "t"), ("s2", "s1"), ("s2", "t")]
    assert set(stripped.edges()) == {("o1", "t")}
    ages = dict(((u, v), age) for u, v, age in log.removed)
    assert ages[("s1", "t")] == 2
    assert ages[("s2", "t")] == 5


def test_selfcite_age_histogram():
    graph = build_graph(selfcite_corpus())
    _, log = netanalysis.strip_self_citations(graph)
    hist = log.age_histogram({"t": PI, "s1": OTH})
    assert sum(hist[PI]) == pytest.approx(1.0)
    assert hist[PI][2] == pytest.approx(0.5)
    assert hist[PI][5] == pytest.approx(0.5)


def test_confusion_matrix_row_stochastic_with_identity_fill():
    before = {"a": PI, "b": PI, "c": OTH}
    after = {"a": PI, "b": OTH, "c": OTH}
    m = netanalysis._confusion(before, after)
    for cat, row, count in zip(m.categories, m.fractions, m.row_counts):
        assert sum(row) == pytest.approx(1.0)
        if count == 0:  # empty rows fall back to the identity
            assert m.entry(cat, cat) == 1.0
    assert m.entry(PI, OTH) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# k-shell


def graph_of(edges, n):
    recs = {f"n{i}": [] for i in range(n)}
    for u, v in edges:
        recs[u].append(v)
    return build_graph(
        [PaperRecord(pid, 2000, reference_ids=tuple(refs)) for pid, refs in recs.items()]
    )


def test_kshell_star():
    # all leaves point at the hub
    graph = graph_of([(f"n{i}", "n0") for i in range(1, 6)], 6)
    got = netanalysis.kshell_decompose(graph)
    assert got.shells["n0"] == 1
    assert all(got.shells[f"n{i}"] == 0 for i in range(1, 6))
    assert got.max_shell == 1
    # shell-0 nodes carry no broad shell
    assert set(got.broad_shells) == {"n0"}


def test_kshell_cycle():
    graph = graph_of([("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0")], 4)
    got = netanalysis.kshell_decompose(graph)
    assert all(s == 1 for s in got.shells.values())


def test_kshell_two_levels():
    # a 3-clique (in-degree 2 inside) fed by pendant citers
    edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n0"),
             ("n0", "n2"), ("n1", "n0"), ("n2", "n1"),
             ("n3", "n0"), ("n4", "n1")]
    got = netanalysis.kshell_decompose(graph_of(edges, 5))
    assert got.shells["n3"] == 0 and got.shells["n4"] == 0
    assert got.shells["n0"] == got.shells["n1"] == got.shells["n2"] == 2


def test_broad_shell_bands():
    assert netanalysis.broad_shell(1, 4) == 1
    assert netanalysis.broad_shell(4, 4) == 4  # few shells: direct mapping
    # 13 shells, 6 bands of width 2; the core band absorbs the remainder
    assert netanalysis.broad_shell(1, 13) == 1
    assert netanalysis.broad_shell(2, 13) == 1
    assert netanalysis.broad_shell(3, 13) == 2
    assert netanalysis.broad_shell(12, 13) == 6
    assert netanalysis.broad_shell(13, 13) == 6
    with pytest.raises(ValueError):
        netanalysis.broad_shell(0, 5)


def test_core_periphery_evolution_rejects_snapshot_before_label_year(fixture_graph, monkeypatch):
    label_year = 1990  # the fixture corpus spans 1980-1999
    out = netanalysis.core_periphery_evolution(fixture_graph, label_year, [1999, label_year])
    assert {year for year, _ in out} == {label_year, 1999}
    for fractions in out.values():
        assert sum(fractions.values()) == pytest.approx(1.0)

    def classify_corpus(*args, **kwargs):
        raise AssertionError("classified before the snapshot years were checked")

    monkeypatch.setattr(netanalysis, "classify_corpus", classify_corpus)
    with pytest.raises(ValueError, match=r"\[1989\] precede label_year 1990"):
        netanalysis.core_periphery_evolution(fixture_graph, label_year, [1999, 1989])


# ---------------------------------------------------------------------------
# stability flows


def test_stability_flows_and_alluvial(fixture_graph):
    flow = netanalysis.stability_flows(fixture_graph, horizons=(10, 15, 20))
    n = len(flow.labels[10])
    assert len(flow.labels[15]) == n and len(flow.labels[20]) == n
    for window, matrix in flow.flows.items():
        assert sum(matrix.values()) == n  # conservation
    rows = flow.alluvial_rows()
    assert all(r[0] in ("T+10->T+15", "T+15->T+20") for r in rows)


# ---------------------------------------------------------------------------
# peak statistics


def test_peakmul_statistics(fixture_graph):
    corpus = classify_corpus(fixture_graph)
    labels = corpus.labels
    series = {
        pid: extract_series(fixture_graph, pid, horizon_years=20) for pid in labels
    }
    stats = netanalysis.peakmul_statistics(labels, series)
    assert stats.fraction_two_peaks == 1.0
    assert len(stats.mean_positions_by_rank) == 2
    assert stats.mean_positions_by_rank[0] < stats.mean_positions_by_rank[1]
    # heights are reported on the smoothed raw scale (citations/year)
    assert all(h > 1.0 for h in stats.mean_heights_by_rank)
    pos_init, height_init = stats.single_peak_stats[ProfileCategory.PEAK_INIT]
    assert 2 <= pos_init <= 5
    assert height_init > 1.0
