"""Acceptance gate: one test per criterion.

Oracles here are written from the rule definitions, independently of the
library code, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import filecmp
import json
import math
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest

from citeprof import growth
from citeprof.cli import EXIT_OK, main
from citeprof.ingest import CitationSeries, PaperRecord, build_graph
from citeprof.netanalysis import (
    kshell_decompose,
    self_citation_confusion,
    stability_flows,
    strip_self_citations,
)
from citeprof.profiles import (
    CATEGORIES,
    ClassifierConfig,
    ProfileCategory,
    classify,
    detect_peaks,
    normalize,
)
from citeprof.report import citation_belt

from conftest import FIXTURE_SERIES, corpus_from_series

P = ProfileCategory


# ---------------------------------------------------------------------------
# 1. classifier fixtures
# ---------------------------------------------------------------------------


def test_01_classifier_fixtures():
    for cat, counts in FIXTURE_SERIES.items():
        series = CitationSeries(paper_id=f"fx_{cat.value}", pub_year=1980, counts=counts)
        assert classify(series).category == cat


# ---------------------------------------------------------------------------
# 2. peak-detection oracle
# ---------------------------------------------------------------------------


def _oracle_peaks(values, height_frac=0.75, min_sep=2):
    """Exhaustive scan: interior maxima, dual height rule, greedy merge."""
    n = len(values)
    cands = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j < n - 1 and values[i] > values[i - 1] and values[i] > values[j + 1]:
            cands.append((i, float(values[i])))
        i = j + 1
    if not cands:
        return []
    tallest = max(h for _, h in cands)
    cands = [(p, h) for p, h in cands if h >= height_frac * tallest and h >= height_frac]
    kept = []
    for p, h in sorted(cands, key=lambda ph: (-ph[1], ph[0])):
        if all(abs(p - q) > min_sep for q, _ in kept):
            kept.append((p, h))
    return sorted(kept)


def test_02_peak_detection_matches_oracle():
    rng = np.random.default_rng(2024)
    cfg = ClassifierConfig()
    for _ in range(1000):
        length = int(rng.integers(10, 21))
        # Quantized values force plateaus and exact height ties.
        raw = rng.integers(0, 21, size=length).astype(float) / 20.0
        m = raw.max()
        values = raw / m if m > 0 else raw
        got = list(detect_peaks(values, cfg).peaks)
        assert got == _oracle_peaks(values)


# ---------------------------------------------------------------------------
# 3. k-shell oracle
# ---------------------------------------------------------------------------


def _random_dag(rng, n, p):
    records = []
    for i in range(n):
        refs = tuple(f"n{j}" for j in range(i) if rng.random() < p)
        records.append(PaperRecord(paper_id=f"n{i}", year=2000 + i, reference_ids=refs))
    return build_graph(records)


def _oracle_kshell(graph):
    """Naive repeated peeling, recomputing in-degrees from scratch."""
    cited_by = {pid: set() for pid in graph.node_ids()}
    for pid in graph.node_ids():
        for ref in graph.out_references(pid):
            cited_by[ref].add(pid)
    shells = {pid: 0 for pid in graph.node_ids() if not cited_by[pid]}
    remaining = set(graph.node_ids()) - set(shells)
    k = 1
    while remaining:
        while True:
            drop = [
                v for v in remaining if len(cited_by[v] & remaining) <= k
            ]
            if not drop:
                break
            for v in drop:
                shells[v] = k
                remaining.discard(v)
        k += 1
    return shells


def test_03_kshell_matches_peeling_oracle():
    rng = np.random.default_rng(31)
    for trial in range(100):
        n = int(rng.integers(20, 201))
        p = float(rng.uniform(0.02, 0.1))
        graph = _random_dag(rng, n, p)
        got = kshell_decompose(graph).shells
        assert got == _oracle_kshell(graph), f"trial {trial} (n={n}, p={p:.3f})"


# ---------------------------------------------------------------------------
# 4. attractiveness formulas
# ---------------------------------------------------------------------------


def _expected_pi(cat, k, mu, t, rho, tau, peaks):
    if cat == P.OTH:
        return 1.0
    if cat == P.MON_DEC:
        return (k + mu) * math.exp(-rho * t)
    if cat == P.MON_INCR:
        return k + rho * mu + t
    if cat in (P.PEAK_INIT, P.PEAK_LATE):
        return k + mu if t <= peaks + tau else (k + mu) / (rho * t)
    t1, t2 = peaks
    if t <= t1 + tau:
        return k + mu
    if t <= (t1 + t2) / 2 + tau:
        return (k + mu) / t
    if t <= t2 + tau:
        return k + mu
    return (k + mu) / t


def test_04_attractiveness_matches_branch_expressions():
    ks = (0, 1, 2, 5, 13, 40)
    mus = (0.0, 0.5, 1.7, 4.4, 9.3)
    ts = tuple(i * 0.5 for i in range(50))
    grids = {
        P.MON_DEC: ((0.15, 0.25, 0.5, 1.0), (3,), (None,)),
        P.MON_INCR: ((0.2, 0.3, 0.7, 1.0), (3,), (None,)),
        P.OTH: ((0.25,), (3,), (None,)),
        P.PEAK_INIT: ((0.5, 0.7), (1, 3), (2, 3, 4, 5)),
        P.PEAK_LATE: ((0.4, 0.5), (1, 3), (6, 9, 11, 14)),
        P.PEAK_MUL: ((0.5,), (1, 3), ((3, 8), (5, 12), (2, 15), (4, 10))),
    }
    n_points = 0
    for cat, (rhos, taus, peak_grid) in grids.items():
        for rho in rhos:
            for tau in taus:
                params = growth.GrowthParams(
                    rho={**growth.DEFAULT_RHO, cat: rho},
                    tau={**growth.DEFAULT_TAU, cat: tau},
                )
                for peaks in peak_grid:
                    for k in ks:
                        for mu in mus:
                            for t in ts:
                                got = growth.attractiveness(cat, k, mu, t, params, peaks)
                                want = _expected_pi(cat, k, mu, t, rho, tau, peaks)
                                assert math.isclose(
                                    got, want, rel_tol=1e-12, abs_tol=1e-12
                                ), (cat, k, mu, t, rho, tau, peaks)
                                n_points += 1
    assert n_points >= 10_000
    # Anchor: PeakInit plateau equals k + mu up to T + tau with tau = 1.
    params = growth.GrowthParams()
    assert growth.attractiveness(P.PEAK_INIT, 3, 4.0, 5.0, params, peak_times=4) == 7.0
    assert growth.attractiveness(P.PEAK_INIT, 3, 4.0, 6.0, params, 4) == pytest.approx(7 / 4.2)


# ---------------------------------------------------------------------------
# 5. model shape reproduction at desk scale
# ---------------------------------------------------------------------------


# Each mean profile is a Monte Carlo estimate over the replicas, so shape
# properties of the expected profile are judged against the replicas' own
# spread: a difference between two ages counts only when it exceeds z
# standard errors of the per-replica differences. z is fixed by a one-sided
# family-wise false-alarm rate of 1 % over the comparisons a test makes.

FAMILY_RATE = 0.01


def _bonferroni_z(n_comparisons):
    return NormalDist().inv_cdf(1 - FAMILY_RATE / n_comparisons)


@pytest.fixture(scope="module")
def replica_profiles(desk_simulation):
    """Per category: one row per replica, from the library's own aggregation."""
    sim = desk_simulation
    per_replica = [
        growth._replica_profile(*r.generated_profiles(sim.max_age, sim.min_history))
        for r in sim.replicas
    ]
    return {c: np.vstack([p[c] for p in per_replica]) for c in CATEGORIES}


def _assert_rows_average_to_mean(sim, rows, cat):
    assert np.allclose(np.nanmean(rows, axis=0), sim.mean_profiles[cat], equal_nan=True)


def _z_scores(diffs):
    """Mean over replicas (axis 0) of per-replica differences, in standard errors."""
    n = np.sum(~np.isnan(diffs), axis=0)
    mean = np.nanmean(diffs, axis=0)
    se = np.nanstd(diffs, axis=0, ddof=1) / np.sqrt(n)
    return np.divide(mean, se, out=np.zeros_like(mean), where=se > 0)


def _decline_scores(rows):
    """Worst z of a rise between adjacent ages, and of any later age over age 1."""
    tail = rows[:, 1:]
    steps = _z_scores(np.diff(tail, axis=1))
    over_first = _z_scores(tail[:, 1:] - tail[:, :1])
    return steps.max(), over_first.max()


def test_05a_mondec_profile_shape(desk_simulation, replica_profiles):
    # Declining from age 1 on: no step up and no later age above age 1.
    n_ages = desk_simulation.max_age + 1
    z = _bonferroni_z(2 * (n_ages - 2))  # 19 steps + 19 ages vs age 1: 3.47
    prof = desk_simulation.mean_profiles[P.MON_DEC]
    assert not np.isnan(prof).any()
    _assert_rows_average_to_mean(desk_simulation, replica_profiles[P.MON_DEC], P.MON_DEC)

    def declines(cat):
        return max(_decline_scores(replica_profiles[cat])) <= z

    assert declines(P.MON_DEC), _decline_scores(replica_profiles[P.MON_DEC])
    # The check can fail: every rising or peaked category is rejected. Oth
    # is not listed: under constant attractiveness it declines as well.
    for cat in (P.MON_INCR, P.PEAK_INIT, P.PEAK_LATE, P.PEAK_MUL):
        assert not declines(cat), (cat.value, _decline_scores(replica_profiles[cat]))


def test_05b_peakinit_profile_peak_age(desk_simulation):
    prof = desk_simulation.mean_profiles[P.PEAK_INIT]
    assert 2 <= int(np.argmax(prof)) <= 5


def test_05c_peaklate_profile_peak_age(desk_simulation):
    prof = desk_simulation.mean_profiles[P.PEAK_LATE]
    assert int(np.argmax(prof)) >= 6


MONINCR_AGES = 16  # ages 0..15


def _rise_scores(rows):
    """Worst z of a fall between adjacent ages, and the t of ages 11-15 over 1-5."""
    rows = rows[:, :MONINCR_AGES]
    steps = _z_scores(np.diff(rows, axis=1))
    rise = _z_scores(rows[:, 11:16].mean(axis=1) - rows[:, 1:6].mean(axis=1))
    return steps.min(), float(rise)


def test_05d_monincr_profile_non_decreasing(desk_simulation, replica_profiles):
    z = _bonferroni_z(MONINCR_AGES - 1)  # 15 steps: 3.21
    _assert_rows_average_to_mean(desk_simulation, replica_profiles[P.MON_INCR], P.MON_INCR)

    def rises(cat):
        worst_step, rise = _rise_scores(replica_profiles[cat])
        return worst_step >= -z and rise > z

    assert rises(P.MON_INCR), _rise_scores(replica_profiles[P.MON_INCR])
    # The check can fail: every other category's profile is rejected.
    for cat in CATEGORIES:
        if cat != P.MON_INCR:
            assert not rises(cat), (cat.value, _rise_scores(replica_profiles[cat]))


def test_05e_peakmul_profile_two_peaks(desk_simulation):
    prof = desk_simulation.mean_profiles[P.PEAK_MUL]
    peaks = detect_peaks(normalize(prof))
    assert len(peaks) >= 2


# ---------------------------------------------------------------------------
# 6. round-trip consistency
# ---------------------------------------------------------------------------


def _round_trip_labels(sim):
    """(generated, predicted) for screened generated papers across all replicas."""
    pairs = []
    for replica in sim.replicas:
        series = replica.citation_series(max_age=20)
        for i in range(replica.n_bootstrap, len(replica.paper_ids)):
            birth = int(replica.birth[i])
            observed = replica.last_year - birth + 1
            if observed < 10:
                continue
            counts = tuple(series[i, : min(observed, 21)].tolist())
            if sum(counts[:10]) <= ClassifierConfig().oth_citation_threshold:
                continue
            cs = CitationSeries(paper_id=replica.paper_ids[i], pub_year=birth, counts=counts)
            pairs.append((CATEGORIES[replica.category[i]], classify(cs).category))
    return pairs


def test_06_round_trip_consistency(desk_simulation):
    pairs = [(g, p) for g, p in _round_trip_labels(desk_simulation) if g != P.OTH]
    assert len(pairs) > 500
    recovered = sum(1 for g, p in pairs if g == p)
    assert recovered / len(pairs) >= 0.50

    # Known to fail for three categories, none of them sampling noise:
    # - MonDec reads as PeakInit. MonDec needs the smoothed series to be
    #   non-increasing from index 1 on. With the 5-year window, index 3 is
    #   at most index 2 exactly when the count at age 5 is at most the
    #   count at age 0. The model never cites a paper
    #   in its insertion year, so the age-0 count is 0, and a generated
    #   paper is MonDec only when it gets no citation at age 5. Mending it
    #   changes the model or the MonDec rule; neither is settled here.
    # - MonIncr has almost no screened generated paper: at this seed one
    #   gets more than 10 citations in its first decade (it reads as
    #   PeakLate); the rest are Oth.
    # - PeakMul reads as PeakInit more often than as PeakMul. The model
    #   gives it two flat plateaus of equal attractiveness (ages 0-8 and
    #   12-15 with the default peak times) at 1-2 citations a year. The
    #   smoothed second plateau sits near the 75 % peak-height bar, and the
    #   flat first one has its maximum at age 2-5 or later by chance.
    by_cat: dict[ProfileCategory, Counter] = {}
    for g, p in pairs:
        by_cat.setdefault(g, Counter())[p] += 1
    misses = []
    for cat in CATEGORIES:
        if cat == P.OTH:
            continue
        predicted = by_cat.get(cat)
        if not predicted:
            misses.append(f"{cat.value}: no screened generated paper")
            continue
        modal, n = predicted.most_common(1)[0]
        if modal != cat:
            total = sum(predicted.values())
            misses.append(f"{cat.value}: modal prediction {modal.value} ({n} of {total})")
    assert not misses, "; ".join(misses)


# ---------------------------------------------------------------------------
# 7. self-citation stripping
# ---------------------------------------------------------------------------


def _selfcite_acceptance_corpus():
    """200 papers; one MonDec-shaped paper with 80% self-citations."""
    records = [
        PaperRecord(paper_id="t0", year=1980, author_ids=("alice",)),
        PaperRecord(paper_id="p1", year=1980, author_ids=("bob",)),
    ]
    sinks = ("s1", "s2", "s3")
    for s in sinks:
        records.append(PaperRecord(paper_id=s, year=1970, author_ids=(f"a_{s}",)))

    planted = []
    n = 0
    for offset, c in enumerate(FIXTURE_SERIES[P.MON_DEC]):
        n_other = 1 if offset <= 8 and c > 0 else 0
        for _ in range(n_other):
            records.append(
                PaperRecord(
                    paper_id=f"o{n}", year=1980 + offset,
                    author_ids=(f"u{n}",), reference_ids=("t0",),
                )
            )
            n += 1
        for _ in range(c - n_other):
            pid = f"z{n}"
            records.append(
                PaperRecord(
                    paper_id=pid, year=1980 + offset,
                    author_ids=("alice",), reference_ids=("t0",),
                )
            )
            planted.append((pid, "t0"))
            n += 1
    for offset, c in enumerate(FIXTURE_SERIES[P.PEAK_INIT]):
        for _ in range(c):
            records.append(
                PaperRecord(
                    paper_id=f"v{n}", year=1980 + offset,
                    author_ids=(f"v{n}",), reference_ids=("p1",),
                )
            )
            n += 1
    while len(records) < 200:
        i = len(records)
        records.append(
            PaperRecord(
                paper_id=f"w{i}", year=1995,
                author_ids=(f"w{i}",), reference_ids=sinks,
            )
        )
    return build_graph(records), planted


def test_07_self_citation_stripping():
    graph, planted = _selfcite_acceptance_corpus()
    n_edges = sum(len(graph.out_references(pid)) for pid in graph.node_ids())
    assert 0.08 <= len(planted) / n_edges <= 0.12  # ~10% shared-author edges

    stripped, log = strip_self_citations(graph)
    assert {(a, b) for a, b, _ in log.removed} == set(planted)
    assert len(log.removed) == len(planted)

    matrices, _ = self_citation_confusion(graph, threshold_sweep=range(10, 15))
    for threshold in range(10, 15):
        matrix = matrices[threshold]
        for row in matrix.fractions:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
    base = matrices[10]
    row = base.row(P.MON_DEC)
    assert base.entry(P.MON_DEC, P.OTH) == max(row)
    assert base.entry(P.MON_DEC, P.OTH) == 1.0


# ---------------------------------------------------------------------------
# 8. stability flows
# ---------------------------------------------------------------------------

# Hovers around 3/year for a decade, then takes off. At T+10 the smoothed
# series has an early plateau peak followed by a late rebound (neither
# monotone branch fits), at T+20 the run-up dominates.
FLAT_THEN_SURGE = (4, 2, 2, 4, 3, 4, 2, 2, 4, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)


def test_08_stability_flow_planted_series():
    graph = build_graph(corpus_from_series({"pp": FLAT_THEN_SURGE}))
    flow = stability_flows(graph, horizons=(10, 15, 20))
    assert flow.labels[10]["pp"] == P.OTH
    assert flow.labels[20]["pp"] == P.MON_INCR
    for (h1, h2), matrix in flow.flows.items():
        assert sum(matrix.values()) == len(flow.labels[h1]) == len(flow.labels[h2])
        for cat in CATEGORIES:
            outflow = sum(v for (src, _), v in matrix.items() if src == cat)
            assert outflow == sum(1 for c in flow.labels[h1].values() if c == cat)
            inflow = sum(v for (_, dst), v in matrix.items() if dst == cat)
            assert inflow == sum(1 for c in flow.labels[h2].values() if c == cat)


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_09_simulate_determinism_across_threads(tmp_path):
    config = {
        "pub_dist": {str(year): 20 for year in range(1976, 1991)},
        "ref_dist": {"geometric": {"mean": 5}},
        "replicas": 4,
        "seed": 3,
        "bootstrap": {"synthetic": {"n": 60, "seed": 1}},
    }
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(config))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["simulate", "--config", str(path)]
    assert main(args + ["--out", str(out_a), "--threads", "1"]) == EXIT_OK
    assert main(args + ["--out", str(out_b), "--threads", "2"]) == EXIT_OK
    for name in ("nodes.jsonl", "edges.jsonl", "profiles.csv"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


# ---------------------------------------------------------------------------
# 10. belt construction
# ---------------------------------------------------------------------------


def test_10_belt_matches_sort_oracle():
    rng = np.random.default_rng(10)
    series = [rng.uniform(0.0, 10.0, size=21) for _ in range(500)]
    belt = citation_belt(P.OTH, series, normalized=True)
    n = len(series)
    rank = math.ceil(0.1 * n)
    assert belt.ages == tuple(range(21))
    for idx, age in enumerate(belt.ages):
        column = np.sort([s[age] for s in series])
        assert belt.q1[idx] == column[rank - 1]
        assert belt.q3[idx] == column[math.ceil(0.9 * n) - 1]
        assert belt.mean[idx] == pytest.approx(column.mean())
        assert np.sum(column < belt.q1[idx]) <= rank - 1
        assert np.sum(column <= belt.q1[idx]) >= rank
