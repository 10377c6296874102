"""Downstream analyses on classified citation corpora.

Citation-bucket conditional histograms, venue/year composition,
self-citation removal with category confusion matrices, category
stability over time, in-degree k-shell decomposition with broad shells,
and peak statistics for the multi-peak category.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import CitationGraph, CitationSeries, PaperRecord, extract_series
from .profiles import (
    CATEGORIES,
    Classification,
    ClassifierConfig,
    ProfileCategory,
    classify,
    classify_corpus,
    detect_peaks,
    normalize,
    smooth,
)

DEFAULT_BUCKET_BOUNDARIES = ((11, 12), (13, 15), (16, 19))
DEFAULT_THRESHOLD_SWEEP = (10, 11, 12, 13, 14)
N_BROAD_SHELLS = 6


# ---------------------------------------------------------------------------
# Citation buckets


@dataclass
class CitationBuckets:
    """P(citation bucket | category); papers under the lowest bound excluded."""

    boundaries: tuple[tuple[int, int], ...]
    probabilities: dict[ProfileCategory, tuple[float, ...]]
    n_below_minimum: int
    empty_categories: tuple[ProfileCategory, ...]


def citation_bucket_histogram(
    labels: Mapping[str, ProfileCategory],
    totals: Mapping[str, int],
    boundaries: Sequence[tuple[int, int]] = DEFAULT_BUCKET_BOUNDARIES,
    split_top_range: bool = True,
) -> CitationBuckets:
    """Conditional citation-count distribution per category.

    ``totals`` maps paper id to its citation count over the
    classification window. The open-ended top range above the last
    boundary is split into four sub-ranges at the 25/50/75 equal
    population quantiles of its members.
    """
    bounds = [tuple(b) for b in boundaries]
    low = bounds[0][0]
    top_members = sorted(
        t for pid, t in totals.items() if pid in labels and t > bounds[-1][1]
    )
    if split_top_range and top_members:
        top_max = top_members[-1]
        qs = [
            top_members[min(len(top_members) - 1, int(np.ceil(q * len(top_members))) - 1)]
            for q in (0.25, 0.5, 0.75)
        ]
        lo = bounds[-1][1] + 1
        subranges = []
        for q in qs:
            if q >= lo:
                subranges.append((lo, q))
                lo = q + 1
        subranges.append((lo, max(top_max, lo)))
        bounds.extend(subranges)
    elif top_members:
        bounds.append((bounds[-1][1] + 1, top_members[-1]))

    counts = {c: np.zeros(len(bounds)) for c in CATEGORIES}
    n_below = 0
    for pid, cat in labels.items():
        t = totals.get(pid, 0)
        if t < low:
            n_below += 1
            continue
        for bi, (blo, bhi) in enumerate(bounds):
            if blo <= t <= bhi:
                counts[cat][bi] += 1
                break
        else:
            n_below += 1  # above the final range is impossible by construction
    probabilities = {}
    empties = []
    for c in CATEGORIES:
        total = counts[c].sum()
        if total == 0:
            empties.append(c)
            probabilities[c] = tuple(0.0 for _ in bounds)
        else:
            probabilities[c] = tuple(float(x) for x in counts[c] / total)
    return CitationBuckets(
        boundaries=tuple(bounds),
        probabilities=probabilities,
        n_below_minimum=n_below,
        empty_categories=tuple(empties),
    )


# ---------------------------------------------------------------------------
# Venue / year composition


@dataclass(frozen=True)
class VenueYearRow:
    category: ProfileCategory
    n_papers: int
    mean_year: float
    std_year: float
    pct_conference: float
    pct_journal: float


def venue_year_composition(
    labels: Mapping[str, ProfileCategory], records: Mapping[str, PaperRecord]
) -> list[VenueYearRow]:
    """Mean publication year, its spread, and venue split per category.

    Papers with unknown venue type contribute to the year statistics but
    not to the conference/journal percentages.
    """
    rows = []
    for c in CATEGORIES:
        members = [records[pid] for pid, cat in labels.items() if cat == c and pid in records]
        if not members:
            rows.append(VenueYearRow(c, 0, float("nan"), float("nan"), float("nan"), float("nan")))
            continue
        years = np.array([m.year for m in members], dtype=float)
        n_conf = sum(1 for m in members if m.venue_type == "conference")
        n_jour = sum(1 for m in members if m.venue_type == "journal")
        known = n_conf + n_jour
        rows.append(
            VenueYearRow(
                category=c,
                n_papers=len(members),
                mean_year=float(years.mean()),
                std_year=float(years.std()),
                pct_conference=100.0 * n_conf / known if known else float("nan"),
                pct_journal=100.0 * n_jour / known if known else float("nan"),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Self-citations


@dataclass
class SelfCitationLog:
    """Removed self-citation edges with the citation age at removal."""

    removed: list[tuple[str, str, int]]  # (citing, cited, citing_year - cited_year)

    def age_histogram(
        self, labels: Mapping[str, ProfileCategory], max_age: int = 20
    ) -> dict[ProfileCategory, tuple[float, ...]]:
        """Per-category fraction of self-citations by age; last bin is max_age+."""
        counts = {c: np.zeros(max_age + 1) for c in CATEGORIES}
        for citing, cited, age in self.removed:
            cat = labels.get(cited)
            if cat is None or age < 0:
                continue
            counts[cat][min(age, max_age)] += 1
        out = {}
        for c in CATEGORIES:
            total = counts[c].sum()
            out[c] = tuple(
                float(x) for x in (counts[c] / total if total else counts[c])
            )
        return out


def strip_self_citations(
    graph: CitationGraph, records: Mapping[str, PaperRecord] | None = None
) -> tuple[CitationGraph, SelfCitationLog]:
    """Drop every edge whose endpoints share at least one author."""
    recs = records if records is not None else graph.records
    removed: list[tuple[str, str, int]] = []
    stripped: list[PaperRecord] = []
    for pid in graph.node_ids():
        rec = recs[pid]
        authors = set(rec.author_ids)
        kept = []
        for ref in graph.out_references(pid):
            if authors and authors.intersection(recs[ref].author_ids):
                removed.append((pid, ref, rec.year - recs[ref].year))
            else:
                kept.append(ref)
        stripped.append(
            PaperRecord(
                paper_id=rec.paper_id,
                year=rec.year,
                venue_type=rec.venue_type,
                fields=rec.fields,
                author_ids=rec.author_ids,
                reference_ids=tuple(kept),
            )
        )
    return CitationGraph(stripped), SelfCitationLog(removed=removed)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic category transition fractions (source x destination)."""

    categories: tuple[ProfileCategory, ...]
    fractions: tuple[tuple[float, ...], ...]
    row_counts: tuple[int, ...]

    def row(self, cat: ProfileCategory) -> tuple[float, ...]:
        return self.fractions[self.categories.index(cat)]

    def entry(self, src: ProfileCategory, dst: ProfileCategory) -> float:
        return self.row(src)[self.categories.index(dst)]


def _confusion(
    before: Mapping[str, ProfileCategory], after: Mapping[str, ProfileCategory]
) -> ConfusionMatrix:
    counts = {c: Counter() for c in CATEGORIES}
    for pid, src in before.items():
        dst = after.get(pid)
        if dst is not None:
            counts[src][dst] += 1
    rows = []
    row_counts = []
    for src in CATEGORIES:
        total = sum(counts[src].values())
        row_counts.append(total)
        if total:
            rows.append(tuple(counts[src][dst] / total for dst in CATEGORIES))
        else:
            rows.append(tuple(1.0 if dst == src else 0.0 for dst in CATEGORIES))
    return ConfusionMatrix(
        categories=CATEGORIES, fractions=tuple(rows), row_counts=tuple(row_counts)
    )


def self_citation_confusion(
    graph: CitationGraph,
    cfg: ClassifierConfig = ClassifierConfig(),
    threshold_sweep: Sequence[int] = DEFAULT_THRESHOLD_SWEEP,
) -> tuple[dict[int, ConfusionMatrix], dict[ProfileCategory, tuple[float, ...]]]:
    """Category migration caused by removing self-citations.

    Classifies the corpus before and after stripping for each category
    threshold in the sweep; also returns the per-category distribution
    of self-citation ages (fraction per year after publication).
    """
    stripped, log = strip_self_citations(graph)
    matrices: dict[int, ConfusionMatrix] = {}
    base_labels = None
    for threshold in threshold_sweep:
        sweep_cfg = ClassifierConfig(
            min_history_years=cfg.min_history_years,
            max_window_years=cfg.max_window_years,
            oth_citation_threshold=threshold,
            smoothing_window=cfg.smoothing_window,
            peak_height_fraction=cfg.peak_height_fraction,
            peak_min_separation=cfg.peak_min_separation,
            early_peak_bound=cfg.early_peak_bound,
        )
        before = classify_corpus(graph, sweep_cfg).labels
        after = classify_corpus(stripped, sweep_cfg, observation_year=graph.max_year).labels
        matrices[threshold] = _confusion(before, after)
        if threshold == cfg.oth_citation_threshold:
            base_labels = before
    if base_labels is None:
        base_labels = classify_corpus(graph, cfg).labels
    timing = log.age_histogram(base_labels)
    return matrices, timing


# ---------------------------------------------------------------------------
# k-shell decomposition


@dataclass
class ShellAssignment:
    """In-degree peeling shell per paper plus a 6-band broad shell.

    Nodes with zero in-degree in the original graph form shell 0 and are
    excluded from the broad-shell bands.
    """

    shells: dict[str, int]
    broad_shells: dict[str, int]
    max_shell: int


def kshell_decompose(graph: CitationGraph) -> ShellAssignment:
    """Iterative in-degree peeling.

    Nodes with no inbound citation at all are assigned shell 0 first.
    Then, for k = 1, 2, ..., nodes whose in-degree within the remaining
    graph is <= k are removed recursively and form the k-shell.
    """
    indeg = {pid: graph.in_degree(pid) for pid in graph.node_ids()}
    out_adj = {pid: graph.out_references(pid) for pid in graph.node_ids()}
    shells: dict[str, int] = {}

    def peel(limit: int, shell: int, remaining: set[str]) -> None:
        frontier = sorted(p for p in remaining if indeg[p] <= limit)
        while frontier:
            nxt: set[str] = set()
            for pid in frontier:
                shells[pid] = shell
                remaining.discard(pid)
                for ref in out_adj[pid]:
                    if ref in remaining:
                        indeg[ref] -= 1
                        if indeg[ref] <= limit:
                            nxt.add(ref)
            frontier = sorted(nxt)

    remaining = set(indeg)
    # Shell 0: nodes never cited in the original graph.
    zero = sorted(p for p in remaining if indeg[p] == 0)
    for pid in zero:
        shells[pid] = 0
        remaining.discard(pid)
    for pid in zero:
        for ref in out_adj[pid]:
            if ref in remaining:
                indeg[ref] -= 1
    k = 1
    while remaining:
        peel(k, k, remaining)
        k += 1
    max_shell = max(shells.values(), default=0)
    broad = {
        pid: broad_shell(s, max_shell) for pid, s in shells.items() if s >= 1
    }
    return ShellAssignment(shells=shells, broad_shells=broad, max_shell=max_shell)


def broad_shell(shell: int, max_shell: int, n_bands: int = N_BROAD_SHELLS) -> int:
    """Map a shell index in [1, max_shell] to one of six contiguous bands.

    Bands have equal index width; the innermost band absorbs any
    remainder. Band 1 is the periphery, band ``n_bands`` the core.
    """
    if shell < 1:
        raise ValueError("broad shells cover shell indices >= 1")
    if max_shell <= n_bands:
        return min(shell, n_bands)
    width = max_shell // n_bands
    return min((shell - 1) // width + 1, n_bands)


def core_periphery_evolution(
    graph: CitationGraph,
    label_year: int,
    years: Sequence[int],
) -> dict[tuple[int, int], dict[ProfileCategory, float]]:
    """Category composition of each broad shell across snapshot years.

    Labels are fixed by classifying the induced subgraph at the earliest
    year (``label_year``); each later snapshot is the induced subgraph
    of papers published at or before that year. Returns
    (year, broad shell) -> category fractions summing to 1. A snapshot
    year before ``label_year`` is a ValueError: its snapshot would lack
    labeled papers.
    """
    early = [year for year in years if year < label_year]
    if early:
        raise ValueError(f"snapshot years {sorted(early)} precede label_year {label_year}")
    labels = classify_corpus(graph.subgraph_upto(label_year)).labels
    out: dict[tuple[int, int], dict[ProfileCategory, float]] = {}
    for year in sorted(years):
        snapshot = graph.subgraph_upto(year)
        assignment = kshell_decompose(snapshot)
        per_shell: dict[int, Counter] = {}
        for pid, cat in labels.items():
            band = assignment.broad_shells.get(pid)
            if band is None:
                continue
            per_shell.setdefault(band, Counter())[cat] += 1
        for band, counter in per_shell.items():
            total = sum(counter.values())
            out[(year, band)] = {c: counter.get(c, 0) / total for c in CATEGORIES}
    return out


# ---------------------------------------------------------------------------
# Category stability over time


@dataclass
class StabilityFlow:
    """Category transition counts across classification horizons."""

    horizons: tuple[int, ...]
    labels: dict[int, dict[str, ProfileCategory]]  # horizon -> labels
    flows: dict[tuple[int, int], dict[tuple[ProfileCategory, ProfileCategory], int]]

    def alluvial_rows(self) -> list[tuple[str, str, str, int]]:
        """(window, from, to, count) rows for alluvial/sankey rendering."""
        rows = []
        for (h1, h2), matrix in sorted(self.flows.items()):
            for (src, dst), count in sorted(
                matrix.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
            ):
                rows.append((f"T+{h1}->T+{h2}", src.value, dst.value, count))
        return rows


def stability_flows(
    graph: CitationGraph,
    cfg: ClassifierConfig = ClassifierConfig(),
    horizons: Sequence[int] = (10, 15, 20),
) -> StabilityFlow:
    """Classify every long-history paper at multiple horizons.

    Only papers with at least max(horizons) years of observable history
    participate, so every flow matrix conserves its block sizes.
    """
    horizons = tuple(sorted(horizons))
    needed = horizons[-1]
    obs = graph.max_year
    labels: dict[int, dict[str, ProfileCategory]] = {h: {} for h in horizons}
    for pid in graph.node_ids():
        history = obs - graph.year(pid) + 1
        if history < needed:
            continue
        for h in horizons:
            series = extract_series(graph, pid, horizon_years=h)
            truncated_cfg = cfg if h >= cfg.max_window_years else ClassifierConfig(
                min_history_years=cfg.min_history_years,
                max_window_years=h,
                oth_citation_threshold=cfg.oth_citation_threshold,
                smoothing_window=cfg.smoothing_window,
                peak_height_fraction=cfg.peak_height_fraction,
                peak_min_separation=cfg.peak_min_separation,
                early_peak_bound=cfg.early_peak_bound,
            )
            labels[h][pid] = classify(series, truncated_cfg).category
    flows: dict[tuple[int, int], dict[tuple[ProfileCategory, ProfileCategory], int]] = {}
    for h1, h2 in zip(horizons, horizons[1:]):
        matrix: dict[tuple[ProfileCategory, ProfileCategory], int] = {}
        for pid, src in labels[h1].items():
            dst = labels[h2][pid]
            matrix[(src, dst)] = matrix.get((src, dst), 0) + 1
        flows[(h1, h2)] = matrix
    return StabilityFlow(horizons=horizons, labels=labels, flows=flows)


# ---------------------------------------------------------------------------
# PeakMul peak statistics


@dataclass
class PeakStatistics:
    """Peak counts, positions, and raw heights mirroring the per-category view."""

    fraction_two_peaks: float
    mean_positions_by_rank: tuple[float, ...]  # PeakMul, per peak rank
    mean_heights_by_rank: tuple[float, ...]  # raw citations/year
    single_peak_stats: dict[ProfileCategory, tuple[float, float]]  # (mean pos, mean height)


def peakmul_statistics(
    labels: Mapping[str, ProfileCategory],
    series: Mapping[str, CitationSeries],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> PeakStatistics:
    """Peak statistics with heights reported in raw citations/year.

    Peak positions come from the standard smoothed-normalized pipeline;
    heights are read off the smoothed (unnormalized) series at those
    positions.
    """
    mul_counts: list[int] = []
    mul_positions: dict[int, list[int]] = {}
    mul_heights: dict[int, list[float]] = {}
    single: dict[ProfileCategory, tuple[list[int], list[float]]] = {
        ProfileCategory.PEAK_INIT: ([], []),
        ProfileCategory.PEAK_LATE: ([], []),
    }
    for pid, cat in labels.items():
        if cat not in (ProfileCategory.PEAK_MUL, *single):
            continue
        s = series.get(pid)
        if s is None:
            continue
        counts = s.counts[: cfg.max_window_years]
        smoothed = smooth(counts, cfg.smoothing_window)
        peaks = detect_peaks(normalize(smoothed), cfg)
        if cat == ProfileCategory.PEAK_MUL:
            mul_counts.append(len(peaks))
            for rank, (pos, _) in enumerate(peaks.peaks):
                mul_positions.setdefault(rank, []).append(pos)
                mul_heights.setdefault(rank, []).append(float(smoothed[pos]))
        elif len(peaks) == 1:
            pos = peaks.positions[0]
            single[cat][0].append(pos)
            single[cat][1].append(float(smoothed[pos]))
    frac_two = (
        sum(1 for c in mul_counts if c == 2) / len(mul_counts) if mul_counts else 0.0
    )
    ranks = sorted(mul_positions)
    return PeakStatistics(
        fraction_two_peaks=frac_two,
        mean_positions_by_rank=tuple(float(np.mean(mul_positions[r])) for r in ranks),
        mean_heights_by_rank=tuple(float(np.mean(mul_heights[r])) for r in ranks),
        single_peak_stats={
            cat: (
                float(np.mean(pos)) if pos else float("nan"),
                float(np.mean(heights)) if heights else float("nan"),
            )
            for cat, (pos, heights) in single.items()
        },
    )
