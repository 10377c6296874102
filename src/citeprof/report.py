"""Aggregated exports: citation belts and in-degree distributions.

A citation belt bounds the spread of a category's normalized citation
profiles: per age-year it carries the 10th percentile, the mean, and the
90th percentile (nearest-rank percentiles), so 10% of points lie below
the lower line and 10% above the upper one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import CitationGraph
from .profiles import CATEGORIES, ProfileCategory, normalize

LOW_SAMPLE_THRESHOLD = 10
MIN_PAPERS_PER_AGE = 5


def nearest_rank(sorted_values: np.ndarray, fraction: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(fraction * n)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(fraction * n))
    return float(sorted_values[rank - 1])


@dataclass
class CitationBelt:
    category: ProfileCategory
    ages: tuple[int, ...]
    q1: tuple[float, ...]
    mean: tuple[float, ...]
    q3: tuple[float, ...]
    n_papers: int
    low_sample: bool


def citation_belt(
    category: ProfileCategory,
    series_set: Sequence[Sequence[float]] | np.ndarray,
    normalized: bool = False,
    lower: float = 0.10,
    upper: float = 0.90,
    min_papers_per_age: int = MIN_PAPERS_PER_AGE,
) -> CitationBelt:
    """Belt lines for one category.

    ``series_set`` holds one series per paper. Series may differ in
    length; normalized ones may also come as a float matrix with NaN past
    each row's end. An age is kept while at least ``min_papers_per_age``
    series still cover it (tail truncation).
    """
    if normalized and isinstance(series_set, np.ndarray):
        matrix = series_set
    else:
        rows = [np.asarray(s, dtype=float) if normalized else normalize(s) for s in series_set]
        matrix = np.full((len(rows), max(map(len, rows), default=0)), np.nan)
        for i, row in enumerate(rows):
            matrix[i, : len(row)] = row
    covered = np.count_nonzero(~np.isnan(matrix), axis=0)
    enough = covered >= max(min_papers_per_age, 1)
    enough[:1] = covered[:1] > 0  # age 0 is kept whenever a series covers it
    n_ages = len(enough) if enough.all() else int(enough.argmin())
    # One contiguous row per age, sorted with NaN last, so each age's
    # covered values are the prefix of its row.
    columns = np.ascontiguousarray(matrix[:, :n_ages].T)
    columns.sort(axis=1)
    q1s, means, q3s = [], [], []
    for row, n in zip(columns, covered[:n_ages].tolist()):
        column = row[:n]
        q1s.append(nearest_rank(column, lower))
        means.append(float(column.mean()))
        q3s.append(nearest_rank(column, upper))
    return CitationBelt(
        category=category,
        ages=tuple(range(n_ages)),
        q1=tuple(q1s),
        mean=tuple(means),
        q3=tuple(q3s),
        n_papers=len(matrix),
        low_sample=len(matrix) < LOW_SAMPLE_THRESHOLD,
    )


def belts_by_category(
    series_by_category: Mapping[ProfileCategory, Sequence[Sequence[float]]],
    normalized: bool = False,
) -> dict[ProfileCategory, CitationBelt]:
    return {
        cat: citation_belt(cat, series_by_category.get(cat, ()), normalized=normalized)
        for cat in CATEGORIES
    }


def belt_csv_rows(belts: Mapping[ProfileCategory, CitationBelt]) -> Iterable[list]:
    yield ["category", "age", "q1", "mean", "q3"]
    for cat in CATEGORIES:
        belt = belts.get(cat)
        if belt is None:
            continue
        for age, q1, mean, q3 in zip(belt.ages, belt.q1, belt.mean, belt.q3):
            yield [cat.value, age, f"{q1:.6f}", f"{mean:.6f}", f"{q3:.6f}"]


@dataclass
class DegreeDistribution:
    """Empirical in-degree PMF for one category."""

    category: ProfileCategory
    degrees: tuple[int, ...]
    fractions: tuple[float, ...]

    def cdf_at(self, x: float) -> float:
        return float(
            sum(f for d, f in zip(self.degrees, self.fractions) if d <= x)
        )

    def log_binned(self, base: float = 2.0) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(bin upper edges, probability mass per bin); degree 0 gets its own bin."""
        if base <= 1:
            raise ValueError("log base must exceed 1")
        max_deg = max(self.degrees)
        edges = [0.0]
        e = 1.0
        while e <= max_deg:
            edges.append(e)
            e *= base
        edges.append(e)
        mass = [0.0] * (len(edges))
        for d, f in zip(self.degrees, self.fractions):
            for bi in range(len(edges)):
                if d <= edges[bi]:
                    mass[bi] += f
                    break
        return tuple(edges), tuple(mass)


def indegree_distribution(
    graph_or_degrees: CitationGraph | Mapping[str, int],
    labels: Mapping[str, ProfileCategory],
) -> dict[ProfileCategory, DegreeDistribution]:
    """Per-category empirical in-degree PMF."""
    if isinstance(graph_or_degrees, CitationGraph):
        degrees = {pid: graph_or_degrees.in_degree(pid) for pid in graph_or_degrees.node_ids()}
    else:
        degrees = dict(graph_or_degrees)
    out = {}
    for cat in CATEGORIES:
        values = sorted(d for pid, d in degrees.items() if labels.get(pid) == cat)
        if not values:
            continue
        uniq, counts = np.unique(np.array(values), return_counts=True)
        fractions = counts / counts.sum()
        out[cat] = DegreeDistribution(
            category=cat,
            degrees=tuple(int(d) for d in uniq),
            fractions=tuple(float(f) for f in fractions),
        )
    return out


@dataclass(frozen=True)
class DistributionComparison:
    category: ProfileCategory
    ks: float
    tv: float


def compare_distributions(
    a: DegreeDistribution, b: DegreeDistribution, log_base: float = 2.0
) -> DistributionComparison:
    """Kolmogorov-Smirnov statistic over the empirical CDFs plus the
    total-variation distance on shared log bins."""
    if a.category != b.category:
        raise ValueError("distributions belong to different categories")
    if not a.degrees or not b.degrees:
        raise ValueError("empty distribution")
    support = sorted(set(a.degrees) | set(b.degrees))
    ks = max(abs(a.cdf_at(x) - b.cdf_at(x)) for x in support)

    edges_a, mass_a = a.log_binned(log_base)
    edges_b, mass_b = b.log_binned(log_base)
    n = max(len(edges_a), len(edges_b))
    pa = list(mass_a) + [0.0] * (n - len(mass_a))
    pb = list(mass_b) + [0.0] * (n - len(mass_b))
    tv = 0.5 * sum(abs(x - y) for x, y in zip(pa, pb))
    return DistributionComparison(category=a.category, ks=float(ks), tv=float(tv))


def degree_csv_rows(
    dists: Mapping[ProfileCategory, DegreeDistribution]
) -> Iterable[list]:
    yield ["category", "indegree", "fraction"]
    for cat in CATEGORIES:
        dist = dists.get(cat)
        if dist is None:
            continue
        for d, f in zip(dist.degrees, dist.fractions):
            yield [cat.value, d, f"{f:.8f}"]
