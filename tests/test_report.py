import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from citeprof import report
from citeprof.profiles import ProfileCategory, normalize

PI = ProfileCategory.PEAK_INIT


def test_nearest_rank():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert report.nearest_rank(values, 0.10) == 1.0  # ceil(1.0) = rank 1
    assert report.nearest_rank(values, 0.90) == 9.0
    assert report.nearest_rank(values, 0.05) == 1.0
    assert report.nearest_rank(np.array([7.0]), 0.5) == 7.0
    with pytest.raises(ValueError):
        report.nearest_rank(np.array([]), 0.5)


def test_citation_belt_lines_and_truncation():
    # ages 3+ are covered by only 3 of the 11 series
    series_set = [[0, 1, 2] for _ in range(8)] + [[0, 1, 2, 3, 4, 5]] * 3
    belt = report.citation_belt(PI, series_set, normalized=True)
    assert belt.ages == (0, 1, 2)
    assert belt.n_papers == 11
    assert belt.low_sample is False
    small = report.citation_belt(PI, [[1, 2]] * 4, normalized=True)
    assert small.low_sample is True


def test_citation_belt_normalizes_raw_series():
    belt = report.citation_belt(PI, [[0, 5, 10]] * 6)
    assert belt.mean == (0.0, 0.5, 1.0)
    assert belt.q1 == belt.q3 == (0.0, 0.5, 1.0)


def test_empty_belt():
    belt = report.citation_belt(PI, [])
    assert belt.ages == ()
    assert belt.low_sample is True


def belt_oracle(series_set, normalized, lower, upper, min_papers_per_age):
    """(ages, q1, mean, q3) from one sorted column per age, built series by series."""
    rows = [np.asarray(s, dtype=float) if normalized else normalize(s) for s in series_set]
    ages, q1s, means, q3s = [], [], [], []
    for age in range(max((len(r) for r in rows), default=0)):
        column = np.array([r[age] for r in rows if len(r) > age])
        if len(column) < min_papers_per_age and age > 0:
            break
        column.sort()
        ages.append(age)
        q1s.append(float(column[max(1, math.ceil(lower * len(column))) - 1]))
        means.append(float(column.mean()))
        q3s.append(float(column[max(1, math.ceil(upper * len(column))) - 1]))
    return tuple(ages), tuple(q1s), tuple(means), tuple(q3s)


ragged_series = st.lists(
    st.lists(st.integers(0, 12) | st.floats(0.0, 50.0, allow_subnormal=False), max_size=25),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    series_set=ragged_series,
    normalized=st.booleans(),
    bounds=st.sampled_from([(0.10, 0.90), (0.25, 0.75), (0.0, 1.0), (0.5, 0.5)]),
    min_papers_per_age=st.integers(1, 8),
)
# Ages 3 and 4 are covered by 4 series, fewer than 5: the belt stops at age 2.
@example([[0, 1, 2]] * 5 + [[0, 1, 2, 3, 4]] * 4, True, (0.10, 0.90), 5)
def test_citation_belt_matches_per_age_oracle(series_set, normalized, bounds, min_papers_per_age):
    lower, upper = bounds
    belt = report.citation_belt(
        PI, series_set, normalized, lower, upper, min_papers_per_age=min_papers_per_age
    )
    expected = belt_oracle(series_set, normalized, lower, upper, min_papers_per_age)
    assert (belt.ages, belt.q1, belt.mean, belt.q3) == expected
    assert belt.n_papers == len(series_set)
    # The NaN-padded matrix simulate passes gives the same belt.
    rows = [np.asarray(s, dtype=float) if normalized else normalize(s) for s in series_set]
    matrix = np.full((len(rows), 26), np.nan)
    for i, row in enumerate(rows):
        matrix[i, : len(row)] = row
    padded = report.citation_belt(
        PI, matrix, normalized=True, lower=lower, upper=upper,
        min_papers_per_age=min_papers_per_age,
    )
    assert padded == belt


def test_belt_csv_rows():
    belts = report.belts_by_category({PI: [[0, 1, 2]] * 6}, normalized=True)
    rows = list(report.belt_csv_rows(belts))
    assert rows[0] == ["category", "age", "q1", "mean", "q3"]
    assert [r[0] for r in rows[1:]] == ["PeakInit"] * 3


def degree_dist(degrees):
    labels = {f"p{i}": PI for i in range(len(degrees))}
    counts = {f"p{i}": d for i, d in enumerate(degrees)}
    return report.indegree_distribution(counts, labels)[PI]


def test_indegree_distribution_pmf():
    dist = degree_dist([0, 0, 1, 3, 3, 3])
    assert dist.degrees == (0, 1, 3)
    assert dist.fractions == pytest.approx((2 / 6, 1 / 6, 3 / 6))
    assert dist.cdf_at(1) == pytest.approx(0.5)
    assert dist.cdf_at(10) == pytest.approx(1.0)


def test_log_binned_mass_sums_to_one():
    dist = degree_dist([0, 1, 2, 4, 8, 16, 33])
    edges, mass = dist.log_binned()
    assert sum(mass) == pytest.approx(1.0)
    assert edges[0] == 0.0
    assert edges[-1] >= 33


def test_compare_distributions():
    a = degree_dist([0, 1, 2, 3])
    same = report.compare_distributions(a, a)
    assert same.ks == 0.0
    assert same.tv == 0.0
    b = degree_dist([10, 11, 12, 13])
    diff = report.compare_distributions(a, b)
    assert diff.ks == pytest.approx(1.0)
    assert 0 < diff.tv <= 1.0


def test_compare_distributions_category_mismatch():
    labels = {"x": ProfileCategory.OTH}
    other = report.indegree_distribution({"x": 1}, labels)[ProfileCategory.OTH]
    with pytest.raises(ValueError):
        report.compare_distributions(degree_dist([1]), other)


def test_degree_csv_rows():
    dists = {PI: degree_dist([1, 1, 5])}
    rows = list(report.degree_csv_rows(dists))
    assert rows[0] == ["category", "indegree", "fraction"]
    assert len(rows) == 3
