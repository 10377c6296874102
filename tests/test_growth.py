import warnings
from statistics import NormalDist

import numpy as np
import pytest

from citeprof import growth
from citeprof.profiles import CATEGORIES, ProfileCategory

P = ProfileCategory


# ---------------------------------------------------------------------------
# distributions and parameters


def test_empirical_dist_validation():
    with pytest.raises(ValueError):
        growth.EmpiricalDist(values=(), probs=())
    with pytest.raises(ValueError):
        growth.EmpiricalDist(values=(1, 2), probs=(0.5,))
    with pytest.raises(ValueError):
        growth.EmpiricalDist(values=(1, 2), probs=(0.9, 0.2))
    with pytest.raises(ValueError):
        growth.EmpiricalDist(values=(1, 2), probs=(1.1, -0.1))


def test_point_mass_sampling():
    dist = growth.EmpiricalDist.point_mass(7)
    rng = np.random.default_rng(0)
    assert all(dist.sample(rng) == 7 for _ in range(5))


def test_geometric_ref_dist_mean():
    dist = growth.geometric_ref_dist(8, max_value=400)
    mean = sum(v * p for v, p in zip(dist.values, dist.probs))
    assert mean == pytest.approx(8.0, rel=1e-3)
    assert min(dist.values) == 1
    with pytest.raises(ValueError):
        growth.geometric_ref_dist(0.5)


def test_growth_params_error_paths():
    with pytest.raises(growth.GrowthConfigError) as err:
        growth.GrowthParams(rho={ProfileCategory.MON_DEC: -1.0})
    assert err.value.field_path == "rho.MonDec"
    with pytest.raises(growth.GrowthConfigError) as err:
        growth.GrowthParams(rho={ProfileCategory.MON_DEC: 0.25})
    assert err.value.field_path.startswith("rho.")
    with pytest.raises(growth.GrowthConfigError) as err:
        growth.GrowthParams(replicas=0)
    assert err.value.field_path == "replicas"


def test_peak_time_support_validation():
    bad_init = growth.EmpiricalDist(values=(1,), probs=(1.0,))
    with pytest.raises(growth.GrowthConfigError):
        growth.GrowthInputs(
            pub_dist={},
            ref_dist=growth.EmpiricalDist.point_mass(1),
            bootstrap=growth.BootstrapGraph(
                nodes=(("b0", 1970, ProfileCategory.OTH),), edges=()
            ),
            peak_time_dist={ProfileCategory.PEAK_INIT: bad_init},
        )


def test_sample_peak_times_defaults_and_custom():
    rng = np.random.default_rng(0)
    assert growth.sample_peak_times(ProfileCategory.MON_DEC, None, rng) is None
    assert growth.sample_peak_times(ProfileCategory.PEAK_INIT, None, rng) == 4
    assert growth.sample_peak_times(ProfileCategory.PEAK_LATE, None, rng) == 11
    assert growth.sample_peak_times(ProfileCategory.PEAK_MUL, None, rng) == (5, 12)
    custom = {ProfileCategory.PEAK_LATE: growth.EmpiricalDist.point_mass(7)}
    assert growth.sample_peak_times(ProfileCategory.PEAK_LATE, custom, rng) == 7


# ---------------------------------------------------------------------------
# attractiveness


def test_attractiveness_anchors():
    params = growth.GrowthParams()
    assert growth.attractiveness(P.MON_DEC, 3, 1.0, 0, params) == 4.0

    # PeakInit, T = 4, tau = 1, bucket mean 2: plateau while t <= T + tau
    assert growth.attractiveness(P.PEAK_INIT, 5, 2.0, 5, params, peak_times=4) == 7.0
    assert growth.attractiveness(P.PEAK_INIT, 5, 2.0, 6, params, 4) == pytest.approx(7 / 4.2)

    def mul(t):
        return growth.attractiveness(P.PEAK_MUL, 2, 1.0, t, params, peak_times=(4, 10))

    assert mul(8) == pytest.approx(0.375)
    # the mid boundary (T1+T2)/2 + tau = 10 still belongs to the decay phase
    assert mul(10) == pytest.approx(0.3)
    assert mul(11) == 3.0  # second plateau
    assert mul(14) == pytest.approx(3 / 14)


def test_attractiveness_negative_time_rejected():
    params = growth.GrowthParams()
    with pytest.raises(ValueError):
        growth.attractiveness(P.OTH, 0, 0.0, -1, params)


def test_peaked_attractiveness_non_increasing_past_plateau():
    params = growth.GrowthParams()
    tail = [
        growth.attractiveness(P.PEAK_LATE, 4, 4.0, t, params, peak_times=11)
        for t in range(15, 40)
    ]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# selection operations

CODES = growth.CATEGORY_CODES


def papers(cat, n, prefix, year=1975):
    return [(f"{prefix}{i}", year, cat) for i in range(n)]


def grow_one_year(nodes, n_new, out_degree=0, seed=1):
    """State after one simulated year (1980) grown from the given seed papers."""
    inputs = growth.GrowthInputs(
        pub_dist={1980: n_new},
        ref_dist=growth.EmpiricalDist.point_mass(out_degree),
        bootstrap=growth.BootstrapGraph(nodes=tuple(nodes), edges=()),
    )
    params = growth.GrowthParams()
    rng = np.random.default_rng(seed)
    state = growth.SimulationState(inputs, params, rng)
    growth.simulate_step(state, 1980, inputs, params, rng)
    return state, len(nodes)


def test_select_category_point_mass():
    state, first = grow_one_year(papers(P.PEAK_INIT, 100, "a"), n_new=20)
    assert len(state.cat) == first + 20
    assert (state.cat[first:] == CODES[P.PEAK_INIT]).all()


def test_select_category_proportional():
    nodes = papers(P.PEAK_INIT, 30, "a") + papers(P.OTH, 10, "o")
    state, first = grow_one_year(nodes, n_new=10_000, seed=2)
    assert abs(np.mean(state.cat[first:] == CODES[P.PEAK_INIT]) - 0.75) < 0.02


def test_select_target_bucket_uniform_fallback():
    # No citation yet: buckets are drawn uniformly, the empty ones never.
    nodes = papers(P.PEAK_INIT, 5, "a") + papers(P.OTH, 5, "o")
    state, first = grow_one_year(nodes, n_new=200, out_degree=1, seed=3)
    cited = state.edges[:, 1]
    assert len(cited) == 200
    assert {CATEGORIES[c] for c in state.cat[cited]} == {P.PEAK_INIT, P.OTH}


def test_select_target_paper_weighted():
    params = growth.GrowthParams()
    codes = np.full(2, CODES[P.MON_INCR])
    zeros = np.zeros(2)
    weights = growth._selection_weights(np.array([5, 1]), zeros, codes, zeros, zeros, params)
    # pi_a = 5 + 0.3*3 + 0 = 5.9, pi_b = 1.9 -> a with p ~ 0.756
    assert weights == pytest.approx([5.9 / 7.8, 1.9 / 7.8], rel=1e-12)
    rng = np.random.default_rng(4)
    _, cited, _ = growth._draw_references(np.ones(10_000, dtype=np.int64), weights, rng)
    assert abs(np.mean(cited == 0) - 5.9 / 7.8) < 0.02


def two_stage_weights(k, t, codes, t1, t2, params):
    """Oracle: per-paper probability of the two-stage draw, one paper at a time.

    Stage 1 picks a bucket by its accumulated citations, uniformly over the
    non-empty buckets when there are none; stage 2 picks a paper of the
    bucket by attractiveness, uniformly when it sums to 0.
    """
    members = {c: [i for i in range(len(k)) if CATEGORIES[codes[i]] == c] for c in CATEGORIES}
    cites = {c: float(sum(k[i] for i in members[c])) for c in CATEGORIES}
    total = sum(cites.values())
    nonempty = [c for c in CATEGORIES if members[c]]
    weights = [0.0] * len(k)
    for c in nonempty:
        p_bucket = cites[c] / total if total > 0 else 1 / len(nonempty)
        mu = cites[c] / len(members[c])
        pis = []
        for i in members[c]:
            peaks = (t1[i], t2[i]) if c == P.PEAK_MUL else t1[i]
            pis.append(growth.attractiveness(c, k[i], mu, t[i], params, peaks))
        pi_total = sum(pis)
        for i, pi in zip(members[c], pis):
            weights[i] = p_bucket * (pi / pi_total if pi_total > 0 else 1 / len(pis))
    return np.array(weights)


def snapshot(rng, counts, cited=True):
    """Hand-made snapshot: ``counts[c]`` papers per category, random ages and peaks."""
    codes = np.repeat(np.arange(len(CATEGORIES)), [counts.get(c, 0) for c in CATEGORIES])
    n = len(codes)
    k = rng.integers(0, 30, size=n) if cited else np.zeros(n, dtype=int)
    t = rng.integers(1, 25, size=n).astype(float)
    t1 = rng.integers(2, 7, size=n).astype(float)
    t2 = t1 + rng.integers(1, 10, size=n)
    return k, t, codes, t1, t2


def test_selection_weights_match_two_stage_oracle():
    rng = np.random.default_rng(12)
    default = growth.GrowthParams()
    all_six = {c: 8 for c in CATEGORIES}
    cases = {}
    cases["all six buckets"] = (snapshot(rng, all_six), default)
    k, t, codes, t1, t2 = snapshot(rng, all_six)
    k[codes == CODES[P.MON_INCR]] = 0
    cases["a non-empty bucket without citations"] = ((k, t, codes, t1, t2), default)
    # exp(-800 t) underflows to 0: MonDec's attractiveness sums to 0 although
    # the bucket is cited, so its papers are drawn uniformly.
    steep = growth.GrowthParams(rho={**growth.DEFAULT_RHO, P.MON_DEC: 800.0})
    cases["a bucket whose attractiveness sums to 0"] = (snapshot(rng, all_six), steep)
    sparse = {P.PEAK_INIT: 4, P.MON_DEC: 3, P.OTH: 5}
    cases["no citation yet"] = (snapshot(rng, sparse, cited=False), default)

    got = {}
    for name, ((k, t, codes, t1, t2), params) in cases.items():
        got[name] = growth._selection_weights(k, t, codes, t1, t2, params)
        want = two_stage_weights(k, t, codes, t1, t2, params)
        assert np.allclose(got[name], want, rtol=1e-12, atol=0), name
        assert np.array_equal(got[name] > 0, want > 0), name
        assert got[name].sum() == pytest.approx(1.0, rel=1e-12), name

    # Each case takes the path it is named for.
    def bucket(name, cat):
        return got[name][cases[name][0][2] == CODES[cat]]

    assert (bucket("a non-empty bucket without citations", P.MON_INCR) == 0).all()
    mondec = bucket("a bucket whose attractiveness sums to 0", P.MON_DEC)
    assert mondec[0] > 0 and np.ptp(mondec) == 0
    for c, n in sparse.items():
        assert bucket("no citation yet", c) == pytest.approx(1 / len(sparse) / n, rel=1e-12)


def test_draw_references_distinct_and_capped():
    # Three reachable papers: 1, 3 and 6.
    weights = np.array([0, 2, 0, 5, 0, 0, 3, 0, 0, 0])
    out_degrees = np.array([2, 5, 3, 0, 1, 3])
    citing, cited, draws = growth._draw_references(out_degrees, weights, np.random.default_rng(6))
    pairs = list(zip(citing.tolist(), cited.tolist()))
    assert pairs == sorted(set(pairs))  # no repeat, ordered by (citing, cited)
    assert set(cited.tolist()) <= {1, 3, 6}
    assert np.bincount(citing, minlength=6).tolist() == [2, 3, 3, 0, 1, 3]
    # More references than reachable papers: truncated after exactly the cap.
    assert draws[1] == growth.DUPLICATE_REDRAW_FACTOR * 5
    assert draws[3] == 0
    assert (draws[[0, 2, 4, 5]] >= out_degrees[[0, 2, 4, 5]]).all()
    assert (draws <= growth.DUPLICATE_REDRAW_FACTOR * np.maximum(out_degrees, 1)).all()


# ---------------------------------------------------------------------------
# bootstrap and simulation


def test_synthetic_bootstrap_quotas_and_dag():
    rng = np.random.default_rng(5)
    boot = growth.synthetic_bootstrap(
        600, growth.PAPER_CATEGORY_FRACTIONS, start_year=1970, n_years=6, rng=rng
    )
    assert len(boot.nodes) == 600
    by_cat = {c: 0 for c in CATEGORIES}
    years = {}
    for pid, year, cat in boot.nodes:
        by_cat[cat] += 1
        years[pid] = year
        assert 1970 <= year <= 1975
    # largest-remainder quotas for the documented fractions over n=600
    assert by_cat[ProfileCategory.PEAK_INIT] == 151
    assert by_cat[ProfileCategory.MON_INCR] == 7
    assert sum(by_cat.values()) == 600
    for citing, cited in boot.edges:
        assert years[cited] < years[citing]


def test_bootstrap_graph_validation():
    with pytest.raises(growth.GrowthConfigError):
        growth.BootstrapGraph(nodes=(), edges=())
    with pytest.raises(growth.GrowthConfigError):
        growth.BootstrapGraph(
            nodes=(("a", 1970, ProfileCategory.OTH),), edges=(("a", "ghost"),)
        )


def small_inputs(replicas=3, seed=11):
    rng = np.random.default_rng(9)
    boot = growth.synthetic_bootstrap(
        60, growth.PAPER_CATEGORY_FRACTIONS, start_year=1970, n_years=6, rng=rng
    )
    inputs = growth.GrowthInputs(
        pub_dist={year: 20 for year in range(1976, 1996)},
        ref_dist=growth.geometric_ref_dist(5),
        bootstrap=boot,
    )
    return inputs, growth.GrowthParams(replicas=replicas, rng_seed=seed)


def test_simulate_step_edge_budget():
    inputs, params = small_inputs(replicas=1)
    result = growth.simulate(inputs, params).replicas[0]
    sim_edges = result.edges[result.edges[:, 2] >= 1976]
    assert len(sim_edges) <= sum(result.sampled_out_degrees)
    # nearly all sampled references should find distinct targets
    assert len(sim_edges) > 0.95 * sum(result.sampled_out_degrees)


def test_new_papers_never_cited_in_insertion_year():
    inputs, params = small_inputs(replicas=1)
    replica = growth.simulate(inputs, params).replicas[0]
    sim_edges = replica.edges[replica.edges[:, 2] >= 1976]  # simulated era
    assert len(sim_edges) > 0
    assert (replica.birth[sim_edges[:, 1]] < sim_edges[:, 2]).all()


def test_simulated_references_distinct_and_ordered():
    inputs, params = small_inputs(replicas=1)
    replica = growth.simulate(inputs, params).replicas[0]
    n_boot = len(inputs.bootstrap.edges)
    sim_edges = replica.edges[n_boot:]
    keys = sim_edges[:, 0] * len(replica.paper_ids) + sim_edges[:, 1]
    assert (np.diff(keys) > 0).all()  # ordered by (citing, cited), no pair twice
    assert (replica.birth[sim_edges[:, 0]] == sim_edges[:, 2]).all()


def test_missing_pub_year_inserts_nothing():
    inputs, params = small_inputs(replicas=1)
    sparse = growth.GrowthInputs(
        pub_dist={1976: 5, 1978: 5},  # 1977 missing
        ref_dist=inputs.ref_dist,
        bootstrap=inputs.bootstrap,
    )
    replica = growth.simulate(sparse, params).replicas[0]
    assert np.sum(replica.birth == 1977) == 0
    assert np.sum(replica.birth == 1978) == 5


def test_category_fraction_martingale():
    # A new paper joins a bucket with probability proportional to its size
    # (a Polya urn), so each category's expected fraction stays at the
    # bootstrap's. One replica's fraction drifts by about one standard
    # deviation of the urn (~0.05), so the mean change over R replicas is
    # judged in standard errors, with z fixed by a two-sided 1 % family-wise
    # rate over the six categories.
    replicas = 200
    inputs, params = small_inputs(replicas=replicas)
    codes = [CODES[c] for _, _, c in inputs.bootstrap.nodes]
    before = np.bincount(codes, minlength=len(CATEGORIES)) / len(codes)
    result = growth.simulate(inputs, params)
    after = np.array(
        [np.bincount(r.category, minlength=len(CATEGORIES)) for r in result.replicas]
    ) / len(result.replicas[0].category)
    assert before.min() > 0  # every category can move, so no standard error is 0
    z = NormalDist().inv_cdf(1 - 0.01 / (2 * len(CATEGORIES)))  # 3.14

    def worst_z(baseline):
        change = after - baseline
        se = change.std(axis=0, ddof=1) / np.sqrt(replicas)
        return np.max(np.abs(change.mean(axis=0)) / se)

    assert worst_z(before) <= z, worst_z(before)
    # The check can fail: uniform fractions are rejected.
    assert worst_z(np.full(len(CATEGORIES), 1 / len(CATEGORIES))) > z


def test_simulate_deterministic_and_thread_independent():
    inputs, params = small_inputs(replicas=4)
    serial = growth.simulate(inputs, params, threads=1)
    parallel = growth.simulate(inputs, params, threads=4)
    for a, b in zip(serial.replicas, parallel.replicas):
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.category, b.category)
        assert a.paper_ids == b.paper_ids
    for c in CATEGORIES:
        assert np.array_equal(
            serial.mean_profiles[c], parallel.mean_profiles[c], equal_nan=True
        )


def test_profile_aggregation_is_replica_permutation_invariant():
    inputs, params = small_inputs(replicas=3)
    result = growth.simulate(inputs, params)
    per_replica = [
        growth._replica_profile(*r.generated_profiles(20, 10)) for r in result.replicas
    ]
    for c in CATEGORIES:
        stack = np.vstack([p[c] for p in per_replica])
        forward = growth._nanmean_rows(stack)
        backward = growth._nanmean_rows(stack[::-1])
        assert np.allclose(forward, backward, equal_nan=True)


def test_mean_profiles_leave_out_bootstrap_papers():
    # Both bootstrap papers have 10+ years of history by 1980, and b0 is
    # cited in the bootstrap era; no generated paper reaches 10 years.
    boot = growth.BootstrapGraph(
        nodes=(("b0", 1970, ProfileCategory.MON_DEC), ("b1", 1971, ProfileCategory.MON_DEC)),
        edges=(("b1", "b0"),),
    )
    inputs = growth.GrowthInputs(
        pub_dist={year: 5 for year in range(1976, 1981)},
        ref_dist=growth.EmpiricalDist.point_mass(1),
        bootstrap=boot,
    )
    params = growth.GrowthParams(replicas=2, rng_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no "Mean of empty slice"
        result = growth.simulate(inputs, params, profile_min_history=10)
        short = growth.simulate(inputs, params, profile_min_history=5)
    for c in CATEGORIES:
        assert np.isnan(result.mean_profiles[c]).all()
    # With 5 years required, the 1976 papers count, and only up to age 4.
    mondec = short.mean_profiles[ProfileCategory.MON_DEC]
    assert not np.isnan(mondec[:5]).any()
    assert np.isnan(mondec[5:]).all()


def test_indegree_heavy_tail_at_desk_scale(desk_simulation):
    replica = desk_simulation.replicas[0]
    k = replica.in_degrees()
    # A Poisson in-degree with this mean would top out near mean + 5*sqrt(mean);
    # preferential attachment should overshoot that comfortably.
    assert k.max() > k.mean() + 10 * np.sqrt(k.mean())


def test_replica_to_records_roundtrip():
    inputs, params = small_inputs(replicas=1)
    replica = growth.simulate(inputs, params).replicas[0]
    records = replica.to_records()
    assert len(records) == len(replica.paper_ids)
    n_refs = sum(len(r.reference_ids) for r in records)
    assert n_refs == len(replica.edges)
