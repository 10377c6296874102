"""Category-aware dynamic citation network growth.

New papers arrive year by year (Pub-dist), draw an out-degree from the
empirical reference distribution (Ref-dist), and attach each reference
in two stages: first a category bucket is chosen preferentially by the
buckets' accumulated inbound citations, then a paper inside the bucket
is chosen preferentially by its attractiveness. Attractiveness combines
preferential attachment (in-degree k plus the bucket mean mu) with a
per-category aging profile; for the peaked categories the shape is
controlled by peak times sampled at birth.

All selections within a simulation year use the state as of the end of
the previous year, so the ordering of papers inserted in the same year
is irrelevant. It also makes the two stages one categorical draw over
all papers with the same distribution: paper i in bucket b is chosen
with probability ``w_b / W * pi_i / sum(pi_b)``, where ``w_b`` is the
bucket's citations (uniform over non-empty buckets when no paper is
cited yet) and a bucket whose attractiveness sums to 0 is drawn from
uniformly. A year is therefore simulated with one batched draw over the
papers' weights, held with the rest of the state as arrays indexed by
paper.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .ingest import PaperRecord
from .profiles import CATEGORIES, ProfileCategory

logger = logging.getLogger(__name__)

DEFAULT_RHO: dict[ProfileCategory, float] = {
    ProfileCategory.MON_DEC: 0.25,
    ProfileCategory.PEAK_INIT: 0.7,
    ProfileCategory.PEAK_LATE: 0.5,
    ProfileCategory.MON_INCR: 0.3,
}
DEFAULT_TAU: dict[ProfileCategory, int] = {
    ProfileCategory.PEAK_INIT: 1,
    ProfileCategory.PEAK_MUL: 3,
    ProfileCategory.PEAK_LATE: 3,
    ProfileCategory.MON_DEC: 3,
    ProfileCategory.MON_INCR: 3,
    ProfileCategory.OTH: 3,
}
# Rounded means of the observed peak-time distributions, used when no
# empirical distribution is supplied.
DEFAULT_PEAK_TIMES: dict[ProfileCategory, object] = {
    ProfileCategory.PEAK_INIT: 4,
    ProfileCategory.PEAK_LATE: 11,
    ProfileCategory.PEAK_MUL: (5, 12),
}

PEAKED_CATEGORIES = (
    ProfileCategory.PEAK_INIT,
    ProfileCategory.PEAK_LATE,
    ProfileCategory.PEAK_MUL,
)

CATEGORY_CODES: dict[ProfileCategory, int] = {c: i for i, c in enumerate(CATEGORIES)}

DUPLICATE_REDRAW_FACTOR = 50


class GrowthConfigError(ValueError):
    """Invalid growth-model configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class EmpiricalDist:
    """Discrete distribution over arbitrary values."""

    values: tuple
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be non-empty and same length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        total = sum(self.probs)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One value, or an array of ``size`` values (one row per tuple value)."""
        i = rng.choice(len(self.values), size=size, p=np.asarray(self.probs) / sum(self.probs))
        if size is None:
            return self.values[int(i)]
        return np.asarray(self.values)[i]

    @classmethod
    def point_mass(cls, value) -> "EmpiricalDist":
        return cls(values=(value,), probs=(1.0,))


def geometric_ref_dist(mean: float, max_value: int = 100) -> EmpiricalDist:
    """Truncated geometric out-degree distribution on {1, 2, ...} with the given mean."""
    if mean <= 1:
        raise ValueError("mean must exceed 1")
    p = 1.0 / mean
    values = tuple(range(1, max_value + 1))
    probs = np.array([p * (1 - p) ** (v - 1) for v in values])
    probs /= probs.sum()
    return EmpiricalDist(values=values, probs=tuple(float(x) for x in probs))


@dataclass(frozen=True)
class GrowthParams:
    rho: Mapping[ProfileCategory, float] = field(default_factory=lambda: dict(DEFAULT_RHO))
    tau: Mapping[ProfileCategory, int] = field(default_factory=lambda: dict(DEFAULT_TAU))
    replicas: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for cat, value in self.rho.items():
            if value <= 0:
                raise GrowthConfigError(f"rho.{cat.value}", "must be > 0")
        for cat, value in self.tau.items():
            if value < 0:
                raise GrowthConfigError(f"tau.{cat.value}", "must be >= 0")
        if self.replicas < 1:
            raise GrowthConfigError("replicas", "must be >= 1")
        for cat in (
            ProfileCategory.MON_DEC,
            ProfileCategory.PEAK_INIT,
            ProfileCategory.PEAK_LATE,
            ProfileCategory.MON_INCR,
        ):
            if cat not in self.rho:
                raise GrowthConfigError(f"rho.{cat.value}", "missing")
        for cat in CATEGORIES:
            if cat != ProfileCategory.OTH and cat not in self.tau:
                raise GrowthConfigError(f"tau.{cat.value}", "missing")


@dataclass(frozen=True)
class BootstrapGraph:
    """Seed network: labeled nodes with years, plus internal edges."""

    nodes: tuple[tuple[str, int, ProfileCategory], ...]  # (id, year, category)
    edges: tuple[tuple[str, str], ...]  # citing -> cited

    def __post_init__(self) -> None:
        if not self.nodes:
            raise GrowthConfigError("bootstrap", "must contain at least one node")
        ids = {n[0] for n in self.nodes}
        if len(ids) != len(self.nodes):
            raise GrowthConfigError("bootstrap", "duplicate node ids")
        for u, v in self.edges:
            if u not in ids or v not in ids:
                raise GrowthConfigError("bootstrap", f"edge ({u}, {v}) references unknown node")

    @property
    def max_year(self) -> int:
        return max(n[1] for n in self.nodes)

    @property
    def min_year(self) -> int:
        return min(n[1] for n in self.nodes)


@dataclass(frozen=True)
class GrowthInputs:
    pub_dist: Mapping[int, int]
    ref_dist: EmpiricalDist
    bootstrap: BootstrapGraph
    peak_time_dist: Mapping[ProfileCategory, EmpiricalDist] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for year, n in self.pub_dist.items():
            if n < 0:
                raise GrowthConfigError(f"pub_dist.{year}", "must be >= 0")
        for v in self.ref_dist.values:
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise GrowthConfigError("ref_dist", f"out-degree {v!r} is not a non-negative integer")
        for cat, dist in self.peak_time_dist.items():
            _validate_peak_support(cat, dist)

    def simulation_years(self) -> list[int]:
        start = self.bootstrap.max_year + 1
        return sorted(y for y in self.pub_dist if y >= start)


def _validate_peak_support(cat: ProfileCategory, dist: EmpiricalDist) -> None:
    path = f"peak_time_dist.{cat.value}"
    if cat == ProfileCategory.PEAK_INIT:
        if any(not (2 <= v <= 5) for v in dist.values):
            raise GrowthConfigError(path, "support must lie in [2, 5]")
    elif cat == ProfileCategory.PEAK_LATE:
        if any(v < 6 for v in dist.values):
            raise GrowthConfigError(path, "support must be >= 6")
    elif cat == ProfileCategory.PEAK_MUL:
        for v in dist.values:
            if not (isinstance(v, tuple) and len(v) == 2 and v[0] < v[1]):
                raise GrowthConfigError(path, f"values must be (T1, T2) pairs with T1 < T2, got {v!r}")
    else:
        raise GrowthConfigError(path, f"{cat.value} has no peak times")


def sample_peak_times(
    category: ProfileCategory,
    peak_time_dist: Mapping[ProfileCategory, EmpiricalDist] | None,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw birth-time peak offsets: none, T, or (T1, T2) by category.

    With ``size``, a draw for that many papers at once: an array of
    ``size`` values (rows of (T1, T2) for PeakMul), or the category's
    default when no distribution is supplied.
    """
    if category not in PEAKED_CATEGORIES:
        return None
    dist = (peak_time_dist or {}).get(category)
    if dist is None:
        return DEFAULT_PEAK_TIMES[category]
    return dist.sample(rng, size=size)


def _peak_times(
    codes: np.ndarray,
    peak_time_dist: Mapping[ProfileCategory, EmpiricalDist],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(T1, T2) per paper, one draw per peaked category.

    Single-peak categories have T1 == T2 == T; the others have 0.
    """
    t1 = np.zeros(len(codes))
    t2 = np.zeros(len(codes))
    for cat in PEAKED_CATEGORIES:
        idx = np.flatnonzero(codes == CATEGORY_CODES[cat])
        if len(idx):
            values = sample_peak_times(cat, peak_time_dist, rng, size=len(idx))
            width = 2 if cat == ProfileCategory.PEAK_MUL else 1
            rows = np.asarray(values, dtype=float).reshape(-1, width)
            t1[idx] = rows[:, 0]
            t2[idx] = rows[:, -1]
    return t1, t2


def attractiveness(
    category: ProfileCategory,
    k: float,
    mu: float,
    t_elapsed: float,
    params: GrowthParams,
    peak_times=None,
) -> float:
    """Citation attractiveness pi of one paper after t_elapsed years.

    ``mu`` is the mean in-degree of the paper's bucket and ``peak_times``
    its T or (T1, T2). This is ``_bucket_attractiveness``, the kernel the
    simulator runs, applied to one paper.
    """
    if t_elapsed < 0:
        raise ValueError("t_elapsed must be >= 0")
    t1, t2 = np.broadcast_to(np.asarray(0.0 if peak_times is None else peak_times, float), 2)
    pi = _bucket_attractiveness(
        category,
        np.array([k], dtype=float),
        np.array([t_elapsed], dtype=float),
        np.array([t1]),
        np.array([t2]),
        mu,
        params,
    )
    return float(pi[0])


def _bucket_attractiveness(
    cat: ProfileCategory,
    k: np.ndarray,
    t: np.ndarray,
    peak_t1: np.ndarray,
    peak_t2: np.ndarray,
    mu: float,
    params: GrowthParams,
) -> np.ndarray:
    """Attractiveness of every paper of one bucket.

    Oth is constant; MonDec decays exponentially; MonIncr grows linearly;
    PeakInit and PeakLate hold a plateau until T + tau, then decay as
    1 / (rho t); PeakMul holds plateaus until T1 + tau and from
    (T1 + T2) / 2 + tau to T2 + tau, decaying as 1 / t in between and after.
    """
    if cat == ProfileCategory.OTH:
        return np.ones_like(k, dtype=float)
    base = k + mu
    if cat == ProfileCategory.MON_DEC:
        return base * np.exp(-params.rho[cat] * t)
    if cat == ProfileCategory.MON_INCR:
        return k + params.rho[cat] * mu + t
    tau = params.tau[cat]
    if cat in (ProfileCategory.PEAK_INIT, ProfileCategory.PEAK_LATE):
        decayed = base / (params.rho[cat] * np.maximum(t, 1.0))
        return np.where(t <= peak_t1 + tau, base, decayed)
    mid = (peak_t1 + peak_t2) / 2 + tau
    decayed = base / np.maximum(t, 1.0)
    plateau = (t <= peak_t1 + tau) | ((t > mid) & (t <= peak_t2 + tau))
    return np.where(plateau, base, decayed)


def _selection_weights(
    k: np.ndarray,
    t: np.ndarray,
    codes: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
    params: GrowthParams,
) -> np.ndarray:
    """Probability of each paper being the target of one reference.

    The two-stage draw as one distribution: bucket b with probability
    w_b / W by accumulated citations (uniform over non-empty buckets when
    W is 0), then paper i with pi_i / sum(pi_b) (uniform inside the
    bucket when its attractiveness sums to 0).
    """
    k = k.astype(float)
    members = [np.flatnonzero(codes == code) for code in range(len(CATEGORIES))]
    bucket = np.array([k[m].sum() for m in members])
    if bucket.sum() <= 0:
        bucket = np.array([float(len(m) > 0) for m in members])
    bucket /= bucket.sum()
    weights = np.zeros(len(k))
    for cat, m, share in zip(CATEGORIES, members, bucket):
        if share <= 0:
            continue
        pi = _bucket_attractiveness(cat, k[m], t[m], t1[m], t2[m], float(k[m].mean()), params)
        total = pi.sum()
        weights[m] = share * pi / total if total > 0 else share / len(m)
    return weights


def _draw_references(
    out_degrees: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct targets for each citing paper: (citing, cited, draws per citer).

    Targets are i.i.d. draws with probability proportional to ``weights``;
    a paper of weight 0 is never drawn. A draw that repeats a target of
    the same citer is drawn again, but a citer stops after
    DUPLICATE_REDRAW_FACTOR * max(d, 1) draws, so one with fewer than d
    reachable papers keeps fewer than d. Each round draws only each
    citer's missing references, so draws are counted as in a
    one-at-a-time loop. Pairs come out sorted by (citing, cited).
    """
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]  # exactly 1 at the end, so every uniform draw in [0, 1) lands
    n_papers = len(cdf)
    budget = DUPLICATE_REDRAW_FACTOR * np.maximum(out_degrees, 1)
    draws = np.zeros_like(out_degrees)
    keys = np.empty(0, dtype=np.int64)  # citing * n_papers + cited
    while True:
        found = np.bincount(keys // n_papers, minlength=len(out_degrees))
        batch = np.minimum(out_degrees - found, budget - draws)
        if not batch.any():
            break
        citing = np.repeat(np.arange(len(out_degrees), dtype=np.int64), batch)
        cited = cdf.searchsorted(rng.random(len(citing)), side="right")
        keys = np.union1d(keys, citing * n_papers + cited)
        draws += batch
    return keys // n_papers, keys % n_papers, draws


class SimulationState:
    """Mutable per-replica simulation state: one array entry per paper.

    ``k`` is the in-degree, ``birth`` the publication year, ``cat`` the
    index into CATEGORIES and ``t1``/``t2`` the peak times (see
    ``_peak_times``); ``paper_ids[i]`` names paper i. Edges are kept as
    (citing, cited, year) blocks, one per simulated year.
    """

    def __init__(self, inputs: GrowthInputs, params: GrowthParams, rng: np.random.Generator):
        boot = inputs.bootstrap
        self.paper_ids: list[str] = [pid for pid, _, _ in boot.nodes]
        self.birth = np.array([year for _, year, _ in boot.nodes], dtype=np.int64)
        self.cat = np.array([CATEGORY_CODES[c] for _, _, c in boot.nodes], dtype=np.int8)
        self.t1, self.t2 = _peak_times(self.cat, inputs.peak_time_dist, rng)
        index = {pid: i for i, pid in enumerate(self.paper_ids)}
        citing = np.array([index[u] for u, _ in boot.edges], dtype=np.int64)
        cited = np.array([index[v] for _, v in boot.edges], dtype=np.int64)
        self.k = np.bincount(cited, minlength=len(self.paper_ids))
        self.edge_blocks: list[np.ndarray] = [
            np.column_stack((citing, cited, self.birth[citing]))
        ]
        self.sampled_out_degrees: list[int] = []
        self.year = boot.max_year

    @property
    def edges(self) -> np.ndarray:
        """(E, 3) int array of (citing index, cited index, citing year)."""
        return np.concatenate(self.edge_blocks)


def simulate_step(
    state: SimulationState,
    year: int,
    inputs: GrowthInputs,
    params: GrowthParams,
    rng: np.random.Generator,
) -> SimulationState:
    """Insert one year's worth of papers using the previous year's snapshot."""
    n_new = inputs.pub_dist.get(year)
    if n_new is None:
        logger.warning("year %d absent from pub_dist; no papers inserted", year)
        n_new = 0
    state.year = year

    weights = _selection_weights(
        state.k, year - state.birth, state.cat, state.t1, state.t2, params
    )
    sizes = np.bincount(state.cat, minlength=len(CATEGORIES))
    codes = rng.choice(len(CATEGORIES), size=n_new, p=sizes / sizes.sum()).astype(np.int8)
    out_degrees = np.asarray(inputs.ref_dist.sample(rng, size=n_new), dtype=np.int64)
    citing, cited, _ = _draw_references(out_degrees, weights, rng)
    t1, t2 = _peak_times(codes, inputs.peak_time_dist, rng)

    # Commit: new papers join the state; targets' in-degrees update.
    first = len(state.paper_ids)
    state.paper_ids.extend(f"s{year}_{i:05d}" for i in range(n_new))
    state.k = state.k + np.bincount(cited, minlength=first)
    state.k = np.concatenate((state.k, np.zeros(n_new, dtype=state.k.dtype)))
    state.birth = np.concatenate((state.birth, np.full(n_new, year, dtype=np.int64)))
    state.cat = np.concatenate((state.cat, codes))
    state.t1 = np.concatenate((state.t1, t1))
    state.t2 = np.concatenate((state.t2, t2))
    state.edge_blocks.append(np.column_stack((first + citing, cited, np.full(len(cited), year))))
    state.sampled_out_degrees.extend(out_degrees.tolist())
    return state


def is_generated_id(pid: str) -> bool:
    """Whether ``pid`` has the form ``s{year}_{index:05d}`` that simulate_step gives new papers."""
    head, sep, index = pid.partition("_")
    try:
        return sep == "_" and head[:1] == "s" and pid == f"s{int(head[1:])}_{int(index):05d}"
    except ValueError:
        return False


@dataclass
class ReplicaResult:
    """One simulated network with generation-time labels, indexed by paper.

    Papers ``[:n_bootstrap]`` are the seed network; the rest are the
    papers the model generated, all born after the bootstrap's last year.
    """

    paper_ids: list[str]
    birth: np.ndarray  # publication year
    category: np.ndarray  # index into CATEGORIES
    edges: np.ndarray  # (E, 3): citing index, cited index, citing year
    first_year: int
    last_year: int
    sampled_out_degrees: list[int]
    n_bootstrap: int

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=len(self.paper_ids))

    def citation_series(self, max_age: int | None = None) -> np.ndarray:
        """Citation counts by age (year offset from birth): one row per paper.

        Columns are ages 0..max_age (0..last_year - first_year when None).
        Ages a paper has not reached by ``last_year`` read 0.
        """
        width = (self.last_year - self.first_year if max_age is None else max_age) + 1
        cited = self.edges[:, 1]
        age = self.edges[:, 2] - self.birth[cited]
        seen = (age >= 0) & (age < width)
        counts = np.bincount(
            cited[seen] * width + age[seen], minlength=len(self.paper_ids) * width
        )
        return counts.reshape(len(self.paper_ids), width)

    def generated_profiles(self, max_age: int, min_history: int) -> tuple[np.ndarray, np.ndarray]:
        """(category codes, max-normalized counts by age) of the model-generated papers.

        Only papers with at least ``min_history`` observed years count. The
        profiles are one row per paper over ages 0..max_age, NaN past the
        paper's last observed age. Bootstrap papers are skipped: their
        early citations come from the seed network, which has neither
        aging nor preferential attachment.
        """
        observed = self.last_year - self.birth + 1
        keep = np.flatnonzero(observed >= min_history)
        keep = keep[keep >= self.n_bootstrap]
        profiles = self.citation_series(max_age=max_age)[keep].astype(float)
        peak = profiles.max(axis=1, keepdims=True)
        np.divide(profiles, peak, out=profiles, where=peak > 0)
        profiles[np.arange(max_age + 1) >= observed[keep, None]] = np.nan
        return self.category[keep], profiles

    def to_records(self) -> list[PaperRecord]:
        refs: list[list[str]] = [[] for _ in self.paper_ids]
        for citing, cited in self.edges[:, :2].tolist():
            refs[citing].append(self.paper_ids[cited])
        return [
            PaperRecord(paper_id=pid, year=year, reference_ids=tuple(r))
            for pid, year, r in zip(self.paper_ids, self.birth.tolist(), refs)
        ]


def simulate_replica(
    inputs: GrowthInputs, params: GrowthParams, seed: np.random.SeedSequence
) -> ReplicaResult:
    """Run one full simulation from the bootstrap through all Pub-dist years."""
    rng = np.random.default_rng(seed)
    state = SimulationState(inputs, params, rng)
    years = inputs.simulation_years()
    for year in years:
        simulate_step(state, year, inputs, params, rng)
    return ReplicaResult(
        paper_ids=state.paper_ids,
        birth=state.birth,
        category=state.cat,
        edges=state.edges,
        first_year=inputs.bootstrap.min_year,
        last_year=years[-1] if years else inputs.bootstrap.max_year,
        sampled_out_degrees=state.sampled_out_degrees,
        n_bootstrap=len(inputs.bootstrap.nodes),
    )


def _replica_profile(codes: np.ndarray, profiles: np.ndarray) -> dict[ProfileCategory, np.ndarray]:
    """Per-age mean of one replica's ``generated_profiles``, one row per category."""
    return {c: _nanmean_rows(profiles[codes == i]) for i, c in enumerate(CATEGORIES)}


def _nanmean_rows(stack: np.ndarray) -> np.ndarray:
    """Column-wise nan-mean; an all-NaN column stays NaN without a warning."""
    out = np.full(stack.shape[1], np.nan)
    seen = ~np.isnan(stack).all(axis=0)
    out[seen] = np.nanmean(stack[:, seen], axis=0)
    return out


def _run_replica(args) -> ReplicaResult:
    inputs, params, seed = args
    return simulate_replica(inputs, params, seed)


@dataclass
class SimulationResult:
    replicas: list[ReplicaResult]
    mean_profiles: dict[ProfileCategory, np.ndarray]  # generated papers only
    # Every replica's generated_profiles rows, pooled per category in replica order.
    profiles_by_category: dict[ProfileCategory, np.ndarray]
    max_age: int
    min_history: int


def simulate(
    inputs: GrowthInputs,
    params: GrowthParams,
    threads: int = 1,
    profile_max_age: int = 20,
    profile_min_history: int = 10,
) -> SimulationResult:
    """Run all replicas with deterministically derived RNG streams.

    Replica results are aggregated in replica-index order, so the output
    is byte-identical for a fixed seed regardless of ``threads``.
    """
    seeds = np.random.SeedSequence(params.rng_seed).spawn(params.replicas)
    jobs = [(inputs, params, s) for s in seeds]
    if threads > 1 and params.replicas > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            replicas = list(pool.map(_run_replica, jobs))
    else:
        replicas = [_run_replica(j) for j in jobs]

    generated = [r.generated_profiles(profile_max_age, profile_min_history) for r in replicas]
    per_replica = [_replica_profile(codes, profiles) for codes, profiles in generated]
    mean_profiles = {
        c: _nanmean_rows(np.vstack([p[c] for p in per_replica])) for c in CATEGORIES
    }
    profiles_by_category = {
        c: np.vstack([profiles[codes == i] for codes, profiles in generated])
        for i, c in enumerate(CATEGORIES)
    }
    return SimulationResult(
        replicas=replicas,
        mean_profiles=mean_profiles,
        profiles_by_category=profiles_by_category,
        max_age=profile_max_age,
        min_history=profile_min_history,
    )


def synthetic_bootstrap(
    n: int,
    fractions: Mapping[ProfileCategory, float],
    start_year: int = 1970,
    n_years: int = 6,
    refs_mean: int = 3,
    rng: np.random.Generator | None = None,
) -> BootstrapGraph:
    """Small random DAG with the requested category mix.

    Papers are spread evenly over ``n_years`` consecutive years; each
    paper cites a Poisson(refs_mean) number of uniformly chosen earlier
    papers. Categories are allocated by largest remainder, then assigned
    to papers in random order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    total_frac = sum(fractions.values())
    if total_frac <= 0:
        raise GrowthConfigError("bootstrap.synthetic.fractions", "must sum to a positive value")
    cats = [c for c in CATEGORIES if fractions.get(c, 0) > 0]
    quotas = {c: n * fractions[c] / total_frac for c in cats}
    alloc = {c: int(math.floor(quotas[c])) for c in cats}
    remainder = n - sum(alloc.values())
    for c in sorted(cats, key=lambda c: quotas[c] - alloc[c], reverse=True)[:remainder]:
        alloc[c] += 1
    assignment: list[ProfileCategory] = []
    for c in cats:
        assignment.extend([c] * alloc[c])
    rng.shuffle(assignment)

    nodes = []
    years = []
    for i in range(n):
        year = start_year + (i * n_years) // n
        years.append(year)
        nodes.append((f"b{i:05d}", year, assignment[i]))
    # Years never decrease with the index, so the papers earlier than paper
    # i are papers 0..n_earlier[i] - 1.
    n_earlier = np.searchsorted(years, years, side="left").tolist()
    edges: list[tuple[str, str]] = []
    for i in range(n):
        if not n_earlier[i]:
            continue
        n_refs = min(int(rng.poisson(refs_mean)), n_earlier[i])
        for j in rng.choice(n_earlier[i], size=n_refs, replace=False):
            edges.append((nodes[i][0], nodes[int(j)][0]))
    return BootstrapGraph(nodes=tuple(nodes), edges=tuple(edges))


PAPER_CATEGORY_FRACTIONS: dict[ProfileCategory, float] = {
    ProfileCategory.PEAK_INIT: 25.2,
    ProfileCategory.PEAK_MUL: 23.5,
    ProfileCategory.PEAK_LATE: 3.7,
    ProfileCategory.MON_DEC: 1.6,
    ProfileCategory.MON_INCR: 1.2,
    ProfileCategory.OTH: 44.8,
}
