"""Seeded synthetic bibliographic corpus for the ``corpus-analyze`` workload.

The generator uses numpy only, never ``citeprof.growth``, so the input
stays fixed when the growth engine's random stream changes.

Each paper gets a latent citation shape (early peak, late peak, two
peaks, decline from year 1, steady rise) and a fitness. Papers of the
``quiet`` shape have a low fitness and stay under the classifier's
``Oth`` citation threshold, so that about 47 % of eligible papers are
``Oth``, near the paper's 44.8 %. Every citing year draws its references from earlier
papers with weight fitness x aging(age), in one ``searchsorted`` per
year. Authors come from a pool with finite careers; some papers take an
author from one of their references, which plants self-citations.
"""

from __future__ import annotations

import json

import numpy as np

FIRST_YEAR = 1976
N_YEARS = 30
PAPERS_PER_YEAR = 300
REFS_MEAN = 18.0
SELF_CITE_PROB = 0.3
FIELDS = ("cs.AI", "cs.DB", "cs.DC", "cs.IR", "cs.LG", "cs.NI", "cs.PL", "cs.SE")

# Latent citation shape -> share of papers; codes 0-5 in this order.
SHAPES = {
    "quiet": 0.23,
    "early": 0.37,
    "mul": 0.25,
    "late": 0.07,
    "dec": 0.05,
    "incr": 0.03,
}


def _aging(shape: np.ndarray, t1: np.ndarray, t2: np.ndarray, age: np.ndarray) -> np.ndarray:
    """Relative citation rate at ``age`` (>= 1) for each paper's shape."""
    bump1 = np.exp(-0.5 * ((age - t1) / 1.5) ** 2)
    bump2 = np.exp(-0.5 * ((age - t2) / 2.0) ** 2)
    out = np.where(shape == 1, bump1 + 0.03, 0.0)  # early
    out = np.where(shape == 2, bump1 + bump2 + 0.02, out)  # mul
    out = np.where(shape == 3, bump2 + 0.05, out)  # late
    out = np.where(shape == 4, np.exp(-0.18 * (age - 1)), out)  # dec
    out = np.where(shape == 5, np.minimum(age, 20) / 15.0, out)  # incr
    out = np.where(shape == 0, 0.6 * np.exp(-0.15 * age), out)  # quiet
    return out


def generate(seed: int) -> tuple[list[dict], dict]:
    """Return (records, properties) for one seed; the same seed gives the same corpus."""
    rng = np.random.default_rng(seed)
    n = N_YEARS * PAPERS_PER_YEAR
    year = FIRST_YEAR + np.arange(n) // PAPERS_PER_YEAR
    shape = rng.choice(len(SHAPES), size=n, p=np.array(list(SHAPES.values())))
    fitness = np.where(shape == 0, rng.lognormal(-2.5, 0.6, n), rng.lognormal(0.0, 0.4, n))
    t1 = rng.integers(2, 6, n).astype(float)
    t2 = np.where(shape == 3, rng.integers(8, 15, n), rng.integers(8, 12, n)).astype(float)

    refs: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for y in range(1, N_YEARS):
        lo, hi = y * PAPERS_PER_YEAR, (y + 1) * PAPERS_PER_YEAR
        age = (FIRST_YEAR + y - year[:lo]).astype(float)
        weight = fitness[:lo] * _aging(shape[:lo], t1[:lo], t2[:lo], age)
        cum = np.cumsum(weight)
        n_refs = 1 + rng.poisson(REFS_MEAN - 1, PAPERS_PER_YEAR)
        owner = np.repeat(np.arange(lo, hi), n_refs)
        target = np.searchsorted(cum, rng.random(owner.size) * cum[-1], side="right")
        pairs = np.unique(owner * n + target)
        owner, target = pairs // n, pairs % n
        bounds = np.searchsorted(owner, np.arange(lo, hi + 1))
        for i in range(lo, hi):
            refs[i] = target[bounds[i - lo] : bounds[i - lo + 1]]

    # Authors: a pool of finite careers; a paper draws 1-4 authors active
    # in its year, and with SELF_CITE_PROB also takes the first author of
    # one of its references.
    n_authors = n // 2
    start = rng.integers(FIRST_YEAR - 10, FIRST_YEAR + N_YEARS, n_authors)
    careers = rng.integers(5, 21, n_authors)
    n_coauthors = 1 + rng.binomial(3, 0.4, n)
    self_cite = rng.random(n) < SELF_CITE_PROB
    authors: list[list[int]] = []
    active = {
        int(y): np.flatnonzero((start <= y) & (start + careers > y)) for y in np.unique(year)
    }
    for i in range(n):
        pool = active[int(year[i])]
        chosen = [int(a) for a in rng.choice(pool, size=n_coauthors[i], replace=False)]
        if self_cite[i] and refs[i].size:
            inherited = authors[int(refs[i][rng.integers(refs[i].size)])][0]
            if inherited not in chosen:
                chosen = [inherited] + chosen[:-1]
        authors.append(chosen)

    venue_conf = rng.random(n) < 0.35 + 0.3 * (year - FIRST_YEAR) / N_YEARS
    field = rng.integers(len(FIELDS), size=n)
    records = []
    self_edges = 0
    for i in range(n):
        mine = set(authors[i])
        self_edges += sum(1 for j in refs[i] if mine.intersection(authors[j]))
        records.append(
            {
                "id": f"P{i:06d}",
                "year": int(year[i]),
                "venue_type": "conference" if venue_conf[i] else "journal",
                "fields": [FIELDS[field[i]]],
                "authors": [f"A{a:06d}" for a in authors[i]],
                "references": [f"P{j:06d}" for j in refs[i]],
            }
        )
    properties = {
        "papers": n,
        "edges": int(sum(r.size for r in refs)),
        "self_citation_edges": self_edges,
    }
    return records, properties


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
