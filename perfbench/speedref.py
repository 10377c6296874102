"""Reference kernel that measures how fast the host runs citeprof-like code right now.

On a shared host code runs up to 1.5x slower in some phases than in
others, and a phase can last minutes, so one run reads slower than the
next. The runner
times this fixed kernel around every operation and rescales the
operation's times to the speed at which the kernel takes ``REF_S``. The
kernel mixes the kinds of work citeprof does on a working set of about
100 MB: a dict-of-str graph with scattered lookups, JSON encoding and
decoding, and numpy cumsum/searchsorted. It takes about a second. It
must not change, or runs measured before and after the change stop
being comparable.
"""

from __future__ import annotations

import json
import time

import numpy as np

REF_S = 1.0  # kernel seconds that define reference speed (a fast phase on a 2-core VM)


def _kernel() -> int:
    n = 100_000
    ids = [f"P{i:06d}" for i in range(n)]
    refs = {ids[i]: [ids[(i * 7919 + j * 104729) % n] for j in range(3)] for i in range(n)}
    in_degree = dict.fromkeys(ids, 0)
    for targets in refs.values():
        for target in targets:
            in_degree[target] += 1
    rows = [json.dumps({"id": k, "references": v}, sort_keys=True)
            for k, v in list(refs.items())[:50_000]]
    decoded = [json.loads(row) for row in rows]
    rng = np.random.default_rng(0)
    cum = np.cumsum(rng.random(2_000_000))
    hits = np.searchsorted(cum, rng.random(500_000) * cum[-1])
    return len(decoded) + int(hits[-1]) + in_degree[ids[0]]


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
