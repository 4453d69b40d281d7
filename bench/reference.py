"""A fixed reference computation that gauges the host's current speed.

On a shared machine the same computation can take twice as long from one
minute to the next. The benchmark runs this kernel between passes and rescales
a run's median wall time by the kernel's median time in that run, to a host on
which the kernel takes REFERENCE_NOMINAL_S. The kernel uses numpy only, never
smoothpa, so no change to the library moves it. Its mix resembles a game
round: small-array numpy calls (argsort, pmf sampling, exp/log, a boolean
matvec, Poisson counts) dispatched from Python, plus some float formatting.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_NOMINAL_S = 0.2
ROUNDS = 3000


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    rng = np.random.default_rng(12345)
    member = rng.random((128, 256)) < 0.5
    counts = np.zeros(256)
    last = np.full(64, 0.5)
    logw = np.zeros(64)
    lines = []
    start = time.perf_counter()
    for t in range(ROUNDS):
        support = np.sort(np.argsort(-np.abs(last - 0.5), kind="stable")[:13])
        pmf = np.zeros(64)
        pmf[support] = 1.0 / support.size
        x = int(rng.choice(64, p=pmf))
        w = np.exp(logw - logw.max())
        q = float(w @ last / w.sum())
        y = int(q < 0.5)
        logw += np.log(np.where(last > 0.5, q, 1.0 - q))
        last[x] = (q + 0.1 * y) % 1.0
        hallucinated = np.bincount(rng.integers(0, 256, size=rng.poisson(500)), minlength=256)
        counts[x * 4 % 256] += 1.0
        best = float((member @ (counts + hallucinated)).min())
        lines.append(f"r{t},{q:.12g},{best:.12g}")
    return time.perf_counter() - start
