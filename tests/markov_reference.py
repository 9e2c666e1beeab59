"""The jump chain that ``phylo.markov._evolve`` replaced, kept as the oracle of
the differential test in ``test_markov_differential``.

Every round recomputes the moving samples over the whole batch and reads the
jump kernel row by row from a table rebuilt on every call.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np


def _evolve(rng: np.random.Generator, H: np.ndarray, start: np.ndarray,
            t: float) -> np.ndarray:
    """Jump-chain simulation: exponential holding times at rate -H[x,x],
    jump kernel proportional to the off-diagonal entries of column x."""
    s = H.shape[0]
    rates = -np.diag(H).copy()
    cum = np.zeros((s, s))
    for j in range(s):
        if rates[j] > 0:
            col = H[:, j].copy()
            col[j] = 0.0
            cum[j] = np.cumsum(col / rates[j])
    x = np.array(start, dtype=np.int64)
    remaining = np.full(x.shape[0], float(t))
    while True:
        active = np.nonzero((remaining > 0) & (rates[x] > 0))[0]
        if active.size == 0:
            return x
        dt = rng.exponential(1.0, size=active.size) / rates[x[active]]
        rem = remaining[active] - dt
        remaining[active] = rem
        jump = active[rem > 0]
        if jump.size:
            u = rng.random(jump.size)
            # the first state whose cumulative jump probability exceeds u
            targets = (cum[x[jump]] <= u[:, None]).sum(axis=1)
            x[jump] = np.minimum(targets, s - 1)
