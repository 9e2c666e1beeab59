"""Replaced and test-only Markov code, kept as oracles.

``_evolve`` is the jump chain that ``phylo.markov._evolve`` replaced, the
oracle of the differential test in ``test_markov_differential``.  Every round
recomputes the moving samples over the whole batch and reads the jump kernel
row by row from a table rebuilt on every call.

``limit_by_doubling`` is the iteration that ``phylo.markov.limit_operator``
replaced; it converges on well-mixed chains only.  ``semigroup_defect``
measures the semigroup law of ``phylo.markov.expm``.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from phylo.markov import MarkovGenerator, expm

LIMIT_TOL = 1e-10
MAX_DOUBLINGS = 64


def limit_by_doubling(g: MarkovGenerator) -> np.ndarray:
    """The infinite-time limit of exp(tH), by repeated squaring of the
    time-1 matrix until the Cauchy increment is below LIMIT_TOL."""
    M = np.array(expm(g, 1.0).M)
    for _ in range(MAX_DOUBLINGS):
        M2 = M @ M
        gap = float(np.abs(M2 - M).sum(axis=1).max())
        M = M2
        if gap < LIMIT_TOL:
            return M
    raise ArithmeticError(f"doubling cap hit; last increment {gap}")


def semigroup_defect(g: MarkovGenerator, s: float, t: float) -> float:
    """Max-entry gap between exp((s+t)H) and exp(sH) exp(tH)."""
    lhs = expm(g, s + t).M
    rhs = expm(g, s).M @ expm(g, t).M
    return float(np.abs(lhs - rhs).max())


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
