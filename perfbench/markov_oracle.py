"""Independent answers for the Markov layer, from numpy alone.

Transition matrices come from the Jukes-Cantor closed form or from the
symmetric eigendecomposition of a reversible generator, never from the
program's ``expm``.  Leaf-tensor entries come from pruning (Felsenstein
1981) over the tree read back from its Newick text.  Column convention as
in the program: ``P[i, j]`` is the chance of going from state j to state i.
"""

from __future__ import annotations

import math

import numpy as np

from gen import GTree
from oracle import Mismatch


def stationary(H: np.ndarray) -> np.ndarray:
    """The null vector of H, scaled to a distribution."""
    _, _, vt = np.linalg.svd(H)
    v = vt[-1]
    return v / v.sum()


class Transitions:
    """P(t) for one generator: closed form for a uniform-rate model with
    rate ``mu``, eigendecomposition otherwise; ``inf`` gives the
    equilibrium projector.  ``sites`` > 1 is the Kronecker power."""

    def __init__(self, H, mu: float | None = None, sites: int = 1):
        self.H = np.asarray(H, dtype=float)
        self.k = self.H.shape[0]
        self.mu = mu
        self.sites = sites
        self.pi = stationary(self.H)
        if mu is None:
            d = np.sqrt(self.pi)
            sym = self.H * (1.0 / d)[:, None] * d[None, :]
            self.lam, self.vec = np.linalg.eigh((sym + sym.T) / 2.0)
            self.d = d

    def single(self, t: float) -> np.ndarray:
        k = self.k
        if math.isinf(t):
            return np.repeat(self.pi[:, None], k, axis=1)
        if self.mu is not None:
            e = math.exp(-k * self.mu * t)
            return np.full((k, k), (1.0 - e) / k) + np.eye(k) * e
        core = (self.vec * np.exp(t * self.lam)) @ self.vec.T
        return self.d[:, None] * core / self.d[None, :]

    def __call__(self, t: float) -> np.ndarray:
        p = self.single(t)
        out = p
        for _ in range(self.sites - 1):
            out = np.kron(out, p)
        return out


def _postorder(t: GTree) -> list[int]:
    order, stack = [], [t.root]
    while stack:
        u = stack.pop()
        order.append(u)
        if u < 0:
            stack.extend(t.kids[u])
    return order[::-1]


def pruned_entry(t: GTree, P: Transitions, f: np.ndarray,
                 states: tuple[int, ...]) -> float:
    """Chance that leaf j shows ``states[j - 1]`` for every j."""
    s = len(f)
    up: dict[int, np.ndarray] = {}   # likelihood given the state at the top of an edge
    for u in _postorder(t):
        if u > 0:
            below = np.zeros(s)
            below[states[u - 1]] = 1.0
        else:
            below = np.ones(s)
            for c in t.kids[u]:
                below = below * up.pop(c)
        up[u] = P(t.length[u]).T @ below
    return float(f @ up[t.root])


def leaf_marginals(t: GTree, P: Transitions, f: np.ndarray) -> np.ndarray:
    """Row j - 1 is the state distribution at leaf j."""
    at = {t.root: P(t.length[t.root]) @ f}
    out = np.zeros((t.n, len(f)))
    for u in reversed(_postorder(t)):
        if u > 0:
            out[u - 1] = at[u]
        else:
            for c in t.kids[u]:
                at[c] = P(t.length[c]) @ at[u]
    return out


def check_tensor(data: np.ndarray, t: GTree, P: Transitions, f: np.ndarray,
                 samples: list[tuple[int, ...]]) -> None:
    """Nonnegative, mass 1, and sampled entries equal to pruning."""
    s = len(f)
    if data.shape != (s,) * t.n:
        raise Mismatch(f"tensor shape {data.shape}, want {(s,) * t.n}")
    if float(data.min()) < -1e-12 or abs(float(data.sum()) - 1.0) > 1e-9:
        raise Mismatch(f"tensor min {data.min()!r}, mass {data.sum()!r}")
    for idx in samples:
        want = pruned_entry(t, P, f, idx)
        got = float(data[idx])
        if abs(got - want) > 1e-8 * abs(want) + 1e-14:
            raise Mismatch(f"entry {idx}: {got!r}, pruning gives {want!r}")


def check_limit(M: np.ndarray, H) -> None:
    """Every column of the limit equals the stationary distribution."""
    pi = stationary(np.asarray(H, dtype=float))
    gap = float(np.abs(M - pi[:, None]).max())
    if gap > 1e-8:
        raise Mismatch(f"limit column differs from the null vector of H by {gap!r}")


def check_counts(counts: np.ndarray, t: GTree, P: Transitions, f: np.ndarray,
                 samples: int) -> None:
    """Leaf marginals of the simulation within six standard errors (plus
    1/N) of the pruning marginals."""
    s = len(f)
    if counts.shape != (s,) * t.n or int(counts.sum()) != samples:
        raise Mismatch(f"counts shape {counts.shape}, total {counts.sum()}")
    want = leaf_marginals(t, P, f)
    for j in range(t.n):
        axes = tuple(a for a in range(t.n) if a != j)
        got = counts.sum(axis=axes) / samples
        band = 6.0 * np.sqrt(want[j] * (1.0 - want[j]) / samples) + 1.0 / samples
        if np.any(np.abs(got - want[j]) > band):
            raise Mismatch(f"leaf {j + 1} marginal {got.round(4)} outside the "
                           f"band around {want[j].round(4)}")
