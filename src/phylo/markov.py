"""Finite-state continuous-time Markov processes.

Column convention throughout: a generator H has nonnegative off-diagonal
rates and zero column sums, the transition matrix exp(tH) is column
stochastic, and distributions are column vectors, so evolving for time t
is p -> exp(tH) p.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from .operads import PhyloTree, _length
from .trees import PhyloError, record

COLUMN_SUM_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-12
GENERATOR_SUM_TOL = 1e-12
NEGATIVE_CLAMP = 1e-12
LIMIT_TOL = 1e-10
IDEMPOTENT_TOL = 1e-8
MAX_DOUBLINGS = 64
# most entries a joint leaf tensor (evaluated or simulated), a generator
# or a sample vector may have
TENSOR_CAP = 10 ** 6
# most state changes a simulation may expect to draw: samples x the fastest
# exit rate x the summed edge lengths.  The jump chain runs about rate x
# length rounds along an edge, so this also bounds its rounds.
JUMP_CAP = 10 ** 7


class MarkovError(PhyloError):
    pass


class ShapeMismatch(MarkovError):
    pass


class NegativeOffDiagonal(MarkovError):
    pass


class ColumnSumNonzero(MarkovError):
    pass


class NegativeTime(MarkovError):
    pass


class NonFiniteTime(MarkovError):
    pass


class NoConvergence(MarkovError):
    exit_code = 3


class SizeCap(MarkovError):
    pass


class BadRate(MarkovError):
    pass


class BadAlphabet(MarkovError):
    pass


class StateSpaceMismatch(MarkovError):
    pass


def _finite_array(a: Any, what: str) -> np.ndarray:
    """A new float array of ``a``; MarkovError unless it is numeric,
    rectangular and free of NaN and infinite entries."""
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"{what} is not a numeric array: {exc}") from exc
    if not np.isfinite(arr).all():
        raise MarkovError(f"{what} has a NaN or infinite entry")
    return arr


def _probabilities(arr: np.ndarray, what: str, axis: int | None,
                   tol: float) -> np.ndarray:
    """The probability rule on a fresh finite float array ``arr``: an entry
    below -NEGATIVE_CLAMP or a sum (over ``axis``; None sums every entry)
    more than ``tol`` from 1 raises MarkovError.  Roundoff negatives become
    0, and the array is returned read-only."""
    low = float(arr.min())
    if low < -NEGATIVE_CLAMP:
        raise MarkovError(f"{what} entry {low} is below the roundoff clamp")
    if low < 0:
        arr[arr < 0] = 0.0
    dev = float(np.abs(arr.sum(axis=axis) - 1.0).max())
    if dev > tol:
        raise MarkovError(f"{what} sum deviates from 1 by {dev}")
    arr.setflags(write=False)
    return arr


@record
class StateSpace:
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 1:
            raise MarkovError("a state space has at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise MarkovError("state labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise MarkovError(f"unknown state {label!r}; states are {self.labels}")
        return self.labels.index(label)


def _check_same_states(a: StateSpace, b: StateSpace) -> None:
    if a != b:
        raise StateSpaceMismatch(f"{a.labels} vs {b.labels}")


@record
class MarkovGenerator:
    states: StateSpace
    H: np.ndarray

    @cached_property
    def limit(self) -> "StochasticMatrix":
        return limit_operator(self)

    @property
    def size(self) -> int:
        return self.states.size


def validate_generator(H: Any, states: StateSpace | Sequence[str] | None = None
                       ) -> MarkovGenerator:
    """Check rate-matrix shape, finite entries, nonnegative off-diagonals,
    zero column sums."""
    arr = _finite_array(H, "rate matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"rate matrix must be square, got {arr.shape}")
    s = arr.shape[0]
    if states is None:
        space = StateSpace(tuple(f"S{i}" for i in range(s)))
    else:
        space = states if isinstance(states, StateSpace) else StateSpace(tuple(states))
    if space.size != s:
        raise ShapeMismatch(f"{space.size} labels for a {s}x{s} matrix")
    off = arr[~np.eye(s, dtype=bool)]
    if off.size and off.min() < 0:
        raise NegativeOffDiagonal(f"min off-diagonal rate {off.min()}")
    sums = arr.sum(axis=0)
    worst = float(np.abs(sums).max())
    if worst > GENERATOR_SUM_TOL:
        raise ColumnSumNonzero(f"column sums deviate by {worst}")
    arr.setflags(write=False)
    return MarkovGenerator(space, arr)


@record
class StochasticMatrix:
    states: StateSpace
    M: np.ndarray

    @staticmethod
    def make(states: StateSpace, M: np.ndarray) -> "StochasticMatrix":
        arr = _finite_array(M, "stochastic matrix")
        if arr.shape != (states.size, states.size):
            raise ShapeMismatch(f"matrix shape {arr.shape} vs {states.size} states")
        return StochasticMatrix(states, _probabilities(
            arr, "stochastic matrix column", 0, COLUMN_SUM_TOL))

    def apply(self, f: "Distribution") -> "Distribution":
        _check_same_states(self.states, f.states)
        return Distribution.make(self.states, self.M @ f.p)


@record
class Distribution:
    states: StateSpace
    p: np.ndarray

    @staticmethod
    def make(states: StateSpace, p: Any) -> "Distribution":
        arr = _finite_array(p, "probability vector")
        if arr.shape != (states.size,):
            raise ShapeMismatch(f"vector shape {arr.shape} vs {states.size} states")
        return Distribution(states, _probabilities(
            arr, "probability vector", None, DISTRIBUTION_SUM_TOL))

    @staticmethod
    def uniform(states: StateSpace) -> "Distribution":
        return Distribution.make(states, np.full(states.size, 1.0 / states.size))

    @staticmethod
    def point(states: StateSpace, label: str) -> "Distribution":
        p = np.zeros(states.size)
        p[states.index(label)] = 1.0
        return Distribution.make(states, p)


# the Taylor remainder bound below which the series is cut
SERIES_TOL = 1e-18


def _series_degree(norm: float) -> int:
    """The least degree m >= 1 with norm^(m+1) / (m+1)! below SERIES_TOL."""
    m, bound = 1, norm * norm / 2
    while bound >= SERIES_TOL:
        m += 1
        bound *= norm / (m + 1)
    return m


def _ps_table(m: int) -> np.ndarray:
    """The coefficients 1/k! of the degree-m series in Paterson-Stockmeyer
    blocks: row j holds those of B^(jq), ..., B^(jq+q-1), q = isqrt(m) + 1,
    zero past degree m."""
    q = math.isqrt(m) + 1
    c = np.zeros((m // q + 1) * q)
    c[:m + 1] = [1.0 / math.factorial(k) for k in range(m + 1)]
    return c.reshape(-1, q)


# one block table per degree; the scaled norm never exceeds 1
_PS_TABLES = tuple(_ps_table(m) for m in range(_series_degree(1.0) + 1))


def _expm_core(A: np.ndarray) -> np.ndarray:
    """Scaling and squaring: the norm of A fixes the squarings and the
    series degree, and the series is evaluated by Paterson-Stockmeyer
    (SIAM J. Comput. 2(1):60-66, 1973) in about 2 sqrt(degree) products."""
    norm = float(np.abs(A).sum(axis=0).max())
    if not norm < 2.0 ** 1000:
        # also an infinite norm, where t * H overflowed
        raise SizeCap(f"norm {norm:g} of t*H is too large to exponentiate")
    # ceil(log2 norm), exactly, so that the scaled norm is at most 1
    frac, exp = math.frexp(norm)
    squarings = max(0, exp - (frac == 0.5))
    scale = 2.0 ** squarings
    B = A / scale
    coef = _PS_TABLES[_series_degree(norm / scale)]
    q = coef.shape[1]
    s = A.shape[0]
    # powers[i] = B^i for i < q
    powers = np.empty((q, s, s))
    powers[0] = np.eye(s)
    powers[1] = B
    for i in range(2, q):
        np.matmul(powers[i - 1], B, out=powers[i])
    blocks = (coef @ powers.reshape(q, s * s)).reshape(-1, s, s)
    # Horner in B^q over the blocks, highest first
    Bq = powers[q - 1] @ B
    total = blocks[-1]
    for block in blocks[-2::-1]:
        total = total @ Bq
        total += block
    for _ in range(squarings):
        total = total @ total
    return total


def expm(g: MarkovGenerator, t: float) -> StochasticMatrix:
    """The transition matrix exp(tH) for a finite time t >= 0."""
    x = _length(t, allow_inf=True)
    if x is None:
        raise NegativeTime(f"time {t!r} is not a number >= 0")
    if x == math.inf:
        raise NonFiniteTime("use limit_operator for the infinite-time matrix")
    return StochasticMatrix.make(g.states, _expm_core(x * g.H))


def limit_operator(g: MarkovGenerator) -> StochasticMatrix:
    """The infinite-time limit of exp(tH), computed by repeated squaring of
    the time-1 matrix until the Cauchy increment is below tolerance."""
    M = np.array(expm(g, 1.0).M)
    for _ in range(MAX_DOUBLINGS):
        M2 = M @ M
        gap = float(np.abs(M2 - M).sum(axis=1).max())
        M = M2
        if gap < LIMIT_TOL:
            resid = float(np.abs(M @ M - M).sum(axis=1).max())
            if resid > IDEMPOTENT_TOL:
                raise NoConvergence(f"limit candidate is not idempotent: {resid}")
            return StochasticMatrix.make(g.states, M)
    raise NoConvergence(f"doubling cap hit; last increment {gap}")


def semigroup_defect(g: MarkovGenerator, s: float, t: float) -> float:
    """Max-entry gap between exp((s+t)H) and exp(sH) exp(tH)."""
    lhs = expm(g, s + t).M
    rhs = expm(g, s).M @ expm(g, t).M
    return float(np.abs(lhs - rhs).max())


DNA = ("A", "T", "C", "G")


def jukes_cantor(mu: float, k: int = 4) -> MarkovGenerator:
    """Uniform substitution rates: every state flips to every other at rate mu."""
    rate = _length(mu, allow_inf=False)
    if not rate:  # None or 0
        raise BadRate(f"rate must be finite and positive, got {mu!r}")
    if not (isinstance(k, int) and k >= 2):
        raise BadAlphabet(f"alphabet size must be an int >= 2, got {k!r}")
    if k * k > TENSOR_CAP:
        raise SizeCap(f"{k}x{k} generator entries exceed the cap {TENSOR_CAP}")
    labels = DNA if k == 4 else tuple(f"S{i}" for i in range(k))
    H = np.full((k, k), rate)
    np.fill_diagonal(H, -(k - 1) * rate)
    return validate_generator(H, labels)


def site_product(g: MarkovGenerator, sites: int) -> MarkovGenerator:
    """Independent sites evolving in parallel: the Kronecker-sum generator
    on the product state space, so exp(tH_N) factors as the N-fold tensor
    power of exp(tH)."""
    if isinstance(sites, bool) or not (isinstance(sites, int) and sites >= 1):
        raise MarkovError(f"site count must be an int >= 1, got {sites!r}")
    s = g.size
    if s ** sites > 64:
        raise SizeCap(f"{s}^{sites} states exceeds the cap of 64")
    if sites == 1:
        return g
    eye = np.eye(s)
    total = np.zeros((s ** sites, s ** sites))
    for j in range(sites):
        factors = [eye] * sites
        factors[j] = np.asarray(g.H)
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    joiner = "" if all(len(l) == 1 for l in g.states.labels) else "|"
    labels = g.states.labels
    for _ in range(sites - 1):
        labels = tuple(a + joiner + b for a in labels for b in g.states.labels)
    return validate_generator(total, labels)


# ---------------------------------------------------------------------------
# stochastic simulation along a tree
# ---------------------------------------------------------------------------

def _jump_table(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The holding rate -H[x, x] of every state x, and the cumulative jump
    kernel stored transposed: table[k, x] is the probability that a jump
    out of x lands in a state <= k, and column x is zero when x has rate 0."""
    rates = -np.diag(H)
    moving = rates > 0
    kernel = np.zeros(H.shape)
    kernel[:, moving] = H[:, moving] / rates[moving]
    np.fill_diagonal(kernel, 0.0)
    return rates, np.cumsum(kernel, axis=0)


def _evolve(rng: np.random.Generator, rates: np.ndarray, table: np.ndarray,
            start: np.ndarray, t: float) -> np.ndarray:
    """Jump-chain simulation of every sample along an edge of length t: in
    state x a sample holds for an exponential time at rate rates[x], then
    jumps to the first state k with u < table[k, x] for a uniform u.

    Only the samples still moving are kept, in ascending index order.  Each
    round draws one holding time for each of them, then one uniform for
    each still inside the edge, and drops those that left the edge or
    reached a state of rate 0."""
    x = np.array(start, dtype=np.int64)
    if not t > 0:
        return x
    s = table.shape[0]
    absorbing = not (rates > 0).all()
    idx = np.flatnonzero(rates[x] > 0) if absorbing else np.arange(x.size)
    xs = x[idx]
    rem = np.full(idx.size, float(t))
    while idx.size:
        rem -= rng.exponential(1.0, size=idx.size) / rates[xs]
        inside = rem > 0
        j = np.count_nonzero(inside)
        if j < idx.size:
            idx, rem, xs = idx[inside], rem[inside], xs[inside]
        if j:
            u = rng.random(j)
            # the first state whose cumulative jump probability exceeds u
            targets = (np.take(table, xs, axis=1) <= u).sum(axis=0, dtype=np.int64)
            xs = np.minimum(targets, s - 1)
            x[idx] = xs
            if absorbing:
                moving = rates[xs] > 0
                idx, rem, xs = idx[moving], rem[moving], xs[moving]
    return x


def simulate_branching(tree: PhyloTree, g: MarkovGenerator, root: Distribution,
                       seed: int, samples: int) -> np.ndarray:
    """Empirical joint leaf-state counts from ``samples`` runs of the
    branching walk: draw the root state, evolve along each edge for its
    length, copy the state to every child at each vertex.  Deterministic
    for a fixed seed.  Returns an integer array of shape (size,) * n."""
    _check_same_states(g.states, root.states)
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise MarkovError(f"seed must be an int >= 0, got {seed!r}")
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise MarkovError(f"samples must be an int, got {samples!r}")
    if samples < 1:
        raise MarkovError("need at least one sample")
    if samples > TENSOR_CAP:
        raise SizeCap(f"{samples} samples exceed the cap {TENSOR_CAP}")
    if tree.is_extended:
        raise NonFiniteTime("simulation needs finite edge lengths")
    s = g.size
    if s ** tree.n > TENSOR_CAP:
        raise SizeCap(f"{s}^{tree.n} count entries exceed the cap {TENSOR_CAP}")
    H = np.asarray(g.H)
    rate = float(-np.diag(H).min())
    length = sum(tree.length(u) for u in tree.shape.preorder)
    if samples * rate * length > JUMP_CAP:
        raise SizeCap(f"{samples} samples x rate {rate:g} x length {length:g} "
                      f"exceed the cap of {JUMP_CAP} expected jumps")
    rates, table = _jump_table(H)
    rng = np.random.default_rng(seed)
    cut = np.cumsum(root.p)
    start = np.searchsorted(cut, rng.random(samples), side="right")
    # 0 is the root marker: the state flowing into the root edge
    states = {0: np.minimum(start, s - 1).astype(np.int64)}
    for u in tree.shape.preorder:
        p = tree.shape.parent[u]
        # a vertex's state is dropped once its last child has used it
        last = p == 0 or tree.shape.child_map[p][-1] == u
        incoming = states.pop(p) if last else states[p]
        states[u] = _evolve(rng, rates, table, incoming, tree.length(u))
    flat = np.zeros(samples, dtype=np.int64)
    for j in range(1, tree.n + 1):
        flat = flat * s + states[j]
    counts = np.bincount(flat, minlength=s ** tree.n)
    return counts.reshape((s,) * tree.n)


# ---------------------------------------------------------------------------
# JSON schemas shared with the command line
# ---------------------------------------------------------------------------

def matrix_to_json(states: StateSpace, M: np.ndarray) -> dict:
    return {"states": list(states.labels),
            "rows": [[float(x) for x in row] for row in np.asarray(M)]}


def _json_fields(doc: Any, what: str, key: str) -> tuple[StateSpace, Any]:
    """The state space under "states" and the value under ``key`` of a JSON
    object; MarkovError when the document does not have that shape."""
    if not (isinstance(doc, Mapping) and "states" in doc and key in doc):
        raise MarkovError(f"{what} JSON must be an object with keys "
                          f"'states' and {key!r}")
    labels = doc["states"]
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise MarkovError(f"{what} JSON needs a list of state names")
    return StateSpace(tuple(labels)), doc[key]


def generator_from_json(doc: Any) -> MarkovGenerator:
    states, rows = _json_fields(doc, "matrix", "rows")
    return validate_generator(rows, states)


def distribution_from_json(doc: Any) -> Distribution:
    states, p = _json_fields(doc, "distribution", "p")
    return Distribution.make(states, p)
