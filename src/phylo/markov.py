"""Finite-state continuous-time Markov processes.

Column convention throughout: a generator H has nonnegative off-diagonal
rates and zero column sums, the transition matrix exp(tH) is column
stochastic, and distributions are column vectors, so evolving for time t
is p -> exp(tH) p.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import groupby
from typing import Any, Mapping, Sequence

import numpy as np

from .operads import PhyloTree, _length
from .trees import PhyloError, record

COLUMN_SUM_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-12
GENERATOR_SUM_TOL = 1e-12
NEGATIVE_CLAMP = 1e-12
# most entries a joint leaf tensor (evaluated or simulated), a generator
# or a sample vector may have
TENSOR_CAP = 10 ** 6
# most state changes a simulation may expect to draw: samples x the fastest
# exit rate x the summed edge lengths.  The jump chain runs about rate x
# length rounds, so one sample may run 10^7 rounds: over a minute of run time.
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
    """The probability rule on a fresh float array ``arr``, written over:
    a NaN or infinite entry, an entry below -NEGATIVE_CLAMP or a sum (over
    ``axis``, each a column of ``what``; None sums every entry) more than
    ``tol`` from 1 raises MarkovError.  Roundoff negatives become 0, and
    the array is returned read-only."""
    each = what if axis is None else f"{what} column"
    # finite entries give a finite min and, unless their sum overflows, a
    # finite sum, so only a non-finite one takes the full pass
    with np.errstate(over="ignore", invalid="ignore"):
        low = float(arr.min())
        if -NEGATIVE_CLAMP <= low < 0:
            arr[arr < 0] = 0.0
        total = arr.sum(axis=axis)
    if not (math.isfinite(low) and np.isfinite(total).all()) \
            and not np.isfinite(arr).all():
        raise MarkovError(f"{what} has a NaN or infinite entry")
    if low < -NEGATIVE_CLAMP:
        raise MarkovError(f"{each} entry {low} is below the roundoff clamp")
    dev = float(np.abs(total - 1.0).max())
    if dev > tol:
        raise MarkovError(f"{each} sum deviates from 1 by {dev}")
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
    and zero column sums: each within GENERATOR_SUM_TOL of the column's
    summed absolute entries, so the rule does not depend on the time unit."""
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
    # The rule is relative, so a column with an entry past 2**1000 is scaled
    # by 2**-64 first, lest its sums overflow; other columns keep their bits.
    scale = np.where(np.abs(arr).max(axis=0, initial=0.0) > 2.0 ** 1000,
                     2.0 ** -64, 1.0)
    leak = np.abs((arr * scale).sum(axis=0))
    bad = np.flatnonzero(leak > GENERATOR_SUM_TOL * np.abs(arr * scale).sum(axis=0))
    if bad.size:
        raise ColumnSumNonzero(f"column {bad[0]} sum deviates from 0 by "
                               f"{float(leak[bad[0]]) / float(scale[bad[0]])}, "
                               f"more than {GENERATOR_SUM_TOL} of its absolute sum")
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
            arr, "stochastic matrix", 0, COLUMN_SUM_TOL))


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


# most entries of one stacked product sequence: a batch holds at most
# max(1, STACK_ENTRIES // s**2) matrices, so wide models run one at a time
STACK_ENTRIES = 4096


def _expm_core(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack A, shape (k, s, s), by scaling and
    squaring: a matrix's norm fixes its squarings and its series degree, and
    the series is evaluated by Paterson-Stockmeyer (SIAM J. Comput.
    2(1):60-66, 1973) in about 2 sqrt(degree) products.  Matrices whose block
    tables have one shape share one stacked product sequence, each with its
    own coefficient rows, so each gets exactly the products, and the bits,
    that it would get alone."""
    k, s = A.shape[0], A.shape[1]
    out = np.empty((k, s, s))
    plans = []
    for i, norm in enumerate(np.abs(A).sum(axis=1).max(axis=1).tolist()):
        if not norm < 2.0 ** 1000:
            # also an infinite norm, where t * H or its norm overflowed
            raise SizeCap(f"norm {norm:g} of t*H is too large to exponentiate")
        # ceil(log2 norm), exactly, so that the scaled norm is at most 1
        frac, exp = math.frexp(norm)
        squarings = max(0, exp - (frac == 0.5))
        m = _series_degree(norm / 2.0 ** squarings)
        plans.append((_PS_TABLES[m].shape, squarings, m, i))
    # by table shape, then most squarings first, so that each squaring round
    # of a batch runs on a prefix of it
    plans.sort(key=lambda p: (p[0], -p[1]))
    cap = max(1, STACK_ENTRIES // (s * s))
    for _, run in groupby(plans, key=lambda p: p[0]):
        run = list(run)
        for j in range(0, len(run), cap):
            idx = [p[3] for p in run[j:j + cap]]
            out[idx] = _expm_batch(A[idx], run[j:j + cap])
    return out


def _expm_batch(A: np.ndarray, plans: list[tuple]) -> np.ndarray:
    """exp of the matrices A, one for each (table shape, squarings, degree,
    index) of ``plans``: the shapes agree, and the matrices that take the
    most squarings come first."""
    B = A / np.ldexp(1.0, [p[1] for p in plans]).reshape(-1, 1, 1)
    coef = np.array([_PS_TABLES[p[2]] for p in plans])
    c, rows, q = coef.shape
    s = B.shape[1]
    # powers[i] = B^i for i < q
    powers = np.empty((q, c, s, s))
    powers[0] = np.eye(s)
    powers[1] = B
    for i in range(2, q):
        np.matmul(powers[i - 1], B, out=powers[i])
    Bq = powers[q - 1] @ B
    blocks = coef @ powers.transpose(1, 0, 2, 3).reshape(c, q, s * s)
    blocks = blocks.reshape(c, rows, s, s)
    del powers, B  # free them before the products below
    # Horner in B^q over the blocks, highest first
    total = blocks[:, -1]
    for j in range(rows - 2, -1, -1):
        total = total @ Bq
        total += blocks[:, j]
    # each round squares the first n matrices, those not yet squared enough
    n = c
    for r in range(plans[0][1]):
        while plans[n - 1][1] <= r:
            n -= 1
        if n == c:
            total = total @ total
        else:
            total[:n] = total[:n] @ total[:n]
    return total


def _transitions(g: MarkovGenerator, times: Sequence[float]) -> np.ndarray:
    """The transition matrices exp(tH) for a nonempty list of finite times
    t >= 0, as one read-only stack of shape (len(times), s, s), checked once
    by the rule and with the messages of ``StochasticMatrix.make``."""
    # t * H or its norm may overflow: an infinite norm, which _expm_core
    # refuses with SizeCap
    with np.errstate(over="ignore"):
        stack = _expm_core(np.multiply.outer(times, g.H))
    return _probabilities(stack, "stochastic matrix", 1, COLUMN_SUM_TOL)


def expm(g: MarkovGenerator, t: float) -> StochasticMatrix:
    """The transition matrix exp(tH) for a time t in [0, inf]; at t = inf
    it is the limit ``g.limit``, cached per generator."""
    x = _length(t, allow_inf=True)
    if x is None:
        raise NegativeTime(f"time {t!r} is not a number >= 0")
    if x == math.inf:
        return g.limit
    return StochasticMatrix(g.states, _transitions(g, [x])[0])


# the exponent of 0: far below any sum of a few thousand float exponents
_NO_EXPONENT = -(1 << 40)


def _pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as mantissas in [0.5, 1) and int64 exponents, 0 as (0, _NO_EXPONENT)."""
    m, e = np.frexp(x)
    return m, np.where(m == 0, _NO_EXPONENT, e.astype(np.int64))


def limit_operator(g: MarkovGenerator) -> StochasticMatrix:
    """The infinite-time limit of exp(tH), by one state reduction (Grassmann,
    Taksar & Heyman, Oper. Res. 33(5):1107-1116, 1985) of the jump chain.

    The states are ordered one kept state per closed class first, then the
    other recurrent states, then the transient ones, and eliminated from the
    last: each elimination reroutes the jumps into the removed state to where
    it jumps next.  Back-substitution in forward order gives each recurrent
    state its share of its class's stationary vector, and each transient
    state the mix of the columns it jumps to.  Only off-diagonal rates are
    read and nothing is subtracted, so slowly mixing and stiff chains keep
    their relative accuracy; and every number is held as a mantissa and a
    power of two, so that no product of jump probabilities, however
    unlikely the path it stands for, leaves the float range."""
    s = g.size
    eye = np.eye(s, dtype=bool)
    rates = np.where(eye, 0.0, g.H)
    # reach[y, x]: x reaches y in at most 2^j steps after j squarings, which
    # run as floats, where matmul has BLAS
    reach = ((rates > 0) | eye).astype(float)
    for _ in range((s - 1).bit_length()):
        reach = ((reach @ reach) > 0).astype(float)
    reach = reach > 0
    # x is recurrent when every state it reaches reaches it back; then the
    # lowest state it reaches is the kept state of its closed class
    recurrent = ~(reach & ~reach.T).any(axis=0)
    first = np.argmax(reach, axis=0)
    kept = recurrent & (first == np.arange(s))
    # kept states (key 0), the other recurrent ones (1), the transient ones (2)
    order = np.argsort(2 - kept - recurrent, kind="stable")
    m, r = int(kept.sum()), int(recurrent.sum())
    cls = np.where(recurrent, first, -1)[order]
    # jump probabilities, not rates, each held as a mantissa in [0.5, 1) and
    # an int exponent, so that no product or sum of them leaves the float
    # range; scaling by a power of two is exact, so every operation rounds
    # as it would on the floats themselves wherever those stay normal
    exits = rates.sum(axis=0)[order]
    exits[exits == 0] = 1.0  # an absorbing state's column stays 0
    (mr, er), (mx, ex) = _pairs(rates[order][:, order]), np.frexp(exits)
    M, E = _pairs(mr / mx)
    E += er - ex
    # each eliminated column over its sum, as floats, and that sum, which is
    # 2**top[k] times escape[k]
    jump, escape = np.zeros((s, s)), np.ones(s)
    top = np.zeros(s, dtype=np.int64)
    for k in range(s - 1, m - 1, -1):
        top[k] = E[:k, k].max()
        shift = E[:k, k] - top[k]
        c = np.ldexp(M[:k, k], shift)
        escape[k] = c.sum()
        jump[:k, k] = c / escape[k]
        pm = np.multiply.outer(M[:k, k] / escape[k], M[k, :k])
        pe = np.add.outer(shift, E[k, :k])
        most = np.maximum(E[:k, :k], pe)
        # where both terms are 0, most is near _NO_EXPONENT and stays the
        # exponent of the 0
        M[:k, :k], d = np.frexp(np.ldexp(M[:k, :k], E[:k, :k] - most)
                                + np.ldexp(pm, pe - most))
        E[:k, :k] = most + d
    # the jump chain's stationary vector, nm * 2**ne, kept normalized within
    # each class so that no mantissa overflows
    nm, ne = _pairs((np.arange(s) < m).astype(float))
    for k in range(m, r):
        te = E[k, :k] + ne[:k]
        a, b = int(te.max()), int(top[k])
        # the flows into and out of state k are 2**a * inflow and
        # 2**b * outflow
        inflow = float(np.ldexp(M[k, :k], te - a) @ nm[:k])
        outflow = float(escape[k])
        most = max(a, b)
        total = math.ldexp(inflow, a - most) + math.ldexp(outflow, b - most)
        mine = cls == cls[k]
        nm[mine] *= outflow / total
        ne[mine] += b - most
        nm[k], ne[k] = inflow / total, a - most
        nm, d = np.frexp(nm)
        ne += d
    # the process's stationary vector is nu / exits, normalized within each
    # class: the mantissa nm times least / exit, with the class's least exit
    # rate, and the exponent less the class's largest, so that no share
    # overflows and one below the float range becomes 0
    same = cls[:r, None] == cls[None, :r]
    ml, el = np.frexp(np.where(same, exits[:r], np.inf).min(axis=1))
    x = ne[:r] + el - ex[:r]
    x -= np.where(same, x, _NO_EXPONENT).max(axis=1)
    w = np.ldexp(nm[:r] * (ml / mx[:r]), x)
    L = np.zeros((s, s))
    L[:r, :r] = same * (w / (same @ w))[:, None]
    for k in range(r, s):
        L[:, k] = L[:, :k] @ jump[:k, k]
    P = np.empty((s, s))
    P[np.ix_(order, order)] = L
    return StochasticMatrix.make(g.states, P)


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
    # one site at a time; + 0.0 turns the -0.0 a -0.0 entry of H leaves into 0.0
    H = total = np.asarray(g.H)
    for j in range(1, sites):
        total = np.kron(total, np.eye(s)) + np.kron(np.eye(s ** j), H)
    joiner = "" if all(len(l) == 1 for l in g.states.labels) else "|"
    labels = g.states.labels
    for _ in range(sites - 1):
        labels = tuple(a + joiner + b for a in labels for b in g.states.labels)
    return validate_generator(total + 0.0, labels)


# ---------------------------------------------------------------------------
# stochastic simulation along a tree
# ---------------------------------------------------------------------------

def _jump_table(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The holding rate -H[x, x] of every state x, and the cumulative jump
    kernel transposed and less its last row: table[k, x] is the probability
    that a jump out of x lands in a state <= k, or 0 if x has rate 0."""
    rates = -np.diag(H)
    moving = rates > 0
    kernel = np.zeros(H.shape)
    kernel[:, moving] = H[:, moving] / rates[moving]
    np.fill_diagonal(kernel, 0.0)
    return rates, np.cumsum(kernel[:-1], axis=0)


def _jump(table: np.ndarray, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Where each sample jumps, from state xs[i] on the uniform u[i]: the
    number of cumulative jump probabilities table[:, xs[i]] at or below
    u[i], read in blocks of at most TENSOR_CAP table entries."""
    if u.size * len(table) <= TENSOR_CAP:
        return np.add.reduce(table.take(xs, axis=1) <= u, axis=0, dtype=np.int64)
    step = TENSOR_CAP // len(table)
    return np.concatenate([_jump(table, xs[j:j + step], u[j:j + step])
                           for j in range(0, u.size, step)])


def _evolve(rng: np.random.Generator, rates: np.ndarray, table: np.ndarray,
            start: np.ndarray, t: float) -> np.ndarray:
    """Jump-chain simulation of every sample along an edge of length t: in
    state x a sample holds for an exponential time at rate rates[x], then
    jumps to the first state k with u < table[k, x] for a uniform u, else
    to the last state.  Only the samples still moving are kept, in index
    order.  Each round draws one holding time for each, then one uniform
    for each still inside the edge, and drops those that left the edge or
    reached a state of rate 0.  These draws and their order fix a seed's
    counts, a part of the contract.  ``start`` is only read."""
    x = np.array(start, dtype=np.int64)
    if not t > 0:
        return x
    absorbing = not (rates > 0).all()
    # the samples still moving, in ascending order; None while that is all
    idx = (rates.take(x) > 0).nonzero()[0] if absorbing else None
    xs, rem = x if idx is None else x.take(idx), float(t)
    while xs.size:
        e = rng.standard_exponential(xs.size)
        e /= rates.take(xs)
        rem = np.subtract(rem, e, out=e)
        keep = (rem > 0).nonzero()[0]
        if keep.size < xs.size:
            idx = keep if idx is None else idx.take(keep)
            rem, xs = rem.take(keep), xs.take(keep)
        if keep.size:
            xs = _jump(table, xs, rng.random(keep.size))
            x[... if idx is None else idx] = xs
            if absorbing:
                keep = (rates.take(xs) > 0).nonzero()[0]
                idx, rem, xs = idx.take(keep), rem.take(keep), xs.take(keep)
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
    rates, table = _jump_table(np.asarray(g.H))
    rate = float(rates.max())
    length = sum(tree.length(u) for u in tree.shape.preorder)
    if samples * rate * length > JUMP_CAP:
        raise SizeCap(f"{samples} samples x rate {rate:g} x length {length:g} "
                      f"exceed the cap of {JUMP_CAP} expected jumps")
    rng = np.random.default_rng(seed)
    # 0 is the root marker: the state flowing into the root edge, drawn by
    # the jump rule from a state 0 whose jump law is the root law
    cut = np.cumsum(root.p)[:-1, None]
    states = {0: _jump(cut, np.zeros(samples, np.int64), rng.random(samples))}
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
            "rows": np.asarray(M).tolist()}


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
