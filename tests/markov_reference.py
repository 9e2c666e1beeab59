"""Replaced and test-only Markov code, kept as oracles.

``_evolve`` is the jump chain that ``phylo.markov._evolve`` replaced, the
oracle of the differential test in ``test_markov_differential``.  Every round
recomputes the moving samples over the whole batch and reads the jump kernel
row by row from a table rebuilt on every call.

``limit_by_doubling`` is the iteration that ``phylo.markov.limit_operator``
replaced; it converges on well-mixed chains only.  ``limit_exact`` is the
same limit in exact rationals, the oracle of ``limit_operator`` where its
floats would leave their range.  ``semigroup_defect``
measures the semigroup law of ``phylo.markov.expm``.

``expm_one`` is the one-matrix scaling and squaring that the stacked
``phylo.markov._expm_core`` replaced, the bitwise oracle of every slice of
its stack.

``site_sum`` is the generator of ``phylo.markov.site_product`` as it was
built before the Kronecker sum grew one site at a time: a sum of one
Kronecker chain per site, each of ``sites`` factors.  It is the bitwise
oracle of the grown sum.

``push`` is the top-down evaluation that the bottom-up
``phylo.coalgebra._evaluate`` replaced, the oracle of its differential test
in ``test_coalgebra``.  It grows one tensor from the root, one vertex at a
time, in a child order keyed by lengths and shape alone.

``prune`` is the bottom-up pass of ``phylo.coalgebra._evaluate`` as it was
before it wrote over its own partials: every step makes a new array, so a
vertex holds its children's product and that product's image at once.  It
is the bitwise oracle of the in-place pass.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from phylo.markov import (
    _PS_TABLES,
    TENSOR_CAP,
    MarkovGenerator,
    SizeCap,
    _series_degree,
    _transitions,
    expm,
)
from phylo.operads import PhyloTree
from phylo.trees import _preorder

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


def limit_exact(h: np.ndarray) -> list[list[Fraction]]:
    """The infinite-time limit of exp(tH) for a float generator h, as exact
    rationals.  Each closed class's stationary vector comes from a state
    reduction of its rates, each transient state's odds of ending in each
    class from Gaussian elimination, so no step rounds."""
    s = h.shape[0]
    rate = [[Fraction(float(h[y, x])) if x != y else Fraction(0)
             for x in range(s)] for y in range(s)]
    reach = [{x} for x in range(s)]
    for x in range(s):
        todo = [x]
        while todo:
            u = todo.pop()
            for y in range(s):
                if rate[y][u] and y not in reach[x]:
                    reach[x].add(y)
                    todo.append(y)
    classes = {frozenset(reach[x]) for x in range(s)
               if all(x in reach[y] for y in reach[x])}
    limit = [[Fraction(0)] * s for _ in range(s)]
    home = {}
    for members in classes:
        c = sorted(members)
        q = [[rate[y][x] for x in c] for y in c]
        for k in range(len(c) - 1, 0, -1):
            out = sum(q[i][k] for i in range(k))
            for i in range(k):
                for j in range(k):
                    q[i][j] += q[i][k] * q[k][j] / out
        pi = [Fraction(1)]
        for k in range(1, len(c)):
            pi.append(sum(q[k][j] * pi[j] for j in range(k))
                      / sum(q[i][k] for i in range(k)))
        total = sum(pi)
        for x in c:
            home[x] = members
            for y, p in zip(c, pi):
                limit[y][x] = p / total
    # a(x) = sum_y rate[y][x] a(y) / exit(x) for transient x, with a = 1 on
    # a class and 0 on the others: one linear system per class
    moving = [x for x in range(s) if x not in home]
    for members in classes:
        rows = []
        for x in moving:
            exit_x = sum(rate[y][x] for y in range(s))
            rows.append([(exit_x if y == x else 0) - rate[y][x] for y in moving]
                        + [sum(rate[y][x] for y in members)])
        for i in range(len(rows)):
            pivot = next(j for j in range(i, len(rows)) if rows[j][i])
            rows[i], rows[pivot] = rows[pivot], rows[i]
            for j in range(len(rows)):
                if j != i and rows[j][i]:
                    f = rows[j][i] / rows[i][i]
                    rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
        c = sorted(members)
        for i, x in enumerate(moving):
            odds = rows[i][-1] / rows[i][i]
            for y in c:
                limit[y][x] += odds * limit[y][c[0]]
    return limit


def expm_one(A: np.ndarray) -> np.ndarray:
    """Scaling and squaring of one matrix: the norm of A fixes the squarings
    and the series degree, and the series is evaluated by Paterson-Stockmeyer
    in about 2 sqrt(degree) products."""
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


def site_sum(H: np.ndarray, sites: int) -> np.ndarray:
    """The Kronecker-sum generator of ``sites`` independent copies of H, as
    the sum over sites j of I x ... x H x ... x I, H the j-th factor."""
    s = H.shape[0]
    total = np.zeros((s ** sites, s ** sites))
    for j in range(sites):
        factors = [np.eye(s)] * sites
        factors[j] = H
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total


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


def push(t: PhyloTree, g: MarkovGenerator, start: np.ndarray) -> np.ndarray:
    """Push ``start`` down the tree: evolve it along the root edge, then at
    each vertex replace the vertex's state axis by one axis per child,
    copying the state and evolving along each child edge.  ``start`` is a
    vector (size,) or a matrix (size, m) whose columns are pushed alike;
    the result has axes (leaf 1, ..., leaf n) and then the column axis."""
    s = g.size
    if s ** t.n > TENSOR_CAP:
        raise SizeCap(f"{s}^{t.n} tensor entries exceed the cap {TENSOR_CAP}")
    shape, lens = t.shape, t.length_map()
    # children sort stably by a key of lengths and shape alone, as the
    # canonical key without leaf numbers
    keys: dict[int, str] = {}
    order: dict[int, list[int]] = {}
    for u in reversed(shape.preorder):
        if u < 0:
            order[u] = sorted(shape.child_map[u], key=keys.__getitem__)
        body = "L" if u > 0 else f"({','.join([keys[c] for c in order[u]])})"
        keys[u] = f"{lens[u]!r}:{body}"
    distinct = set(lens.values())
    finite = [x for x in distinct if x < math.inf]
    mats = dict(zip(finite, _transitions(g, finite))) if finite else {}
    if math.inf in distinct:
        mats[math.inf] = g.limit.M
    cur = mats[lens[shape.root]] @ start
    # the node of each axis of cur; n + 1 marks the column axis
    axes = [shape.root] + [t.n + 1] * (cur.ndim - 1)
    for u in _preorder(shape.root, order):
        if u > 0:
            continue
        kids = order[u]
        p = axes.index(u)
        if cur.size < s * s:
            # The product tensor below would be larger than the result (at
            # the root vertex of a vector push).  Move the vertex axis last,
            # put in the child axes one at a time, then sum it out against
            # the last child's matrix.
            cur = np.moveaxis(cur, p, -1)
            for c in kids[:-1]:
                cur = cur[..., None, :] * mats[lens[c]]
            cur = (cur.reshape(-1, s) @ mats[lens[kids[-1]]].T).reshape(cur.shape)
        else:
            # d[y_1, ..., y_k, v]: the product of the child edges' entries,
            # with s**(k+1) entries, no more than the result's
            d = mats[lens[kids[0]]]
            for c in kids[1:]:
                d = d[..., None, :] * mats[lens[c]]
            cur = np.tensordot(cur, d, axes=([p], [len(kids)]))
        axes = axes[:p] + axes[p + 1:] + list(kids)
    return np.transpose(cur, np.argsort(axes))


def prune(t: PhyloTree, g: MarkovGenerator, f: np.ndarray | None) -> np.ndarray:
    """Felsenstein's pruning over ``t.shape``, one new array per step: the
    joint leaf tensor from the root law ``f``, axes leaf 1..n, or with
    ``f`` None the operator, with the root state as one more axis."""
    s = g.size
    if s ** t.n > TENSOR_CAP:
        raise SizeCap(f"{s}^{t.n} tensor entries exceed the cap {TENSOR_CAP}")
    shape, lens = t.shape, t.length_map()
    distinct = set(lens.values())
    finite = [x for x in distinct if x < math.inf]
    mats = dict(zip(finite, _transitions(g, finite))) if finite else {}
    if math.inf in distinct:
        mats[math.inf] = g.limit.M
    part: dict[int, np.ndarray] = {}
    for u in reversed(shape.preorder):
        if u > 0:
            part[u] = mats[lens[u]]
            continue
        kids = shape.child_map[u]
        # the root folds its law into its last child and sums that child out
        fold = u == shape.root and f is not None
        p = part.pop(kids[0])
        for c in kids[1:len(kids) - fold]:
            p = np.einsum("av,bv->abv", p, part.pop(c)).reshape(-1, s)
        if fold:
            part[u] = p @ (part.pop(kids[-1]) * (mats[lens[u]] @ f)).T
        else:
            part[u] = p @ mats[lens[u]]
    out = part[shape.root]
    if f is not None and shape.root > 0:  # a one-leaf tree
        out = out @ f
    out = out.reshape((s,) * (t.n + (f is None)))
    # axis j of out is the j-th leaf of t.shape's leaf order
    return np.transpose(out, [*np.argsort(shape.leaf_order()), t.n][:out.ndim])
