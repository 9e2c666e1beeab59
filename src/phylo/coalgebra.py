"""Evaluating trees against Markov models: joint leaf distributions.

A tree with n leaves acts on a state distribution as a linear map into
the n-fold tensor power: evolve along the root edge, copy the state at
each branching vertex (the diagonal duplication), keep evolving along
each child edge.  Infinite edge lengths evolve by the equilibrium
projector, extending the action to trees with lengths in [0, inf].
"""

from __future__ import annotations

import math

import numpy as np

from .markov import (
    COLUMN_SUM_TOL,
    Distribution,
    MarkovGenerator,
    TENSOR_CAP,
    ShapeMismatch,
    STACK_ENTRIES,
    SizeCap,
    StateSpace,
    _check_same_states,
    _finite_array,
    _probabilities,
    _transitions,
    expm,  # not called here; the traced benchmark wraps coalgebra.expm by name
)
from .operads import PhyloTree
from .trees import PhyloError, record


class CoalgebraError(PhyloError):
    pass


class BadArity(CoalgebraError):
    pass


class IndexOutOfRange(CoalgebraError):
    pass


@record
class LeafTensor:
    """A joint distribution of n leaf states, leaf 1 on the outermost axis."""

    states: StateSpace
    n: int
    data: np.ndarray

    @staticmethod
    def make(states: StateSpace, n: int, data: np.ndarray) -> "LeafTensor":
        s = states.size
        if s ** n > TENSOR_CAP:
            raise SizeCap(f"{s}^{n} tensor entries exceed the cap {TENSOR_CAP}")
        # a copy of ``data``, since the rule writes over what it checks;
        # evaluate hands the rule its own buffer instead
        arr = _finite_array(data, "tensor")
        if arr.size != s ** n:
            raise ShapeMismatch(f"{arr.size} tensor entries for {s}^{n}")
        arr = _probabilities(arr.reshape((s,) * n), "tensor", None, COLUMN_SUM_TOL)
        return LeafTensor(states, n, arr)

    @property
    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def duplicate_matrix(states: StateSpace, k: int) -> np.ndarray:
    """The diagonal embedding of one state axis into k axes, as a
    (size**k, size) matrix."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise BadArity(f"duplication needs an int arity >= 1, got {k!r}")
    s = states.size
    if s ** k > TENSOR_CAP:
        raise SizeCap(f"{s}^{k} exceeds the cap {TENSOR_CAP}")
    m = np.zeros((s ** k,) + (s,))
    step = (s ** k - 1) // (s - 1) if s > 1 else 1
    for x in range(s):
        m[x * step, x] = 1.0
    return m


def duplicate(k: int, f: Distribution) -> LeafTensor:
    """k-fold duplication: mass f(x) on the constant tuple (x, ..., x)."""
    m = duplicate_matrix(f.states, k)
    return LeafTensor.make(f.states, k, m @ f.p)


def _matmul_over(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a square b, written over a in blocks of STACK_ENTRIES
    entries; a block's rows get the products one call would give them."""
    step = max(1, STACK_ENTRIES // a.shape[1])
    for i in range(0, a.shape[0], step):
        a[i:i + step] = a[i:i + step] @ b
    return a


def _evaluate(t: PhyloTree, g: MarkovGenerator, f: np.ndarray | None) -> np.ndarray:
    """The joint leaf tensor from the root law ``f``, axes leaf 1..n; with
    ``f`` None, the operator, with the root state as one more axis.

    Felsenstein's pruning over ``t.shape``: a node's partial is the law of
    the leaves below it given the state atop its edge, one row per tuple of
    their states.  A leaf's is its edge's transition matrix, a vertex's its
    children's entrywise product, in child order, times its edge's matrix.
    At a binary vertex each entry is one float product, so swapping two
    tied children moves entries and changes no bit.  A vertex's product is
    a new array, multiplied by its edge's matrix where it lies, and the
    result is one new buffer of its own size, the caller's to keep."""
    s = g.size
    if s ** t.n > TENSOR_CAP:
        raise SizeCap(f"{s}^{t.n} tensor entries exceed the cap {TENSOR_CAP}")
    shape, lens = t.shape, t.length_map()
    # one transition matrix per distinct length of this tree, the finite
    # ones from one checked stack
    distinct = set(lens.values())
    finite = [x for x in distinct if x < math.inf]
    mats = dict(zip(finite, _transitions(g, finite))) if finite else {}
    if math.inf in distinct:
        mats[math.inf] = g.limit.M
    root, n = shape.root, t.n
    if root > 0:  # a one-leaf tree: its shared, read-only matrix
        return mats[lens[root]] if f is None else mats[lens[root]] @ f
    # a leaf's partial is its shared, read-only matrix and is never written
    part: dict[int, np.ndarray] = {}
    for u in reversed(shape.preorder):
        if u > 0:
            part[u] = mats[lens[u]]
            continue
        kids = shape.child_map[u]
        p = part.pop(kids[0])
        # the root's last child is left for the one product below
        for c in kids[1:len(kids) - (u == root)]:
            p = np.einsum("av,bv->abv", p, part.pop(c)).reshape(-1, s)
        if u != root:
            part[u] = _matmul_over(p, mats[lens[u]])
    # the loop ends at the root: p is the product of its children but the
    # last, x the last one's partial
    x = part.pop(kids[-1])
    if f is None:
        # the operator: the last product is written straight in leaf-label
        # order, axis leaf_order[i] - 1 for the i-th leaf of t.shape, so the
        # (s**n, s) matrix needs no transposed copy
        axes = [i - 1 for i in shape.leaf_order()]
        k = sum(v > 0 for v in shape.preorder[:shape.preorder.index(kids[-1])])
        out = np.einsum(p.reshape((s,) * (k + 1)), [*axes[:k], n],
                        x.reshape((s,) * (n - k + 1)), [*axes[k:], n],
                        [*range(n + 1)], order="C")
        _matmul_over(out.reshape(-1, s), mats[lens[root]])
        return out
    # the root folds its law into its last child and sums that child out by
    # one product p @ x.T, written over a factor of its shape: x where p is
    # a leaf's s rows, p where x is
    x = np.multiply(x, mats[lens[root]] @ f, out=x if kids[-1] < 0 else None)
    if p.shape[0] == s:
        out = _matmul_over(x, p.T).T
    elif x.shape[0] == s:
        out = _matmul_over(p, x.T)
    else:
        out = p @ x.T
    # axis j of out is the j-th leaf of t.shape's leaf order
    return out.reshape((s,) * n).transpose(np.argsort(shape.leaf_order()))


def evaluate_operator(t: PhyloTree, g: MarkovGenerator) -> np.ndarray:
    """The tree as a matrix of shape (size**n, size): column x is the joint
    leaf tensor produced from the point distribution at state x."""
    s = g.size
    return _evaluate(t, g, None).reshape(s ** t.n, s)


def evaluate(t: PhyloTree, g: MarkovGenerator, f: Distribution) -> LeafTensor:
    """Joint distribution of the leaf states, starting from ``f`` at the root,
    for any tree of Com + [0, inf]: an edge of infinite length applies the
    equilibrium projector ``g.limit`` (cached per generator)."""
    _check_same_states(g.states, f.states)
    # the pass's buffer is new and of the tensor's size, so the rule checks
    # it where it lies
    return LeafTensor(g.states, t.n, _probabilities(
        _evaluate(t, g, f.p), "tensor", None, COLUMN_SUM_TOL))


# the name perfbench/likelihood.py and perfbench/spans.py call
evaluate_extended = evaluate


def marginal(lt: LeafTensor, leaf: int) -> Distribution:
    """Distribution of one leaf: sum out every other leaf axis."""
    if isinstance(leaf, bool) or not isinstance(leaf, int) or not 1 <= leaf <= lt.n:
        raise IndexOutOfRange(f"leaf {leaf!r} not in 1..{lt.n}")
    # summed from one C-order copy, so equal entries in any memory layout
    # (evaluate's buffer is laid out in its pruning order) give equal bits
    rows = np.ascontiguousarray(np.moveaxis(lt.data, leaf - 1, 0))
    return Distribution.make(lt.states, rows.reshape(lt.states.size, -1).sum(axis=1))


# ---------------------------------------------------------------------------
# the tensor JSON the command line prints
# ---------------------------------------------------------------------------

def tensor_to_json(lt: LeafTensor) -> dict:
    return {"states": list(lt.states.labels), "n": lt.n,
            "data": lt.flat.tolist()}

