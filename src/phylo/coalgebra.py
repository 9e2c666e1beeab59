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
    NonFiniteTime,
    TENSOR_CAP,
    ShapeMismatch,
    SizeCap,
    StateSpace,
    _check_same_states,
    _finite_array,
    _probabilities,
    _transitions,
    expm,  # not called here; the traced benchmark wraps coalgebra.expm by name
)
from .operads import PhyloTree, _length
from .trees import PhyloError, record


class CoalgebraError(PhyloError):
    pass


class BadArity(CoalgebraError):
    pass


class IndexOutOfRange(CoalgebraError):
    pass


class DomainError(CoalgebraError):
    pass


class ParameterOutOfRange(CoalgebraError):
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
        arr = _finite_array(data, "tensor")
        if arr.size != s ** n:
            raise ShapeMismatch(f"{arr.size} tensor entries for {s}^{n}")
        # the probability rule sums the whole tensor in its memory layout, so
        # a transposed push result is not copied again
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


def _push(t: PhyloTree, g: MarkovGenerator, start: np.ndarray) -> np.ndarray:
    """Push ``start`` down the tree: evolve it along the root edge, then at
    each vertex replace the vertex's state axis by one axis per child,
    copying the state and evolving along each child edge.  ``start`` is a
    vector (size,) or a matrix (size, m) whose columns are pushed alike;
    the result has axes (leaf 1, ..., leaf n) and then the column axis."""
    s = g.size
    if s ** t.n > TENSOR_CAP:
        raise SizeCap(f"{s}^{t.n} tensor entries exceed the cap {TENSOR_CAP}")
    # Children sort by lengths and shape alone, so relabelling leaves permutes
    # the tensor axes; the entries agree to roundoff, not bitwise, since leaf
    # labels order tied sibling subtrees and swapping them regroups the sums.
    rep, _, lens = t.shape.canonical("unordered", labels=t.length_map(),
                                     leaf_labels=False)
    # one transition matrix per distinct length of this tree, the finite
    # ones from one checked stack
    distinct = set(lens.values())
    finite = [x for x in distinct if x < math.inf]
    mats = dict(zip(finite, _transitions(g, finite))) if finite else {}
    if math.inf in distinct:
        mats[math.inf] = g.limit.M
    cur = mats[lens[rep.root]] @ start
    # the node of each axis of cur; n + 1 marks the column axis
    axes = [rep.root] + [t.n + 1] * (cur.ndim - 1)
    for u in rep.preorder:
        if u > 0:
            continue
        kids = rep.child_map[u]
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


def evaluate_operator(t: PhyloTree, g: MarkovGenerator) -> np.ndarray:
    """The tree as a matrix of shape (size**n, size): column x is the joint
    leaf tensor produced from the point distribution at state x."""
    s = g.size
    return _push(t, g, np.eye(s)).reshape(s ** t.n, s)


def evaluate(t: PhyloTree, g: MarkovGenerator, f: Distribution) -> LeafTensor:
    """Joint distribution of the leaf states, starting from ``f`` at the root."""
    _check_same_states(g.states, f.states)
    if t.is_extended:
        raise NonFiniteTime("tree has infinite lengths; use evaluate_extended")
    return LeafTensor.make(g.states, t.n, _push(t, g, f.p))


def evaluate_extended(t: PhyloTree, g: MarkovGenerator,
                      f: Distribution) -> LeafTensor:
    """As ``evaluate``; edges of infinite length apply the equilibrium
    projector (cached per generator)."""
    _check_same_states(g.states, f.states)
    return LeafTensor.make(g.states, t.n, _push(t, g, f.p))


def marginal(lt: LeafTensor, leaf: int) -> Distribution:
    """Distribution of one leaf: sum out every other leaf axis."""
    if isinstance(leaf, bool) or not isinstance(leaf, int) or not 1 <= leaf <= lt.n:
        raise IndexOutOfRange(f"leaf {leaf!r} not in 1..{lt.n}")
    axes = tuple(j for j in range(lt.n) if j != leaf - 1)
    return Distribution.make(lt.states, lt.data.sum(axis=axes))


# ---------------------------------------------------------------------------
# the compactified length monoid and trees with infinite external edges
# ---------------------------------------------------------------------------

def star(x: float, y: float) -> float:
    """The monoid operation x + y - xy on [0, 1]."""
    return x + y - x * y


def to_unit(t: float) -> float:
    """Isomorphism ([0, inf], +) -> ([0, 1], star): t -> 1 - exp(-t)."""
    x = _length(t, allow_inf=True)
    if x is not None:
        return 1.0 - math.exp(-x)
    raise DomainError(f"{t!r} is not a length in [0, inf]")


def from_unit(u: float) -> float:
    """Inverse isomorphism: u -> -log(1 - u), sending 1 to inf."""
    x = _length(u, allow_inf=False)
    if x is not None and x <= 1:
        return math.inf if x == 1 else -math.log1p(-x) + 0.0
    raise DomainError(f"{u!r} is not in [0, 1]")


def w_membership(t: PhyloTree) -> bool:
    """True when every external edge (root and leaves) has infinite length."""
    return all(math.isinf(x) for x in t.external_lengths())


def homotopy_retract(t: PhyloTree, s: float) -> PhyloTree:
    """Rescale the external lengths through the unit-interval coordinates:
    at s = 0 the tree is unchanged, at s = 1 all external edges become
    infinite, so the image satisfies ``w_membership``.  Internal lengths
    never move."""
    r = _length(s, allow_inf=False)
    if r is None or r > 1:
        raise ParameterOutOfRange(f"parameter {s!r} not in [0, 1]")
    if r == 0:
        return t
    return t.with_external([from_unit((1.0 - r) * to_unit(x) + r)
                            for x in t.external_lengths()])


# ---------------------------------------------------------------------------
# the tensor JSON the command line prints
# ---------------------------------------------------------------------------

def tensor_to_json(lt: LeafTensor) -> dict:
    return {"states": list(lt.states.labels), "n": lt.n,
            "data": [float(x) for x in lt.flat]}

