"""Operads of trees: free composition, evaluation, and normal forms.

The central objects are edge-weighted trees.  Grafting two of them and
summing lengths along the identified edge, then merging vertices joined
by zero-length internal edges, yields an operad whose operations are
exactly the valid phylogenetic trees (positive internal lengths, no
vertices with fewer than two children).  This module provides:

* a small generic ``Operad`` interface with the built-in instances used
  throughout (one operation per arity; the additive monoids of finite
  and of extended nonnegative lengths; planar trees; phylogenetic trees),
* the free operad on a collection, realized as vertex-labelled trees,
  with the counit that evaluates such a tree down to a single operation,
* ``normal_form``, which takes any mixed vertex/edge-labelled tree to its
  unique reduced form in one pass; the single moves (``applicable_moves``,
  ``apply_move``) are the reference rewrite system it is checked against,
* the bijection between normal forms and ``PhyloTree`` values,
* ``_length``, the one rule for what a length is, which every reader of a
  length, time, rate or radius in the library calls.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .trees import (
    LabelledTree,
    LeafIndexOutOfRange,
    PhyloError,
    PlanarTree,
    _freeze,
    _grafted,
    _inverse_perm,
    invert_perm,
    record,
    unit_tree,
)


class OperadError(PhyloError):
    pass


class ArityLabelMismatch(OperadError):
    pass


class MalformedLabelling(OperadError):
    pass


class NotReduced(OperadError):
    pass


class PhyloInvariantError(OperadError):
    pass


# ---------------------------------------------------------------------------
# generic operads
# ---------------------------------------------------------------------------

class Operad:
    """An operad presented through partial composition.

    ``compose(f, i, g)`` plugs ``g`` into the i-th input of ``f``;
    ``act(f, sigma)`` is the right action of the symmetric group on
    arity-n operations, given as the tuple (sigma(1), ..., sigma(n)).
    """

    def __init__(self, name: str, *, arity: Callable[[Any], int],
                 compose: Callable[[Any, int, Any], Any],
                 identity: Any,
                 contains: Callable[[Any], bool],
                 act: Callable[[Any, tuple[int, ...]], Any] | None = None):
        self.name = name
        self._arity = arity
        self._compose = compose
        self.identity = identity
        self.contains = contains
        self._act = act

    def __repr__(self) -> str:
        return f"Operad({self.name})"

    def arity(self, f: Any) -> int:
        return self._arity(f)

    def compose(self, f: Any, i: int, g: Any) -> Any:
        if not 1 <= i <= self.arity(f):
            raise LeafIndexOutOfRange(
                f"slot {i} not in 1..{self.arity(f)} for {self.name}")
        return self._compose(f, i, g)

    def act(self, f: Any, sigma: Sequence[int]) -> Any:
        sigma = tuple(sigma)
        invert_perm(sigma)
        if len(sigma) != self.arity(f):
            raise ArityLabelMismatch(
                f"permutation of size {len(sigma)} on an operation of arity {self.arity(f)}")
        if self._act is None:
            return f
        return self._act(f, sigma)


def _length(x: Any, allow_inf: bool) -> float | None:
    """The one length rule: the float of ``x`` (-0.0 read as 0.0) when ``x``
    is an int or float but not a bool, inside the float range, at least 0
    (so not NaN), and finite unless ``allow_inf``; otherwise None."""
    if isinstance(x, float) or isinstance(x, int) and not isinstance(x, bool):
        try:
            x = float(x) + 0.0
        except OverflowError:  # an int beyond the float range
            return None
        if x >= 0 and (allow_inf or x != math.inf):
            return x
    return None


COM = Operad(
    "Com",
    arity=lambda f: f,
    compose=lambda f, i, g: f + g - 1,
    identity=1,
    contains=lambda f: isinstance(f, int) and not isinstance(f, bool) and f >= 1,
)

COM_PLUS = Operad(
    "Com+",
    arity=lambda f: f,
    compose=lambda f, i, g: f + g - 1,
    identity=1,
    contains=lambda f: isinstance(f, int) and not isinstance(f, bool) and f >= 0,
)

# unary operations only: waiting times with composition given by addition
HALF_LINE = Operad(
    "[0,inf)",
    arity=lambda f: 1,
    compose=lambda f, i, g: f + g,
    identity=0.0,
    contains=lambda f: _length(f, allow_inf=False) is not None,
)

EXTENDED_HALF_LINE = Operad(
    "[0,inf]",
    arity=lambda f: 1,
    compose=lambda f, i, g: f + g,
    identity=0.0,
    contains=lambda f: _length(f, allow_inf=True) is not None,
)


def _planar_canon(t: PlanarTree) -> PlanarTree:
    return t.canonical("planar")[0]


PLANAR_TREES = Operad(
    "PTree",
    arity=lambda t: t.n,
    compose=lambda t, i, s: _planar_canon(t.graft(i, s)),
    identity=unit_tree(),
    contains=lambda t: isinstance(t, PlanarTree),
    act=lambda t, sigma: _planar_canon(t.permute_leaves(sigma)),
)


@record
class Collection:
    """Per-arity sets of operation labels with decidable membership."""

    name: str
    member: Callable[[Any, int], bool]


def collection_of(operad: Operad) -> Collection:
    """The underlying collection of an operad (labels with their arities)."""
    return Collection(
        operad.name,
        lambda lab, k: operad.contains(lab) and operad.arity(lab) == k)


# ---------------------------------------------------------------------------
# the free operad on a collection: vertex-labelled trees
# ---------------------------------------------------------------------------

def check_ctree(col: Collection, t: LabelledTree) -> LabelledTree:
    """Validate that every vertex label matches its arity in the collection."""
    for v in t.shape.vertices:
        if not col.member(t.label(v), t.shape.arity(v)):
            raise ArityLabelMismatch(
                f"label {t.label(v)!r} is not a {col.name} operation "
                f"of arity {t.shape.arity(v)}")
    return t


def ctree(col: Collection, shape: PlanarTree,
          labels: Mapping[int, Any]) -> LabelledTree:
    return check_ctree(col, LabelledTree.make(shape, labels))


def free_compose(col: Collection, outer: LabelledTree, i: int,
                 inner: LabelledTree) -> LabelledTree:
    """Partial composition in the free operad: grafting of labelled trees."""
    check_ctree(col, outer)
    check_ctree(col, inner)
    return outer.graft(i, inner)


def counit_eval(operad: Operad, t: LabelledTree) -> Any:
    """Evaluate a tree labelled by operations of ``operad`` to one operation.

    Contracts every internal edge at once, then corrects for the leaf
    labelling; equals contracting them one at a time, in any order.
    """
    check_ctree(collection_of(operad), t)
    if t.shape.root > 0:
        return operad.identity
    # Every vertex but the root is the source of an internal edge, and the
    # cached vertex tuple spares building the parent map.  Only the root
    # label is needed, so the contracted tree is never built.
    f = t.folded_labels(t.shape.vertices, operad.compose)[t.shape.root]
    # contraction keeps the planar leaf order
    positions = t.shape.leaf_order()
    if positions == tuple(range(1, t.n + 1)):
        return f
    return operad.act(f, invert_perm(positions))


def counit_equivalent(operad: Operad, t1: LabelledTree, t2: LabelledTree) -> bool:
    if t1.n != t2.n:
        return False
    return counit_eval(operad, t1) == counit_eval(operad, t2)


# ---------------------------------------------------------------------------
# edge-weighted trees and their normal forms
# ---------------------------------------------------------------------------

@record
class WeightedTree:
    """A planar tree with a nonnegative length on every edge.

    Lengths are keyed by the edge's source node.  Vertices of arity one
    stand for bare unary operations; the rewrite engine removes them.
    """

    shape: PlanarTree
    lengths: tuple[tuple[int, float], ...]

    @staticmethod
    def make(shape: PlanarTree, lengths: Mapping[int, float]) -> "WeightedTree":
        if set(lengths) != set(shape.nodes):
            raise MalformedLabelling("lengths must cover every edge exactly once")
        lens = {u: _length(x, allow_inf=True) for u, x in lengths.items()}
        for u, x in lens.items():
            if x is None:
                raise MalformedLabelling(
                    f"edge out of {u} has bad length {lengths[u]!r}")
        return WeightedTree(shape, tuple(sorted(lens.items())))

    @cached_property
    def length_map(self) -> dict[int, float]:
        return dict(self.lengths)

    @property
    def n(self) -> int:
        return self.shape.n

    def length(self, u: int) -> float:
        return self.length_map[u]

    def canonical(self) -> tuple["WeightedTree", str]:
        shape, key, lens = self.shape.canonical("unordered", labels=self.length_map)
        return WeightedTree.make(shape, lens), key


def _check_weighted(w: WeightedTree) -> None:
    if w.n == 0:
        raise MalformedLabelling("trees with no leaves have no normal form here")
    for v in w.shape.vertices:
        if w.shape.arity(v) == 0:
            raise MalformedLabelling(f"vertex {v} has no children")


def applicable_moves(w: WeightedTree) -> tuple[tuple[str, int], ...]:
    """Rewrite moves available on ``w``: ("unary", v) removes the arity-1
    vertex v, summing its two edge lengths; ("zero", v) contracts the
    zero-length internal edge out of v, merging v into its parent."""
    moves: list[tuple[str, int]] = []
    for v in w.shape.vertices:
        if w.shape.arity(v) == 1:
            moves.append(("unary", v))
        if w.shape.is_internal_edge(v) and w.length(v) == 0.0:
            moves.append(("zero", v))
    return tuple(moves)


def apply_move(w: WeightedTree, move: tuple[str, int]) -> WeightedTree:
    kind, v = move
    lens = dict(w.length_map)
    if kind == "unary":
        (c,) = w.shape.child_map[v]
        lens[c] = lens[c] + lens.pop(v)
        kids = {x: tuple(c if y == v else y for y in cs)
                for x, cs in w.shape.children if x != v}
        root = c if w.shape.root == v else w.shape.root
        return WeightedTree.make(PlanarTree(w.n, root, _freeze(kids)), lens)
    if kind == "zero":
        lens.pop(v)
        return WeightedTree.make(w.shape.contract_edges((v,)), lens)
    raise ValueError(f"unknown move {move!r}")


def normal_form(w: WeightedTree) -> WeightedTree:
    """The unique reduced form: no unary vertices, no zero-length internal
    edge, adjacent lengths summed.  One pass from the leaves up removes the
    unary vertices, adding each one's length to its child's, so a chain sums
    from the innermost vertex out; then the zero-length internal edges are
    contracted at once.  Returns the canonical representative."""
    _check_weighted(w)
    lens = dict(w.length_map)
    below: dict[int, int] = {}  # removed unary vertex -> node now in its place
    for v in reversed(w.shape.preorder):
        cs = w.shape.child_map.get(v, ())
        if len(cs) == 1:
            c = below.get(cs[0], cs[0])
            lens[c] = lens[c] + lens.pop(v)
            below[v] = c
    kids = {v: tuple(below.get(c, c) for c in cs)
            for v, cs in w.shape.children if v not in below}
    shape = PlanarTree(w.n, below.get(w.shape.root, w.shape.root), _freeze(kids))
    shape = shape.contract_edges(
        v for v in shape.internal_edge_sources() if lens[v] == 0.0)
    return WeightedTree.make(shape, {u: lens[u] for u in shape.nodes}).canonical()[0]


# ---------------------------------------------------------------------------
# phylogenetic trees
# ---------------------------------------------------------------------------

@record
class PhyloTree:
    """An isomorphism class of edge-weighted trees with positive internal
    lengths and every vertex at least binary.

    Stored as the canonical unordered representative, so value equality and
    hashing decide equality of the classes.  Lengths are indexed leaf 1..n
    first, then vertices -1..-k in canonical order.  Lengths may be ``inf``
    only when constructed with ``extended=True``.
    """

    shape: PlanarTree
    lengths: tuple[float, ...]

    @staticmethod
    def make(shape: PlanarTree, lengths: Mapping[int, float],
             extended: bool = False) -> "PhyloTree":
        if shape.n < 1:
            raise PhyloInvariantError("phylogenetic trees have at least one leaf")
        for v, kids in shape.children:
            if len(kids) < 2:
                raise PhyloInvariantError(
                    f"vertex {v} has arity {len(kids)}; 0- and 1-ary "
                    "vertices are not allowed")
        parent = shape.parent  # its keys are the nodes: every edge's source
        if lengths.keys() != parent.keys():
            raise PhyloInvariantError("lengths must cover every edge exactly once")
        lens: dict[int, float] = {}
        for u, x in lengths.items():
            y = _length(x, extended)
            if y is None:
                raise PhyloInvariantError(f"edge out of {u} has bad length {x!r}")
            if y == 0 and u < 0 and parent[u] < 0:
                raise PhyloInvariantError(
                    f"internal edge out of {u} has length zero")
            lens[u] = y
        canon, _, lens = shape.canonical("unordered", labels=lens)
        packed = [lens[j] for j in range(1, shape.n + 1)]
        packed.extend(lens[-j] for j in range(1, canon.num_vertices + 1))
        return PhyloTree(canon, tuple(packed))

    @property
    def n(self) -> int:
        return self.shape.n

    def length(self, u: int) -> float:
        if u > 0:
            return self.lengths[u - 1]
        return self.lengths[self.n - u - 1]

    @property
    def root_length(self) -> float:
        return self.length(self.shape.root)

    def leaf_length(self, i: int) -> float:
        if not 1 <= i <= self.n:
            raise LeafIndexOutOfRange(f"leaf {i} not in 1..{self.n}")
        return self.lengths[i - 1]

    def external_lengths(self) -> tuple[float, ...]:
        """Root edge length first, then the leaf edge lengths 1..n."""
        return (self.root_length,) + tuple(self.lengths[: self.n])

    def internal_items(self) -> tuple[tuple[int, float], ...]:
        return tuple((v, self.length(v))
                     for v in self.shape.internal_edge_sources())

    @property
    def is_extended(self) -> bool:
        return math.inf in self.lengths

    def length_map(self) -> dict[int, float]:
        n, k = self.n, self.shape.num_vertices
        return dict(zip((*range(1, n + 1), *range(-1, -k - 1, -1)), self.lengths))

    def with_lengths(self, new: Mapping[int, float]) -> "PhyloTree":
        lens = self.length_map()
        lens.update(new)
        return PhyloTree.make(self.shape, lens,
                              extended=any(x == math.inf for x in lens.values()))


def unit_phylo(length: float = 0.0) -> PhyloTree:
    """The single-edge tree on one leaf; length 0 is the operad identity."""
    return PhyloTree.make(unit_tree(), {1: length},
                          extended=length == math.inf)


def to_phylo(w: WeightedTree) -> PhyloTree:
    """Read a reduced weighted tree as a phylogenetic tree."""
    if applicable_moves(w):
        raise NotReduced("tree still admits rewrite moves; call normal_form")
    return PhyloTree.make(w.shape, w.length_map)


def from_phylo(p: PhyloTree) -> WeightedTree:
    return WeightedTree.make(p.shape, p.length_map())


def phylo_compose(outer: PhyloTree, i: int, inner: PhyloTree) -> PhyloTree:
    """Graft ``inner`` onto leaf i of ``outer``; the identified edge gets the
    sum of the two lengths, and collapses if that sum is an internal zero."""
    out, into = outer.shape.graft_renaming(i, inner.shape)
    shape = _grafted(outer.shape, inner.shape, out, into)
    lens = {out[u]: y for u, y in outer.length_map().items()}
    lens.update((into[u], y) for u, y in inner.length_map().items())
    x = out[i]
    lens[x] = inner.root_length + outer.leaf_length(i)
    if x < 0 and shape.parent[x] < 0 and lens[x] == 0.0:
        shape = shape.contract_edges((x,))
        del lens[x]
    return PhyloTree.make(shape, lens,
                          extended=outer.is_extended or inner.is_extended)


def phylo_act(p: PhyloTree, sigma: Sequence[int]) -> PhyloTree:
    """Relabel leaves by the right action of ``sigma``."""
    inv = _inverse_perm(sigma, p.n)  # the leaf map of PlanarTree.permute_leaves
    lens = {inv.get(u, u): x for u, x in p.length_map().items()}
    return PhyloTree.make(p.shape.permute_leaves(sigma), lens,
                          extended=p.is_extended)


PHYL = Operad(
    "Phyl",
    arity=lambda t: t.n,
    compose=phylo_compose,
    identity=unit_phylo(),
    contains=lambda t: isinstance(t, PhyloTree) and not t.is_extended,
    act=phylo_act,
)


# ---------------------------------------------------------------------------
# law checking
# ---------------------------------------------------------------------------

def expand_outer_perm(sigma: Sequence[int], i: int, n: int) -> tuple[int, ...]:
    """The block permutation with (f . sigma) o_i g = (f o_{sigma(i)} g) . result."""
    sigma = tuple(sigma)
    m = len(sigma)
    si = sigma[i - 1]
    out = []
    for x in range(1, m + n):
        if i <= x <= i + n - 1:
            out.append(si + x - i)
        else:
            q = x if x < i else x - n + 1
            sq = sigma[q - 1]
            out.append(sq if sq < si else sq + n - 1)
    return tuple(out)


def expand_inner_perm(tau: Sequence[int], i: int, m: int) -> tuple[int, ...]:
    """The block permutation with f o_i (g . tau) = (f o_i g) . result."""
    tau = tuple(tau)
    n = len(tau)
    out = []
    for x in range(1, m + n):
        if i <= x <= i + n - 1:
            out.append(i - 1 + tau[x - i])
        else:
            out.append(x)
    return tuple(out)


class LawReport:
    def __init__(self, law: str) -> None:
        self.law = law
        self.checked = 0
        self.failures: list = []

    @property
    def passed(self) -> bool:
        return not self.failures


def operad_law_suite(operad: Operad,
                     sample: Callable[[random.Random], Any],
                     trials: int = 100,
                     seed: int = 0) -> list[LawReport]:
    """Property-check associativity, units, and equivariance on random draws.

    ``sample`` draws a random operation of the instance.  Returns one report
    per law, with counterexamples (the offending operands) on failure.
    """
    from .sampling import random_perm  # sampling imports this module
    rng = random.Random(seed)
    reports = {name: LawReport(name) for name in
               ("associativity", "left unit", "right unit",
                "equivariance outer", "equivariance inner")}

    def draw_positive() -> Any:
        for _ in range(1000):
            f = sample(rng)
            if operad.arity(f) >= 1:
                return f
        raise RuntimeError("sampler never produced an operation of arity >= 1")

    def check(rep: LawReport, sides: Callable[[], tuple[Any, Any]],
              witness: tuple) -> None:
        # an exception while forming either side is itself a counterexample
        try:
            lhs, rhs = sides()
            ok = lhs == rhs
        except Exception as exc:  # noqa: BLE001
            rep.failures.append(witness + (repr(exc),))
            return
        if not ok:
            rep.failures.append(witness)

    for _ in range(trials):
        f, g, h = draw_positive(), draw_positive(), draw_positive()
        m, n = operad.arity(f), operad.arity(g)
        i = rng.randint(1, m)
        j = rng.randint(1, n)
        sigma = random_perm(rng, m)
        tau = random_perm(rng, n)

        rep = reports["associativity"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(operad.compose(f, i, g), i - 1 + j, h),
                       operad.compose(f, i, operad.compose(g, j, h))),
              ("nested", f, i, g, j, h))
        if m >= 2:
            i2 = rng.randint(1, m - 1)
            j2 = rng.randint(i2 + 1, m)
            check(rep,
                  lambda: (operad.compose(operad.compose(f, i2, g), j2 + n - 1, h),
                           operad.compose(operad.compose(f, j2, h), i2, g)),
                  ("disjoint", f, i2, j2, g, h))

        rep = reports["left unit"]
        rep.checked += 1
        check(rep, lambda: (operad.compose(operad.identity, 1, f), f), (f,))

        rep = reports["right unit"]
        rep.checked += 1
        check(rep, lambda: (operad.compose(f, i, operad.identity), f), (f, i))

        rep = reports["equivariance outer"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(operad.act(f, sigma), i, g),
                       operad.act(operad.compose(f, sigma[i - 1], g),
                                  expand_outer_perm(sigma, i, n))),
              (f, sigma, i, g))

        rep = reports["equivariance inner"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(f, i, operad.act(g, tau)),
                       operad.act(operad.compose(f, i, g),
                                  expand_inner_perm(tau, i, m))),
              (f, i, g, tau))

    return list(reports.values())
