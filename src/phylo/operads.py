"""Operads of trees: free composition, evaluation, and normal forms.

The central objects are edge-weighted trees.  Grafting two of them and
summing lengths along the identified edge, then merging vertices joined
by zero-length internal edges, yields an operad whose operations are
exactly the valid phylogenetic trees (positive internal lengths, no
vertices with fewer than two children).  This module provides:

* a small generic ``Operad`` interface with the built-in instances used
  throughout (one operation per arity; the additive monoids of finite
  and of extended nonnegative lengths; planar trees; phylogenetic trees),
* the free operad on an operad's operations, realized as vertex-labelled
  trees, with the counit that evaluates such a tree down to a single
  operation,
* ``normal_form``, which takes any mixed vertex/edge-labelled tree to its
  unique reduced form in one pass,
* the bijection between normal forms and ``PhyloTree`` values,
* ``_length``, the one rule for what a length is, which every reader of a
  length, time, rate or radius in the library calls.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .trees import (
    LabelledTree,
    LeafIndexOutOfRange,
    PhyloError,
    PlanarTree,
    UnknownVertex,
    _derived,
    _freeze,
    _grafted,
    _inverse_perm,
    _set,
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


class PhyloInvariantError(OperadError):
    pass


class NotReduced(PhyloInvariantError):
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
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= self.arity(f):
            raise LeafIndexOutOfRange(
                f"slot {i!r} not in 1..{self.arity(f)} for {self.name}")
        return self._compose(f, i, g)

    def act(self, f: Any, sigma: Sequence[int]) -> Any:
        inv = invert_perm(sigma)  # reads sigma once: it may be an iterator
        if len(inv) != self.arity(f):
            raise ArityLabelMismatch(
                f"permutation of size {len(inv)} on an operation of arity {self.arity(f)}")
        if self._act is None:
            return f
        return self._act(f, invert_perm(inv))


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


# ---------------------------------------------------------------------------
# the free operad on an operad's operations: vertex-labelled trees
# ---------------------------------------------------------------------------

def check_ctree(operad: Operad, t: LabelledTree) -> LabelledTree:
    """Validate that every vertex label is an operation of ``operad`` of the
    vertex's arity."""
    for v in t.shape.vertices:
        lab, k = t.label(v), t.shape.arity(v)
        if not (operad.contains(lab) and operad.arity(lab) == k):
            raise ArityLabelMismatch(
                f"label {lab!r} is not a {operad.name} operation of arity {k}")
    return t


def ctree(operad: Operad, shape: PlanarTree,
          labels: Mapping[int, Any]) -> LabelledTree:
    return check_ctree(operad, LabelledTree.make(shape, labels))


def free_compose(operad: Operad, outer: LabelledTree, i: int,
                 inner: LabelledTree) -> LabelledTree:
    """Partial composition in the free operad: grafting of labelled trees."""
    check_ctree(operad, outer)
    check_ctree(operad, inner)
    return outer.graft(i, inner)


def counit_eval(operad: Operad, t: LabelledTree) -> Any:
    """Evaluate a tree labelled by operations of ``operad`` to one operation.

    Contracts every internal edge at once, then corrects for the leaf
    labelling; equals contracting them one at a time, in any order.
    """
    check_ctree(operad, t)
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

    def canonical(self) -> tuple["WeightedTree", str]:
        # renumbering the nodes keeps the lengths valid
        shape, key, lens = self.shape.canonical("unordered", labels=self.length_map)
        return WeightedTree(shape, tuple(sorted(lens.items()))), key


def _check_weighted(w: WeightedTree) -> None:
    if w.n == 0:
        raise MalformedLabelling("trees with no leaves have no normal form here")
    for v in w.shape.vertices:
        if w.shape.arity(v) == 0:
            raise MalformedLabelling(f"vertex {v} has no children")


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
    shape = _derived(w.n, below.get(w.shape.root, w.shape.root), _freeze(kids))
    shape = shape.contract_edges(
        v for v in shape.internal_edge_sources() if lens[v] == 0.0)
    # the lengths are w's or sums of them, so they need no second check
    kept = tuple([(u, lens[u]) for u in sorted(shape.nodes)])
    return WeightedTree(shape, kept).canonical()[0]


# ---------------------------------------------------------------------------
# phylogenetic trees
# ---------------------------------------------------------------------------

@record
class PhyloTree:
    """An isomorphism class of edge-weighted trees with positive internal
    lengths and every vertex at least binary.

    ``make`` validates a representative and stores it as built, in
    ``_rep`` and ``_rep_lengths`` (node -> length).  Composition, the leaf
    action, ``n``, ``is_extended``, the root, leaf and external lengths and
    ``with_external`` read it, since they do not depend on vertex ids.  The fields ``shape``
    and ``lengths`` are the canonical unordered representative, computed
    on first read and kept (it becomes the stored one too), so value
    equality, hashing and the repr decide and show the class.  Lengths are
    indexed leaf 1..n first, then vertices -1..-k in canonical order.
    Lengths may be ``inf`` only when constructed with ``extended=True``.
    """

    shape: PlanarTree
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        # built from canonical fields, which also serve as the representative
        _set(self, "_rep", self.shape)
        _set(self, "_rep_lengths", self.length_map())

    def __getattr__(self, name: str) -> Any:
        # reached only for an unset attribute: the canonical fields of a
        # tree ``make`` built, on their first read.  The canonical
        # representative then replaces the one built, which is let go.
        if name not in ("shape", "lengths"):
            raise AttributeError(name)
        canon, _, lens = self._rep.canonical("unordered", labels=self._rep_lengths)
        packed = [lens[j] for j in range(1, canon.n + 1)]
        packed.extend(lens[-j] for j in range(1, canon.num_vertices + 1))
        _set(self, "shape", canon)
        _set(self, "lengths", tuple(packed))
        _set(self, "_rep", canon)
        _set(self, "_rep_lengths", lens)
        return self.__dict__[name]

    @staticmethod
    def make(shape: PlanarTree, lengths: Mapping[int, float],
             extended: bool = False) -> "PhyloTree":
        if shape.n < 1:
            raise PhyloInvariantError("phylogenetic trees have at least one leaf")
        for v, kids in shape.children:
            if len(kids) < 2:
                raise NotReduced(
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
                raise NotReduced(
                    f"internal edge out of {u} has length zero")
            lens[u] = y
        t = object.__new__(PhyloTree)
        _set(t, "_rep", shape)
        _set(t, "_rep_lengths", lens)
        return t

    @property
    def n(self) -> int:
        return self._rep.n

    def length(self, u: int) -> float:
        """The length of the edge out of node ``u`` of ``shape``."""
        self.shape  # once read, the stored tree is the canonical one
        try:
            return self._rep_lengths[u]
        except (KeyError, TypeError):  # TypeError: an unhashable u
            raise UnknownVertex(f"{u!r} is not a node of this tree") from None

    @property
    def root_length(self) -> float:
        return self._rep_lengths[self._rep.root]

    def leaf_length(self, i: int) -> float:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= self.n:
            raise LeafIndexOutOfRange(f"leaf {i!r} not in 1..{self.n}")
        return self._rep_lengths[i]

    def external_lengths(self) -> tuple[float, ...]:
        """The lengths of ``PlanarTree.external_edges``: the root edge
        first, then the leaf edges 1..n not already listed."""
        lens = self._rep_lengths
        return tuple([lens[u] for u in self._rep.external_edges])

    @property
    def is_extended(self) -> bool:
        return math.inf in self._rep_lengths.values()

    def length_map(self) -> dict[int, float]:
        n, k = self.n, self.shape.num_vertices
        return dict(zip((*range(1, n + 1), *range(-1, -k - 1, -1)), self.lengths))

    def with_external(self, values: Sequence[float]) -> "PhyloTree":
        """This tree with ``values``, in ``external_lengths()`` order, as its
        external lengths; internal lengths stay."""
        edges = self._rep.external_edges
        if len(values) != len(edges):
            raise PhyloInvariantError(
                f"{len(values)} values for {len(edges)} external edges")
        lens = dict(self._rep_lengths)
        lens.update(zip(edges, values))
        return PhyloTree.make(self._rep, lens, extended=math.inf in lens.values())


def unit_phylo(length: float = 0.0) -> PhyloTree:
    """The single-edge tree on one leaf; length 0 is the operad identity."""
    return PhyloTree.make(unit_tree(), {1: length},
                          extended=length == math.inf)


def to_phylo(w: WeightedTree) -> PhyloTree:
    """Read a reduced weighted tree as a phylogenetic tree; ``make`` raises
    NotReduced for a unary vertex or a zero-length internal edge."""
    return PhyloTree.make(w.shape, w.length_map)


def from_phylo(p: PhyloTree) -> WeightedTree:
    return WeightedTree.make(p.shape, p.length_map())


def phylo_compose(outer: PhyloTree, i: int, inner: PhyloTree) -> PhyloTree:
    """Graft ``inner`` onto leaf i of ``outer``; the identified edge gets the
    sum of the two lengths, and collapses if that sum is an internal zero."""
    out, into = outer._rep.graft_renaming(i, inner._rep)
    shape = _grafted(outer._rep, inner._rep, out, into)
    lens = {out[u]: y for u, y in outer._rep_lengths.items()}
    lens.update((into[u], y) for u, y in inner._rep_lengths.items())
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
    lens = {inv.get(u, u): x for u, x in p._rep_lengths.items()}
    # sigma is read once, so it may be an iterator: inv's keys run in its order
    return PhyloTree.make(p._rep.permute_leaves(tuple(inv)), lens,
                          extended=p.is_extended)


PHYL = Operad(
    "Phyl",
    arity=lambda t: t.n,
    compose=phylo_compose,
    identity=unit_phylo(),
    contains=lambda t: isinstance(t, PhyloTree) and not t.is_extended,
    act=phylo_act,
)
