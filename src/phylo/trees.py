"""Rooted trees with numbered leaves, directed toward the root.

A tree with n leaves is a finite set of edges, each pointing from its
source (a vertex or a leaf label 1..n) to its target (a vertex or the
root marker 0).  The source map is a bijection onto vertices-plus-leaves,
so every node has exactly one outgoing edge and we identify each edge
with its source node.  Nodes are plain ints: leaves are 1..n, internal
vertices are negative ids, 0 is the root marker and never stored as a
node.

A planar tree additionally orders the children of every vertex.  The
same concrete class carries both readings: compare the planar keys,
``canonical("planar")[1]``, for planar isomorphism, the unordered keys,
``canonical()[1]``, for plain isomorphism of rooted trees.

Tree walks go through one iterative depth-first order,
``PlanarTree.preorder``, so no tree is too deep for the interpreter's
stack.  ``PlanarTree.canonical`` is the one canonical encoder; edge
lengths and vertex labels enter it as a node-label mapping and come back
keyed by the representative's nodes.
``PlanarTree.graft_renaming`` is where each node goes in a graft.
``PlanarTree.contract_edges`` is the one contraction, of any set of
internal edges, one edge included; ``LabelledTree.contract_edges`` adds
``LabelledTree.folded_labels``, the one label fold of a contraction.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Sequence


class PhyloError(ValueError):
    """Base class of every error the package raises on bad input; the
    ``phylo`` command exits 1 on it."""


class TreeError(PhyloError):
    """Base class for tree construction and manipulation errors."""


class EmptyEdgeSet(TreeError):
    pass


class SourceNotBijective(TreeError):
    pass


class NoRootEdge(TreeError):
    pass


class MultipleRootEdges(TreeError):
    pass


class UnreachableRoot(TreeError):
    pass


class UnknownVertex(TreeError):
    pass


class LeafIndexOutOfRange(TreeError):
    pass


class PermutationSizeMismatch(TreeError):
    pass


class NotInternalEdge(TreeError):
    pass


_set = object.__setattr__


def record(cls: type) -> type:
    """Make ``cls`` a frozen value class over its annotated fields.

    Instances take the fields positionally or by keyword, with the class
    attributes of those names as defaults, and then run ``__post_init__``
    when the class has one.  Equality and hashing go by the tuple of
    fields between instances of the same class; the repr is
    ``Name(field=value!r, ...)``; assigning or deleting an attribute
    raises ``AttributeError``.  ``cached_property`` still works, since it
    writes the instance ``__dict__`` directly.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(names):
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        # object.__setattr__ keeps the values inline; touching self.__dict__
        # here would build a dict and slow every later attribute read
        for k, v in zip(names, args):
            _set(self, k, v)
        if post is not None:
            post(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(fields(self))

    def __repr__(self) -> str:
        inner = ", ".join([f"{k}={v!r}" for k, v in zip(names, fields(self))])
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls


def _bind(name: str, names: tuple[str, ...], defaults: Mapping[str, Any],
          args: tuple[Any, ...], kwargs: Mapping[str, Any]) -> list[Any]:
    """The field values of a call that passed keywords or left defaults."""
    if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
        raise TypeError(f"{name}() takes the fields {names}, got {len(args)} "
                        f"positional arguments and the keywords {sorted(kwargs)}")
    values = {**defaults, **dict(zip(names, args)), **kwargs}
    missing = [k for k in names if k not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments {missing}")
    return [values[k] for k in names]


@record
class PlanarTree:
    """A rooted tree with ordered children, leaves 1..n and vertex ids < 0.

    ``root`` is the source node of the root edge.  ``children`` lists, for
    each vertex, the ordered tuple of its child nodes (children of a vertex
    are the sources of the edges targeting it).
    """

    n: int
    root: int
    children: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        vertex_ids = set()
        for v, kids in self.children:
            if not isinstance(v, int) or v >= 0:
                raise TreeError(f"vertex id {v!r} must be a negative int")
            if v in vertex_ids:
                raise TreeError(f"duplicate vertex id {v}")
            vertex_ids.add(v)
            for c in kids:
                if c in seen:
                    raise SourceNotBijective(f"node {c} has two outgoing edges")
                seen.add(c)
        if self.root in seen:
            raise MultipleRootEdges("root edge source also appears as a child")
        seen.add(self.root)
        leaves = {u for u in seen if u > 0}
        if leaves != set(range(1, self.n + 1)):
            raise SourceNotBijective(
                f"leaf labels {sorted(leaves)} do not cover 1..{self.n}")
        if {u for u in seen if u < 0} != vertex_ids:
            raise UnreachableRoot("some vertex is not connected to the root")
        # every node has at most one parent here, so the walk terminates
        if len(self.preorder) != self.n + len(vertex_ids):
            raise UnreachableRoot("some node cannot reach the root")
        # one tree, one value: the pairs in any order are stored sorted by
        # vertex id, as _freeze leaves them
        _set(self, "children", tuple(sorted(self.children)))

    # -- basic accessors -------------------------------------------------

    @cached_property
    def child_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.children)

    @cached_property
    def parent(self) -> dict[int, int]:
        """Target of each node's outgoing edge; the root maps to 0."""
        par = {self.root: 0}
        for v, kids in self.children:
            for c in kids:
                par[c] = v
        return par

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        """Every node, parents before children and children left to right.
        Read in reverse, every node comes after all of its descendants."""
        return _preorder(self.root, self.child_map)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.children)

    @property
    def num_vertices(self) -> int:
        return len(self.children)

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        """All edge sources: every leaf and every vertex."""
        return tuple(range(1, self.n + 1)) + self.vertices

    def arity(self, v: int) -> int:
        if v not in self.child_map:
            raise UnknownVertex(f"no vertex {v}")
        return len(self.child_map[v])

    def is_internal_edge(self, u: int) -> bool:
        """The edge out of node ``u`` is internal when both ends are vertices."""
        return u < 0 and self.parent[u] < 0

    def internal_edge_sources(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.parent[v] < 0)

    @cached_property
    def external_edges(self) -> tuple[int, ...]:
        """The root edge, then each leaf edge not already listed: one edge
        on the unit tree, n + 1 on a tree with a root vertex."""
        return (self.root, *[j for j in range(1, self.n + 1) if j != self.root])

    def leaf_order(self) -> tuple[int, ...]:
        """Leaf labels in planar (left to right, depth first) order."""
        return tuple(u for u in self.preorder if u > 0)

    # -- operations ------------------------------------------------------

    def graft_renaming(self, i: int, inner: "PlanarTree",
                       ) -> tuple[dict[int, int], dict[int, int]]:
        """The node of ``self.graft(i, inner)`` that each node becomes, as
        one map for this tree's nodes and one for ``inner``'s.

        Leaves of this tree strictly below i keep their labels, leaves of
        ``inner`` shift up by i - 1, remaining leaves of this tree shift up
        by inner.n - 1.  This tree's vertices keep their ids and inner's
        move below them.  Leaf i becomes inner's root, whose edge it is.
        """
        m, n = self.n, inner.n
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= m:
            raise LeafIndexOutOfRange(f"leaf index {i!r} not in 1..{m}")
        shift = min(self.vertices, default=0)
        into = {u: u + i - 1 for u in range(1, n + 1)}
        into.update((v, v + shift) for v in inner.vertices)
        out = {u: u if u < i else u + n - 1 for u in range(1, m + 1)}
        out.update((v, v) for v in self.vertices)
        out[i] = into[inner.root]
        return out, into

    def graft(self, i: int, inner: "PlanarTree") -> "PlanarTree":
        """Identify ``inner``'s root edge with this tree's i-th leaf edge,
        renaming nodes by ``graft_renaming``.  The identified edge takes
        inner's position in the child order at the attachment vertex."""
        return _grafted(self, inner, *self.graft_renaming(i, inner))

    def permute_leaves(self, sigma: Sequence[int]) -> "PlanarTree":
        """Right action: the leaf labelled k is relabelled sigma^-1(k)."""
        inv = _inverse_perm(sigma, self.n)
        kids = {v: tuple([inv.get(c, c) for c in cs]) for v, cs in self.children}
        return _derived(self.n, inv.get(self.root, self.root), _freeze(kids))

    def permute_children(self, v: int, sigma: Sequence[int]) -> "PlanarTree":
        """Reorder the children of ``v`` so position p holds child sigma^-1(p)."""
        k = self.arity(v)
        inv = _inverse_perm(sigma, k)
        kids = dict(self.children)
        old = kids[v]
        kids[v] = tuple(old[inv[p] - 1] for p in range(1, k + 1))
        return PlanarTree(self.n, self.root, _freeze(kids))

    def contract_edges(self, sources: Iterable[int]) -> "PlanarTree":
        """Contract the internal edges out of ``sources``, merging endpoints.

        One preorder pass hangs each kept node from its nearest kept
        ancestor, so a contracted vertex's children take its place in its
        parent's child order.  The merged vertex keeps the topmost id.
        """
        gone = set(sources)
        for u in gone:
            if u >= 0 or u not in self.parent:
                raise NotInternalEdge(f"{u} is not a vertex of this tree")
            if not self.is_internal_edge(u):
                raise NotInternalEdge(f"edge out of {u} is not internal")

        top = {self.root: self.root}  # nearest kept node at or above
        kids: dict[int, list[int]] = {v: [] for v in self.vertices if v not in gone}
        for u in self.preorder[1:]:
            top[u] = top[self.parent[u]] if u in gone else u
            if u not in gone:
                kids[top[self.parent[u]]].append(u)
        return _derived(self.n, self.root, _freeze(kids))

    def insert_vertex(self, u: int) -> "PlanarTree":
        """Subdivide the edge out of ``u`` with a fresh unary vertex."""
        w = min(self.vertices, default=0) - 1
        kids = {v: tuple(w if c == u else c for c in cs)
                for v, cs in self.children}
        kids[w] = (u,)
        root = w if self.root == u else self.root
        return PlanarTree(self.n, root, _freeze(kids))

    # -- canonical forms ---------------------------------------------------

    def canonical(self, mode: str = "unordered",
                  labels: Mapping[int, Any] | None = None,
                  ) -> tuple["PlanarTree", str, dict[int, Any]]:
        """Canonical representative, its key string, and ``labels`` keyed
        by the representative's nodes.

        Two trees are in one isomorphism class of planar trees
        (mode="planar") or of plain rooted trees (mode="unordered") exactly
        when their canonical keys agree.  A leaf's key is "L" and its
        number, a vertex's key its children's keys in parentheses, each
        prefixed by ``repr(labels[u]) + ":"`` for the nodes in ``labels``.
        Unordered mode sorts children by key text, stably.  Vertices are
        renumbered -1, -2, ... in depth-first order.
        """
        if mode not in ("unordered", "planar"):
            raise ValueError(f"unknown mode {mode!r}")
        if labels is None:
            labels = {}
        keys: dict[int, str] = {}
        order: dict[int, Sequence[int]] = {}
        child_map = self.child_map
        unordered = mode == "unordered"
        for u in reversed(self.preorder):
            if u > 0:
                key = f"L{u}"
            else:
                kids = child_map[u]
                if unordered:
                    kids = sorted(kids, key=keys.__getitem__)
                order[u] = kids
                key = f"({','.join([keys.pop(c) for c in kids])})"
            keys[u] = f"{labels[u]!r}:{key}" if u in labels else key
        # the preorder in the new child order numbers the vertices -1, -2, ...,
        # so ascending ids are the vertices in reverse preorder
        verts = [u for u in _preorder(self.root, order) if u < 0]
        rename = dict(zip(verts, range(-1, -len(verts) - 1, -1)))
        get = rename.get
        children = tuple([(rename[v], tuple([get(c, c) for c in order[v]]))
                          for v in reversed(rename)])
        root = get(self.root, self.root)
        new_labels = {get(u, u): lab for u, lab in labels.items()}
        return _derived(self.n, root, children), keys[self.root], new_labels


def _preorder(root: int, kids: Mapping[int, Sequence[int]]) -> tuple[int, ...]:
    out: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        out.append(u)
        if u < 0:
            stack.extend(kids[u][::-1])
    return tuple(out)


def _grafted(outer: PlanarTree, inner: PlanarTree, out: Mapping[int, int],
             into: Mapping[int, int]) -> PlanarTree:
    """The shape of a graft, its nodes renamed by ``graft_renaming``'s maps."""
    kids = {into[v]: tuple([into[c] for c in cs]) for v, cs in inner.children}
    kids.update((v, tuple([out[c] for c in cs])) for v, cs in outer.children)
    return _derived(outer.n + inner.n - 1, out[outer.root], _freeze(kids))


def _derived(n: int, root: int,
             children: tuple[tuple[int, tuple[int, ...]], ...]) -> PlanarTree:
    """A PlanarTree built without ``__post_init__``'s checks, for a tree the
    library derived from a valid tree by an operation that keeps it valid,
    with ``children`` sorted by vertex id as ``_freeze`` leaves them.  Input
    from outside the library goes through ``PlanarTree(...)``, which checks
    it."""
    t = object.__new__(PlanarTree)
    _set(t, "n", n)
    _set(t, "root", root)
    _set(t, "children", children)
    return t


def _freeze(kids: Mapping[int, Sequence[int]]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple(sorted((v, tuple(cs)) for v, cs in kids.items()))


def _inverse_perm(sigma: Sequence[int], n: int | None = None) -> dict[int, int]:
    """The one permutation reader: k -> its position in ``sigma``, which
    must be ints, not bools, permuting 1..n (n its length by default), or
    PermutationSizeMismatch."""
    try:
        sig = tuple(sigma)
    except TypeError:  # not iterable
        raise PermutationSizeMismatch(f"{sigma!r} is not a permutation") from None
    n = len(sig) if n is None else n
    if (any(isinstance(x, bool) or not isinstance(x, int) for x in sig)
            or sorted(sig) != list(range(1, n + 1))):
        raise PermutationSizeMismatch(
            f"{sig} is not a permutation of 1..{n}")
    return {sig[j]: j + 1 for j in range(n)}


def invert_perm(sigma: Sequence[int]) -> tuple[int, ...]:
    inv = _inverse_perm(sigma)
    return tuple(inv[k] for k in range(1, len(inv) + 1))


def make_tree(n: int, root: int, children: Mapping[Any, Sequence[Any]]) -> PlanarTree:
    """Build a tree from any hashable vertex ids; leaves are ints 1..n.

    Vertex ids are renamed to fresh negative ints (insertion order), so the
    input may use strings or nonnegative ints for vertices.  Vertices
    appearing only as children (termini) get an empty child list.
    """
    fresh: dict[Any, int] = {}

    def node_id(u: Any) -> int:
        if isinstance(u, int) and 0 < u <= n:
            return u
        if u not in fresh:
            fresh[u] = -(len(fresh) + 1)
        return fresh[u]

    kids = {}
    for v in children:
        vid = node_id(v)
        if vid > 0:
            raise TreeError(f"leaf {v} cannot have children")
        kids[vid] = tuple(node_id(c) for c in children[v])
    for vid in fresh.values():
        kids.setdefault(vid, ())
    return PlanarTree(n, node_id(root), _freeze(kids))


def validate(n: int,
             vertices: Iterable[Any],
             edges: Iterable[Any],
             source: Mapping[Any, Any],
             target: Mapping[Any, Any],
             child_order: Mapping[Any, Sequence[Any]] | None = None,
             ) -> PlanarTree:
    """Check a raw (vertices, edges, source, target) description.

    Raises the specific violation: EmptyEdgeSet, SourceNotBijective,
    NoRootEdge / MultipleRootEdges, or UnreachableRoot.  ``child_order``
    optionally fixes a planar structure per vertex, as a list of edge ids;
    without it children are ordered by their string form, which is the
    right reading for a plain rooted tree (compare unordered forms).
    """
    vset = set(vertices)
    eset = set(edges)
    if not eset:
        raise EmptyEdgeSet("a tree has at least its root edge")
    amb = {v for v in vset if isinstance(v, int) and 0 <= v <= n}
    if amb:
        raise TreeError(f"vertex ids {sorted(amb)} collide with leaf labels")

    domain = {("v", v) for v in vset} | {("l", j) for j in range(1, n + 1)}
    sources_seen = set()
    for e in eset:
        if e not in source:
            raise SourceNotBijective(f"edge {e!r} has no source")
        s = source[e]
        tag = ("v", s) if s in vset else ("l", s)
        if tag not in domain:
            raise SourceNotBijective(f"edge {e!r} has source {s!r} outside the tree")
        if tag in sources_seen:
            raise SourceNotBijective(f"two edges share the source {s!r}")
        sources_seen.add(tag)
    if sources_seen != domain:
        missing = domain - sources_seen
        raise SourceNotBijective(f"nodes {sorted(map(str, missing))} have no outgoing edge")

    root_edges = [e for e in eset if target.get(e) == 0]
    if not root_edges:
        raise NoRootEdge("no edge targets the root 0")
    if len(root_edges) > 1:
        raise MultipleRootEdges(f"{len(root_edges)} edges target the root 0")
    for e in eset:
        t = target.get(e)
        if t != 0 and t not in vset:
            raise TreeError(f"edge {e!r} has target {t!r} outside the tree")

    by_target: dict[Any, list[Any]] = {v: [] for v in vset}
    for e in eset:
        if target[e] != 0:
            by_target[target[e]].append(e)
    if child_order is not None:
        for v in vset:
            given = list(child_order.get(v, ()))
            if sorted(map(str, given)) != sorted(map(str, by_target[v])):
                raise TreeError(
                    f"child order of {v!r} does not list exactly its children")
            by_target[v] = given
    else:
        for v in vset:
            by_target[v].sort(key=str)

    kids = {v: [source[e] for e in by_target[v]] for v in vset}
    return make_tree(n, source[root_edges[0]], kids)


def corolla(n: int) -> PlanarTree:
    """The unique shape with one vertex and n leaf edges."""
    return PlanarTree(n, -1, ((-1, tuple(range(1, n + 1))),))


def unit_tree() -> PlanarTree:
    """The 1-leaf tree with no vertices at all."""
    return PlanarTree(1, 1, ())


@record
class LabelledTree:
    """A planar tree whose vertices carry labels (stored as sorted pairs)."""

    shape: PlanarTree
    vlabels: tuple[tuple[int, Any], ...]

    @staticmethod
    def make(shape: PlanarTree, labels: Mapping[int, Any]) -> "LabelledTree":
        if set(labels) != set(shape.vertices):
            raise TreeError("labels must cover exactly the vertices")
        return LabelledTree(shape, tuple(sorted(labels.items())))

    @cached_property
    def label_map(self) -> dict[int, Any]:
        return dict(self.vlabels)

    @property
    def n(self) -> int:
        return self.shape.n

    def label(self, v: int) -> Any:
        return self.label_map[v]

    def graft(self, i: int, inner: "LabelledTree") -> "LabelledTree":
        out, into = self.shape.graft_renaming(i, inner.shape)
        labels = {out[v]: lab for v, lab in self.vlabels}
        labels.update((into[v], lab) for v, lab in inner.vlabels)
        return LabelledTree.make(_grafted(self.shape, inner.shape, out, into),
                                 labels)

    def permute_leaves(self, sigma: Sequence[int]) -> "LabelledTree":
        return LabelledTree(self.shape.permute_leaves(sigma), self.vlabels)

    def permute_children(self, v: int, sigma: Sequence[int]) -> "LabelledTree":
        return LabelledTree(self.shape.permute_children(v, sigma), self.vlabels)

    def relabel(self, v: int, new_label: Any) -> "LabelledTree":
        labels = dict(self.vlabels)
        labels[v] = new_label
        return LabelledTree.make(self.shape, labels)

    def insert_vertex(self, u: int, label: Any) -> "LabelledTree":
        shape = self.shape.insert_vertex(u)
        labels = dict(self.vlabels)
        labels[shape.parent[u]] = label
        return LabelledTree.make(shape, labels)

    def folded_labels(self, gone: Iterable[int],
                      compose: Callable[[Any, int, Any], Any]) -> dict[int, Any]:
        """The vertex labels after contracting the internal edges out of
        ``gone``, folded in one pass from the leaves up; a kept vertex keeps
        its id, and a root vertex in ``gone`` has no parent to fold into, so
        it stays.  A vertex composes its contracted children from the right,
        so slot indices stay valid: f over contracted g, h becomes
        (f o_2 h) o_1 g, and nested merges read as f o_i (g o_j h).  Any
        order gives the same result when ``compose`` is operadic
        composition."""
        gone = set(gone)
        labels = dict(self.vlabels)
        child_map = self.shape.child_map
        for v in reversed(self.shape.preorder):
            kids = child_map.get(v, ())
            for pos in range(len(kids), 0, -1):
                if kids[pos - 1] in gone:
                    labels[v] = compose(labels[v], pos, labels.pop(kids[pos - 1]))
        return labels

    def contract_edges(self, sources: Iterable[int],
                       compose: Callable[[Any, int, Any], Any]) -> "LabelledTree":
        """Contract several internal edges in one pass, labelling each merged
        vertex by ``folded_labels``."""
        gone = set(sources)
        shape = self.shape.contract_edges(gone)
        return LabelledTree.make(shape, self.folded_labels(gone, compose))

    def canonical(self, mode: str = "unordered") -> tuple["LabelledTree", str]:
        """Canonical representative and key; labels are compared by repr."""
        shape, key, labels = self.shape.canonical(mode, labels=self.label_map)
        return LabelledTree.make(shape, labels), key
