"""Tree space: the orthant complex of metric trees and its geodesic metric.

A metric tree is a phylogenetic tree whose external edges (root and leaf
edges) all have length zero; what remains is the vector of positive
internal lengths.  Fixing a binary topology gives a Euclidean orthant with
one coordinate per internal edge, orthants glue along the faces where
lengths vanish, and the whole space is a cone over a graph whose vertices
are the single-internal-edge topologies.  For n <= 4 the orthants are at
most two-dimensional and geodesics can be computed exactly by unrolling
quadrant sequences, equivalently by the cone law of cosines over that
link graph.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .operads import PhyloTree
from .trees import PhyloError, PlanarTree, _freeze, record, unit_tree


class TreeSpaceError(PhyloError):
    pass


class WrongArity(TreeSpaceError):
    pass


class ArityMismatch(TreeSpaceError):
    pass


class ArityTooLarge(TreeSpaceError):
    pass


class ExactUnsupported(TreeSpaceError):
    pass


QUARTER_TURN = math.pi / 2  # link length of one orthant crossing


# ---------------------------------------------------------------------------
# clusters: internal edges named by the leaf set above them
# ---------------------------------------------------------------------------

def cluster_lengths(t: PhyloTree) -> dict[frozenset[int], float]:
    """Internal edges of ``t`` as {leaf cluster: length}."""
    return {t.shape.leaves_below(v): t.length(v)
            for v in t.shape.internal_edge_sources()}


def shape_clusters(shape: PlanarTree) -> frozenset[frozenset[int]]:
    return frozenset(shape.leaves_below(v)
                     for v in shape.internal_edge_sources())


def compatible(a: frozenset[int], b: frozenset[int]) -> bool:
    return a.isdisjoint(b) or a <= b or b <= a


def _nesting(clusters: list[frozenset[int]], top=None) -> dict | None:
    """The cluster each leaf and each cluster sits directly inside (``top``
    if none), in one pass over ``clusters`` listed largest first; None
    when two clusters overlap without nesting."""
    up: dict = {}
    for c in clusters:
        homes = {up.get(x, top) for x in c}
        if len(homes) > 1:
            return None
        up[c] = homes.pop() if homes else top
        up.update(dict.fromkeys(c, c))
    return up


def is_laminar(clusters: Iterable[frozenset[int]]) -> bool:
    return _nesting(sorted(clusters, key=len, reverse=True)) is not None


def tree_from_clusters(n: int, clusters: Iterable[frozenset[int]]) -> PlanarTree:
    """The shape with the given internal-edge clusters (a laminar family of
    subsets of 1..n with 2 <= size <= n-1)."""
    keys = {c: tuple(sorted(c)) for c in clusters}
    cl = sorted(keys, key=lambda c: (-len(c), keys[c]))
    full = frozenset(range(1, n + 1))
    for c in cl:
        if not 2 <= len(c) <= n - 1 or not c <= full:
            raise TreeSpaceError(f"{sorted(c)} cannot be an internal edge cluster")
    up = _nesting(cl, full)
    if up is None:
        raise TreeSpaceError("clusters are not pairwise compatible")
    ids = {full: -1}
    for c in cl:
        ids[c] = -(len(ids) + 1)
    kids: dict[int, list] = {v: [] for v in ids.values()}
    for c in cl:
        kids[ids[up[c]]].append((keys[c], ids[c]))
    for leaf in range(1, n + 1):
        kids[ids[up.get(leaf, full)]].append(((leaf,), leaf))
    return PlanarTree(n, -1, _freeze({v: [u for _, u in sorted(ks)]
                                      for v, ks in kids.items()}))


def axis_order(clusters: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Deterministic coordinate order: lexicographically smallest leaf set first."""
    return tuple(sorted(set(clusters), key=lambda c: tuple(sorted(c))))


# ---------------------------------------------------------------------------
# the two factors of a phylogenetic tree
# ---------------------------------------------------------------------------

@record
class ExternalLengths:
    """Root edge length at index 0, leaf edge lengths at 1..n."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(x < 0 or math.isnan(x) or math.isinf(x) for x in self.values):
            raise TreeSpaceError("external lengths must be finite and >= 0")

    @property
    def n(self) -> int:
        return len(self.values) - 1


@record
class MetricTree:
    """A phylogenetic tree with all external lengths exactly zero."""

    tree: PhyloTree

    def __post_init__(self) -> None:
        if any(x != 0.0 for x in self.tree.external_lengths()):
            raise TreeSpaceError("external edges of a metric tree have length 0")
        if self.tree.is_extended:
            raise TreeSpaceError("metric trees have finite lengths")

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def clusters(self) -> dict[frozenset[int], float]:
        return cluster_lengths(self.tree)

    @cached_property
    def norm(self) -> float:
        return math.sqrt(sum(x * x for x in self.clusters.values()))

    def is_binary(self) -> bool:
        return all(self.tree.shape.arity(v) == 2 for v in self.tree.shape.vertices)


def unit_metric_tree() -> MetricTree:
    return MetricTree(PhyloTree.make(unit_tree(), {1: 0.0}))


def metric_tree(n: int, lengths: Mapping[frozenset[int], float]) -> MetricTree:
    """Metric tree from {cluster: positive length}."""
    shape = tree_from_clusters(n, lengths)
    lens = {u: 0.0 for u in shape.nodes}
    by_cluster = {shape.leaves_below(v): v for v in shape.internal_edge_sources()}
    for c, x in lengths.items():
        lens[by_cluster[frozenset(c)]] = float(x)
    return MetricTree(PhyloTree.make(shape, lens))


def decompose(t: PhyloTree) -> tuple[MetricTree, ExternalLengths]:
    """Split off the external lengths; inverse of ``recompose``, exactly."""
    if t.n < 2:
        raise WrongArity("decompose needs n >= 2; use decompose1 for n = 1")
    if t.is_extended:
        raise TreeSpaceError("cannot decompose a tree with infinite lengths")
    ext = ExternalLengths(t.external_lengths())
    zeroed = {j: 0.0 for j in range(1, t.n + 1)}
    zeroed[t.shape.root] = 0.0
    return MetricTree(t.with_lengths(zeroed)), ext


def decompose1(t: PhyloTree) -> tuple[MetricTree, float]:
    if t.n != 1:
        raise WrongArity("decompose1 applies to 1-leaf trees only")
    return unit_metric_tree(), t.root_length


def recompose(m: MetricTree, ext: ExternalLengths) -> PhyloTree:
    if m.n < 2:
        raise WrongArity("recompose needs n >= 2; use recompose1")
    if ext.n != m.n:
        raise ArityMismatch(f"{ext.n + 1} external lengths for {m.n} leaves")
    new = {j: ext.values[j] for j in range(1, m.n + 1)}
    new[m.tree.shape.root] = ext.values[0]
    return m.tree.with_lengths(new)


def recompose1(length: float) -> PhyloTree:
    return PhyloTree.make(unit_tree(), {1: length})


# ---------------------------------------------------------------------------
# orthants
# ---------------------------------------------------------------------------

@record
class Orthant:
    """The coordinate patch of one binary topology."""

    n: int
    clusters: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if len(self.clusters) != self.n - 2 or not is_laminar(self.clusters):
            raise TreeSpaceError("not the cluster family of a binary topology")

    @property
    def dimension(self) -> int:
        return len(self.clusters)

    @cached_property
    def axes(self) -> tuple[frozenset[int], ...]:
        return axis_order(self.clusters)

    @cached_property
    def shape(self) -> PlanarTree:
        return tree_from_clusters(self.n, self.clusters)


@record
class OrthantPosition:
    """Where a metric tree sits: its own stratum's axes and coordinates,
    the containing orthant when binary, otherwise every adjacent binary
    orthant obtained by resolving its multifurcations."""

    axes: tuple[frozenset[int], ...]
    coords: tuple[float, ...]
    orthant: Orthant | None
    adjacent: tuple[Orthant, ...]

    @property
    def is_binary(self) -> bool:
        return self.orthant is not None


def enumerate_binary_topologies(n: int) -> list[Orthant]:
    """All rooted binary topologies on leaves 1..n, for 2 <= n <= 7."""
    if not isinstance(n, int) or n < 2 or n > 7:
        raise ArityTooLarge("binary topology enumeration is capped at 2 <= n <= 7")
    shapes = [PlanarTree(2, -1, ((-1, (1, 2)),))]
    for k in range(3, n + 1):
        grown: dict[str, PlanarTree] = {}
        for s in shapes:
            for u in s.nodes:
                t = _insert_leaf(s, u, k)
                grown.setdefault(t.canonical("unordered")[1], t)
        shapes = list(grown.values())
    return [Orthant(n, shape_clusters(s)) for s in shapes]


def _insert_leaf(shape: PlanarTree, u: int, new_leaf: int) -> PlanarTree:
    w = min(shape.vertices, default=0) - 1
    kids = {v: tuple(w if c == u else c for c in cs) for v, cs in shape.children}
    kids[w] = (u, new_leaf)
    root = w if shape.root == u else shape.root
    return PlanarTree(shape.n + 1, root, _freeze(kids))


def binary_resolutions(n: int, clusters: frozenset[frozenset[int]]) -> list[Orthant]:
    """All binary topologies refining the given cluster family."""
    if len(clusters) == n - 2:
        return [Orthant(n, clusters)]
    out: dict[frozenset[frozenset[int]], Orthant] = {}
    stack = [clusters]
    seen = {clusters}
    while stack:
        fam = stack.pop()
        if len(fam) == n - 2:
            out.setdefault(fam, Orthant(n, fam))
            continue
        for c in _splitting_clusters(n, fam):
            bigger = fam | {c}
            if bigger not in seen:
                seen.add(bigger)
                stack.append(bigger)
    return sorted(out.values(), key=lambda o: tuple(map(sorted, o.axes)))


def _splitting_clusters(n: int, fam: frozenset[frozenset[int]]
                        ) -> list[frozenset[int]]:
    """Clusters that can be added to ``fam`` while staying laminar: proper
    sub-blocks of one vertex's child blocks."""
    shape = tree_from_clusters(n, fam)
    found = []
    for v in shape.vertices:
        kids = shape.child_map[v]
        if len(kids) <= 2:
            continue
        blocks = [shape.leaves_below(c) for c in kids]
        for r in range(2, len(blocks)):
            for combo in combinations(range(len(blocks)), r):
                found.append(frozenset().union(*(blocks[b] for b in combo)))
    return found


def orthant_of(m: MetricTree) -> OrthantPosition:
    fam = frozenset(m.clusters)
    axes = axis_order(fam)
    coords = tuple(m.clusters[c] for c in axes)
    if m.is_binary():
        return OrthantPosition(axes, coords, Orthant(m.n, fam), ())
    adjacent = tuple(binary_resolutions(m.n, fam)) if m.n <= 7 else ()
    return OrthantPosition(axes, coords, None, adjacent)


def enumerate_strata(n: int) -> dict[int, list[frozenset[frozenset[int]]]]:
    """All topologies of metric n-trees, grouped by number of internal edges.

    Every stratum is a face of some maximal (binary) orthant, so the census
    walks subsets of the binary families.
    """
    tops = enumerate_binary_topologies(n)
    seen: set[frozenset[frozenset[int]]] = set()
    for o in tops:
        cl = sorted(o.clusters, key=lambda c: tuple(sorted(c)))
        for r in range(len(cl) + 1):
            for combo in combinations(cl, r):
                seen.add(frozenset(combo))
    out: dict[int, list[frozenset[frozenset[int]]]] = {}
    for fam in seen:
        out.setdefault(len(fam), []).append(fam)
    for k in out:
        out[k].sort(key=lambda f: tuple(sorted(tuple(sorted(c)) for c in f)))
    return out


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

def _common_orthant_distance(x: MetricTree, y: MetricTree) -> float | None:
    """Euclidean distance in a shared orthant closure, or None when the two
    cluster families are not jointly compatible."""
    union = set(x.clusters) | set(y.clusters)
    if not is_laminar(union):
        return None
    return math.sqrt(sum((x.clusters.get(c, 0.0) - y.clusters.get(c, 0.0)) ** 2
                         for c in union))


def _direction(m: MetricTree) -> dict[frozenset[int], float]:
    """Link offsets: arc distance from the tree's direction point to each
    boundary ray of its stratum.  Requires 1 or 2 internal edges."""
    axes = axis_order(m.clusters)
    if len(axes) == 1:
        return {axes[0]: 0.0}
    (a, b) = axes
    phi = math.atan2(m.clusters[b], m.clusters[a])
    return {a: phi, b: QUARTER_TURN - phi}


def _link_distance(x: MetricTree, y: MetricTree) -> float:
    """Shortest arc length between the two direction points in the link
    graph (rays as vertices, one quarter-turn edge per orthant)."""
    n = x.n
    rays = [frozenset(c) for r in range(2, n)
            for c in combinations(range(1, n + 1), r)]
    adj: dict[frozenset[int], list[frozenset[int]]] = {c: [] for c in rays}
    for a, b in combinations(rays, 2):
        if compatible(a, b):
            adj[a].append(b)
            adj[b].append(a)
    src = _direction(x)
    dst = _direction(y)
    best = math.inf
    dist = dict(src)
    heap = [(d, tuple(sorted(c))) for c, d in src.items()]
    by_key = {tuple(sorted(c)): c for c in rays}
    heapq.heapify(heap)
    while heap:
        d, key = heapq.heappop(heap)
        c = by_key[key]
        if d > dist.get(c, math.inf):
            continue
        for b in adj[c]:
            nd = d + QUARTER_TURN
            if nd < dist.get(b, math.inf):
                dist[b] = nd
                heapq.heappush(heap, (nd, tuple(sorted(b))))
    for c, off in dst.items():
        if c in dist:
            best = min(best, dist[c] + off)
    return best


def bhv_distance(x: MetricTree, y: MetricTree, mode: str = "auto") -> float:
    """Distance in the orthant complex.

    * ``cone``: the Euclidean distance inside a shared orthant closure when
      the topologies are jointly compatible, else the path through the cone
      point; always an upper bound for the true metric.
    * ``exact4``: the exact geodesic for n <= 4, via the cone law of
      cosines over the link graph (the unrolled quadrant sequence).
    * ``auto``: exact4 when n <= 4, else cone.
    """
    if x.n != y.n:
        raise ArityMismatch(f"cannot compare {x.n}-leaf and {y.n}-leaf trees")
    if mode == "auto":
        mode = "exact4" if x.n <= 4 else "cone"
    common = _common_orthant_distance(x, y)
    through_cone = x.norm + y.norm
    if mode == "cone":
        return min(common, through_cone) if common is not None else through_cone
    if mode != "exact4":
        raise ValueError(f"unknown mode {mode!r}")
    if x.n > 4:
        raise ExactUnsupported("exact geodesics are implemented for n <= 4 only")
    if common is not None:
        return common
    angle = min(_link_distance(x, y), math.pi)
    r1, r2 = x.norm, y.norm
    return math.sqrt(max(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(angle), 0.0))


# ---------------------------------------------------------------------------
# basic open neighborhoods
# ---------------------------------------------------------------------------

Interval = tuple[float, float]


def _contains(iv: Interval, x: float) -> bool:
    lo, hi = iv
    return lo < x < hi


@record
class BasicOpenSet:
    """A basic neighborhood of the trees with a given base topology.

    Membership holds for trees of the base topology with internal lengths
    in the open boxes and external lengths in the (possibly 0-containing)
    external boxes, and for binary refinements of the base whose extra
    edges are shorter than the resolution radii.  Intervals are open pairs
    (lo, hi); use a negative lower bound to include length 0.
    """

    base: PlanarTree
    internal_windows: tuple[Interval, ...]
    external_windows: tuple[Interval, ...]
    radii: tuple[float, ...] | float = 1.0

    def __post_init__(self) -> None:
        k = len(shape_clusters(self.base))
        n = self.base.n
        if any(self.base.arity(v) < 2 for v in self.base.vertices):
            raise TreeSpaceError("base topology cannot have unary vertices")
        if len(self.internal_windows) != k:
            raise TreeSpaceError(f"expected {k} internal windows")
        if len(self.external_windows) != n + 1:
            raise TreeSpaceError(f"expected {n + 1} external windows")
        for lo, hi in (*self.internal_windows, *self.external_windows):
            if not lo < hi:
                raise TreeSpaceError(f"window ({lo}, {hi}) has no interior")
        radii = (self.radii,) if isinstance(self.radii, (int, float)) \
            else self.radii
        if any(r <= 0 for r in radii):
            raise TreeSpaceError("resolution radii must be positive")
        if not isinstance(self.radii, (int, float)):
            if len(self.radii) != n - 2 - k:
                raise TreeSpaceError(f"expected {n - 2 - k} resolution radii")

    @cached_property
    def axes(self) -> tuple[frozenset[int], ...]:
        return axis_order(shape_clusters(self.base))

    def radius_for(self, slot: int) -> float:
        if isinstance(self.radii, (int, float)):
            return float(self.radii)
        return self.radii[slot]


def neighborhood_contains(u: BasicOpenSet, z: PhyloTree) -> bool:
    if z.n != u.base.n:
        raise ArityMismatch(f"neighborhood is for {u.base.n}-leaf trees")
    base_cl = shape_clusters(u.base)
    z_cl = cluster_lengths(z)
    ext = z.external_lengths()
    if not all(_contains(u.external_windows[j], ext[j])
               for j in range(z.n + 1)):
        return False
    if frozenset(z_cl) == base_cl:
        return all(_contains(u.internal_windows[i], z_cl[c])
                   for i, c in enumerate(u.axes))
    z_binary = all(z.shape.arity(v) == 2 for v in z.shape.vertices)
    if not z_binary or not base_cl < frozenset(z_cl):
        return False
    if not all(_contains(u.internal_windows[i], z_cl[c])
               for i, c in enumerate(u.axes)):
        return False
    extras = axis_order(frozenset(z_cl) - base_cl)
    return all(0.0 < z_cl[c] < u.radius_for(i) for i, c in enumerate(extras))
