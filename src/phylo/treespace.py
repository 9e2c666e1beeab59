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

import math
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .operads import PhyloTree, _length
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
# clusters: internal edges named by the leaf set above them, as an int mask
# with leaf i at bit i - 1
# ---------------------------------------------------------------------------

def leaves(c: int) -> tuple[int, ...]:
    """The leaf numbers of cluster ``c``, ascending."""
    return tuple([i for i, bit in enumerate(bin(c)[:1:-1], 1) if bit == "1"])


_FLIP = str.maketrans("01", "10")


def cluster_key(c: int) -> str:
    """The sort key of cluster ``c``: its bits lowest leaf first, with 0 and
    1 swapped, one character per leaf.  Keys order clusters as their leaf
    tuples do, never by mask value: (1, 3) comes before (2,)."""
    return bin(c)[:1:-1].translate(_FLIP) if c else ""


def node_clusters(shape: PlanarTree) -> dict[int, int]:
    """The cluster of every node, in one pass over reversed preorder."""
    kids = shape.child_map
    mask: dict[int, int] = {}
    for u in reversed(shape.preorder):  # the children's masks are disjoint
        mask[u] = 1 << (u - 1) if u > 0 else sum(mask[c] for c in kids[u])
    return mask


def cluster_lengths(t: PhyloTree) -> dict[int, float]:
    """Internal edges of ``t`` as {leaf cluster: length}."""
    mask = node_clusters(t.shape)
    return {mask[v]: t.length(v) for v in t.shape.internal_edge_sources()}


def shape_clusters(shape: PlanarTree) -> frozenset[int]:
    mask = node_clusters(shape)
    return frozenset(mask[v] for v in shape.internal_edge_sources())


def compatible(a: int, b: int) -> bool:
    return (a & b) in (0, a, b)


def _nesting(clusters: list[int]) -> dict[int, int] | None:
    """The cluster each leaf bit and each cluster sits directly inside, if
    any, in one pass over distinct ``clusters`` listed smallest first; None
    when two clusters overlap without nesting.  From its lowest leaf not yet
    cleared, a cluster takes that leaf if uncovered, else the largest
    cluster so far starting there, which must lie inside it."""
    up: dict[int, int] = {}
    tops: dict[int, int] = {}  # lowest leaf bit -> largest cluster there
    covered = 0
    for c in clusters:
        rest = c
        while rest:
            low = rest & -rest
            d = tops.pop(low, 0) if low & covered else low
            if not d or d & ~c:
                return None
            up[d] = c
            rest ^= d
        tops[c & -c] = c
        covered |= c
    return up


def is_laminar(clusters: Iterable[int]) -> bool:
    # a set of at most one leaf nests with every set, and its mask would
    # read as a leaf bit; a negative int is no leaf set
    return _nesting(sorted({c for c in clusters if c & (c - 1) > 0},
                           key=int.bit_count)) is not None


def _cluster_nesting(n: int, clusters: Iterable[int]) -> dict[int, int]:
    """The cluster rule: n >= 2, every cluster is a mask of 2..n-1 of the
    leaves 1..n and the clusters nest.  Returns what each leaf bit and
    cluster sits directly inside, if any."""
    if not isinstance(n, int) or n < 2:
        raise TreeSpaceError(f"tree space needs n >= 2 leaves, not {n!r}")
    for c in clusters:
        if not isinstance(c, int) or c < 0 or c >> n or not 2 <= c.bit_count() < n:
            raise TreeSpaceError(f"{c!r} cannot be an internal edge cluster "
                                 f"of {n} leaves")
    up = _nesting(sorted(set(clusters), key=int.bit_count))
    if up is None:
        raise TreeSpaceError("clusters are not pairwise compatible")
    return up


def tree_from_clusters(n: int, clusters: Iterable[int]) -> PlanarTree:
    """The shape with the given internal-edge clusters (a laminar family of
    leaf masks with 2 <= size <= n-1).  Vertex ids go to the root, then to
    the clusters largest first; children are ordered by their lowest leaf.
    Equal-size clusters and siblings are disjoint, so the lowest leaf bit,
    ``c & -c``, orders them as ``cluster_key`` does."""
    clusters = list(clusters)
    up = _cluster_nesting(n, clusters)
    cl = sorted(set(clusters), key=lambda c: (-c.bit_count(), c & -c))
    full = (1 << n) - 1
    ids = {full: -1}
    for c in cl:
        ids[c] = -(len(ids) + 1)
    kids: dict[int, list] = {v: [] for v in ids.values()}
    for c in cl:
        kids[ids[up.get(c, full)]].append((c & -c, ids[c]))
    for leaf in range(1, n + 1):
        bit = 1 << (leaf - 1)
        kids[ids[up.get(bit, full)]].append((bit, leaf))
    return PlanarTree(n, -1, _freeze({v: [u for _, u in sorted(ks)]
                                      for v, ks in kids.items()}))


def axis_order(clusters: Iterable[int]) -> tuple[int, ...]:
    """Deterministic coordinate order: lexicographically smallest leaf set first."""
    return tuple(sorted(set(clusters), key=cluster_key))


# ---------------------------------------------------------------------------
# the two factors of a phylogenetic tree
# ---------------------------------------------------------------------------

@record
class ExternalLengths:
    """Root edge length at index 0, leaf edge lengths at 1..n."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(_length(x, allow_inf=False) is None for x in self.values):
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
    def clusters(self) -> dict[int, float]:
        return cluster_lengths(self.tree)

    @cached_property
    def norm(self) -> float:
        return math.sqrt(sum(x * x for x in self.clusters.values()))

    def is_binary(self) -> bool:
        return all(self.tree.shape.arity(v) == 2 for v in self.tree.shape.vertices)


def unit_metric_tree() -> MetricTree:
    return MetricTree(PhyloTree.make(unit_tree(), {1: 0.0}))


def metric_tree(n: int, lengths: Mapping[int, float]) -> MetricTree:
    """Metric tree from {cluster: positive length}."""
    shape = tree_from_clusters(n, lengths)
    lens = {u: 0.0 for u in shape.nodes}
    mask = node_clusters(shape)
    by_cluster = {mask[v]: v for v in shape.internal_edge_sources()}
    for c, x in lengths.items():
        lens[by_cluster[c]] = x
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
    clusters: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.clusters) != self.n - 2:
            raise TreeSpaceError("not the cluster family of a binary topology")
        _cluster_nesting(self.n, self.clusters)

    @property
    def dimension(self) -> int:
        return len(self.clusters)

    @cached_property
    def axes(self) -> tuple[int, ...]:
        return axis_order(self.clusters)

    @cached_property
    def shape(self) -> PlanarTree:
        return tree_from_clusters(self.n, self.clusters)


@record
class OrthantPosition:
    """Where a metric tree sits: its own stratum's axes and coordinates,
    the containing orthant when binary, otherwise every adjacent binary
    orthant obtained by resolving its multifurcations."""

    axes: tuple[int, ...]
    coords: tuple[float, ...]
    orthant: Orthant | None
    adjacent: tuple[Orthant, ...]

    @property
    def is_binary(self) -> bool:
        return self.orthant is not None


def enumerate_binary_topologies(n: int) -> list[Orthant]:
    """All rooted binary topologies on leaves 1..n, for 2 <= n <= 7: the
    resolutions of the star."""
    if not isinstance(n, int) or n < 2 or n > 7:
        raise ArityTooLarge("binary topology enumeration is capped at 2 <= n <= 7")
    return binary_resolutions(n, frozenset())


def _binary_families(blocks: list[int]) -> list[list[int]]:
    """The clusters, root included, of every rooted binary tree whose leaves
    are the disjoint ``blocks``, each tree once (Felsenstein 1978): block k
    goes above each of the 2k - 3 nodes (the earlier blocks and clusters)
    of every tree on the earlier blocks, and each strict ancestor gains it."""
    fams = [[blocks[0] | blocks[1]]]
    for k, b in enumerate(blocks[2:], 2):
        fams = [[d | b if d != c and d & c == c else d for d in fam] + [c | b]
                for fam in fams for c in (*blocks[:k], *fam)]
    return fams


def binary_resolutions(n: int, clusters: frozenset[int]) -> list[Orthant]:
    """All binary topologies refining the given cluster family, ordered by
    the keys of their axes: the product, over each vertex with more
    than two children, of the binary trees on its child blocks."""
    shape = tree_from_clusters(n, clusters)
    mask = node_clusters(shape)
    fams = [frozenset(clusters)]
    for _, kids in shape.children:
        if len(kids) > 2:
            fams = [f.union(g) for f in fams
                    for g in _binary_families([mask[c] for c in kids])]
    tops = [Orthant(n, f - {mask[shape.root]}) for f in fams]
    return sorted(tops, key=lambda o: sorted(map(cluster_key, o.clusters)))


def orthant_of(m: MetricTree) -> OrthantPosition:
    fam = frozenset(m.clusters)
    axes = axis_order(fam)
    coords = tuple(m.clusters[c] for c in axes)
    if m.is_binary():
        return OrthantPosition(axes, coords, Orthant(m.n, fam), ())
    adjacent = tuple(binary_resolutions(m.n, fam)) if m.n <= 7 else ()
    return OrthantPosition(axes, coords, None, adjacent)


def enumerate_strata(n: int) -> dict[int, list[frozenset[int]]]:
    """All topologies of metric n-trees, grouped by number of internal edges.

    Every stratum is a face of some maximal (binary) orthant, so the census
    walks subsets of the binary families.
    """
    seen: set[frozenset[int]] = set()
    for o in enumerate_binary_topologies(n):
        for r in range(len(o.clusters) + 1):
            seen.update(map(frozenset, combinations(o.clusters, r)))
    out: dict[int, list[frozenset[int]]] = {}
    for fam in seen:
        out.setdefault(len(fam), []).append(fam)
    for k in out:
        out[k].sort(key=lambda f: sorted(map(cluster_key, f)))
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


def _direction(m: MetricTree) -> dict[int, float]:
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
    graph (rays as vertices, one quarter-turn edge per orthant), for
    n <= 4.  Two distinct rays are one edge apart when compatible; when
    not, two edges apart at n = 4 (the link is the Petersen graph) and
    not joined at n = 3.  Each path is summed as a graph search sums it,
    offset, then one quarter turn per edge, then offset, so the result is
    bitwise that of the search."""
    best = math.inf
    for a, off in _direction(x).items():
        for b, off_b in _direction(y).items():
            if a == b:
                d = off
            elif compatible(a, b):
                d = off + QUARTER_TURN
            elif x.n == 4:
                d = off + QUARTER_TURN + QUARTER_TURN
            else:
                continue
            best = min(best, d + off_b)
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
        raise TreeSpaceError(f"unknown mode {mode!r}")
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
    edges are shorter than the resolution radius.  Intervals are open pairs
    (lo, hi); use a negative lower bound to include length 0.
    """

    base: PlanarTree
    internal_windows: tuple[Interval, ...]
    external_windows: tuple[Interval, ...]
    radii: float = 1.0

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
        if not _length(self.radii, allow_inf=False):  # None or 0
            raise TreeSpaceError("the resolution radius must be a positive number")

    @cached_property
    def axes(self) -> tuple[int, ...]:
        return axis_order(shape_clusters(self.base))


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
    return all(0.0 < z_cl[c] < u.radii for c in z_cl.keys() - base_cl)
