"""The tree-space cluster code as it was with clusters as frozensets of
leaf numbers, kept as a test-only reference for the int-mask version in
``phylo.treespace``.

The functions are the old ones with two adaptations: ``leaves_below`` is
a plain function of the shape, and where the old code built an
``Orthant`` or read a ``MetricTree`` these return the cluster family and
take the {cluster: length} dict instead.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Iterable

from phylo.operads import PhyloTree
from phylo.trees import PlanarTree, _freeze, _preorder
from phylo.treespace import QUARTER_TURN, ExactUnsupported, TreeSpaceError


def leaves_below(shape: PlanarTree, u: int) -> frozenset[int]:
    return frozenset(x for x in _preorder(u, shape.child_map) if x > 0)


def cluster_lengths(t: PhyloTree) -> dict[frozenset[int], float]:
    """Internal edges of ``t`` as {leaf cluster: length}."""
    return {leaves_below(t.shape, v): t.length(v)
            for v in t.shape.internal_edge_sources()}


def shape_clusters(shape: PlanarTree) -> frozenset[frozenset[int]]:
    return frozenset(leaves_below(shape, v)
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


def enumerate_binary_topologies(n: int) -> list[frozenset[frozenset[int]]]:
    """The cluster families of all rooted binary topologies on leaves 1..n."""
    shapes = [PlanarTree(2, -1, ((-1, (1, 2)),))]
    for k in range(3, n + 1):
        grown: dict[str, PlanarTree] = {}
        for s in shapes:
            for u in s.nodes:
                t = _insert_leaf(s, u, k)
                grown.setdefault(t.canonical("unordered")[1], t)
        shapes = list(grown.values())
    return [shape_clusters(s) for s in shapes]


def _insert_leaf(shape: PlanarTree, u: int, new_leaf: int) -> PlanarTree:
    w = min(shape.vertices, default=0) - 1
    kids = {v: tuple(w if c == u else c for c in cs) for v, cs in shape.children}
    kids[w] = (u, new_leaf)
    root = w if shape.root == u else shape.root
    return PlanarTree(shape.n + 1, root, _freeze(kids))


def binary_resolutions(n: int, clusters: frozenset[frozenset[int]]
                       ) -> list[frozenset[frozenset[int]]]:
    """The cluster families of all binary topologies refining ``clusters``."""
    if len(clusters) == n - 2:
        return [clusters]
    out: set[frozenset[frozenset[int]]] = set()
    stack = [clusters]
    seen = {clusters}
    while stack:
        fam = stack.pop()
        if len(fam) == n - 2:
            out.add(fam)
            continue
        for c in _splitting_clusters(n, fam):
            bigger = fam | {c}
            if bigger not in seen:
                seen.add(bigger)
                stack.append(bigger)
    return sorted(out, key=lambda f: tuple(map(sorted, axis_order(f))))


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
        blocks = [leaves_below(shape, c) for c in kids]
        for r in range(2, len(blocks)):
            for combo in combinations(range(len(blocks)), r):
                found.append(frozenset().union(*(blocks[b] for b in combo)))
    return found


def orthant_of(t: PhyloTree) -> tuple:
    """(axes, coords, the binary family or None, adjacent binary families)."""
    clusters = cluster_lengths(t)
    fam = frozenset(clusters)
    axes = axis_order(fam)
    coords = tuple(clusters[c] for c in axes)
    if all(t.shape.arity(v) == 2 for v in t.shape.vertices):
        return axes, coords, fam, ()
    adjacent = tuple(binary_resolutions(t.n, fam)) if t.n <= 7 else ()
    return axes, coords, None, adjacent


def enumerate_strata(n: int) -> dict[int, list[frozenset[frozenset[int]]]]:
    tops = enumerate_binary_topologies(n)
    seen: set[frozenset[frozenset[int]]] = set()
    for fam in tops:
        cl = sorted(fam, key=lambda c: tuple(sorted(c)))
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
# the metric, on {cluster: length} dicts
# ---------------------------------------------------------------------------

def _norm(clusters: dict[frozenset[int], float]) -> float:
    return math.sqrt(sum(x * x for x in clusters.values()))


def _common_orthant_distance(x: dict, y: dict) -> float | None:
    union = set(x) | set(y)
    if not is_laminar(union):
        return None
    return math.sqrt(sum((x.get(c, 0.0) - y.get(c, 0.0)) ** 2 for c in union))


def _direction(clusters: dict[frozenset[int], float]) -> dict[frozenset[int], float]:
    axes = axis_order(clusters)
    if len(axes) == 1:
        return {axes[0]: 0.0}
    (a, b) = axes
    phi = math.atan2(clusters[b], clusters[a])
    return {a: phi, b: QUARTER_TURN - phi}


def _link_distance(n: int, x: dict, y: dict) -> float:
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


def bhv_distance(n: int, x: dict, y: dict, mode: str = "auto") -> float:
    """The distance between the metric trees with cluster dicts x and y."""
    if mode == "auto":
        mode = "exact4" if n <= 4 else "cone"
    common = _common_orthant_distance(x, y)
    through_cone = _norm(x) + _norm(y)
    if mode == "cone":
        return min(common, through_cone) if common is not None else through_cone
    if n > 4:
        raise ExactUnsupported("exact geodesics are implemented for n <= 4 only")
    if common is not None:
        return common
    angle = min(_link_distance(n, x, y), math.pi)
    r1, r2 = _norm(x), _norm(y)
    return math.sqrt(max(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(angle), 0.0))
