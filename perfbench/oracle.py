"""Independent answers for the tree algebra, from the standard library only.

A tree is reduced to its *summary*: the root edge length, each leaf's
root-to-leaf length and leaf edge length, and the set of (cluster, length)
pairs of its internal edges, where a cluster is the set of leaves above an
edge.  The summary determines a phylogenetic tree up to isomorphism, and
grafting, relabelling, rewriting to normal form and splitting off the
external lengths all act on it by simple rules, applied here without any
code of the program.  Every length in the benchmark is dyadic, so the sums
below are exact and summaries are compared with ``==``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

from gen import GTree


class Mismatch(AssertionError):
    """A program output disagrees with the independent answer."""


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Summary:
    n: int
    root: float
    depth: tuple[float, ...]      # leaf j at index j - 1, root edge included
    leaf: tuple[float, ...]       # leaf edge lengths
    clusters: dict[frozenset[int], float]


_TOKEN = re.compile(r"\s*(\(|\)|,|:|;|inf|[0-9.eE+-]+)")


def read_newick(text: str) -> GTree:
    """Read Newick text (lengths optional, as in topology strings)."""
    kids: dict[int, list[int]] = {}
    length: dict[int, float] = {}
    open_: list[int] = []
    root = last = None
    next_id = -1
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise Mismatch(f"unreadable Newick at {pos}: {text[pos:pos + 20]!r}")
        tok = m.group(1)
        pos = m.end()
        if tok == "(":
            v, next_id = next_id, next_id - 1
            kids[v] = []
            if open_:
                kids[open_[-1]].append(v)
            else:
                root = v
            open_.append(v)
        elif tok == ")":
            last = open_.pop()
        elif tok == ":":
            m = _TOKEN.match(text, pos)
            length[last] = math.inf if m.group(1) == "inf" else float(m.group(1))
            pos = m.end()
        elif tok == ";":
            break
        elif tok != ",":
            leaf = int(tok)
            if open_:
                kids[open_[-1]].append(leaf)
            else:
                root = leaf
            last = leaf
    leaves = sorted(c for cs in kids.values() for c in cs if c > 0)
    if root is not None and root > 0:
        leaves = [root]
    if open_ or root is None or leaves != list(range(1, len(leaves) + 1)):
        raise Mismatch(f"malformed tree text {text[:60]!r}")
    return GTree(len(leaves), root, kids, length)


def _preorder(t: GTree) -> list[int]:
    order, stack = [], [t.root]
    while stack:
        u = stack.pop()
        order.append(u)
        if u < 0:
            stack.extend(t.kids[u])
    return order


def clusters_of(t: GTree) -> dict[int, frozenset[int]]:
    """The leaf set above every node's edge."""
    cl: dict[int, frozenset[int]] = {}
    for u in reversed(_preorder(t)):
        cl[u] = frozenset((u,)) if u > 0 else frozenset().union(
            *(cl[c] for c in t.kids[u]))
    return cl


def summary(t: GTree, reduce: bool = False) -> Summary:
    """The summary of ``t``.  With ``reduce`` it is the summary of the
    normal form: lengths on a chain of unary vertices add up, and internal
    clusters whose total length is zero disappear.  Without it, ``t`` must
    already be a valid phylogenetic tree, and any violation is a mismatch."""
    n = t.n
    order = _preorder(t)
    cl = clusters_of(t)
    depth: dict[int, float] = {}
    for u in order:
        depth[u] = t.length[u]
    par = t.parent_map()
    for u in order:
        if par[u] != 0:
            depth[u] = depth[par[u]] + t.length[u]
    full = frozenset(range(1, n + 1))
    by_cluster: dict[frozenset[int], float] = {}
    for u in order:
        c = cl[u]
        if not reduce and c in by_cluster and n > 1:
            raise Mismatch(f"cluster {sorted(c)[:8]} appears twice (unary vertex)")
        by_cluster[c] = by_cluster.get(c, 0.0) + t.length[u]
    if not reduce:
        for v in t.kids:
            if len(t.kids[v]) < 2:
                raise Mismatch(f"vertex with {len(t.kids[v])} children")
    internal = {c: x for c, x in by_cluster.items() if 2 <= len(c) < n}
    if reduce:
        internal = {c: x for c, x in internal.items() if x != 0.0}
    elif any(x <= 0.0 for x in internal.values()):
        raise Mismatch("internal edge of length zero")
    return Summary(
        n, by_cluster[full],
        tuple(depth[j] for j in range(1, n + 1)),
        tuple(by_cluster[frozenset((j,))] for j in range(1, n + 1)),
        internal)


def graft(a: Summary, i: int, b: Summary) -> Summary:
    """The summary of ``b`` grafted onto leaf i of ``a`` (both with at
    least two leaves): the identified edge is a new internal edge with the
    summed length, which collapses when that sum is zero."""
    m, k = a.n, b.n

    def outer(j: int) -> int:
        return j if j < i else j + k - 1

    inner = frozenset(range(i, i + k))
    clusters: dict[frozenset[int], float] = {}
    for c, x in a.clusters.items():
        rest = frozenset(outer(j) for j in c if j != i)
        clusters[rest | inner if i in c else rest] = x
    for c, x in b.clusters.items():
        clusters[frozenset(j + i - 1 for j in c)] = x
    joined = a.leaf[i - 1] + b.root
    if joined != 0.0:
        clusters[inner] = joined
    depth = [0.0] * (m + k - 1)
    leaf = [0.0] * (m + k - 1)
    for j in range(1, m + 1):
        if j != i:
            depth[outer(j) - 1] = a.depth[j - 1]
            leaf[outer(j) - 1] = a.leaf[j - 1]
    for j in range(1, k + 1):
        depth[j + i - 2] = a.depth[i - 1] + b.depth[j - 1]
        leaf[j + i - 2] = b.leaf[j - 1]
    return Summary(m + k - 1, a.root, tuple(depth), tuple(leaf), clusters)


def act(a: Summary, sigma: list[int]) -> Summary:
    """Right action: the leaf labelled k becomes sigma^-1(k)."""
    inv = {s: j + 1 for j, s in enumerate(sigma)}
    depth = [0.0] * a.n
    leaf = [0.0] * a.n
    for k in range(1, a.n + 1):
        depth[inv[k] - 1] = a.depth[k - 1]
        leaf[inv[k] - 1] = a.leaf[k - 1]
    clusters = {frozenset(inv[j] for j in c): x for c, x in a.clusters.items()}
    return Summary(a.n, a.root, tuple(depth), tuple(leaf), clusters)


def metric_part(a: Summary) -> Summary:
    """The metric tree of ``a``: every external length set to zero."""
    depth = tuple(sum(x for c, x in a.clusters.items() if j in c)
                  for j in range(1, a.n + 1))
    return Summary(a.n, 0.0, depth, (0.0,) * a.n, dict(a.clusters))


def expect_equal(got: Summary, want: Summary, what: str) -> None:
    if got == want:
        return
    for field in ("n", "root", "depth", "leaf"):
        if getattr(got, field) != getattr(want, field):
            raise Mismatch(f"{what}: {field} differs: got "
                           f"{str(getattr(got, field))[:80]} want "
                           f"{str(getattr(want, field))[:80]}")
    extra = set(got.clusters) ^ set(want.clusters)
    raise Mismatch(f"{what}: internal clusters differ "
                   f"({len(extra)} not shared, or lengths differ)")


# ---------------------------------------------------------------------------
# tree space
# ---------------------------------------------------------------------------

def norm(a: Summary) -> float:
    return math.sqrt(sum(x * x for x in a.clusters.values()))


def laminar(clusters) -> bool:
    """Pairwise compatible: every two clusters are nested or disjoint.
    Taking clusters largest first, each must lie inside a single earlier
    cluster (or none), which is checked leaf by leaf."""
    owner: dict[int, int] = {}
    for idx, c in enumerate(sorted(set(clusters), key=len, reverse=True)):
        if len({owner.get(j, -1) for j in c}) != 1:
            return False
        for j in c:
            owner[j] = idx
    return True


def check_distance(d: float, d_swapped: float, x: Summary, y: Summary) -> None:
    """Symmetry, the bounds |‖x‖-‖y‖| <= d <= ‖x‖+‖y‖, and the Euclidean
    distance when the two topologies share an orthant."""
    nx, ny = norm(x), norm(y)
    tol = 1e-12 * max(1.0, nx + ny)
    if not math.isfinite(d) or abs(d - d_swapped) > tol:
        raise Mismatch(f"distance not symmetric: {d!r} vs {d_swapped!r}")
    if d < abs(nx - ny) - tol or d > nx + ny + tol:
        raise Mismatch(f"distance {d!r} outside [{abs(nx - ny)!r}, {nx + ny!r}]")
    union = set(x.clusters) | set(y.clusters)
    if laminar(union):
        e = math.sqrt(sum((x.clusters.get(c, 0.0) - y.clusters.get(c, 0.0)) ** 2
                          for c in union))
        if abs(d - e) > tol:
            raise Mismatch(f"compatible topologies: distance {d!r} != Euclidean {e!r}")


def binary_families(n: int) -> set[frozenset[frozenset[int]]]:
    """Internal cluster families of all rooted binary trees on 1..n, grown
    by inserting leaf k above every node of every tree on 1..k-1."""
    trees = {frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})})}
    for k in range(3, n + 1):
        grown = set()
        for fam in trees:
            for c in fam:
                new = {d | {k} if c < d else d for d in fam}
                new |= {c | {k}, frozenset({k})}
                grown.add(frozenset(new))
        trees = grown
    return {frozenset(c for c in fam if 2 <= len(c) < n) for fam in trees}
