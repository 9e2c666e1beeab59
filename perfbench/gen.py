"""Seeded inputs for the benchmark: Newick trees, weighted trees and JSON
Markov models.

Everything here uses the standard library only, so the program under test
receives generated text and JSON but never shares code with the generator.
Lengths are dyadic (multiples of 1/1024, at most 2), so sums along a path
are exact in binary floating point and outputs can be compared bitwise.
"""

from __future__ import annotations

import math
import random

DENOM = 1024.0
STATES4 = ("A", "C", "G", "T")


class GTree:
    """A rooted tree: leaves 1..n, vertices negative, ``kids`` ordered."""

    def __init__(self, n: int, root: int, kids: dict[int, list[int]],
                 length: dict[int, float]):
        self.n = n
        self.root = root
        self.kids = kids
        self.length = length

    def parent_map(self) -> dict[int, int]:
        par = {self.root: 0}
        for v, cs in self.kids.items():
            for c in cs:
                par[c] = v
        return par

    def internal_vertices(self) -> list[int]:
        par = self.parent_map()
        return [v for v in self.kids if par[v] < 0]


def dyadic(rng: random.Random) -> float:
    """A length k/1024 with 16 <= k <= 2048."""
    return rng.randint(16, 2048) / DENOM


def random_shape(rng: random.Random, n: int) -> tuple[int, dict[int, list[int]]]:
    """A random shape on leaves 1..n, every vertex at least binary."""
    if n == 1:
        return 1, {}
    kids: dict[int, list[int]] = {}
    leaves = list(range(1, n + 1))
    rng.shuffle(leaves)
    root = -1
    next_id = -2
    stack = [(root, leaves)]
    while stack:
        v, block = stack.pop()
        # mostly binary splits, some wider vertices
        parts = 2 if rng.random() < 0.7 else rng.randint(2, len(block))
        cuts = sorted(rng.sample(range(1, len(block)), parts - 1))
        children = []
        for a, b in zip([0] + cuts, cuts + [len(block)]):
            sub = block[a:b]
            if len(sub) == 1:
                children.append(sub[0])
            else:
                children.append(next_id)
                stack.append((next_id, sub))
                next_id -= 1
        kids[v] = children
    return root, kids


def random_phylo(rng: random.Random, n: int, zero_external: float = 0.25,
                 fine: bool = True) -> GTree:
    """A valid phylogenetic tree: positive internal lengths, external
    lengths zero with probability ``zero_external``.  ``fine`` draws from
    2048 lengths; otherwise from four, so that lengths repeat."""
    root, kids = random_shape(rng, n)
    t = GTree(n, root, kids, {})
    internal = set(t.internal_vertices())
    for u in list(range(1, n + 1)) + list(kids):
        if u in internal:
            t.length[u] = length_draw(rng, fine)
        elif rng.random() < zero_external:
            t.length[u] = 0.0
        else:
            t.length[u] = length_draw(rng, fine)
    return t


def length_draw(rng: random.Random, fine: bool) -> float:
    if fine:
        return dyadic(rng)
    return rng.choice((0.125, 0.25, 0.5, 1.0))


def metric_pair(rng: random.Random, n: int, compatible: bool
                ) -> tuple[GTree, GTree]:
    """Two metric trees (every external length 0).  When ``compatible``, y
    is x with a third of its internal edges contracted and new lengths, so
    both lie in one orthant closure."""
    x = random_phylo(rng, n, zero_external=1.0)
    if not compatible:
        return x, random_phylo(rng, n, zero_external=1.0)
    inner = x.internal_vertices()
    y = contract(x, rng.sample(inner, len(inner) // 3))
    for v in y.internal_vertices():
        y.length[v] = dyadic(rng)
    return x, y


def contract(t: GTree, vs: list[int]) -> GTree:
    """Contract the internal edges out of ``vs`` (splicing children)."""
    gone = set(vs)
    kids = {v: list(cs) for v, cs in t.kids.items()}
    par = t.parent_map()
    # contract deepest first so splices compose
    order = sorted(gone, key=lambda v: -_depth(par, v))
    for v in order:
        p = par[v]
        pos = kids[p].index(v)
        kids[p][pos:pos + 1] = kids.pop(v)
        for c in kids[p]:
            par[c] = p
    length = {u: x for u, x in t.length.items() if u not in gone}
    return GTree(t.n, t.root, kids, length)


def _depth(par: dict[int, int], u: int) -> int:
    d = 0
    while u != 0:
        u = par[u]
        d += 1
    return d


def caterpillar(depth: int, leaf: float = 0.25, internal: float = 0.125,
                root: float = 0.5) -> GTree:
    """The caterpillar with ``depth`` nested vertices and depth + 1 leaves."""
    kids: dict[int, list[int]] = {}
    length = {1: leaf}
    below = 1
    for k in range(1, depth + 1):
        v = -k
        kids[v] = [below, k + 1]
        length[k + 1] = leaf
        length[v] = internal
        below = v
    length[below] = root
    return GTree(depth + 1, below, kids, length)


def fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def newick(t: GTree, rng: random.Random | None = None) -> str:
    """Newick text; children are shuffled when ``rng`` is given."""
    out: list[str] = []
    # items are nodes still to write (int) or finished text (str)
    stack: list[int | str] = [t.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item > 0:
            out.append(str(item) + ":" + fmt(t.length[item]))
        else:
            cs = list(t.kids[item])
            if rng is not None:
                rng.shuffle(cs)
            out.append("(")
            stack.append("):" + fmt(t.length[item]))
            for j, c in enumerate(reversed(cs)):
                if j:
                    stack.append(",")
                stack.append(c)
    return "".join(out) + ";"


def weighted(rng: random.Random, n: int, unary: int, zero: float) -> GTree:
    """A mixed tree for the rewrite engine: a random shape with ``unary``
    extra arity-one vertices and a share ``zero`` of zero lengths."""
    root, kids = random_shape(rng, n)
    t = GTree(n, root, kids, {})
    next_id = min(kids, default=0) - 1
    for _ in range(unary):
        nodes = list(range(1, n + 1)) + list(t.kids)
        u = rng.choice(nodes)
        par = t.parent_map()
        w = next_id
        next_id -= 1
        p = par[u]
        if p == 0:
            t.root = w
        else:
            t.kids[p] = [w if c == u else c for c in t.kids[p]]
        t.kids[w] = [u]
    for u in list(range(1, n + 1)) + list(t.kids):
        t.length[u] = 0.0 if rng.random() < zero else dyadic(rng)
    return t


def weighted_json(t: GTree) -> dict:
    """The labelled-tree JSON schema read by ``phylo reduce``."""
    docs: dict[int, dict] = {}
    order: list[int] = []
    stack = [t.root]
    while stack:
        u = stack.pop()
        order.append(u)
        if u < 0:
            stack.extend(t.kids[u])
    for u in reversed(order):
        if u > 0:
            docs[u] = {"leaf": u, "length": t.length[u]}
        else:
            docs[u] = {"children": [docs[c] for c in t.kids[u]],
                       "length": t.length[u]}
    return docs[t.root]


def perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


# ---------------------------------------------------------------------------
# Markov models (JSON documents in the CLI's schema)
# ---------------------------------------------------------------------------

def jc_model(mu: float, labels=STATES4) -> dict:
    k = len(labels)
    rows = [[mu if i != j else -(k - 1) * mu for j in range(k)]
            for i in range(k)]
    return {"states": list(labels), "rows": rows}


def distribution(rng: random.Random, k: int, labels=None) -> dict:
    w = [rng.uniform(0.2, 1.0) for _ in range(k)]
    s = sum(w)
    p = [x / s for x in w]
    p[-1] = 1.0 - sum(p[:-1])
    labels = labels if labels is not None else [f"S{i}" for i in range(k)]
    return {"states": list(labels), "p": p}


def reversible_model(rng: random.Random, labels=STATES4) -> tuple[dict, list[float]]:
    """A random reversible generator H[i][j] = s_ij pi_i (column j is the
    source state), with its stationary distribution pi."""
    k = len(labels)
    pi = distribution(rng, k)["p"]
    ex = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            ex[i][j] = ex[j][i] = rng.uniform(0.2, 2.0)
    rows = [[ex[i][j] * pi[i] if i != j else 0.0 for j in range(k)]
            for i in range(k)]
    for j in range(k):
        rows[j][j] = -sum(rows[i][j] for i in range(k) if i != j)
    return {"states": list(labels), "rows": rows}, pi


def random_model(rng: random.Random, labels=STATES4) -> dict:
    """A random irreducible generator, not in general reversible."""
    k = len(labels)
    rows = [[rng.uniform(0.1, 2.0) if i != j else 0.0 for j in range(k)]
            for i in range(k)]
    for j in range(k):
        rows[j][j] = -sum(rows[i][j] for i in range(k) if i != j)
    return {"states": list(labels), "rows": rows}
