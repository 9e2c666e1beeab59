"""The ``algebra`` workload: tree algebra on Newick text, in process.

Each operation takes generated text, calls the program and returns text;
numpy is never imported.  Canonicalization (``PlanarTree.canonical`` inside
``PhyloTree.make``) dominates, so changes to ``trees``, ``operads`` and
``treespace`` show here.
"""

from __future__ import annotations

import random

from phylo import newick, operads, treespace, trees

import gen
import oracle
from oracle import Mismatch, Op, read_newick, summary

SIZES = (8, 16, 32, 64, 128, 256)
SMALL = (8, 32, 128)
CHAIN_STEPS = 16
# Caterpillars this deep are valid trees that the program fails on today
# (RecursionError in serialization and canonicalization).  Their inputs do
# not depend on the seed, so every round fails them the same way.
DEEP_CANON = 400
DEEP_COMPOSE = 300


def _canon(text: str) -> str:
    return newick.serialize_newick(newick.parse_newick(text))


def canon_op(rng: random.Random, t: gen.GTree) -> Op:
    text, twin = gen.newick(t, rng), gen.newick(t, rng)
    want = summary(t)

    def check(out: str) -> None:
        oracle.expect_equal(summary(read_newick(out)), want, "canon")
        if _canon(twin) != out:
            raise Mismatch("canonical bytes change when children are shuffled")

    return Op("canon", lambda: _canon(text), check)


def compose_op(rng: random.Random, a: gen.GTree, b: gen.GTree, i: int,
               cls: str = "compose") -> Op:
    ta, tb = gen.newick(a, rng), gen.newick(b, rng)
    want = oracle.graft(summary(a), i, summary(b))

    def run() -> str:
        return newick.serialize_newick(operads.phylo_compose(
            newick.parse_newick(ta), i, newick.parse_newick(tb)))

    return Op(cls, run, lambda out: oracle.expect_equal(
        summary(read_newick(out)), want, cls))


def random_compose_op(rng: random.Random, n: int, collapse: bool) -> Op:
    a = gen.random_phylo(rng, n // 2)
    b = gen.random_phylo(rng, n // 2 + 1)
    i = rng.randint(1, a.n)
    if collapse:
        # the grafted edge sums to zero and must be contracted
        a.length[i] = 0.0
        b.length[b.root] = 0.0
    return compose_op(rng, a, b, i)


def chain_op(rng: random.Random) -> Op:
    base = gen.random_phylo(rng, 8)
    texts, steps = [gen.newick(base, rng)], []
    want = summary(base)
    for _ in range(CHAIN_STEPS):
        piece = gen.random_phylo(rng, rng.randint(2, 8))
        i = rng.randint(1, want.n)
        want = oracle.graft(want, i, summary(piece))
        texts.append(gen.newick(piece, rng))
        steps.append(i)

    def run() -> str:
        t = newick.parse_newick(texts[0])
        for i, text in zip(steps, texts[1:]):
            t = operads.phylo_compose(t, i, newick.parse_newick(text))
        return newick.serialize_newick(t)

    return Op("chain", run, lambda out: oracle.expect_equal(
        summary(read_newick(out)), want, "chain"))


def act_op(rng: random.Random, n: int) -> Op:
    t = gen.random_phylo(rng, n)
    text, sigma = gen.newick(t, rng), gen.perm(rng, n)
    want = oracle.act(summary(t), sigma)

    def run() -> str:
        return newick.serialize_newick(
            operads.phylo_act(newick.parse_newick(text), sigma))

    return Op("act", run, lambda out: oracle.expect_equal(
        summary(read_newick(out)), want, "act"))


def normal_form_op(rng: random.Random, n: int) -> Op:
    w = gen.weighted(rng, n, unary=n // 4, zero=0.3)
    children = tuple(sorted((v, tuple(cs)) for v, cs in w.kids.items()))
    lengths = dict(w.length)
    want = summary(w, reduce=True)

    def run() -> str:
        shape = trees.PlanarTree(n, w.root, children)
        reduced = operads.normal_form(operads.WeightedTree.make(shape, lengths))
        return newick.serialize_newick(operads.to_phylo(reduced))

    return Op("normal_form", run, lambda out: oracle.expect_equal(
        summary(read_newick(out)), want, "normal_form"))


def decompose_op(rng: random.Random, n: int) -> Op:
    t = gen.random_phylo(rng, n)
    text = gen.newick(t, rng)
    want = summary(t)

    def run() -> tuple[str, list[float], str]:
        m, ext = treespace.decompose(newick.parse_newick(text))
        back = treespace.recompose(m, ext)
        return (newick.serialize_newick(m.tree), list(ext.values),
                newick.serialize_newick(back))

    def check(out) -> None:
        metric, ext, back = out
        oracle.expect_equal(summary(read_newick(metric)),
                            oracle.metric_part(want), "decompose")
        if ext != [want.root, *want.leaf]:
            raise Mismatch("decompose: external lengths differ")
        oracle.expect_equal(summary(read_newick(back)), want, "recompose")

    return Op("decompose", run, check)


def _distance(tx: str, ty: str, mode: str) -> float:
    return treespace.bhv_distance(treespace.MetricTree(newick.parse_newick(tx)),
                                  treespace.MetricTree(newick.parse_newick(ty)),
                                  mode=mode)


def distance_op(rng: random.Random, n: int, compatible: bool) -> Op:
    mode = "exact4" if n == 4 else "cone"
    x, y = gen.metric_pair(rng, n, compatible)
    tx, ty = gen.newick(x, rng), gen.newick(y, rng)
    sx, sy = summary(x), summary(y)

    def check(d: float) -> None:
        oracle.check_distance(d, _distance(ty, tx, mode), sx, sy)

    return Op("dist_" + mode, lambda: _distance(tx, ty, mode), check)


_DEEP: list = []


def deep_ops() -> list[Op]:
    """The two seed-independent operations on deep caterpillars."""
    if not _DEEP:
        rng = random.Random("deep")
        _DEEP.append(canon_op(rng, gen.caterpillar(DEEP_CANON)))
        cat = gen.caterpillar(DEEP_COMPOSE)
        _DEEP.append(compose_op(rng, cat, cat, 1, cls="deep_compose"))
        _DEEP[0].cls = "deep_canon"
    return list(_DEEP)


def round_ops(seed: int, r: int) -> list[Op]:
    """One round: the same operation classes and sizes for every seed and
    round; shapes, lengths, leaves and permutations come from the seed."""
    rng = random.Random(f"algebra:{seed}:{r}")
    ops: list[Op] = []
    for n in SIZES:
        ops += [canon_op(rng, gen.random_phylo(rng, n)),
                canon_op(rng, gen.random_phylo(rng, n)),
                act_op(rng, n), act_op(rng, n),
                random_compose_op(rng, n, False),
                random_compose_op(rng, n, True)]
    ops += [chain_op(rng) for _ in range(4)]
    for n in SMALL:
        ops += [normal_form_op(rng, n), normal_form_op(rng, n),
                decompose_op(rng, n), decompose_op(rng, n),
                distance_op(rng, n, True), distance_op(rng, n, False)]
    ops += [distance_op(rng, 4, c) for c in (True, False, True, False, True, False)]
    ops += deep_ops()
    rng.shuffle(ops)
    return ops


def warmup_ops() -> list[Op]:
    """One small operation of each class, the same in every run."""
    rng = random.Random("warmup")
    return [canon_op(rng, gen.random_phylo(rng, 8)), act_op(rng, 8),
            random_compose_op(rng, 8, False), random_compose_op(rng, 8, True),
            chain_op(rng), normal_form_op(rng, 8), decompose_op(rng, 8),
            distance_op(rng, 8, True), distance_op(rng, 4, False)]
