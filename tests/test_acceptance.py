"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; each
test also enforces its runtime cap.
"""

import math
import random
import time

import numpy as np

from conftest import expm_taylor
from markov_reference import limit_by_doubling, semigroup_defect
from operads_reference import applicable_moves, apply_move, operad_law_suite
from phylo.coalgebra import (
    duplicate_matrix,
    evaluate,
    evaluate_operator,
    marginal,
)
from phylo.markov import (
    Distribution,
    expm,
    jukes_cantor,
    limit_operator,
    simulate_branching,
    validate_generator,
)
from phylo.newick import parse_newick
from phylo.operads import (
    PHYL,
    PhyloTree,
    normal_form,
    phylo_act,
    phylo_compose,
    star,
    to_unit,
)
from phylo.treespace import (
    BasicOpenSet,
    bhv_distance,
    decompose,
    enumerate_binary_topologies,
    enumerate_strata,
    metric_tree,
    neighborhood_contains,
    recompose,
    tree_from_clusters,
)
from phylo.trees import corolla
from sampling import (
    random_metric_on_grid,
    random_perm,
    random_phylo,
    random_weighted,
)

FLIP = validate_generator([[-1.0, 1.0], [1.0, -1.0]], ("a", "b"))


def criterion(name: str, cap_seconds: float):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"\nACCEPTANCE {name}: FAIL ({dt:.2f}s)")
                raise
            dt = time.perf_counter() - t0
            ok = dt < cap_seconds
            print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
                  f" ({dt:.2f}s, cap {cap_seconds:g}s)")
            assert ok, f"runtime {dt:.2f}s exceeds the {cap_seconds:g}s cap"
        run.__name__ = fn.__name__
        return run
    return wrap


@criterion("01 topology census", 1.0)
def test_c01_topology_census():
    from phylo.cli import main
    import io
    import json
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["topologies", "--n", "4"]) == 0
    assert json.loads(buf.getvalue())["count"] == 15

    # independent oracle: leaf insertion multiplies the count by 2n - 3
    counts = {2: 1}
    for n in range(3, 6):
        counts[n] = counts[n - 1] * (2 * n - 3)
    assert counts[5] == 105
    assert len(enumerate_binary_topologies(5)) == counts[5]


@criterion("02 orthant complex structure", 1.0)
def test_c02_t4_structure():
    strata = enumerate_strata(4)
    assert len(strata[2]) == 15
    assert len(strata[1]) == 10
    assert len(strata[0]) == 1


@criterion("03 decomposition round trip", 5.0)
def test_c03_homeomorphism_factors():
    rng = random.Random(303)
    for n in range(1, 7):
        for _ in range(1000):
            t = random_phylo(rng, n)
            m, ext = decompose(t)
            assert recompose(m, ext) == t


@criterion("04 operad laws", 10.0)
def test_c04_operad_laws():
    reports = operad_law_suite(
        PHYL, lambda rng: random_phylo(rng, rng.randint(1, 5)),
        trials=500, seed=404)
    for rep in reports:
        assert rep.checked >= 500, rep.law
        assert rep.passed, (rep.law, rep.failures[:1])


@criterion("05 rewriting confluence", 10.0)
def test_c05_confluence():
    rng = random.Random(505)
    for _ in range(200):
        w = random_weighted(rng)
        forms = set()
        for _ in range(20):
            cur = w
            while True:
                moves = applicable_moves(cur)
                if not moves:
                    break
                cur = apply_move(cur, rng.choice(list(moves)))
            forms.add(cur.canonical()[1])
        assert len(forms) == 1
        assert normal_form(w).canonical()[1] in forms


@criterion("06 Markov analytics", 5.0)
def test_c06_markov_analytics():
    rng = random.Random(606)
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        h = np.array([[rng.uniform(0, 1.5) for _ in range(k)] for _ in range(k)])
        np.fill_diagonal(h, 0.0)
        h -= np.diag(h.sum(axis=0))
        g = validate_generator(h)
        assert semigroup_defect(g, rng.uniform(0, 3), rng.uniform(0, 3)) < 1e-10
        assert np.abs(limit_operator(g).M - limit_by_doubling(g)).max() < 1e-12

    for _ in range(50):
        h = np.array([[rng.uniform(0, 1.0) for _ in range(4)] for _ in range(4)])
        np.fill_diagonal(h, 0.0)
        h -= np.diag(h.sum(axis=0))
        g = validate_generator(h)
        norm = float(np.abs(h).sum(axis=0).max())
        t = rng.uniform(0, 2.0 / norm)
        assert np.abs(expm(g, t).M - expm_taylor(t * h)).max() < 1e-12

    g = jukes_cantor(1.0, 4)
    p = limit_operator(g).M
    assert np.abs(p - 0.25).max() < 1e-8
    assert np.abs(p @ p - p).sum(axis=1).max() < 1e-8
    assert np.abs(p - limit_by_doubling(g)).max() < 1e-12


@criterion("07 coalgebra laws", 30.0)
def test_c07_coalgebra_laws():
    rng = random.Random(707)
    f = Distribution.make(FLIP.states, np.array([0.3, 0.7]))
    for _ in range(100):
        outer = random_phylo(rng, rng.randint(1, 4))
        inner = random_phylo(rng, rng.randint(1, 4))
        i = rng.randint(1, outer.n)
        big = evaluate_operator(phylo_compose(outer, i, inner), FLIP)
        a = evaluate_operator(outer, FLIP)
        b = evaluate_operator(inner, FLIP)
        slotted = np.kron(np.kron(np.eye(2 ** (i - 1)), b),
                          np.eye(2 ** (outer.n - i))) @ a
        assert np.abs(big - slotted).max() < 1e-10

    for _ in range(100):
        t = random_phylo(rng, rng.randint(2, 4))
        sigma = random_perm(rng, t.n)
        op = evaluate_operator(t, FLIP).reshape((2,) * t.n + (2,))
        want = np.transpose(op, tuple(s - 1 for s in sigma)
                            + (t.n,)).reshape(2 ** t.n, 2)
        assert np.array_equal(evaluate_operator(phylo_act(t, sigma), FLIP), want)

    for _ in range(50):
        t = random_phylo(rng, rng.randint(1, 4))
        lt = evaluate(t, FLIP, f)
        for leaf in range(1, t.n + 1):
            length = t.leaf_length(leaf)
            u = leaf
            while t.shape.parent[u] != 0:
                u = t.shape.parent[u]
                length += t.length(u)
            want = expm(FLIP, length).M @ f.p
            assert np.abs(marginal(lt, leaf).p - want).max() < 1e-10


@criterion("08 simulation vs analysis", 10.0)
def test_c08_simulation_total_variation():
    t = PhyloTree.make(corolla(2), {1: 1.0, 2: 0.5, -1: 0.2})
    f = Distribution.uniform(FLIP.states)
    counts = simulate_branching(t, FLIP, f, seed=808, samples=100000)
    emp = counts / counts.sum()
    exact = evaluate(t, FLIP, f).data
    assert 0.5 * float(np.abs(emp - exact).sum()) < 0.02


@criterion("09 extension to infinite time", 5.0)
def test_c09_infinite_time_extension():
    g = jukes_cantor(1.0, 4)
    p = np.asarray(limit_operator(g).M)
    assert np.abs(p - limit_by_doubling(g)).max() < 1e-12
    f = Distribution.point(g.states, "A")

    t = parse_newick("((1:inf,2:inf):0.7,3:inf):inf;", allow_infinite=True)
    got = evaluate(t, g, f).flat
    # oracle: duplicate, then project every leg onto equilibrium
    legs = np.kron(np.kron(p, p), p)
    want = legs @ duplicate_matrix(g.states, 3) @ (p @ f.p)
    assert np.abs(got - want).max() < 1e-8

    for s in (0.25, 1.0, 3.0):
        a = np.asarray(expm(g, s).M)
        assert np.abs(a @ p - p).max() < 1e-8
        assert np.abs(p @ a - p).max() < 1e-8


@criterion("10 length monoid isomorphism", 5.0)
def test_c10_monoid_isomorphism():
    rng = random.Random(1010)
    pairs = [(0.0, 0.0), (0.0, math.inf), (math.inf, math.inf)]
    while len(pairs) < 1000:
        s = math.inf if rng.random() < 0.05 else rng.uniform(0, 8)
        t = math.inf if rng.random() < 0.05 else rng.uniform(0, 8)
        pairs.append((s, t))
    for s, t in pairs:
        assert abs(to_unit(s + t) - star(to_unit(s), to_unit(t))) < 1e-12


@criterion("11 tree-space metric", 60.0)
def test_c11_bhv_metric():
    from gridoracle import GridComplex

    rng = random.Random(1111)
    for _ in range(200):
        x, y, z = (random_metric_on_grid(rng, 4, 0.01, 60) for _ in range(3))
        dxy = bhv_distance(x, y, "exact4")
        assert dxy == bhv_distance(y, x, "exact4")
        assert dxy <= bhv_distance(x, y, "cone") + 1e-15
        assert bhv_distance(x, z, "exact4") <= dxy + bhv_distance(y, z, "exact4") + 1e-9

    grid = GridComplex(radius=0.9, step=0.01, reach=6)
    src = [random_metric_on_grid(rng, 4, 0.01, 60) for _ in range(10)]
    tgt = [random_metric_on_grid(rng, 4, 0.01, 60) for _ in range(10)]
    oracle = grid.distances(src, tgt)
    for i, x in enumerate(src):
        for j, y in enumerate(tgt):
            exact = bhv_distance(x, y, "exact4")
            assert exact <= oracle[i, j] + 1e-9
            assert abs(exact - oracle[i, j]) < 0.02


@criterion("12 neighborhood and limit consistency", 5.0)
def test_c12_collapsing_family():
    def fs(xs):
        return sum(1 << (x - 1) for x in xs)

    limit = metric_tree(4, {fs({1, 2}): 1.0})
    base = tree_from_clusters(4, [fs({1, 2})])
    rng = random.Random(1212)
    last = math.inf
    for s in (0.6, 0.3, 0.15, 0.08, 0.02, 0.005):
        z = metric_tree(4, {fs({1, 2}): 1.0, fs({3, 4}): s})
        d = bhv_distance(z, limit, "exact4")
        assert d < last
        last = d
        assert d == s  # same orthant closure: plain Euclidean gap
        # every basic neighborhood of the limit with resolution radius
        # above s contains the collapsing tree
        for _ in range(20):
            lo = rng.uniform(0.0, 0.99)
            hi = rng.uniform(1.01, 3.0)
            radius = s + rng.uniform(1e-6, 1.0)
            u = BasicOpenSet(base, ((lo, hi),),
                             tuple((-1.0, rng.uniform(0.1, 1.0))
                                   for _ in range(5)),
                             radii=radius)
            assert neighborhood_contains(u, z.tree)
            below = BasicOpenSet(base, ((lo, hi),),
                                 tuple((-1.0, 0.5) for _ in range(5)),
                                 radii=s * rng.uniform(0.05, 0.95))
            assert not neighborhood_contains(below, z.tree)
    assert last <= 0.005
