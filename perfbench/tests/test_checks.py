"""The benchmark's independent checks against hand-worked cases.

Run from the repository root:  python -m pytest perfbench/tests
"""

import math
import random

import numpy as np
import pytest

import cli_calls
import gen
import markov_oracle as mo
import oracle
from oracle import Mismatch, read_newick, summary

TREE = "((1:0.5,2:0.25):1,3:0.125):0.5;"


def test_summary_by_hand():
    s = summary(read_newick(TREE))
    assert s.n == 3 and s.root == 0.5
    assert s.depth == (2.0, 1.75, 0.625)
    assert s.leaf == (0.5, 0.25, 0.125)
    assert s.clusters == {frozenset({1, 2}): 1.0}


def test_summary_ignores_child_order_and_spacing():
    shuffled = "( 3:0.125 , (2:0.25,1:0.5):1 ):0.5;"
    assert summary(read_newick(shuffled)) == summary(read_newick(TREE))


def test_strict_summary_rejects_invalid_trees():
    t = gen.GTree(2, -1, {-1: [-2, 2], -2: [1]},
                  {-1: 0.0, -2: 0.25, 1: 0.5, 2: 0.0})
    with pytest.raises(Mismatch):
        summary(t)                       # unary vertex
    with pytest.raises(Mismatch):
        summary(read_newick("((1:1,2:1):0,3:1):0.5;"))   # zero internal edge


def test_graft_by_hand():
    a = summary(read_newick("(1:0.25,2:0.5):0.125;"))
    b = summary(read_newick("(1:1,2:2):0.75;"))
    want = summary(read_newick("(1:0.25,(2:1,3:2):1.25):0.125;"))
    assert oracle.graft(a, 2, b) == want
    assert want.depth == (0.375, 2.375, 3.375)


def test_graft_collapses_a_zero_edge():
    a = summary(read_newick("(1:0.25,2:0):0.125;"))
    b = summary(read_newick("(1:1,2:2):0;"))
    assert oracle.graft(a, 2, b) == summary(read_newick("(1:0.25,2:1,3:2):0.125;"))


def test_act_by_hand():
    # sigma = (2, 3, 1): leaf k becomes sigma^-1(k), so 1 -> 3, 2 -> 1, 3 -> 2
    got = oracle.act(summary(read_newick(TREE)), [2, 3, 1])
    assert got == summary(read_newick("((3:0.5,1:0.25):1,2:0.125):0.5;"))


def test_normal_form_by_hand():
    # a unary vertex above leaf 1 and zero root length
    w = gen.GTree(2, -1, {-1: [-2, 2], -2: [1]},
                  {-1: 0.0, -2: 0.25, 1: 0.5, 2: 0.0})
    assert summary(w, reduce=True) == summary(read_newick("(1:0.75,2:0):0;"))
    zero = read_newick("((1:1,2:1):0,3:1):0.5;")
    assert summary(zero, reduce=True) == summary(read_newick("(1:1,2:1,3:1):0.5;"))
    # a unary chain above the root vertex adds to the root edge
    chain = gen.GTree(2, -2, {-2: [-1], -1: [1, 2]},
                      {-2: 0.25, -1: 0.5, 1: 1.0, 2: 1.0})
    assert summary(chain, reduce=True) == summary(read_newick("(1:1,2:1):0.75;"))


def test_metric_part_by_hand():
    want = summary(read_newick("((1:0,2:0):1,3:0):0;"))
    assert oracle.metric_part(summary(read_newick(TREE))) == want


def test_laminar():
    f = frozenset
    assert oracle.laminar([f({1, 2}), f({1, 2, 3}), f({4, 5})])
    assert not oracle.laminar([f({1, 2}), f({2, 3})])
    assert oracle.laminar([f({1, 2}), f({1, 2})])


def test_distance_checks():
    x = summary(read_newick("((1:0,2:0):3,3:0,4:0):0;"))
    y = summary(read_newick("((1:0,2:0):1,(3:0,4:0):2):0;"))
    oracle.check_distance(math.sqrt(8.0), math.sqrt(8.0), x, y)
    with pytest.raises(Mismatch):
        oracle.check_distance(3.0, 3.0, x, y)          # not Euclidean
    z = summary(read_newick("((2:0,3:0):4,1:0,4:0):0;"))  # incompatible with x
    oracle.check_distance(5.0, 5.0, x, z)              # inside [1, 7]
    with pytest.raises(Mismatch):
        oracle.check_distance(0.5, 0.5, x, z)
    with pytest.raises(Mismatch):
        oracle.check_distance(5.0, 6.0, x, z)          # not symmetric


def test_binary_families():
    assert len(oracle.binary_families(4)) == 15
    fams = oracle.binary_families(5)
    assert len(fams) == 105
    assert all(len(f) == 3 and oracle.laminar(f) for f in fams)


def test_topology_check_reads_shape_strings():
    doc = '{"n": 3, "count": 3, "topologies": ["((1,2),3)", "((1,3),2)", "(1,(2,3))"]}'
    old = cli_calls.TOPOLOGY_N, cli_calls._FAMILIES
    try:
        cli_calls.TOPOLOGY_N, cli_calls._FAMILIES = 3, oracle.binary_families(3)
        cli_calls.check_topologies(doc)
        with pytest.raises(Mismatch):
            cli_calls.check_topologies(doc.replace("(1,(2,3))", "((1,2),3)"))
    finally:
        cli_calls.TOPOLOGY_N, cli_calls._FAMILIES = old


def test_generated_text_reads_back():
    rng = random.Random(3)
    for n in (2, 7, 64):
        t = gen.random_phylo(rng, n)
        assert summary(read_newick(gen.newick(t, rng))) == summary(t)
    w = gen.weighted(rng, 9, unary=4, zero=0.5)
    doc = gen.weighted_json(w)
    assert set(doc) <= {"children", "length"}


def test_import_times():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        100 |   numpy.core\n"
           "import time:       200 |      70000 |     numpy\n"
           "import time:       300 |      90000 |   phylo.markov\n"
           "import time:       400 |      95000 | phylo.coalgebra\n"
           "import time:       500 |      10000 | phylo\n"
           "import time:       600 |        600 | json\n")
    numpy_s, phylo_s = cli_calls.import_times(err)
    assert numpy_s == pytest.approx(0.07)
    assert phylo_s == pytest.approx(0.095 + 0.010 - 0.07)


# ---------------------------------------------------------------------------
# the Markov checks
# ---------------------------------------------------------------------------

FLIP = [[-1.0, 1.0], [1.0, -1.0]]


def test_transitions_two_state_closed_form():
    t = 0.3
    a, b = (1 + math.exp(-2 * t)) / 2, (1 - math.exp(-2 * t)) / 2
    want = np.array([[a, b], [b, a]])
    assert np.allclose(mo.Transitions(FLIP)(t), want, atol=1e-15)
    assert np.allclose(mo.Transitions(FLIP, mu=1.0)(t), want, atol=1e-15)


def test_transitions_jc_matches_eigendecomposition():
    doc = gen.jc_model(0.5)
    for t in (0.0, 0.125, 1.0, 3.0):
        assert np.allclose(mo.Transitions(doc["rows"], mu=0.5)(t),
                           mo.Transitions(doc["rows"])(t), atol=1e-14)


def test_reversible_transitions_are_stochastic_and_multiplicative():
    doc, pi = gen.reversible_model(random.Random(1))
    P = mo.Transitions(doc["rows"])
    assert np.allclose(P.pi, pi, atol=1e-12)
    assert np.allclose(P(0.5).sum(axis=0), 1.0, atol=1e-14)
    assert np.allclose(P(0.25) @ P(0.25), P(0.5), atol=1e-14)
    assert np.allclose(P(math.inf), np.outer(pi, np.ones(4)), atol=1e-12)


def test_stationary_by_hand():
    # state 0 -> 1 at rate 1, state 1 -> 0 at rate 2
    assert np.allclose(mo.stationary(np.array([[-1.0, 2.0], [1.0, -2.0]])),
                       [2 / 3, 1 / 3], atol=1e-15)


def test_pruned_cherry_by_hand():
    t = 0.4
    a, b = (1 + math.exp(-2 * t)) / 2, (1 - math.exp(-2 * t)) / 2
    tree = read_newick(f"(1:{t},2:{t}):0;")
    P, f = mo.Transitions(FLIP), np.array([0.5, 0.5])
    assert mo.pruned_entry(tree, P, f, (0, 0)) == pytest.approx(0.5 * (a * a + b * b))
    assert mo.pruned_entry(tree, P, f, (0, 1)) == pytest.approx(a * b)
    data = np.array([[0.5 * (a * a + b * b), a * b], [a * b, 0.5 * (a * a + b * b)]])
    mo.check_tensor(data, tree, P, f, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(Mismatch):
        mo.check_tensor(data + np.array([[1e-3, -1e-3], [0, 0]]), tree, P, f, [(0, 0)])
    with pytest.raises(Mismatch):
        mo.check_tensor(data * 1.01, tree, P, f, [])          # mass
    assert np.allclose(mo.leaf_marginals(tree, P, f), 0.5)


def test_check_limit():
    H = np.array([[-1.0, 2.0], [1.0, -2.0]])
    M = np.array([[2 / 3, 2 / 3], [1 / 3, 1 / 3]])
    mo.check_limit(M, H)
    with pytest.raises(Mismatch):
        mo.check_limit(M + np.array([[1e-6, 0], [-1e-6, 0]]), H)


def test_check_counts_band():
    tree = read_newick("(1:0.25,2:0.5):0.125;")
    P, f = mo.Transitions(FLIP), np.array([0.75, 0.25])
    m = mo.leaf_marginals(tree, P, f)
    n = 10000
    exact = np.round(np.outer(m[0], m[1]) * n).astype(int)
    exact[0, 0] += n - exact.sum()
    mo.check_counts(exact, tree, P, f, n)
    skewed = np.array([[n, 0], [0, 0]])
    with pytest.raises(Mismatch):
        mo.check_counts(skewed, tree, P, f, n)
