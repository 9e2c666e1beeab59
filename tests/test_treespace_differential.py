"""The int-mask tree space against the frozenset reference in
``treespace_reference``: the same families, resolutions, laminarity
answers, shapes, orthant positions and distances."""

import random

import pytest

import treespace_reference as ref
from phylo.treespace import (
    TreeSpaceError,
    binary_resolutions,
    bhv_distance,
    cluster_lengths,
    enumerate_binary_topologies,
    enumerate_strata,
    is_laminar,
    leaves,
    orthant_of,
    shape_clusters,
    tree_from_clusters,
)
from sampling import random_metric, random_metric_on_grid, random_shape


def as_set(c):
    return frozenset(leaves(c))


def as_family(fam):
    return frozenset(map(as_set, fam))


def mask(xs):
    return sum(1 << (x - 1) for x in xs)


def random_family(rng, k):
    """Random subsets of 1..n, empty and one-leaf sets included, or the
    union of two random trees' clusters, as the cone distance takes."""
    n = rng.randint(2, 10)
    if k % 2:
        return n, [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                   for _ in range(rng.randint(0, 6))]
    return n, list(ref.shape_clusters(random_shape(rng, n))
                   | ref.shape_clusters(random_shape(rng, n)))


@pytest.mark.parametrize("n", range(2, 8))
def test_binary_families_match(n):
    tops = enumerate_binary_topologies(n)
    old = ref.enumerate_binary_topologies(n)
    assert len(tops) == len(old)
    assert {as_family(o.clusters) for o in tops} == set(old)


@pytest.mark.parametrize("n", range(2, 7))
def test_resolutions_match_on_every_stratum(n):
    strata = enumerate_strata(n)
    old = ref.enumerate_strata(n)
    assert sorted(strata) == sorted(old)
    for k, fams in strata.items():
        assert [as_family(f) for f in fams] == old[k]
        for fam, old_fam in zip(fams, old[k]):
            got = [as_family(o.clusters) for o in binary_resolutions(n, fam)]
            assert got == ref.binary_resolutions(n, old_fam)


def test_laminarity_matches():
    rng = random.Random(29)
    seen = set()
    for k in range(5000):
        _, fam = random_family(rng, k)
        want = ref.is_laminar(fam)
        assert is_laminar([mask(c) for c in fam]) == want
        seen.add(want)
    assert seen == {True, False}


def test_tree_from_clusters_matches():
    rng = random.Random(31)
    built = 0
    for k in range(7000):
        n, fam = random_family(rng, k)
        try:
            want = ref.tree_from_clusters(n, fam)
        except TreeSpaceError:
            with pytest.raises(TreeSpaceError):
                tree_from_clusters(n, [mask(c) for c in fam])
            continue
        assert tree_from_clusters(n, [mask(c) for c in fam]) == want
        built += 1
    assert built > 1000


def test_shape_clusters_match():
    rng = random.Random(37)
    for _ in range(500):
        shape = random_shape(rng, rng.randint(1, 12))
        assert as_family(shape_clusters(shape)) == ref.shape_clusters(shape)


def test_orthant_positions_match():
    rng = random.Random(41)
    for k in range(200):
        n = rng.randint(2, 6)
        m = random_metric(rng, n) if k % 2 else \
            random_metric_on_grid(rng, n, 0.25, 4, clusters=rng.randint(0, n))
        pos = orthant_of(m)
        axes, coords, binary, adjacent = ref.orthant_of(m.tree)
        assert tuple(map(as_set, pos.axes)) == axes
        assert pos.coords == coords
        assert (as_family(pos.orthant.clusters) if pos.orthant else None) == binary
        assert [as_family(o.clusters) for o in pos.adjacent] == list(adjacent)


def _metric_pairs(rng, n, count):
    """Pairs of random metric n-trees: free lengths, grid lengths on all or
    some of the clusters, and one of each."""
    draws = (lambda: random_metric(rng, n),
             lambda: random_metric_on_grid(rng, n, 0.01, 60,
                                           clusters=rng.randint(0, n)))
    return [(rng.choice(draws)(), rng.choice(draws)()) for _ in range(count)]


def test_c11_distances_bitwise_equal():
    # the draws of test_c11_bhv_metric, then more pairs at n = 2, 3 and 4
    rng = random.Random(1111)
    trees = [random_metric_on_grid(rng, 4, 0.01, 60) for _ in range(620)]
    pairs = list(zip(trees, trees[1:]))
    for n in (2, 3, 4):
        pairs += _metric_pairs(random.Random(1112 + n), n, 600)
    linked = 0
    for x, y in pairs:
        xc, yc = ref.cluster_lengths(x.tree), ref.cluster_lengths(y.tree)
        assert cluster_lengths(x.tree) == {mask(c): v for c, v in xc.items()}
        for mode in ("exact4", "cone"):
            assert bhv_distance(x, y, mode) == ref.bhv_distance(x.n, xc, yc, mode)
        linked += ref._common_orthant_distance(xc, yc) is None
    assert linked > 300  # pairs whose geodesic crosses the link
