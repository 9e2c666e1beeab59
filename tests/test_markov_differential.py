"""Differential test of the compacted jump chain ``phylo.markov._evolve``
against the whole-batch chain it replaced (``markov_reference``): on seeded
generators with 1 to 6 states, and with 16 and 64 states, some with states
of rate 0, both give the same states and leave the random generator in the
same state after every call, also when the jump lookup runs in blocks, and
neither writes to its start states."""

from pathlib import Path

import numpy as np

import markov_reference
import phylo
from phylo import markov

LENGTHS = (0.0, 1e-9, 0.5, 3.0)
SEEDS = range(200)
LARGE_SEEDS = range(20)


def _generator(rng: np.random.Generator, s: int) -> np.ndarray:
    """A rate matrix with zero column sums; about a third of the
    off-diagonal rates are zero, and some columns are zero throughout."""
    H = rng.exponential(rng.choice([0.25, 1.0, 4.0]), size=(s, s))
    H[rng.random((s, s)) < 0.3] = 0.0
    H[:, rng.random(s) < 0.25] = 0.0
    np.fill_diagonal(H, 0.0)
    np.fill_diagonal(H, -H.sum(axis=0))
    return H


def _edges(seed: int):
    """The rate matrix and start states of one seed."""
    rng = np.random.default_rng([13, seed])
    s = seed % 6 + 1
    H = _generator(rng, s)
    samples = int(np.exp(rng.uniform(0.0, np.log(5000.0)))) if seed % 10 else 5000
    start = rng.integers(0, s, size=samples)
    return H, start


def _large_edges(seed: int):
    """The rate matrix and start states of one seed with 16 or 64 states.
    The rates are divided by the state count, a power of two, so the
    columns still sum to zero and the exit rates stay near the small ones."""
    rng = np.random.default_rng([29, seed])
    s = (16, 64)[seed % 2]
    H = _generator(rng, s) / s
    samples = int(np.exp(rng.uniform(0.0, np.log(2000.0))))
    start = rng.integers(0, s, size=samples)
    return H, start


def test_same_states_and_generator_state_on_every_call():
    cases = [(seed, *_edges(seed)) for seed in SEEDS]
    cases += [(seed, *_large_edges(seed)) for seed in LARGE_SEEDS]
    for seed, H, start in cases:
        rates, table = markov._jump_table(H)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        x = y = start
        for t in LENGTHS:
            # simulate_branching hands one parent's states to every child edge
            given = x.copy()
            out = markov._evolve(ours, rates, table, x, t)
            assert np.array_equal(x, given), (seed, H.shape[0], t)
            x = out
            y = markov_reference._evolve(theirs, H, y, t)
            assert x.dtype == y.dtype == np.int64, (seed, t)
            assert np.array_equal(x, y), (seed, H.shape[0], t)
            assert ours.bit_generator.state == theirs.bit_generator.state, (seed, t)


def test_lookup_in_blocks_gives_the_same_states(monkeypatch):
    # a cap of 100 table entries splits the jump lookup of every round with
    # more than 100 / (s - 1) moving samples into blocks
    monkeypatch.setattr(markov, "TENSOR_CAP", 100)
    test_same_states_and_generator_state_on_every_call()


def test_short_kernel_jumps_to_the_last_state():
    # off-diagonal rates summing to half the exit rate leave half of every
    # jump past the last cumulative entry; both chains clip it to state s-1
    H = np.array([[-2.0, 0.5, 0.5], [0.5, -2.0, 0.5], [0.5, 0.5, -2.0]])
    rates, table = markov._jump_table(H)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    x = markov._evolve(ours, rates, table, np.zeros(2000, dtype=np.int64), 0.5)
    y = markov_reference._evolve(theirs, H, np.zeros(2000, dtype=np.int64), 0.5)
    assert np.array_equal(x, y) and x.max() == 2
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_every_size_and_absorbing_state_is_covered():
    sizes, absorbing, samples = set(), 0, set()
    for seed in SEEDS:
        H, start = _edges(seed)
        sizes.add(H.shape[0])
        absorbing += H.shape[0] > 1 and not (np.diag(H) < 0).all()
        samples.add(start.size)
    assert sizes == set(range(1, 7))
    assert absorbing >= 30
    assert min(samples) == 1 and max(samples) == 5000
    large = [_large_edges(seed)[0] for seed in LARGE_SEEDS]
    assert {H.shape[0] for H in large} == {16, 64}
    assert all((np.diag(H) < 0).any() and not (np.diag(H) < 0).all() for H in large)


def test_source_does_not_import_the_reference():
    src = Path(phylo.__file__).resolve().parent
    assert not [p for p in src.rglob("*.py") if "markov_reference" in p.read_text()]
