"""The ``likelihood`` workload: Markov evaluation of small trees, in process.

Each operation reads a generated Newick tree and JSON model documents and
calls the coalgebra or Markov layer.  ``expm`` and the dense tensor build
dominate, so push-forward evaluation, an ``expm`` cache or a vectorized
``_evolve`` show here; a canonicalizer change should not.  Half of the
evaluated trees draw their lengths from four values, so (generator, length)
pairs repeat inside a tree; the other half draw from 2033 values.
"""

from __future__ import annotations

import random

import numpy as np
from phylo import coalgebra, markov, newick

import gen
import markov_oracle as mo
from oracle import Op

STATES16 = [a + b for a in gen.STATES4 for b in gen.STATES4]
ENTRY_SAMPLES = 8
SIM_SAMPLES = 4000


def _model(rng: random.Random, jc: bool) -> tuple[dict, mo.Transitions]:
    if jc:
        mu = rng.choice((0.25, 0.5, 1.0))
        doc = gen.jc_model(mu)
        return doc, mo.Transitions(doc["rows"], mu=mu)
    doc, _ = gen.reversible_model(rng)
    return doc, mo.Transitions(doc["rows"])


def _entries(rng: random.Random, n: int, s: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(s) for _ in range(n)) for _ in range(ENTRY_SAMPLES)]


def evaluate_op(rng: random.Random, n: int, jc: bool, fine: bool) -> Op:
    model, P = _model(rng, jc)
    root = gen.distribution(rng, 4, gen.STATES4)
    t = gen.random_phylo(rng, n, fine=fine)
    text = gen.newick(t, rng)
    idx = _entries(rng, n, 4)

    def run() -> np.ndarray:
        g = markov.generator_from_json(model)
        f = markov.distribution_from_json(root)
        return coalgebra.evaluate(newick.parse_newick(text), g, f).data

    return Op("evaluate_jc" if jc else "evaluate_rev", run,
              lambda data: mo.check_tensor(data, t, P, np.array(root["p"]), idx))


def site_product_op(rng: random.Random, n: int, jc: bool) -> Op:
    model, _ = _model(rng, jc)
    P = mo.Transitions(model["rows"], mu=model["rows"][1][0] if jc else None,
                       sites=2)
    root = gen.distribution(rng, 16, STATES16)
    t = gen.random_phylo(rng, n)
    text = gen.newick(t, rng)
    idx = _entries(rng, n, 16)

    def run() -> np.ndarray:
        g = markov.site_product(markov.generator_from_json(model), 2)
        f = markov.distribution_from_json(root)
        return coalgebra.evaluate(newick.parse_newick(text), g, f).data

    return Op("evaluate_sites", run,
              lambda data: mo.check_tensor(data, t, P, np.array(root["p"]), idx))


def extended_op(rng: random.Random, n: int) -> Op:
    model, P = _model(rng, False)
    root = gen.distribution(rng, 4, gen.STATES4)
    t = gen.random_phylo(rng, n)
    for j in rng.sample(range(1, n + 1), n // 2):
        t.length[j] = float("inf")
    text = gen.newick(t, rng)
    idx = _entries(rng, n, 4)

    def run() -> np.ndarray:
        g = markov.generator_from_json(model)
        f = markov.distribution_from_json(root)
        tree = newick.parse_newick(text, allow_infinite=True)
        return coalgebra.evaluate_extended(tree, g, f).data

    return Op("evaluate_extended", run,
              lambda data: mo.check_tensor(data, t, P, np.array(root["p"]), idx))


def limit_op(rng: random.Random) -> Op:
    model = gen.random_model(rng)

    def run() -> np.ndarray:
        return markov.limit_operator(markov.generator_from_json(model)).M

    return Op("limit", run, lambda M: mo.check_limit(M, model["rows"]))


def simulate_op(rng: random.Random, n: int) -> Op:
    model, P = _model(rng, n % 2 == 0)
    root = gen.distribution(rng, 4, gen.STATES4)
    t = gen.random_phylo(rng, n)
    text = gen.newick(t, rng)
    seed = rng.randrange(2 ** 31)

    def run() -> np.ndarray:
        g = markov.generator_from_json(model)
        f = markov.distribution_from_json(root)
        return markov.simulate_branching(newick.parse_newick(text), g, f,
                                         seed=seed, samples=SIM_SAMPLES)

    return Op("simulate", run, lambda counts: mo.check_counts(
        counts, t, P, np.array(root["p"]), SIM_SAMPLES))


def round_ops(seed: int, r: int) -> list[Op]:
    """One round: fixed classes and sizes, seeded trees and models."""
    rng = random.Random(f"likelihood:{seed}:{r}")
    ops: list[Op] = []
    for n in range(4, 10):
        ops += [evaluate_op(rng, n, jc=True, fine=n % 2 == 1),
                evaluate_op(rng, n, jc=False, fine=n % 2 == 0)]
    ops += [site_product_op(rng, n, jc=n != 3) for n in (2, 3, 4)]
    ops += [extended_op(rng, n) for n in (4, 6, 8)]
    ops += [limit_op(rng) for _ in range(4)]
    ops += [simulate_op(rng, n) for n in (3, 4, 5)]
    rng.shuffle(ops)
    return ops


def warmup_ops() -> list[Op]:
    rng = random.Random("warmup")
    return [evaluate_op(rng, 4, True, False), evaluate_op(rng, 4, False, True),
            site_product_op(rng, 2, True), extended_op(rng, 4), limit_op(rng),
            simulate_op(rng, 3)]
