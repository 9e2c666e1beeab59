"""``PhyloTree.make`` validates and keeps the tree as built; its canonical
form is computed on first read.

A differential check against trees built eagerly from canonical fields,
accessor by accessor, each read first on a fresh tree; composition and the
leaf action on trees as built against the same on canonical forms; bad
input still refused inside ``make``; and a count of ``PlanarTree.canonical``
calls that guards the mechanism.
"""

import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import phylo
from conftest import balanced_newick, caterpillar
from phylo.cli import main
from phylo.coalgebra import evaluate, evaluate_operator
from phylo.markov import Distribution, validate_generator
from phylo.newick import parse_newick, serialize_newick
from phylo.operads import PhyloInvariantError, PhyloTree, phylo_act, phylo_compose
from phylo.trees import PlanarTree, corolla
from phylo.treespace import (
    BasicOpenSet,
    MetricTree,
    bhv_distance,
    cluster_lengths,
    decompose,
    metric_tree,
    neighborhood_contains,
    orthant_of,
    recompose,
    tree_from_clusters,
)
from sampling import random_perm, random_shape

# few distinct lengths, so siblings often tie on their length text
LENGTHS = (0.25, 0.5, 0.75, 1.0, 1.5)


def eager(shape: PlanarTree, lens: dict) -> PhyloTree:
    """The tree canonicalized at construction and built from its fields."""
    canon, _, by_node = shape.canonical("unordered", labels=lens)
    packed = [by_node[j] for j in range(1, shape.n + 1)]
    packed += [by_node[-j] for j in range(1, canon.num_vertices + 1)]
    return PhyloTree(canon, tuple(packed))


def shuffled_newick(shape: PlanarTree, lens: dict, rng: random.Random) -> str:
    """Newick text of the tree with every vertex's children shuffled."""

    def render(u: int) -> str:
        tail = f":{lens[u]!r}"
        if u > 0:
            return f"{u}{tail}"
        kids = list(shape.child_map[u])
        rng.shuffle(kids)
        return "(" + ",".join(render(c) for c in kids) + ")" + tail

    return render(shape.root) + ";"


def random_lengths(rng: random.Random, shape: PlanarTree,
                   extended: bool) -> dict:
    lens = {u: rng.choice(LENGTHS) for u in shape.nodes}
    for u in shape.nodes:
        if not shape.is_internal_edge(u) and rng.random() < 0.3:
            lens[u] = 0.0
    if extended:
        lens[rng.randint(1, shape.n)] = math.inf
    return lens


def corpus(seed: int) -> list[tuple[PlanarTree, dict, bool]]:
    rng = random.Random(seed)
    shapes = [random_shape(rng, rng.randint(1, 12)) for _ in range(40)]
    shapes += [caterpillar(d) for d in (1, 2, 7, 40)]
    shapes += [parse_newick(balanced_newick(n)).shape for n in (3, 16, 33)]
    shapes += [corolla(n) for n in (2, 5)]
    return [(s, random_lengths(rng, s, extended), extended)
            for s in shapes for extended in (False, rng.random() < 0.2)]


CASES = corpus(1801)

ACCESSORS = {
    "shape": lambda t, e: t.shape,
    "lengths": lambda t, e: t.lengths,
    "length": lambda t, e: [t.length(u) for u in e.shape.nodes],
    "length_map": lambda t, e: t.length_map(),
    "external_lengths": lambda t, e: t.external_lengths(),
    "leaf_length": lambda t, e: [t.leaf_length(i) for i in range(1, e.n + 1)],
    "root_length": lambda t, e: t.root_length,
    "is_extended": lambda t, e: t.is_extended,
    "n": lambda t, e: t.n,
    "eq": lambda t, e: (t == e, e == t, t != e),
    "hash": lambda t, e: hash(t),
    "repr": lambda t, e: repr(t),
    "serialize_newick": lambda t, e: serialize_newick(t),
    "with_external": lambda t, e: t.with_external(
        (0.125,) * len(e.external_lengths())),
}


@pytest.mark.parametrize("name", ACCESSORS)
def test_every_first_read_matches_the_eager_tree(name):
    read = ACCESSORS[name]
    rng = random.Random(name)
    for shape, lens, extended in CASES:
        e = eager(shape, lens)
        twins = [PhyloTree.make(shape, lens, extended=extended),
                 parse_newick(shuffled_newick(shape, lens, rng), extended),
                 parse_newick(shuffled_newick(shape, lens, rng), extended)]
        want = read(e, e)
        for t in twins:
            assert "shape" not in vars(t)
            assert read(t, e) == want


def test_shuffled_twins_are_one_value():
    rng = random.Random(5)
    for shape, lens, extended in CASES:
        a = parse_newick(shuffled_newick(shape, lens, rng), extended)
        b = parse_newick(shuffled_newick(shape, lens, rng), extended)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_shuffled_twins_evaluate_to_the_same_bits():
    # the evaluation reads the canonical representative, so the child order
    # of the text moves no bit, ties among three or more siblings included
    g = validate_generator([[-1.0, 0.5, 0.25], [0.75, -1.0, 0.75],
                            [0.25, 0.5, -1.0]])
    f = Distribution.make(g.states, [0.25, 0.5, 0.25])
    rng = random.Random(17)
    for shape, lens, extended in CASES:
        if shape.n > 9:
            continue
        a = parse_newick(shuffled_newick(shape, lens, rng), extended)
        b = parse_newick(shuffled_newick(shape, lens, rng), extended)
        assert np.array_equal(evaluate(a, g, f).data, evaluate(b, g, f).data)
        assert np.array_equal(evaluate_operator(a, g), evaluate_operator(b, g))


def _collapsing(lens: dict, i: int, inner: PlanarTree,
                inner_lens: dict) -> tuple[dict, dict]:
    """Copies of the lengths with the grafted edge summing to zero."""
    lens, inner_lens = dict(lens), dict(inner_lens)
    lens[i] = inner_lens[inner.root] = 0.0
    return lens, inner_lens


def test_compose_and_act_on_trees_as_built_match_canonical_forms():
    rng = random.Random(11)
    for k, (shape, lens, extended) in enumerate(CASES):
        inner, inner_lens, inner_extended = rng.choice(CASES)
        i = rng.randint(1, shape.n)
        if k % 2:
            lens, inner_lens = _collapsing(lens, i, inner, inner_lens)
        built = [PhyloTree.make(shape, lens, extended),
                 PhyloTree.make(inner, inner_lens, inner_extended)]
        canon = [eager(shape, lens), eager(inner, inner_lens)]
        got = phylo_compose(built[0], i, built[1])
        want = phylo_compose(canon[0], i, canon[1])
        assert got == want and serialize_newick(got) == serialize_newick(want)
        assert phylo_compose(built[0], i, canon[1]) == want

        sigma = random_perm(rng, shape.n)
        got = phylo_act(built[0], sigma)
        want = phylo_act(canon[0], sigma)
        assert got == want and serialize_newick(got) == serialize_newick(want)


def test_a_chain_of_grafts_matches_canonical_forms_at_every_step():
    rng = random.Random(12)
    finite = [c for c in CASES if not c[2]]
    built = canon = eager(*finite[0][:2])
    for _ in range(16):
        shape, lens, _ = rng.choice(finite)
        i = rng.randint(1, built.n)
        built = phylo_compose(built, i, PhyloTree.make(shape, lens))
        step = phylo_compose(canon, i, eager(shape, lens))
        canon = eager(step.shape, step.length_map())
        assert built == canon
    assert serialize_newick(built) == serialize_newick(canon)


@pytest.mark.parametrize("shape, lens", [
    (PlanarTree(2, -1, ((-1, (-2,)), (-2, (1, 2)))),
     {1: 0.5, 2: 0.5, -1: 0.5, -2: 0.5}),                      # arity 1
    (caterpillar(2), {1: 0.5, 2: 0.5, 3: 0.5, -1: 0.0, -2: 0.0}),  # zero internal
    (corolla(2), {1: math.nan, 2: 0.5, -1: 0.0}),
    (corolla(2), {1: True, 2: 0.5, -1: 0.0}),
    (corolla(2), {1: math.inf, 2: 0.5, -1: 0.0}),              # not extended
    (corolla(2), {1: 0.5, -1: 0.0}),                           # edge not covered
])
def test_bad_input_is_refused_inside_make(shape, lens):
    with pytest.raises(PhyloInvariantError):
        PhyloTree.make(shape, lens)


@pytest.fixture
def canonical_calls(monkeypatch):
    calls = []
    real = PlanarTree.canonical

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PlanarTree, "canonical", counted)
    return calls


def test_canonical_runs_once_per_tree_on_first_read(canonical_calls):
    rng = random.Random(16)
    finite = [c for c in CASES if not c[2]]
    texts = [shuffled_newick(s, lens, rng) for s, lens, _ in rng.sample(finite, 17)]
    pieces = [parse_newick(text) for text in texts]
    assert canonical_calls == []

    t = pieces[0]
    for piece in pieces[1:]:       # a chain of 16 grafts
        t = phylo_compose(t, rng.randint(1, t.n), piece)
    t = phylo_act(t, random_perm(rng, t.n))
    assert canonical_calls == []

    text = serialize_newick(t)
    assert canonical_calls == [t.n]
    assert serialize_newick(t) == text
    hash(t)
    assert canonical_calls == [t.n]
    assert t == parse_newick(text)   # the tree read back canonicalizes once
    assert canonical_calls == [t.n, t.n]


def test_a_decompose_round_trip_canonicalizes_once_per_printed_tree(
        canonical_calls):
    text = "(((1:0.5,2:0.25):1,3:0):2,(4:0.125,5:0.375):0.5):0.0625;"
    m, ext = decompose(parse_newick(text))
    assert serialize_newick(m.tree) == "((4:0,5:0):0.5,(3:0,(1:0,2:0):1):2):0;"
    assert serialize_newick(recompose(m, ext)) == \
        "((4:0.125,5:0.375):0.5,(3:0,(2:0.25,1:0.5):1):2):0.0625;"
    assert canonical_calls == [5, 5]


def test_distances_read_the_tree_as_built(canonical_calls):
    x = MetricTree(parse_newick("((1:0,2:0):1,(3:0,4:0):0.5,5:0):0;"))
    y = MetricTree(parse_newick("((1:0,3:0):1,(2:0,4:0):0.25,5:0):0;"))
    assert cluster_lengths(x.tree) == {0b00011: 1.0, 0b01100: 0.5}
    assert bhv_distance(x, y, "cone") == math.sqrt(1.25) + math.sqrt(1.0625)
    assert canonical_calls == []


def test_orthants_and_neighborhoods_read_the_tree_as_built(canonical_calls):
    binary = MetricTree(parse_newick("((1:0,2:0):1,((3:0,4:0):0.5,5:0):0.25):0;"))
    wide = MetricTree(parse_newick("((1:0,2:0):1,(3:0,4:0):0.5,5:0):0;"))
    assert orthant_of(binary).orthant is not None
    assert orthant_of(wide).orthant is None and len(orthant_of(wide).adjacent) == 3
    u = BasicOpenSet(tree_from_clusters(5, [0b00011]), ((0.5, 1.5),),
                     ((-1.0, 0.5),) * 6)
    assert neighborhood_contains(u, binary.tree)
    assert not neighborhood_contains(u, wide.tree)
    assert neighborhood_contains(u, metric_tree(5, {0b00011: 1.0}).tree)
    assert canonical_calls == []


CLI_FILES = {
    "t.nwk": "(((1:0.5,2:0.25):1,3:0):2,(4:0.125,5:0.375):0.5):0.0625;",
    "x.nwk": "((1:0,2:0):1,(3:0,4:0):0.5):0;",
    "y.nwk": "((1:0,3:0):1,(2:0,4:0):0.25):0;",
    "f.json": json.dumps({"metric": "((1:0,2:0):1,3:0):0;",
                          "external": [0.5, 0.25, 0.0, 1.0]}),
    "w.json": json.dumps({"length": 0, "children": [
        {"length": 0.5, "children": [{"leaf": 1, "length": 0.5}]},
        {"length": 0.25, "children": [{"leaf": 2, "length": 0},
                                      {"leaf": 3, "length": 0.75}]}]}),
    "H.json": json.dumps({"states": ["a", "b"],
                          "rows": [[-1.0, 1.0], [1.0, -1.0]]}),
    "p.json": json.dumps({"states": ["a", "b"], "p": [0.25, 0.75]}),
}


@pytest.mark.parametrize("argv, calls", [
    ("validate t.nwk", 0),
    ("dist --mode exact4 x.nwk y.nwk", 0),
    ("dist --mode cone x.nwk y.nwk", 0),
    ("topologies --n 5", 0),
    ("wcheck t.nwk", 0),
    ("limit --model H.json", 0),
    ("jc --mu 1 --k 4", 0),
    ("canon t.nwk", 1),
    ("compose --at 2 t.nwk x.nwk", 1),
    ("act --perm 2,3,1,5,4 t.nwk", 1),
    ("decompose t.nwk", 1),
    ("recompose f.json", 1),
    ("simulate --model H.json --root p.json --seed 3 --samples 20 t.nwk", 1),
    # normal_form returns the canonical representative, then the tree prints
    ("reduce w.json", 2),
    # the evaluation runs bottom-up over the canonical representative
    ("evaluate --model H.json --root p.json t.nwk", 1),
], ids=lambda v: v.replace(" ", "_") if isinstance(v, str) else None)
def test_canonical_calls_per_subcommand(canonical_calls, capsys, monkeypatch,
                                        tmp_path, argv, calls):
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0, capsys.readouterr().err
    assert len(canonical_calls) == calls


def test_only_known_modules_read_the_stored_tree():
    # PhyloTree keeps the tree as built in _rep and _rep_lengths.  Outside
    # operads, cli counts its internal edges and treespace reads its
    # clusters there; any other reader must be added here on purpose.
    root = Path(phylo.__file__).resolve().parent.parent.parent
    readers = set()
    for path in sorted([*(root / "src" / "phylo").glob("*.py"),
                        *(root / "perfbench").glob("*.py"),
                        *(root / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.value if isinstance(node, ast.Constant) else None
            if name in ("_rep", "_rep_lengths"):
                readers.add((path.relative_to(root).as_posix(), name))
    assert {r for r in readers if r[0] != "src/phylo/operads.py"} == {
        ("src/phylo/cli.py", "_rep"),
        ("src/phylo/treespace.py", "_rep"),
        ("src/phylo/treespace.py", "_rep_lengths"),
    }
