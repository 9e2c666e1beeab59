"""Every library entry point that reads a slot, a leaf index or an arity
refuses anything but an int with its own ``PhyloError`` subclass: a float
or a bool is never read as the int it equals, and nothing ends in a bare
``KeyError`` or ``TypeError``."""

import pytest

from phylo.coalgebra import (
    BadArity,
    IndexOutOfRange,
    duplicate,
    duplicate_matrix,
    marginal,
)
from phylo.markov import Distribution, StateSpace
from phylo.newick import parse_newick
from phylo.operads import COM, PHYL, PLANAR_TREES, phylo_compose
from phylo.trees import LeafIndexOutOfRange, corolla

A = parse_newick("(1:0.5,2:0.25):1;")
B = parse_newick("(1:1,2:2):0.5;")
F = Distribution.make(StateSpace(("a", "b")), [0.25, 0.75])

# reader of an index, and the error it raises on a bad one
READERS = {
    "graft_renaming": (lambda i: corolla(2).graft_renaming(i, corolla(2)),
                       LeafIndexOutOfRange),
    "PlanarTree.graft": (lambda i: corolla(2).graft(i, corolla(2)),
                         LeafIndexOutOfRange),
    "phylo_compose": (lambda i: phylo_compose(A, i, B), LeafIndexOutOfRange),
    "PHYL.compose": (lambda i: PHYL.compose(A, i, B), LeafIndexOutOfRange),
    "PLANAR_TREES.compose": (
        lambda i: PLANAR_TREES.compose(corolla(2), i, corolla(2)),
        LeafIndexOutOfRange),
    "COM.compose": (lambda i: COM.compose(2, i, 2), LeafIndexOutOfRange),
    "leaf_length": (lambda i: A.leaf_length(i), LeafIndexOutOfRange),
    "marginal": (lambda i: marginal(duplicate(2, F), i), IndexOutOfRange),
    "duplicate_matrix": (lambda k: duplicate_matrix(F.states, k), BadArity),
    "duplicate": (lambda k: duplicate(k, F), BadArity),
}


@pytest.mark.parametrize("index", [1.0, 2.0, 1.5, True, False, "1", None])
@pytest.mark.parametrize("name", READERS)
def test_a_non_int_index_is_refused(name, index):
    # 2.0 used to compose into a tree that printed leaf "2.0", 1.5 to raise
    # a bare KeyError, and True to read slot or leaf 1
    read, error = READERS[name]
    with pytest.raises(error):
        read(index)


@pytest.mark.parametrize("name", READERS)
def test_an_int_index_is_read(name):
    read, _ = READERS[name]
    assert read(1) is not None and read(2) is not None
