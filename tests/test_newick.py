import math
import random

import pytest

from phylo.newick import (
    LeafLabelError,
    NewickSyntaxError,
    format_length,
    parse_newick,
    serialize_newick,
)
from phylo.operads import PhyloInvariantError, PhyloTree, unit_phylo
from phylo.sampling import random_phylo
from phylo.trees import corolla, make_tree


class TestParse:
    def test_zero_corolla(self):
        t = parse_newick("(1:0.0,2:0.0):0.0;")
        assert t == PhyloTree.make(corolla(2), {1: 0.0, 2: 0.0, -1: 0.0})

    def test_five_leaf_shape(self):
        t = parse_newick("((3:0,1:0):1.4,(4:0,5:0,2:0):1.3):0;")
        assert t.n == 5
        assert sorted(x for _, x in t.internal_items()) == [1.3, 1.4]

    def test_zero_internal_rejected(self):
        with pytest.raises(PhyloInvariantError):
            parse_newick("((3:0,1:0):0,(4:0,5:0,2:0):1.3):0;")

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(LeafLabelError):
            parse_newick("(1:0,1:0):0;")

    def test_missing_leaf_rejected(self):
        with pytest.raises(LeafLabelError):
            parse_newick("(1:0,3:0):0;")

    def test_syntax_error_position(self):
        with pytest.raises(NewickSyntaxError) as err:
            parse_newick("(1:0,2:0):;")
        assert err.value.position == 10

    def test_unary_group_rejected(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("((1:0):1):0;")

    def test_negative_length_rejected(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(1:-0.5,2:0):0;")

    def test_whitespace_insignificant(self):
        assert parse_newick(" ( 1:0 , 2:0.5 ) : 1e-1 ;") == \
            parse_newick("(1:0,2:0.5):0.1;")

    def test_inf_gated(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("1:inf;")
        t = parse_newick("1:inf;", allow_infinite=True)
        assert math.isinf(t.root_length)


class TestSerialize:
    def test_identity_tree(self):
        assert serialize_newick(unit_phylo(0.0)) == "1:0;"

    def test_shortest_decimals(self):
        assert format_length(0.0) == "0"
        assert format_length(1.4) == "1.4"
        assert format_length(math.inf) == "inf"
        assert format_length(0.1 + 0.2) == "0.30000000000000004"

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(300):
            t = random_phylo(rng)
            text = serialize_newick(t)
            assert parse_newick(text) == t
            assert serialize_newick(parse_newick(text)) == text

    def test_constant_on_isomorphism_class(self):
        a = make_tree(5, "a", {"a": [3, 1, "w"], "w": [4, 5, 2]})
        b = make_tree(5, "q", {"q": ["w", 1, 3], "w": [2, 5, 4]})
        lens = {3: 0.1, 1: 0.2, 4: 0.3, 5: 0.4, 2: 0.5}
        ta = PhyloTree.make(a, {**lens, -2: 0.7, -1: 0.6})
        tb = PhyloTree.make(b, {**lens, -1: 0.6, -2: 0.7})
        assert serialize_newick(ta) == serialize_newick(tb)

    @pytest.mark.parametrize("text, canon", [
        # children sort by the text of their lengths: "0.05" < "0.0:", "10" < "2"
        ("(1:2,2:10,3:0.05,4:0):0;", "(3:0.05,4:0,2:10,1:2):0;"),
        ("(" + ",".join(f"{j}:0.5" for j in range(1, 12)) + "):0;",
         "(" + ",".join(f"{j}:0.5" for j in (1, 10, 11, *range(2, 10))) + "):0;"),
        # at equal length text a vertex comes before a leaf
        ("((1:0,2:0):0.05,(3:0,4:0):0.5,5:0.05):0;",
         "((1:0,2:0):0.05,5:0.05,(3:0,4:0):0.5):0;"),
    ])
    def test_canonical_child_order_is_text_order(self, text, canon):
        assert serialize_newick(parse_newick(text)) == canon

    def test_extended_round_trip(self):
        t = PhyloTree.make(corolla(2), {1: math.inf, 2: 0.5, -1: math.inf},
                           extended=True)
        text = serialize_newick(t)
        assert parse_newick(text, allow_infinite=True) == t
