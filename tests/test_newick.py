import math
import random
import re

import pytest

from conftest import caterpillar, caterpillar_newick
from phylo.newick import (
    LeafLabelError,
    NewickSyntaxError,
    format_length,
    parse_newick,
    serialize_newick,
)
from phylo.operads import PhyloInvariantError, PhyloTree, unit_phylo
from phylo.trees import corolla, make_tree
from phylo.treespace import cluster_lengths
from sampling import random_phylo


class TestParse:
    def test_zero_corolla(self):
        t = parse_newick("(1:0.0,2:0.0):0.0;")
        assert t == PhyloTree.make(corolla(2), {1: 0.0, 2: 0.0, -1: 0.0})

    def test_five_leaf_shape(self):
        t = parse_newick("((3:0,1:0):1.4,(4:0,5:0,2:0):1.3):0;")
        assert t.n == 5
        assert sorted(cluster_lengths(t).values()) == [1.3, 1.4]

    def test_zero_internal_rejected(self):
        with pytest.raises(PhyloInvariantError):
            parse_newick("((3:0,1:0):0,(4:0,5:0,2:0):1.3):0;")

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(LeafLabelError):
            parse_newick("(1:0,1:0):0;")

    def test_missing_leaf_rejected(self):
        with pytest.raises(LeafLabelError):
            parse_newick("(1:0,3:0):0;")

    @pytest.mark.parametrize("zero", ["0", "\u0660", "\uff10"])
    def test_leading_zeros_do_not_count(self, zero):
        # 5000 leading zeros, in any script, before the label 1
        text = "(" + zero * 5000 + "1:0,2:0):0;"
        assert parse_newick(text) == parse_newick("(1:0,2:0):0;")

    @pytest.mark.parametrize("label", ["1" * 5000, "0" * 10 + "1" * 20, "1" * 11],
                             ids=["5000-digits", "zero-padded", "11-digits"])
    def test_label_longer_than_any_leaf_number_rejected(self, label):
        with pytest.raises(LeafLabelError):
            parse_newick("(" + label + ":0,2:0):0;")

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

    @pytest.mark.parametrize("text, position", [
        ("(1x:0,2:0):0;", 1),      # a leaf token with trailing characters
        ("(1:0,2:0.5 5):0;", 7),   # a length token with trailing characters
        ("((1:0):1,2:0):0;", 5),   # the ')' that closes a one-child group
        ("(1:0,2:0):0", 11),       # the end of the text
        ("(1:0,2:0):0; x", 13),    # trailing characters after ';'
    ])
    def test_error_points_at_or_before_the_offending_token(self, text, position):
        with pytest.raises(NewickSyntaxError) as err:
            parse_newick(text)
        assert err.value.position == position

    def test_whitespace_between_any_tokens(self):
        # grammar-generated trees, written out with Unicode whitespace runs
        # between tokens, read back as the serializer's tree
        rng = random.Random(17)
        spaces = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"
        for _ in range(300):
            text = serialize_newick(random_phylo(rng, max_leaves=9))
            spaced = "".join(
                "".join(rng.choices(spaces, k=rng.randint(0, 3))) + tok
                for tok in re.split(r"([(),:;])", text))
            assert serialize_newick(parse_newick(spaced)) == text

    def test_deep_caterpillar(self):
        # 5000 leaves, one nesting level per vertex
        t = caterpillar(4999)
        lens = {u: 0.5 if u > 0 else 1.0 for u in t.nodes}
        lens[t.root] = 0.0
        assert parse_newick(caterpillar_newick(4999)) == PhyloTree.make(t, lens)

    @pytest.mark.parametrize("allow_infinite", [False, True])
    def test_overflowing_decimal_is_not_inf(self, allow_infinite):
        # only the token 'inf' means infinity; 1e308 is a float, 1e999 is not
        assert parse_newick("(1:1e308,2:1):0;", allow_infinite).length(1) == 1e308
        with pytest.raises(NewickSyntaxError, match="exceeds the float range") as e:
            parse_newick("(1:1,2:1e999):1e999;", allow_infinite)
        assert e.value.position == 7

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
