"""The token-loop Newick reader that ``phylo.newick.parse_newick`` replaced,
kept as the oracle of the differential test in ``test_newick_differential``.

The text is split at the delimiters ( ) , : ; and every stripped piece
between them is one token; a state machine with a stack of open groups reads
the tokens one at a time.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import re

from phylo.newick import LeafLabelError, NewickSyntaxError
from phylo.operads import PhyloTree
from phylo.trees import PlanarTree, _freeze

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf")
_INT = re.compile(r"\d+")
_DELIMITERS = re.compile(r"([(),:;])")
_EXPECTED = {
    "subtree": "expected a leaf number or '('",
    "colon": "expected ':'",
    "length": "expected a branch length",
    "next": "expected ')'",
    "last": "expected ';'",
    "end": "trailing characters after ';'",
}


def parse_newick(text: str, allow_infinite: bool = False) -> PhyloTree:
    kids: dict[int, tuple[int, ...]] = {}
    lengths: dict[int, float] = {}
    leaves: list[int] = []
    groups: list[list[int]] = []
    node, state, pos = 0, "subtree", 0
    most_digits = len(str(len(text)))
    for piece in _DELIMITERS.split(text):
        tok = piece.strip()
        at = pos + len(piece) - len(piece.lstrip())
        pos += len(piece)
        if not tok:
            continue
        if state == "subtree" and tok == "(":
            groups.append([])
        elif state == "subtree" and _INT.fullmatch(tok):
            node = (int(tok) if len(tok) <= most_digits
                    else _long_label(tok, most_digits))
            leaves.append(node)
            state = "colon"
        elif state == "colon" and tok == ":":
            state = "length"
        elif state == "length" and _NUMBER.fullmatch(tok):
            if tok == "inf" and not allow_infinite:
                raise NewickSyntaxError("'inf' lengths are not accepted here", at)
            lengths[node] = float(tok)
            if tok != "inf" and lengths[node] == math.inf:
                raise NewickSyntaxError("length exceeds the float range", at)
            state = "next" if groups else "last"
        elif state == "next" and tok == ",":
            groups[-1].append(node)
            state = "subtree"
        elif state == "next" and tok == ")":
            children = groups.pop() + [node]
            if len(children) < 2:
                raise NewickSyntaxError(
                    "interior vertices need at least two children", at)
            node = -len(kids) - 1
            kids[node] = tuple(children)
            state = "colon"
        elif state == "last" and tok == ";":
            state = "end"
        else:
            raise NewickSyntaxError(_EXPECTED[state], at)
    if state != "end":
        raise NewickSyntaxError(_EXPECTED[state], len(text))
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise LeafLabelError(
            f"leaf labels must be exactly 1..{n}, got {sorted(leaves)}")
    shape = PlanarTree(n, node, _freeze(kids))
    return PhyloTree.make(shape, lengths, extended=allow_infinite)


def _long_label(tok: str, most_digits: int) -> int:
    zeros = "".join({chr(ord(c) - int(c)) for c in set(tok)})
    digits = tok.lstrip(zeros)
    if len(digits) > most_digits:
        raise LeafLabelError(
            f"leaf label of {len(digits)} digits exceeds every leaf number")
    return int(digits or "0")
