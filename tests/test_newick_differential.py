"""Differential test of ``parse_newick`` against the token-loop reader it
replaced (``newick_reference``): equal trees on seeded valid texts, and the
same exception class, message and position on seeded one-character
mutations of them."""

import random
from pathlib import Path

import phylo
import newick_reference
from conftest import balanced_newick, caterpillar_newick
from phylo.newick import NewickSyntaxError, parse_newick
from phylo.trees import PhyloError

SPACES = " \t\n  "
# ASCII, Arabic-Indic, Devanagari and fullwidth decimal digits
SCRIPTS = ("0123456789", "".join(map(chr, range(0x660, 0x66A))),
           "".join(map(chr, range(0x966, 0x970))),
           "".join(map(chr, range(0xFF10, 0xFF1A))))
LENGTHS = ("1", "0.5", "2.", "1e-3", "3E+2", "0.125", "17", "4.25e1")
MUTATION_CHARS = "(),:;0123456789.eEinf "


def _ws(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return ""
    return "".join(rng.choice(SPACES) for _ in range(rng.randint(1, 2)))


def _digits(rng: random.Random, text: str) -> str:
    script = rng.choice(SCRIPTS) if rng.random() < 0.2 else SCRIPTS[0]
    return "".join(script[int(c)] if c.isdigit() else c for c in text)


def _length(rng: random.Random, allow_infinite: bool) -> str:
    if allow_infinite and rng.random() < 0.15:
        return "inf"
    x = rng.choice(LENGTHS) if rng.random() < 0.7 else \
        f"{rng.randint(0, 99)}.{rng.randint(0, 999)}"
    return _digits(rng, x)


def _label(rng: random.Random, k: int) -> str:
    zeros = "0" * rng.choice((0, 0, 0, 1, 3))
    return _digits(rng, zeros + str(k))


def valid_text(rng: random.Random, n: int, allow_infinite: bool) -> str:
    """A Newick text on leaves 1..n: groups of 2 to 4 merge until one is
    left, with random whitespace, leading zeros and digit scripts."""

    def edge(sub: str) -> str:
        return (sub + _ws(rng) + ":" + _ws(rng) + _length(rng, allow_infinite)
                + _ws(rng))

    items = [_ws(rng) + edge(_label(rng, k)) for k in range(1, n + 1)]
    rng.shuffle(items)
    while len(items) > 1:
        k = min(len(items), rng.randint(2, 4))
        at = rng.randint(0, len(items) - k)
        group = items[at:at + k]
        items[at:at + k] = [_ws(rng) + edge("(" + ",".join(group) + ")")]
    return items[0] + ";" + _ws(rng)


def outcome(parse, text: str, allow_infinite: bool):
    try:
        return parse(text, allow_infinite=allow_infinite)
    except Exception as exc:  # noqa: BLE001 - compared, and checked below
        return (type(exc), str(exc), getattr(exc, "position", None))


def _corpus(seed: int, count: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        allow = rng.random() < 0.3
        out.append((valid_text(rng, rng.randint(1, 9), allow), allow))
    return out


def test_valid_texts_read_the_same():
    corpus = _corpus(20120, 2000)
    corpus += [(caterpillar_newick(300), False), (balanced_newick(300), False),
               ("(" + "0" * 40 + "1:inf,2:0):0;", True)]
    read = 0
    for text, allow in corpus:
        want = outcome(newick_reference.parse_newick, text, allow)
        assert outcome(parse_newick, text, allow) == want, text
        read += not isinstance(want, tuple)
    # zero internal lengths make some of them invalid, but most must read
    assert read > len(corpus) * 0.8


def test_mutated_texts_fail_the_same():
    rng = random.Random(20121)
    corpus = _corpus(20122, 400)
    kinds = {"read": 0, "syntax": 0, "other": 0}
    for _ in range(20000):
        text, allow = rng.choice(corpus)
        i = rng.randint(0, len(text))
        c = rng.choice(MUTATION_CHARS)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + c + text[i + 1:]
        allow = allow if rng.random() < 0.8 else not allow
        want = outcome(newick_reference.parse_newick, text, allow)
        got = outcome(parse_newick, text, allow)
        assert got == want, (text, allow)
        if isinstance(want, tuple):
            assert issubclass(want[0], PhyloError), want
            kinds["syntax" if want[0] is NewickSyntaxError else "other"] += 1
        else:
            kinds["read"] += 1
    # the corpus exercises every outcome, each many times
    assert min(kinds.values()) > 500, kinds


def test_source_does_not_import_the_reference():
    src = Path(phylo.__file__).resolve().parent
    assert not [p for p in src.rglob("*.py") if "newick_reference" in p.read_text()]
