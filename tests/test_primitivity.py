from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.primitivity import (
    MAX_ENUMERATION_LENGTH,
    enumerate_primitives,
    is_primitive,
    is_primitive_power,
    oz_form_check,
    power_root,
)
from goeritz.shell_bridge import find_bridge, shell_words, vertex_word
from goeritz.verify import DEFAULT_SEED, _random_letters, canonical_classes, forest_windows
from goeritz.words import CyclicWord, Word, letter_inverse, parse_word

raw_pairs = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(min_value=-5, max_value=5)),
    max_size=8,
)
words = st.builds(lambda ps: Word(tuple(ps)), raw_pairs)

# Whitehead's four rank-2 moves as letter substitutions, indexed by letter
# code x, x^-1, y, y^-1.  Each is an automorphism of F(x, y), so it keeps
# primitivity and maps u^k to an image of u to the power k.
MOVES = {
    "x->xy": ((0, 2), (3, 1), (2,), (3,)),
    "x->xy^-1": ((0, 3), (2, 1), (2,), (3,)),
    "y->yx": ((0,), (1,), (2, 0), (1, 3)),
    "y->yx^-1": ((0,), (1,), (2, 1), (0, 3)),
}
MOVE_IDS = tuple(MOVES)


def apply_whitehead(w: CyclicWord, move_id: str) -> CyclicWord:
    """Image of the conjugacy class under one of the four moves."""
    sub = MOVES[move_id]
    letters = itertools.chain.from_iterable(map(sub.__getitem__, w.letters))
    return CyclicWord.of(Word.from_letters(letters))


def all_cyclic_words(max_len: int):
    """Every cyclically reduced conjugacy class of length <= max_len."""
    seen = set()
    for n in range(max_len + 1):
        for letters in itertools.product(range(4), repeat=n):
            ok = all(
                letters[i] != letter_inverse(letters[(i + 1) % n])
                for i in range(n)
            )
            if n == 1:
                ok = True
            if ok:
                try:
                    seen.add(CyclicWord(letters))
                except ValueError:
                    pass
    return seen


class TestIsPrimitive:
    def test_generator(self):
        assert is_primitive("x").is_primitive

    def test_shell_word(self):
        assert is_primitive("(xy^5)^4xy^4").is_primitive

    def test_x2y3(self):
        assert not is_primitive("x^2y^3").is_primitive

    def test_identity(self):
        verdict = is_primitive(Word.identity())
        assert not verdict.is_primitive
        assert not verdict.is_primitive_power

    def test_trace_strictly_decreases(self):
        verdict = is_primitive("(xy^5)^4xy^4")
        lengths = [length for _, length in verdict.reduction_trace]
        assert lengths == sorted(lengths, reverse=True)
        assert len(set(lengths)) == len(lengths)
        assert lengths[-1] == 1

    def test_trace_replays(self):
        # Each level's label is the substitution x -> A, y -> B that maps the
        # next level's word back onto this one; replayed backwards from the
        # final syllable x^k, with each length checked on the way, it
        # rebuilds the input class.
        texts = ("(xy^5)^4xy^4", "x^-1y^-3x^-1y^-4", "yx^2yx^3yx^2", "(xy^-2xy^-3)^3", "(xy)^4")
        for text in texts:
            w = CyclicWord.of(text)
            verdict = is_primitive(w)
            assert verdict.is_primitive_power and verdict.reduction_trace
            word = Word((("x", w.length // power_root(w).length),))
            for label, length in reversed(verdict.reduction_trace):
                assert word.length == length
                sub = dict(part.split("->") for part in label.split(", "))
                replayed = Word.identity()
                for gen, exp in word.syllables:
                    replayed = replayed * parse_word(sub[gen]) ** exp
                word = replayed
            assert CyclicWord.of(word) == w, text

    @given(words)
    def test_invariance_under_inverse(self, w: Word):
        cyc = CyclicWord.of(w)
        assert is_primitive(cyc).is_primitive == is_primitive(cyc.inverse()).is_primitive

    @given(words)
    def test_invariance_under_swap(self, w: Word):
        cyc = CyclicWord.of(w)
        swapped = CyclicWord(tuple(c ^ 2 for c in cyc.letters))
        assert is_primitive(cyc).is_primitive == is_primitive(swapped).is_primitive

    @given(words, words)
    def test_invariance_under_conjugation(self, w: Word, g: Word):
        assert (
            is_primitive(g * w * g.inverse()).is_primitive
            == is_primitive(w).is_primitive
        )

    @given(words)
    def test_primitive_has_coprime_abelianization(self, w: Word):
        cyc = CyclicWord.of(w)
        if is_primitive(cyc).is_primitive:
            pair = cyc.abelianization()
            assert gcd(pair.e_x, pair.e_y) == 1


class TestPrimitivePower:
    def test_square_of_pair(self):
        verdict = is_primitive_power("(xy)^2")
        assert verdict.is_primitive_power
        assert not verdict.is_primitive
        assert power_root("(xy)^2") == parse_word("xy")

    def test_seventh_power(self):
        assert is_primitive_power("y^7").is_primitive_power
        assert power_root("y^7") == parse_word("y")

    def test_x2y2(self):
        assert not is_primitive_power("x^2y^2").is_primitive_power
        assert power_root("x^2y^2") is None

    @given(words)
    def test_primitive_implies_power_with_trivial_root(self, w: Word):
        verdict = is_primitive(w)
        if verdict.is_primitive:
            assert verdict.is_primitive_power
            assert CyclicWord.of(power_root(w)) == CyclicWord.of(w)

    @given(words, st.integers(min_value=1, max_value=4))
    def test_powers_of_primitives(self, w: Word, k: int):
        if is_primitive(w).is_primitive:
            assert is_primitive_power(w**k).is_primitive_power


class TestOzForm:
    def test_shell_word(self):
        assert oz_form_check("(xy^5)^4xy^4")

    def test_gap_two(self):
        assert not oz_form_check("xy^3xy^1")

    def test_generator(self):
        assert oz_form_check("x")

    def test_single_letters_pass(self):
        assert oz_form_check("y")
        assert oz_form_check("x^-1")
        assert not oz_form_check("y^9")

    def test_long_x_runs_pass_in_swapped_role(self):
        assert oz_form_check("x^2yx^3y")
        assert not oz_form_check("x^2y^2")

    def test_mixed_sign_fails(self):
        assert not oz_form_check("xyx^-1y")
        assert not oz_form_check("xyxy^-1")

    def test_not_sufficient(self):
        # y-exponents stay within {1, 2} yet the word is not a
        # primitive power (abelianization (4, 6) is not coprime and the
        # exponent pattern 2,2,1,1 is aperiodic)
        assert oz_form_check("xy^2xy^2xyxy")
        assert not is_primitive_power("xy^2xy^2xyxy").is_primitive_power

    @given(words)
    def test_necessary_for_primitivity(self, w: Word):
        if is_primitive(w).is_primitive:
            assert oz_form_check(w)


class TestEnumeratePrimitives:
    def test_length_one(self):
        expected = {CyclicWord.of(s) for s in ("x", "x^-1", "y", "y^-1")}
        assert enumerate_primitives(1) == expected

    def test_length_two(self):
        added = {CyclicWord.of(s) for s in ("xy", "xy^-1", "x^-1y", "x^-1y^-1")}
        assert enumerate_primitives(2) == enumerate_primitives(1) | added

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_primitives(21)

    def test_all_pass_oz(self):
        assert all(oz_form_check(w) for w in enumerate_primitives(8))

    def test_counts_match_coprime_pairs(self):
        # classes of length n >= 2 correspond to coprime exponent pairs,
        # 4 sign choices each, so each length contributes 4 * phi(n)
        by_len: dict[int, int] = {}
        for w in enumerate_primitives(MAX_ENUMERATION_LENGTH):
            by_len[w.length] = by_len.get(w.length, 0) + 1
        phi = lambda n: sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert by_len[1] == 4
        for n in range(2, MAX_ENUMERATION_LENGTH + 1):
            assert by_len[n] == 4 * phi(n)

    def test_oracle_vs_oracle(self):
        primitives = enumerate_primitives(7)
        for w in all_cyclic_words(7):
            assert is_primitive(w).is_primitive == (w in primitives)


@pytest.fixture(scope="module")
def primitives() -> set[CyclicWord]:
    return enumerate_primitives(MAX_ENUMERATION_LENGTH)


def whitehead_reference(cw: CyclicWord, primitives: set[CyclicWord]):
    """(is_primitive, is_primitive_power, power_root) by membership in the
    Christoffel classes of enumerate_primitives, which never run the
    descent: a class is a primitive power iff the root on its minimal
    rotational period is primitive."""
    n = cw.length
    period = next(
        d for d in range(1, n + 1) if n % d == 0 and cw.letters[d:] + cw.letters[:d] == cw.letters
    )
    root = CyclicWord(cw.letters[:period])
    is_power = root in primitives
    return cw in primitives, is_power, root.to_word() if is_power else None


def fields(w):
    verdict = is_primitive(w)
    return verdict.is_primitive, verdict.is_primitive_power, power_root(w)


class TestOracleAgreement:
    """The syllable descent against the Christoffel reference."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_class(self, primitives, n):
        for letters in canonical_classes(n):
            cw = CyclicWord(letters)
            assert fields(cw) == whitehead_reference(cw, primitives), str(cw)

    def test_seeded_random_words(self, primitives):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(10_000):
            cw = CyclicWord(_random_letters(rng, 20))
            conjugator = Word.from_letters(_random_letters(rng, 4))
            linear = conjugator * cw.to_word() * conjugator.inverse()
            expected = whitehead_reference(cw, primitives)
            assert fields(cw) == expected, str(cw)
            assert fields(linear) == expected, str(linear)


@settings(max_examples=40)
@given(words, st.sampled_from(MOVE_IDS))
def test_moves_preserve_primitivity(w: Word, move_id: str):
    cyc = CyclicWord.of(w)
    image = apply_whitehead(cyc, move_id)
    assert is_primitive(image).is_primitive == is_primitive(cyc).is_primitive


# (seed, its power root or None): a seed is primitive iff it is its own
# root.  Primitive words, primitive powers, and non-primitive words with
# and without the level-0 shape.
ORBIT_SEEDS = [
    ("x", "x"),
    ("xy", "xy"),
    ("x^3", "x"),
    ("(xy^2)^2", "xy^2"),
    ("x^2y^2", None),
    ("xyx^-1y^-1", None),
    ("x^2y^-2", None),
    ("xy^2xy^2xyxy", None),
]
MAX_ORBIT_LENGTH = 1500


@pytest.mark.parametrize("seed, root", ORBIT_SEEDS)
def test_long_words_known_by_construction(seed, root):
    # The moves keep is_primitive and is_primitive_power, and carry the
    # power root along: the image of u^k is the k-th power of u's image.
    rng = random.Random(f"{DEFAULT_SEED}:{seed}")
    for _ in range(50):
        w = CyclicWord.of(seed)
        u = None if root is None else CyclicWord.of(root)
        for _ in range(rng.randint(1, 40)):
            move_id = rng.choice(MOVE_IDS)
            image = apply_whitehead(w, move_id)
            if image.length > MAX_ORBIT_LENGTH:
                break
            w = image
            if u is not None:
                u = apply_whitehead(u, move_id)
        verdict = is_primitive(w)
        assert verdict.is_primitive == (root == seed), str(w)
        assert verdict.is_primitive_power == (root is not None), str(w)
        if u is None:
            assert power_root(w) is None, str(w)
        else:
            assert CyclicWord.of(power_root(w)) == u, str(w)


def _shell_inputs():
    for p in range(2, 61):
        for qbar in range(1, p):
            if gcd(p, qbar) == 1:
                yield from shell_words(p, qbar).words


def _corridor_inputs():
    for space, qbar in forest_windows(100):
        for v in find_bridge(space, qbar).walk:
            yield vertex_word(qbar, v.m_exp, v.n_exp)


def _class_inputs():
    for n in range(1, 12):
        for letters in canonical_classes(n):
            yield CyclicWord(letters)


def _long_shell_inputs():
    for p in (199, 200):
        for qbar in range(1, p):
            if gcd(p, qbar) == 1:
                yield from shell_words(p, qbar).words


# sha256 of (word, is_primitive, is_primitive_power, reduction_trace,
# power_root): every shell word with p <= 60 (45,331 words), every
# corridor word of the minimal bridges with p <= 100 (10,997 words),
# every canonical class of length <= 11 (25,626 classes, signed words
# included), and every shell word with p in {199, 200} (55,680 words).
PINNED_VERDICTS = {
    "shell": "f7141a039fc256668bac255dac312786b76fa3d3c10d710ca5e8b14ac3b9cb1f",
    "corridor": "7e366c86cebd7dfb779e01ab692040cc86b57224d2b81cba063669cd306fb216",
    "class": "caef3274e613ae1c0b1d5ce0836c736e8259425014798c1ddd798f47fb794505",
    "long-shell": "d88354d86f7c6a7f05cae6b808a78eb27eac7b0ba807e5ceea6ee15e3d9e77e7",
}


@pytest.mark.parametrize(
    "name, inputs",
    [
        ("shell", _shell_inputs),
        ("corridor", _corridor_inputs),
        ("class", _class_inputs),
        ("long-shell", _long_shell_inputs),
    ],
)
def test_verdicts_pinned(name, inputs):
    digest = hashlib.sha256()
    for w in inputs():
        v = is_primitive(w)
        entry = [str(w), v.is_primitive, v.is_primitive_power, v.reduction_trace, str(power_root(w))]
        digest.update(json.dumps(entry).encode())
    assert digest.hexdigest() == PINNED_VERDICTS[name]


# sha256 of the Whitehead moves: the sorted letters of every class in
# enumerate_primitives(20) (512 classes), and (class, move, image) for
# every canonical class of length <= 10 (9,518 classes) and each move.
PINNED_MOVES = {
    "closure": "5720630924d0992fb51bdd9b08c780a5a39cf2d5bd3224287469c77568163335",
    "images": "23b62cca32c24ef2e01cd7f673064b23e3f8493176cf2496e9914b762fd96478",
}


def test_moves_pinned():
    closure = hashlib.sha256()
    for cw in sorted(enumerate_primitives(MAX_ENUMERATION_LENGTH), key=lambda w: w.letters):
        closure.update(json.dumps(cw.letters).encode())
    images = hashlib.sha256()
    for n in range(1, 11):
        for letters in canonical_classes(n):
            cw = CyclicWord(letters)
            for move_id in MOVE_IDS:
                image = apply_whitehead(cw, move_id).letters
                images.update(json.dumps([letters, move_id, image]).encode())
    assert closure.hexdigest() == PINNED_MOVES["closure"]
    assert images.hexdigest() == PINNED_MOVES["images"]
