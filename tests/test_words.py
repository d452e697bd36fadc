from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from goeritz.shell_bridge import MAX_CORRIDOR_SYLLABLES
from goeritz.words import (
    MAX_WORD_SYLLABLES,
    AbelianPair,
    CyclicWord,
    Word,
    WordParseError,
    _least_rotation,
    _power_syllables,
    cyclic_reduce,
    format_word,
    parse_word,
    reduce_word,
)
from goeritz.verify import _random_letters, canonical_classes

raw_pairs = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(min_value=-6, max_value=6)),
    max_size=12,
)


def words(max_syllables: int = 12) -> st.SearchStrategy[Word]:
    return st.builds(lambda ps: Word(tuple(ps)), raw_pairs)


class TestReduction:
    def test_adjacent_inverses_cancel(self):
        w = reduce_word([("x", 1), ("y", 1), ("y", -1), ("x", -1)])
        assert w.is_identity()
        assert format_word(w) == ""

    def test_partial_merge(self):
        w = reduce_word([("x", 1), ("x", 1), ("y", -1), ("y", -1), ("y", 1)])
        assert w.syllables == (("x", 2), ("y", -1))

    def test_zero_exponents_dropped(self):
        assert Word((("x", 0), ("y", 3))).syllables == (("y", 3),)

    def test_cascading_cancellation(self):
        w = reduce_word([("x", 2), ("y", 1), ("y", -1), ("x", -2), ("y", 5)])
        assert w.syllables == (("y", 5),)

    @given(words())
    def test_inverse_cancels(self, w: Word):
        assert (w * w.inverse()).is_identity()

    @given(words(), words())
    def test_length_subadditive(self, u: Word, v: Word):
        assert (u * v).length <= u.length + v.length

    @given(words(), st.integers(min_value=-4, max_value=4))
    def test_power_is_repeated_product(self, w: Word, n: int):
        base = w if n >= 0 else w.inverse()
        product = Word.identity()
        for _ in range(abs(n)):
            product = product * base
        assert w**n == product

    @given(words(), st.integers(min_value=-8, max_value=8))
    def test_power_syllables_read_off_the_square(self, w: Word, n: int):
        assert _power_syllables(w, n) == len((w**n).syllables)

    @given(words())
    def test_letters_roundtrip(self, w: Word):
        assert Word.from_letters(w.letters()) == w

    def test_letters_cancel_across_runs(self):
        assert str(Word.from_letters((0, 0, 2, 3, 1, 2))) == "xy"
        assert Word.from_letters((0, 1, 0, 0)).syllables == (("x", 2),)
        assert Word.from_letters(()).is_identity()


class TestParse:
    def test_power_expansion(self):
        w = parse_word("(xy^5)^4xy^4")
        assert len(w.syllables) == 10
        assert w.abelianization() == AbelianPair(5, 24)

    def test_exponent_one_omitted_on_format(self):
        assert format_word(parse_word("x^1y^1")) == "xy"

    def test_negative_exponents(self):
        assert parse_word("x^-2y^3").syllables == (("x", -2), ("y", 3))

    def test_whitespace_ignored(self):
        assert parse_word(" x y ^ 2 ") == parse_word("xy^2")

    def test_empty_is_identity(self):
        assert parse_word("").is_identity()

    def test_nested_groups(self):
        assert parse_word("((xy)^2x)^2") == parse_word("xyxyxxyxyx")

    def test_error_position(self):
        with pytest.raises(WordParseError) as info:
            parse_word("xy^5z")
        assert info.value.position == 4

    def test_group_requires_exponent(self):
        with pytest.raises(WordParseError):
            parse_word("(xy)")

    def test_unclosed_paren(self):
        with pytest.raises(WordParseError):
            parse_word("(xy^2")

    def test_bare_caret_rejected(self):
        with pytest.raises(WordParseError):
            parse_word("x^")

    def test_budget_reads_every_export(self):
        assert MAX_WORD_SYLLABLES >= MAX_CORRIDOR_SYLLABLES

    def test_expansion_past_budget_fails_fast(self):
        # 14 characters that would expand to 2,000,002 syllables.
        tracemalloc.start()
        try:
            with pytest.raises(WordParseError, match="expands past") as info:
                parse_word("(xy^2)^1000000xy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.position == 0
        assert peak < 1 << 20

    def test_nested_expansion_past_budget(self):
        with pytest.raises(WordParseError, match="expands past") as info:
            parse_word("x((xy^2)^1000)^1000")
        assert info.value.position == 1

    def test_budget_counts_every_group_and_letter(self, monkeypatch):
        monkeypatch.setattr("goeritz.words.MAX_WORD_SYLLABLES", 10)
        assert len(parse_word("(xy)^5").syllables) == 10
        assert len(parse_word("(xy)^-5").syllables) == 10
        for text in ("(xy)^6", "x(xy)^5", "(xy)^3(xy)^3", "((xy)^3)^2", "xyxyxyxyxyx"):
            with pytest.raises(WordParseError):
                parse_word(text)

    def test_budget_counts_the_reduced_power(self):
        # Each reduces to a few syllables, though its group repeats
        # 2,000,000 times; repeated squaring never builds the copies.
        tracemalloc.start()
        try:
            assert parse_word("(x)^2000000") == Word((("x", 2_000_000),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(parse_word("(xyx^-1)^2000000")) == "xy^2000000x^-1"
        assert str(parse_word("(x^-1)^-3(yxy^-1)^-2")) == "x^3yx^-2y^-1"

    def test_reduced_power_past_budget_fails_fast(self):
        # Reduced, the group's power holds 3 + 599,999 * 2 = 1,200,001 syllables.
        tracemalloc.start()
        try:
            with pytest.raises(WordParseError, match="expands past") as info:
                parse_word("(x^2yx^-1)^600000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.position == 0
        assert peak < 1 << 20

    @given(words())
    def test_format_parse_roundtrip(self, w: Word):
        assert parse_word(format_word(w)) == w


class TestText:
    def test_cached_text_is_format_word(self):
        w = parse_word("x^-2yxy^3")
        assert w.text == format_word(w) == str(w) == "x^-2yxy^3"

    def test_from_reduced_keeps_given_text(self):
        syllables = (("x", 1), ("y", 5), ("x", 1), ("y", -2))
        w = Word.from_reduced(syllables, "xy^5xy^-2")
        assert str(w) == format_word(Word(syllables))
        # The cached text is not a field: equality and hashing ignore it.
        assert w == Word(syllables) and hash(w) == hash(Word(syllables))
        assert repr(w) == repr(Word(syllables))

    @given(words())
    def test_text_matches_format(self, w: Word):
        assert str(w) == format_word(w)
        assert str(Word.from_reduced(w.syllables)) == format_word(w)


class TestCyclic:
    def test_conjugate_collapses(self):
        cyc, conj = cyclic_reduce(parse_word("xyx^-1"))
        assert cyc.to_word() == parse_word("y")
        assert conj == parse_word("x")

    def test_canonical_rotation_is_least(self):
        # letter order x < x^-1 < y < y^-1, so the x-run leads
        assert str(CyclicWord.of("yx^2")) == "x^2y"

    def test_power_rotation(self):
        base = CyclicWord.of("xy^5")
        assert CyclicWord.of("(y^5x)^3").letters == base.letters * 3

    def test_identity(self):
        cyc, conj = cyclic_reduce(Word.identity())
        assert cyc.is_identity()
        assert conj.is_identity()

    def test_rejects_unreduced_letters(self):
        with pytest.raises(ValueError):
            CyclicWord((0, 1))

    @pytest.mark.parametrize("letters", [(3, 2), (1, 2, 0), (2, 0, 0, 3)])
    def test_rejects_cancellation_inside_or_across_wrap(self, letters):
        with pytest.raises(ValueError, match="not cyclically reduced"):
            CyclicWord(letters)

    @pytest.mark.parametrize("letters", [(), (1,), (3,), (0, 0), (1, 3)])
    def test_accepts_short_reduced_letters(self, letters):
        assert CyclicWord(letters).letters == letters

    def test_from_canonical_matches_checked(self):
        for n in range(1, 11):
            for letters in canonical_classes(n):
                cw = CyclicWord.from_canonical(letters)
                assert cw == CyclicWord(letters)
                assert hash(cw) == hash(CyclicWord(letters))

    def test_inverse(self):
        w = CyclicWord.of("xy^3xy^5")
        assert w.inverse().inverse() == w
        assert w.inverse().abelianization() == -w.abelianization()

    @given(words())
    # A conjugator far longer than the strategy's exponents reach.
    @example(parse_word("x^100000yx^-100000"))
    def test_reconstruction(self, w: Word):
        cyc, conj = cyclic_reduce(w)
        assert conj * cyc.to_word() * conj.inverse() == w

    @given(words())
    def test_canonical_is_min_rotation(self, w: Word):
        cyc, _ = cyclic_reduce(w)
        seq = cyc.letters
        n = len(seq)
        rotations = [seq[i:] + seq[:i] for i in range(n)] or [()]
        assert seq == min(rotations)

    @given(words(), words())
    def test_conjugation_invariance(self, w: Word, g: Word):
        assert CyclicWord.of(g * w * g.inverse()) == CyclicWord.of(w)


def first_least_rotation(seq: tuple[int, ...]) -> int:
    """The reference: min returns the first index whose rotation is least."""
    return min(range(len(seq)), key=lambda i: seq[i:] + seq[:i], default=0)


class TestLeastRotation:
    def test_every_short_tuple(self):
        wrong = [
            t
            for n in range(9)
            for t in product(range(4), repeat=n)
            if _least_rotation(t) != first_least_rotation(t)
        ]
        assert wrong == []

    def test_powers(self):
        # Powers have k least rotations; the first one must be returned.
        rng = random.Random(20261021)
        for _ in range(3000):
            u = tuple(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 10)))
            w = u * rng.randint(1, 8)
            assert _least_rotation(w) == first_least_rotation(w), w

    def test_long_words(self):
        rng = random.Random(3000)
        cases = [
            tuple(rng.randrange(4) for _ in range(3000)),
            tuple(rng.randrange(2) for _ in range(12)) * 250,
            (1,) * 2999 + (0,),
            (0, 2) * 1499 + (0, 0),
        ]
        for w in cases:
            assert _least_rotation(w) == first_least_rotation(w)

    def test_cyclic_reduce_on_periodic_inputs(self):
        rng = random.Random(24)
        for _ in range(500):
            letters = _random_letters(rng, 8) * rng.randint(1, 6)
            power = Word.from_letters(letters)
            cyc, conj = cyclic_reduce(power)
            assert conj == Word.from_letters(letters[: first_least_rotation(letters)])
            g = Word.from_letters([rng.randrange(4) for _ in range(rng.randint(0, 6))])
            w = g * power * g.inverse()
            cyc, conj = cyclic_reduce(w)
            assert conj * cyc.to_word() * conj.inverse() == w
            assert cyc == CyclicWord(letters) == CyclicWord.of(w)
