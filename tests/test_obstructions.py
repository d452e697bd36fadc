from __future__ import annotations

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.obstructions import Obstruction, Rule, _view, certify_nonprimitive
from goeritz.primitivity import is_primitive_power, oz_form_check
from goeritz.verify import _random_letters, canonical_classes
from goeritz.words import X, X_INV, Y, Y_INV, CyclicWord, Word

raw_pairs = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(min_value=-5, max_value=5)),
    max_size=7,
)
words = st.builds(lambda ps: Word(tuple(ps)), raw_pairs)


def viewed(w: CyclicWord, ob: Obstruction, part: tuple[int, ...]) -> list[int]:
    o = ob.orientation
    return [_view(w.letters[p], o.swap, o.flip_x, o.flip_y) for p in part]


def assert_reads_back(w: CyclicWord, ob: Obstruction) -> None:
    """Each witness part, read under the orientation, spells the pattern."""
    parts = [viewed(w, ob, part) for part in ob.witness]
    if ob.rule is Rule.PP2a:
        assert parts in ([[X, Y], [X, Y_INV]], [[Y_INV, X_INV], [Y, X_INV]])
    elif ob.rule is Rule.KEY1:
        assert ob.detail == 1
        assert parts in ([[X, Y], [Y, X_INV]], [[Y_INV, X_INV], [X, Y_INV]])
    else:
        gap = ob.detail
        span, block = ob.witness
        expected = [X, X] if gap == 0 else [X] + [Y] * gap + [X]
        assert parts == [expected, [Y] * (gap + 2)]
        assert not set(span) & set(block)


def certified(text: str, rule: Rule) -> tuple[CyclicWord, Obstruction]:
    w = CyclicWord.of(text)
    ob = certify_nonprimitive(w)
    assert ob is not None and ob.rule is rule
    assert_reads_back(w, ob)
    return w, ob


class TestPp2:
    def test_opposite_y_signs(self):
        certified("xyxy^-1", Rule.PP2a)

    def test_gap_with_long_run(self):
        _, ob = certified("xy^3xy^5", Rule.PP2b)
        assert ob.detail == 3

    def test_shell_word_clean(self):
        assert certify_nonprimitive("(xy^5)^4xy^4") is None

    def test_witness_reads_back(self):
        w, ob = certified("xy^3xy^5", Rule.PP2b)
        span, block = ob.witness
        assert viewed(w, ob, span) == [X] + [Y] * 3 + [X]
        assert viewed(w, ob, block) == [Y] * 5

    def test_double_x_short_run(self):
        _, ob = certified("x^2y^2", Rule.PP2b)
        assert ob.detail == 0


class TestKey:
    def test_squares(self):
        # x^2 with y^2 under any relabeling is PP2b with detail 0.
        _, ob = certified("x^-2y^3", Rule.PP2b)
        assert ob.detail == 0 and ob.orientation.flip_x

    def test_mixed_pair(self):
        _, ob = certified("xyx^-1y^-1", Rule.KEY1)
        assert ob.detail == 1

    def test_primitive_pair_clean(self):
        assert certify_nonprimitive("xy") is None

    def test_witness_reads_back(self):
        w, ob = certified("xyx^-1y^-1", Rule.KEY1)
        first, second = ob.witness
        assert viewed(w, ob, first) == [X, Y]
        assert viewed(w, ob, second) == [Y, X_INV]


class TestKey2:
    """A span x y^k x^-1 holds a KEY1 pair."""

    def test_sign_change_span(self):
        certified("xy^2x^-1y^-1", Rule.KEY1)

    def test_shell_word_clean(self):
        assert certify_nonprimitive("(yx^5)^4yx^4") is None

    def test_witness_reads_back(self):
        w, ob = certified("xy^2x^-1y^-3", Rule.KEY1)
        first, second = ob.witness
        assert viewed(w, ob, first) == [X, Y]
        assert viewed(w, ob, second) == [Y, X_INV]


class TestKey3:
    """Two x..x spans whose y-exponent sums differ by at least 2 match PP2."""

    def test_gap_three(self):
        _, ob = certified("xyxy^4", Rule.PP2b)
        assert ob.detail == 1

    def test_gap_one_clean(self):
        assert certify_nonprimitive("xy^3xy^4") is None

    def test_bridge_family_clean(self):
        assert certify_nonprimitive("xy^5xy^5xy^4") is None

    def test_witness_reads_back(self):
        w, ob = certified("x^2y^-1x^2y^-3", Rule.PP2b)
        assert ob.orientation.flip_y


def test_witnesses_read_back():
    """Every certificate up to length 10 spells its rule's pattern,
    including those that match only with the generator roles swapped."""
    swapped = 0
    for n in range(11):
        for letters in canonical_classes(n):
            w = CyclicWord(letters)
            ob = certify_nonprimitive(w)
            if ob is not None:
                assert_reads_back(w, ob)
                swapped += ob.orientation.swap
    assert swapped > 0


def test_certified_iff_two_generators_without_shape():
    rng = random.Random(20261019)
    inputs = [c for n in range(13) for c in canonical_classes(n)]
    inputs += [_random_letters(rng, 40) for _ in range(10_000)]
    for letters in inputs:
        w = CyclicWord(letters)
        both = len({c >> 1 for c in w.letters}) == 2
        assert (certify_nonprimitive(w) is not None) == (both and not oz_form_check(w)), w


class TestCertify:
    def test_x2y3(self):
        assert certify_nonprimitive("x^2y^3") is not None

    def test_generator(self):
        assert certify_nonprimitive("x") is None

    def test_seventh_shell_word(self):
        assert certify_nonprimitive("xy^3xy^3xy") is not None

    def test_identity(self):
        assert certify_nonprimitive(Word.identity()) is None

    def test_single_generator_powers_exempt(self):
        assert certify_nonprimitive("x^4") is None
        assert certify_nonprimitive("y^-6") is None

    def test_shape_failure_certified(self):
        ob = certify_nonprimitive("x^3y^2x^2y^2")
        assert ob is not None

    def test_json_shape(self):
        ob = certify_nonprimitive("xy^3xy^5")
        assert ob is not None
        data = ob.to_json()
        assert data["rule"] == "PP2b"
        assert data["orientation"] == {"flipX": False, "flipY": False, "swap": False}
        assert isinstance(data["witness"], list)

    @settings(max_examples=300)
    @given(words)
    def test_soundness(self, w: Word):
        if certify_nonprimitive(w) is not None:
            assert not is_primitive_power(w).is_primitive_power


@settings(max_examples=150)
@given(words)
def test_checks_inversion_invariant(w: Word):
    cyc = CyclicWord.of(w)
    inv = cyc.inverse()
    assert (certify_nonprimitive(cyc) is None) == (certify_nonprimitive(inv) is None)


@settings(max_examples=150)
@given(words, words)
def test_certify_conjugation_invariant(w: Word, g: Word):
    a = certify_nonprimitive(g * w * g.inverse())
    b = certify_nonprimitive(w)
    assert (a is None) == (b is None)


# sha256 of (letters, certificate JSON) for every class of length <= 10
# plus 5000 seeded random words: rule, witness, orientation and detail
# of every certificate stay fixed.
PINNED_CERTIFICATES = (
    "d9be04f492e67cce205b4e1f8d672447"
    "55b9cb83a4c57a9db4e2bb992a8046d7"
)


# The same digest for every class of length 11 and 12 plus 20,000
# seeded random words of up to 40 letters, recorded before the
# certifier found factors with bytes.find.
PINNED_CERTIFICATES_LONG = (
    "201994dd0974d85047c4d9fa5c294f89"
    "8587e5f925a625128c63d15de57d51ad"
)


def certificates_digest(inputs) -> str:
    digest = hashlib.sha256()
    for letters in inputs:
        cw = CyclicWord(letters)
        ob = certify_nonprimitive(cw)
        entry = [list(cw.letters), None if ob is None else ob.to_json()]
        digest.update(json.dumps(entry).encode())
    return digest.hexdigest()


def test_certificates_pinned():
    rng = random.Random(20261019)
    inputs = [c for n in range(11) for c in canonical_classes(n)]
    inputs += [_random_letters(rng, 24) for _ in range(5000)]
    assert certificates_digest(inputs) == PINNED_CERTIFICATES


def test_certificates_pinned_past_length_10():
    rng = random.Random(20261021)
    inputs = [c for n in (11, 12) for c in canonical_classes(n)]
    inputs += [_random_letters(rng, 40) for _ in range(20000)]
    assert certificates_digest(inputs) == PINNED_CERTIFICATES_LONG
