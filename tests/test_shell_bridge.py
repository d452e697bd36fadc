"""Shell words, mediant tree walks, and bridges."""

from __future__ import annotations

import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.lens import LensSpace, invariants, modular_partner
from goeritz.primitivity import is_primitive, oz_form_check
from goeritz.shell_bridge import (
    MAX_BRIDGE_LENGTH,
    MAX_CORRIDOR_SYLLABLES,
    MAX_SHELL_P,
    Bridge,
    E_WORD,
    NotForestError,
    PrincipalVertex,
    _shaped_letters,
    bridge_end_homology,
    bridge_report,
    find_bridge,
    principal_vertex,
    shell_primitive_indices,
    shell_words,
    vertex_word,
)
from goeritz.verify import forest_windows
from goeritz.words import CyclicWord, Word, format_word, parse_word


def coprime_pairs(max_p: int) -> list[tuple[int, int]]:
    return [
        (p, qbar)
        for p in range(2, max_p + 1)
        for qbar in range(1, p)
        if gcd(p, qbar) == 1
    ]


def sorted_residue_shell(p: int, qbar: int) -> list[Word]:
    """Reference build: sort the residues again and reduce every E_k."""
    words = [Word((("y", p),))]
    for k in range(1, p + 1):
        residues = sorted(i * qbar % p for i in range(k))
        gaps = [
            (residues[(i + 1) % k] - residues[i]) % p or p for i in range(k)
        ]
        pairs: list[tuple[str, int]] = []
        for g in gaps:
            pairs.append(("x", 1))
            pairs.append(("y", g))
        words.append(Word(tuple(pairs)))
    return words


class TestShellWords:
    def test_seven_three(self):
        shell = shell_words(7, 3)
        assert str(shell.word(3)) == "xy^3xy^3xy"
        assert str(shell.word(7)) == "xyxyxyxyxyxyxy"
        assert shell.word(7) == parse_word("(xy)^7")

    def test_twelve_five(self):
        shell = shell_words(12, 5)
        assert shell.word(3) == parse_word("(xy^5)^2xy^2")

    def test_ends(self):
        shell = shell_words(7, 3)
        assert shell.word(0) == parse_word("y^7")
        assert shell.word(1) == parse_word("xy^7")
        assert shell.word(2) == parse_word("xy^3xy^4")
        assert str(E_WORD) == "x"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shell_words(6, 3)
        with pytest.raises(ValueError):
            shell_words(7, 0)
        with pytest.raises(ValueError):
            shell_words(7, 7)

    def test_indices_reject_bad_input(self):
        for p, qbar in [(6, 3), (7, 0), (7, 7)]:
            with pytest.raises(ValueError, match="need coprime"):
                shell_primitive_indices(p, qbar)
        with pytest.raises(ValueError, match="bound"):
            shell_primitive_indices(MAX_SHELL_P + 1, 1)

    def test_matches_sorted_residue_build(self):
        for p, qbar in coprime_pairs(60) + [(200, 77), (301, 150), (500, 123)]:
            words = shell_words(p, qbar).words
            assert [w.syllables for w in words] == [
                w.syllables for w in sorted_residue_shell(p, qbar)
            ], (p, qbar)
            for w in words:
                assert Word(w.syllables) == w

    def test_size_bound(self):
        shell = shell_words(MAX_SHELL_P, 999)
        assert len(shell.words) == MAX_SHELL_P + 1
        assert shell.word(MAX_SHELL_P) == parse_word(f"(xy)^{MAX_SHELL_P}")
        with pytest.raises(ValueError, match="bound"):
            shell_words(MAX_SHELL_P + 1, 1)

    def test_primitive_indices_frozen(self):
        assert shell_words(7, 3).primitive_indices == {1, 2, 5, 6}
        assert shell_words(12, 5).primitive_indices == {1, 5, 7, 11}
        assert shell_words(5, 2).primitive_indices == {1, 2, 3, 4}
        assert shell_words(2, 1).primitive_indices == {1}

    @pytest.mark.parametrize("p,qbar", [(9, 2), (11, 7), (13, 5), (16, 9)])
    def test_structure(self, p, qbar):
        shell = shell_words(p, qbar)
        assert len(shell.words) == p + 1
        assert shell.word(0) == Word((("y", p),))
        for k in range(1, p + 1):
            word = shell.word(k)
            sylls = word.syllables
            assert all(e >= 1 for _, e in sylls)
            assert sum(e for g, e in sylls if g == "x") == k
            assert sum(e for g, e in sylls if g == "y") == p
            # Cyclically reduced: positive words always are.
            assert CyclicWord.of(word).to_word().length == word.length

    def test_indices_match_partner(self):
        for p, qbar in coprime_pairs(30):
            t = modular_partner(p, qbar)
            expected = {1, t, p - t, p - 1}
            assert shell_words(p, qbar).primitive_indices == expected


# Every small shell, and two at the top of the size bound.
INCREMENTAL_PAIRS = [(60, None), (2000, 777), (1999, 500)]


def incremental_shells(max_p: int, qbar: int | None):
    """The shells of one INCREMENTAL_PAIRS entry: one pair, or with qbar
    None every coprime pair with p <= max_p."""
    pairs = coprime_pairs(max_p) if qbar is None else [(max_p, qbar)]
    return (shell_words(p, q) for p, q in pairs)


@pytest.mark.parametrize("max_p,qbar", INCREMENTAL_PAIRS)
class TestIncrementalShell:
    """What shell_words builds beside the words matches what the words
    themselves give when read from scratch."""

    def test_text_matches_format_word(self, max_p, qbar):
        for shell in incremental_shells(max_p, qbar):
            for k, w in enumerate(shell.words):
                assert str(w) == format_word(Word(w.syllables)), (shell.p, shell.qbar, k)

    def test_marks_filter_matches_oz_form_check(self, max_p, qbar):
        for shell in incremental_shells(max_p, qbar):
            shaped = dict(_shaped_letters(shell.p, shell.qbar))
            expected = {k for k, w in enumerate(shell.words) if oz_form_check(w)}
            assert shaped.keys() == expected, (shell.p, shell.qbar)
            for k, level in shaped.items():
                n = shell.p // k
                gaps = [e for g, e in shell.word(k).syllables if g == "y"]
                assert set(gaps) <= {n, n + 1}, (shell.p, shell.qbar, k)
                spelled = "".join("x" if g == n else "y" for g in gaps)
                assert level.decode() == spelled, (shell.p, shell.qbar, k)

    def test_primitive_indices_match_oracle_on_every_word(self, max_p, qbar):
        for shell in incremental_shells(max_p, qbar):
            oracle = {k for k, w in enumerate(shell.words) if is_primitive(w).is_primitive}
            assert shell.primitive_indices == oracle, (shell.p, shell.qbar)


class TestPrincipalVertex:
    def test_twelve_five_frozen(self):
        assert principal_vertex(12, 5, "") == PrincipalVertex("E_", "E_m", "E_{m+1}", 4, 4)
        assert principal_vertex(12, 5, "R") == PrincipalVertex("E_R", "E_m", "E_", 6, 6)
        assert principal_vertex(12, 5, "L") == PrincipalVertex("E_L", "E_", "E_{m+1}", 7, 1)

    def test_depth_two_shapes(self):
        # General forms at depth two, checked on (23, 7) with (m, r) = (3, 2).
        m, r, qbar = 3, 2, 7
        cases = {
            "RR": (4 * m, 4 * r),
            "RL": (5 * m + 1, 5 * r - qbar),
            "LL": (4 * m + 2, 4 * r - 2 * qbar),
            "LR": (5 * m + 2, 5 * r - 2 * qbar),
        }
        for w, (me, ne) in cases.items():
            v = principal_vertex(23, 7, w)
            assert (v.m_exp, v.n_exp) == (me, ne)

    def test_word_rendering(self):
        v = principal_vertex(12, 5, "")
        assert str(vertex_word(5, v.m_exp, v.n_exp)) == "xy^5xy^5xy^5xy^5xy^4"

    def test_rejects_bad_walk(self):
        with pytest.raises(ValueError):
            principal_vertex(12, 5, "RX")

    @pytest.mark.parametrize(
        "p, qbar, error, message",
        [
            (7, 3, NotForestError, "no division window at qbar = 3; principal tree undefined"),
            (5, 7, ValueError, "need coprime 1 <= qbar < p, got (5,7)"),
            (12, 4, ValueError, "need coprime 1 <= qbar < p, got (12,4)"),
        ],
        ids=["no-window", "qbar-above-p", "not-coprime"],
    )
    def test_rejects_bad_pairs(self, p, qbar, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            principal_vertex(p, qbar)

    @given(st.binary())
    def test_exponent_bookkeeping(self, raw: bytes):
        # n_exp is c*r - d*qbar where (c, d) follow the mediant rule
        # (c1+c2, d1+d2+1) from pair coefficients (1, -1) and (1, 0).
        p, qbar, m, r = 23, 7, 3, 2
        w = "".join("L" if b % 2 else "R" for b in raw[:12])
        pair = ((1, -1), (1, 0))
        for letter in w:
            mid = (pair[0][0] + pair[1][0], pair[0][1] + pair[1][1] + 1)
            pair = (pair[0], mid) if letter == "R" else (mid, pair[1])
        c, d = pair[0][0] + pair[1][0], pair[0][1] + pair[1][1] + 1
        v = principal_vertex(p, qbar, w)
        assert v.n_exp == c * r - d * qbar
        assert c >= 2 and d >= 0
        assert v.m_exp == c * m + d

    def test_exhaustive_depth_bookkeeping(self):
        # Same identity, every walk up to depth 10.
        p, qbar, m, r = 17, 5, 3, 2
        frontier = [("", ((1, -1), (1, 0)))]
        for _ in range(10):
            nxt = []
            for w, pair in frontier:
                mid = (pair[0][0] + pair[1][0], pair[0][1] + pair[1][1] + 1)
                c, d = mid
                v = principal_vertex(p, qbar, w)
                assert v.n_exp == c * r - d * qbar
                nxt.append((w + "L", (mid, pair[1])))
                nxt.append((w + "R", (pair[0], mid)))
            frontier = nxt


def corridor(bridge: Bridge) -> list[tuple[str, str, str]]:
    """The corridor triangles of a bridge, as (left, right, apex)."""
    return [(v.left, v.right, v.label) for v in bridge.walk[1:]]


class TestFindBridge:
    def test_twelve_five(self):
        bridge = find_bridge(LensSpace(12, 5), 5)
        assert bridge.w == ""
        assert str(bridge.d_word) == "xy^5xy^5xy^5xy^5xy^4"
        assert bridge.simplex_count == 2
        assert corridor(bridge) == [
            ("E", "E_m", "E_{m+1}"),
            ("E_m", "E_{m+1}", "E_"),
        ]
        assert bridge_end_homology(bridge) == (1, 5)

    def test_twenty_three_seven(self):
        bridge = find_bridge(LensSpace(23, 7), 7)
        assert bridge.w == "R"
        assert bridge.d_word == parse_word("(xy^7)^9xy^6")
        assert bridge.simplex_count == 3
        assert corridor(bridge) == [
            ("E", "E_m", "E_{m+1}"),
            ("E_m", "E_{m+1}", "E_"),
            ("E_m", "E_", "E_R"),
        ]
        assert bridge_end_homology(bridge) == (1, 7)

    def test_seventeen_five(self):
        bridge = find_bridge(LensSpace(17, 5), 5)
        assert bridge.w == ""
        assert bridge.d_word == parse_word("(xy^5)^6xy^4")

    def test_rejects_contractible(self):
        with pytest.raises(NotForestError):
            find_bridge(LensSpace(7, 3), 3)
        with pytest.raises(NotForestError):
            find_bridge(LensSpace(5, 2), 2)

    def test_rejects_foreign_qbar(self):
        with pytest.raises(ValueError):
            find_bridge(LensSpace(12, 5), 3)
        # q = q' names its one admissible value once.
        with pytest.raises(ValueError, match="^qbar must be 5, got 7$"):
            find_bridge(LensSpace(12, 5), 7)
        with pytest.raises(ValueError, match="^qbar must be 7 or 10, got 3$"):
            find_bridge(LensSpace(23, 7), 3)

    def test_l404_201_deep_walk(self):
        # L(404, 201) genuinely needs a deep walk.
        deep = find_bridge(LensSpace(404, 201), 201)
        assert deep.w == "R" * 98
        assert (deep.walk[-1].m_exp, deep.walk[-1].n_exp) == (200, 200)

    def test_l133_45(self):
        # The smallest p whose bridge lies beyond 2^20 nodes of breadth-first order.
        bridge = find_bridge(LensSpace(133, 45), 45)
        assert bridge.w == "L" * 20
        assert bridge.walk[-1].n_exp in (44, 46)

    def test_both_partners(self):
        space = LensSpace(23, 7)
        inv = invariants(space)
        assert inv.q_prime == 10
        other = find_bridge(space, 10)
        assert other.walk[-1].n_exp in (9, 11)
        assert bridge_end_homology(other) == (1, 10)

    def test_report_shape(self):
        report = bridge_report(find_bridge(LensSpace(12, 5), 5))
        assert report == {
            "qbar": 5,
            "m": 2,
            "r": 2,
            "w": "",
            "dWord": "xy^5xy^5xy^5xy^5xy^4",
            "simplexCount": 2,
            "homology": {"E": 1, "D": 5},
            "corridor": [
                ["E", "E_m", "E_{m+1}"],
                ["E_m", "E_{m+1}", "E_"],
            ],
        }

    def test_sweep_small(self):
        for space, qbar in forest_windows(200):
            bridge = find_bridge(space, qbar)
            assert bridge.walk[-1].n_exp in (qbar - 1, qbar + 1)
            assert bridge.simplex_count == len(bridge.w) + 2
            assert (bridge.m, bridge.r) == divmod(space.p, qbar)
            e, d = bridge_end_homology(bridge)
            assert e == 1 and d == qbar
            assert is_primitive(bridge.d_word).is_primitive

    def test_length_bound(self):
        # Over p = 4k + 4, qbar = 2k + 1 the bridge is R^(k - 2).
        k = MAX_BRIDGE_LENGTH + 2
        bridge = find_bridge(LensSpace(4 * k + 4, 2 * k + 1), 2 * k + 1)
        assert bridge.w == "R" * MAX_BRIDGE_LENGTH
        k += 1
        with pytest.raises(ValueError, match=f"more than {MAX_BRIDGE_LENGTH}"):
            find_bridge(LensSpace(4 * k + 4, 2 * k + 1), 2 * k + 1)

    def test_d_word_syllable_bound(self):
        # L(5k + 2, 5) has D = (xy^5)^(2k) xy^4: 4k + 2 syllables.
        bridge = find_bridge(LensSpace(625_002, 5), 5)
        assert len(bridge.d_word.syllables) == MAX_CORRIDOR_SYLLABLES == 500_002
        with pytest.raises(ValueError, match=f"more than {MAX_CORRIDOR_SYLLABLES}"):
            find_bridge(LensSpace(625_007, 5), 5)

    def test_corridor_triangles_obey_the_mediant_rule(self):
        for space, qbar in forest_windows(200):
            bridge = find_bridge(space, qbar)
            exponents = {v.label: (v.m_exp, v.n_exp) for v in bridge.walk}
            assert len(exponents) == len(bridge.walk)
            for v in bridge.walk[2:]:
                (m_a, n_a), (m_b, n_b) = exponents[v.left], exponents[v.right]
                assert exponents[v.label] == (m_a + m_b + 1, n_a + n_b - qbar), (space, v)

    def test_corridor_adjacent_simplices_share_one_edge(self):
        for space, qbar in forest_windows(40):
            triangles = corridor(find_bridge(space, qbar))
            for a, b in zip(triangles, triangles[1:]):
                assert len(set(a) & set(b)) == 2
            labels = [t[2] for t in triangles[1:]]
            assert labels[0] == "E_"

    def test_find_is_minimal_and_lex_least(self):
        # Brute-force the tree level by level and compare.
        for space, qbar in forest_windows(30):
            bridge = find_bridge(space, qbar)
            frontier = [""]
            found = None
            while found is None:
                hits = [
                    w
                    for w in frontier
                    if principal_vertex(space.p, qbar, w).n_exp
                    in (qbar - 1, qbar + 1)
                ]
                if hits:
                    found = sorted(hits)[0]
                    break
                frontier = [w + c for w in frontier for c in "LR"]
            assert bridge.w == found


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_shell_word_gap_sum(p, data):
    qbar = data.draw(
        st.sampled_from([t for t in range(1, p) if gcd(p, t) == 1]), label="qbar"
    )
    k = data.draw(st.integers(min_value=1, max_value=p), label="k")
    word = shell_words(p, qbar).word(k)
    assert word.abelianization() == (k, p)
