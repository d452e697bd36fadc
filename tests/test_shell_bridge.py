"""Shell words, mediant tree walks, and bridges."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.lens import LensSpace, division_window, invariants, modular_partner
from goeritz.primitivity import is_primitive
from goeritz.shell_bridge import (
    MAX_BRIDGE_LENGTH,
    MAX_SHELL_P,
    Bridge,
    NotForestError,
    PrincipalVertex,
    bridge_end_homology,
    bridge_report,
    find_bridge,
    principal_vertex,
    shell_words,
)
from goeritz.verify import forest_windows
from goeritz.words import CyclicWord, Word, parse_word


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
        assert str(shell.e_word) == "x"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shell_words(6, 3)
        with pytest.raises(ValueError):
            shell_words(7, 0)
        with pytest.raises(ValueError):
            shell_words(7, 7)

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


class TestPrincipalVertex:
    def test_twelve_five_frozen(self):
        assert principal_vertex(12, 5, 2, 2, "") == PrincipalVertex(5, "", 4, 4)
        assert principal_vertex(12, 5, 2, 2, "R") == PrincipalVertex(5, "R", 6, 6)
        assert principal_vertex(12, 5, 2, 2, "L") == PrincipalVertex(5, "L", 7, 1)

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
            v = principal_vertex(23, 7, 3, 2, w)
            assert (v.m_exp, v.n_exp) == (me, ne)

    def test_word_rendering(self):
        v = principal_vertex(12, 5, 2, 2, "")
        assert str(v.word()) == "xy^5xy^5xy^5xy^5xy^4"

    def test_rejects_bad_walk(self):
        with pytest.raises(ValueError):
            principal_vertex(12, 5, 2, 2, "RX")
        with pytest.raises(ValueError):
            principal_vertex(12, 5, 2, 3, "")

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
        v = principal_vertex(p, qbar, m, r, w)
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
                v = principal_vertex(p, qbar, m, r, w)
                assert v.n_exp == c * r - d * qbar
                nxt.append((w + "L", (mid, pair[1])))
                nxt.append((w + "R", (pair[0], mid)))
            frontier = nxt


class TestFindBridge:
    def test_twelve_five(self):
        bridge = find_bridge(LensSpace(12, 5), 5)
        assert bridge.w == ""
        assert str(bridge.d_word) == "xy^5xy^5xy^5xy^5xy^4"
        assert bridge.simplex_count == 2
        assert bridge.corridor == (
            ("E", "E_m", "E_{m+1}"),
            ("E_m", "E_{m+1}", "E_"),
        )
        assert bridge_end_homology(bridge) == (1, 5)

    def test_twenty_three_seven(self):
        bridge = find_bridge(LensSpace(23, 7), 7)
        assert bridge.w == "R"
        assert bridge.d_word == parse_word("(xy^7)^9xy^6")
        assert bridge.simplex_count == 3
        assert bridge.corridor == (
            ("E", "E_m", "E_{m+1}"),
            ("E_m", "E_{m+1}", "E_"),
            ("E_m", "E_", "E_R"),
        )
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

    def test_l404_201_deep_walk(self):
        # L(404, 201) genuinely needs a deep walk.
        deep = find_bridge(LensSpace(404, 201), 201)
        assert deep.w == "R" * 98
        assert (deep.m_exp, deep.n_exp) == (200, 200)

    def test_l133_45(self):
        # The smallest p whose bridge lies beyond 2^20 nodes of breadth-first order.
        bridge = find_bridge(LensSpace(133, 45), 45)
        assert bridge.w == "L" * 20
        assert bridge.n_exp in (44, 46)

    def test_both_partners(self):
        space = LensSpace(23, 7)
        inv = invariants(space)
        assert inv.q_prime == 10
        other = find_bridge(space, 10)
        assert other.n_exp in (9, 11)
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
            assert bridge.n_exp in (qbar - 1, qbar + 1)
            assert bridge.simplex_count == len(bridge.w) + 2
            e, d = bridge_end_homology(bridge)
            assert e == 1 and d == qbar
            assert d != e
            if space.p <= 40:  # the oracle takes minutes on the longer words beyond
                assert is_primitive(bridge.d_word).is_primitive

    def test_length_bound(self):
        # Over p = 4k + 4, qbar = 2k + 1 the bridge is R^(k - 2).
        k = MAX_BRIDGE_LENGTH + 2
        bridge = find_bridge(LensSpace(4 * k + 4, 2 * k + 1), 2 * k + 1)
        assert bridge.w == "R" * MAX_BRIDGE_LENGTH
        k += 1
        with pytest.raises(ValueError, match=f"more than {MAX_BRIDGE_LENGTH}"):
            find_bridge(LensSpace(4 * k + 4, 2 * k + 1), 2 * k + 1)

    def test_corridor_adjacent_simplices_share_one_edge(self):
        for space, qbar in forest_windows(40):
            corridor = find_bridge(space, qbar).corridor
            for a, b in zip(corridor, corridor[1:]):
                assert len(set(a) & set(b)) == 2
            labels = [t[2] for t in corridor[1:]]
            assert labels[0] == "E_"

    def test_find_is_minimal_and_lex_least(self):
        # Brute-force the tree level by level and compare.
        for space, qbar in forest_windows(30):
            m, r = division_window(space.p, qbar)
            bridge = find_bridge(space, qbar)
            frontier = [""]
            found = None
            while found is None:
                hits = [
                    w
                    for w in frontier
                    if principal_vertex(space.p, qbar, m, r, w).n_exp
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
