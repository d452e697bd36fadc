"""Complex builders, validation, and deterministic exports."""

from __future__ import annotations

import json
from math import gcd

import pytest

from goeritz.complexes import (
    MAX_CORRIDOR_SYLLABLES,
    SimplicialComplex2,
    Vertex,
    build_bridge_corridor,
    build_principal_complex,
    build_shell_complex,
    build_tree_of_trees_ball,
    export_dot,
    export_json,
    import_json,
    validate,
)
from goeritz.lens import LensSpace, division_window
from goeritz.shell_bridge import NotForestError, find_bridge, shell_words
from goeritz.verify import forest_windows
from goeritz.words import Word, parse_word

# (p, qbar, m, r, depth): two trees at every depth up to 8, then every
# forest window with p <= 40 at depth 9, which holds every vertex of the
# walks of depth <= 8.
MEDIANT_CASES = [
    (p, qbar, m, r, depth)
    for depth in range(9)
    for p, qbar, m, r in [(12, 5, 2, 2), (23, 7, 3, 2)]
] + [
    (p, qbar, *division_window(p, qbar), 9)
    for p, qbar in sorted({(space.p, qbar) for space, qbar in forest_windows(40)})
]


def reference_json(c: SimplicialComplex2) -> str:
    """The export as json.dumps writes it from the document dict."""
    vertices = []
    for v in c.vertices:
        entry: dict = {"label": v.label}
        if v.word is not None:
            entry["word"] = str(v.word)
        if v.primitive is not None:
            entry["primitive"] = v.primitive
        if v.m_exp is not None:
            entry["mExp"] = v.m_exp
        if v.n_exp is not None:
            entry["nExp"] = v.n_exp
        vertices.append(entry)
    document = {
        "vertices": vertices,
        "edges": [list(e) for e in c.edges],
        "triangles": [list(t) for t in c.triangles],
        "meta": c.meta,
    }
    return json.dumps(document, indent=2) + "\n"


def euler_characteristic(c: SimplicialComplex2) -> int:
    return len(c.vertices) - len(c.edges) + len(c.triangles)


class TestValidation:
    def test_missing_edge_endpoint(self):
        with pytest.raises(ValueError):
            SimplicialComplex2((Vertex("a"),), (("a", "b"),), ())

    def test_triangle_needs_edges(self):
        vs = (Vertex("a"), Vertex("b"), Vertex("c"))
        with pytest.raises(ValueError):
            SimplicialComplex2(vs, (("a", "b"),), (("a", "b", "c"),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex2((Vertex("a"), Vertex("a")), (), ())
        vs = (Vertex("a"), Vertex("b"))
        with pytest.raises(ValueError):
            SimplicialComplex2(vs, (("a", "b"), ("b", "a")), ())

    def test_loop_edge_rejected(self):
        with pytest.raises(ValueError, match="loop edge"):
            SimplicialComplex2((Vertex("a"),), (("a", "a"),), ())

    def test_degenerate_triangle_rejected(self):
        vs = (Vertex("a"), Vertex("b"))
        with pytest.raises(ValueError, match="degenerate triangle"):
            SimplicialComplex2(vs, (("a", "b"),), (("a", "a", "b"),))

    def test_canonical_ordering(self):
        vs = (Vertex("b"), Vertex("a"))
        c = SimplicialComplex2(vs, (("b", "a"),), ())
        assert [v.label for v in c.vertices] == ["a", "b"]
        assert c.edges == (("a", "b"),)
        validate(c)


class TestShellComplex:
    def test_seven_three(self):
        c = build_shell_complex(shell_words(7, 3))
        assert len(c.vertices) == 9
        assert len(c.triangles) == 7
        flagged = {v.label for v in c.vertices if v.primitive}
        assert flagged == {"E", "E_1", "E_2", "E_5", "E_6"}
        assert euler_characteristic(c) == 1

    def test_five_two(self):
        c = build_shell_complex(shell_words(5, 2))
        assert len(c.vertices) == 7
        assert len(c.triangles) == 5
        assert euler_characteristic(c) == 1

    def test_twelve_five_flags(self):
        c = build_shell_complex(shell_words(12, 5))
        flagged = {v.label for v in c.vertices if v.primitive}
        assert flagged == {"E", "E_1", "E_5", "E_7", "E_11"}
        assert str(c.vertex("E_0").word) == "y^12"

    @pytest.mark.parametrize("p,qbar", [(4, 1), (9, 2), (11, 4)])
    def test_fan_shape(self, p, qbar):
        c = build_shell_complex(shell_words(p, qbar))
        assert euler_characteristic(c) == 1
        assert len(c.triangles) == p


class TestPrincipalComplex:
    def test_depth_one(self):
        c = build_principal_complex(12, 5, 1)
        assert {v.label for v in c.vertices} == {"E", "E_m", "E_{m+1}", "E_"}
        assert c.triangles == (
            ("E", "E_m", "E_{m+1}"),
            ("E_", "E_m", "E_{m+1}"),
        )
        assert c.vertex("E_").n_exp == 4

    def test_depth_two_annotations(self):
        c = build_principal_complex(12, 5, 2)
        assert c.vertex("E_R").n_exp == 6
        assert c.vertex("E_L").n_exp == 1
        assert c.vertex("E_L").m_exp == 7
        assert str(c.vertex("E_m").word) == "xy^5xy^7"

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 5])
    def test_vertex_count(self, depth):
        c = build_principal_complex(23, 7, depth)
        assert len(c.vertices) == 3 + (1 << depth) - 1
        assert len(c.triangles) == 1 << depth

    @pytest.mark.parametrize("p, qbar, m, r, depth", MEDIANT_CASES)
    def test_every_triangle_obeys_the_mediant_rule(self, p, qbar, m, r, depth):
        # Below the root triangle {E, E_m, E_{m+1}}, the apex of a triangle
        # is its vertex of largest m-exponent, since m_a + m_b + 1 exceeds
        # both parents'; every tree vertex is the apex of exactly one.
        c = build_principal_complex(p, qbar, depth)
        assert (c.meta["m"], c.meta["r"]) == (m, r)
        assert len(c.triangles) == 1 << depth
        assert ("E", "E_m", "E_{m+1}") in c.triangles
        by_label = {v.label: v for v in c.vertices}
        apexes = []
        for triangle in c.triangles:
            if "E" in triangle:
                continue
            apex, a, b = sorted(map(by_label.get, triangle), key=lambda v: -v.m_exp)
            assert (apex.m_exp, apex.n_exp) == (
                a.m_exp + b.m_exp + 1,
                a.n_exp + b.n_exp - qbar,
            )
            apexes.append(apex.label)
        labels = {v.label for v in c.vertices} - {"E", "E_m", "E_{m+1}"}
        assert sorted(apexes) == sorted(labels)
        # Each word is the reduced (xy^qbar)^m_exp xy^n_exp, n_exp = 0 or not.
        for v in c.vertices:
            if v.label == "E":
                continue
            reduced = Word((("x", 1), ("y", qbar)) * v.m_exp + (("x", 1), ("y", v.n_exp)))
            assert v.word.syllables == reduced.syllables, v
            assert str(v.word) == str(reduced)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            build_principal_complex(12, 5, 13)

    @pytest.mark.parametrize(
        "p, qbar, error",
        [(7, 3, NotForestError), (5, 7, ValueError), (12, 4, ValueError), (3, 5, ValueError)],
    )
    def test_rejects_bad_pairs(self, p, qbar, error):
        with pytest.raises(error):
            build_principal_complex(p, qbar, depth=1)


class TestBridgeCorridor:
    def test_twelve_five(self):
        c = build_bridge_corridor(find_bridge(LensSpace(12, 5), 5))
        assert {v.label for v in c.vertices} == {"D", "E", "E_2", "E_3"}
        assert len(c.triangles) == 2
        flagged = {v.label for v in c.vertices if v.primitive}
        assert flagged == {"D", "E"}

    def test_twenty_three_seven(self):
        c = build_bridge_corridor(find_bridge(LensSpace(23, 7), 7))
        assert {v.label for v in c.vertices} == {"D", "E", "E_3", "E_4", "E_"}
        assert len(c.triangles) == 3
        assert c.vertex("E_").primitive is False
        assert c.vertex("D").primitive is True

    def test_syllable_bound(self):
        # L(2000, 999) holds the most corridor syllables of any p <= 2000;
        # L(2004, 1001), the next of its family, is past the bound.
        with pytest.raises(ValueError, match=f"more than {MAX_CORRIDOR_SYLLABLES}"):
            build_bridge_corridor(find_bridge(LensSpace(2004, 1001), 1001))
        c = build_bridge_corridor(find_bridge(LensSpace(2000, 999), 999))
        words = [v.word for v in c.vertices if v.label != "E"]
        assert sum(len(w.syllables) for w in words) == 500_002 == MAX_CORRIDOR_SYLLABLES
        assert len(c.triangles) == c.meta["simplexCount"]
        assert {v.label for v in c.vertices if v.primitive} == {"D", "E"}

    def test_largest_corridor_reads_back(self):
        c = build_bridge_corridor(find_bridge(LensSpace(2000, 999), 999))
        assert import_json(export_json(c)) == c

    def test_interiors_never_flagged(self):
        for p, q, qbar in [(12, 5, 5), (17, 5, 5), (23, 7, 7), (29, 12, 12)]:
            c = build_bridge_corridor(find_bridge(LensSpace(p, q), qbar))
            for v in c.vertices:
                assert v.primitive is (v.label in {"D", "E"})


class TestTreeOfTreesBall:
    def test_star(self):
        c = build_tree_of_trees_ball(LensSpace(12, 5), 1, 3)
        assert {v.label for v in c.vertices} == {"T", "T.1", "T.2", "T.3"}
        assert len(c.edges) == 3
        assert c.triangles == ()

    def test_binary_radius_two(self):
        c = build_tree_of_trees_ball(LensSpace(12, 5), 2, 2)
        assert len(c.vertices) == 7
        assert len(c.edges) == 6

    def test_quotient_metadata(self):
        one = build_tree_of_trees_ball(LensSpace(12, 5), 1, 2)
        assert one.meta["quotient"] == "single edge, two vertices"
        other = build_tree_of_trees_ball(LensSpace(23, 7), 1, 2)
        assert other.meta["quotient"] == "single edge, one vertex (loop)"
        assert one.meta["truncated"] is True
        assert one.meta["bridge"]["dWord"] == "xy^5xy^5xy^5xy^5xy^4"

    def test_guards(self):
        with pytest.raises(ValueError):
            build_tree_of_trees_ball(LensSpace(12, 5), 5, 2)
        with pytest.raises(ValueError):
            build_tree_of_trees_ball(LensSpace(12, 5), 2, 17)
        with pytest.raises(NotForestError):
            build_tree_of_trees_ball(LensSpace(7, 3), 1, 2)


class TestExports:
    def test_empty_documents(self):
        empty = SimplicialComplex2((), (), ())
        assert export_dot(empty) == "graph complex {\n}\n"
        data = json.loads(export_json(empty))
        assert data == {"vertices": [], "edges": [], "triangles": [], "meta": {}}

    def test_json_round_trip(self):
        for c in [
            build_shell_complex(shell_words(12, 5)),
            build_principal_complex(12, 5, 3),
            build_bridge_corridor(find_bridge(LensSpace(23, 7), 7)),
            build_tree_of_trees_ball(LensSpace(12, 5), 2, 3),
        ]:
            text = export_json(c)
            again = import_json(text)
            assert again == c
            assert export_json(again) == text

    def test_json_is_newline_terminated_and_ascii(self):
        text = export_json(build_shell_complex(shell_words(7, 3)))
        assert text.endswith("\n")
        assert text.isascii()

    def test_dot_shape(self):
        dot = export_dot(build_bridge_corridor(find_bridge(LensSpace(12, 5), 5)))
        lines = dot.splitlines()
        assert lines[0] == "graph bridge {"
        assert '  "D" [peripheries=2];' in lines
        assert '  "E_2";' in lines
        assert '  "D" -- "E_2";' in lines
        assert any(line.startswith("  // triangle 0:") for line in lines)
        assert lines[-1] == "}"

    def test_exports_deterministic(self):
        a = build_principal_complex(12, 5, 3)
        b = build_principal_complex(12, 5, 3)
        assert export_json(a) == export_json(b)
        assert export_dot(a) == export_dot(b)


class TestJsonMatchesReference:
    """export_json writes what json.dumps(document, indent=2) writes."""

    def assert_matches(self, c: SimplicialComplex2) -> None:
        assert export_json(c) == reference_json(c)

    def test_every_shell_complex(self):
        for p in range(2, 41):
            for qbar in range(1, p):
                if gcd(p, qbar) == 1:
                    self.assert_matches(build_shell_complex(shell_words(p, qbar)))

    def test_corridors_and_principal_trees(self):
        for space, qbar in forest_windows(40):
            self.assert_matches(build_bridge_corridor(find_bridge(space, qbar)))
            for depth in range(5):
                self.assert_matches(build_principal_complex(space.p, qbar, depth))

    @pytest.mark.parametrize("radius", [0, 2])
    def test_tree_of_trees_balls(self, radius):
        # meta nests the bridge report, a dict that holds lists.
        for space in (LensSpace(12, 5), LensSpace(23, 7), LensSpace(33, 10)):
            self.assert_matches(build_tree_of_trees_ball(space, radius, 3))

    def test_empty_complex(self):
        self.assert_matches(SimplicialComplex2((), (), ()))

    def test_escapes(self):
        # A quote, a backslash, a newline and a non-ASCII letter, in labels
        # and in meta, take json.dumps's ensure_ascii escapes.
        labels = ['a"', "b\\", "c\nd", "ε"]
        self.assert_matches(SimplicialComplex2(
            tuple(Vertex(label, parse_word("xy^-2"), i % 2 == 0) for i, label in enumerate(labels)),
            tuple((a, b) for a in labels for b in labels if a < b),
            (tuple(labels[:3]),),
            {"kind": 'k"\\\nε', "nested": {"list": [1, "ε", None, True]}, "empty": {}},
        ))
