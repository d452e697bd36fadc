"""Labeled 2-complexes for shells, corridors, and the tree of trees.

Each builder returns a small simplicial complex whose vertices may carry
the attached disk boundary word, a primitivity flag, and the exponent
pair of the mediant tree.  Complexes canonicalize on construction
(sorted labels, sorted simplices) so exports are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .lens import LensSpace, invariants
from .primitivity import is_primitive
from .shell_bridge import (
    E_WORD,
    MAX_CORRIDOR_SYLLABLES,
    Bridge,
    Shell,
    _division,
    _walk,
    bridge_report,
    find_bridge,
    vertex_word,
)
from .words import Word, parse_word

MAX_PRINCIPAL_DEPTH = 12
MAX_BALL_RADIUS = 4
MAX_BALL_BRANCHING = 16


@dataclass(frozen=True)
class Vertex:
    label: str
    word: Word | None = None
    primitive: bool | None = None
    m_exp: int | None = None
    n_exp: int | None = None


@dataclass(frozen=True)
class SimplicialComplex2:
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    triangles: tuple[tuple[str, str, str], ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple(sorted(self.vertices, key=lambda v: v.label))
        )
        object.__setattr__(
            self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges))
        )
        object.__setattr__(
            self, "triangles", tuple(sorted(tuple(sorted(t)) for t in self.triangles))
        )
        validate(self)

    def vertex(self, label: str) -> Vertex:
        for v in self.vertices:
            if v.label == label:
                return v
        raise KeyError(label)


def validate(complex_: SimplicialComplex2) -> None:
    """Raise ValueError unless the complex is closed and duplicate-free."""
    labels = [v.label for v in complex_.vertices]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex labels")
    known = set(labels)
    if len(set(complex_.edges)) != len(complex_.edges):
        raise ValueError("duplicate edges")
    for a, b in complex_.edges:
        if a == b:
            raise ValueError(f"loop edge at {a!r}")
        if not {a, b} <= known:
            raise ValueError(f"edge ({a},{b}) has a missing endpoint")
    edge_set = set(complex_.edges)
    if len(set(complex_.triangles)) != len(complex_.triangles):
        raise ValueError("duplicate triangles")
    for t in complex_.triangles:
        if len(set(t)) != 3:
            raise ValueError(f"degenerate triangle {t}")
        for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            if pair not in edge_set:
                raise ValueError(f"triangle {t} is missing edge {pair}")


def _triangulated(vertices, triangles, meta: dict) -> SimplicialComplex2:
    """The complex of the given triangles, with every edge they have."""
    edges = set()
    for t in triangles:
        a, b, c = sorted(t)
        edges.update({(a, b), (a, c), (b, c)})
    return SimplicialComplex2(tuple(vertices), tuple(edges), tuple(triangles), meta)


def build_shell_complex(shell: Shell) -> SimplicialComplex2:
    """Fan of p triangles {E, E_i, E_i+1} around the center disk E."""
    vertices = [Vertex("E", E_WORD, True)]
    for k, word in enumerate(shell.words):
        vertices.append(Vertex(f"E_{k}", word, k in shell.primitive_indices))
    triangles = [("E", f"E_{i}", f"E_{i + 1}") for i in range(shell.p)]
    return _triangulated(vertices, triangles, {"kind": "shell", "p": shell.p, "qbar": shell.qbar})


def build_principal_complex(p: int, qbar: int, depth: int) -> SimplicialComplex2:
    """Mediant tree of (p, qbar), as triangles, down to the given depth.

    The base pair is (m, r) = divmod(p, qbar); a bad pair raises
    ValueError and a pair without a division window NotForestError.  The
    tree is the union of the walks along the 2^depth tree words w of that
    length, each without its last vertex E_w.
    """
    m, r = _division(p, qbar)
    if not 0 <= depth <= MAX_PRINCIPAL_DEPTH:
        raise ValueError(f"depth must be within 0..{MAX_PRINCIPAL_DEPTH}")
    tree = {
        v.label: v
        for w in product("LR", repeat=depth)
        for v in _walk(qbar, m, r, "".join(w))[:-1]
    }
    vertices = [Vertex("E", E_WORD)] + [
        Vertex(v.label, vertex_word(qbar, v.m_exp, v.n_exp), None, v.m_exp, v.n_exp)
        for v in tree.values()
    ]
    triangles = [(v.left, v.right, v.label) for v in tree.values() if v.left is not None]
    return _triangulated(
        vertices,
        triangles,
        {"kind": "principal", "p": p, "qbar": qbar, "m": m, "r": r, "depth": depth},
    )


def build_bridge_corridor(bridge: Bridge) -> SimplicialComplex2:
    """The corridor of a bridge, with concrete shell labels at the near end.

    The symbolic corridor labels E_m and E_{m+1} become E_<m> and
    E_<m+1>; the far vertex is D.  Primitivity flags come from the
    primitivity oracle, so the two ends are flagged and no interior
    vertex is.  A corridor whose words hold more than
    MAX_CORRIDOR_SYLLABLES syllables in all raises ValueError before any
    word is built.
    """
    m, qbar = bridge.m, bridge.qbar
    rename = {
        "E_m": f"E_{m}",
        "E_{m+1}": f"E_{m + 1}",
        "E_" + bridge.w: "D",
    }
    # The words hold sum(2 m_exp + 2) syllables, the cost of building,
    # deciding and exporting them.
    syllables = sum(2 * v.m_exp + 2 for v in bridge.walk)
    if syllables > MAX_CORRIDOR_SYLLABLES:
        raise ValueError(
            f"{bridge.lens!r}: bridge corridor words hold {syllables} syllables,"
            f" more than {MAX_CORRIDOR_SYLLABLES}"
        )
    vertices = [Vertex("E", E_WORD, True)]
    for v in bridge.walk:
        word = vertex_word(qbar, v.m_exp, v.n_exp)
        primitive = is_primitive(word).is_primitive
        vertices.append(Vertex(rename.get(v.label, v.label), word, primitive, v.m_exp, v.n_exp))
    triangles = [
        tuple(rename.get(label, label) for label in (v.left, v.right, v.label))
        for v in bridge.walk[1:]
    ]
    return _triangulated(
        vertices,
        triangles,
        {
            "kind": "bridge",
            "p": bridge.lens.p,
            "q": bridge.lens.q,
            "qbar": qbar,
            "w": bridge.w,
            "simplexCount": bridge.simplex_count,
        },
    )


def build_tree_of_trees_ball(
    space: LensSpace, radius: int, branching: int
) -> SimplicialComplex2:
    """Schematic ball in the tree of trees, truncated to finite branching.

    The true tree has infinite valency at every vertex, so the output is
    a display object; meta records the truncation and the quotient of
    the full tree by the group action.
    """
    if not 0 <= radius <= MAX_BALL_RADIUS:
        raise ValueError(f"radius must be within 0..{MAX_BALL_RADIUS}")
    if not 1 <= branching <= MAX_BALL_BRANCHING:
        raise ValueError(f"branching must be within 1..{MAX_BALL_BRANCHING}")
    report = bridge_report(find_bridge(space, space.q))
    vertices = [Vertex("T")]
    edges = []
    frontier = ["T"]
    for _ in range(radius):
        next_frontier = []
        for parent in frontier:
            for i in range(1, branching + 1):
                child = f"{parent}.{i}"
                vertices.append(Vertex(child))
                edges.append((parent, child))
                next_frontier.append(child)
        frontier = next_frontier
    quotient = (
        "single edge, two vertices"
        if invariants(space).q_squared_is_one
        else "single edge, one vertex (loop)"
    )
    return SimplicialComplex2(
        tuple(vertices),
        tuple(edges),
        (),
        {
            "kind": "treeOfTrees",
            "p": space.p,
            "q": space.q,
            "radius": radius,
            "branching": branching,
            "truncated": True,
            "quotient": quotient,
            "bridge": report,
        },
    )


def _json_list(items: list[str]) -> str:
    """A list of already encoded items at the document's second level."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _json_rows(simplices) -> str:
    """The edges or triangles as a list of lists of quoted labels."""
    quote = json.encoder.encode_basestring_ascii
    return _json_list(["[\n      " + ",\n      ".join(map(quote, s)) + "\n    ]" for s in simplices])


def export_json(complex_: SimplicialComplex2) -> str:
    """Canonical JSON text; stable under import_json round-trips.

    The text is json.dumps(document, indent=2) byte for byte, written
    here because CPython runs its C encoder only when indent is None.
    Strings go through the C function json.dumps quotes them with; meta
    is re-indented a level, which is exact since JSON text holds no raw
    newline inside a string.
    """
    quote = json.encoder.encode_basestring_ascii
    vertices = []
    for v in complex_.vertices:
        fields = ['"label": ' + quote(v.label)]
        if v.word is not None:
            fields.append('"word": ' + quote(str(v.word)))
        if v.primitive is not None:
            fields.append('"primitive": true' if v.primitive else '"primitive": false')
        if v.m_exp is not None:
            fields.append(f'"mExp": {v.m_exp}')
        if v.n_exp is not None:
            fields.append(f'"nExp": {v.n_exp}')
        vertices.append("{\n      " + ",\n      ".join(fields) + "\n    }")
    meta = json.dumps(complex_.meta, indent=2).replace("\n", "\n  ")
    return (
        f'{{\n  "vertices": {_json_list(vertices)},\n  "edges": {_json_rows(complex_.edges)},'
        f'\n  "triangles": {_json_rows(complex_.triangles)},\n  "meta": {meta}\n}}\n'
    )


def import_json(text: str) -> SimplicialComplex2:
    data = json.loads(text)
    vertices = tuple(
        Vertex(
            entry["label"],
            parse_word(entry["word"]) if "word" in entry else None,
            entry.get("primitive"),
            entry.get("mExp"),
            entry.get("nExp"),
        )
        for entry in data["vertices"]
    )
    return SimplicialComplex2(
        vertices,
        tuple(tuple(e) for e in data["edges"]),
        tuple(tuple(t) for t in data["triangles"]),
        data["meta"],
    )


def export_dot(complex_: SimplicialComplex2) -> str:
    """DOT rendering; triangles appear as clique edges plus id comments."""
    name = complex_.meta.get("kind", "complex")
    lines = [f"graph {name} {{"]
    for v in complex_.vertices:
        attrs = " [peripheries=2]" if v.primitive else ""
        lines.append(f'  "{v.label}"{attrs};')
    for a, b in complex_.edges:
        lines.append(f'  "{a}" -- "{b}";')
    for i, t in enumerate(complex_.triangles):
        lines.append(f'  // triangle {i}: "{t[0]}" "{t[1]}" "{t[2]}"')
    lines.append("}")
    return "\n".join(lines) + "\n"
