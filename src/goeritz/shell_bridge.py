"""Shell word sequences, the mediant tree, and minimal bridges.

The shell of a (p, qbar) pair lists the boundary words E_0 .. E_p; the
word of E_k reads off the cyclic gaps of the first k multiples of qbar
in Z/p.  The principal complex is a binary tree of vertices obtained by
a mediant rule on (m-exponent, n-exponent) pairs, and a bridge is the
shortest corridor of triangles from the base pair to a vertex whose
n-exponent is qbar - 1 or qbar + 1.

Shifting every vertex (m, n) to (m + 1, n - qbar) turns the mediant rule
into vector addition, so the principal tree is the Stern-Brocot tree on
coefficients (i, j) of i*(m, r) + j*(m + 1, r - qbar).  A vertex has
n-exponent qbar -+ 1 exactly when i*r - j*(qbar - r) = +-1, and the
shallowest such vertex is one of the two Farey parents of r/(qbar - r)
(Graham, Knuth and Patashnik, Concrete Mathematics, section 4.5).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .lens import Classification, LensSpace, check_pair, division_window, invariants
from .primitivity import _descend
from .words import Word, _syllable_text

# Longest tree word find_bridge builds; the corridor labels grow with its
# square.  Every forest case with p <= 2000 fits (deepest: 497 letters).
MAX_BRIDGE_LENGTH = 512

# Most syllables in the words of one bridge: its D-word alone in
# find_bridge, and all its corridor's words in build_bridge_corridor.
# Every forest case with p <= 2000 fits; the corridor of L(2000, 999)
# holds the most, 500,002.
MAX_CORRIDOR_SYLLABLES = 500_002

# Largest p shell_words builds; the shell holds about 1.5 p^2 letters.  It
# matches the p <= 2000 reach of the bridge bounds.
MAX_SHELL_P = 2000

# The boundary word of the center disk E.
E_WORD = Word((("x", 1),))


class NotForestError(Exception):
    """The primitive disk complex is contractible, so no bridge exists."""


@dataclass(frozen=True)
class Shell:
    """The words E_0 .. E_p of one shell, each with its text cached."""

    p: int
    qbar: int
    words: tuple[Word, ...]

    def word(self, k: int) -> Word:
        return self.words[k]

    @cached_property
    def primitive_indices(self) -> frozenset[int]:
        """Indices k whose word E_k the primitivity oracle accepts."""
        return shell_primitive_indices(self.p, self.qbar)


def _check_shell(p: int, qbar: int) -> None:
    check_pair(p, qbar)
    if p > MAX_SHELL_P:
        raise ValueError(f"shell p = {p} is above the bound {MAX_SHELL_P}")


def shell_words(p: int, qbar: int) -> Shell:
    """Boundary words E_0 .. E_p of the (p, qbar) shell.

    E_k is x y^(g_1) .. x y^(g_k) where the g_i are the cyclic gaps of
    the sorted residues {0, qbar, .., (k-1) qbar mod p}; E_0 is y^p.
    E_{k+1} comes from E_k by placing the residue r = k qbar mod p: r
    splits one gap y^(b-a) into y^(r-a) x y^(b-r).  The syllables
    alternate x with positive powers of y, so they are reduced as built,
    and their texts are spliced the same way.
    """
    _check_shell(p, qbar)
    residues = [0]
    syllables: list[tuple[str, int]] = [("x", 1), ("y", p)]
    texts = ["x", _syllable_text("y", p)]
    words = [
        Word.from_reduced((("y", p),), texts[1]),
        Word.from_reduced(tuple(syllables), "".join(texts)),
    ]
    for k in range(1, p):
        r = k * qbar % p
        j = bisect(residues, r)
        a = residues[j - 1]
        b = residues[j] if j < len(residues) else p
        syllables[2 * j - 1 : 2 * j] = [("y", r - a), ("x", 1), ("y", b - r)]
        texts[2 * j - 1 : 2 * j] = [_syllable_text("y", r - a), "x", _syllable_text("y", b - r)]
        residues.insert(j, r)
        words.append(Word.from_reduced(tuple(syllables), "".join(texts)))
    return Shell(p, qbar, tuple(words))


# Spells a residue mark, a 1, as x.
_MARK_X = bytes.maketrans(b"\1", b"x")


def _shaped_letters(p: int, qbar: int):
    """(k, level-1 letters of E_k) for each k whose E_k has the shape,
    read off the residue marks as shell_primitive_indices says."""
    marks = bytearray(p)
    for k in range(1, p + 1):
        marks[(k - 1) * qbar % p] = 1
        n = p // k
        long_gap = b"\1" + b"\0" * n
        if b"\0" * (n + 1) not in marks and marks.count(long_gap) == p - n * k:
            yield k, bytes(marks).replace(long_gap, b"y").translate(_MARK_X, b"\0")


def shell_primitive_indices(p: int, qbar: int) -> frozenset[int]:
    """Indices k whose shell word E_k is primitive, decided without
    building a Word.

    marks[r] is 1 for the residues {0, qbar, .., (k-1) qbar mod p}, so a
    gap g is a 1 and g - 1 zeros, and E_k is x y^g over its gaps.  With x
    the separator, E_k (k >= 1) has the shape, the first level of the
    descent, iff its gaps are n or n + 1 for n = floor(p / k): no n + 1
    zeros in a row, and p - n k gaps of n + 1.  By the three-gap
    theorem (Sos 1958) there are never more than three gap lengths.
    E_0 = y^p is a proper power and has no shape.  The marks spell a
    shaped word's level 1, x y^n as x and x y^(n+1) as y.  It is x^k when
    p = n k, and (x y^n)^k is primitive only at k = 1.
    """
    _check_shell(p, qbar)
    levels = _shaped_letters(p, qbar)
    return frozenset(k for k, w in levels if w == b"x" or b"y" in w and _descend(w, []) == 1)


class PrincipalVertex(NamedTuple):
    """Vertex E_v of the mediant tree: its label, the labels of its left
    and right parents (None for E_m, which has none), and the exponents
    of its word (xy^qbar)^m_exp xy^n_exp."""

    label: str
    left: str | None
    right: str | None
    m_exp: int
    n_exp: int


def vertex_word(qbar: int, m_exp: int, n_exp: int) -> Word:
    """(xy^qbar)^m_exp xy^n_exp, without y^0.  The syllables alternate x
    with a nonzero power of y, so they are already reduced."""
    last = (("x", 1), ("y", n_exp)) if n_exp else (("x", 1),)
    return Word.from_reduced((("x", 1), ("y", qbar)) * m_exp + last)


def _division(p: int, qbar: int) -> tuple[int, int]:
    """(m, r) = divmod(p, qbar), the principal tree's base pair; check_pair's
    ValueError for a bad pair, NotForestError if r is outside the window."""
    check_pair(p, qbar)
    window = division_window(p, qbar)
    if window is None:
        raise NotForestError(f"no division window at qbar = {qbar}; principal tree undefined")
    return window


def _walk(qbar: int, m: int, r: int, w: str) -> list[PrincipalVertex]:
    """E_m, E_{m+1}, then E_v for every prefix v of w, ending with E_w.

    E_m has no parents, and E_{m+1} closes the root triangle with E and
    E_m.  Each E_v is the mediant of its parents a and b, with exponents
    (m_a + m_b + 1, n_a + n_b - qbar); the next letter of w makes E_v the
    right parent (R) or the left one (L).
    """
    left = PrincipalVertex("E_m", None, None, m - 1, qbar + r)
    right = PrincipalVertex("E_{m+1}", "E", "E_m", m, r)
    steps = [left, right]
    for i in range(len(w) + 1):
        m_exp, n_exp = left.m_exp + right.m_exp + 1, left.n_exp + right.n_exp - qbar
        mid = PrincipalVertex("E_" + w[:i], left.label, right.label, m_exp, n_exp)
        steps.append(mid)
        letter = w[i : i + 1]
        if letter == "R":
            right = mid
        elif letter == "L":
            left = mid
        elif letter:
            raise ValueError(f"tree word letter {letter!r} is not L or R")
    return steps


def principal_vertex(p: int, qbar: int, w: str = "") -> PrincipalVertex:
    """Vertex E_w of the principal tree of (p, qbar): the end of the walk
    along w (letters L/R) from the base pair."""
    return _walk(qbar, *_division(p, qbar), w)[-1]


@dataclass(frozen=True)
class Bridge:
    """A minimal bridge.  walk holds every corridor vertex but E, in walk
    order: E_m, E_{m+1}, then E_v for each prefix v of w.  Each vertex
    after E_m spans a corridor triangle with its two parents, and the
    last one, E_w, is the far end D."""

    lens: LensSpace
    qbar: int
    w: str
    d_word: Word
    walk: tuple[PrincipalVertex, ...]

    # Read off the walk: E_{m+1} has exponents (m, r), and every vertex
    # after E_m spans one simplex.
    m = property(lambda self: self.walk[1].m_exp)
    r = property(lambda self: self.walk[1].n_exp)
    simplex_count = property(lambda self: len(self.walk) - 1)


def _tree_runs(i: int, j: int) -> list[tuple[str, int]]:
    """L/R runs of the walk from the root (1, 1) to the coprime
    coefficients (i, j): the subtractive Euclidean algorithm, L while
    j > i, one division per run."""
    runs = []
    while i != j:
        if j > i:
            k = (j - 1) // i
            runs.append(("L", k))
            j -= k * i
        else:
            k = (i - 1) // j
            runs.append(("R", k))
            i -= k * j
    return runs


def find_bridge(space: LensSpace, qbar: int) -> Bridge:
    """Minimal-depth mediant-tree vertex with n-exponent qbar -+ 1.

    With s = qbar - r, the candidates are the two solutions of
    i*r - j*s = +-1 with 1 <= i < s; they lie at different depths and
    every other solution lies below both, so the shallower one is the
    unique minimal bridge.  A bridge longer than MAX_BRIDGE_LENGTH, or
    a D-word of more than MAX_CORRIDOR_SYLLABLES syllables, raises
    ValueError before that word is built.
    """
    inv = invariants(space)
    if inv.classification is not Classification.Forest:
        raise NotForestError(f"{space!r} has a contractible primitive disk complex")
    if qbar not in (space.q, inv.q_prime):
        admissible = " or ".join(dict.fromkeys(map(str, (space.q, inv.q_prime))))
        raise ValueError(f"qbar must be {admissible}, got {qbar}")
    m, r = _division(space.p, qbar)
    s = qbar - r
    i = pow(r, -1, s)  # i*r = 1 (mod s), so (s - i)*r = -1 (mod s)
    runs = min(
        _tree_runs(i, (i * r - 1) // s),
        _tree_runs(s - i, ((s - i) * r + 1) // s),
        key=lambda runs: sum(k for _, k in runs),
    )
    depth = sum(k for _, k in runs)
    if depth > MAX_BRIDGE_LENGTH:
        raise ValueError(
            f"{space!r}: bridge at qbar = {qbar} has {depth} tree letters,"
            f" more than {MAX_BRIDGE_LENGTH}"
        )
    w = "".join(letter * k for letter, k in runs)
    walk = tuple(_walk(qbar, m, r, w))
    d = walk[-1]
    if 2 * d.m_exp + 2 > MAX_CORRIDOR_SYLLABLES:
        raise ValueError(
            f"{space!r}: bridge D-word at qbar = {qbar} has {2 * d.m_exp + 2} syllables,"
            f" more than {MAX_CORRIDOR_SYLLABLES}"
        )
    return Bridge(
        lens=space, qbar=qbar, w=w, d_word=vertex_word(qbar, d.m_exp, d.n_exp), walk=walk
    )


def bridge_end_homology(bridge: Bridge) -> tuple[int, int]:
    """Homology classes of the two end disks, as residues in [1, p/2].

    The boundary of the base disk maps to +-1 and the far end to
    +-qbar in Z/p; they differ exactly when qbar is not +-1 mod p.
    The bridge's words are never read.
    """
    return 1, min(bridge.qbar, bridge.lens.p - bridge.qbar)


def bridge_report(bridge: Bridge) -> dict:
    """JSON-ready description of one bridge."""
    class_e, class_d = bridge_end_homology(bridge)
    return {
        "qbar": bridge.qbar,
        "m": bridge.m,
        "r": bridge.r,
        "w": bridge.w,
        "dWord": str(bridge.d_word),
        "simplexCount": bridge.simplex_count,
        "homology": {"E": class_e, "D": class_d},
        "corridor": [[v.left, v.right, v.label] for v in bridge.walk[1:]],
    }
