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
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .lens import Classification, LensSpace, division_window, invariants
from .primitivity import is_primitive
from .words import Word

# Longest tree word find_bridge builds; the corridor labels grow with its
# square.  Every forest case with p <= 2000 fits (deepest: 497 letters).
MAX_BRIDGE_LENGTH = 512

# Largest p shell_words builds; the shell holds about 1.5 p^2 letters.  It
# matches the p <= 2000 reach of the bridge bounds.
MAX_SHELL_P = 2000


class NotForestError(Exception):
    """The primitive disk complex is contractible, so no bridge exists."""


@dataclass(frozen=True)
class Shell:
    p: int
    qbar: int
    words: tuple[Word, ...]

    e_word: Word = field(default=Word((("x", 1),)))

    def word(self, k: int) -> Word:
        return self.words[k]

    @cached_property
    def primitive_indices(self) -> frozenset[int]:
        """Indices k whose word E_k the primitivity oracle accepts."""
        return frozenset(k for k, w in enumerate(self.words) if is_primitive(w).is_primitive)


def shell_words(p: int, qbar: int) -> Shell:
    """Boundary words E_0 .. E_p of the (p, qbar) shell.

    E_k is x y^(g_1) .. x y^(g_k) where the g_i are the cyclic gaps of
    the sorted residues {0, qbar, .., (k-1) qbar mod p}; E_0 is y^p.
    E_{k+1} comes from E_k by placing the residue r = k qbar mod p: r
    splits one gap y^(b-a) into y^(r-a) x y^(b-r).  The syllables
    alternate x with positive powers of y, so they are reduced as built.
    """
    if p < 2 or not 1 <= qbar < p or gcd(p, qbar) != 1:
        raise ValueError(f"shell requires coprime 1 <= qbar < p, got ({p},{qbar})")
    if p > MAX_SHELL_P:
        raise ValueError(f"shell p = {p} is above the bound {MAX_SHELL_P}")
    residues = [0]
    syllables: list[tuple[str, int]] = [("x", 1), ("y", p)]
    words = [Word((("y", p),)), Word.from_reduced(tuple(syllables))]
    for k in range(1, p):
        r = k * qbar % p
        j = bisect(residues, r)
        a = residues[j - 1]
        b = residues[j] if j < len(residues) else p
        syllables[2 * j - 1 : 2 * j] = [("y", r - a), ("x", 1), ("y", b - r)]
        residues.insert(j, r)
        words.append(Word.from_reduced(tuple(syllables)))
    return Shell(p, qbar, tuple(words))


def _mediant(a: tuple[int, int], b: tuple[int, int], qbar: int) -> tuple[int, int]:
    return a[0] + b[0] + 1, a[1] + b[1] - qbar


@dataclass(frozen=True)
class PrincipalVertex:
    """Vertex E_w of the principal complex; word is (xy^qbar)^m_exp xy^n_exp."""

    qbar: int
    w: str
    m_exp: int
    n_exp: int

    def word(self) -> Word:
        pairs = (("x", 1), ("y", self.qbar)) * self.m_exp + (("x", 1), ("y", self.n_exp))
        return Word(pairs)


def base_pair(qbar: int, m: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exponents of E_m and E_{m+1}, the two parents of the tree's root."""
    return (m - 1, qbar + r), (m, r)


def _walk(qbar: int, m: int, r: int, w: str):
    """Exponents of the base pair, then of E_v for every prefix v of w,
    ending with E_w: one step of the mediant rule per letter."""
    left, right = base_pair(qbar, m, r)
    yield left
    yield right
    for letter in w:
        mid = _mediant(left, right, qbar)
        yield mid
        if letter == "R":
            right = mid
        elif letter == "L":
            left = mid
        else:
            raise ValueError(f"tree word letter {letter!r} is not L or R")
    yield _mediant(left, right, qbar)


def principal_vertex(p: int, qbar: int, m: int, r: int, w: str = "") -> PrincipalVertex:
    """Walk the mediant tree along w (letters L/R) from the base pair."""
    if p != qbar * m + r:
        raise ValueError(f"inconsistent division: {p} != {qbar}*{m} + {r}")
    *_, (m_exp, n_exp) = _walk(qbar, m, r, w)
    return PrincipalVertex(qbar, w, m_exp, n_exp)


@dataclass(frozen=True)
class Bridge:
    """A minimal bridge.  vertices holds (label, m_exp, n_exp) for every
    corridor vertex but E, in walk order: E_m, E_{m+1}, then E_v for each
    prefix v of w; the last one, E_w, is the far end D."""

    lens: LensSpace
    qbar: int
    m: int
    r: int
    w: str
    m_exp: int
    n_exp: int
    d_word: Word
    corridor: tuple[tuple[str, str, str], ...]
    simplex_count: int
    vertices: tuple[tuple[str, int, int], ...]


def _corridor(w: str) -> tuple[tuple[str, str, str], ...]:
    triangles = [("E", "E_m", "E_{m+1}")]
    pair = ("E_m", "E_{m+1}")
    mid = "E_"
    triangles.append((pair[0], pair[1], mid))
    for i, letter in enumerate(w):
        pair = (pair[0], mid) if letter == "R" else (mid, pair[1])
        mid = "E_" + w[: i + 1]
        triangles.append((pair[0], pair[1], mid))
    return tuple(triangles)


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
    unique minimal bridge.  A bridge longer than MAX_BRIDGE_LENGTH
    raises ValueError before its word is built.
    """
    inv = invariants(space)
    if inv.classification is not Classification.Forest:
        raise NotForestError(f"{space!r} has a contractible primitive disk complex")
    if qbar not in (space.q, inv.q_prime):
        raise ValueError(f"qbar must be {space.q} or {inv.q_prime}, got {qbar}")
    window = division_window(space.p, qbar)
    if window is None:
        raise NotForestError(f"{space!r}: division window for qbar={qbar} is empty")
    m, r = window
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
    corridor = _corridor(w)
    labels = ["E_m", "E_{m+1}"] + [triangle[2] for triangle in corridor[1:]]
    vertices = tuple((label, *pair) for label, pair in zip(labels, _walk(qbar, m, r, w)))
    _, m_exp, n_exp = vertices[-1]
    return Bridge(
        lens=space,
        qbar=qbar,
        m=m,
        r=r,
        w=w,
        m_exp=m_exp,
        n_exp=n_exp,
        d_word=PrincipalVertex(qbar, w, m_exp, n_exp).word(),
        corridor=corridor,
        simplex_count=len(w) + 2,
        vertices=vertices,
    )


def bridge_end_homology(bridge: Bridge) -> tuple[int, int]:
    """Homology classes of the two end disks, as residues in [1, p/2].

    The boundary of the base disk maps to +-1 and the far end to
    +-qbar in Z/p; they differ exactly when qbar is not +-1 mod p.
    """
    p = bridge.lens.p

    def normalize(v: int) -> int:
        v %= p
        return v if 2 * v <= p else p - v

    return normalize(1), normalize(bridge.qbar)


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
        "corridor": [list(triangle) for triangle in bridge.corridor],
    }
