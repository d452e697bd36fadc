"""Finite presentations of genus-2 Goeritz groups of lens spaces.

When the primitive disk complex is a forest, the Goeritz group acts on
the tree of trees with one vertex orbit and one edge orbit, so it is an
amalgam or an HNN extension of explicit stabilizers.  A presentation
is given by its structure tree (cyclic factors combined by free and
direct products, amalgams, HNN extensions); its flat generator and
relator lists are derived from the tree, never stored beside it and
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, groupby, product
from math import gcd
from typing import Union

from .lens import Classification, LensSpace, Sphere, invariants, pi1_diff


@dataclass(frozen=True)
class Power:
    gen: str
    exponent: int

    def text(self) -> str:
        return f"{self.gen}^{self.exponent}"

    gap = text


@dataclass(frozen=True)
class Commutator:
    a: str
    b: str

    def text(self) -> str:
        return f"[{self.a},{self.b}]"

    def gap(self) -> str:
        return f"{self.a}*{self.b}*{self.a}^-1*{self.b}^-1"


Relator = Union[Power, Commutator]
Flat = tuple[tuple[str, ...], tuple[Relator, ...]]


@dataclass(frozen=True)
class Cyclic:
    """One generator, of the given finite order or free when None."""

    gen: str
    order: int | None = None

    def flatten(self) -> Flat:
        relators = () if self.order is None else (Power(self.gen, self.order),)
        return (self.gen,), relators

    def text(self) -> str:
        base = "Z" if self.order is None else f"Z/{self.order}"
        return f"{base}<{self.gen}>"

    def to_json(self) -> dict:
        return {"kind": "cyclic", "gen": self.gen, "order": self.order}


def _free_join(flat: list[Flat]) -> Flat:
    """Generators and relators of the free product of flattened parts."""
    gens = [g for part_gens, _ in flat for g in part_gens]
    if len(set(gens)) != len(gens):
        raise ValueError(f"duplicate generators across free factors: {gens}")
    return tuple(gens), tuple(r for _, part_rels in flat for r in part_rels)


@dataclass(frozen=True)
class FreeProductOfParts:
    parts: tuple["Structure", ...]

    def flatten(self) -> Flat:
        return _free_join([part.flatten() for part in self.parts])

    def text(self) -> str:
        return "(" + " * ".join(part.text() for part in self.parts) + ")"

    def to_json(self) -> dict:
        return {"kind": "freeProduct", "parts": [part.to_json() for part in self.parts]}


@dataclass(frozen=True)
class DirectSum:
    parts: tuple["Structure", ...]

    def flatten(self) -> Flat:
        """The free product of the parts plus a commutator between every
        two generators of different parts."""
        flat = [part.flatten() for part in self.parts]
        gens, rels = _free_join(flat)
        pairs = combinations([part_gens for part_gens, _ in flat], 2)
        cross = tuple(Commutator(a, b) for left, right in pairs for a, b in product(left, right))
        return gens, rels + cross

    def text(self) -> str:
        return "(" + " (+) ".join(part.text() for part in self.parts) + ")"

    def to_json(self) -> dict:
        return {"kind": "directSum", "parts": [part.to_json() for part in self.parts]}


@dataclass(frozen=True)
class AmalgamatedProduct:
    """Merges the two sides, deduplicating shared generators and relators."""

    left: "Structure"
    right: "Structure"
    over: tuple[str, ...]

    def flatten(self) -> Flat:
        lg, lr = self.left.flatten()
        rg, rr = self.right.flatten()
        for g in self.over:
            if g not in lg or g not in rg:
                raise ValueError(f"amalgamated generator {g!r} missing from a side")
        gens = lg + tuple(g for g in rg if g not in lg)
        return gens, lr + tuple(r for r in rr if r not in lr)

    def text(self) -> str:
        over = ",".join(self.over)
        return f"({self.left.text()} *_({over}) {self.right.text()})"

    def to_json(self) -> dict:
        return {
            "kind": "amalgam",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "over": list(self.over),
        }


@dataclass(frozen=True)
class HNN:
    """Adds the stable letter and its commutation with the edge subgroup."""

    base: "Structure"
    over: tuple[str, ...]
    stable: str

    def flatten(self) -> Flat:
        bg, br = self.base.flatten()
        for g in self.over:
            if g not in bg:
                raise ValueError(f"edge generator {g!r} missing from the base")
        if self.stable in bg:
            raise ValueError(f"stable letter {self.stable!r} clashes with the base")
        return bg + (self.stable,), br + tuple(Commutator(g, self.stable) for g in self.over)

    def text(self) -> str:
        over = ",".join(self.over)
        return f"hnn({self.base.text()}, over=({over}), stable={self.stable})"

    def to_json(self) -> dict:
        return {
            "kind": "hnn",
            "base": self.base.to_json(),
            "over": list(self.over),
            "stable": self.stable,
        }


Structure = Union[Cyclic, FreeProductOfParts, DirectSum, AmalgamatedProduct, HNN]


@dataclass(frozen=True)
class GroupPresentation:
    """A presentation given by its structure tree.  generators and relators
    are the tree's flattening, so every relator uses declared generators;
    a tree that cannot be flattened raises ValueError."""

    structure: Structure
    generators: tuple[str, ...] = field(init=False)
    relators: tuple[Relator, ...] = field(init=False)

    def __post_init__(self) -> None:
        generators, relators = self.structure.flatten()
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def text(self) -> str:
        lines = ["generators: " + ", ".join(self.generators), "relators:"]
        lines.extend(rel.text() for rel in self.relators)
        lines.append("structure: " + self.structure.text())
        return "\n".join(lines) + "\n"

    def gap(self) -> str:
        quoted = ", ".join(f'"{g}"' for g in self.generators)
        rels = ", ".join(rel.gap() for rel in self.relators)
        return (
            f"F := FreeGroup( {quoted} );;\n"
            "AssignGeneratorVariables( F );;\n"
            f"G := F / [ {rels} ];\n"
        )

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [rel.text() for rel in self.relators],
            "structure": self.structure.to_json(),
        }


class StabilizerKind(str, Enum):
    Vertex = "Vertex"
    OrderedPair = "OrderedPair"
    UnorderedPairSwappable = "UnorderedPairSwappable"
    UnorderedPairRigid = "UnorderedPairRigid"
    TTVertex_qSq1 = "TTVertex_qSq1"
    TTVertex_qSqNot1 = "TTVertex_qSqNot1"
    TTEdgeUnion_qSq1 = "TTEdgeUnion_qSq1"
    TTEdge = "TTEdge"


def _free_product(*parts: Structure) -> FreeProductOfParts:
    return FreeProductOfParts(tuple(parts))


_ALPHA = Cyclic("alpha", 2)

_STABILIZER_STRUCTURES: dict[StabilizerKind, Structure] = {
    StabilizerKind.Vertex: DirectSum(
        (_ALPHA, _free_product(Cyclic("beta"), Cyclic("gamma", 2)))
    ),
    StabilizerKind.OrderedPair: _ALPHA,
    StabilizerKind.UnorderedPairSwappable: DirectSum((_ALPHA, Cyclic("sigma", 2))),
    StabilizerKind.UnorderedPairRigid: _ALPHA,
    StabilizerKind.TTVertex_qSq1: DirectSum(
        (
            _ALPHA,
            _free_product(
                Cyclic("beta"), Cyclic("gamma", 2), Cyclic("sigma1", 2), Cyclic("sigma2", 2)
            ),
        )
    ),
    StabilizerKind.TTVertex_qSqNot1: DirectSum(
        (
            _ALPHA,
            _free_product(
                Cyclic("beta1"),
                Cyclic("beta2"),
                Cyclic("gamma1", 2),
                Cyclic("gamma2", 2),
                Cyclic("sigma1", 2),
                Cyclic("sigma2", 2),
            ),
        )
    ),
    StabilizerKind.TTEdgeUnion_qSq1: DirectSum((_ALPHA, Cyclic("tau", 2))),
    StabilizerKind.TTEdge: _ALPHA,
}


def stabilizer_presentation(kind: StabilizerKind) -> GroupPresentation:
    """Presentation of the stabilizer of the given orbit representative.

    Vertex stabilizers are an order-2 central factor (the hyperelliptic
    involution) times a free product of involutions and free letters;
    pair stabilizers keep only the central factor plus, when the pair
    can be swapped, the swap involution.
    """
    return GroupPresentation(_STABILIZER_STRUCTURES[StabilizerKind(kind)])


@dataclass(frozen=True)
class ConnectedCaseStub:
    """Marker for spaces whose primitive disk complex is connected."""

    space: LensSpace | Sphere
    reason: str


_CONNECTED = "primitive disk complex is connected; covered by earlier work"


def goeritz_presentation(space: LensSpace) -> GroupPresentation | ConnectedCaseStub:
    """Presentation of the genus-2 Goeritz group of a forest-type space.

    With q^2 = 1 mod p the tree-of-trees quotient is a single edge with
    two vertices, giving an amalgam of a vertex stabilizer and an edge
    union stabilizer over the central involution; otherwise the quotient
    is a loop, giving an HNN extension with one free stable letter.
    """
    inv = invariants(space)
    if inv.classification is Classification.Contractible:
        return ConnectedCaseStub(space, _CONNECTED)
    if inv.q_squared_is_one:
        structure: Structure = AmalgamatedProduct(
            _STABILIZER_STRUCTURES[StabilizerKind.TTVertex_qSq1],
            _STABILIZER_STRUCTURES[StabilizerKind.TTEdgeUnion_qSq1],
            over=("alpha",),
        )
    else:
        structure = HNN(
            _STABILIZER_STRUCTURES[StabilizerKind.TTVertex_qSqNot1],
            over=("alpha",),
            stable="upsilon",
        )
    return GroupPresentation(structure)


@dataclass(frozen=True)
class AbelianGroup:
    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        for d, run in groupby(self.torsion):
            k = len(list(run))
            parts.append(f"Z/{d}" if k == 1 else f"(Z/{d})^{k}")
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def abelianization(presentation: GroupPresentation) -> AbelianGroup:
    """Abelianized group, read off the power exponents of each generator.

    Every relator is a power g^n or a commutator.  A commutator
    abelianizes to zero and g^n to n times g, so each row of the relation
    matrix has at most one nonzero entry.  The relations on g then span
    d Z, with d the gcd of g's power exponents: d = 0 gives a Z and
    d > 1 a Z/d.  The finite factors merge into a divisibility chain.
    """
    exponents = dict.fromkeys(presentation.generators, 0)
    for rel in presentation.relators:
        if isinstance(rel, Power):
            exponents[rel.gen] = gcd(exponents[rel.gen], rel.exponent)
    factors = [d for d in exponents.values() if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    rank = sum(1 for d in exponents.values() if d == 0)
    return AbelianGroup(rank, tuple(d for d in factors if d > 1))


def heegaard_space_report(space: LensSpace | Sphere) -> dict:
    """Fundamental group of the space of genus-2 splittings of the space.

    The group is an extension of the mapping class data by the loop
    group of the diffeomorphism group, so it is finitely presented
    whenever the quotient is.
    """
    if isinstance(space, Sphere):
        return _heegaard_report(space, ConnectedCaseStub(space, _CONNECTED))
    return _heegaard_report(space, goeritz_presentation(space))


def _heegaard_report(
    space: LensSpace | Sphere, result: GroupPresentation | ConnectedCaseStub
) -> dict:
    """heegaard_space_report of space, given its Goeritz presentation or stub."""
    diff = pi1_diff(space)
    if isinstance(result, ConnectedCaseStub):
        quotient = {"kind": "stub", "reason": result.reason}
    else:
        quotient = {"kind": "presentation", **result.to_json()}
    return {
        "space": repr(space),
        "sequence": "1 -> pi1(Diff) -> pi1(H) -> G -> 1",
        "kernel": diff.descriptor,
        "quotient": quotient,
        "quotientNote": "Goeritz group, up to finite extensions",
        "smaleConditional": diff.smale_conditional,
        "conclusion": "finitely presented",
    }
