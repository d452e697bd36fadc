"""Arithmetic invariants of the lens space L(p, q).

Normalization: gcd(p, q) = 1 and 1 <= q <= p/2.  The primitive disk
complex of the genus-2 splitting is contractible iff p = +-1 (mod q);
otherwise it deformation retracts to a forest and the per-type division
p = qbar * m + r with 2 <= r <= qbar - 2 drives the bridge construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Any


class Classification(str, Enum):
    Contractible = "contractible"
    Forest = "forest"


class Sphere:
    """Marker for the 3-sphere in pi1_diff."""

    _instance: "Sphere | None" = None

    def __new__(cls) -> "Sphere":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "S^3"


S3 = Sphere()


@dataclass(frozen=True)
class LensSpace:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2 or self.q < 1:
            raise ValueError(f"L({self.p},{self.q}): p >= 2 and q >= 1 required")
        if 2 * self.q > self.p:
            raise ValueError(f"L({self.p},{self.q}): normalization q <= p/2 violated")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"L({self.p},{self.q}): p and q must be coprime")

    def __repr__(self) -> str:
        return f"L({self.p},{self.q})"


def modular_partner(p: int, qbar: int) -> int:
    """The unique t in [1, p/2] with qbar * t = +-1 (mod p).

    For p = 2 both signs coincide and t = 1.
    """
    k = pow(qbar, -1, p)
    return k if 2 * k <= p else p - k


def check_pair(p: int, qbar: int) -> None:
    """Raise ValueError unless p >= 2, 1 <= qbar < p and gcd(p, qbar) = 1."""
    if p < 2 or not 1 <= qbar < p or gcd(p, qbar) != 1:
        raise ValueError(f"need coprime 1 <= qbar < p, got ({p},{qbar})")


def division_window(p: int, qbar: int) -> tuple[int, int] | None:
    """(m, r) from p = qbar * m + r when 2 <= r <= qbar - 2, else None."""
    m, r = divmod(p, qbar)
    if 2 <= r <= qbar - 2:
        return m, r
    return None


@dataclass(frozen=True, eq=True)
class LensInvariants:
    q_prime: int
    q_squared_is_one: bool
    classification: Classification
    per_type: dict[int, tuple[int, int] | None]


def invariants(space: LensSpace) -> LensInvariants:
    p, q = space.p, space.q
    q_prime = modular_partner(p, q)
    window = division_window(p, q)
    classification = (
        Classification.Forest if window is not None else Classification.Contractible
    )
    per_type = {q: window, q_prime: division_window(p, q_prime)}
    return LensInvariants(q_prime, q * q % p == 1, classification, per_type)


@dataclass(frozen=True)
class DiffPi1:
    """pi1 of the diffeomorphism group, as a descriptor string."""

    descriptor: str
    smale_conditional: bool = False


def pi1_diff(space: LensSpace | Sphere) -> DiffPi1:
    if isinstance(space, Sphere):
        return DiffPi1("Z/2")
    p, q = space.p, space.q
    if (p, q) == (2, 1):
        return DiffPi1("Z/2+Z/2", smale_conditional=True)
    if q == 1:
        return DiffPi1("Z") if p % 2 else DiffPi1("Z+Z/2")
    return DiffPi1("Z+Z")


def lens_report(space: LensSpace) -> dict[str, Any]:
    """JSON-ready invariant report for one lens space."""
    inv = invariants(space)
    pi1 = pi1_diff(space)

    def entry(qbar: int) -> dict[str, int] | None:
        window = inv.per_type[qbar]
        if window is None:
            return None
        return {"m": window[0], "r": window[1]}

    return {
        "p": space.p,
        "q": space.q,
        "qPrime": inv.q_prime,
        "qSquaredIsOne": inv.q_squared_is_one,
        "classification": inv.classification.value,
        "perType": {"q": entry(space.q), "qPrime": entry(inv.q_prime)},
        "pi1Diff": pi1.descriptor,
        "smaleConditional": pi1.smale_conditional,
    }
