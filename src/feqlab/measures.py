"""Complex scalars with exact root-of-unity support, and Dirac measures.

A measure here is a finite complex combination of point masses on
semigroup elements. Equation work only ever integrates functions given
on all of S, so integration is a weighted sum of finitely many values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadParams, LengthMismatch, PointOutOfRange
from .semigroups import FiniteSemigroup, InvolutiveMorphism, center


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric gates: eq_tol accepts residuals, dedup_tol clusters
    near-identical vectors, oracle_tol accepts numeric roots as matches."""

    eq_tol: float = 1e-9
    dedup_tol: float = 1e-7
    oracle_tol: float = 1e-6

    def __post_init__(self):
        if not all(0 <= t < math.inf for t in (self.eq_tol, self.dedup_tol, self.oracle_tol)):
            raise BadParams("tolerances must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()

# Exact values at quarter turns, where cos/sin would leave ~1e-16 dust.
_QUARTER_TURNS = {
    Fraction(0): complex(1, 0),
    Fraction(1, 4): complex(0, 1),
    Fraction(1, 2): complex(-1, 0),
    Fraction(3, 4): complex(0, -1),
}


@dataclass(frozen=True)
class RootValue:
    """Zero or the exact root of unity e^(2 pi i turns).

    turns is None for zero, otherwise a Fraction reduced into [0, 1), so
    every value has one representation; turns == 0 is the scalar 1.
    """

    turns: Fraction | None

    def __post_init__(self):
        if self.turns is not None and not 0 <= self.turns < 1:
            object.__setattr__(self, "turns", self.turns % 1)

    @classmethod
    def zero(cls) -> "RootValue":
        return cls(None)

    @classmethod
    def one(cls) -> "RootValue":
        return cls(Fraction(0))

    @classmethod
    def root(cls, q: int, m: int) -> "RootValue":
        """e^(2 pi i q/m); Fraction reduces q/m to lowest terms."""
        if m < 1:
            raise BadParams("root denominator must be >= 1")
        return cls(Fraction(q, m) % 1)

    @property
    def is_zero(self) -> bool:
        return self.turns is None

    def __mul__(self, other: "RootValue") -> "RootValue":
        if self.is_zero or other.is_zero:
            return RootValue(None)
        return RootValue((self.turns + other.turns) % 1)

    def __pow__(self, k: int) -> "RootValue":
        if k < 0:
            raise BadParams("negative powers are not defined for zero values")
        if self.is_zero:
            if k == 0:
                raise BadParams("0^0 is undefined")
            return self
        return RootValue((self.turns * k) % 1)

    def conjugate(self) -> "RootValue":
        if self.is_zero:
            return self
        return RootValue((-self.turns) % 1)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        exact = _QUARTER_TURNS.get(self.turns)
        if exact is not None:
            return exact
        angle = 2.0 * math.pi * float(self.turns)
        return complex(math.cos(angle), math.sin(angle))

    def sort_key(self) -> tuple:
        # zero first, then roots by turns ascending
        return (0, Fraction(0)) if self.is_zero else (1, self.turns)

    def to_json(self) -> dict:
        if self.is_zero:
            return {"zero": True}
        return {"q": self.turns.numerator, "m": self.turns.denominator}

    @classmethod
    def from_json(cls, obj: dict) -> "RootValue":
        if obj.get("zero"):
            return cls.zero()
        return cls.root(int(obj["q"]), int(obj["m"]))


@dataclass(frozen=True)
class DiracMeasure:
    """Finite complex combination of point masses.

    Atoms are canonicalized on construction: duplicates merged by
    summing weights, sorted by point. Points are validated against a
    semigroup only at use.
    """

    atoms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        merged: dict[int, complex] = {}
        for point, w in self.atoms:
            point = int(point)
            if point < 0:
                raise BadParams(f"atom point {point} is negative")
            w = complex(w)
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise BadParams("atom weights must be finite")
            merged[point] = merged.get(point, 0j) + w
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, complex]]) -> "DiracMeasure":
        return cls(tuple((int(p), complex(w)) for p, w in pairs))

    @classmethod
    def point_mass(cls, point: int, weight: complex = 1.0) -> "DiracMeasure":
        return cls(((int(point), complex(weight)),))

    def to_json(self) -> dict:
        return {"atoms": [{"point": p, "w": [w.real, w.imag]} for p, w in self.atoms]}

    @classmethod
    def from_json(cls, obj: dict) -> "DiracMeasure":
        atoms = tuple((int(a["point"]), complex(a["w"][0], a["w"][1])) for a in obj["atoms"])
        return cls(atoms)


def measure_norm(mu: DiracMeasure) -> float:
    """Total variation: sum of |w| over atoms."""
    return float(sum(abs(w) for _, w in mu.atoms))


def _check_points(mu: DiracMeasure, n: int) -> None:
    for point, _ in mu.atoms:
        if point >= n:
            raise PointOutOfRange(point, n)


def check_function(sg: FiniteSemigroup, f: Sequence[complex]) -> np.ndarray:
    """Coerce f to a complex vector of length sg.n."""
    arr = np.asarray(f, dtype=complex)
    if arr.ndim != 1 or len(arr) != sg.n:
        raise LengthMismatch(int(arr.size), sg.n)
    return arr


def integrate(f: Sequence[complex], mu: DiracMeasure) -> complex:
    """sum over atoms of w * f(point)."""
    nf = len(f)
    _check_points(mu, nf)
    return complex(sum(w * complex(f[p]) for p, w in mu.atoms))


def right_transform(sg: FiniteSemigroup, f: Sequence[complex], mu: DiracMeasure) -> np.ndarray:
    """x -> integral of f(x * t) dmu(t), as a vector over S."""
    arr = check_function(sg, f)
    _check_points(mu, sg.n)
    t = sg.table
    out = np.zeros(sg.n, dtype=complex)
    for p, w in mu.atoms:
        for x in sg.elements():
            out[x] += w * arr[t[x][p]]
    return out


def middle_transform(sg: FiniteSemigroup, f: Sequence[complex], mu: DiracMeasure,
                     x: int, y: int) -> complex:
    """integral of f(x * t * y) dmu(t) at a fixed pair (x, y)."""
    arr = check_function(sg, f)
    _check_points(mu, sg.n)
    t = sg.table
    return complex(sum(w * arr[t[t[x][p]][y]] for p, w in mu.atoms))


def pushforward(mu: DiracMeasure, m: InvolutiveMorphism | Sequence[int]) -> DiracMeasure:
    """Image measure under a point map: atom at p moves to m(p), weights merge."""
    mapping = m.map if isinstance(m, InvolutiveMorphism) else tuple(m)
    _check_points(mu, len(mapping))
    return DiracMeasure(tuple((mapping[p], w) for p, w in mu.atoms))


def is_sigma_invariant(mu: DiracMeasure, m: InvolutiveMorphism,
                       tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when mu equals its pushforward under m, atom weights within eq_tol."""
    pushed = pushforward(mu, m)
    a = dict(mu.atoms)
    b = dict(pushed.atoms)
    return all(abs(a.get(p, 0j) - b.get(p, 0j)) <= tol.eq_tol for p in set(a) | set(b))


def support_in_center(mu: DiracMeasure, sg: FiniteSemigroup) -> bool:
    """True when every atom point commutes with all of S."""
    _check_points(mu, sg.n)
    zs = set(center(sg))
    return all(p in zs for p, _ in mu.atoms)
