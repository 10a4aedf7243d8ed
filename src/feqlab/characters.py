"""Multiplicative functions with exact zero-or-root-of-unity values.

On a finite semigroup every element x has finite index k and period p
(x^(k+p) = x^k, both minimal), so a multiplicative value v = chi(x)
satisfies v^k (v^p - 1) = 0: v is zero or a p-th root of unity. That
keeps the per-element candidate set finite and enumeration exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import LengthMismatch
from .measures import DEFAULT_TOL, RootValue, ToleranceConfig
from .semigroups import FiniteSemigroup, InvolutiveMorphism, index_period


@dataclass(frozen=True)
class Character:
    """Nonzero multiplicative function S -> C, values exact RootValues."""

    values: tuple[RootValue, ...]

    def __call__(self, x: int) -> RootValue:
        return self.values[x]

    def sort_key(self) -> tuple:
        return tuple(v.sort_key() for v in self.values)

    def to_json(self) -> dict:
        return {"values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "Character":
        return cls(tuple(RootValue.from_json(v) for v in obj["values"]))


def character_to_scalar(chi: Character) -> np.ndarray:
    """Complex vector of the character's values; quarter turns stay exact."""
    return np.array([v.to_complex() for v in chi.values], dtype=complex)


def compose_sigma(chi: Character, m: InvolutiveMorphism) -> Character:
    """chi o m; multiplicative again for either morphism kind since the
    value semigroup is commutative."""
    if len(m.map) != len(chi.values):
        raise LengthMismatch(len(m.map), len(chi.values))
    return Character(tuple(chi.values[m.map[x]] for x in range(len(m.map))))


def is_multiplicative(sg: FiniteSemigroup, f: Sequence[complex],
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Check f(xy) = f(x)f(y) over all pairs, within eq_tol, for a plain
    complex vector (use Character for the exact notion)."""
    if len(f) != sg.n:
        raise LengthMismatch(len(f), sg.n)
    t = sg.table
    return all(
        abs(complex(f[t[x][y]]) - complex(f[x]) * complex(f[y])) <= tol.eq_tol
        for x in sg.elements()
        for y in sg.elements()
    )


def enumerate_characters(sg: FiniteSemigroup) -> list[Character]:
    """All nonzero multiplicative functions on sg, canonically sorted.

    Backtracking over exact candidate values, most-constrained element
    first. Each choice is propagated: chi(x) = 0 forces zero on the ideal
    generated by x, and a nonzero chi(x) forces chi(xy) and chi(yx) for
    every assigned y. A forced value that clashes prunes the branch, and
    every assigned pair has its product checked, so a complete assignment
    is multiplicative. The all-zero function is excluded.
    """
    n = sg.n
    t = sg.table
    zero = RootValue.zero()

    domains: list[list[RootValue]] = []
    for x in sg.elements():
        p = index_period(sg, x).period
        roots = sorted((RootValue(Fraction(j, p)) for j in range(p)),
                       key=RootValue.sort_key)
        domains.append([zero] + roots)

    order = sorted(sg.elements(), key=lambda x: (len(domains[x]), x))
    values: list[RootValue | None] = [None] * n
    trail: list[int] = []  # assigned elements in assignment order, for undo
    found: list[tuple[RootValue, ...]] = []

    def assign(e: int, v: RootValue) -> bool:
        """Set chi(e) = v and everything it forces; False on a clash."""
        pending = [(e, v)]
        while pending:
            x, vx = pending.pop()
            if values[x] is not None:
                if values[x] != vx:
                    return False
                continue
            values[x] = vx
            trail.append(x)
            if vx.is_zero:
                for y in sg.elements():
                    pending += ((t[x][y], zero), (t[y][x], zero))
            else:
                for y in trail:
                    vxy = vx * values[y]  # the value monoid is commutative
                    pending += ((t[x][y], vxy), (t[y][x], vxy))
        return True

    def extend(pos: int) -> None:
        if pos == n:
            if any(not v.is_zero for v in values):
                found.append(tuple(values))
            return
        e = order[pos]
        if values[e] is not None:
            extend(pos + 1)
            return
        for v in domains[e]:
            mark = len(trail)
            if assign(e, v):
                extend(pos + 1)
            for x in trail[mark:]:
                values[x] = None
            del trail[mark:]

    extend(0)
    found.sort(key=lambda vals: tuple(v.sort_key() for v in vals))
    return [Character(values=vals) for vals in found]


@lru_cache(maxsize=4096)
def characters_cached(sg: FiniteSemigroup) -> tuple[Character, ...]:
    """Memoized enumerate_characters; semigroups are frozen and hashable."""
    return tuple(enumerate_characters(sg))
