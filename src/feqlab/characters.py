"""Multiplicative functions with exact zero-or-root-of-unity values.

On a finite semigroup every element x has finite index k and period p
(x^(k+p) = x^k, both minimal), so a multiplicative value v = chi(x)
satisfies v^k (v^p - 1) = 0: v is zero or a p-th root of unity. That
keeps the per-element candidate set finite and enumeration exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import LengthMismatch
from .measures import DEFAULT_TOL, RootValue, ToleranceConfig
from .semigroups import FiniteSemigroup, InvolutiveMorphism, index_period

_ZERO = -1  # the integer turn that stands for the value 0


@dataclass(frozen=True)
class Character:
    """Nonzero multiplicative function S -> C, values exact RootValues."""

    values: tuple[RootValue, ...]

    def sort_key(self) -> tuple:
        return tuple(v.sort_key() for v in self.values)

    @cached_property
    def _vector(self) -> np.ndarray:
        """character_to_scalar's memo: built once per Character, so it
        lives exactly as long as the object does."""
        vec = np.array([v.to_complex() for v in self.values], dtype=complex)
        vec.setflags(write=False)
        return vec

    @cached_property
    def int_turns(self) -> tuple[int, tuple[int, ...]]:
        """(M, ks): M the lcm of the values' periods and ks the values as
        integer turns over M, k for e^(2 pi i k/M) and -1 for zero. Equal
        exactly when the values are, so it is a cheap exact hash key; the
        key of chi o m is (M, (ks[m(0)], ks[m(1)], ...))."""
        fracs = [v.turns for v in self.values]
        m = math.lcm(*(q.denominator for q in fracs if q is not None))
        return m, tuple(_ZERO if q is None else q.numerator * (m // q.denominator) for q in fracs)

    def to_json(self) -> dict:
        return {"values": [v.to_json() for v in self.values]}


def character_to_scalar(chi: Character) -> np.ndarray:
    """Complex vector of the character's values (read-only, memoized on
    chi); quarter turns stay exact."""
    return chi._vector


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

    The search runs in integer turns over M, the lcm of the element
    periods: k >= 0 stands for e^(2 pi i k/M) and -1 for zero, so a
    product is (a + b) % M and a clash is an int inequality. Sorting the
    int tuples is the canonical order (-1 before 0 as zero before one);
    the RootValues are built at the end from one table of M roots.
    """
    n = sg.n
    t = sg.table
    periods = [index_period(sg, x)[1] for x in sg.elements()]
    m = math.lcm(*periods)
    domains = [[_ZERO, *range(0, m, m // p)] for p in periods]

    order = sorted(sg.elements(), key=lambda x: (len(domains[x]), x))
    values: list[int | None] = [None] * n
    trail: list[int] = []  # assigned elements in assignment order, for undo
    found: list[tuple[int, ...]] = []

    def assign(e: int, v: int) -> bool:
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
            row = t[x]
            if vx == _ZERO:
                for y in sg.elements():
                    pending += ((row[y], _ZERO), (t[y][x], _ZERO))
            else:
                for y in trail:  # the value monoid is commutative
                    vy = values[y]
                    vxy = _ZERO if vy == _ZERO else (vx + vy) % m
                    pending += ((row[y], vxy), (t[y][x], vxy))
        return True

    def extend(pos: int) -> None:
        if pos == n:
            if any(v != _ZERO for v in values):
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
    found.sort()
    # index -1 (zero) reads the last entry
    table = [RootValue(Fraction(k, m)) for k in range(m)] + [RootValue.zero()]
    return [Character(values=tuple(table[k] for k in vals)) for vals in found]


@lru_cache(maxsize=4096)
def characters_cached(sg: FiniteSemigroup) -> tuple[Character, ...]:
    """Memoized enumerate_characters; semigroups are frozen and hashable."""
    return tuple(enumerate_characters(sg))
