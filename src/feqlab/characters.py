"""Multiplicative functions with exact zero-or-root-of-unity values.

On a finite semigroup every element x has finite index k and period p
(x^(k+p) = x^k, both minimal), so a multiplicative value v = chi(x)
satisfies v^k (v^p - 1) = 0: v is zero or a p-th root of unity. That
keeps the per-element candidate set finite and enumeration exact. A
Character holds its values as integer turns over a common period, the
same ints the search runs in; floats and JSON are derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadParams
from .semigroups import FiniteSemigroup, _trail_search, index_period

_ZERO = -1  # the integer turn that stands for the value 0
_QUARTERS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def root_of_unity(k: int, m: int) -> complex:
    """e^(2 pi i k/m) as a float, the one formula for every root value:
    exact at the quarter turns, where cos/sin would leave ~1e-16 dust,
    and otherwise cos and sin of 2 pi (k/m), k/m correctly rounded."""
    if 4 * k % m == 0:
        return _QUARTERS[4 * k // m % 4]
    angle = 2.0 * math.pi * (k / m)
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class Character:
    """Nonzero multiplicative function S -> C, its values as integer turns.

    turns[x] = k >= 0 stands for e^(2 pi i k/period) and -1 for zero.
    Construction reduces to lowest terms (each k >= 0 mod period, then
    period and the ks divided by their gcd), so equal values mean equal
    Characters, and chi o m is Character(period, (turns[m(0)], ...)).
    """

    period: int
    turns: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise BadParams("character period must be >= 1")
        ks = [k if k == _ZERO else k % self.period for k in self.turns]
        g = math.gcd(self.period, *(k for k in ks if k != _ZERO))
        object.__setattr__(self, "period", self.period // g)
        object.__setattr__(self, "turns", tuple(k if k == _ZERO else k // g for k in ks))

    @cached_property
    def _vector(self) -> np.ndarray:
        """character_to_scalar's memo: built once per Character, so it
        lives exactly as long as the object does."""
        roots = [root_of_unity(k, self.period) for k in range(self.period)] + [0j]
        vec = np.array(roots, dtype=complex)[list(self.turns)]  # -1 reads the trailing 0j
        vec.setflags(write=False)
        return vec

    def to_json(self) -> dict:
        values = []
        for k in self.turns:
            if k == _ZERO:
                values.append({"zero": True})
            else:
                g = math.gcd(k, self.period)
                values.append({"q": k // g, "m": self.period // g})
        return {"values": values}


def character_to_scalar(chi: Character) -> np.ndarray:
    """Complex vector of the character's values (read-only, memoized on
    chi); quarter turns stay exact."""
    return chi._vector


def enumerate_characters(sg: FiniteSemigroup) -> list[Character]:
    """All nonzero multiplicative functions on sg, canonically sorted.

    The trail search of semigroups over exact candidate values,
    most-constrained element first. Each choice is propagated: chi(x) = 0
    forces zero on the ideal generated by x, and a nonzero chi(x) forces
    chi(xy) and chi(yx) for every assigned y. A forced value that clashes
    prunes the branch, and every assigned pair has its product checked,
    so a complete assignment is multiplicative. The all-zero function is
    excluded.

    The search runs in integer turns over M, the lcm of the element
    periods: k >= 0 stands for e^(2 pi i k/M) and -1 for zero, so a
    product is (a + b) % M and a clash is an int inequality. Sorting the
    int tuples is the canonical order (-1 before 0 as zero before one),
    and each tuple becomes a Character over M, reduced to lowest terms.
    """
    t = sg.table
    periods = [index_period(sg, x)[1] for x in sg.elements()]
    m = math.lcm(*periods)
    domains = [[_ZERO, *range(0, m, m // p)] for p in periods]
    order = sorted(sg.elements(), key=lambda x: (len(domains[x]), x))

    def forces(values: list, trail: list[int], pending: list, x: int, vx: int) -> bool:
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

    found = _trail_search(order, domains, forces)
    return [Character(m, vals) for vals in sorted(found) if any(v != _ZERO for v in vals)]


@lru_cache(maxsize=4096)
def characters_cached(sg: FiniteSemigroup) -> tuple[Character, ...]:
    """Memoized enumerate_characters; semigroups are frozen and hashable."""
    return tuple(enumerate_characters(sg))
