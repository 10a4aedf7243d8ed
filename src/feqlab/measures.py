"""Dirac measures, the rounding bounds of their means, and the verdict
tolerance.

A measure here is a finite complex combination of point masses on
semigroup elements. Equation work only ever integrates functions given
on all of S, so integration is a weighted sum of finitely many values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParams, LengthMismatch, PointOutOfRange
from .semigroups import FiniteSemigroup, InvolutiveMorphism, _is_integer, _is_number


@dataclass(frozen=True)
class ToleranceConfig:
    """The verdict gate: eq_tol judges pass/fail verdicts only, never a
    hypothesis or a solution set. The oracle's are constants in solvers."""

    eq_tol: float = 1e-9

    def __post_init__(self):
        if not 0 <= self.eq_tol < math.inf:
            raise BadParams("tolerances must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()

_EPS = 2.0 ** -52  # spacing of floats at 1: twice the unit roundoff
_MIN_NORMAL = 2.0 ** -1022  # the smallest normal float
_TINY = 2.0 ** -1074  # the smallest subnormal: the spacing of the underflow range


@dataclass(frozen=True)
class DiracMeasure:
    """Finite complex combination of point masses.

    Atoms are canonicalized on construction: points checked to be
    nonnegative integers but bools (numpy's stored as ints), weights to
    be numbers but bools, duplicates merged by summing weights (which
    must then be finite), sorted by point. Points are validated against
    a semigroup only at use.
    """

    atoms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        merged: dict[int, complex] = {}
        for point, w in self.atoms:
            if not _is_integer(point):
                raise BadParams(f"atom point {point!r} is not an integer")
            point = int(point)
            if point < 0:
                raise BadParams(f"atom point {point} is negative")
            if not _is_number(w):
                raise BadParams(f"atom weight {w!r} is not a number")
            merged[point] = merged.get(point, 0j) + complex(w)
        if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in merged.values()):
            raise BadParams("atom weights must be finite")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, complex]]) -> "DiracMeasure":
        return cls(tuple(pairs))

    @classmethod
    def point_mass(cls, point: int, weight: complex = 1.0) -> "DiracMeasure":
        return cls(((point, weight),))

    def to_json(self) -> dict:
        return {"atoms": [{"point": p, "w": [w.real, w.imag]} for p, w in self.atoms]}


def _ldexp_measure(mu: DiracMeasure, e: int) -> DiracMeasure:
    """mu / 2^e for a measure with ||mu / 2^e|| < 2, built without
    running the constructor's checks again: a power-of-two scale keeps
    the points, their order and the weights' finiteness, so these are
    the atoms the constructor gives (adding to 0j clears a negative
    zero from underflow, as its merge does)."""
    out = object.__new__(DiracMeasure)
    object.__setattr__(out, "atoms", tuple(
        (p, 0j + complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e))) for p, w in mu.atoms))
    return out


def _modulus(z: complex) -> float:
    """abs(z), or inf where complex abs raises: finite parts whose
    modulus exceeds the largest float. math.hypot would round some
    finite moduli differently."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def measure_norm(mu: DiracMeasure) -> float:
    """Total variation: sum of |w| over atoms, inf when it overflows."""
    return float(sum(_modulus(w) for _, w in mu.atoms))


def _check_points(mu: DiracMeasure, n: int) -> None:
    for point, _ in mu.atoms:
        if point >= n:
            raise PointOutOfRange(point, n)


def check_function(sg: FiniteSemigroup, f: Sequence[complex]) -> np.ndarray:
    """f as a complex vector of length sg.n. f must be a vector of sg.n
    values (LengthMismatch), each a number but a bool (BadParams): a
    numpy array is checked by its dtype, which must be an integer, float
    or complex one, anything else value by value."""
    values = f if isinstance(f, np.ndarray) else np.asarray(f, dtype=object)
    if values.ndim != 1 or len(values) != sg.n:
        raise LengthMismatch(int(values.size), sg.n)
    if not (values.dtype.kind in "iufc" if values is f else all(map(_is_number, values.flat))):
        raise BadParams("function values must be numbers")
    return values.astype(complex, copy=False)


def integrate(f: Sequence[complex], mu: DiracMeasure) -> complex:
    """sum over atoms of w * f(point)."""
    nf = len(f)
    _check_points(mu, nf)
    return complex(sum(w * complex(f[p]) for p, w in mu.atoms))


def character_mean_slack(mu: DiracMeasure) -> float:
    """A bound on the rounding of integrate(c, mu) for c the values of a
    character: a mean within it may be zero exactly. Twice it bounds the
    rounding of a sum of two such means.

    Let u = 2^-53 and k be the number of atoms. A value that is not a
    quarter turn is (cos a, sin a) for a = 2 pi t rounded three times, so
    a is off by under 3u 2 pi < 19u; cos and sin add an ulp, so each
    component is off by under 21u and the value by under 30u. Each
    product w c adds under 3u |w|, and the k - 1 complex sums under
    sqrt(2) u each times the sum of |w| so far. So the float mean is
    within (32 + 1.5k) u ||mu|| of the exact one, plus under 2k 2^-1074
    from underflow; a sum of two is within (66 + 3k) u ||mu||, with its
    own rounding. (k + 17) eps ||mu|| + 2^-1022 covers the first, twice it
    the second, with the rounding of ||mu|| and of this bound. A mean
    above 2^-1022 also keeps every closed-form product with it nonzero
    (see equations.ClosedForm).
    """
    return (len(mu.atoms) + 17) * _EPS * measure_norm(mu) + _MIN_NORMAL


def _cmul(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """a * b, rounded as the scalar complex product rounds it.

    numpy's vectorized complex multiply may fuse multiply-adds and then
    differs in the last bit from pointwise evaluation. A factor with a
    zero part multiplies exactly under any fusing, so a is split into
    its real and imaginary halves. A scalar a whose imaginary part is
    exactly 0 scales b in one pass: equal to the split product in every
    finite cell, where only the sign of a zero can differ, and not
    finite where it is not. out, when given, receives the product and
    may be b itself."""
    if not isinstance(a, np.ndarray) and a.imag == 0:
        return np.multiply(b, a.real, out=out)
    imag = 1j * a.imag * b  # before out, which may be b, is written
    out = np.multiply(b, a.real, out=out)
    out += imag
    return out


def right_transform(sg: FiniteSemigroup, f: Sequence[complex], mu: DiracMeasure) -> np.ndarray:
    """x -> integral of f(x * t) dmu(t) over S. Adding 0.0 gives every
    zero the sign the scalar sum from 0 gives it, +0."""
    arr = check_function(sg, f)
    _check_points(mu, sg.n)
    return _right_sum(sg.index_table, arr, mu) + 0.0


def _right_sum(table: np.ndarray, arr: np.ndarray, mu: DiracMeasure, axis: int = -1) -> np.ndarray:
    """right_transform of checked complex values arr along axis (by default
    the last), under a measure whose points are checked: one gather along
    axis per atom, each weighted, then added in atom order into the
    first; zeros without atoms. A zero may keep a negative sign."""
    terms = (_cmul(w, arr.take(table[:, p], axis=axis)) for p, w in mu.atoms)
    out = next(terms, None)
    if out is None:
        return np.zeros(arr.shape, dtype=complex)
    for term in terms:
        out += term
    return out


def pushforward(mu: DiracMeasure, m: InvolutiveMorphism | Sequence[int]) -> DiracMeasure:
    """Image measure under a point map: atom at p moves to m(p), weights merge."""
    mapping = m.map if isinstance(m, InvolutiveMorphism) else tuple(m)
    _check_points(mu, len(mapping))
    return DiracMeasure(tuple((mapping[p], w) for p, w in mu.atoms))


def is_sigma_invariant(mu: DiracMeasure, m: InvolutiveMorphism) -> bool:
    """True when mu equals its pushforward under m weight for weight,
    bit for bit; a point that is not an atom weighs 0."""
    a, b = dict(mu.atoms), dict(pushforward(mu, m).atoms)
    return all(a.get(p, 0j) == b.get(p, 0j) for p in a.keys() | b.keys())


def support_in_center(mu: DiracMeasure, sg: FiniteSemigroup) -> bool:
    """True when every atom point commutes with all of S; an atom of
    weight 0 is an absent point, as in is_sigma_invariant."""
    _check_points(mu, sg.n)
    central = sg.central
    return all(p in central for p, w in mu.atoms if w != 0)
