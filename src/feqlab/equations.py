"""The functional equations under study, described once, and their residuals.

EQUATIONS holds every equation the CLI knows. An entry gives the linear
terms of its defect as words in x, y, sigma(y) and an atom t of the
measure, its quadratic part, the hypotheses it requires, the inputs it
needs and the closed-form solver for it. One evaluator compiles the
words to index arrays and computes any residual grid as a single
gather-and-weight step; the Gauss-Newton oracle in `solvers` builds its
linear operator from the same arrays.

Every report scans the full (x, y) grid, giving the sup-norm of the
defect and the lexicographically first pair attaining it. A function
"solves" an equation when max_abs <= eq_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateIntegral,
    NonCentralSupport,
    NonFiniteResidual,
    NotSigmaInvariant,
    WrongMorphismKind,
)
from .measures import (
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    _check_points,
    check_function,
    integrate,
    is_sigma_invariant,
    right_transform,
    support_in_center,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism, MorphismKind


class Term(NamedTuple):
    """sign * f(word). The word's letters are multiplied left to right:
    x, y, s = sigma(y), and t, an atom of the measure. A word holding t
    is averaged against the measure."""

    sign: int
    word: str

    @property
    def averaged(self) -> bool:
        return "t" in self.word


class Product(NamedTuple):
    """coef * left * right, each factor a function at x or y: "fx", "gy"."""

    coef: float
    left: str
    right: str


@dataclass(frozen=True)
class Equation:
    """defect(x, y) = integral or sum of the terms - sum of the products.

    hypotheses are checked in order: "automorphism" (sigma's kind),
    "invariant" (the measure equals its pushforward under sigma) and
    "central" (the measure's support lies in the center; force may
    override it). needs lists the inputs beside the function, in load
    order. closed_form names the solver in `solvers`; battery marks the
    equation the identity battery belongs to.
    """

    tag: str
    terms: tuple[Term, ...]
    products: tuple[Product, ...]
    hypotheses: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    closed_form: str | None = None
    battery: bool = False

    @property
    def uses_g(self) -> bool:
        """The equation pairs f with a second function g."""
        return any("g" in p.left + p.right for p in self.products)


_SQUARE2 = (Product(2.0, "fx", "fy"),)
_COSINE_HYPOTHESES = ("automorphism", "invariant")

EQUATIONS: dict[str, Equation] = {eq.tag: eq for eq in (
    # integral f(sigma(y) x t) dmu - integral f(x y t) dmu = 2 f(x) f(y)
    Equation("vanvleck", (Term(1, "sxt"), Term(-1, "xyt")), _SQUARE2, ("central",),
             ("sigma", "mu"), "solve_vanvleck", battery=True),
    # g(xy) + g(sigma(y) x) = 2 g(x) g(y)
    Equation("dalembert_variant", (Term(1, "xy"), Term(1, "sx")), _SQUARE2, (),
             ("sigma",), "solve_dalembert"),
    # integral f(x t y) + integral f(sigma(y) t x) = 2 f(x) f(y)
    Equation("integral_dalembert", (Term(1, "xty"), Term(1, "stx")), _SQUARE2,
             _COSINE_HYPOTHESES, ("sigma", "mu"), "solve_central_dalembert"),
    # integral f(x y t) + integral f(sigma(y) x t) = 2 f(x) f(y): the trailing
    # form, equivalent to the middle one when the support is central
    Equation("corollary33", (Term(1, "xyt"), Term(1, "sxt")), _SQUARE2,
             _COSINE_HYPOTHESES, ("sigma", "mu"), "solve_central_dalembert"),
    # integral psi(x t y) = psi(x) psi(y)
    Equation("spherical", (Term(1, "xty"),), (Product(1.0, "fx", "fy"),), (),
             ("mu",), "solve_spherical"),
    # f(xy) = f(x) g(y) + f(y) g(x)
    Equation("sine_addition", (Term(1, "xy"),),
             (Product(1.0, "fx", "gy"), Product(1.0, "fy", "gx")), (), ("mu",)),
    # f(xy) + f(sigma(y) x) = 2 f(x) g(y)
    Equation("wilson_variant", (Term(1, "xy"), Term(1, "sx")), (Product(2.0, "fx", "gy"),),
             (), ("sigma", "mu")),
)}

# Two laws outside the CLI. integral psi(x y t) = psi(x) psi(y) reports
# as "spherical"; integral f(x t y) = integral f(y t x) holds for
# solutions of the middle-integral cosine variant.
SPHERICAL_RIGHT = Equation("spherical", (Term(1, "xyt"),), (Product(1.0, "fx", "fy"),))
MIDDLE_COMMUTATION = Equation("middle_commutation", (Term(1, "xty"), Term(-1, "ytx")), ())


@dataclass(frozen=True)
class BatteryItem:
    """One diagnostic: a residual (ok when value <= eq_tol) or, with
    flag=True, a magnitude that must stay above eq_tol."""

    name: str
    value: float
    flag: bool
    ok: bool

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "value": self.value}
        if self.flag:
            out["flag"] = True
        out["ok"] = self.ok
        return out


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    max_abs: float
    argmax: tuple[int, int]
    per_item: tuple[BatteryItem, ...] | None = None
    out_of_hypothesis: bool = False

    def passed(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        ok = self.max_abs <= tol.eq_tol
        if self.per_item is not None:
            ok = ok and all(item.ok for item in self.per_item)
        return ok

    def to_json(self) -> dict:
        out: dict = {
            "equation": self.equation,
            "max_abs": self.max_abs,
            "argmax": [self.argmax[0], self.argmax[1]],
        }
        if self.per_item is not None:
            out["per_item"] = [item.to_json() for item in self.per_item]
        if self.out_of_hypothesis:
            out["out_of_hypothesis"] = True
        return out


def _grid_report(equation: str, grid: np.ndarray, *, out_of_hypothesis: bool = False) -> ResidualReport:
    mags = np.abs(grid)
    flat = int(np.argmax(mags))  # first occurrence in row-major order, or the first NaN
    top = float(mags.flat[flat])
    if not math.isfinite(top):
        raise NonFiniteResidual(f"{equation} residual is not finite (overflow or non-finite input)")
    n = mags.shape[1]
    return ResidualReport(
        equation=equation,
        max_abs=top,
        argmax=(flat // n, flat % n),
        out_of_hypothesis=out_of_hypothesis,
    )


def require_hypotheses(hypotheses: Sequence[str], sg: FiniteSemigroup,
                       sigma: InvolutiveMorphism | None, mu: DiracMeasure | None,
                       tol: ToleranceConfig = DEFAULT_TOL, force: bool = False) -> bool:
    """Check hypotheses in order (see Equation). Returns False when force
    let a non-central support through, True otherwise."""
    central = True
    for hypothesis in hypotheses:
        if hypothesis == "automorphism" and sigma.kind is not MorphismKind.AUTOMORPHISM:
            raise WrongMorphismKind("this equation requires an automorphism")
        if hypothesis == "invariant" and not is_sigma_invariant(mu, sigma, tol):
            raise NotSigmaInvariant("measure must equal its pushforward under sigma")
        if hypothesis == "central" and not support_in_center(mu, sg):
            if not force:
                raise NonCentralSupport("mu must be supported in the center")
            central = False
    return central


def _cmul(a, b) -> np.ndarray:
    """a * b, rounded as the scalar complex product rounds it.

    numpy's vectorized complex multiply may fuse multiply-adds and then
    differs in the last bit from pointwise evaluation. A factor with a
    zero part multiplies exactly under any fusing, so a is split into
    its real and imaginary halves."""
    return a.real * b + 1j * a.imag * b


def term_groups(eq: Equation, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                mu: DiracMeasure | None) -> list[tuple[complex | None, list[tuple[int, np.ndarray]]]]:
    """The terms of eq compiled to index arrays idx[x, y], grouped by
    weight: one group per atom of mu (in atom order) for the averaged
    terms, then one group with weight None for the plain ones."""
    table = sg.index_table
    letters = {"x": np.arange(sg.n)[:, None], "y": np.arange(sg.n)[None, :]}
    if sigma is not None:
        letters["s"] = np.asarray(sigma.map)[None, :]

    def fold(word: str, idx: np.ndarray | None = None) -> np.ndarray:
        # every word holds x and one of y, s, so the result spans the grid
        for letter in word:
            idx = letters[letter] if idx is None else table[idx, letters[letter]]
        return idx

    averaged = [term for term in eq.terms if term.averaged]
    plain = [term for term in eq.terms if not term.averaged]
    groups: list[tuple[complex | None, list[tuple[int, np.ndarray]]]] = []
    if averaged:
        _check_points(mu, sg.n)
        split = []  # the part of a word before t is the same for every atom
        for term in averaged:
            head, _, tail = term.word.partition("t")
            split.append((term.sign, fold(head), tail))
        groups += [(w, [(sign, fold(tail, table[head, p])) for sign, head, tail in split])
                   for p, w in mu.atoms]
    if plain:
        groups.append((None, [(term.sign, fold(term.word)) for term in plain]))
    return groups


# Overflow and NaN surface as a NonFiniteResidual from the sup, not as warnings.
@np.errstate(over="ignore", invalid="ignore")
def _defect(eq: Equation, sg: FiniteSemigroup, f: np.ndarray, g: np.ndarray | None,
            sigma: InvolutiveMorphism | None, mu: DiracMeasure | None) -> np.ndarray:
    """The defect of eq at every pair, summed in the order a pointwise
    loop would: per atom the signed terms left to right, weighted, then
    each product subtracted. A real coefficient scales both parts
    exactly, so it needs no _cmul."""
    grid = np.zeros((sg.n, sg.n), dtype=complex)
    for w, terms in term_groups(eq, sg, sigma, mu):
        acc = sum(f[idx] if sign > 0 else -f[idx] for sign, idx in terms)
        grid += acc if w is None else _cmul(w, acc)
    at = {"fx": f[:, None], "fy": f[None, :]}
    if g is not None:
        at.update(gx=g[:, None], gy=g[None, :])
    for p in eq.products:
        grid -= _cmul(p.coef * at[p.left], at[p.right])
    return grid


def residual(eq: Equation, sg: FiniteSemigroup, f: Sequence[complex], *,
             g: Sequence[complex] | None = None, sigma: InvolutiveMorphism | None = None,
             mu: DiracMeasure | None = None, tol: ToleranceConfig = DEFAULT_TOL,
             force: bool = False) -> ResidualReport:
    """Residual report of any equation: hypotheses first, then the grid."""
    central = require_hypotheses(eq.hypotheses, sg, sigma, mu, tol, force)
    arr = check_function(sg, f)
    garr = None if g is None else check_function(sg, g)
    return _grid_report(eq.tag, _defect(eq, sg, arr, garr, sigma, mu),
                        out_of_hypothesis=not central)


def residual_vanvleck(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                      mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                      force: bool = False) -> ResidualReport:
    """Sine variant. Central support is a standing hypothesis; force=True
    evaluates anyway and marks the report out-of-hypothesis."""
    return residual(EQUATIONS["vanvleck"], sg, f, sigma=sigma, mu=mu, tol=tol, force=force)


def residual_dalembert(sg: FiniteSemigroup, g: Sequence[complex],
                       sigma: InvolutiveMorphism) -> ResidualReport:
    """Measure-free cosine variant g(xy) + g(sigma(y)x) = 2 g(x) g(y)."""
    return residual(EQUATIONS["dalembert_variant"], sg, g, sigma=sigma)


def residual_integral_dalembert(sg: FiniteSemigroup, f: Sequence[complex],
                                sigma: InvolutiveMorphism, upsilon: DiracMeasure,
                                tol: ToleranceConfig = DEFAULT_TOL) -> ResidualReport:
    """Middle-integral cosine variant, requiring an automorphism and a
    sigma-invariant measure."""
    return residual(EQUATIONS["integral_dalembert"], sg, f, sigma=sigma, mu=upsilon, tol=tol)


def residual_central_dalembert(sg: FiniteSemigroup, f: Sequence[complex],
                               sigma: InvolutiveMorphism, upsilon: DiracMeasure,
                               tol: ToleranceConfig = DEFAULT_TOL) -> ResidualReport:
    """Collapsed trailing-integral cosine variant (tag corollary33)."""
    return residual(EQUATIONS["corollary33"], sg, f, sigma=sigma, mu=upsilon, tol=tol)


def residual_spherical(sg: FiniteSemigroup, psi: Sequence[complex],
                       upsilon: DiracMeasure) -> ResidualReport:
    return residual(EQUATIONS["spherical"], sg, psi, mu=upsilon)


def residual_spherical_right(sg: FiniteSemigroup, psi: Sequence[complex],
                             upsilon: DiracMeasure) -> ResidualReport:
    """Trailing-integral variant integral psi(x y t) = psi(x) psi(y)."""
    return residual(SPHERICAL_RIGHT, sg, psi, mu=upsilon)


def residual_sine_addition(sg: FiniteSemigroup, f: Sequence[complex],
                           g: Sequence[complex]) -> ResidualReport:
    """f(xy) = f(x) g(y) + f(y) g(x)."""
    return residual(EQUATIONS["sine_addition"], sg, f, g=g)


def residual_wilson(sg: FiniteSemigroup, f: Sequence[complex], g: Sequence[complex],
                    sigma: InvolutiveMorphism) -> ResidualReport:
    """f(xy) + f(sigma(y)x) = 2 f(x) g(y)."""
    return residual(EQUATIONS["wilson_variant"], sg, f, g=g, sigma=sigma)


def residual_middle_commutation(sg: FiniteSemigroup, f: Sequence[complex],
                                upsilon: DiracMeasure) -> ResidualReport:
    """integral f(x t y) = integral f(y t x); holds for solutions of the
    middle-integral cosine variant even on noncommutative semigroups."""
    return residual(MIDDLE_COMMUTATION, sg, f, mu=upsilon)


def companion_cosine(sg: FiniteSemigroup, f: Sequence[complex], mu: DiracMeasure,
                     tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Normalized right average x -> integral f(x t) dmu(t) / integral f dmu.

    For a nonzero solution of the sine variant this solves the cosine
    variant and pairs with f in the sine-addition law."""
    arr = check_function(sg, f)
    mean = integrate(arr, mu)
    if abs(mean) <= tol.eq_tol:
        raise DegenerateIntegral("mean of f under mu vanishes")
    return right_transform(sg, arr, mu) / mean


class SupTerms(NamedTuple):
    """Sups of the structural identities of sine-variant solutions."""

    odd: float          # |f(sigma x) + f(x)|
    cross: float        # |f(sigma(y) x) + f(sigma(x) y)|
    twisted: float      # |iint f(x sigma(a) b) - f(x) mean|
    plain: float        # |iint f(x a b) + f(x) mean|
    sigma_right: float  # |int f(sigma(x) t) - int f(x t)|
    sigma_twist: float  # |int f(x sigma(t)) - f(sigma(x) sigma(t))|


def _sup(values: np.ndarray) -> float:
    # np.hypot rounds as the scalar complex abs does; np.abs may not
    top = float(np.max(np.hypot(values.real, values.imag)))
    if not math.isfinite(top):
        raise NonFiniteResidual("battery term is not finite (overflow or non-finite input)")
    return top


@np.errstate(over="ignore", invalid="ignore")
def sup_terms(sg: FiniteSemigroup, arr: np.ndarray, sigma: InvolutiveMorphism,
              mu: DiracMeasure, mean: complex) -> SupTerms:
    """The sups shared by the identity battery (exactly zero on
    solutions) and the approximate battery (bounded by multiples of
    delta). mean is the integral of arr under mu, points already checked."""
    table = sg.index_table
    s = np.asarray(sigma.map)
    x = np.arange(sg.n)
    twisted = np.zeros(sg.n, dtype=complex)
    plain = np.zeros(sg.n, dtype=complex)
    for a, wa in mu.atoms:
        for b, wb in mu.atoms:
            w = wa * wb
            twisted += _cmul(w, arr[table[table[x, s[a]], b]])
            plain += _cmul(w, arr[table[table[x, a], b]])
    twist = np.zeros(sg.n, dtype=complex)
    for p, w in mu.atoms:
        twist += _cmul(w, arr[table[x, s[p]]] - arr[table[s, s[p]]])
    rt = right_transform(sg, arr, mu)
    f_mean = _cmul(arr, mean)
    return SupTerms(
        odd=_sup(arr[s] + arr),
        cross=_sup(arr[table[s[None, :], x[:, None]]] + arr[table[s[:, None], x[None, :]]]),
        twisted=_sup(twisted - f_mean),
        plain=_sup(plain + f_mean),
        sigma_right=_sup(rt[s] - rt),
        sigma_twist=_sup(twist),
    )


def identity_battery(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                     mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                     force: bool = False) -> list[BatteryItem]:
    """Diagnostics every nonzero sine-variant solution satisfies exactly.

    Items are numbered in battery order; all residual items must sit at
    zero and the mean flag must stay away from zero. On a non-solution
    the failing items localize which structural identity breaks.
    """
    require_hypotheses(EQUATIONS["vanvleck"].hypotheses, sg, sigma, mu, tol, force)
    arr = check_function(sg, f)
    t = sg.table
    smap = sigma.map
    mean = integrate(arr, mu)
    sups = sup_terms(sg, arr, sigma, mu, mean)
    pair_plain = float(abs(sum(wa * wb * arr[t[a][b]] for a, wa in mu.atoms for b, wb in mu.atoms)))
    pair_twist = float(abs(
        sum(wa * wb * arr[t[a][smap[b]]] for a, wa in mu.atoms for b, wb in mu.atoms)
    ))

    eq = tol.eq_tol
    items = [
        BatteryItem("1_sigma_odd", sups.odd, False, sups.odd <= eq),
        BatteryItem("2_nonzero_mean", float(abs(mean)), True, abs(mean) > eq),
        BatteryItem("3_cross_antisym", sups.cross, False, sups.cross <= eq),
        BatteryItem("4_twisted_double_mean", sups.twisted, False, sups.twisted <= eq),
        BatteryItem("5_double_mean", sups.plain, False, sups.plain <= eq),
        BatteryItem("6_sigma_right_mean", sups.sigma_right, False, sups.sigma_right <= eq),
        BatteryItem("7_sigma_twist_mean", sups.sigma_twist, False, sups.sigma_twist <= eq),
        BatteryItem("8_vanishing_double_mean", max(pair_plain, pair_twist), False,
                    max(pair_plain, pair_twist) <= eq),
    ]
    return items


def battery_report(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                   mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                   force: bool = False) -> ResidualReport:
    """Sine-variant report with the identity battery attached; max_abs
    ranges over the equation grid (flag items carry no residual)."""
    base = residual_vanvleck(sg, f, sigma, mu, tol, force=force)
    items = identity_battery(sg, f, sigma, mu, tol, force=force)
    return ResidualReport(
        equation=base.equation,
        max_abs=base.max_abs,
        argmax=base.argmax,
        per_item=tuple(items),
        out_of_hypothesis=base.out_of_hypothesis,
    )
