"""The functional equations under study, described once, and their residuals.

EQUATIONS holds every equation the CLI knows. An entry gives the linear
terms of its defect as words in x, y, sigma(y) and an atom t of the
measure, its quadratic part, the hypotheses it requires and its closed
form in characters; the inputs it reads follow from the words, and one
gate, bind_inputs, checks them for every path. compile_terms compiles
the words once per call, and _linear sums them for one function or a
stack, each word one read of f, of R_mu f (a b t) or of R_mu applied
down the rows of f[table] (a t b), each built once. residual reports
one function; _row_sups gives the sups of a stack (the closed forms
verify all their solutions in one pass per law, and the superstability
campaign reads each trial's defect); the Gauss-Newton oracle in
`solvers` reads its linear operator from _linear at the unit vectors.

Every report scans the full (x, y) grid, giving the sup-norm of the
defect and the lexicographically first pair attaining it. A function
"solves" an equation when max_abs <= eq_tol.

The sine variant's two batteries, the identity battery and the
approximate battery, read their terms from one pass, _sup_terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParams,
    DegenerateIntegral,
    LengthMismatch,
    NonCentralSupport,
    NonFiniteResidual,
    NotMorphism,
    NotSigmaInvariant,
    UsageError,
    WrongMorphismKind,
)
from .measures import (
    _EPS,
    _MIN_NORMAL,
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    _check_points,
    _cmul,
    _modulus,
    _right_sum,
    check_function,
    integrate,
    is_sigma_invariant,
    measure_norm,
    pushforward,
    right_transform,
    support_in_center,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism, MorphismKind


class Term(NamedTuple):
    """sign * f(word). The word's letters are multiplied left to right:
    x, y, s = sigma(y), and t, an atom of the measure. A word holding t
    is averaged against the measure. Every word is a b, a b t or a t b:
    one letter on each axis of the (x, y) grid, x on one and y or s on
    the other, with b = x or y (compile_terms refuses any other word)."""

    sign: int
    word: str


class Product(NamedTuple):
    """coef * left * right, each factor a function at x or y: "fx", "gy"."""

    coef: float
    left: str
    right: str


class ClosedForm(NamedTuple):
    """Solutions from each character chi: chi (sigma_sign 0), (chi + chi o
    sigma)/2 (1) or (chi o sigma - chi)/2 (-1), times mean(chi) when the
    equation has a measure. No tolerance enters: chi is skipped when its
    mean is within the rounding bound measures.character_mean_slack(mu)
    of zero, or, in the odd form, when mean(chi o sigma) + mean(chi)
    exceeds twice that bound. hypotheses may be stricter than the
    equation's, and include those of every equation sharing the form and
    of every check, so closed_form checks them once. Every solution is
    verified against each equation sharing the form, then against
    checks, within closed_form_slack(mu).

    The characters alone decide which solutions coincide. chi and chi o
    sigma give the same function, and distinct characters are linearly
    independent (Dedekind-Artin), so distinct pairs {chi, chi o sigma}
    give distinct functions: a chi is skipped when chi o sigma is already
    kept, and no two solutions are compared as vectors. None is zero: the
    odd form is nonzero where chi and chi o sigma differ, and with chi o
    sigma = chi it fails its mean test (the sum of the means is then
    2 mean(chi), bit for bit); a nonzero chi takes the value 1 at an
    idempotent e, where chi o sigma is 0 or 1, so chi and the even forms
    are nonzero at e. In floats too, at closed_form's unit scale: a kept
    mean exceeds 2^-1022, and the odd form has an entry of modulus at
    least |mean| / n (the nonzero values of chi form a group of m <= n
    roots of unity, so two distinct values lie min(1, 2 sin(pi / n)) >=
    2 / n apart or more), so no product rounds to zero (scaled back, one
    may; closed_form refuses a solution that rounds to 0)."""

    sigma_sign: int
    formula: str
    label: str
    hypotheses: tuple[str, ...] = ()
    checks: tuple[Equation, ...] = ()


def closed_form_slack(mu: DiracMeasure | None) -> float:
    """A bound on the residual that rounding alone leaves on a float
    closed-form solution, for each equation sharing the form and each
    of its checks.

    Let u = 2^-53, k be the number of atoms and N = ||mu|| (k = 0 and
    N = 1 without a measure, whose terms are summed unweighted). The
    exact solution is f = g mean(chi) with |g| <= 1, so |f| <= N. By
    measures.character_mean_slack the float chi is within 30u of chi and
    the float mean within (32 + 1.5k) u N of the mean; g adds a sum, so
    the float f is within e = (68 + 1.5k) u N of f. A defect has at most
    two terms and products of weight at most 2, so it moves by at most
    2 N e + 4 N e + 2 e^2 between f and the float f. Per component, a
    term a b t or a t b reads a k-term transform, rt or H, which sums k
    products w f, each within 2u of |w| |f|, in k - 1 roundings; so two
    terms and their sum are off by (2k + 4) u N^2, and the product and
    difference add 8u N^2: the evaluation adds under
    sqrt(2) (2k + 12) u N^2 < 6 (k + 8) u N^2.
    The hypotheses hold exactly, so f is an exact solution, except in
    the odd form where d = mean(chi o sigma) + mean(chi) passed its
    float test without being zero: the exact defect of f is then
    mean(chi) d chi o sigma(x) (chi(y) - chi o sigma(y))/2, at most
    N |d|. The test lets the float |d| reach twice the mean slack,
    (4k + 68) u N, and |d| exceeds it by (66 + 3k) u N at most, so
    N |d| <= (134 + 7k) u N^2. With (408 + 9k) u N^2 from f and
    (48 + 6k) u N^2 from the evaluation, rounding leaves under
    (590 + 22k) u N^2 <= (300 + 11k) eps N^2; underflow adds a few
    2^-1074 per cell, which 2^-1022 covers.
    """
    k, norm = (0, 1.0) if mu is None else (len(mu.atoms), measure_norm(mu))
    return (300 + 11 * k) * _EPS * norm * norm + _MIN_NORMAL


@dataclass(frozen=True)
class Equation:
    """defect(x, y) = integral or sum of the terms - sum of the products.

    hypotheses are checked in order, each exactly, by bind_inputs:
    "automorphism" (sigma's kind), "invariant" (the measure equals its
    pushforward under sigma) and "central" (the measure's support lies in
    the center; force may override it). Each reads only inputs in reads.
    battery marks the equation the identity battery belongs to.
    """

    tag: str
    terms: tuple[Term, ...]
    products: tuple[Product, ...]
    hypotheses: tuple[str, ...] = ()
    closed_form: ClosedForm | None = None
    battery: bool = False

    @cached_property
    def reads(self) -> tuple[str, ...]:
        """The inputs beside the functions that the words read, in load
        order: sigma for a letter s, mu for a letter t."""
        words = "".join(term.word for term in self.terms)
        return tuple(name for name, letter in (("sigma", "s"), ("mu", "t")) if letter in words)

    @cached_property
    def uses_g(self) -> bool:
        """The equation pairs f with a second function g."""
        return any("g" in p.left + p.right for p in self.products)


_SQUARE2 = (Product(2.0, "fx", "fy"),)
_COSINE_HYPOTHESES = ("automorphism", "invariant")

# A law outside the CLI: integral psi(x y t) = psi(x) psi(y), reported
# as "spherical".
SPHERICAL_RIGHT = Equation("spherical", (Term(1, "xyt"),), (Product(1.0, "fx", "fy"),))

# Both integral cosine variants: with central support the middle and
# trailing forms agree, and the solutions are reported as corollary33.
_CENTRAL_COSINE = ClosedForm(1, "(chi + chi o sigma)/2 * mean(chi)", "corollary33",
                             _COSINE_HYPOTHESES + ("central",))

EQUATIONS: dict[str, Equation] = {eq.tag: eq for eq in (
    # integral f(sigma(y) x t) dmu - integral f(x y t) dmu = 2 f(x) f(y)
    Equation("vanvleck", (Term(1, "sxt"), Term(-1, "xyt")), _SQUARE2, ("central",),
             ClosedForm(-1, "(chi o sigma - chi)/2 * mean(chi)", "vanvleck", ("central",)),
             battery=True),
    # g(xy) + g(sigma(y) x) = 2 g(x) g(y)
    Equation("dalembert_variant", (Term(1, "xy"), Term(1, "sx")), _SQUARE2, (),
             ClosedForm(1, "(chi + chi o sigma)/2", "dalembert_variant")),
    # integral f(x t y) + integral f(sigma(y) t x) = 2 f(x) f(y)
    Equation("integral_dalembert", (Term(1, "xty"), Term(1, "stx")), _SQUARE2,
             _COSINE_HYPOTHESES, _CENTRAL_COSINE),
    # integral f(x y t) + integral f(sigma(y) x t) = 2 f(x) f(y): the trailing
    # form, equivalent to the middle one when the support is central
    Equation("corollary33", (Term(1, "xyt"), Term(1, "sxt")), _SQUARE2,
             _COSINE_HYPOTHESES, _CENTRAL_COSINE),
    # integral psi(x t y) = psi(x) psi(y)
    Equation("spherical", (Term(1, "xty"),), (Product(1.0, "fx", "fy"),), (),
             ClosedForm(0, "chi * mean(chi)", "spherical", checks=(SPHERICAL_RIGHT,))),
    # f(xy) = f(x) g(y) + f(y) g(x)
    Equation("sine_addition", (Term(1, "xy"),),
             (Product(1.0, "fx", "gy"), Product(1.0, "fy", "gx"))),
    # f(xy) + f(sigma(y) x) = 2 f(x) g(y)
    Equation("wilson_variant", (Term(1, "xy"), Term(1, "sx")), (Product(2.0, "fx", "gy"),)),
)}


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


def finite_top(equation: str, top: float) -> float:
    """top, the sup of a residual grid of equation; NonFiniteResidual
    when it is not finite."""
    if not math.isfinite(top):
        raise NonFiniteResidual(f"{equation} residual is not finite (overflow or non-finite input)")
    return top


def bind_inputs(eq: Equation, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                mu: DiracMeasure | None, *, hypotheses: Sequence[str] | None = None,
                force: bool = False) -> tuple[DiracMeasure | None, bool]:
    """The one check of eq's inputs, on every path that evaluates eq or
    its closed form, in this order: a sigma or mu that eq's words read
    must be given (UsageError), and one they do not read is dropped
    unchecked; sigma, when read, must map 0..n-1 into 0..n-1
    (validate_morphism checks the laws too); the hypotheses hold in
    order, eq's own or a closed form's stricter ones (see Equation); mu's
    atoms lie in 0..n-1. Returns (mu, central), central False when force
    let a non-central support through."""
    for name, value in (("sigma", sigma), ("mu", mu)):
        if name in eq.reads and value is None:
            raise UsageError(f"equation '{eq.tag}' needs {name}")
    # an unread input must not scale or check anything
    if "sigma" not in eq.reads:
        sigma = None
    if "mu" not in eq.reads:
        mu = None
    if sigma is not None and len(sigma.map) != sg.n:
        raise LengthMismatch(len(sigma.map), sg.n, "sigma", "entries")
    if sigma is not None and not 0 <= min(sigma.map) <= max(sigma.map) < sg.n:
        bad = next(x for x, y in enumerate(sigma.map) if not 0 <= y < sg.n)
        raise NotMorphism(f"sigma[{bad}] = {sigma.map[bad]} is outside 0..{sg.n - 1}")
    central = True
    for hypothesis in eq.hypotheses if hypotheses is None else hypotheses:
        if hypothesis == "automorphism" and sigma.kind is not MorphismKind.AUTOMORPHISM:
            raise WrongMorphismKind("this equation requires an automorphism")
        if hypothesis == "invariant" and not is_sigma_invariant(mu, sigma):
            raise NotSigmaInvariant("measure must equal its pushforward under sigma")
        if hypothesis == "central" and not support_in_center(mu, sg):
            if not force:
                raise NonCentralSupport("mu must be supported in the center")
            central = False
    if mu is not None:
        _check_points(mu, sg.n)
    return mu, central


class CompiledTerms(NamedTuple):
    """The terms of an equation compiled for one call by compile_terms."""

    table: np.ndarray        # the index table: table[a, b] = a b
    mu: DiracMeasure | None  # the measure the averaged words read
    words: tuple[tuple, ...]  # (sign, source, index) per word, in order: source f, rt or H


def compile_terms(eq: Equation, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                  mu: DiracMeasure | None) -> CompiledTerms:
    """The terms of eq, the inputs checked by bind_inputs: each word to
    the grid it reads, its source, and where. A word a b (see Term)
    reads f at the index array table[a, b]: the rows of table at the
    values of a, transposed when a lies on the y axis (swap). A word
    a b t averages to (R_mu f)(a b), for the right transform
    R_mu f(x) = integral f(x t) dmu(t), so it reads rt = R_mu f there. A
    word a t b is G(a t, b) for G(u, b) = f(u b), so it averages to
    H(a, b), H = R_mu applied down the rows of G: it reads H at (values
    of a, swap)."""
    table = sg.index_table
    letters = {"x": np.arange(sg.n), "y": np.arange(sg.n)}
    if sigma is not None:
        letters["s"] = np.asarray(sigma.map)
    words = []
    for term in eq.terms:
        at, ab = term.word.find("t"), term.word.replace("t", "", 1)
        if not (len(ab) == 2 and at in (-1, 1, 2) and ab[0] in "xys" and ab[1] in "xy"
                and (ab[0] == "x") != (ab[1] == "x")):
            raise ValueError(f"cannot compile the word '{term.word}'")
        rows, swap = letters[ab[0]], ab[0] != "x"
        if at == 1:
            words.append((term.sign, "H", (rows, swap)))
        else:  # take copies a strided index per call
            words.append((term.sign, "rt" if at == 2 else "f", np.ascontiguousarray(_rows(table, rows, swap))))
    return CompiledTerms(table, mu, tuple(words))


def _rows(grid: np.ndarray, rows: np.ndarray, swap: bool) -> np.ndarray:
    """grid[..., rows[i], j] at [i, j], or at [j, i] with swap."""
    out = grid.take(rows, axis=-2)
    return out.swapaxes(-1, -2) if swap else out


def _signed_sum(values) -> np.ndarray:
    """The (sign, values) pairs summed left to right in the first of them,
    a fresh array; the others are freed as they are added, so at most
    two are alive."""
    sign, acc = next(values)
    if sign < 0:
        np.negative(acc, out=acc)
    for sign, v in values:
        (np.add if sign > 0 else np.subtract)(acc, v, out=acc)
    return acc


def _linear(terms: CompiledTerms, f: np.ndarray) -> np.ndarray:
    """The compiled terms summed left to right at every pair for f of
    shape (..., n), a grid of shape (..., n, n), each cell rounded as for
    one function alone. rt = R_mu f and H = R_mu applied down the rows of
    f[table] are built once per call where a word reads them, each
    summed over the atoms in order (0 without atoms). Each read is a
    fresh array. take(axis=-1) gathers as f[..., idx] does; numpy's
    indexing is slower with the ellipsis."""
    sources = {source for _, source, _ in terms.words}
    grids = {"f": f}
    if "rt" in sources:
        grids["rt"] = _right_sum(terms.table, f, terms.mu)
    if "H" in sources:
        grids["H"] = _right_sum(terms.table, f.take(terms.table, axis=-1), terms.mu, axis=-2)

    def read(source: str, index) -> np.ndarray:
        return _rows(grids["H"], *index) if source == "H" else grids[source].take(index, axis=-1)

    return _signed_sum((sign, read(source, index)) for sign, source, index in terms.words)


# Overflow and NaN surface as a NonFiniteResidual from the sup, not as warnings.
@np.errstate(over="ignore", invalid="ignore")
def _defect(eq: Equation, terms: CompiledTerms, f: np.ndarray, g: np.ndarray | None) -> np.ndarray:
    """The defect of eq at every pair: its linear part (_linear), then
    each product subtracted. The functions lie on the last axis, as in
    _linear."""
    grid = _linear(terms, f)
    at = {"fx": f[..., :, None], "fy": f[..., None, :]}
    if g is not None:
        at.update(gx=g[..., :, None], gy=g[..., None, :])
    for p in eq.products:
        grid -= _cmul(p.coef * at[p.left], at[p.right])
    return grid


def _row_sups(eq: Equation, terms: CompiledTerms, F: np.ndarray) -> np.ndarray:
    """max |defect| of eq for each row of the (k, n) stack F, from one
    gather: each equals the max_abs of its row's own report, or is not
    finite where that report would raise NonFiniteResidual."""
    return np.max(np.abs(_defect(eq, terms, F, None)), axis=(-2, -1))


def residual(eq: Equation, sg: FiniteSemigroup, f: Sequence[complex], *,
             g: Sequence[complex] | None = None, sigma: InvolutiveMorphism | None = None,
             mu: DiracMeasure | None = None, force: bool = False) -> ResidualReport:
    """Residual report of any equation: its inputs first (bind_inputs),
    then a missing g that eq's products read (refused as bind_inputs
    refuses inputs), the functions and the grid. force=True lets a
    non-central support through and marks the report out-of-hypothesis."""
    mu, central = bind_inputs(eq, sg, sigma, mu, force=force)
    terms = compile_terms(eq, sg, sigma, mu)
    if g is None and eq.uses_g:
        raise UsageError(f"equation '{eq.tag}' needs g")
    arr = check_function(sg, f)
    garr = None if g is None else check_function(sg, g)
    mags = np.abs(_defect(eq, terms, arr, garr))
    flat = int(np.argmax(mags))  # first occurrence in row-major order, or the first NaN
    return ResidualReport(eq.tag, finite_top(eq.tag, float(mags.flat[flat])), divmod(flat, sg.n),
                          out_of_hypothesis=not central)


def residual_vanvleck(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                      mu: DiracMeasure, *, force: bool = False) -> ResidualReport:
    """Sine variant. Central support is a standing hypothesis; force=True
    evaluates anyway and marks the report out-of-hypothesis."""
    return residual(EQUATIONS["vanvleck"], sg, f, sigma=sigma, mu=mu, force=force)


def residual_dalembert(sg: FiniteSemigroup, g: Sequence[complex],
                       sigma: InvolutiveMorphism) -> ResidualReport:
    """Measure-free cosine variant g(xy) + g(sigma(y)x) = 2 g(x) g(y)."""
    return residual(EQUATIONS["dalembert_variant"], sg, g, sigma=sigma)


def residual_integral_dalembert(sg: FiniteSemigroup, f: Sequence[complex],
                                sigma: InvolutiveMorphism, upsilon: DiracMeasure) -> ResidualReport:
    """Middle-integral cosine variant, requiring an automorphism and a
    sigma-invariant measure."""
    return residual(EQUATIONS["integral_dalembert"], sg, f, sigma=sigma, mu=upsilon)


def residual_central_dalembert(sg: FiniteSemigroup, f: Sequence[complex],
                               sigma: InvolutiveMorphism, upsilon: DiracMeasure) -> ResidualReport:
    """Collapsed trailing-integral cosine variant (tag corollary33)."""
    return residual(EQUATIONS["corollary33"], sg, f, sigma=sigma, mu=upsilon)


def residual_spherical(sg: FiniteSemigroup, psi: Sequence[complex],
                       upsilon: DiracMeasure) -> ResidualReport:
    return residual(EQUATIONS["spherical"], sg, psi, mu=upsilon)


def residual_sine_addition(sg: FiniteSemigroup, f: Sequence[complex],
                           g: Sequence[complex]) -> ResidualReport:
    """f(xy) = f(x) g(y) + f(y) g(x)."""
    return residual(EQUATIONS["sine_addition"], sg, f, g=g)


def residual_wilson(sg: FiniteSemigroup, f: Sequence[complex], g: Sequence[complex],
                    sigma: InvolutiveMorphism) -> ResidualReport:
    """f(xy) + f(sigma(y)x) = 2 f(x) g(y)."""
    return residual(EQUATIONS["wilson_variant"], sg, f, g=g, sigma=sigma)


@np.errstate(over="ignore", invalid="ignore")
def companion_cosine(sg: FiniteSemigroup, f: Sequence[complex], mu: DiracMeasure) -> np.ndarray:
    """Normalized right average x -> integral f(x t) dmu(t) / integral f dmu.

    For a nonzero solution of the sine variant this solves the cosine
    variant and pairs with f in the sine-addition law. Only a mean of 0
    is degenerate; a quotient that overflows is left non-finite, without
    a warning, and any residual of it raises NonFiniteResidual."""
    if mu is None:
        raise UsageError("the companion cosine needs mu")
    arr = check_function(sg, f)
    mean = integrate(arr, mu)
    if mean == 0:
        raise DegenerateIntegral("mean of f under mu vanishes")
    return right_transform(sg, arr, mu) / mean


class _SupTerms(NamedTuple):
    """The terms of both sine-variant batteries, from one pass."""

    odd: float           # sup |f(sigma x) + f(x)|
    cross: float         # sup |f(sigma(y) x) + f(sigma(x) y)|
    twisted: float       # sup |iint f(x sigma(a) b) - f(x) mean|
    plain: float         # sup |iint f(x a b) + f(x) mean|
    sigma_right: float   # sup |int f(sigma(x) t) - int f(x t)|
    sigma_twist: float   # sup |int f(x sigma(t)) - f(sigma(x) sigma(t))|
    pair_plain: complex  # iint f(a b), not yet checked finite
    pair_twist: complex  # iint f(a sigma(b)), not yet checked finite
    rt: np.ndarray       # x -> int f(x t), the right transform


def _sup(values: np.ndarray) -> float:
    # np.hypot rounds as the scalar complex abs does; np.abs may not
    top = float(np.max(np.hypot(values.real, values.imag)))
    if not math.isfinite(top):
        raise NonFiniteResidual("battery term is not finite (overflow or non-finite input)")
    return top


@np.errstate(over="ignore", invalid="ignore")
def _sup_terms(sg: FiniteSemigroup, arr: np.ndarray, sigma: InvolutiveMorphism,
               mu: DiracMeasure, mean: complex) -> _SupTerms:
    """The terms shared by the identity battery (exactly zero on
    solutions) and the approximate battery (bounded by multiples of
    delta). mean is the integral of arr under mu, points already checked.

    A double mean is an iterated one: iint f(x a b) dmu(a) dnu(b) is
    R_mu(R_nu f)(x) for the right transform R_nu f(x) = int f(x t) dnu(t).
    So every term comes from rt = R_mu f and rs = R_{sigma*mu} f, with
    sigma*mu the pushforward of mu under sigma."""
    table, s = sg.index_table, np.asarray(sigma.map)
    smu = pushforward(mu, sigma)
    rt, rs = _right_sum(table, arr, mu), _right_sum(table, arr, smu)
    f_mean = _cmul(arr, mean)
    cross = arr[table[s[None, :], np.arange(sg.n)[:, None]]]  # f(sigma(y) x) at [x, y]
    return _SupTerms(
        odd=_sup(arr[s] + arr),
        cross=_sup(cross + cross.T),
        twisted=_sup(_right_sum(table, rt, smu) - f_mean),
        plain=_sup(_right_sum(table, rt, mu) + f_mean),
        sigma_right=_sup(rt[s] - rt),
        sigma_twist=_sup(rs - rs[s]),
        pair_plain=integrate(rt, mu),
        pair_twist=integrate(rs, mu),
        rt=rt,
    )


def identity_battery(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                     mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                     force: bool = False) -> list[BatteryItem]:
    """Diagnostics every nonzero sine-variant solution satisfies exactly.

    Items are numbered in battery order; all residual items must sit at
    zero and the mean flag must stay away from zero. On a non-solution
    the failing items localize which structural identity breaks.
    """
    bind_inputs(EQUATIONS["vanvleck"], sg, sigma, mu, force=force)
    arr = check_function(sg, f)
    mean = integrate(arr, mu)
    sups = _sup_terms(sg, arr, sigma, mu, mean)
    pair = _sup(np.array([sups.pair_plain, sups.pair_twist]))
    amean = _modulus(mean)
    if not math.isfinite(amean):
        raise NonFiniteResidual("battery mean is not finite (overflow or non-finite input)")

    eq = tol.eq_tol
    items = [
        BatteryItem("1_sigma_odd", sups.odd, False, sups.odd <= eq),
        BatteryItem("2_nonzero_mean", amean, True, amean > eq),
        BatteryItem("3_cross_antisym", sups.cross, False, sups.cross <= eq),
        BatteryItem("4_twisted_double_mean", sups.twisted, False, sups.twisted <= eq),
        BatteryItem("5_double_mean", sups.plain, False, sups.plain <= eq),
        BatteryItem("6_sigma_right_mean", sups.sigma_right, False, sups.sigma_right <= eq),
        BatteryItem("7_sigma_twist_mean", sups.sigma_twist, False, sups.sigma_twist <= eq),
        BatteryItem("8_vanishing_double_mean", pair, False, pair <= eq),
    ]
    return items


def battery_report(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                   mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                   force: bool = False) -> ResidualReport:
    """Sine-variant report with the identity battery attached; max_abs
    ranges over the equation grid (flag items carry no residual)."""
    return replace(residual_vanvleck(sg, f, sigma, mu, force=force),
                   per_item=tuple(identity_battery(sg, f, sigma, mu, tol, force=force)))


@dataclass(frozen=True)
class InequalityItem:
    """One evaluated inequality: holds when lhs <= rhs (+ eq_tol), or for
    flag items when lhs stays above eq_tol."""

    name: str
    lhs: float
    rhs: float
    flag: bool
    holds: bool


@np.errstate(over="ignore", invalid="ignore")  # the companion's overflow raises from its residual
def approximate_battery(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                        mu: DiracMeasure, delta: float,
                        tol: ToleranceConfig = DEFAULT_TOL) -> list[InequalityItem]:
    """Inequalities a delta-approximate solution would satisfy were it
    unbounded; on finite semigroups they are evaluated, not asserted.
    At delta = 0 they collapse to the exact identity battery.

    Bounds divide by |mean of f|, so that mean must be nonzero (exactly,
    as for companion_cosine); it is tested before any term is computed.
    The sine variant's hypotheses are not required.
    """
    if not delta >= 0:
        raise BadParams("delta must be nonnegative")
    bind_inputs(EQUATIONS["vanvleck"], sg, sigma, mu, hypotheses=())
    arr = check_function(sg, f)
    mean = integrate(arr, mu)
    if mean == 0:
        raise DegenerateIntegral("mean of f under mu vanishes; bounds are undefined")
    norm = measure_norm(mu)
    amean = _modulus(mean)
    eq = tol.eq_tol
    sups = _sup_terms(sg, arr, sigma, mu, mean)
    # the companion cosine, as companion_cosine computes it
    g_defect = residual_dalembert(sg, sups.rt / mean, sigma).max_abs

    square = amean * amean  # underflows to 0 below a mean of about 1e-162
    companion_bound = (3.0 * delta * norm * norm / square if square
                       else math.inf if delta > 0 else 0.0)

    def bounded(name: str, lhs: float, rhs: float) -> InequalityItem:
        return InequalityItem(name, lhs, rhs, False, lhs <= rhs + eq)

    return [
        bounded("1_sigma_odd", sups.odd, 0.0),
        bounded("2_cross_sum", sups.cross, 3.0 * delta * norm / amean),
        bounded("3_twisted_double_mean", sups.twisted, delta * norm / 2.0),
        bounded("4_double_mean", sups.plain, 3.0 * delta * norm / 2.0),
        InequalityItem("5_nonzero_mean", amean, 0.0, True, amean > eq),
        bounded("6_sigma_twist_mean", sups.sigma_twist, 0.0),
        bounded("7_sigma_right_mean", sups.sigma_right, 6.0 * delta * norm * norm / amean),
        bounded("8_companion_cosine_defect", g_defect, companion_bound),
    ]
