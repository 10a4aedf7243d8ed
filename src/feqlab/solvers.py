"""Closed-form solvers and the independent numeric root-finding oracle.

The closed forms come from character theory: every solution is built
from a multiplicative function chi meeting side conditions on its mean
under the measure. The oracle knows nothing about characters; it runs
multistart damped Gauss-Newton on the defect system and is used to
cross-check completeness of the closed forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import Character, character_to_scalar, characters_cached, compose_sigma
from .equations import (
    EQUATIONS,
    require_hypotheses,
    residual_central_dalembert,
    residual_dalembert,
    residual_integral_dalembert,
    residual_spherical,
    residual_spherical_right,
    residual_vanvleck,
    term_groups,
)
from .errors import (
    DegenerateMeasureWarning,
    FeqlabError,
    NotAMonoid,
    NotCentral,
    NotSpherical,
    UsageError,
)
from .measures import (
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    check_function,
    integrate,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism, center

# Gauss-Newton converges happily to points in the flat valley around the
# zero function (residual is quadratic there), so the oracle drops roots
# this small; genuine nonzero solutions on the supported fixtures have
# sup|f| >= 1/2.
ZERO_ROOT_CUTOFF = 1e-3


@dataclass(frozen=True)
class Provenance:
    chi: Character
    formula: str

    def to_json(self) -> dict:
        return {"chi": self.chi.to_json(), "formula": self.formula}


@dataclass(frozen=True)
class Solution:
    values: np.ndarray
    provenance: Provenance

    def to_json(self) -> dict:
        return {
            "values": [[v.real, v.imag] for v in self.values],
            "provenance": self.provenance.to_json(),
        }


@dataclass(frozen=True)
class SolutionSet:
    equation: str
    solutions: tuple[Solution, ...]

    def vectors(self) -> list[np.ndarray]:
        return [s.values for s in self.solutions]

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "solutions": [s.to_json() for s in self.solutions],
        }


def _dedup_add(out: list[Solution], values: np.ndarray, prov: Provenance,
               tol: ToleranceConfig) -> None:
    if float(np.max(np.abs(values))) <= tol.dedup_tol:
        return  # the zero function is never reported
    for existing in out:
        if float(np.max(np.abs(existing.values - values))) <= tol.dedup_tol:
            return
    out.append(Solution(values=values, provenance=prov))


def _verify(report, tol: ToleranceConfig, what: str) -> None:
    if report.max_abs > tol.eq_tol:
        raise FeqlabError(f"internal: closed form for {what} failed verification "
                          f"(residual {report.max_abs:.3e})")


def _warn_degenerate(mu: DiracMeasure) -> bool:
    if measure_norm(mu) == 0.0:
        warnings.warn("zero-norm measure: equation degenerates, returning empty set",
                      DegenerateMeasureWarning, stacklevel=3)
        return True
    return False


def solve_vanvleck(sg: FiniteSemigroup, sigma: InvolutiveMorphism, mu: DiracMeasure,
                   tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """All nonzero solutions of the sine variant.

    Emits (chi o sigma - chi)/2 * mean(chi) for every character chi with
    mean(chi) != 0 and mean(chi o sigma) = -mean(chi); chi and chi o
    sigma produce the same function, deduplicated canonically.
    """
    require_hypotheses(EQUATIONS["vanvleck"].hypotheses, sg, sigma, mu, tol)
    out: list[Solution] = []
    if _warn_degenerate(mu):
        return SolutionSet("vanvleck", tuple(out))
    for chi in characters_cached(sg):
        cvec = character_to_scalar(chi)
        mean = integrate(cvec, mu)
        if abs(mean) <= tol.eq_tol:
            continue
        svec = character_to_scalar(compose_sigma(chi, sigma))
        if abs(integrate(svec, mu) + mean) > tol.eq_tol:
            continue
        f = (svec - cvec) / 2.0 * mean
        _dedup_add(out, f, Provenance(chi, "(chi o sigma - chi)/2 * mean(chi)"), tol)
    for sol in out:
        _verify(residual_vanvleck(sg, sol.values, sigma, mu, tol), tol, "vanvleck")
    return SolutionSet("vanvleck", tuple(out))


def solve_vanvleck_point(sg: FiniteSemigroup, sigma: InvolutiveMorphism, z0: int,
                         tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """Point-mass specialization on a monoid: mu = delta_z0 with z0 central.

    Delegates to solve_vanvleck; solutions are chi(z0)(chi o sigma - chi)/2.
    """
    if sg.identity is None:
        raise NotAMonoid("point-mass form needs an identity element")
    if z0 not in center(sg):
        raise NotCentral(f"base point {z0} is not central")
    return solve_vanvleck(sg, sigma, DiracMeasure.point_mass(z0), tol)


def solve_dalembert(sg: FiniteSemigroup, sigma: InvolutiveMorphism,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """All nonzero solutions of the measure-free cosine variant:
    (chi + chi o sigma)/2 over all characters, deduplicated."""
    out: list[Solution] = []
    for chi in characters_cached(sg):
        cvec = character_to_scalar(chi)
        svec = character_to_scalar(compose_sigma(chi, sigma))
        g = (cvec + svec) / 2.0
        _dedup_add(out, g, Provenance(chi, "(chi + chi o sigma)/2"), tol)
    for sol in out:
        _verify(residual_dalembert(sg, sol.values, sigma), tol, "dalembert_variant")
    return SolutionSet("dalembert_variant", tuple(out))


def solve_spherical(sg: FiniteSemigroup, upsilon: DiracMeasure,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """Nonzero solutions of the middle-integral multiplicativity law:
    chi * mean(chi) for characters with mean(chi) != 0."""
    out: list[Solution] = []
    if _warn_degenerate(upsilon):
        return SolutionSet("spherical", tuple(out))
    for chi in characters_cached(sg):
        cvec = character_to_scalar(chi)
        mean = integrate(cvec, upsilon)
        if abs(mean) <= tol.eq_tol:
            continue
        _dedup_add(out, cvec * mean, Provenance(chi, "chi * mean(chi)"), tol)
    for sol in out:
        _verify(residual_spherical(sg, sol.values, upsilon), tol, "spherical")
        _verify(residual_spherical_right(sg, sol.values, upsilon), tol, "spherical (trailing)")
    return SolutionSet("spherical", tuple(out))


def solve_central_dalembert(sg: FiniteSemigroup, sigma: InvolutiveMorphism,
                            upsilon: DiracMeasure,
                            tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """Nonzero solutions of the integral cosine variant with central
    sigma-invariant measure: (chi + chi o sigma)/2 * mean(chi)."""
    require_hypotheses(("automorphism", "invariant", "central"), sg, sigma, upsilon, tol)
    out: list[Solution] = []
    if _warn_degenerate(upsilon):
        return SolutionSet("corollary33", tuple(out))
    for chi in characters_cached(sg):
        cvec = character_to_scalar(chi)
        mean = integrate(cvec, upsilon)
        if abs(mean) <= tol.eq_tol:
            continue
        svec = character_to_scalar(compose_sigma(chi, sigma))
        f = (cvec + svec) / 2.0 * mean
        _dedup_add(out, f, Provenance(chi, "(chi + chi o sigma)/2 * mean(chi)"), tol)
    for sol in out:
        _verify(residual_central_dalembert(sg, sol.values, sigma, upsilon, tol),
                tol, "corollary33")
        _verify(residual_integral_dalembert(sg, sol.values, sigma, upsilon, tol),
                tol, "integral_dalembert")
    return SolutionSet("corollary33", tuple(out))


def symmetrize_spherical(sg: FiniteSemigroup, psi: Sequence[complex],
                         sigma: InvolutiveMorphism, upsilon: DiracMeasure,
                         tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Build f = (psi + psi o sigma)/2 from a spherical psi and verify it
    solves the middle-integral cosine variant."""
    require_hypotheses(("automorphism", "invariant"), sg, sigma, upsilon, tol)
    arr = check_function(sg, psi)
    rep = residual_spherical(sg, arr, upsilon)
    if rep.max_abs > tol.eq_tol:
        raise NotSpherical(f"psi is not spherical (residual {rep.max_abs:.3e})")
    f = (arr + arr[np.array(sigma.map)]) / 2.0
    _verify(residual_integral_dalembert(sg, f, sigma, upsilon, tol),
            tol, "symmetrized spherical")
    return f


def _require_inputs(equation: str, sigma: InvolutiveMorphism | None,
                    mu: DiracMeasure | None):
    """The registry entry of an equation with a closed form, once the
    inputs it needs are present."""
    eq = EQUATIONS.get(equation)
    if eq is None or eq.closed_form is None:
        raise UsageError(f"no closed form for equation '{equation}'")
    for name, value in (("sigma", sigma), ("mu", mu)):
        if name in eq.needs and value is None:
            raise UsageError(f"equation '{equation}' needs {name}")
    return eq


def closed_form(equation: str, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                mu: DiracMeasure | None, tol: ToleranceConfig = DEFAULT_TOL) -> SolutionSet:
    """Solution set of a registered equation from its closed-form solver,
    which takes the inputs the equation needs."""
    eq = _require_inputs(equation, sigma, mu)
    inputs = {"sigma": sigma, "mu": mu}
    return globals()[eq.closed_form](sg, *(inputs[name] for name in eq.needs), tol)


# ---------------------------------------------------------------------------
# Numeric oracle


def newton_oracle(sg: FiniteSemigroup, equation: str,
                  sigma: InvolutiveMorphism | None = None,
                  mu: DiracMeasure | None = None,
                  starts: int = 200, seed: int = 0,
                  tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Multistart Levenberg-damped Gauss-Newton roots of the defect system.

    Independent of the character machinery. Starts are uniform in a
    complex polydisk; all starts iterate in one batched loop. Converged
    roots (defect <= oracle_tol) are clustered at dedup_tol, each
    cluster is represented by its best member, near-zero roots are
    dropped (ZERO_ROOT_CUTOFF), and the result is sorted canonically.
    The system is holomorphic in f, so complex Gauss-Newton steps equal
    the real-parameterized ones.
    """
    if starts < 1:
        raise UsageError("starts must be >= 1")
    eq = _require_inputs(equation, sigma, mu)
    n = sg.n
    rows = np.arange(n * n)
    # linear part L (n^2 x n) over row index x*n + y; equations with a
    # closed form are quadratic in f alone: r(f) = L f - c f(x) f(y)
    L = np.zeros((n * n, n), dtype=complex)
    for w, terms in term_groups(eq, sg, sigma, mu):
        weight = 1.0 if w is None else w
        for sign, idx in terms:
            L[rows, idx.ravel()] += weight if sign > 0 else -weight
    c = eq.products[0].coef
    xs = rows // n
    ys = rows % n

    def residuals(F: np.ndarray) -> np.ndarray:
        return F @ L.T - c * F[:, xs] * F[:, ys]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    radius = (measure_norm(mu) if mu is not None else 1.0) + 1.0
    u = rng.random((starts, n))
    theta = rng.random((starts, n))
    F = radius * np.sqrt(u) * np.exp(2j * np.pi * theta)

    lam = np.full(starts, 1e-3)
    cost = np.sum(np.abs(residuals(F)) ** 2, axis=1)
    eye = np.eye(n)
    for _ in range(80):
        r = residuals(F)
        J = np.broadcast_to(L, (starts, n * n, n)).copy()
        J[:, rows, xs] -= c * F[:, ys]
        J[:, rows, ys] -= c * F[:, xs]
        JH = np.conj(np.transpose(J, (0, 2, 1)))
        A = JH @ J + lam[:, None, None] * eye
        g = JH @ r[:, :, None]
        step = np.linalg.solve(A, -g)[:, :, 0]
        F_try = F + step
        cost_try = np.sum(np.abs(residuals(F_try)) ** 2, axis=1)
        better = cost_try < cost
        F = np.where(better[:, None], F_try, F)
        cost = np.where(better, cost_try, cost)
        lam = np.where(better, np.maximum(lam * 0.4, 1e-12), np.minimum(lam * 10.0, 1e14))
        if np.all((cost <= 1e-26) | (lam >= 1e13)):
            break

    res_inf = np.max(np.abs(residuals(F)), axis=1)
    order = sorted((i for i in range(starts) if res_inf[i] <= tol.oracle_tol),
                   key=lambda i: (float(res_inf[i]), i))
    clusters: list[np.ndarray] = []
    members: list[list[np.ndarray]] = []
    for vec in (F[i] for i in order):
        placed = False
        for idx, group in enumerate(members):
            if any(float(np.max(np.abs(vec - m))) <= tol.dedup_tol for m in group):
                group.append(vec)
                placed = True
                break
        if not placed:
            clusters.append(vec)  # best residual in its cluster (sorted order)
            members.append([vec])
    roots = [vec for vec in clusters if float(np.max(np.abs(vec))) > ZERO_ROOT_CUTOFF]
    roots.sort(key=lambda v: tuple((round(z.real, 8), round(z.imag, 8)) for z in v))
    return roots


def match_solution_sets(oracle_roots: Sequence[np.ndarray], closed: Sequence[np.ndarray],
                        tol: ToleranceConfig = DEFAULT_TOL) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy sup-norm matching at oracle_tol. Returns (pairs, unmatched
    oracle indices, unmatched closed-form indices)."""
    used: set[int] = set()
    pairs: list[tuple[int, int]] = []
    unmatched_a: list[int] = []
    for i, root in enumerate(oracle_roots):
        best, best_dist = -1, np.inf
        for j, ref in enumerate(closed):
            if j in used or len(ref) != len(root):
                continue
            d = float(np.max(np.abs(root - ref)))
            if d < best_dist:
                best, best_dist = j, d
        if best >= 0 and best_dist <= tol.oracle_tol:
            used.add(best)
            pairs.append((i, best))
        else:
            unmatched_a.append(i)
    unmatched_b = [j for j in range(len(closed)) if j not in used]
    return pairs, unmatched_a, unmatched_b
