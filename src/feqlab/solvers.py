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

from .characters import Character, character_to_scalar, characters_cached
from .equations import (
    EQUATIONS,
    Equation,
    _gather_terms,
    _row_sups,
    check_sigma,
    closed_form_slack,
    compile_terms,
    finite_top,
    require_hypotheses,
)
from .errors import (
    BadParams,
    DegenerateMeasureWarning,
    FeqlabError,
    NonFiniteResidual,
    UsageError,
)
from .jsonio import function_to_json
from .measures import (
    DiracMeasure,
    _check_points,
    character_mean_slack,
    integrate,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism

# Gauss-Newton converges happily to points in the flat valley around the
# zero function (residual is quadratic there), so the oracle drops roots
# this small; genuine nonzero solutions on the supported fixtures have
# sup|f| >= 1/2.
ZERO_ROOT_CUTOFF = 1e-3
# The oracle's roots within DEDUP_TOL in sup norm are one root (the closed
# forms tell their solutions apart by character, at no tolerance); the
# oracle accepts a root whose defect is within ORACLE_TOL and matches it
# to a closed-form solution within ORACLE_TOL.
DEDUP_TOL = 1e-7
ORACLE_TOL = 1e-6


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
        return {**function_to_json(self.values), "provenance": self.provenance.to_json()}


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


def solve_vanvleck(sg: FiniteSemigroup, sigma: InvolutiveMorphism, mu: DiracMeasure) -> SolutionSet:
    """All nonzero solutions of the sine variant: (chi o sigma - chi)/2 *
    mean(chi) for every character chi with mean(chi) != 0 and
    mean(chi o sigma) = -mean(chi); chi and chi o sigma produce the same
    function, reported once, from the first in canonical order."""
    return closed_form("vanvleck", sg, sigma, mu)


def solve_dalembert(sg: FiniteSemigroup, sigma: InvolutiveMorphism) -> SolutionSet:
    """All nonzero solutions of the measure-free cosine variant:
    (chi + chi o sigma)/2, once for each pair {chi, chi o sigma}."""
    return closed_form("dalembert_variant", sg, sigma, None)


def solve_spherical(sg: FiniteSemigroup, upsilon: DiracMeasure) -> SolutionSet:
    """Nonzero solutions of the middle-integral multiplicativity law:
    chi * mean(chi) for characters with mean(chi) != 0."""
    return closed_form("spherical", sg, None, upsilon)


def solve_central_dalembert(sg: FiniteSemigroup, sigma: InvolutiveMorphism,
                            upsilon: DiracMeasure) -> SolutionSet:
    """Nonzero solutions of the integral cosine variant with central
    sigma-invariant measure: (chi + chi o sigma)/2 * mean(chi)."""
    return closed_form("corollary33", sg, sigma, upsilon)


def closed_form_equation(equation: str) -> Equation:
    """The registry entry of an equation with a closed form; a usage
    error for any other tag."""
    eq = EQUATIONS.get(equation)
    if eq is None or eq.closed_form is None:
        raise UsageError(f"no closed form for equation '{equation}'")
    return eq


def _require_inputs(equation: str, sigma: InvolutiveMorphism | None,
                    mu: DiracMeasure | None):
    """The registry entry of an equation with a closed form, once the
    inputs it needs are present."""
    eq = closed_form_equation(equation)
    for name, value in (("sigma", sigma), ("mu", mu)):
        if name in eq.needs and value is None:
            raise UsageError(f"equation '{equation}' needs {name}")
    return eq


def closed_form(equation: str, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                mu: DiracMeasure | None) -> SolutionSet:
    """Solution set of a registered equation, built from the characters of
    sg as its ClosedForm describes, given the inputs the equation needs (a
    measure whose norm overflows is refused). Every solution is verified."""
    eq = _require_inputs(equation, sigma, mu)
    form = eq.closed_form
    if "mu" not in eq.needs:
        mu = None  # an unneeded measure must not scale the solutions
    require_hypotheses(form.hypotheses, sg, sigma, mu)
    if mu is not None:
        _check_points(mu, sg.n)  # before the zero-norm return, as every other path does
    out: list[Solution] = []
    norm = 1.0 if mu is None else measure_norm(mu)
    if not np.isfinite(norm):
        raise BadParams("measure norm is not finite (overflow)")
    if norm == 0.0:
        # stacklevel 3 points past the solve_* wrapper at its caller
        warnings.warn("zero-norm measure: equation degenerates, returning empty set",
                      DegenerateMeasureWarning, stacklevel=3)
        return SolutionSet(form.label, ())
    rounding = 0.0 if mu is None else character_mean_slack(mu)  # of one float mean
    kept: set[tuple[int, tuple[int, ...]]] = set()  # (period, turns) of the kept characters
    for chi in characters_cached(sg):
        if form.sigma_sign and (chi.period, tuple([chi.turns[y] for y in sigma.map])) in kept:
            continue  # chi o sigma gives the same function
        c = character_to_scalar(chi)
        if mu is not None:
            mean = integrate(c, mu)
            if abs(mean) <= rounding:
                continue
        if form.sigma_sign:
            s = c[list(sigma.map)]
        if form.sigma_sign < 0:
            if abs(integrate(s, mu) + mean) > 2 * rounding:
                continue
            f = (s - c) / 2.0
        elif form.sigma_sign > 0:
            f = (c + s) / 2.0
        else:
            f = c
        kept.add((chi.period, chi.turns))
        out.append(Solution(f if mu is None else f * mean, Provenance(chi, form.formula)))
    if out:
        # Verified against each equation sharing the form, then form.checks,
        # whose hypotheses are among the form's, checked above. Every law's
        # terms are compiled first, then its defect is gathered for all
        # the solutions at once, one law's (k, n, n) grid at a time. The
        # sups are walked solution by solution, law by law, so the first
        # pair that is not finite or above the gate raises, as one report
        # per pair would.
        laws = [eq for eq in EQUATIONS.values() if eq.closed_form is form] + list(form.checks)
        compiled = [compile_terms(law, sg, sigma, mu) for law in laws]
        F = np.array([sol.values for sol in out])
        sups = [_row_sups(law, terms, F).tolist() for law, terms in zip(laws, compiled)]
        gate = closed_form_slack(mu)
        for row in zip(*sups):
            for law, top in zip(laws, row):
                if finite_top(law.tag, top) > gate:
                    raise FeqlabError(f"internal: closed form failed verification for "
                                      f"{law.tag} (residual {top:.3e})")
    return SolutionSet(form.label, tuple(out))


# ---------------------------------------------------------------------------
# Numeric oracle


def _cluster_heads(V: np.ndarray, dedup_tol: float) -> list[np.ndarray]:
    """Heads of the greedy single-linkage clustering of the rows of V.

    Taken in order, a row joins the lowest-indexed cluster holding any
    earlier row within dedup_tol in sup norm, or opens a new cluster
    headed by itself (its best residual when V is sorted by residual).
    So a row is a head exactly when no earlier row is that close, and
    which cluster a row joins never changes the heads. Each head marks
    the later rows within dedup_tol of it, which are then skipped; only
    an unmarked row is compared with all earlier rows, so the cost is
    about one distance row per head, not per row. Subtract and abs act
    elementwise and max is exact, so each distance equals the scalar
    np.max(np.abs(a - b)) in either order.
    """
    marked = np.zeros(len(V), dtype=bool)
    heads = []
    for k in range(len(V)):
        if marked[k] or np.any(np.max(np.abs(V[:k] - V[k]), axis=1) <= dedup_tol):
            continue
        heads.append(V[k])
        marked[k + 1:] |= np.max(np.abs(V[k + 1:] - V[k]), axis=1) <= dedup_tol
    return heads


class _QuadraticDefect:
    """The defect r(f) = L f - c f(x) f(y) over the rows x*n + y, the form
    of every equation with a closed form, and its Gauss-Newton normal
    equations in closed form, for a batch of points f held as the columns
    of an n x starts array F (starts on the last axis, so every step is
    one array operation over all starts).

    The Jacobian is J = L - c M(f) with M[(x, y), k] = [x = k] f(y) +
    [y = k] f(x), so with c real
        J^H J = L^H L - c (L^H M + (L^H M)^H) + 2 c^2 (f f^H + |f|^2 I),
        J^H r = L^H r - c (R + R^T) conj(f),   R = r as an n x n grid,
    and (L^H M)[i, k] = (P^T f)[(i, k)] for an n x n^2 array P fixed by L.
    Nothing of size n^2 x n is formed per start. J^H J + lam I is
    Hermitian positive definite, which is why _gauss_jordan can solve
    the augmented systems without pivoting.
    """

    def __init__(self, L: np.ndarray, c: float):
        nn, n = L.shape
        rows = np.arange(nn)
        self.L, self.c = L, c
        L_bar = np.conj(L)
        self.L_H = np.ascontiguousarray(L_bar.T)
        self.xs, self.ys = rows // n, rows % n
        self.LhL = (self.L_H @ L)[:, :, None]
        # S[k, m, i] = conj L[(k, m), i] + conj L[(m, k), i], so
        # (L^H M)[i, k] = sum_m S[k, m, i] f(m) is (P^T f)[(i, k)] with
        # P[m, (i, k)] = S[k, m, i]; (c P)^T is kept
        S = L_bar.reshape(n, n, n)
        S = S + S.transpose(1, 0, 2)
        self.cPT = np.ascontiguousarray(c * S.transpose(2, 0, 1).reshape(nn, n))

    def residuals(self, F: np.ndarray) -> np.ndarray:
        return self.L @ F - self.c * F[self.xs] * F[self.ys]

    def augmented(self, F: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """[J^H J + lam I | -J^H r] as one n x (n+1) x starts array, at
        each column of F, whose defect is r."""
        n, starts = F.shape
        cF = self.c * F
        cF_bar = np.conj(cF)
        M = np.empty((n, n + 1, starts), dtype=complex)
        # H + H^H = 2 c^2 f f^H - c (L^H M + (L^H M)^H)
        H = cF[:, None] * cF_bar - (self.cPT @ F).reshape(n, n, starts)
        A = M[:, :n]
        np.add(H, np.conj(H.transpose(1, 0, 2)), out=A)
        A += self.LhL
        # M is a fresh array, so this strided reshape is a view of the diagonal of A
        M.reshape(n * (n + 1), starts)[::n + 2] += 2.0 * np.sum(np.abs(cF) ** 2, axis=0) + lam
        R = r.reshape(n, n, starts)
        M[:, n] = np.sum((R + R.transpose(1, 0, 2)) * cF_bar, axis=1) - self.L_H @ r
        return M


def _gauss_jordan(M: np.ndarray) -> np.ndarray:
    """The solutions x of A x = b for every augmented system [A | b] along
    the last axis of the n x (n+1) x starts array M, which is overwritten.

    Gauss-Jordan elimination without pivoting: n steps of a few array
    operations over all starts. Every A here is J^H J + lam I, Hermitian
    positive definite with lam >= 1e-12, so each pivot (a Schur complement
    diagonal) is at least lam in exact arithmetic and no row exchange is
    needed. Each start is computed elementwise on its own, so a zero or
    non-finite pivot gives that start a non-finite solution and leaves
    the others untouched; under np.errstate(divide, invalid and over
    ignored) nothing warns.
    """
    n = M.shape[0]
    for k in range(n):
        # column k is never read again, so only the columns right of it are updated
        row = M[k, k + 1:] / M[k, k]
        M[:, k + 1:] -= M[:, k, None] * row
        M[k, k + 1:] = row
    return M[:, n]


def _defect_operator(eq: Equation, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                     mu: DiracMeasure | None) -> _QuadraticDefect:
    """The defect of an equation with a closed form, once sigma's shape is
    checked. Its linear part L (n^2 x n) reads the description the
    residual grids gather f through: gathered at f = np.arange(n), each
    term gives its index array, and each atom's weights are added into
    L cell by cell, term by term, in atom order."""
    check_sigma(sg, sigma)
    n = sg.n
    rows = np.arange(n * n)
    L = np.zeros((n * n, n), dtype=complex)
    for w, terms in _gather_terms(compile_terms(eq, sg, sigma, mu), np.arange(n)):
        weight = 1.0 if w is None else w
        for sign, idx in terms:
            L[rows, idx.ravel()] += weight if sign > 0 else -weight
    return _QuadraticDefect(L, eq.products[0].coef)


def _unit_scale(mu: DiracMeasure | None) -> float:
    """||mu|| when it is positive and finite, else 1 (also without mu)."""
    norm = 1.0 if mu is None else measure_norm(mu)
    return norm if 0.0 < norm < np.inf else 1.0


# Overflow at the starts raises NonFiniteResidual; an overflowing or
# singular step is non-finite and rejected.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def newton_oracle(sg: FiniteSemigroup, equation: str,
                  sigma: InvolutiveMorphism | None = None,
                  mu: DiracMeasure | None = None,
                  starts: int = 200, seed: int = 0) -> list[np.ndarray]:
    """Multistart Levenberg-damped Gauss-Newton roots of the defect system.

    Independent of the character machinery. Starts are uniform in a
    complex polydisk; all starts iterate in one batched loop, as the
    columns of an n x starts array, and each step solves every start's
    damped normal equations at once by Gauss-Jordan elimination without
    pivoting (they are Hermitian positive definite, see _gauss_jordan).
    Converged roots (defect <= ORACLE_TOL) are clustered at DEDUP_TOL,
    each cluster is represented by its best member, near-zero roots are
    dropped (ZERO_ROOT_CUTOFF), and the result is sorted canonically.
    The system is holomorphic in f, so complex Gauss-Newton steps equal
    the real-parameterized ones. Every closed-form equation is homogeneous
    (f/s with mu/s scales the defect by 1/s^2), so it solves at
    mu / _unit_scale(mu) and scales the roots back before sorting: the
    oracle's constants act at unit norm, whatever the size of mu.
    """
    if starts < 1:
        raise UsageError("starts must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    eq = _require_inputs(equation, sigma, mu)
    mu = mu if "mu" in eq.needs else None  # an unneeded mu scales nothing
    norm = 1.0 if mu is None else measure_norm(mu)
    scale = _unit_scale(mu)
    mu = None if mu is None else DiracMeasure(tuple((p, w / scale) for p, w in mu.atoms))
    defect = _defect_operator(eq, sg, sigma, mu)

    F = _polydisk(seed, norm / scale + 1.0, (starts, sg.n)).T  # radius 1 + ||mu / scale||

    lam = np.full(starts, 1e-3)
    r = defect.residuals(F)
    cost = np.sum(np.abs(r) ** 2, axis=0)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteResidual(f"{equation} oracle defect is not finite at the starts (overflow)")
    for _ in range(80):
        F_try = F + _gauss_jordan(defect.augmented(F, r, lam))
        r_try = defect.residuals(F_try)
        cost_try = np.sum(np.abs(r_try) ** 2, axis=0)
        better = cost_try < cost
        F = np.where(better, F_try, F)
        r = np.where(better, r_try, r)
        cost = np.where(better, cost_try, cost)
        lam = np.where(better, np.maximum(lam * 0.4, 1e-12), np.minimum(lam * 10.0, 1e14))
        if np.all((cost <= 1e-26) | (lam >= 1e13)):
            break

    return _reported_roots(F.T, np.max(np.abs(r), axis=0), scale)


def _polydisk(seed, radius: float, shape: tuple[int, ...]) -> np.ndarray:
    """Points of the complex polydisk of the given radius, each coordinate
    uniform in its disk, from np.random.default_rng(seed): an int or a
    tuple of ints."""
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    theta = rng.random(shape)
    return radius * np.sqrt(u) * np.exp(2j * np.pi * theta)


def _reported_roots(F: np.ndarray, res_inf: np.ndarray, scale: float = 1.0) -> list[np.ndarray]:
    """The heads of the converged rows of F (res_inf <= ORACLE_TOL), taken
    in order of residual, that lie above ZERO_ROOT_CUTOFF, times scale,
    sorted canonically.

    A row within DEDUP_TOL of a row above ZERO_ROOT_CUTOFF has sup >
    ZERO_ROOT_CUTOFF - DEDUP_TOL. So the rows below that, with a margin
    for rounding, can neither be reported nor decide whether a row above
    the cutoff is a head, and are dropped before clustering.
    """
    sup = np.max(np.abs(F), axis=1)
    kept = np.flatnonzero((res_inf <= ORACLE_TOL) & (sup > ZERO_ROOT_CUTOFF - 2 * DEDUP_TOL))
    order = sorted(kept, key=lambda i: (float(res_inf[i]), i))
    clusters = _cluster_heads(F[order], DEDUP_TOL)
    roots = [vec * scale for vec in clusters if float(np.max(np.abs(vec))) > ZERO_ROOT_CUTOFF]
    roots.sort(key=lambda v: tuple((round(z.real, 8), round(z.imag, 8)) for z in v))
    return roots


def match_solution_sets(oracle_roots: Sequence[np.ndarray], closed: Sequence[np.ndarray],
                        mu: DiracMeasure | None = None) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy sup-norm matching at ORACLE_TOL, both sides divided by
    _unit_scale(mu) as newton_oracle solves. Returns (pairs, unmatched
    oracle indices, unmatched closed-form indices)."""
    scale = _unit_scale(mu)
    oracle_roots, closed = ([v / scale for v in vs] for vs in (oracle_roots, closed))
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
        if best >= 0 and best_dist <= ORACLE_TOL:
            used.add(best)
            pairs.append((i, best))
        else:
            unmatched_a.append(i)
    unmatched_b = [j for j in range(len(closed)) if j not in used]
    return pairs, unmatched_a, unmatched_b
