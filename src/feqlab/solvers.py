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
    _linear,
    _row_sups,
    bind_inputs,
    closed_form_slack,
    compile_terms,
    finite_top,
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
    _modulus,
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
# A point with sup|f| at or below ZERO_VALLEY can neither be reported nor
# lie within DEDUP_TOL of a reported root, with a margin for rounding
# (see _reported_roots), so a start there cannot change the oracle's
# report and counts as settled.
ZERO_VALLEY = ZERO_ROOT_CUTOFF - 2 * DEDUP_TOL


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


def closed_form(equation: str, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                mu: DiracMeasure | None) -> SolutionSet:
    """Solution set of a registered equation, built from the characters of
    sg as its ClosedForm describes, once bind_inputs has checked the inputs
    against the form's hypotheses (a measure whose norm overflows is then
    refused). Every solution is verified."""
    eq = closed_form_equation(equation)
    form = eq.closed_form
    mu, _ = bind_inputs(eq, sg, sigma, mu, hypotheses=form.hypotheses)
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
            if _modulus(integrate(s, mu) + mean) > 2 * rounding:
                continue
            f = (s - c) / 2.0
        elif form.sigma_sign > 0:
            f = (c + s) / 2.0
        else:
            f = c
        kept.add((chi.period, chi.turns))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails verification below
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

    One oracle call's workspace is allocated here, once, for its starts:
    the system M (n x (n+1) x starts), a 2 x n^2 x starts complex scratch
    and an n^2 x starts real one, which every method writes to; with
    newton_oracle's two (n + n^2) x starts states they are all a call
    holds. Every cell is rounded as in a fresh array: each elementwise
    operation runs along the contiguous starts axis, each product of
    matrices is the same BLAS call, and no complex product is written
    over one of its factors (numpy rounds a one-element product written
    in place apart from a fresh one).
    """

    def __init__(self, L: np.ndarray, c: float, starts: int):
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
        self.M = np.empty((n, n + 1, starts), dtype=complex)
        self.scratch = np.empty((2, nn, starts), dtype=complex)
        self.sq = np.empty((nn, starts))

    def residuals(self, F: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L f - c f(x) f(y), multiplied left to right, at each column of
        F; written to out, an n^2 x starts array."""
        cfx, fy = self.scratch
        # F[xs] and F[ys]: every index is in range, and mode "clip" writes
        # straight to out, which mode "raise" would buffer
        out = F.take(self.xs, 0, out, "clip")
        np.multiply(self.c, out, out=cfx)
        np.multiply(cfx, F.take(self.ys, 0, fy, "clip"), out=out)
        return np.subtract(np.matmul(self.L, F, out=cfx), out, out=out)

    def augmented(self, F: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """[J^H J + lam I | -J^H r] at each column of F, whose defect is r,
        written to M."""
        n, starts = F.shape
        M = self.M
        H, P = self.scratch.reshape(2, n, n, starts)
        cF = self.c * F
        cF_bar = np.conj(cF)
        # A = L^H L + (H + H^H) with H + H^H = 2 c^2 f f^H - c (L^H M +
        # (L^H M)^H), formed in the contiguous scratch and copied once
        np.matmul(self.cPT, F, out=H.reshape(n * n, starts))
        np.multiply(cF[:, None], cF_bar, out=P)
        np.subtract(P, H, out=H)
        np.conjugate(H.transpose(1, 0, 2), out=P)
        np.add(H, P, out=P)
        P += self.LhL
        M[:, :n] = P
        sq = np.abs(cF)
        np.square(sq, out=sq)
        diag = np.add.reduce(sq, axis=0)
        diag *= 2.0
        diag += lam
        # M is C-contiguous, so this strided reshape is a view of the diagonal of A
        M.reshape(n * (n + 1), starts)[::n + 2] += diag
        R = r.reshape(n, n, starts)
        np.add(R, R.transpose(1, 0, 2), out=H)
        b = np.add.reduce(np.multiply(H, cF_bar, out=P), axis=1, out=M[:, n])
        b -= self.L_H @ r
        return M

    def cost(self, r: np.ndarray) -> np.ndarray:
        """The sum of |r|^2 over each column of r, an n^2 x starts array."""
        np.abs(r, out=self.sq)
        np.square(self.sq, out=self.sq)
        return np.add.reduce(self.sq, axis=0)


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
                     mu: DiracMeasure | None, starts: int) -> _QuadraticDefect:
    """The defect of an equation with a closed form, for a call at starts
    starts, on inputs bind_inputs has checked. Its linear part L (n^2 x n)
    is the residual grids' own, read at the unit vectors: row (x, y) of
    L holds the linear part at (x, y) of each e_k. It is added into zeros,
    which keeps L C-ordered and clears the sign of every zero."""
    n = sg.n
    L = np.zeros((n * n, n), dtype=complex)
    L += _linear(compile_terms(eq, sg, sigma, mu), np.eye(n, dtype=complex)).reshape(n, n * n).T
    return _QuadraticDefect(L, eq.products[0].coef, starts)


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
    columns of one (n + n^2) x starts state array holding each start's
    point over its defect, and each step solves every start's damped
    normal equations at once by Gauss-Jordan elimination without
    pivoting (they are Hermitian positive definite, see _gauss_jordan).
    A step writes to the workspace its _QuadraticDefect allocates once
    per call, and an improving trial is copied into the state with one
    masked copy. The state is C-ordered on purpose: numpy's vectorized
    complex multiply rounds strided operands apart from contiguous ones
    (see measures._cmul), so the layout fixes the bits of every root.
    The loop stops after 80 steps, or once every start is settled: its
    cost is at most 1e-26 (converged), its damping has reached 1e13
    (stalled), or its sup |f| is at most ZERO_VALLEY, where
    _reported_roots drops it. No start can then change the report, so
    the starts sinking into the zero valley at Gauss-Newton's linear
    rate at a singular root are not iterated to 1e-26. A settled start
    keeps stepping while any other start runs, so a start that only
    passes near 0 goes on as it did under the first two rules.
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
    eq = closed_form_equation(equation)
    mu, _ = bind_inputs(eq, sg, sigma, mu, hypotheses=())  # the oracle assumes no hypothesis
    norm = 1.0 if mu is None else measure_norm(mu)
    scale = _unit_scale(mu)
    mu = None if mu is None else DiracMeasure(tuple((p, w / scale) for p, w in mu.atoms))
    defect = _defect_operator(eq, sg, sigma, mu, starts)

    n = sg.n
    # the state X and a trial X_try, each the points F over their defects r
    X = np.empty((n + n * n, starts), dtype=complex)
    F, r = X[:n], X[n:]
    F[...] = _polydisk(seed, norm / scale + 1.0, (starts, n)).T  # radius 1 + ||mu / scale||
    X_try = np.empty_like(X)
    F_try, r_try = X_try[:n], X_try[n:]
    lam = np.full(starts, 1e-3)
    defect.residuals(F, r)
    cost = defect.cost(r)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteResidual(f"{equation} oracle defect is not finite at the starts (overflow)")
    for _ in range(80):
        np.add(F, _gauss_jordan(defect.augmented(F, r, lam)), out=F_try)
        defect.residuals(F_try, r_try)
        cost_try = defect.cost(r_try)
        better = cost_try < cost
        np.copyto(X, X_try, where=better)
        np.copyto(cost, cost_try, where=better)
        # lam stays in [1e-12, 1e14], so a shrunk lam meets only the floor
        # and a grown one only the cap
        lam *= np.where(better, 0.4, 10.0)
        np.maximum(lam, 1e-12, out=lam)
        np.minimum(lam, 1e14, out=lam)
        if ((cost <= 1e-26) | (lam >= 1e13) | (np.max(np.abs(F), axis=0) <= ZERO_VALLEY)).all():
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


def _reported_roots(F: np.ndarray, res_inf: np.ndarray, scale: float) -> list[np.ndarray]:
    """The heads of the converged rows of F (res_inf <= ORACLE_TOL), taken
    in order of residual, that lie above ZERO_ROOT_CUTOFF, times scale,
    sorted canonically.

    A row within DEDUP_TOL of a row above ZERO_ROOT_CUTOFF has sup >
    ZERO_ROOT_CUTOFF - DEDUP_TOL. So the rows at or below ZERO_VALLEY,
    that bound less another DEDUP_TOL for rounding, can neither be
    reported nor decide whether a row above the cutoff is a head, and
    are dropped before clustering. newton_oracle's loop reads the same
    bound: a start at or below it is settled.
    """
    sup = np.max(np.abs(F), axis=1)
    kept = np.flatnonzero((res_inf <= ORACLE_TOL) & (sup > ZERO_VALLEY))
    order = sorted(kept, key=lambda i: (float(res_inf[i]), i))
    clusters = _cluster_heads(F[order], DEDUP_TOL)
    roots = [vec * scale for vec in clusters if float(np.max(np.abs(vec))) > ZERO_ROOT_CUTOFF]
    roots.sort(key=lambda v: tuple((round(z.real, 8), round(z.imag, 8)) for z in v))
    return roots


def match_solution_sets(oracle_roots: Sequence[np.ndarray], closed: Sequence[np.ndarray],
                        mu: DiracMeasure | None = None) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy sup-norm matching at ORACLE_TOL times _unit_scale(mu), the
    oracle's gate at the unit norm newton_oracle solves at. The vectors
    are not divided by the scale, which overflows them when it is
    subnormal. Returns (pairs, unmatched oracle indices, unmatched
    closed-form indices)."""
    gate = ORACLE_TOL * _unit_scale(mu)
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
        if best >= 0 and best_dist <= gate:
            used.add(best)
            pairs.append((i, best))
        else:
            unmatched_a.append(i)
    unmatched_b = [j for j in range(len(closed)) if j not in used]
    return pairs, unmatched_a, unmatched_b
