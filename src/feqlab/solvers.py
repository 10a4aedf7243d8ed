"""Closed-form solvers and the independent spectral root-finding oracle.

The closed forms come from character theory: every solution is built
from a multiplicative function chi meeting side conditions on its mean
under the measure. The oracle knows nothing about characters; it reads
every nonzero root of the defect system from the joint eigenvalues of
the blocks of its linear part, and is used to cross-check completeness
of the closed forms.
"""

from __future__ import annotations

import math
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
    _TINY,
    DiracMeasure,
    _ldexp_measure,
    character_mean_slack,
    integrate,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism


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
    """The solutions chi * mean(chi) of the middle-integral
    multiplicativity law, for characters with mean(chi) != 0.

    Every one solves. The set is complete for a measure with central
    support, where the law reads int psi(x y t) dmu, and the spectral
    oracle found no other root for any unit point mass on the labeled
    order-4 census. It is not complete in general: on S3 with
    mu = delta_e + delta_tau (tau the transposition at index 1),
    (2, 2, -1, -1, -1, -1) solves exactly and is not in the set.
    """
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
    refused). Every solution is verified.

    Every closed-form equation is homogeneous: f solves at mu exactly
    when f / s solves at mu / s. So the weights are divided by the power
    of two s = 2^e with ||mu / s|| in [1, 2) (math.frexp; s = 1 without
    a measure), and the mean tests, the solutions and their verification
    are all taken at mu / s, where no mean or sum of means nears
    overflow. Each solution is then multiplied by s once, with ldexp.
    Scaling by a power of two is exact unless a value is subnormal, so
    where none is, every decision and every value is the one taken at mu
    itself. A solution that overflows when scaled back is refused, as an
    overflowing norm is, and so is one that rounds to 0 (BadParams). A
    solution near the float limit is verified at the unit scale only:
    its residual at mu itself may overflow, so `verify` there exits 2."""
    eq = closed_form_equation(equation)
    form = eq.closed_form
    mu, _ = bind_inputs(eq, sg, sigma, mu, hypotheses=form.hypotheses)
    norm = 1.0 if mu is None else measure_norm(mu)
    if not np.isfinite(norm):
        raise BadParams("measure norm is not finite (overflow)")
    if norm == 0.0:
        # stacklevel 3 points past the solve_* wrapper at its caller
        warnings.warn("zero-norm measure: equation degenerates, returning empty set",
                      DegenerateMeasureWarning, stacklevel=3)
        return SolutionSet(form.label, ())
    e = math.frexp(norm)[1] - 1
    if e:  # by ldexp: 2^-e overflows for e <= -1024
        mu = _ldexp_measure(mu, e)
    rounding = 0.0 if mu is None else character_mean_slack(mu)  # of one float mean
    kept: set[tuple[int, tuple[int, ...]]] = set()  # (period, turns) of the kept characters
    values, chis = [], []
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
        values.append(f if mu is None else f * mean)
        chis.append(chi)
    if not values:
        return SolutionSet(form.label, ())
    # Verified against each equation sharing the form, then form.checks,
    # whose hypotheses are among the form's, checked above. Every law's
    # terms are compiled first, then its defect is gathered for all the
    # solutions at once, one law's (k, n, n) grid at a time. The sups are
    # walked solution by solution, law by law, so the first pair that is
    # not finite or above the gate raises, as one report per pair would.
    laws = [eq for eq in EQUATIONS.values() if eq.closed_form is form] + list(form.checks)
    compiled = [compile_terms(law, sg, sigma, mu) for law in laws]
    F = np.array(values)
    sups = [_row_sups(law, terms, F).tolist() for law, terms in zip(laws, compiled)]
    gate = closed_form_slack(mu)
    for row in zip(*sups):
        for law, top in zip(laws, row):
            if finite_top(law.tag, top) > gate:
                raise FeqlabError(f"internal: closed form failed verification for "
                                  f"{law.tag} (residual {top:.3e})")
    # only a scale-up can overflow, and only a scale-down can round a row to 0
    if e > 0:
        with np.errstate(over="ignore"):
            F = np.ldexp(F.view(float), e).view(complex)
        if not np.isfinite(F).all():
            raise BadParams("a solution is not finite at the measure's scale (overflow)")
    elif e < 0:
        F = np.ldexp(F.view(float), e).view(complex)
        if not F.any(axis=1).all():
            raise BadParams("a solution rounds to 0 at the measure's scale (underflow)")
    return SolutionSet(form.label, tuple(Solution(f, Provenance(chi, form.formula)) for f, chi in zip(F, chis)))


# ---------------------------------------------------------------------------
# Spectral oracle

# The oracle's gates act at unit norm: each is absolute at mu / _unit_scale(mu),
# so relative to ||mu||. Eigenvalues of one combination B within CLUSTER_TOL
# of each other (single linkage) are one cluster, and a subspace on which
# every compressed block lies within CLUSTER_TOL of a scalar, entry by entry,
# is one joint eigenspace. A singular value at most KERNEL_TOL spans a
# kernel: of B less a cluster's mean, or of the part of the blocks' images
# outside a subspace. A joint eigenvalue tuple lambda = c f with
# max |lambda| <= CLUSTER_TOL is the zero function's, so the smallest root
# the oracle tells apart from 0 has sup |f| > CLUSTER_TOL / |c| times ||mu||
# (5e-6 ||mu|| for c = 2, 1e-5 ||mu|| for spherical's c = 1). The oracle
# keeps a root whose defect is within ORACLE_TOL and matches it to a
# closed-form solution within ORACLE_TOL.
CLUSTER_TOL = 1e-5
KERNEL_TOL = 1e-6
ORACLE_TOL = 1e-6
# Combinations drawn for one subspace before its cluster counts as open.
_TRIES = 4


def _defect_operator(eq: Equation, sg: FiniteSemigroup, sigma: InvolutiveMorphism | None,
                     mu: DiracMeasure | None) -> np.ndarray:
    """The linear part L (n^2 x n) of the defect r(f) = L f - c f(x) f(y)
    of an equation with a closed form, on inputs bind_inputs has checked.
    L is the residual grids' own, read at the unit vectors: row (x, y) of
    L holds the linear part at (x, y) of each e_k, where an averaged word
    reads the weights of the atoms t at which it evaluates to k, summed in
    atom order (R_mu e_k or H of e_k). It is added into zeros, which
    keeps L C-ordered and clears the sign of every zero. Row block y,
    A_y = L.reshape(n, n, n)[:, y, :], maps f to the column y of the
    linear part, so r(f) = 0 reads A_y f = c f(y) f for every y."""
    n = sg.n
    L = np.zeros((n * n, n), dtype=complex)
    L += _linear(compile_terms(eq, sg, sigma, mu), np.eye(n, dtype=complex)).reshape(n, n * n).T
    return L


def _unit_scale(mu: DiracMeasure | None) -> float:
    """||mu|| when it is positive and finite, else 1 (also without mu)."""
    norm = 1.0 if mu is None else measure_norm(mu)
    return norm if 0.0 < norm < np.inf else 1.0


def _clusters(values: np.ndarray) -> list[np.ndarray]:
    """The single-linkage clusters of values at CLUSTER_TOL, as index
    arrays, each opened by its lowest index."""
    near = np.abs(values[:, None] - values) <= CLUSTER_TOL
    free = np.ones(len(values), dtype=bool)
    out = []
    for i in range(len(values)):
        if free[i]:
            member = near[i]
            while (grown := near[member].any(axis=0)).sum() > member.sum():
                member = grown
            free &= ~member
            out.append(np.flatnonzero(member))
    return out


def _invariant(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest subspace of span Q (orthonormal columns) that every
    block A[y] maps into itself, as (Q', C) with Q' orthonormal and
    C[y] = Q'^H A[y] Q'. Each pass keeps the vectors whose images leave
    the span by at most KERNEL_TOL, read from one thin SVD of the
    stacked n^2 x m parts outside it, until a pass drops none."""
    while True:
        AQ = A @ Q
        C = Q.conj().T @ AQ
        m = Q.shape[1]
        if m == 0:
            return Q, C
        _, s, Vh = np.linalg.svd((AQ - Q @ C).reshape(-1, m), full_matrices=False)
        keep = s <= KERNEL_TOL
        if keep.all():
            return Q, C
        Q = Q @ Vh[keep].conj().T


def _joint_eigenvalues(A: np.ndarray, seed: int | np.random.Generator) -> list[np.ndarray]:
    """One tuple lambda (lambda_y per block) for each joint eigenspace of
    the square blocks A[y]: the vectors v != 0 with A[y] v = lambda_y v
    for every y. A subspace W, invariant under every block (at first
    the whole space), with orthonormal basis Q is compressed to
    C[y] = Q^H A[y] Q. Where each C[y] is a scalar lambda_y (within
    CLUSTER_TOL), W is one joint eigenspace. Else a random combination
    B = sum alpha_y C[y] (alpha a unit complex normal vector drawn from
    np.random.default_rng(seed), built at the first draw, as most inputs
    draw none; a Generator is drawn from as it is) has its eigenvalues
    clustered, and each cluster's true kernel
    ker(B - mean I) is taken by an SVD (eig's own vectors are near
    parallel at a defective eigenvalue, and the mean of a cluster is
    accurate where its members are not), refined to its largest
    invariant subspace (_invariant) and taken in turn. Every joint
    eigenvector of W lies in the kernel of its cluster, to rounding, so
    none is lost on the way. A combination whose clusters are not all
    resolved (a cluster without a kernel vector, or W back whole) is
    drawn again, _TRIES times at most; then the cluster is open, an
    internal error, never dropped."""
    found, rng = [], None
    todo = [(np.eye(A.shape[-1], dtype=complex), A)]
    while todo:
        Q, C = todo.pop()
        m = Q.shape[1]
        lam = np.trace(C, axis1=1, axis2=2) / m
        if np.abs(C - lam[:, None, None] * np.eye(m)).max() <= CLUSTER_TOL:
            found.append(lam)
            continue
        for _ in range(_TRIES):
            if rng is None:
                rng = np.random.default_rng(seed)
            alpha = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
            B = np.tensordot(alpha / np.linalg.norm(alpha), C, 1)
            values = np.linalg.eigvals(B)
            kernels = []
            for idx in _clusters(values):
                _, s, Vh = np.linalg.svd(B - values[idx].mean() * np.eye(m))
                kernels.append(Vh[s <= KERNEL_TOL].conj().T)
            if all(K.shape[1] for K in kernels) and kernels[0].shape[1] < m:
                break
        else:
            raise FeqlabError(f"internal: spectral oracle left a cluster of dimension {m} open")
        for K in kernels:
            sub = _invariant(A, Q @ K)
            if sub[0].shape[1]:
                todo.append(sub)
    return found


def spectral_oracle(sg: FiniteSemigroup, equation: str,
                    sigma: InvolutiveMorphism | None = None,
                    mu: DiracMeasure | None = None, seed: int = 0) -> list[np.ndarray]:
    """Every nonzero root of the defect system of an equation with a
    closed form, read from the joint eigenvalues of the blocks of L.

    Independent of the character machinery and of any start: the defect
    is r(f) = L f - c f(x) f(y) (_defect_operator), so a nonzero root is
    a joint eigenvector of the blocks A_y with eigenvalues lambda_y = c
    f(y), and each joint eigenspace (_joint_eigenvalues, seeded by seed)
    gives the one candidate f = lambda / c. It is kept when it is not the
    zero function (max |lambda| > CLUSTER_TOL) and its defect is within
    ORACLE_TOL. Where lambda / c does not lie in its eigenspace, the
    eigenspace is a branch of wilson_variant, not a root, and its defect
    fails. This is the eigenvalue method for polynomial systems (Auzinger
    and Stetter, 1988; Corless, Gianni and Trager, ISSAC 1997). Every
    closed-form equation is homogeneous (f/s with mu/s scales the defect
    by 1/s^2), so it solves at mu / _unit_scale(mu), sorts the roots
    canonically there and scales them back: the gates and the order act
    at unit norm, whatever the size of mu. A norm that overflows cannot
    be brought to unit norm and raises NonFiniteResidual, so L is finite
    and no eigenvalue routine meets an inf.
    """
    if seed < 0:
        raise UsageError("seed must be >= 0")
    eq = closed_form_equation(equation)
    mu, _ = bind_inputs(eq, sg, sigma, mu, hypotheses=())  # the oracle assumes no hypothesis
    if mu is not None and not math.isfinite(measure_norm(mu)):
        raise NonFiniteResidual(f"{equation} oracle operator is not finite (overflow)")
    scale = _unit_scale(mu)
    if scale != 1.0:
        mu = DiracMeasure(tuple((p, w / scale) for p, w in mu.atoms))
    L = _defect_operator(eq, sg, sigma, mu)
    c, n = eq.products[0].coef, sg.n
    A = np.ascontiguousarray(L.reshape(n, n, n).transpose(1, 0, 2))
    roots = []
    for lam in _joint_eigenvalues(A, seed):
        f = lam / c
        if np.abs(lam).max() > CLUSTER_TOL and np.abs(L @ f - c * np.outer(f, f).ravel()).max() <= ORACLE_TOL:
            roots.append(f)
    roots.sort(key=lambda v: tuple((round(z.real, 8), round(z.imag, 8)) for z in v))
    with np.errstate(over="ignore"):  # a root near the float limit may scale back to inf, and match nothing
        return [f * scale for f in roots]


def newton_oracle(sg: FiniteSemigroup, equation: str,
                  sigma: InvolutiveMorphism | None = None,
                  mu: DiracMeasure | None = None,
                  starts: int = 200, seed: int = 0) -> list[np.ndarray]:
    """spectral_oracle under the name and signature of the multistart
    oracle it replaced: starts must be >= 1 and changes nothing."""
    if starts < 1:
        raise UsageError("starts must be >= 1")
    return spectral_oracle(sg, equation, sigma, mu, seed)


# A distance that overflows is inf, or NaN from an inf root: no match.
@np.errstate(over="ignore", invalid="ignore")
def match_solution_sets(oracle_roots: Sequence[np.ndarray], closed: Sequence[np.ndarray],
                        mu: DiracMeasure | None = None) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy sup-norm matching at ORACLE_TOL times _unit_scale(mu), the
    oracle's gate at the unit norm spectral_oracle solves at, plus
    3 * 2^-1074 for rounding in the subnormal range. The vectors are not
    divided by the scale, which overflows them when it is subnormal.
    Returns (pairs, unmatched oracle indices, unmatched closed-form
    indices).

    Both sets are solved at unit norm and scaled back, the roots by
    the norm and the closed form by ldexp. Where a scaled value is
    subnormal, each of its parts rounds to the nearest multiple of
    2^-1074, off by up to 2^-1075 in absolute terms, not relative ones.
    So two vectors within ORACLE_TOL at unit norm can differ at scale
    by up to 2^-1074 more in each part, sqrt(2) 2^-1074 in modulus.
    np.abs of the difference adds at most half the spacing, 2^-1075, in
    the subnormal range (see stability._rounding_slack), and the
    product ORACLE_TOL * scale may round down by 2^-1075, or underflow
    to 0. So (sqrt(2) + 1) 2^-1074 < 3 * 2^-1074 covers the rounding;
    for normal values ORACLE_TOL absorbs it, and the extra term is
    below every normal float."""
    gate = ORACLE_TOL * _unit_scale(mu) + 3 * _TINY
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
