"""Superstability harness for the sine variant.

The dichotomy: a function whose defect is everywhere at most delta is
either bounded by (||mu|| + sqrt(||mu||^2 + 2 delta))/2 or an exact
solution. Campaigns perturb exact solutions (or zero), measure the
actual defect, and check the verdict. On a finite semigroup the bound
holds for every f (the defect at (x0, x0), where |f(x0)| = sup|f|,
gives 2 sup|f|^2 - 2 ||mu|| sup|f| <= delta), so a VIOLATION verdict
means a fault of the harness: a wrong defect, norm or bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .equations import EQUATIONS, residual_evaluator, residual_vanvleck
from .errors import BadParams
from .measures import (
    _EPS,
    _TINY,
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    check_function,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism
from .solvers import _polydisk, solve_vanvleck


class Verdict(str, Enum):
    EXACT_SOLUTION = "ExactSolution"
    WITHIN_BOUND = "WithinBound"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class StabilityTrial:
    base: np.ndarray
    radius: float
    seed: int
    measured_delta: float
    sup_f: float
    bound: float
    verdict: Verdict

    @property
    def ratio(self) -> float:
        return self.sup_f / self.bound if self.bound > 0 else 0.0


@dataclass(frozen=True)
class CampaignConfig:
    """trials perturbations with radii uniform in [0, radius_max)."""

    trials: int
    radius_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise BadParams("campaign needs at least one trial")
        if self.seed < 0:
            raise BadParams("campaign seed must be >= 0")
        if not 0 <= self.radius_max < math.inf:
            raise BadParams("need 0 <= radius_max < inf")


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    violations: int
    exact: int
    within_bound: int
    max_ratio: float
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def superstability_bound(delta: float, mu_norm: float) -> float:
    """(||mu|| + sqrt(||mu||^2 + 2 delta))/2, the cap on bounded
    approximate solutions; exact (no sqrt rounding) when delta == 0."""
    if delta < 0 or mu_norm < 0:
        raise BadParams("delta and mu_norm must be nonnegative")
    if delta == 0:
        return mu_norm
    return (mu_norm + math.sqrt(mu_norm * mu_norm + 2.0 * delta)) / 2.0


def perturb(f: Sequence[complex], radius: float, seed) -> np.ndarray:
    """f plus an independent uniform-in-disk complex offset per value.

    seed may be an int or a tuple of ints (the entropy of the PCG64
    stream np.random.default_rng draws from), so campaigns can split
    substreams per trial.
    """
    if radius < 0:
        raise BadParams("radius must be nonnegative")
    arr = np.asarray(f, dtype=complex)
    return arr + _polydisk(seed, radius, arr.shape)


def check_dichotomy(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                    mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                    radius: float = 0.0, seed: int = 0,
                    base: np.ndarray | None = None) -> StabilityTrial:
    """Classify f: exact solution, within the superstability bound, or
    VIOLATION (a fault of the harness, since the bound always holds)."""
    arr = check_function(sg, f)
    delta = residual_vanvleck(sg, arr, sigma, mu).max_abs
    return _classify(arr, delta, mu, tol, radius, seed, base)


def _rounding_slack(sup_f: float, mu_norm: float, atoms: int) -> float:
    """A bound on sup_f - bound that rounding alone can produce, where
    sup_f = max|f|, mu_norm = ||mu|| (a measure with `atoms` atoms) and
    bound = superstability_bound(delta, mu_norm) are the floats a trial
    computes and delta is the sup of the float defect grid.

    Let M, m and d be the exact sup, norm and defect sup of the same
    float data, B(d, m) = (m + sqrt(m^2 + 2d))/2, k = atoms, u = 2^-53,
    eps = 2u, and round constants up to absorb terms of order eps^2.
    Exactly, M <= B(d, m). B rises in d and m, dB/dm <= 1, and
    B(l^2 d, l m) = l B(d, m). As 2B - m >= max(B, m),
    B(d + E, m) - B(d, m) <= E / (2 B(d + E, m) - m) <= E / max(M, m).
      sup: hypot is within one ulp, so sup_f <= (1 + eps) M.
      norm: k hypots and k - 1 sums, so m <= (1 + 2k eps) mu_norm.
      defect: a cell sums k terms w (f(a) - f(b)), each within 3u of
        |w| (|f(a)| + |f(b)|) per component, less 2 f(x) f(y), within 2u
        of 2|f(x)||f(y)|, with k more roundings: it is off by at most
        sqrt(2) (k + 3) u (2 m M + 2 M^2) <= E = 2 (k + 3) eps M (M + m).
        With the hypot, d <= (1 + 2 eps) delta + E.
      bound: a product, a sum, a sqrt and a sum, so B(delta, mu_norm)
        <= (1 + 2 eps) bound.
    With l = 1 + (2k + 1) eps, so that l^2 >= 1 + 2 eps and l >= 1 + 2k eps,
        M <= B(d, m) <= l B(delta, mu_norm) + E / max(M, m)
          <= (1 + (2k + 3) eps) bound + 2 (k + 3) eps (M + m).
    So where sup_f > bound, sup_f - bound <= (4k + 10) eps (sup_f +
    mu_norm), and the caller's sum bound + slack rounds by one eps more.
    Underflow adds at most 2^-1075 per product, hypot and halving; through
    the same steps that is under (4k + 8) 2^-1074 / max(sup_f, mu_norm),
    negligible unless both are below about 2^-500. A trial reaches this
    test only with delta > eq_tol >= 0, so f, and with it sup_f, is nonzero.
    """
    return ((4 * atoms + 11) * _EPS * (sup_f + mu_norm)
            + (4 * atoms + 8) * _TINY / max(sup_f, mu_norm))


def _classify(arr: np.ndarray, delta: float, mu: DiracMeasure, tol: ToleranceConfig,
              radius: float, seed: int, base: np.ndarray | None) -> StabilityTrial:
    """The trial record of f = arr, whose sine-variant defect has sup delta
    (the smallest delta f meets)."""
    sup_f = float(np.max(np.abs(arr)))
    mu_norm = measure_norm(mu)
    bound = superstability_bound(delta, mu_norm)
    if delta <= tol.eq_tol:
        verdict = Verdict.EXACT_SOLUTION
    elif sup_f <= bound + _rounding_slack(sup_f, mu_norm, len(mu.atoms)):
        verdict = Verdict.WITHIN_BOUND
    else:
        verdict = Verdict.VIOLATION
    return StabilityTrial(
        base=arr if base is None else np.asarray(base, dtype=complex),
        radius=radius,
        seed=seed,
        measured_delta=delta,
        sup_f=sup_f,
        bound=bound,
        verdict=verdict,
    )


def fuzz_campaign(sg: FiniteSemigroup, sigma: InvolutiveMorphism, mu: DiracMeasure,
                  config: CampaignConfig,
                  tol: ToleranceConfig = DEFAULT_TOL) -> tuple[CampaignSummary, list[StabilityTrial]]:
    """Seeded perturbation campaign over the fixture's exact solutions.

    Per trial: derive a substream from (seed, trial index), pick a base
    (an exact solution or zero), a radius in the schedule, perturb with
    substream (seed, trial index, 1), and classify. Bit-reproducible
    for a fixed seed. Returns the summary plus every trial record.
    """
    bases = solve_vanvleck(sg, sigma, mu).vectors() + [np.zeros(sg.n, dtype=complex)]
    # fixed for the whole campaign: the hypotheses and the compiled terms
    vanvleck = residual_evaluator(EQUATIONS["vanvleck"], sg, sigma, mu)

    exact = within = violations = 0
    max_ratio = 0.0
    records: list[StabilityTrial] = []
    for trial in range(config.trials):
        rng = np.random.default_rng((config.seed, trial))
        base = bases[int(rng.integers(len(bases)))]
        radius = float(rng.uniform(0.0, config.radius_max))
        f = perturb(base, radius, (config.seed, trial, 1))
        result = _classify(f, vanvleck(f).max_abs, mu, tol, radius, trial, base)
        records.append(result)
        if result.verdict is Verdict.EXACT_SOLUTION:
            exact += 1
        elif result.verdict is Verdict.WITHIN_BOUND:
            within += 1
        else:
            violations += 1
        max_ratio = max(max_ratio, result.ratio)
    summary = CampaignSummary(
        trials=config.trials,
        violations=violations,
        exact=exact,
        within_bound=within,
        max_ratio=max_ratio,
        seed=config.seed,
    )
    return summary, records
