"""Superstability harness for the sine variant.

The dichotomy: a function whose defect is everywhere at most delta is
either bounded by (||mu|| + sqrt(||mu||^2 + 2 delta))/2 or an exact
solution. Campaigns perturb exact solutions (or zero), measure the
actual defect, and check the verdict; a VIOLATION verdict would falsify
the theory and is the harness's failure condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .equations import companion_cosine, residual_dalembert, residual_vanvleck, sup_terms
from .errors import BadParams, DegenerateIntegral, EmptySolutionSet
from .measures import (
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    check_function,
    integrate,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism
from .solvers import solve_vanvleck


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
class InequalityItem:
    """One evaluated inequality: holds when lhs <= rhs (+ eq_tol), or for
    flag items when lhs stays above eq_tol."""

    name: str
    lhs: float
    rhs: float
    flag: bool
    holds: bool

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs}
        if self.flag:
            out["flag"] = True
        out["holds"] = self.holds
        return out


@dataclass(frozen=True)
class CampaignConfig:
    trials: int
    radius_min: float = 0.0
    radius_max: float = 1.0
    seed: int = 0
    require_solutions: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise BadParams("campaign needs at least one trial")
        if not 0 <= self.radius_min <= self.radius_max < math.inf:
            raise BadParams("need 0 <= radius_min <= radius_max < inf")


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    violations: int
    exact: int
    within_bound: int
    max_ratio: float
    seed: int

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "exact": self.exact,
            "within_bound": self.within_bound,
            "max_ratio": self.max_ratio,
            "seed": self.seed,
        }


def superstability_bound(delta: float, mu_norm: float) -> float:
    """(||mu|| + sqrt(||mu||^2 + 2 delta))/2, the cap on bounded
    approximate solutions; exact (no sqrt rounding) when delta == 0."""
    if delta < 0 or mu_norm < 0:
        raise BadParams("delta and mu_norm must be nonnegative")
    if delta == 0:
        return mu_norm
    return (mu_norm + math.sqrt(mu_norm * mu_norm + 2.0 * delta)) / 2.0


def measured_delta(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                   mu: DiracMeasure, force: bool = False) -> float:
    """Smallest delta for which f is a delta-approximate solution: the
    sup of the defect, recomputed from the engine."""
    return residual_vanvleck(sg, f, sigma, mu, force=force).max_abs


def perturb(f: Sequence[complex], radius: float, seed) -> np.ndarray:
    """f plus an independent uniform-in-disk complex offset per value.

    seed may be an int or a tuple of ints (entropy for the named PCG64
    stream), so campaigns can split substreams per trial.
    """
    if radius < 0:
        raise BadParams("radius must be nonnegative")
    arr = np.asarray(f, dtype=complex)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    u = rng.random(arr.shape)
    theta = rng.random(arr.shape)
    eta = radius * np.sqrt(u) * np.exp(2j * np.pi * theta)
    return arr + eta


def check_dichotomy(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                    mu: DiracMeasure, tol: ToleranceConfig = DEFAULT_TOL,
                    radius: float = 0.0, seed: int = 0,
                    base: np.ndarray | None = None) -> StabilityTrial:
    """Classify f: exact solution, within the superstability bound, or
    VIOLATION (which would falsify the dichotomy)."""
    arr = check_function(sg, f)
    delta = measured_delta(sg, arr, sigma, mu)
    sup_f = float(np.max(np.abs(arr)))
    bound = superstability_bound(delta, measure_norm(mu))
    if delta <= tol.eq_tol:
        verdict = Verdict.EXACT_SOLUTION
    elif sup_f <= bound + tol.eq_tol:
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


def approximate_battery(sg: FiniteSemigroup, f: Sequence[complex], sigma: InvolutiveMorphism,
                        mu: DiracMeasure, delta: float,
                        tol: ToleranceConfig = DEFAULT_TOL) -> list[InequalityItem]:
    """Inequalities a delta-approximate solution would satisfy were it
    unbounded; on finite semigroups they are evaluated, not asserted.
    At delta = 0 they collapse to the exact identity battery.

    Bounds divide by |mean of f|, so that mean must be nonzero.
    """
    if delta < 0:
        raise BadParams("delta must be nonnegative")
    arr = check_function(sg, f)
    mean = integrate(arr, mu)
    if abs(mean) <= tol.eq_tol:
        raise DegenerateIntegral("mean of f under mu vanishes; bounds are undefined")
    norm = measure_norm(mu)
    amean = abs(mean)
    eq = tol.eq_tol
    sups = sup_terms(sg, arr, sigma, mu, mean)
    g = companion_cosine(sg, arr, mu, tol)
    g_defect = residual_dalembert(sg, g, sigma).max_abs

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
        bounded("8_companion_cosine_defect", g_defect, 3.0 * delta * norm * norm / (amean * amean)),
    ]


def fuzz_campaign(sg: FiniteSemigroup, sigma: InvolutiveMorphism, mu: DiracMeasure,
                  config: CampaignConfig,
                  tol: ToleranceConfig = DEFAULT_TOL) -> tuple[CampaignSummary, list[StabilityTrial]]:
    """Seeded perturbation campaign over the fixture's exact solutions.

    Per trial: derive a substream from (seed, trial index), pick a base
    (an exact solution or zero), a radius in the schedule, perturb with
    substream (seed, trial index, 1), and classify. Bit-reproducible
    for a fixed seed. Returns the summary plus every trial record.
    """
    base_set = solve_vanvleck(sg, sigma, mu, tol)
    bases = [s.values for s in base_set.solutions]
    if config.require_solutions and not bases:
        raise EmptySolutionSet("fixture has no nonzero base solutions")
    bases.append(np.zeros(sg.n, dtype=complex))

    exact = within = violations = 0
    max_ratio = 0.0
    records: list[StabilityTrial] = []
    for trial in range(config.trials):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((config.seed, trial))))
        base = bases[int(rng.integers(len(bases)))]
        radius = float(rng.uniform(config.radius_min, config.radius_max))
        f = perturb(base, radius, (config.seed, trial, 1))
        result = check_dichotomy(sg, f, sigma, mu, tol, radius=radius, seed=trial, base=base)
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
