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
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .equations import EQUATIONS, _row_sups, compile_terms, finite_top
from .errors import BadParams
from .measures import (
    _EPS,
    _TINY,
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    _numbers,
    measure_norm,
)
from .semigroups import FiniteSemigroup, InvolutiveMorphism, _is_integer, _is_real
from .solvers import _disk, _polydisk, solve_vanvleck

# The grid cells one chunk of a campaign gathers at once: 256 trials at
# n = 4, 16 at n = 16, one from n = 64. Larger chunks are no faster and
# hold more memory.
_CHUNK_CELLS = 4096


class Verdict(str, Enum):
    EXACT_SOLUTION = "ExactSolution"
    WITHIN_BOUND = "WithinBound"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class StabilityTrial:
    """One campaign trial: base perturbed within radius, drawn from the
    campaign's substreams (seed, trial) and (seed, trial, 1); the sups
    of its defect (measured_delta) and of its values (sup_f), the
    superstability bound at that defect, and the verdict."""

    base: np.ndarray
    radius: float
    trial: int
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
        if not _is_integer(self.trials):
            raise BadParams("campaign trials must be an integer")
        if not _is_integer(self.seed):
            raise BadParams("campaign seed must be an integer")
        if not _is_real(self.radius_max):
            raise BadParams("radius_max must be a real number")
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
    if not (delta >= 0 and mu_norm >= 0):
        raise BadParams("delta and mu_norm must be nonnegative")
    if delta == 0:
        return mu_norm
    return (mu_norm + math.sqrt(mu_norm * mu_norm + 2.0 * delta)) / 2.0


def perturb(f: Sequence[complex], radius: float, seed) -> np.ndarray:
    """f plus an independent uniform-in-disk complex offset per value.

    seed may be an int or a tuple of ints (the entropy of the PCG64
    stream, the one np.random.default_rng draws from), so campaigns can
    split substreams per trial. The values of f must be numbers, as for
    measures.check_function. A sum that overflows where f is finite is
    refused (BadParams), without a warning.
    """
    if not radius >= 0:
        raise BadParams("radius must be nonnegative")
    arr = _numbers(f)
    with np.errstate(over="ignore", invalid="ignore"):
        out = arr + _polydisk(seed, radius, arr.shape)
    if not np.isfinite(out[np.isfinite(arr)]).all():
        raise BadParams("perturbed values are not finite (overflow)")
    return out


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
    The moduli of sup_f and delta are np.abs of complex arrays, which is
    not a correctly rounded hypot: with numpy 2.4.6 on an x86-64 CPU with
    AVX-512 it was measured within 1.87 ulp of the exact modulus, a
    relative error of at most 1.19 eps (160000 values at scales 1e-300 to
    1e307), and within half the spacing 2^-1074 where that is subnormal.
    So it is taken within 2 eps relative.
      sup: sup_f <= (1 + 2 eps) M.
      norm: k hypots (Python's abs) and k - 1 sums, so
        m <= (1 + 2k eps) mu_norm.
      defect: a cell is rt(sigma(y) x) - rt(x y) - 2 f(x) f(y). Per
        component, a value rt(a) of the right transform sums k products
        w f(a t), each within 2u of |w| |f(a t)|, in k - 1 roundings, so
        it is within (k + 1) u m M; the difference adds 2u m M,
        2 f(x) f(y) is within 4u M^2 and the last difference adds
        u (2 m M + 2 M^2): (2k + 6) u m M + 6u M^2 in all, so the cell is
        off by at most E = sqrt(2) (k + 3) eps M (M + m).
        With the modulus, d <= (1 + 2 eps) delta + E.
      bound: a product, a sum, a sqrt and a sum, so B(delta, mu_norm)
        <= (1 + 2 eps) bound.
    With l = 1 + (2k + 1) eps, so that l^2 >= 1 + 2 eps and l >= 1 + 2k eps,
        M <= B(d, m) <= l B(delta, mu_norm) + E / max(M, m)
          <= (1 + (2k + 3) eps) bound + sqrt(2) (k + 3) eps (M + m).
    So where sup_f > bound, sup_f - bound <= (2k + 5 + sqrt(2) (k + 3))
    eps (sup_f + mu_norm) <= (4k + 10) eps (sup_f + mu_norm), and the
    caller's sum bound + slack rounds by one eps more.
    Underflow adds at most 2^-1075 per product, modulus and halving; through
    the same steps that is under (4k + 8) 2^-1074 / max(sup_f, mu_norm),
    negligible unless both are below about 2^-500. A trial reaches this
    test only with delta > eq_tol >= 0, so f, and with it sup_f, is nonzero.
    """
    return ((4 * atoms + 11) * _EPS * (sup_f + mu_norm)
            + (4 * atoms + 8) * _TINY / max(sup_f, mu_norm))


def _verdict(sup_f: float, delta: float, mu_norm: float, atoms: int,
             tol: ToleranceConfig) -> tuple[float, Verdict]:
    """The superstability bound and the verdict of a function with sup
    sup_f whose sine-variant defect has sup delta (the smallest delta it
    meets), for a measure of norm mu_norm with `atoms` atoms."""
    bound = superstability_bound(delta, mu_norm)
    if delta <= tol.eq_tol:
        return bound, Verdict.EXACT_SOLUTION
    if sup_f <= bound + _rounding_slack(sup_f, mu_norm, atoms):
        return bound, Verdict.WITHIN_BOUND
    return bound, Verdict.VIOLATION


def fuzz_campaign(sg: FiniteSemigroup, sigma: InvolutiveMorphism, mu: DiracMeasure,
                  config: CampaignConfig,
                  tol: ToleranceConfig = DEFAULT_TOL) -> tuple[CampaignSummary, list[StabilityTrial]]:
    """Seeded perturbation campaign over the fixture's exact solutions.

    Per trial: substream (seed, trial index) picks a base (an exact
    solution or zero) and a radius in the schedule, and substream (seed,
    trial index, 1) draws the perturbation's disk offsets, as perturb
    does. The trials are then evaluated in chunks of about _CHUNK_CELLS
    grid cells: every perturbed function of a chunk is formed at once,
    and its defect sups come from one (trials, n, n) gather, each equal
    to residual_vanvleck's max_abs bit for bit. The trials are
    classified in order, so the first non-finite defect raises
    NonFiniteResidual. Bit-reproducible for a fixed seed, whatever the
    chunk size. Returns the summary plus every trial record.
    """
    # solve_vanvleck checks the inputs against the sine variant's hypotheses;
    # the compiled terms and the norm are then fixed for the whole campaign
    bases = solve_vanvleck(sg, sigma, mu).vectors() + [np.zeros(sg.n, dtype=complex)]
    vanvleck = EQUATIONS["vanvleck"]
    terms = compile_terms(vanvleck, sg, sigma, mu)
    mu_norm, atoms = measure_norm(mu), len(mu.atoms)
    stack, n = np.array(bases), sg.n
    chunk = max(1, _CHUNK_CELLS // (n * n))

    records: list[StabilityTrial] = []
    for first in range(0, config.trials, chunk):
        trials = range(first, min(first + chunk, config.trials))
        picks = np.empty(len(trials), dtype=np.intp)
        radii = np.empty((len(trials), 1))
        draws = np.empty((len(trials), 2, n))  # per trial, u then theta, as _polydisk draws them
        for i, trial in enumerate(trials):
            rng = np.random.Generator(np.random.PCG64((config.seed, trial)))
            picks[i] = rng.integers(len(bases))
            radii[i] = rng.uniform(0.0, config.radius_max)
            np.random.Generator(np.random.PCG64((config.seed, trial, 1))).random(out=draws[i])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the defect non-finite
            F = stack[picks] + _disk(radii, draws[:, 0], draws[:, 1])
            sups = np.max(np.abs(F), axis=1)
        deltas = _row_sups(vanvleck, terms, F)
        for i, trial in enumerate(trials):
            delta = finite_top("vanvleck", float(deltas[i]))  # as residual_vanvleck
            sup_f = float(sups[i])
            bound, verdict = _verdict(sup_f, delta, mu_norm, atoms, tol)
            records.append(StabilityTrial(bases[picks[i]], float(radii[i, 0]), trial, delta, sup_f, bound, verdict))
    counts = Counter(t.verdict for t in records)
    summary = CampaignSummary(
        trials=config.trials,
        violations=counts[Verdict.VIOLATION],
        exact=counts[Verdict.EXACT_SOLUTION],
        within_bound=counts[Verdict.WITHIN_BOUND],
        max_ratio=max(t.ratio for t in records),
        seed=config.seed,
    )
    return summary, records
