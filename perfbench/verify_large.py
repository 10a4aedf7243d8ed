"""verify_large: residual reports on large tables.

One operation is one report on C64, C128 or C4xC16: the residual grid of
one of the seven equations, the identity battery or the approximate
battery. Inputs are exact solutions built here from closed formulas
(characters of a finite abelian group are products of roots of unity)
and seeded perturbed copies of them. No character is ever enumerated,
so the equations' grid loops do the work.

sigma is negation. The sine variant, the batteries and the companion
laws use mu: seeded atoms whose last coordinate is odd, which gives the
sine variant a nonzero solution. The integral cosine variants use a
seeded sigma-invariant measure upsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from feqlab import (
    DiracMeasure,
    FiniteSemigroup,
    InvolutiveMorphism,
    approximate_battery,
    companion_cosine,
    identity_battery,
    residual_central_dalembert,
    residual_dalembert,
    residual_integral_dalembert,
    residual_sine_addition,
    residual_spherical,
    residual_vanvleck,
    residual_wilson,
)

import reference
from common import Op, abelian_group, measure, odd_last_points, rng, sign_morphism, symmetrize
from spans import Tracer, median_ms

NAME = "verify_large"
CASES = (("C64", (64,)), ("C128", (128,)), ("C4xC16", (4, 16)))
EQUATIONS = ("vanvleck", "dalembert_variant", "integral_dalembert", "corollary33",
             "spherical", "sine_addition", "wilson_variant")
PERTURB_RADIUS = 1e-3


@dataclass(frozen=True)
class Case:
    name: str
    sg: FiniteSemigroup
    sigma: InvolutiveMorphism
    mu: DiracMeasure
    upsilon: DiracMeasure
    # variant ("exact" / "perturbed") -> equation or battery -> input function
    inputs: dict
    deltas: dict   # variant -> sup of the sine-variant defect of that variant's sine input


def _perturbed(f: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    r = PERTURB_RADIUS * np.sqrt(gen.random(len(f)))
    return f + r * np.exp(2j * np.pi * gen.random(len(f)))


def _mean(chi: np.ndarray, mu: DiracMeasure) -> complex:
    return sum(w * chi[p] for p, w in mu.atoms)


def _case(name: str, factors: tuple[int, ...], gen: np.random.Generator, tracer: Tracer) -> Case:
    sg = abelian_group(factors, tracer)
    sigma = sign_morphism(sg, factors, (-1,) * len(factors))
    s = np.array(sigma.map)
    # Sine family: chi = i^(last coordinate), weights redrawn until its
    # mean is clear of zero so the perturbed companion stays defined.
    chi_s = reference.abelian_character(factors, (0,) * (len(factors) - 1) + (factors[-1] // 4,))
    while True:
        mu = measure(odd_last_points(factors, gen, 3), gen.uniform(0.25, 1.0, 3))
        if abs(_mean(chi_s, mu)) > 0.3:
            break
    f_sine = (chi_s[s] - chi_s) / 2.0 * _mean(chi_s, mu)
    # Cosine family: a seeded character with its upsilon-mean clear of zero.
    # Two points and their negatives, all distinct: four atoms for every seed.
    while True:
        points = gen.choice(sg.n, 2, replace=False)
        if len({*points, *s[points]}) == 4:
            break
    upsilon = symmetrize(measure(points, gen.uniform(0.25, 1.0, 2)), sigma)
    while True:
        chi_c = reference.abelian_character(factors, [gen.integers(m) for m in factors])
        if abs(_mean(chi_c, upsilon)) > 0.1:
            break
    m_c = _mean(chi_c, upsilon)
    exact = {
        "vanvleck": f_sine,
        "dalembert_variant": (chi_c + chi_c[s]) / 2.0,
        "integral_dalembert": (chi_c + chi_c[s]) / 2.0 * m_c,
        "corollary33": (chi_c + chi_c[s]) / 2.0 * m_c,
        "spherical": chi_c * m_c,
        "sine_addition": f_sine,
        "wilson_variant": f_sine,
        "identity_battery": f_sine,
        "approximate_battery": f_sine,
    }
    perturbed = {key: _perturbed(f, gen) for key, f in exact.items()}
    inputs = {"exact": exact, "perturbed": perturbed}
    deltas = {v: reference.sup_residual("vanvleck", sg.table, inputs[v]["approximate_battery"],
                                        sigma.map, mu.atoms) for v in inputs}
    return Case(name, sg, sigma, mu, upsilon, inputs, deltas)


def setup(seed: int, tracer: Tracer, workdir) -> tuple[Case, ...]:
    gen = rng(seed, NAME)
    return tuple(_case(name, factors, gen, tracer) for name, factors in CASES)


def _residual(case: Case, eq: str, f: np.ndarray, tracer: Tracer):
    sg, sigma, mu, ups = case.sg, case.sigma, case.mu, case.upsilon
    g = None
    if eq in ("sine_addition", "wilson_variant"):
        with tracer.span("equations.companion_cosine", case=case.name):
            g = companion_cosine(sg, f, mu)
    atoms = len(mu.atoms) if eq == "vanvleck" else len(ups.atoms)
    if eq in ("dalembert_variant", "sine_addition", "wilson_variant"):
        atoms = 1  # measure-free grids count one term per cell
    with tracer.span("equations.grid", case=case.name, equation=eq, cells=sg.n * sg.n * atoms):
        if eq == "vanvleck":
            report = residual_vanvleck(sg, f, sigma, mu)
        elif eq == "dalembert_variant":
            report = residual_dalembert(sg, f, sigma)
        elif eq == "integral_dalembert":
            report = residual_integral_dalembert(sg, f, sigma, ups)
        elif eq == "corollary33":
            report = residual_central_dalembert(sg, f, sigma, ups)
        elif eq == "spherical":
            report = residual_spherical(sg, f, ups)
        elif eq == "sine_addition":
            report = residual_sine_addition(sg, f, g)
        else:
            report = residual_wilson(sg, f, g, sigma)
    return report.max_abs, report.argmax


def _check_residual(case: Case, eq: str, variant: str, result) -> None:
    max_abs, argmax = result
    f = case.inputs[variant][eq]
    atoms = case.mu.atoms if eq in ("vanvleck", "sine_addition", "wilson_variant") else case.upsilon.atoms
    g = reference.companion(case.sg.table, f, atoms) if eq in ("sine_addition", "wilson_variant") else None
    what = f"{case.name} {eq} {variant}"
    reference.check_report(max_abs, argmax,
                           reference.residual_grid(eq, case.sg.table, f, case.sigma.map, atoms, g), what)
    if variant == "exact":
        reference.require(max_abs <= reference.TOL, f"{what}: exact solution has residual {max_abs:.3e}")


def _check_battery(case: Case, variant: str, items) -> None:
    f = case.inputs[variant]["identity_battery"]
    terms = reference.battery_terms(case.sg.table, f, case.sigma.map, case.mu.atoms)
    what = f"{case.name} identity_battery {variant}"
    by_name = {item.name: item for item in items}
    reference.check_close(by_name["1_sigma_odd"].value, terms["odd"], what + " 1_sigma_odd")
    reference.check_close(by_name["2_nonzero_mean"].value, terms["mean"], what + " 2_nonzero_mean")
    reference.check_close(by_name["3_cross_antisym"].value, terms["cross"], what + " 3_cross_antisym")
    if variant == "exact":
        reference.require(all(item.ok for item in items), f"{what}: an item fails on an exact solution")


def _check_approx(case: Case, variant: str, items) -> None:
    f = case.inputs[variant]["approximate_battery"]
    terms = reference.battery_terms(case.sg.table, f, case.sigma.map, case.mu.atoms)
    delta = case.deltas[variant]
    what = f"{case.name} approximate_battery {variant}"
    by_name = {item.name: item for item in items}
    reference.check_close(by_name["1_sigma_odd"].lhs, terms["odd"], what + " 1_sigma_odd")
    reference.check_close(by_name["2_cross_sum"].lhs, terms["cross"], what + " 2_cross_sum")
    reference.check_close(by_name["2_cross_sum"].rhs,
                          3.0 * delta * sum(abs(w) for _, w in case.mu.atoms) / terms["mean"],
                          what + " 2_cross_sum bound")
    reference.check_close(by_name["5_nonzero_mean"].lhs, terms["mean"], what + " 5_nonzero_mean")
    if variant == "exact":
        reference.require(all(item.holds for item in items), f"{what}: an inequality fails at delta = 0")


def operations(cases: tuple[Case, ...]) -> list[Op]:
    ops = []
    for case in cases:
        for variant in ("exact", "perturbed"):
            fs = case.inputs[variant]
            for eq in EQUATIONS:
                ops.append(Op(
                    f"{case.name} {eq} {variant}",
                    lambda tr, c=case, e=eq, f=fs[eq]: _residual(c, e, f, tr),
                    lambda res, c=case, e=eq, v=variant: _check_residual(c, e, v, res)))
            ops.append(Op(
                f"{case.name} identity_battery {variant}",
                lambda tr, c=case, f=fs["identity_battery"]: _battery(c, f, tr),
                lambda res, c=case, v=variant: _check_battery(c, v, res)))
            ops.append(Op(
                f"{case.name} approximate_battery {variant}",
                lambda tr, c=case, v=variant: _approx(c, v, tr),
                lambda res, c=case, v=variant: _check_approx(c, v, res)))
    return ops


def _battery(case: Case, f: np.ndarray, tracer: Tracer):
    with tracer.span("equations.identity_battery", case=case.name):
        return identity_battery(case.sg, f, case.sigma, case.mu)


def _approx(case: Case, variant: str, tracer: Tracer):
    f = case.inputs[variant]["approximate_battery"]
    with tracer.span("stability.approximate_battery", case=case.name):
        return approximate_battery(case.sg, f, case.sigma, case.mu, case.deltas[variant])


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name, _ in CASES:
        out[f"semigroups.validate_ms.{name}"] = (median_ms(spans, "semigroups.validate_semigroup", case=name), "ms")
        for eq in EQUATIONS:
            out[f"equations.grid_ms.{eq}.{name}"] = (median_ms(spans, "equations.grid", case=name, equation=eq), "ms")
        out[f"equations.battery_ms.{name}"] = (median_ms(spans, "equations.identity_battery", case=name), "ms")
        out[f"stability.approx_battery_ms.{name}"] = (median_ms(spans, "stability.approximate_battery", case=name), "ms")
    for eq in EQUATIONS:
        grids = [s for s in spans if s["name"] == "equations.grid" and s["attrs"]["equation"] == eq]
        cells = sum(s["attrs"]["cells"] for s in grids)
        out[f"equations.ns_per_cell.{eq}"] = (1e9 * sum(s["end"] - s["start"] for s in grids) / cells, "ns")
    return out
