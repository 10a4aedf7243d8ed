"""solve_ladder: closed-form solution sets up a ladder of groups.

One operation solves one group from a cold character cache: it clears
characters_cached, enumerates the characters once (so that span covers
the whole search) and then runs every applicable closed-form solver over
the group's (sigma, mu) cases with the cache warm. Character enumeration
is nearly all of the work; the solvers' residual checks are small grids.

C32 is enumerated only in the traced run, as a layer probe: at about 9 s
it would be most of every round and leave one or two repetitions per run
on a machine whose speed drifts over seconds. C64 is left out entirely:
its enumeration alone takes minutes today.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from feqlab import (
    DiracMeasure,
    FiniteSemigroup,
    InvolutiveMorphism,
    MorphismKind,
    s3_inversion,
    solve_central_dalembert,
    solve_dalembert,
    solve_spherical,
    solve_vanvleck,
    symmetric_group_3,
    validate_morphism,
    validate_semigroup,
)
from feqlab.characters import characters_cached

import reference
from common import Op, abelian_group, rng, sign_morphism, symmetrize
from spans import Tracer, durations, median_ms

NAME = "solve_ladder"
# (case name, cyclic factors); None marks S3. C6 has no sine solution at
# delta_1, which keeps the empty branch of the textbook check live.
LADDER = (
    ("C4", (4,)), ("C6", (6,)), ("C8", (8,)), ("C16", (16,)),
    ("S3", None), ("C2xC4", (2, 4)), ("C4xC4", (4, 4)), ("C2xC8", (2, 8)),
)
PROBE_ONLY = (("C32", (32,)),)
EQUATIONS = ("vanvleck", "dalembert_variant", "corollary33", "spherical")


@dataclass(frozen=True)
class Case:
    label: str
    sigma: InvolutiveMorphism
    mu: DiracMeasure        # sine variant
    upsilon: DiracMeasure   # sigma-invariant, for the integral cosine variants


@dataclass(frozen=True)
class Group:
    name: str
    factors: tuple[int, ...] | None
    sg: FiniteSemigroup
    cases: tuple[Case, ...]


def _abelian(name: str, factors: tuple[int, ...], gen: np.random.Generator,
             tracer: Tracer) -> Group:
    # Points and morphisms are fixed so that every seed gives the same
    # work; the seed draws the complex weights. Element 3 has last
    # coordinate 3, so under negation the sine variant has a nonzero
    # solution wherever the last factor's order is divisible by 4. Single
    # atoms keep the closed forms' self-verification grids small.
    sg = abelian_group(factors, tracer)
    neg = sign_morphism(sg, factors, (-1,) * len(factors))
    ident = sign_morphism(sg, factors, (1,) * len(factors))
    w_odd, w_last = gen.uniform(0.25, 1.0, 2) * np.exp(2j * np.pi * gen.random(2))
    mu_odd = DiracMeasure.point_mass(3, w_odd)
    mu_last = DiracMeasure.point_mass(sg.n - 1, w_last)
    cases = [Case("negation,odd", neg, mu_odd, symmetrize(mu_odd, neg)),
             Case("identity", ident, mu_last, mu_last)]
    if len(factors) == 1:
        delta = DiracMeasure.point_mass(1)
        cases.insert(0, Case("negation,delta1", neg, delta, symmetrize(delta, neg)))
    return Group(name, factors, sg, tuple(cases))


def _s3(gen: np.random.Generator, tracer: Tracer) -> Group:
    with tracer.span("semigroups.validate_semigroup", case="S3"):
        sg = validate_semigroup(symmetric_group_3().table, name="S3")
    t = sg.table
    transposition = int(gen.choice([1, 2, 5]))
    conj = validate_morphism(sg, [t[t[transposition][x]][transposition] for x in range(6)],
                             MorphismKind.AUTOMORPHISM)
    inversion = validate_morphism(sg, s3_inversion().map, MorphismKind.ANTI_AUTOMORPHISM)
    # The center of S3 is the identity alone, so central measures sit there.
    mu = DiracMeasure.point_mass(0, float(gen.uniform(0.25, 1.0)))
    return Group("S3", None, sg, (Case("conjugation", conj, mu, mu),
                                  Case("inversion", inversion, mu, mu)))


def setup(seed: int, tracer: Tracer, workdir) -> tuple[Group, ...]:
    gen = rng(seed, NAME)
    return tuple(_s3(gen, tracer) if factors is None else _abelian(name, factors, gen, tracer)
                 for name, factors in LADDER)


def _solve(eq: str, case: Case, sg: FiniteSemigroup):
    if eq == "vanvleck":
        return solve_vanvleck(sg, case.sigma, case.mu)
    if eq == "dalembert_variant":
        return solve_dalembert(sg, case.sigma)
    if eq == "corollary33":
        return solve_central_dalembert(sg, case.sigma, case.upsilon)
    return solve_spherical(sg, case.upsilon)


def _applicable(case: Case) -> tuple[str, ...]:
    if case.sigma.kind is MorphismKind.AUTOMORPHISM:
        return EQUATIONS
    return tuple(eq for eq in EQUATIONS if eq != "corollary33")


def _enumerate(sg: FiniteSemigroup, tracer: Tracer) -> int:
    """Character count of sg, enumerated from a cold cache."""
    characters_cached.cache_clear()
    with tracer.span("characters.characters_cached", case=sg.name) as attrs:
        count = len(characters_cached(sg))
        attrs["count"] = count
    return count


def _run(group: Group, tracer: Tracer):
    count = _enumerate(group.sg, tracer)
    sets = []
    for case in group.cases:
        for eq in _applicable(case):
            with tracer.span("solvers.closed_form", case=group.name, equation=eq) as attrs:
                sols = _solve(eq, case, group.sg)
                attrs["kept"] = len(sols.solutions)
                attrs["tried"] = count
            sets.append((case, eq, sols.vectors()))
    return count, sets


def _check(group: Group, result) -> None:
    count, sets = result
    table = group.sg.table
    reference.check_character_count(count, table, group.name)
    chars = (reference.s3_characters() if group.factors is None
             else reference.abelian_characters(group.factors))
    for case, eq, got in sets:
        what = f"{group.name} {case.label} {eq}"
        atoms = case.mu.atoms if eq == "vanvleck" else case.upsilon.atoms
        reference.check_same_set(got, reference.closed_form_set(eq, chars, case.sigma.map, atoms), what)
        for v in got:
            r = reference.sup_residual(eq, table, v, case.sigma.map, atoms)
            reference.require(r <= reference.TOL, f"{what}: solution residual {r:.3e}")
        if case.label == "negation,delta1" and eq == "vanvleck":
            reference.check_same_set(got, reference.cyclic_sine(group.sg.n), what + " (sin(pi x/2))")


def operations(groups: tuple[Group, ...]) -> list[Op]:
    return [Op(g.name, lambda tracer, g=g: _run(g, tracer), lambda res, g=g: _check(g, res))
            for g in groups]


def probes(groups: tuple[Group, ...], tracer: Tracer) -> list[str]:
    """Enumerate the probe-only groups once, for their layer metrics."""
    errors = []
    for _, factors in PROBE_ONLY:
        sg = abelian_group(factors, tracer)
        try:
            reference.check_character_count(_enumerate(sg, tracer), sg.table, sg.name)
        except reference.CheckError as exc:
            errors.append(f"{NAME}: {exc}")
    return errors


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    rounds = len(durations(spans, "round", workload=NAME))
    out: dict[str, tuple[float, str]] = {}
    for name, _ in LADDER + PROBE_ONLY:
        out[f"characters.enumerate_ms.{name}"] = (
            median_ms(spans, "characters.characters_cached", case=name), "ms")
        count = next(s["attrs"]["count"] for s in spans
                     if s["name"] == "characters.characters_cached" and s["attrs"]["case"] == name)
        out[f"characters.count.{name}"] = (count, "count")
    for eq in EQUATIONS:
        total = sum(durations(spans, "solvers.closed_form", equation=eq))
        out[f"solvers.closed_form_ms.{eq}"] = (1e3 * total / rounds, "ms")
    solves = [s["attrs"] for s in spans if s["name"] == "solvers.closed_form"]
    out["solvers.yield"] = (sum(a["kept"] for a in solves) / sum(a["tried"] for a in solves), "ratio")
    return out
