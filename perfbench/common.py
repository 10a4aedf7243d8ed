"""Pieces the four workloads share: the operation record, seeded random
streams and builders for groups, morphisms and measures.

Inputs are built with feqlab's public constructors and then passed
through validate_semigroup / validate_morphism, the checks a user's
input goes through when loaded.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from feqlab import (
    DiracMeasure,
    FiniteSemigroup,
    InvolutiveMorphism,
    MorphismKind,
    cyclic_group,
    direct_product,
    validate_morphism,
    validate_semigroup,
)

import reference
from spans import Tracer


class Op(NamedTuple):
    """One operation: run() is timed, check(result) is not and raises
    reference.CheckError on a wrong answer."""

    label: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], None]


def rng(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per (seed, purpose), stable across runs."""
    return np.random.default_rng([seed, *stream.encode()])


def abelian_group(factors: tuple[int, ...], tracer: Tracer) -> FiniteSemigroup:
    """C_{n1} x ... x C_{nk}, element index in mixed radix (last factor
    fastest), validated from its table."""
    sg = cyclic_group(factors[0])
    for m in factors[1:]:
        sg = direct_product(sg, cyclic_group(m))
    name = "x".join(f"C{m}" for m in factors)
    with tracer.span("semigroups.validate_semigroup", case=name):
        return validate_semigroup(sg.table, name=name)


def sign_morphism(sg: FiniteSemigroup, factors: tuple[int, ...],
                  signs: tuple[int, ...]) -> InvolutiveMorphism:
    """x -> (s1 x1, ..., sk xk): an involutive automorphism for any signs."""
    coords = reference.coordinates(factors)
    image = (coords * np.asarray(signs)) % np.asarray(factors)
    weights = np.cumprod((1,) + tuple(factors[:0:-1]))[::-1]
    return validate_morphism(sg, [int(v) for v in image @ weights], MorphismKind.AUTOMORPHISM)


def measure(points, weights) -> DiracMeasure:
    return DiracMeasure.from_pairs([(int(p), complex(w)) for p, w in zip(points, weights)])


def symmetrize(mu: DiracMeasure, sigma: InvolutiveMorphism) -> DiracMeasure:
    """(mu + sigma_* mu) / 2, which is sigma-invariant."""
    return DiracMeasure.from_pairs(
        [(p, w / 2) for p, w in mu.atoms] + [(sigma.map[p], w / 2) for p, w in mu.atoms])


def odd_last_points(factors: tuple[int, ...], gen: np.random.Generator, k: int) -> np.ndarray:
    """k distinct elements whose last coordinate is odd.

    On a group whose last factor has order divisible by 4, with sigma
    negating that factor, the character i^(last coordinate) then has
    m(chi o sigma) = -m(chi) for every weighting, so the sine variant
    has a nonzero solution.
    """
    coords = reference.coordinates(factors)
    odd = np.flatnonzero(coords[:, -1] % 2 == 1)
    return np.sort(gen.choice(odd, size=k, replace=False))
