"""Bundled example inputs, mirrored by the `feqlab fixtures` subcommand.

The cyclic-order-4 bundle is the canonical desk case: sigma is
negation, mu the unit mass at 1, and the sine function [0, 1, 0, -1]
its unique nonzero sine-variant solution. S3 covers noncommutative
checks, including a non-central measure for hypothesis-gate tests.
"""

from __future__ import annotations

from pathlib import Path

from .jsonio import canonical_json, morphism_to_json, semigroup_to_json
from .measures import DiracMeasure
from .semigroups import (
    InvolutiveMorphism,
    MorphismKind,
    cyclic_group,
    left_zero,
    null_semigroup,
    s3_inversion,
    symmetric_group_3,
)


SINE_C4 = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
COSINE_C4 = [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]


def fixture_bundle() -> dict[str, dict]:
    auto = MorphismKind.AUTOMORPHISM
    return {
        "c4.sg.json": semigroup_to_json(cyclic_group(4)),
        "s3.sg.json": semigroup_to_json(symmetric_group_3()),
        "null2.sg.json": semigroup_to_json(null_semigroup(2)),
        "leftzero2.sg.json": semigroup_to_json(left_zero(2)),
        "c4_negation.sigma.json": morphism_to_json(InvolutiveMorphism((0, 3, 2, 1), auto)),
        "c4_identity.sigma.json": morphism_to_json(InvolutiveMorphism((0, 1, 2, 3), auto)),
        "s3_inversion.sigma.json": morphism_to_json(s3_inversion()),
        "c4_delta1.mu.json": DiracMeasure.point_mass(1).to_json(),
        # sigma-invariant under negation: (1/2)(delta_1 + delta_3)
        "c4_halfpair.mu.json": DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)]).to_json(),
        # unit mass at a transposition: deliberately non-central
        "s3_transposition.mu.json": DiracMeasure.point_mass(1).to_json(),
        "c4_sine.fn.json": {"values": SINE_C4},
        "c4_cosine.fn.json": {"values": COSINE_C4},
    }


def write_fixtures(outdir: str | Path) -> list[str]:
    """Write the bundle; returns written filenames in sorted order."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for name, obj in sorted(fixture_bundle().items()):
        (out / name).write_text(canonical_json(obj) + "\n")
        names.append(name)
    return names
