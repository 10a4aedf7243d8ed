"""One sha256 over spectral_oracle's roots on a fixed matrix of calls, to
show that a change keeps every bit of the oracle.

Run `python3 tools/oracle_digest.py` in each of two checkouts (it imports
feqlab from the checkout's own src/) and compare the printed lines. On
the first, the call count and the sha256 are equal when every call
returns the same roots, bit for bit. The second holds the total root
count and a sha256 over each call's label and root count: it stays equal
when a change moves only the low bits of the roots, and not how many
roots each call finds.

Each call hashes its label, its root count and its roots, as raw bytes.
A call that raises hashes its error type and message instead.

The calls are:
- the order <= 3 census, as the census_crosscheck benchmark sweeps it:
  vanvleck on every labeled table, with every involutive morphism of
  either kind and a unit mass at each central point, seed 0;
- C4, the Klein group and S3 with every closed-form tag, seeds 0 to 2:
  an involutive automorphism (on S3 the inversion, an
  anti-automorphism), a unit mass for vanvleck and a sigma-invariant
  measure for the others, each input passed only when the tag reads it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from feqlab import (  # noqa: E402
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    center,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_involutive_morphisms,
    s3_inversion,
    spectral_oracle,
    symmetric_group_3,
)
from feqlab.equations import EQUATIONS  # noqa: E402

TAGS = tuple(tag for tag, eq in EQUATIONS.items() if eq.closed_form is not None)


def calls() -> list[tuple[str, tuple, dict]]:
    """(label, args, keyword args) of every spectral_oracle call, in order."""
    out = []
    for n in (1, 2, 3):
        for i, sg in enumerate(enumerate_all_semigroups(n)):
            for kind in MorphismKind:
                for sigma in enumerate_involutive_morphisms(sg, kind):
                    for z in center(sg):
                        out.append((f"census n{n} table{i} {kind.value} {sigma.map} z{z}",
                                    (sg, "vanvleck", sigma, DiracMeasure.point_mass(z)), {"seed": 0}))
    auto = MorphismKind.AUTOMORPHISM
    witnesses = (
        ("C4", cyclic_group(4), InvolutiveMorphism((0, 3, 2, 1), auto), DiracMeasure.point_mass(1),
         DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)])),
        ("Klein", direct_product(cyclic_group(2), cyclic_group(2)), InvolutiveMorphism((0, 2, 1, 3), auto),
         DiracMeasure.point_mass(1), DiracMeasure.from_pairs([(1, 0.5), (2, 0.5)])),
        ("S3", symmetric_group_3(), s3_inversion(), DiracMeasure.point_mass(0), DiracMeasure.point_mass(0, 0.75)),
    )
    for name, sg, sigma, sine_mu, cosine_mu in witnesses:
        for tag in TAGS:
            reads = EQUATIONS[tag].reads
            mu = (sine_mu if tag == "vanvleck" else cosine_mu) if "mu" in reads else None
            for seed in range(3):
                out.append((f"{name} {tag} seed{seed}",
                            (sg, tag, sigma if "sigma" in reads else None, mu), {"seed": seed}))
    return out


def digest(matrix: list[tuple[str, tuple, dict]]) -> tuple[int, str, int, str]:
    """(call count, sha256 hex, root count, sha256 hex of the root counts)
    of the calls."""
    sha, counts_sha = hashlib.sha256(), hashlib.sha256()
    total = 0
    for label, args, kwargs in matrix:
        head = json.dumps(label).encode() + b"\n"
        sha.update(head)
        counts_sha.update(head)
        try:
            roots = spectral_oracle(*args, **kwargs)
        except Exception as exc:  # hashed, as a changed error must change the digest
            error = f"{type(exc).__name__}: {exc}\n".encode()
            sha.update(error)
            counts_sha.update(error)
            continue
        sha.update(json.dumps(len(roots)).encode())
        counts_sha.update(json.dumps(len(roots)).encode())
        total += len(roots)
        for root in roots:
            sha.update(root.tobytes())
    return len(matrix), sha.hexdigest(), total, counts_sha.hexdigest()


if __name__ == "__main__":
    count, hexdigest, roots, counts = digest(calls())
    print(f"{count} calls sha256 {hexdigest}")
    print(f"{roots} roots sha256 {counts}")
