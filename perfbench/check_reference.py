"""Self-test of the benchmark's reference checks; numpy only.

    python3 perfbench/check_reference.py

Every check in reference.py is fed a right answer, which it must accept,
and a deliberately wrong one, which it must reject. Exits 1 if any check
is fooled either way. The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

import reference as ref
from reference import CheckError

def cyclic(n: int) -> list[list[int]]:
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def negation(n: int) -> list[int]:
    return [(-x) % n for x in range(n)]


def symmetric3() -> list[list[int]]:
    """S3 in lexicographic one-line order, x * y = apply y first, then x."""
    perms = sorted(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


C4 = cyclic(4)
S3 = symmetric3()
NEG4 = [0, 3, 2, 1]
DELTA1 = [(1, 1.0)]
HALF = [(1, 0.5), (3, 0.5)]
SINE = np.array([0, 1, 0, -1], dtype=complex)
COSINE = np.array([1, 0, -1, 0], dtype=complex)
ALT = np.array([-1, 1, -1, 1], dtype=complex)


def _residual_cases():
    """(equation, solution, non-solution, kwargs) on the C4 fixture."""
    return [
        ("vanvleck", SINE, COSINE, dict(sigma=NEG4, atoms=DELTA1)),
        ("dalembert_variant", COSINE, SINE, dict(sigma=NEG4)),
        ("integral_dalembert", ALT, COSINE, dict(sigma=NEG4, atoms=HALF)),
        ("corollary33", ALT, COSINE, dict(sigma=NEG4, atoms=HALF)),
        ("spherical", np.ones(4, dtype=complex), COSINE, dict(atoms=HALF)),
        ("sine_addition", SINE, COSINE, dict(g=COSINE)),
        ("wilson_variant", SINE, np.ones(4, dtype=complex), dict(sigma=NEG4, g=COSINE)),
    ]


def cases():
    """Yield (name, right, wrong): callables that run one check each."""
    for eq, good, bad, kw in _residual_cases():
        yield (f"residual_grid {eq}",
               lambda eq=eq, good=good, kw=kw: ref.require(ref.sup_residual(eq, C4, good, **kw) <= ref.TOL,
                                                           "solution has a residual"),
               lambda eq=eq, bad=bad, kw=kw: ref.require(ref.sup_residual(eq, C4, bad, **kw) <= ref.TOL,
                                                         "non-solution has a residual"))
    grid = ref.residual_grid("corollary33", C4, COSINE, NEG4, HALF)
    yield ("check_report",
           lambda: ref.check_report(2.0, (0, 0), grid, "cosine under corollary33"),
           lambda: ref.check_report(2.0 + 1e-6, (0, 0), grid, "cosine under corollary33"))
    yield ("check_report argmax",
           lambda: ref.check_report(2.0, (0, 0), grid, "cosine under corollary33"),
           lambda: ref.check_report(2.0, (0, 1), grid, "cosine under corollary33"))
    yield ("check_character_count C4",
           lambda: ref.check_character_count(4, C4, "C4"),
           lambda: ref.check_character_count(5, C4, "C4"))
    yield ("check_character_count S3",
           lambda: ref.check_character_count(2, S3, "S3"),
           lambda: ref.check_character_count(6, S3, "S3"))
    c2c4 = [[4 * ((a // 4 + b // 4) % 2) + (a + b) % 4 for b in range(8)] for a in range(8)]
    yield ("check_character_count C2xC4",
           lambda: ref.check_character_count(8, c2c4, "C2xC4"),
           lambda: ref.check_character_count(4, c2c4, "C2xC4"))
    sine8 = np.round(np.sin(np.pi * np.arange(8) / 2)).astype(complex)
    yield ("cyclic_sine 4 | n",
           lambda: ref.check_same_set([sine8], ref.cyclic_sine(8), "C8"),
           lambda: ref.check_same_set([np.roll(sine8, 1)], ref.cyclic_sine(8), "C8"))
    yield ("cyclic_sine 4 does not divide n",
           lambda: ref.check_same_set([], ref.cyclic_sine(6), "C6"),
           lambda: ref.check_same_set([np.ones(6)], ref.cyclic_sine(6), "C6"))
    for n in (4, 6, 8, 12):
        chars = ref.abelian_characters((n,))
        yield (f"closed_form_set vanvleck C{n} against the discrete sine",
               lambda n=n, chars=chars: ref.check_same_set(
                   ref.closed_form_set("vanvleck", chars, negation(n), DELTA1), ref.cyclic_sine(n), f"C{n}"),
               lambda n=n, chars=chars: ref.check_same_set(
                   ref.closed_form_set("vanvleck", chars, negation(n), DELTA1) + [np.ones(n)],
                   ref.cyclic_sine(n), f"C{n}"))
    fixture5 = [np.ones(4, dtype=complex), ALT]
    yield ("closed_form_set corollary33 C4",
           lambda: ref.check_same_set(ref.closed_form_set("corollary33", ref.abelian_characters((4,)), NEG4, HALF),
                                      fixture5, "C4"),
           lambda: ref.check_same_set(ref.closed_form_set("corollary33", ref.abelian_characters((4,)), NEG4, HALF),
                                      fixture5[:1], "C4"))
    yield ("check_census_counts",
           lambda: ref.check_census_counts(ref.census_counts()),
           lambda: ref.check_census_counts((1, 8, 112)))
    yield ("involutive_morphism_count C4",
           lambda: ref.require(ref.involutive_morphism_count(C4, "auto") == 2, "C4 has identity and negation"),
           lambda: ref.require(ref.involutive_morphism_count(C4, "auto") == 3, "C4 has identity and negation"))
    yield ("check_oracle_match unmatched root",
           lambda: ref.check_oracle_match([], [], "oracle"),
           lambda: ref.check_oracle_match([0], [], "oracle"))
    yield ("check_oracle_match unmatched closed form",
           lambda: ref.check_oracle_match([], [], "oracle"),
           lambda: ref.check_oracle_match([], [0], "oracle"))
    yield ("check_campaign violation",
           lambda: ref.check_campaign(1000, 0, 10, 990, "campaign"),
           lambda: ref.check_campaign(1000, 1, 10, 989, "campaign"))
    yield ("check_campaign verdict sum",
           lambda: ref.check_campaign(1000, 0, 10, 990, "campaign"),
           lambda: ref.check_campaign(1000, 0, 10, 980, "campaign"))
    yield ("check_exit_code",
           lambda: ref.check_exit_code(1, 1, "verify"),
           lambda: ref.check_exit_code(1, 0, "verify"))
    terms = ref.battery_terms(C4, SINE, NEG4, DELTA1)
    yield ("battery_terms on the discrete sine",
           lambda: ref.check_close(terms["odd"] + terms["cross"] + terms["mean"], 1.0, "odd + cross + |mean|"),
           lambda: ref.check_close(terms["odd"] + terms["cross"] + terms["mean"], 1.0 + 1e-6, "odd + cross + |mean|"))


def main() -> int:
    fooled = []
    total = 0
    for name, right, wrong in cases():
        total += 1
        try:
            right()
        except CheckError as exc:
            fooled.append(f"{name}: rejected a right answer ({exc})")
        try:
            wrong()
            fooled.append(f"{name}: accepted a wrong answer")
        except CheckError:
            pass
    for line in fooled:
        print(line)
    print(f"{total - len(fooled)}/{total} checks accept the right answer and reject the wrong one")
    return 1 if fooled else 0


if __name__ == "__main__":
    sys.exit(main())
