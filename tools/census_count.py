"""Counts from the uncapped structure search, each against an independent
reference.

Run `python3 tools/census_count.py` (it imports feqlab from the
checkout's own src/). It prints one line per count and exits 1 if any
count differs from its reference:
- the labeled census of order n = 1..4, no isomorphism reduction:
  1, 8, 113 and 3492 tables (OEIS A023814);
- the involutive automorphisms of C_n for n = 1..64. They are the maps
  x -> ax for a unit a mod n with a^2 = 1, so their count is that of the
  square roots of 1 in the unit group.

`enumerate_all_semigroups` and `enumerate_involutive_morphisms` cap their
order; this tool runs the search behind them with no cap. Order 4 of the
census alone takes most of a second, so the tool is not part of the test
suite; a test runs it with the orders lowered.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from feqlab import MorphismKind, cyclic_group  # noqa: E402
from feqlab.semigroups import _census_tables, _involutive_maps  # noqa: E402

# labeled semigroups of order 1, 2, ... (OEIS A023814)
CENSUS_COUNTS = (1, 8, 113, 3492)
CYCLIC_MAX = 64


def lines() -> list[tuple[str, bool]]:
    """(line, matches) for each count: the census of each order in
    CENSUS_COUNTS, then C_n for n = 1..CYCLIC_MAX."""
    out = []
    for n, want in enumerate(CENSUS_COUNTS, start=1):
        got = len(_census_tables(n))
        out.append((f"census n={n} tables {got} reference {want}", got == want))
    for n in range(1, CYCLIC_MAX + 1):
        got = len(_involutive_maps(cyclic_group(n).table, MorphismKind.AUTOMORPHISM))
        want = sum(1 for a in range(n) if math.gcd(a, n) == 1 and a * a % n == 1 % n)
        out.append((f"C{n} involutive automorphisms {got} reference {want}", got == want))
    return out


def main() -> int:
    ok = True
    for line, matches in lines():
        print(line if matches else f"{line} MISMATCH")
        ok &= matches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
