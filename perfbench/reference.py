"""Reference checks written apart from feqlab, with numpy only.

Nothing here imports feqlab. Residual grids follow the equation table in
the repository README literally, with vectorised index arithmetic in
place of the package's loops. Closed-form solution sets are built from
character tables known in closed form (products of roots of unity on
finite abelian groups; the trivial and sign characters on S3), not from
the package's character search.

Every check raises CheckError with a message on a wrong answer;
check_reference.py feeds each one a deliberately wrong answer.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9
# Labeled semigroups of order 1, 2, 3 (OEIS A023814).
CENSUS_COUNTS = (1, 8, 113)


class CheckError(Exception):
    """A program output disagrees with the reference or with a property
    the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Residual grids, one per README equation


def _measure(atoms) -> tuple[np.ndarray, np.ndarray]:
    points = np.array([p for p, _ in atoms], dtype=np.int64)
    weights = np.array([w for _, w in atoms], dtype=complex)
    return points, weights


def _integral(f: np.ndarray, table: np.ndarray, left: np.ndarray, atoms,
              right: np.ndarray | None = None) -> np.ndarray:
    """sum_t w_t f(left * t [* right]) for index arrays left/right of shape (n, n)."""
    points, weights = _measure(atoms)
    idx = table[left[:, :, None], points[None, None, :]]
    if right is not None:
        idx = table[idx, right[:, :, None]]
    return (f[idx] * weights).sum(axis=2)


def residual_grid(equation: str, table, f, sigma=None, atoms=(), g=None) -> np.ndarray:
    """Defect at every (x, y) of the named equation (README CLI tags).

    sine_addition and wilson_variant take the companion g explicitly.
    """
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    f = np.asarray(f, dtype=complex)
    x = np.repeat(np.arange(n), n).reshape(n, n)
    y = x.T
    xy = t[x, y]
    if sigma is not None:
        s = np.asarray(sigma, dtype=np.int64)
        syx = t[s[y], x]
    quad = 2.0 * f[x] * f[y]
    if equation == "vanvleck":
        return _integral(f, t, syx, atoms) - _integral(f, t, xy, atoms) - quad
    if equation == "dalembert_variant":
        return f[xy] + f[syx] - quad
    if equation == "integral_dalembert":
        s = np.asarray(sigma, dtype=np.int64)
        return _integral(f, t, x, atoms, y) + _integral(f, t, s[y], atoms, x) - quad
    if equation == "corollary33":
        return _integral(f, t, xy, atoms) + _integral(f, t, syx, atoms) - quad
    if equation == "spherical":
        return _integral(f, t, x, atoms, y) - f[x] * f[y]
    g = np.asarray(g, dtype=complex)
    if equation == "sine_addition":
        return f[xy] - f[x] * g[y] - f[y] * g[x]
    if equation == "wilson_variant":
        return f[xy] + f[syx] - 2.0 * f[x] * g[y]
    raise ValueError(f"unknown equation {equation}")


def companion(table, f, atoms) -> np.ndarray:
    """x -> int f(x t) dmu(t) / int f dmu."""
    t = np.asarray(table, dtype=np.int64)
    f = np.asarray(f, dtype=complex)
    points, weights = _measure(atoms)
    return (f[t[:, points]] * weights).sum(axis=1) / (f[points] * weights).sum()


def sup_residual(equation: str, table, f, sigma=None, atoms=(), g=None) -> float:
    return float(np.max(np.abs(residual_grid(equation, table, f, sigma, atoms, g))))


def check_report(max_abs: float, argmax, grid: np.ndarray, what: str) -> None:
    """A residual report's sup and argmax agree with the reference grid.

    The argmax is accepted when the grid attains the sup there, so ties
    and last-bit summation-order differences do not count as errors.
    """
    mags = np.abs(grid)
    top = float(mags.max())
    slack = 1e-12 + 1e-9 * top
    require(abs(max_abs - top) <= slack, f"{what}: max_abs {max_abs!r}, reference {top!r}")
    x, y = argmax
    require(abs(float(mags[x, y]) - top) <= slack,
            f"{what}: argmax ({x}, {y}) holds {float(mags[x, y])!r}, sup is {top!r}")


def battery_terms(table, f, sigma, atoms) -> dict[str, float]:
    """The identity-battery terms that are single sups: sigma-oddness,
    cross antisymmetry and the modulus of the mean."""
    t = np.asarray(table, dtype=np.int64)
    s = np.asarray(sigma, dtype=np.int64)
    f = np.asarray(f, dtype=complex)
    n = len(t)
    x = np.repeat(np.arange(n), n).reshape(n, n)
    y = x.T
    points, weights = _measure(atoms)
    return {
        "odd": float(np.max(np.abs(f[s] + f))),
        "cross": float(np.max(np.abs(f[t[s[y], x]] + f[t[s[x], y]]))),
        "mean": float(abs((f[points] * weights).sum())),
    }


def check_close(got: float, want: float, what: str) -> None:
    require(abs(got - want) <= 1e-12 + 1e-9 * abs(want), f"{what}: {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# Characters and closed forms


def abelianization_order(table) -> int:
    """|G / [G, G]| for a group given by its Cayley table: the number of
    characters a group has."""
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    e = next(i for i in range(n) if np.array_equal(t[i], np.arange(n)))
    inv = np.array([int(np.flatnonzero(t[x] == e)[0]) for x in range(n)])
    commutators = {int(t[t[t[x, y], inv[x]], inv[y]]) for x in range(n) for y in range(n)}
    sub = set(commutators) | {e}
    while True:
        grown = sub | {int(t[a, b]) for a in sub for b in sub}
        if grown == sub:
            return n // len(sub)
        sub = grown


def check_character_count(got: int, table, what: str) -> None:
    want = abelianization_order(table)
    require(got == want, f"{what}: {got} characters, |G/[G,G]| = {want}")


def coordinates(factors) -> np.ndarray:
    """(n, k) coordinates of each element of C_{n1} x ... x C_{nk}, in the
    package's mixed-radix order (last factor fastest)."""
    grids = np.meshgrid(*[np.arange(m) for m in factors], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def abelian_character(factors, k) -> np.ndarray:
    """x -> exp(2 pi i sum_j k_j x_j / n_j)."""
    coords = coordinates(factors)
    turns = (coords * (np.asarray(k) / np.asarray(factors, dtype=float))).sum(axis=1)
    return np.exp(2j * np.pi * turns)


def abelian_characters(factors) -> np.ndarray:
    """Every character of C_{n1} x ... x C_{nk}, one per row."""
    return np.array([abelian_character(factors, k) for k in coordinates(factors)])


def s3_characters() -> np.ndarray:
    """Trivial and sign characters of S3, elements in lexicographic
    one-line order."""
    perms = sorted(itertools.permutations(range(3)))
    sign = [(-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) for p in perms]
    return np.array([np.ones(6), sign], dtype=complex)


def _keep(out: list[np.ndarray], v: np.ndarray, dedup: float = 1e-7) -> None:
    if np.max(np.abs(v)) <= dedup:
        return
    if all(np.max(np.abs(v - u)) > dedup for u in out):
        out.append(v)


def closed_form_set(equation: str, chars: np.ndarray, sigma, atoms) -> list[np.ndarray]:
    """Nonzero solutions built from a full character table.

    vanvleck: (chi o s - chi)/2 * m(chi) where m(chi) != 0 and
    m(chi o s) = -m(chi); dalembert_variant: (chi + chi o s)/2;
    corollary33: (chi + chi o s)/2 * m(chi); spherical: chi * m(chi)
    where m(chi) != 0.
    """
    s = None if sigma is None else np.asarray(sigma, dtype=np.int64)
    if atoms:
        points, weights = _measure(atoms)
    out: list[np.ndarray] = []
    for chi in chars:
        cs = chi[s] if s is not None else None
        if equation == "dalembert_variant":
            _keep(out, (chi + cs) / 2.0)
            continue
        m = (chi[points] * weights).sum()
        if abs(m) <= TOL:
            continue
        if equation == "vanvleck":
            if abs((cs[points] * weights).sum() + m) <= TOL:
                _keep(out, (cs - chi) / 2.0 * m)
        elif equation == "corollary33":
            _keep(out, (chi + cs) / 2.0 * m)
        elif equation == "spherical":
            _keep(out, chi * m)
        else:
            raise ValueError(f"no closed form for {equation}")
    return out


def cyclic_sine(n: int) -> list[np.ndarray]:
    """The sine variant on C_n with sigma = negation and mu = delta_1:
    the discrete sine sin(pi x / 2) when 4 | n, nothing otherwise."""
    if n % 4:
        return []
    return [np.round(np.sin(np.pi * np.arange(n) / 2.0)).astype(complex)]


def check_same_set(got, want, what: str, tol: float = TOL) -> None:
    """Two solution sets are equal up to order, at sup-norm tol."""
    got = [np.asarray(v, dtype=complex) for v in got]
    require(len(got) == len(want), f"{what}: {len(got)} solutions, reference has {len(want)}")
    free = list(range(len(want)))
    for i, v in enumerate(got):
        match = next((j for j in free if np.max(np.abs(v - want[j])) <= tol), None)
        require(match is not None, f"{what}: solution {i} is not in the reference set")
        free.remove(match)


# ---------------------------------------------------------------------------
# Structure: center, involutive morphisms, census


def identity(table) -> int | None:
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    return next((e for e in range(n)
                 if np.array_equal(t[e], np.arange(n)) and np.array_equal(t[:, e], np.arange(n))), None)


def center(table) -> list[int]:
    t = np.asarray(table, dtype=np.int64)
    return [int(z) for z in range(len(t)) if np.array_equal(t[z], t[:, z])]


def involutive_morphism_count(table, kind: str) -> int:
    """Involutive permutations s with s(xy) = s(x)s(y) ("auto") or
    s(xy) = s(y)s(x) ("anti"), by brute force."""
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    count = 0
    for perm in itertools.permutations(range(n)):
        s = np.array(perm)
        if not np.array_equal(s[s], np.arange(n)):
            continue
        image = t[s[:, None], s[None, :]] if kind == "auto" else t[s[None, :], s[:, None]]
        count += bool(np.array_equal(s[t], image))
    return count


def census_counts(orders=(1, 2, 3)) -> list[int]:
    """Associative n x n tables, by vectorised brute force over n^(n^2)."""
    out = []
    for n in orders:
        tables = np.array(list(itertools.product(range(n), repeat=n * n))).reshape(-1, n, n)
        x, y, z = (a.ravel() for a in np.meshgrid(*[np.arange(n)] * 3, indexing="ij"))
        rows = np.arange(len(tables))[:, None]
        lhs = tables[rows, tables[:, x, y], z]
        rhs = tables[rows, x, tables[:, y, z]]
        out.append(int(np.all(lhs == rhs, axis=1).sum()))
    return out


def check_census_counts(got) -> None:
    require(tuple(got) == CENSUS_COUNTS,
            f"census counts {tuple(got)}, OEIS A023814 gives {CENSUS_COUNTS}")


# ---------------------------------------------------------------------------
# Properties of the oracle, the campaigns and the CLI


def check_oracle_match(oracle_only, closed_only, what: str) -> None:
    require(not oracle_only and not closed_only,
            f"{what}: {len(oracle_only)} unmatched oracle roots, "
            f"{len(closed_only)} unmatched closed forms")


def check_campaign(trials: int, violations: int, exact: int, within: int, what: str) -> None:
    require(violations == 0, f"{what}: {violations} violations")
    require(exact + within + violations == trials,
            f"{what}: verdicts sum to {exact + within + violations}, not {trials}")


def check_exit_code(code: int, expected: int, what: str) -> None:
    require(code == expected, f"{what}: exit code {code}, expected {expected}")
