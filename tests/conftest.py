from __future__ import annotations

import numpy as np
import pytest

from feqlab import (
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    ToleranceConfig,
    cyclic_group,
    left_zero,
    null_semigroup,
    symmetric_group_3,
)


@pytest.fixture(scope="session")
def c4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_3()


@pytest.fixture(scope="session")
def null2():
    return null_semigroup(2)


@pytest.fixture(scope="session")
def leftzero2():
    return left_zero(2)


@pytest.fixture(scope="session")
def sigma_neg():
    # x -> -x on C4
    return InvolutiveMorphism(map=(0, 3, 2, 1), kind=MorphismKind.AUTOMORPHISM)


@pytest.fixture(scope="session")
def sigma_id4():
    return InvolutiveMorphism(map=(0, 1, 2, 3), kind=MorphismKind.AUTOMORPHISM)


@pytest.fixture(scope="session")
def mu_delta1():
    return DiracMeasure.point_mass(1)


@pytest.fixture(scope="session")
def upsilon():
    # sigma-invariant half masses at 1 and 3 on C4
    return DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)])


@pytest.fixture(scope="session")
def sine():
    return np.array([0, 1, 0, -1], dtype=complex)


@pytest.fixture(scope="session")
def cosine():
    return np.array([1, 0, -1, 0], dtype=complex)


@pytest.fixture(scope="session")
def turns_multiplicative():
    """check(sg, chi): chi(xy) = chi(x) chi(y) for every pair, read in
    chi's integer turns: -1 (zero) when either factor is -1, else the
    sum of the turns mod the period."""

    def check(sg, chi) -> bool:
        ks, m = chi.turns, chi.period
        return all(ks[sg.mul(x, y)] == (-1 if -1 in (ks[x], ks[y]) else (ks[x] + ks[y]) % m)
                   for x in sg.elements() for y in sg.elements())

    return check


@pytest.fixture(scope="session")
def tol():
    return ToleranceConfig()
