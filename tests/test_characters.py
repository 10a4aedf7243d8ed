from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from feqlab import (
    Character,
    RootValue,
    character_to_scalar,
    compose_sigma,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_characters,
    is_multiplicative,
    left_zero,
    null_semigroup,
)
from feqlab.errors import LengthMismatch


def brute_characters(sg):
    """Independent exhaustive oracle.

    Values are encoded as None (zero) or a Fraction in [0,1) (turns of a
    root of unity); multiplication is turn addition. Candidates per
    element come from naive power iteration: v must satisfy v^k(v^p-1)=0.
    """

    def mul(a, b):
        if a is None or b is None:
            return None
        return (a + b) % 1

    domains = []
    for x in sg.elements():
        seen = {}
        power, step = x, 1
        while power not in seen:
            seen[power] = step
            power = sg.mul(power, x)
            step += 1
        period = step - seen[power]
        domains.append([None] + [Fraction(j, period) for j in range(period)])

    found = set()
    for assignment in itertools.product(*domains):
        if all(v is None for v in assignment):
            continue
        if all(
            assignment[sg.mul(x, y)] == mul(assignment[x], assignment[y])
            for x in sg.elements()
            for y in sg.elements()
        ):
            found.add(assignment)
    return found


def as_turns(chi: Character):
    return tuple(v.turns for v in chi.values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cyclic_group_characters_match_oracle(n):
    sg = cyclic_group(n)
    got = {as_turns(c) for c in enumerate_characters(sg)}
    assert got == brute_characters(sg)
    assert len(got) == n  # the dual group of Z/n


# Every labeled table of order <= 3, then two products: null2 x C2, whose
# square is the proper ideal {0} x C2, and leftzero2 x C3, whose rows
# {a} x C3 are proper right ideals.
ORACLE_CASES = [
    pytest.param(sg, id=f"census{n}-{i}")
    for n in (1, 2, 3)
    for i, sg in enumerate(enumerate_all_semigroups(n))
] + [
    pytest.param(direct_product(null_semigroup(2), cyclic_group(2)), id="null2xC2"),
    pytest.param(direct_product(left_zero(2), cyclic_group(3)), id="leftzero2xC3"),
]


@pytest.mark.parametrize("sg", ORACLE_CASES)
def test_census_and_ideal_products_match_oracle(sg):
    chars = enumerate_characters(sg)
    got = [as_turns(c) for c in chars]
    assert len(set(got)) == len(got)
    assert set(got) == brute_characters(sg)


@pytest.mark.parametrize("orders", [(16,), (4, 4), (2, 8), (32,), (64,), (4, 16)],
                         ids=["C16", "C4xC4", "C2xC8", "C32", "C64", "C4xC16"])
def test_abelian_groups_give_their_dual_in_canonical_order(orders):
    """The characters of C_a x C_b are (x, y) -> turns k x/a + l y/b, with
    pair (x, y) at index x b + y; the list is sorted by turns, element by
    element."""
    sg = cyclic_group(orders[0])
    for m in orders[1:]:
        sg = direct_product(sg, cyclic_group(m))
    coords = list(itertools.product(*(range(m) for m in orders)))
    expected = sorted(
        tuple(sum((Fraction(k * x, m) for k, x, m in zip(ks, xs, orders)), Fraction(0)) % 1
              for xs in coords)
        for ks in coords
    )
    assert [as_turns(c) for c in enumerate_characters(sg)] == expected


def test_c4_characters_are_powers_of_i(c4):
    chars = enumerate_characters(c4)
    vectors = sorted(tuple(np.round(character_to_scalar(c), 12)) for c in chars)
    expected = sorted(
        tuple(np.round([1j ** (k * x % 4) for x in range(4)], 12)) for k in range(4)
    )
    assert vectors == expected


def test_s3_characters_trivial_and_sign(s3):
    got = {tuple(character_to_scalar(c)) for c in enumerate_characters(s3)}
    # lex-ordered perms: e, (12-swap), (01-swap), 3-cycle, 3-cycle, (02-swap)
    sign = (1, -1, -1, 1, 1, -1)
    assert got == {tuple(complex(1) for _ in range(6)), tuple(map(complex, sign))}


def test_small_semigroups_match_oracle(null2, leftzero2, s3):
    for sg in (null2, leftzero2, s3):
        got = {as_turns(c) for c in enumerate_characters(sg)}
        assert got == brute_characters(sg)


def test_null_characters(null2):
    chars = enumerate_characters(null2)
    assert len(chars) == 1
    assert np.array_equal(character_to_scalar(chars[0]), np.ones(2, dtype=complex))


def test_left_zero_characters(leftzero2):
    chars = enumerate_characters(leftzero2)
    assert [tuple(c.values) for c in chars] == [(RootValue.one(), RootValue.one())]


def test_zero_values_propagate():
    # direct product C2 x (null of order 1): characters may vanish on a
    # proper ideal; spot-check against the oracle on a semigroup with zeros
    table = ((0, 0, 0), (0, 1, 2), (0, 2, 1))  # 0 absorbing, {1,2} is C2
    from feqlab import validate_semigroup

    sg = validate_semigroup([list(r) for r in table])
    got = {as_turns(c) for c in enumerate_characters(sg)}
    assert got == brute_characters(sg)
    # chi(0) = chi(0)^2 forces chi(0) in {0,1}; both branches appear
    assert any(t[0] is None for t in got)
    assert any(t[0] == Fraction(0) for t in got)


def test_enumeration_is_deterministic(s3, c4):
    for sg in (s3, c4):
        first = enumerate_characters(sg)
        second = enumerate_characters(sg)
        assert first == second
        keys = [c.sort_key() for c in first]
        assert keys == sorted(keys)


def test_is_multiplicative(c4, tol):
    assert is_multiplicative(c4, [1, 1j, -1, -1j], tol)
    assert is_multiplicative(c4, [1, 1, 1, 1], tol)
    assert not is_multiplicative(c4, [0, 1, 0, -1], tol)
    with pytest.raises(LengthMismatch):
        is_multiplicative(c4, [1, 1], tol)


def test_compose_sigma(c4, sigma_neg, sigma_id4):
    chi = next(c for c in enumerate_characters(c4)
               if c.values[1] == RootValue.root(1, 4))
    composed = compose_sigma(chi, sigma_neg)
    assert np.array_equal(character_to_scalar(composed),
                          np.array([1, -1j, -1, 1j]))
    assert compose_sigma(chi, sigma_id4) == chi
    assert compose_sigma(composed, sigma_neg) == chi  # involution
    # the integer key of chi o sigma is chi's, permuted by the map
    assert chi.int_turns == (4, (0, 1, 2, 3))
    assert composed.int_turns == (4, (0, 3, 2, 1))


def test_character_to_scalar_exact(c4):
    chi = next(c for c in enumerate_characters(c4)
               if c.values[1] == RootValue.root(1, 4))
    vec = character_to_scalar(chi)
    assert vec.tolist() == [1 + 0j, 1j, -1 + 0j, -1j]
    # memoized on the character, and shared, so no caller may write to it
    assert character_to_scalar(chi) is vec
    assert not vec.flags.writeable


def test_int_turns_key_the_values_exactly():
    # (0, 1) over 2 is not (0, 1) over 4: the period is part of the key
    half = Character((RootValue.one(), RootValue.root(1, 2)))
    quarter = Character((RootValue.one(), RootValue.root(1, 4)))
    assert half.int_turns == (2, (0, 1)) and quarter.int_turns == (4, (0, 1))
    assert Character((RootValue.zero(), RootValue.root(3, 6))).int_turns == (2, (-1, 1))
