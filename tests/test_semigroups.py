from __future__ import annotations

import itertools
import tracemalloc

import pytest

from feqlab import (
    MorphismKind,
    center,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_involutive_morphisms,
    index_period,
    left_zero,
    null_semigroup,
    s3_inversion,
    symmetric_group_3,
    validate_morphism,
    validate_semigroup,
)
from feqlab.errors import (
    BadParams,
    EntryOutOfRange,
    NotAssociative,
    NotInvolutive,
    NotMorphism,
    TooLarge,
)


def brute_involutions(sg, kind):
    """Independent filter over all permutations, used as the oracle for
    enumerate_involutive_morphisms."""
    n = sg.n
    out = []
    for perm in itertools.permutations(range(n)):
        if any(perm[perm[x]] != x for x in range(n)):
            continue
        if kind == "auto":
            ok = all(perm[sg.mul(x, y)] == sg.mul(perm[x], perm[y])
                     for x in range(n) for y in range(n))
        else:
            ok = all(perm[sg.mul(x, y)] == sg.mul(perm[y], perm[x])
                     for x in range(n) for y in range(n))
        if ok:
            out.append(perm)
    return out


def test_validate_c4():
    sg = validate_semigroup([[(x + y) % 4 for y in range(4)] for x in range(4)])
    assert sg.n == 4
    assert sg.identity == 0
    assert center(sg) == [0, 1, 2, 3]  # abelian


def test_validate_rejects_bad_entry():
    with pytest.raises(EntryOutOfRange):
        validate_semigroup([[0, 2], [1, 0]])


def test_validate_rejects_nonassociative():
    table = [[0, 0], [1, 0]]
    # oracle: confirm some triple genuinely fails before expecting the error
    fails = [
        (x, y, z)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if table[table[x][y]][z] != table[x][table[y][z]]
    ]
    assert fails
    with pytest.raises(NotAssociative) as err:
        validate_semigroup(table)
    assert err.value.triple in fails


def test_validate_rejects_nonsquare():
    with pytest.raises(BadParams):
        validate_semigroup([[0, 0]])


def test_left_zero_is_associative_without_identity(leftzero2):
    sg = validate_semigroup(leftzero2.table)
    assert sg.identity is None


def test_center_c4_is_everything(c4):
    assert center(c4) == [0, 1, 2, 3]


def test_center_left_zero_empty(leftzero2):
    assert center(leftzero2) == []


def test_center_s3_trivial(s3):
    assert center(s3) == [0]


def test_c4_automorphisms(c4):
    autos = enumerate_involutive_morphisms(c4, MorphismKind.AUTOMORPHISM)
    assert [m.map for m in autos] == brute_involutions(c4, "auto")
    assert {m.map for m in autos} == {(0, 1, 2, 3), (0, 3, 2, 1)}


def test_s3_anti_automorphisms_include_inversion(s3):
    antis = enumerate_involutive_morphisms(s3, MorphismKind.ANTI_AUTOMORPHISM)
    assert [m.map for m in antis] == brute_involutions(s3, "anti")
    assert s3_inversion().map in {m.map for m in antis}


def test_left_zero_automorphisms(leftzero2):
    autos = enumerate_involutive_morphisms(leftzero2, MorphismKind.AUTOMORPHISM)
    assert {m.map for m in autos} == {(0, 1), (1, 0)}


def test_morphism_kinds_not_merged(c4):
    # on an abelian semigroup the same maps qualify under both kinds
    autos = enumerate_involutive_morphisms(c4, MorphismKind.AUTOMORPHISM)
    antis = enumerate_involutive_morphisms(c4, MorphismKind.ANTI_AUTOMORPHISM)
    assert [m.map for m in autos] == [m.map for m in antis]
    assert all(m.kind is MorphismKind.AUTOMORPHISM for m in autos)
    assert all(m.kind is MorphismKind.ANTI_AUTOMORPHISM for m in antis)


def test_morphism_enumeration_caps():
    with pytest.raises(TooLarge):
        enumerate_involutive_morphisms(cyclic_group(9), MorphismKind.AUTOMORPHISM)


def test_validate_morphism(c4, s3):
    m = validate_morphism(c4, [0, 3, 2, 1], MorphismKind.AUTOMORPHISM)
    assert m.map == (0, 3, 2, 1)
    with pytest.raises(NotInvolutive):
        validate_morphism(c4, [1, 2, 3, 0], MorphismKind.AUTOMORPHISM)
    with pytest.raises(NotMorphism):
        validate_morphism(c4, [0, 0, 0, 0], MorphismKind.AUTOMORPHISM)
    # inversion is anti but not auto on a noncommutative group
    inv = s3_inversion().map
    with pytest.raises(NotMorphism):
        validate_morphism(s3, list(inv), MorphismKind.AUTOMORPHISM)


def test_index_period_examples(c4):
    assert index_period(c4, 1) == (1, 4)
    assert index_period(c4, 0) == (1, 1)  # idempotent
    assert index_period(null_semigroup(2), 1) == (2, 1)  # 1*1=0, then stays at 0


def test_index_period_chain(s3, c4):
    # oracle: x^(k+p) == x^k by direct power iteration
    for sg in (s3, c4, null_semigroup(3), left_zero(3)):
        for x in sg.elements():
            index, period = index_period(sg, x)
            powers = [x]
            for _ in range(index + period):
                powers.append(sg.mul(powers[-1], x))
            assert powers[index + period - 1] == powers[index - 1]
            assert index >= 1 and period >= 1


def test_standard_families_are_valid():
    for sg in (cyclic_group(5), null_semigroup(3), left_zero(3),
               symmetric_group_3(), direct_product(cyclic_group(2), cyclic_group(3))):
        validate_semigroup(sg.table)  # raises on any defect


def test_direct_product_structure():
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    assert prod.n == 6
    assert prod.identity == 0
    # (x1,y1)*(x2,y2) at indices x*3+y
    assert prod.mul(1 * 3 + 2, 1 * 3 + 2) == ((1 + 1) % 2) * 3 + ((2 + 2) % 3)


def test_census_counts():
    assert sum(1 for _ in enumerate_all_semigroups(1)) == 1
    assert sum(1 for _ in enumerate_all_semigroups(2)) == 8
    assert sum(1 for _ in enumerate_all_semigroups(3)) == 113


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_matches_brute_force(n):
    # oracle: independent associativity filter over all n^(n^2) tables, in
    # itertools.product order, with the first two-sided identity
    expected = []
    for flat in itertools.product(range(n), repeat=n * n):
        t = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(n) for y in range(n) for z in range(n)):
            identity = next((e for e in range(n)
                             if all(t[e][x] == x and t[x][e] == x for x in range(n))), None)
            expected.append((t, identity))
    got = [(sg.table, sg.identity) for sg in enumerate_all_semigroups(n)]
    assert got == expected
    assert all(type(v) is int for t, _ in got for row in t for v in row)


def test_census_tables_are_valid():
    for sg in enumerate_all_semigroups(3):
        assert len(sg.table) == 3
        validate_semigroup(sg.table)


def test_associativity_memory_stays_in_slabs():
    # the census is filtered one first-row chunk at a time and a table one
    # n x n slab at a time: the whole order-3 census at once (~10 MiB) or an
    # n^3 cube for C128 (>= 16 MiB) breaks these bounds; tracemalloc sees
    # numpy's buffers
    c128 = [list(row) for row in cyclic_group(128).table]
    for run, bound in ((lambda: list(enumerate_all_semigroups(3)), 2 << 20),
                       (lambda: validate_semigroup(c128), 4 << 20)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_census_caps():
    with pytest.raises(TooLarge):
        list(enumerate_all_semigroups(4))
