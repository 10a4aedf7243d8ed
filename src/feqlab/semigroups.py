"""Finite semigroups given by Cayley tables, and their involutive morphisms.

Elements are dense indices 0..n-1 and the Cayley table is the single
source of structure: table[x][y] is the product x*y. Standard families
use a fixed, documented element order so example vectors stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BadParams, EntryOutOfRange, NotAssociative, NotInvolutive, NotMorphism, TooLarge

# Both caps bound the size of the output: left-zero of order 16 has
# 46,206,736 involutive automorphisms.
MAX_MORPHISM_ORDER = 8
# The labeled census of order 5 has 183,732 tables.
MAX_CENSUS_ORDER = 3


class MorphismKind(str, Enum):
    AUTOMORPHISM = "auto"
    ANTI_AUTOMORPHISM = "anti"


@dataclass(frozen=True)
class FiniteSemigroup:
    """Associative magma on {0..n-1}; the identity, not required, is read from the table."""

    table: tuple[tuple[int, ...], ...]
    name: str | None = None

    @property
    def n(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    @cached_property
    def index_table(self) -> np.ndarray:
        """The Cayley table as an integer array, built once per semigroup."""
        return np.array(self.table, dtype=np.intp)

    @cached_property
    def identity(self) -> int | None:
        """The element whose row and column are both 0..n-1, or None."""
        table, elements = self.index_table, np.arange(self.n)
        hits = np.flatnonzero((table == elements).all(axis=1) & (table.T == elements).all(axis=1))
        return int(hits[0]) if hits.size else None

    def elements(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class InvolutiveMorphism:
    """Permutation sigma with sigma(sigma(x)) = x obeying its kind's law.

    kind "auto" means sigma(xy) = sigma(x)sigma(y), kind "anti" means
    sigma(xy) = sigma(y)sigma(x). On abelian semigroups the same map can
    qualify as either kind; the declared kind is kept as data.
    """

    map: tuple[int, ...]
    kind: MorphismKind


def _is_integer(v) -> bool:
    """Any integer but a bool, numpy's included: a table cell, a map entry or an atom point."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Any int or float but a bool, numpy's included: a campaign's radius."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """Any int, float or complex but a bool, numpy's included: an atom weight or a function value."""
    return isinstance(v, (int, float, complex, np.number)) and not isinstance(v, bool)


def _bad_slab(table: np.ndarray, x: int) -> np.ndarray:
    """Mask of (xy)z != x(yz) at [y, z] for one x: the n x n slab, the
    rows xy of the table against the row of x read at every yz."""
    return table[table[x]] != table[x][table]


def validate_semigroup(table: Sequence[Sequence[int]], name: str | None = None) -> FiniteSemigroup:
    """Check a Cayley table and return the wrapped semigroup.

    Raises EntryOutOfRange on a bad cell and NotAssociative with the
    first failing triple in row-major scan order. Associativity is
    checked in n x n slabs, one x at a time, stopping at the first slab
    with a bad cell, so memory stays O(n^2); the checked array becomes
    the semigroup's index_table.
    """
    n = len(table)
    if n < 1:
        raise BadParams("semigroup needs at least one element")
    rows = []
    for x, row in enumerate(table):
        if len(row) != n:
            raise BadParams(f"row {x} has {len(row)} entries, expected {n}")
        cells, plain = tuple(row), True
        for y, v in enumerate(cells):
            if type(v) is not int:  # numpy's integers are stored as ints
                if not _is_integer(v):
                    raise EntryOutOfRange(x, y, v, n)
                plain = False
            if not 0 <= v < n:
                raise EntryOutOfRange(x, y, v, n)
        rows.append(cells if plain else tuple(map(int, cells)))
    t = tuple(rows)
    index_table = np.array(t, dtype=np.intp)
    for x in range(n):
        bad = _bad_slab(index_table, x)
        if bad.any():
            raise NotAssociative(x, *divmod(int(bad.argmax()), n))
    sg = FiniteSemigroup(table=t, name=name)
    sg.__dict__["index_table"] = index_table  # the cached_property's memo, filled here
    return sg


def _trail_search(order: Sequence[int], domains: Sequence[Sequence[int]], propagate: Callable) -> list[tuple]:
    """Every complete assignment of the variables 0..len(order)-1, in search order.

    Depth first: the variables are taken in the given order and each
    tries its domain in its order, unless an earlier choice already
    forced its value. Once a variable x is set to v,
    propagate(values, trail, pending, x, v) appends to pending the
    (variable, value) pairs the choice forces and returns False on a
    clash; values holds None for a free variable, and the trail lists
    the set variables in setting order, x last. A forced value that
    differs from a set one is a clash too. A clash prunes the branch,
    and leaving a choice undoes everything the trail set since it.
    """
    values: list = [None] * len(order)
    trail: list[int] = []
    found: list[tuple] = []

    def assign(var: int, value: int) -> bool:
        """Set var = value and everything it forces; False on a clash."""
        pending = [(var, value)]
        while pending:
            x, v = pending.pop()
            if values[x] is not None:
                if values[x] != v:
                    return False
                continue
            values[x] = v
            trail.append(x)
            if not propagate(values, trail, pending, x, v):
                return False
        return True

    def extend(pos: int) -> None:
        while pos < len(order) and values[order[pos]] is not None:  # forced by an earlier choice
            pos += 1
        if pos == len(order):
            found.append(tuple(values))
            return
        for value in domains[order[pos]]:
            mark = len(trail)
            if assign(order[pos], value):
                extend(pos + 1)
            for x in trail[mark:]:
                values[x] = None
            del trail[mark:]

    extend(0)
    return found


def center(sg: FiniteSemigroup) -> list[int]:
    """Elements commuting with everything, ascending."""
    table = sg.index_table
    return np.flatnonzero((table == table.T).all(axis=1)).tolist()


def _obeys_law(table: Sequence[Sequence[int]], m: Sequence[int], kind: MorphismKind) -> bool:
    """m(xy) = m(x)m(y) for an automorphism, m(xy) = m(y)m(x) for an anti."""
    n = len(table)
    if kind is MorphismKind.AUTOMORPHISM:
        return all(m[table[x][y]] == table[m[x]][m[y]] for x in range(n) for y in range(n))
    return all(m[table[x][y]] == table[m[y]][m[x]] for x in range(n) for y in range(n))


def validate_morphism(sg: FiniteSemigroup, map_: Sequence[int], kind: MorphismKind) -> InvolutiveMorphism:
    """Check an explicit map against the involution and structure laws.
    Its entries are integers but bools, stored as ints, as in
    validate_semigroup."""
    n = sg.n
    if len(map_) != n or not all(map(_is_integer, map_)) or sorted(map_) != list(range(n)):
        raise NotMorphism(f"map must be a permutation of 0..{n - 1}")
    m = tuple(map(int, map_))
    if any(m[m[x]] != x for x in range(n)):
        raise NotInvolutive("map composed with itself is not the identity")
    if not _obeys_law(sg.table, m, kind):
        raise NotMorphism(f"map does not satisfy the {kind.value} structure law")
    return InvolutiveMorphism(map=m, kind=kind)


def _involutive_maps(table: Sequence[Sequence[int]], kind: MorphismKind) -> list[tuple[int, ...]]:
    """Every involutive map obeying kind's law, in lexicographic order, with
    no cap: the trail search over m(0), m(1), ...

    Setting m(x) = v forces m(v) = x, which also rules out a value taken
    twice, and for each set y it forces m(xy) and m(yx) by the law, so a
    complete assignment is an involution that obeys it on every pair.
    """
    n, auto = len(table), kind is MorphismKind.AUTOMORPHISM

    def forces(m: list, trail: list[int], pending: list, x: int, v: int) -> bool:
        for y in trail:
            vxy, vyx = table[v][m[y]], table[m[y]][v]
            pending += ((table[x][y], vxy if auto else vyx), (table[y][x], vyx if auto else vxy))
        pending.append((v, x))  # popped first: a value taken twice clashes at once
        return True

    return _trail_search(range(n), [range(n)] * n, forces)


def enumerate_involutive_morphisms(sg: FiniteSemigroup, kind: MorphismKind) -> list[InvolutiveMorphism]:
    """All involutive morphisms of the given kind, in lexicographic map order.

    Raises TooLarge past MAX_MORPHISM_ORDER. A map valid for both kinds
    on an abelian semigroup is emitted for whichever kind was requested,
    never merged across kinds.
    """
    n = sg.n
    if n > MAX_MORPHISM_ORDER:
        raise TooLarge(f"morphism enumeration caps at order {MAX_MORPHISM_ORDER}, got {n}")
    return [InvolutiveMorphism(map=m, kind=kind) for m in _involutive_maps(sg.table, kind)]


def index_period(sg: FiniteSemigroup, x: int) -> tuple[int, int]:
    """Minimal (index k, period p) with x^(k+p) = x^k, the eventual cycle
    of the powers x, x^2, x^3, ...; both >= 1 on a finite semigroup."""
    if not 0 <= x < sg.n:
        raise BadParams(f"element {x} outside 0..{sg.n - 1}")
    seen: dict[int, int] = {}
    power, step = x, 1
    while power not in seen:
        seen[power] = step
        power = sg.mul(power, x)
        step += 1
    k = seen[power]
    return k, step - k


def cyclic_group(n: int) -> FiniteSemigroup:
    """Z/nZ under addition, elements 0..n-1."""
    if n < 1:
        raise BadParams("cyclic group needs n >= 1")
    table = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    return FiniteSemigroup(table=table, name=f"C{n}")


def null_semigroup(n: int) -> FiniteSemigroup:
    """Constant product x*y = 0."""
    if n < 1:
        raise BadParams("null semigroup needs n >= 1")
    table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return FiniteSemigroup(table=table, name=f"null{n}")


def left_zero(n: int) -> FiniteSemigroup:
    """x*y = x."""
    if n < 1:
        raise BadParams("left zero semigroup needs n >= 1")
    table = tuple(tuple(x for _ in range(n)) for x in range(n))
    return FiniteSemigroup(table=table, name=f"leftzero{n}")


# One-line notations in lexicographic order; index 0 is the identity.
_S3_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def symmetric_group_3() -> FiniteSemigroup:
    """S3 as permutations of {0,1,2} in lexicographic one-line order.

    Product x*y is the composition "apply y first, then x", i.e.
    (x*y)(i) = perm_x[perm_y[i]].
    """
    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    table = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in _S3_PERMS) for p in _S3_PERMS
    )
    return FiniteSemigroup(table=table, name="S3")


def s3_inversion() -> InvolutiveMorphism:
    """x -> x^(-1) on S3, an involutive anti-automorphism."""
    sg = symmetric_group_3()
    inv = []
    for x in sg.elements():
        inv.append(next(y for y in sg.elements() if sg.mul(x, y) == 0 and sg.mul(y, x) == 0))
    return InvolutiveMorphism(map=tuple(inv), kind=MorphismKind.ANTI_AUTOMORPHISM)


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product; pair (x, y) gets index x * b.n + y."""
    nb = b.n
    table = tuple(
        tuple(a.mul(x1, x2) * nb + b.mul(y1, y2) for x2 in a.elements() for y2 in b.elements())
        for x1 in a.elements()
        for y1 in b.elements()
    )
    name = None
    if a.name and b.name:
        name = f"{a.name}x{b.name}"
    return FiniteSemigroup(table=table, name=name)


def _census_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative Cayley table on 0..n-1, in lexicographic order, with
    no cap: the trail search over the cells in row-major order.

    A choice clashes when some triple whose four products (xy, (xy)z, yz
    and x(yz)) are all set is not associative. Only the triples that read
    the new cell are checked, since the others were checked before.
    """
    def forces(cells: list, trail: list[int], pending: list, i: int, v: int) -> bool:
        x, y = divmod(i, n)
        triples = [(x, y, z) for z in range(n)] + [(z, x, y) for z in range(n)]  # the new cell as ab, bc
        triples += [(*divmod(j, n), y) for j in trail if cells[j] == x]  # as (ab)c
        triples += [(x, *divmod(j, n)) for j in trail if cells[j] == y]  # as a(bc)
        for a, b, c in triples:
            ab, bc = cells[a * n + b], cells[b * n + c]
            if ab is not None and bc is not None:
                left, right = cells[ab * n + c], cells[a * n + bc]
                if left is not None and right is not None and left != right:
                    return False
        return True

    tables = _trail_search(range(n * n), [range(n)] * (n * n), forces)
    return [tuple(cells[x * n:(x + 1) * n] for x in range(n)) for cells in tables]


def enumerate_all_semigroups(n: int) -> Iterator[FiniteSemigroup]:
    """Every associative Cayley table on 0..n-1, in lexicographic table order.

    Labeled census (no isomorphism reduction): 1 table for n=1, 8 for
    n=2, 113 for n=3. Raises TooLarge past MAX_CENSUS_ORDER.
    """
    if n < 1:
        raise BadParams("census needs n >= 1")
    if n > MAX_CENSUS_ORDER:
        raise TooLarge(f"census caps at order {MAX_CENSUS_ORDER}, got {n}")
    yield from map(FiniteSemigroup, _census_tables(n))
