"""Racks, their automorphisms, the groups they generate and conjugation.

A rack is realized by conjugation in the group its own left translations
generate.  The paper's rack is the affine rack (Z_3, 2) with i |> j = 2i - j,
realized in S_3 as the conjugation action on transpositions.  Every group
axiom, the rack compatibility and every canonical word are checked
exhaustively at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product


@dataclass(frozen=True)
class RackData:
    """A finite rack as an operation table t[i][j] = i |> j."""

    size: int
    table: tuple

    def __post_init__(self):
        n = self.size
        for i in range(n):
            if sorted(self.table[i]) != list(range(n)):
                raise ValueError(f"left translation by {i} is not a bijection")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.act(i, self.act(j, k)) != self.act(self.act(i, j), self.act(i, k)):
                        raise ValueError(f"self-distributivity fails at ({i},{j},{k})")

    def act(self, i: int, j: int) -> int:
        return self.table[i][j]

    def orbit(self, i: int, j: int) -> tuple:
        """The orbit of (i, j) under the bijection (a, b) -> (a |> b, a) of
        index pairs, walked from (i, j): in (Z_3, 2), (i, j), (i |> j, i),
        (j, i |> j) for i != j, and (i, i) alone."""
        walk, (a, b) = [(i, j)], (self.table[i][j], i)
        while (a, b) != (i, j):
            walk.append((a, b))
            a, b = self.table[a][b], a
        return tuple(walk)


@lru_cache(maxsize=None)
def dihedral_rack() -> RackData:
    """The affine rack (Z_3, 2): i |> j = (2i - j) mod 3, one cached instance."""
    table = tuple(tuple((2 * i - j) % 3 for j in range(3)) for i in range(3))
    return RackData(3, table)


def rack_automorphisms(r: RackData) -> list[tuple]:
    """All permutations preserving |>, each as the tuple of images of
    0 .. size-1, by brute force over the symmetric group."""
    return [perm for perm in permutations(range(r.size))
            if all(perm[r.act(i, j)] == r.act(perm[i], perm[j])
                   for i in range(r.size) for j in range(r.size))]


class GroupTable:
    """A finite group as a multiplication table with rack-indexed elements.

    Element 0 is the identity.  ``distinguished[i]`` is the element g_i, and
    ``words[e]`` is a canonical factorization of element e into rack
    generators (shortest first, then lexicographic).  Construction validates
    the group axioms exhaustively and the compatibility
    g_i g_j g_i^{-1} = g_{i |> j}.
    """

    def __init__(self, order: int, table, distinguished, words, rack: RackData):
        self.order = order
        self.table = tuple(tuple(row) for row in table)
        self.identity = 0
        self.distinguished = tuple(distinguished)
        self.words = tuple(tuple(w) for w in words)
        self.rack = rack
        inv = [-1] * order
        for a in range(order):
            for b in range(order):
                if self.table[a][b] == 0:
                    inv[a] = b
        self.inverse = tuple(inv)
        self._validate()

    def _validate(self) -> None:
        n = self.order
        t = self.table
        for a in range(n):
            if t[0][a] != a or t[a][0] != a:
                raise ValueError("identity axiom fails")
        for a, b, c in product(range(n), repeat=3):
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise ValueError(f"associativity fails at ({a},{b},{c})")
        for a in range(n):
            if self.inverse[a] < 0 or t[a][self.inverse[a]] != 0:
                raise ValueError(f"no inverse for element {a}")
        for i in range(self.rack.size):
            gi = self.distinguished[i]
            for j in range(self.rack.size):
                gj = self.distinguished[j]
                conj = t[t[gi][gj]][self.inverse[gi]]
                if conj != self.distinguished[self.rack.act(i, j)]:
                    raise ValueError(f"rack compatibility fails at ({i},{j})")
        for e in range(n):
            if self.element_of_word(self.words[e]) != e:
                raise ValueError(f"canonical word of element {e} is wrong")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_of_word(self, word) -> int:
        e = 0
        for i in word:
            e = self.table[e][self.distinguished[i]]
        return e

    def name(self, e: int) -> str:
        if e == self.identity:
            return "e"
        return "".join(f"g{i}" for i in self.words[e])

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "order": self.order,
            "identity": self.identity,
            "table": [list(row) for row in self.table],
            "inverse": list(self.inverse),
            "distinguished": {str(i): g for i, g in enumerate(self.distinguished)},
            "names": [self.name(e) for e in range(self.order)],
        }


@lru_cache(maxsize=None)
def translation_group(rack: RackData) -> GroupTable:
    """The group generated by the left translations g_i = phi_i: j -> i |> j,
    built once per rack; g_i g_j g_i^{-1} = g_{i |> j} is self-distributivity.
    Two equal translations raise ValueError.  Elements are numbered
    breadth-first from the identity, right-multiplying by phi_0, phi_1, ...;
    an element's word is its parent's plus the generator: already shortlex.
    """
    gens = rack.table
    if len(set(gens)) != rack.size:
        raise ValueError("two left translations coincide")

    def compose(p, q):
        return tuple(p[k] for k in q)

    elements, words = [tuple(range(rack.size))], [()]
    index = {elements[0]: 0}
    for p, word in zip(elements, words):
        for i, phi in enumerate(gens):
            q = compose(p, phi)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
                words.append(word + (i,))
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    distinguished = [index[phi] for phi in gens]
    return GroupTable(len(elements), table, distinguished, words, rack)


def s3_quotient() -> GroupTable:
    """The order-6 quotient < g_i | g_i g_j = g_{i |> j} g_i, g_0^2 = 1 > of
    the enveloping group of (Z_3, 2), as the translation group of that rack.

    Every g_i is conjugate to the involution g_0 (g_2 g_0 g_2^{-1} = g_1,
    g_1 g_0 g_1^{-1} = g_2), and with a = g_0, b = g_2, g_0 g_2 g_0 = g_1 =
    g_2 g_0 g_2 gives (ab)^3 = 1: a quotient of S_3.  The translations meet
    the relations and generate 6 elements, so g_i -> phi_i is an isomorphism.
    """
    return translation_group(dihedral_rack())


def conjugation_action(g: int, i: int, group: GroupTable) -> int:
    """The unique j with g g_i g^{-1} = g_j."""
    conj = group.mul(group.mul(g, group.distinguished[i]), group.inv(g))
    if conj not in group.distinguished:
        raise ValueError(f"conjugate of g_{i} by element {g} leaves the distinguished class")
    return group.distinguished.index(conj)
