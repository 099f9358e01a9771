"""Racks, their automorphisms, enveloping-group quotients and conjugation.

The only rack that matters downstream is the affine rack (Z_3, 2) with
i |> j = 2i - j, realized in S_3 as the conjugation action on transpositions.
The finite quotient group is built by coset enumeration over its presentation
rather than from hand-coded permutations, and every group axiom is checked
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


@dataclass(frozen=True)
class RackAutomorphism:
    """A permutation of rack indices preserving the operation."""

    perm: tuple

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def inverse(self) -> "RackAutomorphism":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return RackAutomorphism(tuple(inv))


def dihedral_rack() -> RackData:
    """The affine rack (Z_3, 2): i |> j = (2i - j) mod 3."""
    table = tuple(tuple((2 * i - j) % 3 for j in range(3)) for i in range(3))
    return RackData(3, table)


def rack_automorphisms(r: RackData) -> list[RackAutomorphism]:
    """All permutations preserving |>, by brute force over the symmetric group."""
    out = []
    for perm in permutations(range(r.size)):
        if all(perm[r.act(i, j)] == r.act(perm[i], perm[j])
               for i in range(r.size) for j in range(r.size)):
            out.append(RackAutomorphism(perm))
    return out


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

def _coset_enumeration(ngens: int, relators: list, max_cosets: int):
    """Enumerate the cosets of the trivial subgroup for a group presentation.

    Relators are tuples of signed generator letters (2k for g_k, 2k+1 for its
    inverse).  Returns the transition table of live cosets under the 2*ngens
    letters, with coset 0 the identity.  Raises if more than ``max_cosets``
    cosets get defined.
    """
    nletters = 2 * ngens
    labels: list[int] = []
    neighbors: list[list[int]] = []
    live = 0

    def new_coset() -> int:
        nonlocal live
        live += 1
        if live > max_cosets or len(labels) >= 64 * max_cosets:
            raise CosetLimitError(f"coset enumeration exceeded {max_cosets} live cosets")
        labels.append(len(labels))
        neighbors.append([-1] * nletters)
        return len(labels) - 1

    def find(c: int) -> int:
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def unify(c1: int, c2: int) -> None:
        nonlocal live
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            live -= 1
            for letter in range(nletters):
                n1 = neighbors[a][letter]
                n2 = neighbors[b][letter]
                if n1 == -1:
                    neighbors[a][letter] = n2
                elif n2 != -1:
                    queue.append((n1, n2))

    def follow(c: int, letter: int) -> int:
        c = find(c)
        d = neighbors[c][letter]
        if d == -1:
            d = new_coset()
            neighbors[c][letter] = d
            neighbors[d][letter ^ 1] = c
        return find(d)

    new_coset()
    visited = 0
    while visited < len(labels):
        c = visited
        visited += 1
        if find(c) != c:
            continue
        for rel in relators:
            end = c
            for letter in rel:
                end = follow(end, letter)
            unify(end, c)

    live = sorted({find(c) for c in range(len(labels)) if find(c) == c})
    index = {c: i for i, c in enumerate(live)}
    table = []
    for c in live:
        row = []
        for letter in range(nletters):
            d = neighbors[c][letter]
            if d == -1:
                raise RuntimeError("incomplete coset table")
            row.append(index[find(d)])
        table.append(row)
    return table


class CosetLimitError(RuntimeError):
    """The enumeration grew past its hard cap."""


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

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


def _group_from_cosets(rack: RackData, coset_table) -> GroupTable:
    order = len(coset_table)
    # BFS over generator edges gives shortest-lex canonical words
    words: list = [None] * order
    words[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rack.size):
                d = coset_table[c][2 * i]
                if words[d] is None:
                    words[d] = words[c] + (i,)
                    nxt.append(d)
        frontier = nxt
    if any(w is None for w in words):
        raise RuntimeError("generators do not generate: unreachable coset")

    # renumber elements in shortlex order of their canonical words
    by_word = sorted(range(order), key=lambda c: (len(words[c]), words[c]))
    index = {c: i for i, c in enumerate(by_word)}

    def walk(c, word):
        for i in word:
            c = coset_table[c][2 * i]
        return c

    table = [[index[walk(by_word[a], words[by_word[b]])] for b in range(order)]
             for a in range(order)]
    distinguished = [index[coset_table[0][2 * i]] for i in range(rack.size)]
    sorted_words = [words[c] for c in by_word]
    return GroupTable(order, table, distinguished, sorted_words, rack)


@lru_cache(maxsize=None)
def s3_quotient() -> GroupTable:
    """The order-6 quotient of the enveloping group of (Z_3, 2).

    Built by coset enumeration over
    < g_0, g_1, g_2 | g_i g_j = g_{i |> j} g_i,  g_0^2 = 1 >
    with a hard cap of 24 cosets.
    """
    rack = dihedral_rack()
    relators = []
    for i in range(rack.size):
        for j in range(rack.size):
            if i == j:
                continue
            # g_i g_j g_i^{-1} g_{i|>j}^{-1}
            relators.append((2 * i, 2 * j, 2 * i + 1, 2 * rack.act(i, j) + 1))
    relators.append((0, 0))
    cosets = _coset_enumeration(rack.size, relators, max_cosets=24)
    return _group_from_cosets(rack, cosets)


def conjugation_action(g: int, i: int, group: GroupTable) -> int:
    """The unique j with g g_i g^{-1} = g_j."""
    conj = group.mul(group.mul(g, group.distinguished[i]), group.inv(g))
    for j in range(group.rack.size):
        if group.distinguished[j] == conj:
            return j
    raise ValueError(f"conjugate of g_{i} by element {g} leaves the distinguished class")
