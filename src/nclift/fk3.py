"""The rank-three quadratic algebra over GF(2) and its deformations.

Builds the quadratic relation ideal on three generators indexed by (Z_3, 2),
the deformed quotients L (group-term deformation) and A (constant-term
deformation) over the order-6 group, the completion-derived cubic rule, and
bijectivity certificates for the two Galois maps between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from operator import xor
from typing import Callable, Sequence

from .ncpoly import Alphabet, F2, Field, NcPoly, xdeglex_key
from .rewrite import (
    CONFLUENT,
    CompletionReport,
    Presentation,
    ReductionSystem,
    rank_f2,
)
from .fulcrum import (
    BOSONIZATION,
    ORBIT_TRIPLES,
    FulcrumPresentation,
    LambdaCheck,
    LambdaMatrix,
    T_LAMBDA,
    T_PRIME_LAMBDA,
    as_entries,
    check_skew_primitive,
    fulcrum_alphabet,
    letter_images,
    s3_violations,
    standard_yd_data,
    unannihilated_relations,
    validate_lambda,
    word_image,
)

ONE_BASED = "one_based"          # source indices 1,2,3 read as 0,1,2
THREE_AS_ZERO = "three_as_zero"  # source index 3 read as 0, indices 1,2 kept
CONVENTIONS = (ONE_BASED, THREE_AS_ZERO)

#: the dimension of every valid deformed quotient and of its Galois bases
QUOTIENT_DIM = 72


def relation_orbit_reps() -> tuple:
    """Representatives of the index pairs under (i,j) ~ (i|>j, i) ~ (j, i|>j):
    the least pair of each orbit, row-major."""
    return tuple((i, j) for i, j, k in ORBIT_TRIPLES if (i, j) <= min((k, i), (j, k)))


def quadratic_relation_terms(i: int, j: int) -> list:
    """Word list of x_i x_j + x_{i|>j} x_i + x_j x_{i|>j}: the orbit of (i, j)
    in order."""
    k = ORBIT_TRIPLES[3 * i + j][2]
    return [(i, j), (k, i), (j, k)]


def module_alphabet() -> Alphabet:
    return Alphabet.from_parts([f"x{i}" for i in range(3)])


def quadratic_relation(alphabet: Alphabet, field: Field, i: int, j: int) -> NcPoly:
    """R_{i,j}: the square x_i x_i when i = j, else the sum of the words of
    the orbit of (i, j)."""
    if i == j:
        return NcPoly.term(alphabet, field, (i, i))
    return NcPoly.from_terms(alphabet, field,
                             [(w, field.one) for w in quadratic_relation_terms(i, j)])


def fk3_relations() -> list[NcPoly]:
    """The five quadratic relations over F2 (three squares, two mixed orbits)."""
    alpha = module_alphabet()
    return [quadratic_relation(alpha, F2, i, j) for i, j in relation_orbit_reps()]


@lru_cache(maxsize=None)
def nichols_report() -> CompletionReport:
    """The completed quadratic ideal; its ``dimension()`` must be 12."""
    return Presentation(module_alphabet(), F2, fk3_relations()).complete()


# ---------------------------------------------------------------------------
# mu matrices
# ---------------------------------------------------------------------------

#: (i, j, k, k|>i, k|>j) for every index triple, row-major: the joint constraints
_JOINT = tuple((i, j, k, ORBIT_TRIPLES[3 * k + i][2], ORBIT_TRIPLES[3 * k + j][2])
               for i in range(3) for j in range(3) for k in range(3))


@lru_cache(maxsize=None)
def _joint_rhs(lam: LambdaMatrix) -> tuple:
    """lambda's side of the joint constraint, one value per index triple
    (i, j, k) in row-major order."""
    f = lam.field
    lamv = lam.entries
    out = []
    for i, j, ij in ORBIT_TRIPLES:
        for k in range(3):
            out.append(f.add(
                f.mul(lamv[k][i], f.add(lamv[k][ij], lamv[i][j])),
                f.add(
                    f.mul(lamv[k][j], f.add(lamv[k][i], lamv[j][ij])),
                    f.mul(lamv[k][ij], f.add(lamv[k][j], lamv[ij][i])),
                ),
            ))
    return tuple(out)


def validate_mu(m: Sequence[Sequence], lam: LambdaMatrix) -> LambdaCheck:
    """Accept m iff the orbit identities mu_{i,j} = mu_{i|>j,i} = mu_{j,i|>j}
    and all 27 instances of the joint constraint with lambda hold.
    Violations list the orbit pairs, then the joint triples, row-major."""
    f = lam.field
    e = as_entries(m, f)
    violations = [("orbit", i, j) for i, j, k in ORBIT_TRIPLES
                  if not (e[i][j] == e[k][i] == e[j][k])]
    violations += [("joint", i, j, k)
                   for (i, j, k, ki, kj), rhs in zip(_JOINT, _joint_rhs(lam))
                   if f.add(e[i][j], e[ki][kj]) != rhs]
    if violations:
        return LambdaCheck(False, None, violations)
    return LambdaCheck(True, LambdaMatrix(e, f), [])


# ---------------------------------------------------------------------------
# deformed quotients
# ---------------------------------------------------------------------------

def linear_correction(alphabet: Alphabet, lam: LambdaMatrix, i: int, j: int) -> NcPoly:
    """r_{i,j} = lambda_{i,j} x_i + lambda_{i|>j,i} x_{i|>j} + lambda_{j,i|>j} x_j:
    lambda_{a,b} x_a over the orbit of (i, j) in order."""
    items = [((a,), lam[a, b]) for a, b in quadratic_relation_terms(i, j)]
    return NcPoly.from_terms(alphabet, lam.field, items)


def deformed_relation(pres: FulcrumPresentation, lam: LambdaMatrix, i: int, j: int,
                      mu_ij, group_term: bool) -> NcPoly:
    """R_{i,j} + r_{i,j} + mu_{i,j} (1 + g_i g_j), or with constant mu term
    only, for the value mu_ij of mu_{i,j}."""
    f = lam.field
    rel = (quadratic_relation(pres.alphabet, f, i, j)
           + linear_correction(pres.alphabet, lam, i, j))
    if mu_ij != f.zero:
        rel = rel + NcPoly.term(pres.alphabet, f, (), mu_ij)
        if group_term:
            G = pres.yd.group
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            rel = rel + NcPoly.term(pres.alphabet, f, pres.group_word(gij), mu_ij)
    return rel


@lru_cache(maxsize=None)
def flavor_presentation(lam: LambdaMatrix, flavor: str) -> FulcrumPresentation:
    """The flavor's presentation for lambda: the algebra every deformed
    quotient of that flavor is taken of.  Cached, so that its frozen rules
    (``system()``) and its completion are each built once."""
    return FulcrumPresentation(flavor, standard_yd_data(), lam)


@lru_cache(maxsize=None)
def _relation_table(lam: LambdaMatrix, flavor: str) -> tuple:
    """The flavor's deformed relations for lambda, one pair per index pair
    (i, j), row-major: the relation for mu_{i,j} = 0, then for mu_{i,j} = 1.
    Built once per (lambda, flavor) and shared, so never changed in place."""
    pres = flavor_presentation(lam, flavor)
    f = lam.field
    return tuple(tuple(deformed_relation(pres, lam, i, j, v, flavor == T_LAMBDA)
                       for v in (f.zero, f.one))
                 for i in range(3) for j in range(3))


def deformed_relations(lam: LambdaMatrix, mu: LambdaMatrix, flavor: str) -> list[NcPoly]:
    """The nine deformed relations of the flavor's quotient, one per index
    pair, row-major.  All nine generate the ideal: for valid mu the three
    relations of an orbit coincide, for invalid mu their differences are
    exactly what collapses the quotient.  Each relation is built once per
    (lambda, flavor, i, j, mu_{i,j}) and shared by every mu with that entry;
    an F2 value of mu_{i,j}, 0 or 1, indexes its pair in the table."""
    e = mu.entries
    return [pair[v] for pair, v in zip(_relation_table(lam, flavor), e[0] + e[1] + e[2])]


@lru_cache(maxsize=None)
def _build_quotient(lam: LambdaMatrix, mu: LambdaMatrix, flavor: str) -> CompletionReport:
    """The flavor's presentation followed by the nine deformed relations,
    completed.  lambda must be valid for the presentation to exist at all;
    mu is taken as-is, so that invalid choices can be seen to collapse the
    quotient.

    The deformed relations, each built once per (lambda, flavor, i, j,
    mu_{i,j}), extend the cached base rules.  That is exactly the system of
    all the relations at once, since inter-reducing a flavor's rules changes
    none of them (tests/test_fk3.py checks this for every base).  The base
    holds the outcome of each relation in each state the inserts reach, so
    the 512 mu of a census reduce a relation once per distinct state, not
    once per mu, and many mu add the same rules and share one completion.
    """
    base = flavor_presentation(lam, flavor).system()
    return base.completion_with(deformed_relations(lam, mu, flavor))


def build_lifting(lam: LambdaMatrix, mu: LambdaMatrix) -> CompletionReport:
    """The quotient of T_lambda by the five deformed relations, completed."""
    return _build_quotient(lam, mu, T_LAMBDA)


def build_cleft(lam: LambdaMatrix, mu: LambdaMatrix) -> CompletionReport:
    """The quotient of T'_lambda by the constant-deformed relations, completed."""
    return _build_quotient(lam, mu, T_PRIME_LAMBDA)


def bosonization_build() -> CompletionReport:
    """The undeformed quotient (zero lambda and mu over the bosonization rules)."""
    return _build_quotient(zero_lambda(), zero_mu(), BOSONIZATION)


# ---------------------------------------------------------------------------
# bitstring codecs (row-major, 0/1 characters)
# ---------------------------------------------------------------------------

def matrix_from_bits(bits: str) -> list:
    if len(bits) != 9 or any(c not in "01" for c in bits):
        raise ValueError(f"expected 9 bits, got {bits!r}")
    vals = [int(c) for c in bits]
    return [vals[0:3], vals[3:6], vals[6:9]]


def lambda_from_bits(bits: str) -> LambdaMatrix:
    check = validate_lambda(matrix_from_bits(bits))
    if not check.ok:
        raise ValueError(f"invalid lambda bits {bits}: violations {check.violations[:3]}")
    return check.matrix


def mu_from_bits(bits: str, lam: LambdaMatrix) -> LambdaMatrix:
    check = validate_mu(matrix_from_bits(bits), lam)
    if not check.ok:
        raise ValueError(f"invalid mu bits {bits}: violations {check.violations[:3]}")
    return check.matrix


def mu_unchecked(entries: Sequence[Sequence]) -> LambdaMatrix:
    """A mu matrix over F2 without constraint checking, for collapse experiments."""
    return LambdaMatrix(as_entries(entries, F2), F2)


def zero_lambda() -> LambdaMatrix:
    return validate_lambda([[0] * 3] * 3).matrix


def zero_mu() -> LambdaMatrix:
    return validate_mu([[0] * 3] * 3, zero_lambda()).matrix


# ---------------------------------------------------------------------------
# the derived cubic rule
# ---------------------------------------------------------------------------

def derived_cubic_relation(lam: LambdaMatrix, mu: LambdaMatrix) -> NcPoly:
    """The degree-3 rule produced by completing the constant-deformed quotient,
    as a monic relation polynomial."""
    build = build_cleft(lam, mu)
    if build.status != CONFLUENT:
        raise RuntimeError(f"cleft completion failed: {build.status}")
    cubic = [r for r in build.system.rules() if len(r.lead) == 3]
    if len(cubic) != 1:
        raise RuntimeError(f"expected one degree-3 rule, found {len(cubic)}")
    return cubic[0].as_poly()


def cubic_formula(lam: LambdaMatrix, mu: LambdaMatrix, convention: str = ONE_BASED) -> NcPoly:
    """Closed form of the degree-3 relation in the deformation parameters.

    The closed form is stated with generators indexed 1, 2, 3 while
    everything here is indexed by Z_3; ``convention`` selects how the two
    labelings line up.  The one-based reading is the one that matches
    completion output (see resolve_cubic_convention).
    """
    if convention == ONE_BASED:
        sigma = {1: 0, 2: 1, 3: 2}
    elif convention == THREE_AS_ZERO:
        sigma = {1: 1, 2: 2, 3: 0}
    else:
        raise ValueError(f"unknown convention {convention!r}")
    f = lam.field
    pad = fulcrum_alphabet(standard_yd_data().group, "y")

    def L(a, b):
        return lam[sigma[a], sigma[b]]

    def M(a, b):
        return mu[sigma[a], sigma[b]]

    y = {a: sigma[a] for a in (1, 2, 3)}
    quad = f.add(L(2, 1), L(1, 2))
    lin2 = f.add(f.mul(L(1, 2), L(2, 1)), f.add(M(3, 3), f.add(M(1, 1), M(1, 2))))
    lin1 = f.add(f.mul(L(1, 2), L(2, 1)), f.add(M(3, 3), f.add(M(2, 2), M(1, 2))))
    const = f.add(f.mul(L(2, 1), f.add(M(2, 2), M(1, 2))),
                  f.mul(L(1, 2), f.add(M(1, 1), M(1, 2))))
    items = [
        ((y[2], y[1], y[2]), f.one),
        ((y[1], y[2], y[1]), f.neg(f.one)),
        ((y[2], y[1]), f.neg(quad)),
        ((y[1], y[2]), f.neg(quad)),
        ((y[2],), f.neg(lin2)),
        ((y[1],), f.neg(lin1)),
        ((), f.neg(const)),
    ]
    return NcPoly.from_terms(pad, f, items)


def resolve_cubic_convention() -> str:
    """The index convention under which the closed form reproduces the
    completion-derived rule: always the one-based reading.  ``certify``
    compares each pair's derived rule with the formula under it, and the
    tests show that the other reading fails."""
    return ONE_BASED


# ---------------------------------------------------------------------------
# skew-primitivity
# ---------------------------------------------------------------------------

def skew_primitivity(lam: LambdaMatrix, mu: LambdaMatrix) -> dict:
    """For each representative (i,j): is the full deformed relation
    (1, g_i g_j)-skew-primitive inside T_lambda?  In characteristic 2 the
    constant-plus-group part is itself skew-primitive, so this holds exactly
    when the quadratic-plus-linear core does.  The relations are the shared
    ones of ``deformed_relations``, which the quotient L is built from."""
    pres = flavor_presentation(lam, T_LAMBDA)
    table = _relation_table(lam, T_LAMBDA)
    G = pres.yd.group
    out = {}
    for i, j in relation_orbit_reps():
        rel = table[3 * i + j][mu[i, j]]
        gij = G.mul(G.distinguished[i], G.distinguished[j])
        out[(i, j)] = check_skew_primitive(pres, rel, gij)
    return out


# ---------------------------------------------------------------------------
# Galois certificates
# ---------------------------------------------------------------------------

@dataclass
class GaloisCertificate:
    rank_right: int
    rank_left: int
    dimension: int
    basis_cleft: list
    basis_lifting: list
    basis_bosonization: list

    @property
    def full(self) -> int:
        return self.dimension * self.dimension

    @property
    def bijective(self) -> bool:
        return self.rank_right == self.full and self.rank_left == self.full


def _verified_basis(build: CompletionReport) -> list:
    if build.status != CONFLUENT:
        raise ValueError(f"build is not confluent: {build.status}")
    words = build.basis()
    if len(words) != QUOTIENT_DIM:
        raise ValueError(f"expected dimension {QUOTIENT_DIM}, found {len(words)}")
    return words


def _mapped(bits: int, m: list) -> int:
    """The bitset ``bits`` mapped through ``m``: the XOR of row k of ``m``
    over the bits k set in ``bits``."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= m[low.bit_length() - 1]
        bits ^= low
    return acc


class _Products:
    """Structure constants of an algebra over F2 in an irreducible-word
    basis, each line composed on first use.

    The product of basis words u and v is NF(u v) as a bitset over basis
    positions (bit k set when basis[k] occurs).  Everything comes from the
    regular representation: row k of the right-multiplication matrix M_a
    is NF(basis[k] a), one ``_nf_times`` step per basis word (a normal
    word times one letter), and M_a is built the first time a line needs
    the letter a.  The column of basis word v, NF(u v) for every u, is the
    identity for v = () and the column of v' mapped through M_a for
    v = v' a; columns are kept.  The row of
    basis word u, NF(u w) for every w, is composed the same way along the
    prefixes of each w, from the bit of u.

    ``system`` must be confluent and ``basis`` its irreducible words: then
    normal forms are multiplicative, NF(u v' a) = NF(NF(u v') a), and the
    basis is prefix-closed.  A nonempty basis word whose prefix is not in
    ``basis`` raises ValueError.  Lines are shared: never change one.
    """

    def __init__(self, system: ReductionSystem, basis: list):
        if system.field != F2:
            raise ValueError("product tables are bitsets over F2")
        idx = {w: k for k, w in enumerate(basis)}
        for v in basis:
            if v and v[:-1] not in idx:
                raise ValueError(f"basis is not prefix-closed: {v[:-1]} is missing")
        self._system, self._basis, self._idx = system, basis, idx
        # prefixes first: irreducible words come by length, other bases may not
        self._by_length = sorted(basis, key=len)
        self._right: dict = {}          # letter a -> M_a
        self._columns: dict = {(): [1 << k for k in range(len(basis))]}

    def _times(self, a: int) -> list:
        m = self._right.get(a)
        if m is None:
            idx, nf_times = self._idx, self._system._nf_times
            m = self._right[a] = [sum(1 << idx[w] for w in nf_times(u, a))
                                  for u in self._basis]
        return m

    def _column(self, v: tuple) -> list:
        column = self._columns.get(v)
        if column is None:
            m = self._times(v[-1])
            column = self._columns[v] = [_mapped(e, m) for e in self._column(v[:-1])]
        return column

    def column(self, k: int) -> list:
        """NF(u basis[k]) for every basis word u, in basis order."""
        return self._column(self._basis[k])

    def row(self, k: int) -> list:
        """NF(basis[k] w) for every basis word w, in basis order."""
        entries = {(): 1 << k}
        for w in self._by_length:
            if w:
                entries[w] = _mapped(entries[w[:-1]], self._times(w[-1]))
        return [entries[w] for w in self._basis]

    def table(self) -> list:
        """The full table from every column: entry [i][j] is
        NF(basis[i] basis[j])."""
        return [list(row) for row in zip(*map(self.column, range(len(self._basis))))]


def _block_positions(basis: list, alphabet: Alphabet) -> dict:
    """Each basis word's column block: its place in xdeglex order."""
    ordered = sorted(basis, key=lambda w: xdeglex_key(w, alphabet))
    return {w: k for k, w in enumerate(ordered)}


def _image_blocks(terms) -> list:
    """(A basis position, block) pairs grouped by block, top block first."""
    blocks: dict = {}
    for a, block in terms:
        blocks.setdefault(block, []).append(a)
    return sorted(blocks.items(), reverse=True)


def _built_row(blocks: list, n: int, entries: Sequence[int]) -> int:
    """One Galois row: block b is the XOR of ``entries[a]`` over the
    positions a in b, shifted by b * n."""
    row = 0
    for block, positions in blocks:
        bits = 0
        for a in positions:
            bits ^= entries[a]
        row |= bits << block * n
    return row


def _galois_rank(images: list, line: Callable[[int], list], tables: Callable[[], Sequence],
                 n: int) -> int:
    """Rank of the Galois map with one row per (coaction image, table of
    entries), n tables of n entries, each image given by its
    ``_image_blocks``.  ``line(a)`` is entry a of every table, in table
    order, and ``tables()`` the tables themselves.  The rank comes from the
    diagonal blocks, each the XOR of the lines at its positions, where they
    prove full rank (see ``galois_certificate``); only otherwise are the
    tables built and every row eliminated."""
    tops = [blocks[0] for blocks in images if blocks]
    if len(tops) == len(images) and len({block for block, _ in tops}) == len(tops):
        diagonals = {frozenset(positions): positions for _, positions in tops}
        ranks = (rank_f2([reduce(xor, bits) for bits in zip(*map(line, positions))], n)
                 for positions in diagonals.values())
        if all(rank == n for rank in ranks):
            return n * len(images)
    return rank_f2([_built_row(blocks, n, entries) for blocks in images for entries in tables()],
                   n * n)


def galois_certificate(lam: LambdaMatrix, mu: LambdaMatrix) -> GaloisCertificate:
    """Ranks of the two Galois maps on the constant-deformed quotient.

    kappa_r: A (x) A -> A (x) B, a (x) b -> a b_(0) (x) b_(1) and
    kappa_l: A (x) A -> L (x) A, a (x) b -> a_(-1) (x) a_(0) b, both expanded
    in the frozen irreducible-word bases; bijectivity is rank dim^2.

    The images of the basis words come from ``word_image``, on one memo
    per coaction that the descent check (``unannihilated_relations``) fills
    first; each letter step is formed in normal form, so no image is
    reduced after the fact.  Every product in A comes from one
    ``_Products`` of ``basis_a``, its matrices M_a from ``_nf_times``.
    Columns come in dim-bit blocks, one per B word for kappa_r (each block
    holds the products a b_(0), over the A basis) and one per L word for
    kappa_l; the blocks are ordered by the xdeglex key of that outer word, so
    an image's term with the most module letters lands in its top block.

    The rank comes from the block-triangular shape of the map.  The rows of
    image k are zero in every block above its top block T_k, and on T_k they
    form the diagonal block D_k: the table entries at T_k's A positions, a
    single group element on the paper's pairs, so D_k is right (kappa_r) or
    left (kappa_l) multiplication by it.  Restricted to the columns of the
    top blocks, with the images sorted by T_k, the matrix is block
    triangular with diagonal blocks D_k.  So when the T_k are distinct and
    every D_k has full row rank, the rows are independent and the rank is
    dim * (number of images), with one ``rank_f2`` call per distinct D_k:
    six per map, 72 rows each, on the paper's pairs.  D_k is the XOR of the
    product columns (kappa_r) or rows (kappa_l) at T_k's A positions, so on
    the paper's pairs a certificate composes the columns and the rows of
    six group elements; only the fallback, where every row is built and
    eliminated, composes the full table.  Ordering the columns differently
    does not change the rank.
    """
    if lam.field != F2:
        raise ValueError("Galois certificates are computed over F2")
    A = build_cleft(lam, mu)
    L = build_lifting(lam, mu)
    B = bosonization_build()
    basis_a = _verified_basis(A)
    basis_l = _verified_basis(L)
    basis_b = _verified_basis(B)
    idx_a = {w: n for n, w in enumerate(basis_a)}
    n = QUOTIENT_DIM
    a_sys, l_sys, b_sys = A.system, L.system, B.system

    prime = flavor_presentation(lam, T_PRIME_LAMBDA)
    relations = prime.relations + deformed_relations(lam, mu, T_PRIME_LAMBDA)
    degrees = prime.degree_words()
    imgs_r = letter_images(a_sys.alphabet, b_sys.alphabet, F2, degrees)
    imgs_l = letter_images(l_sys.alphabet, a_sys.alphabet, F2, degrees)
    rho = {}
    for side, imgs, left_sys, right_sys in (("right", imgs_r, a_sys, b_sys),
                                            ("left", imgs_l, l_sys, a_sys)):
        # one memo per coaction: the descent check and the basis images
        # share their prefixes
        memo: dict = {}
        failed = unannihilated_relations(relations, imgs, left_sys, right_sys, _memo=memo)
        if failed:
            raise ValueError(f"{side} coaction does not descend on: {failed[0]}")
        rho[side] = [word_image(w, imgs, left_sys, right_sys, memo) for w in basis_a]

    prod = _Products(a_sys, basis_a)
    pos_b = _block_positions(basis_b, b_sys.alphabet)
    pos_l = _block_positions(basis_l, l_sys.alphabet)
    blocks_r = [_image_blocks((idx_a[aw], pos_b[bw]) for aw, bw in image.terms)
                for image in rho["right"]]
    blocks_l = [_image_blocks((idx_a[aw], pos_l[lw]) for lw, aw in image.terms)
                for image in rho["left"]]
    # row (image k, table t): kappa_r pairs the image of basis word k with
    # the products u * (.), row u of the table, so its line of position a
    # is column a; kappa_l pairs the image of u = basis word k with the
    # products (.) * w, column w of the table, so its line of a is row a
    rank_r = _galois_rank(blocks_r, prod.column, prod.table, n)
    rank_l = _galois_rank(blocks_l, prod.row, lambda: list(zip(*prod.table())), n)

    return GaloisCertificate(
        rank_right=rank_r,
        rank_left=rank_l,
        dimension=n,
        basis_cleft=[a_sys.alphabet.word_str(w) for w in basis_a],
        basis_lifting=[l_sys.alphabet.word_str(w) for w in basis_l],
        basis_bosonization=[b_sys.alphabet.word_str(w) for w in basis_b],
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class LiftingCertificate:
    lam_bits: str
    mu_bits: str
    group_mode: str
    valid: bool
    dim_lifting: int | None = None
    dim_cleft: int | None = None
    lifting_status: str = ""
    cleft_status: str = ""
    new_rule_count: int = 0
    ambiguities_checked: int = 0
    skew_primitive: dict = dc_field(default_factory=dict)
    cubic_relation: str = ""
    cubic_convention: str = ""
    cubic_matches_formula: bool = False
    galois: GaloisCertificate | None = None

    def to_json(self) -> dict:
        doc = {
            "schema": 1,
            "lambda": self.lam_bits,
            "mu": self.mu_bits,
            "group": self.group_mode,
            "valid": self.valid,
            "dim_lifting": self.dim_lifting,
            "dim_cleft": self.dim_cleft,
            "lifting_status": self.lifting_status,
            "cleft_status": self.cleft_status,
            "new_rule_count": self.new_rule_count,
            "ambiguities_checked": self.ambiguities_checked,
            "skew_primitive": {f"{i},{j}": v for (i, j), v in sorted(self.skew_primitive.items())},
            "cubic_relation": self.cubic_relation,
            "cubic_convention": self.cubic_convention,
            "cubic_matches_formula": self.cubic_matches_formula,
        }
        if self.galois is not None:
            doc["galois"] = {
                "rank_right": self.galois.rank_right,
                "rank_left": self.galois.rank_left,
                "full_rank": self.galois.full,
                "bijective": self.galois.bijective,
                "basis_cleft": self.galois.basis_cleft,
                "basis_lifting": self.galois.basis_lifting,
                "basis_bosonization": self.galois.basis_bosonization,
            }
        return doc


def certify(lam_bits: str, mu_bits: str, group_mode: str = "s3",
            galois: bool = False) -> LiftingCertificate:
    """Full verification pipeline for one parameter pair over the finite group.

    ``group_mode`` accepts only ``"s3"`` (anything else raises ValueError):
    every check runs over the order-6 quotient, and the value only labels
    the certificate's ``"group"`` field."""
    if group_mode != "s3":
        raise ValueError("dimension verification always runs over the finite quotient")
    lam = lambda_from_bits(lam_bits)
    mu = mu_from_bits(mu_bits, lam)
    if s3_violations(lam.entries):
        raise ValueError("lambda does not satisfy the finite-quotient condition")
    L = build_lifting(lam, mu)
    A = build_cleft(lam, mu)
    cert = LiftingCertificate(
        lam_bits=lam_bits, mu_bits=mu_bits, group_mode=group_mode, valid=True,
        dim_lifting=L.dimension(), dim_cleft=A.dimension(),
        lifting_status=L.status, cleft_status=A.status,
        new_rule_count=len(L.new_rules) + len(A.new_rules),
        ambiguities_checked=L.ambiguities_checked + A.ambiguities_checked,
        skew_primitive=skew_primitivity(lam, mu),
    )
    convention = resolve_cubic_convention()
    derived = derived_cubic_relation(lam, mu)
    cert.cubic_relation = str(derived)
    cert.cubic_convention = convention
    cert.cubic_matches_formula = derived.terms == cubic_formula(lam, mu, convention).terms
    cert.valid = (
        cert.dim_lifting == QUOTIENT_DIM and cert.dim_cleft == QUOTIENT_DIM
        and all(cert.skew_primitive.values()) and cert.cubic_matches_formula
    )
    if galois:
        cert.galois = galois_certificate(lam, mu)
        cert.valid = cert.valid and cert.galois.bijective
    return cert
