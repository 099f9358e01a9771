"""Builders and validators for the pointed smash-product algebras.

Three flavors of presentation are generated from a rack realized in a finite
group and a cocycle matrix indexed by the rack: the deformed product T_lambda
where group letters commute past module letters with a correction supported on group
terms, its primed companion T'_lambda whose correction is a plain scalar, and
the undeformed bosonization.  The module also hosts the letter maps into
tensor products: one function gives the letter images of the comultiplication
and of the two coactions connecting the three flavors, one check tells which
relations a map fails to annihilate, and the skew-primitivity test rests on
the former.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .ncpoly import Alphabet, F2, Field, NcPoly, TensorPoly, Word
from .rackgroup import GroupTable, RackData, conjugation_action, dihedral_rack, translation_group
from .rewrite import CONFLUENT, Presentation, ReductionSystem

T_LAMBDA = "t_lambda"
T_PRIME_LAMBDA = "t_prime_lambda"
BOSONIZATION = "bosonization"
FLAVORS = (T_LAMBDA, T_PRIME_LAMBDA, BOSONIZATION)

GX_MODE = "gx"
S3_MODE = "s3"


@dataclass(frozen=True)
class PointedYDData:
    """A rack realized as a conjugacy class of a finite group.

    The degree of the generator x_i is the distinguished element g_i, and the
    module action of a group element on indices is conjugation.  The group's
    own checks (every element a word in the g_i, g_i g_j g_i^{-1} = g_{i|>j})
    make every conjugate g g_i g^{-1} some g_j.
    """

    rack: RackData
    group: GroupTable

    def degree(self, i: int) -> int:
        return self.group.distinguished[i]

    def act(self, g: int, i: int) -> int:
        return conjugation_action(g, i, self.group)


def standard_yd_data(rack: RackData | None = None) -> PointedYDData:
    """``rack``, the dihedral rack by default, in its translation group."""
    rack = rack or dihedral_rack()
    return PointedYDData(rack, translation_group(rack))


# ---------------------------------------------------------------------------
# cocycle matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaMatrix:
    """A matrix of scalars indexed by the elements of ``rack``: the cocycle
    lambda_{i,j} = lambda(g_i, x_j), or the constant terms mu_{i,j} of the
    deformed relations.  Frozen and hashable, so it can key a cache."""

    entries: tuple
    field: Field
    rack: RackData

    def __getitem__(self, ij) -> object:
        i, j = ij
        return self.entries[i][j]


@dataclass
class LambdaCheck:
    ok: bool
    matrix: LambdaMatrix | None
    violations: list


def as_entries(m: Sequence[Sequence], field: Field, rack: RackData | None = None) -> tuple:
    """m's rows as field elements; ValueError unless m is n x n for the n
    elements of ``rack``, the dihedral rack by default."""
    n = (rack or dihedral_rack()).size
    rows = tuple(tuple(field.from_int(c) if isinstance(c, int) else c for c in row)
                 for row in m)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    return rows


def validate_lambda(m: Sequence[Sequence], mode: str = GX_MODE,
                    field: Field = F2, rack: RackData | None = None) -> LambdaCheck:
    """Accept m iff lambda_{i,j|>k} + lambda_{j,k} = lambda_{i|>j,i|>k} + lambda_{i,k}
    for all index triples of ``rack`` (the dihedral rack by default); in S3
    mode additionally lambda_{i,j} = lambda_{i,i|>j}."""
    rack = rack or dihedral_rack()
    e = as_entries(m, field, rack)
    f, act = field, rack.act
    violations = [(i, j, k) for i, j, k in product(range(rack.size), repeat=3)
                  if f.add(e[i][act(j, k)], e[j][k]) != f.add(e[act(i, j)][act(i, k)], e[i][k])]
    if mode == S3_MODE:
        violations += [("s3", i, j) for i, j in s3_violations(e, rack)]
    elif mode != GX_MODE:
        raise ValueError(f"unknown mode {mode!r}")
    if violations:
        return LambdaCheck(False, None, violations)
    return LambdaCheck(True, LambdaMatrix(e, field, rack), [])


def s3_violations(m: Sequence[Sequence], rack: RackData | None = None) -> list:
    """The pairs (i, j), row-major, where m breaks the finite-quotient
    condition lambda_{i,j} = lambda_{i,i|>j}; the dihedral rack by default."""
    act = (rack or dihedral_rack()).act
    return [(i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v != row[act(i, j)]]


def extend_lambda(lam: LambdaMatrix, word: Iterable[int], j: int):
    """lambda(g, x_j) for g given as a word in the rack generators.

    Folds the cocycle law lambda(gh, x) = lambda(g, h . x) + lambda(h, x)
    over lambda's rack; the value is independent of the chosen word for a
    fixed group element whenever the matrix is valid.
    """
    f = lam.field
    total = f.zero
    target = j
    for i in reversed(tuple(word)):
        total = f.add(total, lam[i, target])
        target = lam.rack.act(i, target)
    return total


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def fulcrum_alphabet(group: GroupTable, module_prefix: str = "x") -> Alphabet:
    """Module letters first, then one letter per group element, identity first."""
    module_ids = [f"{module_prefix}{i}" for i in range(group.rack.size)]
    group_ids = [group.name(e) for e in range(group.order)]
    return Alphabet.from_parts(module_ids, group_ids)


class FulcrumPresentation(Presentation):
    """One flavor of deformed smash product; ``name`` is the flavor.

    Rules: identity-letter elimination, the full group multiplication table,
    and one commutation rule per (non-identity group element, module letter).
    A deformed quotient in ``fk3`` appends its deformed relations after these.
    ``lam`` must be indexed by the rack of ``yd`` (ValueError).
    """

    def __init__(self, flavor: str, yd: PointedYDData, lam: LambdaMatrix):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if lam.rack != yd.rack:
            raise ValueError("lambda is indexed by another rack than the presentation's")
        self.yd = yd
        self.lam = lam
        prefix = "y" if flavor == T_PRIME_LAMBDA else "x"
        super().__init__(fulcrum_alphabet(yd.group, prefix), lam.field, (), name=flavor)
        self.relations = self._build_relations()

    # ordinals: module letters 0..n-1, then group element e -> n + e
    def group_ordinal(self, e: int) -> int:
        return self.yd.group.rack.size + e

    def group_word(self, e: int) -> Word:
        """The (possibly empty) word for a group element letter."""
        if e == self.yd.group.identity:
            return ()
        return (self.group_ordinal(e),)

    def degree_words(self) -> list[Word]:
        """The degree g_i of each module letter x_i, as a one-letter word."""
        return [(self.group_ordinal(self.yd.degree(i)),) for i in range(self.yd.rack.size)]

    def _poly(self, items) -> NcPoly:
        return NcPoly.from_terms(self.alphabet, self.field, items)

    def _build_relations(self) -> list[NcPoly]:
        yd, f = self.yd, self.field
        G = yd.group
        one = f.one
        rels: list[NcPoly] = []
        # identity letter collapses to the empty word
        rels.append(self._poly([((self.group_ordinal(G.identity),), one), ((), f.neg(one))]))
        nonid = [e for e in range(G.order) if e != G.identity]
        for g in nonid:
            for h in nonid:
                rels.append(self._poly([
                    ((self.group_ordinal(g), self.group_ordinal(h)), one),
                    (self.group_word(G.mul(g, h)), f.neg(one)),
                ]))
        for g in nonid:
            for i in range(yd.rack.size):
                gi = yd.act(g, i)
                lam_val = extend_lambda(self.lam, G.words[g], i)
                items = [((self.group_ordinal(g), i), one),
                         ((gi, self.group_ordinal(g)), f.neg(one))]
                if self.name == T_LAMBDA and lam_val != f.zero:
                    # g x_i = x_{g.i} g + lambda(g, x_i) (1 - g_{g.i}) g
                    items.append(((self.group_ordinal(g),), f.neg(lam_val)))
                    u = G.mul(yd.degree(gi), g)
                    items.append((self.group_word(u), lam_val))
                elif self.name == T_PRIME_LAMBDA and lam_val != f.zero:
                    # g y_i = y_{g.i} g + lambda(g, x_i) g
                    items.append(((self.group_ordinal(g),), f.neg(lam_val)))
                rels.append(self._poly(items))
        return rels


# ---------------------------------------------------------------------------
# letter maps: comultiplication, coactions, skew-primitivity
# ---------------------------------------------------------------------------

def _nf_after(system: ReductionSystem, word: Word, letters: Word) -> dict:
    """NF(word letters) for a word normal in ``system``.  The factor words
    of ``letter_images`` have one letter, one ``_nf_times`` step, or none;
    a longer one goes through ``nf_word``."""
    if len(letters) == 1:
        return system._nf_times(word, letters[0])
    if not letters:
        return {} if system.collapsed else {word: system.field.one}
    return system.nf_word(word + letters)


def word_image(word: Word, images: dict, left_sys: ReductionSystem,
               right_sys: ReductionSystem, memo: dict) -> TensorPoly:
    """The reduced image of ``word``: that of w' a is the image of w' times
    images[a], reduced.

    Each step is formed in normal form.  Every term wl (x) wr of the image
    of w' is normal, so for each term il (x) ir of images[a] it adds
    NF(wl il) (x) NF(wr ir), by ``_nf_times`` when il or ir is one letter,
    through ``add_outer``.  Reduction is linear, so this is the reduced
    product, and no unreduced tensor is built.

    ``memo`` holds images under this one letter map and pair of systems.
    The fold starts from the longest prefix of ``word`` in it, or from the
    empty word's image, 1 (x) 1 unless a system has collapsed (then 0),
    and stores each longer one; every step is the one a fold from the empty
    word takes, so the image does not depend on the memo.  The image it
    starts from must be over the systems' alphabets (ValueError).
    """
    n = len(word)
    while n and word[:n] not in memo:
        n -= 1
    left, right = left_sys.alphabet, right_sys.alphabet
    acc = memo.get(word[:n])
    if acc is None:
        f = left_sys.field
        unit = {} if left_sys.collapsed or right_sys.collapsed else {((), ()): f.one}
        acc = memo[()] = TensorPoly(left, right, f, unit)
    elif ((acc.left is not left and acc.left != left)
          or (acc.right is not right and acc.right != right)):
        raise ValueError("tensor alphabets do not match the reduction systems")
    f = acc.field
    for k in range(n, len(word)):
        image = images[word[k]]
        acc._check_compatible(image)
        terms: dict = {}
        for (wl, wr), c in acc.terms.items():
            for (il, ir), d in image.terms.items():
                f.add_outer(terms, _nf_after(left_sys, wl, il), _nf_after(right_sys, wr, ir),
                            f.mul(c, d))
        acc = memo[word[:k + 1]] = TensorPoly(left, right, f, terms)
    return acc


def apply_algebra_map(p: NcPoly, images: dict, left_sys: ReductionSystem,
                      right_sys: ReductionSystem, _memo: dict | None = None) -> TensorPoly:
    """Extend letter images multiplicatively to a polynomial, in normal form.

    ``images`` maps each ordinal of ``p.alphabet`` to a TensorPoly over the
    systems' alphabets.  Each word image is normal (``word_image``), so
    their sum, weighted by ``add_scaled``, is too.
    """
    f = p.field
    memo = {} if _memo is None else _memo
    out: dict = {}
    for word, coeff in p.terms.items():
        f.add_scaled(out, word_image(word, images, left_sys, right_sys, memo).terms, coeff)
    return TensorPoly(left_sys.alphabet, right_sys.alphabet, f, out)


def letter_images(left: Alphabet, right: Alphabet, field: Field,
                  degrees: Sequence[Word]) -> dict:
    """Letter images of a comultiplication or coaction into left (x) right.

    Module letter m maps to m (x) 1 + degrees[m] (x) m, every other letter to
    its diagonal.  All flavors share one ordinal layout, so which map this is
    (Delta, or y -> y (x) 1 + g (x) x, or y -> x (x) 1 + g (x) y) is carried
    entirely by the target pair (left, right).
    """
    one = field.one
    imgs: dict = {}
    for o in range(len(left)):
        if left.is_module(o):
            terms = {((o,), ()): one, (degrees[o], (o,)): one}
        else:
            terms = {((o,), (o,)): one}
        imgs[o] = TensorPoly(left, right, field, terms)
    return imgs


def unannihilated_relations(relations: Iterable[NcPoly], images: dict,
                            left_sys: ReductionSystem,
                            right_sys: ReductionSystem,
                            _memo: dict | None = None) -> list[NcPoly]:
    """The relations whose image under ``images`` is nonzero in the reduced
    tensor target; empty exactly when the letter map descends to the
    presented algebra.  The relations share one memo of word images."""
    memo = {} if _memo is None else _memo
    return [rel for rel in relations
            if apply_algebra_map(rel, images, left_sys, right_sys, _memo=memo)]


def check_skew_primitive(pres: FulcrumPresentation, rel: NcPoly, grp: int) -> bool:
    """Test Delta(rel) = rel (x) 1 + g (x) rel after tensor-factor reduction.

    The defect Delta(rel) - rel (x) 1 - g (x) rel is first formed in the
    presentation's uncompleted rules (``pres.system()``).  Each fold step
    replaces a lead by its tail, an identity in the algebra, so a defect
    that folds to zero proves the identity whether or not those rules are
    confluent, and no completion is run.  Only a nonzero defect completes
    the presentation, which raises ValueError unless CONFLUENT, and is
    formed again in the completed rules, whose normal forms are unique: rel
    is skew-primitive exactly when it is zero there."""
    if not (0 <= grp < pres.yd.group.order):
        raise ValueError(f"group element {grp} out of range")
    if not _skew_defect(pres, rel, grp, pres.system()):
        return True
    report = pres.complete()
    if report.status != CONFLUENT:
        raise ValueError(f"presentation did not complete: {report.status}")
    return not _skew_defect(pres, rel, grp, report.system)


def _skew_defect(pres: FulcrumPresentation, rel: NcPoly, grp: int,
                 sys_: ReductionSystem) -> dict:
    """Delta(rel) - NF(rel) (x) 1 - NF(g) (x) NF(rel) in ``sys_``.  The
    image of ``apply_algebra_map`` is already normal, so the defect is
    formed in that one coefficient dict by ``add_outer``."""
    f = pres.field
    delta = letter_images(pres.alphabet, pres.alphabet, f, pres.degree_words())
    defect = apply_algebra_map(rel, delta, sys_, sys_).terms
    nf_rel = sys_.normal_form(rel).terms
    minus_one = f.neg(f.one)
    f.add_outer(defect, nf_rel, {(): f.one}, minus_one)
    f.add_outer(defect, sys_.nf_word(pres.group_word(grp)), nf_rel, minus_one)
    return defect
