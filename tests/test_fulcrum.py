"""Cocycle validation, presentation builders, comultiplication, coactions."""

import random

import pytest

from nclift.ncpoly import F2, NcPoly, TensorPoly, parse_poly
from nclift.rewrite import CONFLUENT, irreducible_words, reduce_tensor, verify_confluent
from nclift.fulcrum import (
    BOSONIZATION,
    T_LAMBDA,
    T_PRIME_LAMBDA,
    FulcrumPresentation,
    apply_algebra_map,
    as_entries,
    check_skew_primitive,
    extend_lambda,
    letter_images,
    s3_violations,
    standard_yd_data,
    unannihilated_relations,
    validate_lambda,
    word_image,
)
from nclift import fk3
from nclift.rackgroup import dihedral_rack

TABLE_LAMBDAS = [
    "000000000", "000101110", "011000110", "011101000",
    "100010111", "100111001", "111010001", "111111111",
]


@pytest.fixture(scope="module")
def yd():
    return standard_yd_data()


# ---------------------------------------------------------------------------
# lambda validation and extension
# ---------------------------------------------------------------------------

def test_validate_lambda_examples():
    assert validate_lambda([[1] * 3] * 3, "gx").ok
    assert validate_lambda([[0] * 3] * 3, "gx").ok
    bad = validate_lambda([[1, 0, 0], [0, 0, 0], [0, 0, 0]], "gx")
    assert not bad.ok
    assert (0, 1, 0) in bad.violations


@pytest.mark.parametrize("m", [[[0] * 4] * 3, [[0] * 3, [0] * 3, [0] * 2], [[0] * 4] * 4],
                         ids=["3x4", "ragged", "4x4"])
def test_rank_3_matrices_must_be_3x3(m):
    for check in (lambda: as_entries(m, F2), lambda: validate_lambda(m),
                  lambda: fk3.validate_mu(m, fk3.zero_lambda())):
        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            check()


def test_validate_lambda_s3_mode():
    # rows must be constant off the diagonal position
    check = validate_lambda([[0, 1, 0], [0, 0, 0], [0, 0, 0]], "s3")
    assert not check.ok
    assert any(v[0] == "s3" for v in check.violations)


def test_all_enumerated_lambdas_satisfy_s3_condition():
    for bits in TABLE_LAMBDAS:
        lam = fk3.lambda_from_bits(bits)
        assert s3_violations(lam.entries) == []
        assert validate_lambda(fk3.matrix_from_bits(bits), "s3").ok


def test_s3_condition_is_one_check_for_every_bit_pattern():
    rack = dihedral_rack()
    for n in range(512):
        m = fk3.matrix_from_bits(format(n, "09b"))
        expected = [(i, j) for i in range(3) for j in range(3)
                    if m[i][j] != m[i][rack.act(i, j)]]
        violations = validate_lambda(m, "s3").violations
        assert [v[1:] for v in violations if v[0] == "s3"] == expected
        assert s3_violations(as_entries(m, F2)) == expected


def test_validate_lambda_matches_a_direct_evaluation_for_every_bit_pattern():
    rack = dihedral_rack()
    for n in range(512):
        m = fk3.matrix_from_bits(format(n, "09b"))
        triples = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
                   if (m[i][rack.act(j, k)] + m[j][k]) % 2
                   != (m[rack.act(i, j)][rack.act(i, k)] + m[i][k]) % 2]
        s3 = [("s3", i, j) for i in range(3) for j in range(3)
              if m[i][j] != m[i][rack.act(i, j)]]
        for mode, expected in (("gx", triples), ("s3", triples + s3)):
            check = validate_lambda(m, mode)
            assert check.violations == expected
            assert check.ok == (not expected)
            assert (check.matrix is None) == bool(expected)


def test_extend_lambda_examples():
    ones = validate_lambda([[1] * 3] * 3).matrix
    assert extend_lambda(ones, (), 0) == 0
    for i in range(3):
        for j in range(3):
            assert extend_lambda(ones, (i,), j) == 1
    # two-letter words fold to 1 + 1 = 0; cross-check equal group words
    assert extend_lambda(ones, (0, 1), 2) == 0
    assert extend_lambda(ones, (2, 0), 2) == 0


def test_extend_lambda_well_defined_on_equal_words(yd):
    rng = random.Random(99)
    G = yd.group
    for bits in TABLE_LAMBDAS:
        lam = fk3.lambda_from_bits(bits)
        for _ in range(100):
            w1 = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 6)))
            w2 = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 6)))
            if G.element_of_word(w1) != G.element_of_word(w2):
                continue
            for j in range(3):
                assert extend_lambda(lam, w1, j) == extend_lambda(lam, w2, j)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_deformed_commutation_rule_example(yd):
    lam = validate_lambda([[1] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    sys_ = pres.complete().system
    g0 = pres.group_ordinal(yd.group.distinguished[0])
    image = NcPoly(pres.alphabet, F2, sys_.nf_word((g0, 1)))
    # g0 x1 -> x2 g0 + g0 + (g2 g0 resolved in the table)
    expected = parse_poly("x2 g0 + g0 + g0g1", pres.alphabet, F2)
    assert image == expected


def test_bosonization_commutation_rule(yd):
    lam = validate_lambda([[0] * 3] * 3).matrix
    pres = FulcrumPresentation(BOSONIZATION, yd, lam)
    sys_ = pres.complete().system
    g0 = pres.group_ordinal(yd.group.distinguished[0])
    assert NcPoly(pres.alphabet, F2, sys_.nf_word((g0, 1))) == \
        parse_poly("x2 g0", pres.alphabet, F2)


def test_zero_lambda_makes_flavors_coincide(yd):
    lam = validate_lambda([[0] * 3] * 3).matrix
    rule_sets = []
    for flavor in (T_LAMBDA, T_PRIME_LAMBDA, BOSONIZATION):
        pres = FulcrumPresentation(flavor, yd, lam)
        rule_sets.append({(r.lead, tuple(sorted(r.tail.terms.items())))
                          for r in pres.system().rules()})
    assert rule_sets[0] == rule_sets[1] == rule_sets[2]


def test_all_table_lambdas_complete_with_zero_new_rules(yd):
    for bits in TABLE_LAMBDAS:
        lam = fk3.lambda_from_bits(bits)
        report = FulcrumPresentation(T_LAMBDA, yd, lam).complete()
        assert report.status == CONFLUENT
        assert report.new_rules == []


def test_identity_letter_is_eliminated(yd):
    lam = validate_lambda([[0] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    sys_ = pres.complete().system
    e = pres.group_ordinal(yd.group.identity)
    assert sys_.nf_word((e,)) == {(): 1}
    for word in irreducible_words(sys_, 4):
        assert e not in word


# ---------------------------------------------------------------------------
# comultiplication
# ---------------------------------------------------------------------------

def test_generators_are_skew_primitive(yd):
    lam = validate_lambda([[1] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    for i in range(3):
        xi = NcPoly.term(pres.alphabet, F2, (i,))
        assert check_skew_primitive(pres, xi, yd.degree(i))


def test_full_relation_is_skew_primitive_but_bare_word_is_not(yd):
    lam = fk3.lambda_from_bits("000101110")
    mu = fk3.zero_mu()
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    core = fk3.deformed_relation(pres, lam, 0, 1, mu[0, 1], group_term=True)
    g01 = yd.group.mul(yd.group.distinguished[0], yd.group.distinguished[1])
    assert check_skew_primitive(pres, core, g01)
    # the defect folds to zero in the uncompleted rules: nothing is completed
    assert pres._completed is None
    bare = NcPoly.term(pres.alphabet, F2, (0, 1))
    assert not check_skew_primitive(pres, bare, g01)
    assert pres._completed.status == CONFLUENT


def test_every_deformed_relation_is_skew_primitive_without_a_completion(yd):
    G = yd.group
    for lam_bits in TABLE_LAMBDAS:
        lam = fk3.lambda_from_bits(lam_bits)
        pres = FulcrumPresentation(T_LAMBDA, yd, lam)
        for i, j in fk3.relation_orbit_reps():
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            for mu_ij in (F2.zero, F2.one):
                rel = fk3.deformed_relation(pres, lam, i, j, mu_ij, group_term=True)
                assert check_skew_primitive(pres, rel, gij), (lam_bits, i, j, mu_ij)
        assert pres._completed is None, lam_bits


def test_a_nonzero_defect_needs_a_confluent_completion(yd):
    # every rule's lead is longer than the cap: the completion stops at once
    lam = fk3.lambda_from_bits("000101110")
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    pres.degree_cap = 1
    g01 = yd.group.mul(yd.group.distinguished[0], yd.group.distinguished[1])
    core = fk3.deformed_relation(pres, lam, 0, 1, F2.zero, group_term=True)
    assert check_skew_primitive(pres, core, g01)
    assert pres._completed is None
    with pytest.raises(ValueError, match="did not complete: CAP_EXCEEDED"):
        check_skew_primitive(pres, NcPoly.term(pres.alphabet, F2, (0, 1)), g01)


def test_check_skew_primitive_rejects_bad_group_element(yd):
    lam = validate_lambda([[0] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    with pytest.raises(ValueError):
        check_skew_primitive(pres, NcPoly.term(pres.alphabet, F2, (0,)), 99)


def test_comultiplication_coassociative_on_generators(yd):
    lam = validate_lambda([[1] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    imgs = letter_images(pres.alphabet, pres.alphabet, F2, pres.degree_words())

    def triple(apply_first):
        # expand (Delta (x) id) Delta(x_i) or (id (x) Delta) Delta(x_i)
        out = {}
        for i in range(3):
            acc = {}
            for (wl, wr), c in imgs[i].terms.items():
                if apply_first:
                    inner = _delta_word(imgs, wl)
                    for (a, b), c2 in inner.items():
                        key = (a, b, wr)
                        acc[key] = (acc.get(key, 0) + c * c2) % 2
                else:
                    inner = _delta_word(imgs, wr)
                    for (a, b), c2 in inner.items():
                        key = (wl, a, b)
                        acc[key] = (acc.get(key, 0) + c * c2) % 2
            out[i] = {k: v for k, v in acc.items() if v}
        return out

    def _delta_word(images, word):
        acc = {((), ()): 1}
        for letter in word:
            nxt = {}
            for (a, b), c in acc.items():
                for (wl, wr), c2 in images[letter].terms.items():
                    key = (a + wl, b + wr)
                    nxt[key] = (nxt.get(key, 0) + c * c2) % 2
            acc = {k: v for k, v in nxt.items() if v}
        return acc

    assert triple(True) == triple(False)


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------

def _coactions(yd, lam):
    """The primed, group-term and bosonization flavors with the letter images
    of rho_r (into T'_lambda (x) bosonization) and rho_l (into T_lambda (x)
    T'_lambda), after checking that both kill every primed relation."""
    prime, lifting, bos = (FulcrumPresentation(flavor, yd, lam)
                           for flavor in (T_PRIME_LAMBDA, T_LAMBDA, BOSONIZATION))
    p_sys, l_sys, b_sys = (pres.complete().system for pres in (prime, lifting, bos))
    rho_r = letter_images(prime.alphabet, bos.alphabet, F2, prime.degree_words())
    rho_l = letter_images(lifting.alphabet, prime.alphabet, F2, prime.degree_words())
    assert unannihilated_relations(prime.relations, rho_r, p_sys, b_sys) == []
    assert unannihilated_relations(prime.relations, rho_l, l_sys, p_sys) == []
    return prime, lifting, bos, rho_r, rho_l


def test_coaction_maps_verify_for_all_table_lambdas(yd):
    for bits in TABLE_LAMBDAS:
        lam = fk3.lambda_from_bits(bits)
        prime, lifting, bos, rho_r, rho_l = _coactions(yd, lam)
        # spot examples: both coactions kill a commutation rule of the primed
        # presentation and are diagonal on group letters
        rel = prime.relations[-1]
        assert not apply_algebra_map(rel, rho_r, prime.complete().system,
                                     bos.complete().system)
        assert not apply_algebra_map(rel, rho_l, lifting.complete().system,
                                     prime.complete().system)


def test_a_coaction_kills_a_relation_only_after_reduction(yd):
    lam = fk3.lambda_from_bits("000101110")
    prime, lifting, bos, rho_r, _ = _coactions(yd, lam)
    p_sys, b_sys = prime.complete().system, bos.complete().system
    rel = prime.relations[-1]
    # the unreduced image: the letter images multiplied out term by term
    image = TensorPoly.zero(prime.alphabet, bos.alphabet, F2)
    for word, coeff in rel.terms.items():
        acc = TensorPoly(prime.alphabet, bos.alphabet, F2, {((), ()): F2.one})
        for letter in word:
            acc = acc * rho_r[letter]
        image = image + acc.scale(coeff)
    assert image and not reduce_tensor(image, p_sys, b_sys)
    assert not apply_algebra_map(rel, rho_r, p_sys, b_sys)


def test_word_images_do_not_depend_on_the_memo(yd):
    """Over rules that are not confluent, a memo that holds other words'
    prefixes gives the same images as a fold from the empty word."""
    lam = fk3.lambda_from_bits("000101110")
    mu = fk3.mu_from_bits("100000000", lam)
    base = fk3.flavor_presentation(lam, T_PRIME_LAMBDA)
    raw = base.system().copy()
    raw.extend(fk3.deformed_relations(lam, mu, T_PRIME_LAMBDA))
    assert not verify_confluent(raw)
    bos = fk3.bosonization_build().system
    images = letter_images(raw.alphabet, bos.alphabet, F2, base.degree_words())
    unit = TensorPoly(raw.alphabet, bos.alphabet, F2, {((), ()): F2.one})
    rng = random.Random(11)
    words = [tuple(rng.randrange(len(raw.alphabet)) for _ in range(rng.randrange(6)))
             for _ in range(60)]
    memo = {(): unit}
    for word in words:
        fresh = old_word_image(word, images, raw, bos, {(): unit})
        assert word_image(word, images, raw, bos, memo) == fresh, word
        assert word_image(word, images, raw, bos, {(): unit}) == fresh, word


def old_word_image(word, images, left_sys, right_sys, memo):
    """``word_image`` as each step once was: the unreduced product of the
    prefix's image and the letter's, then ``reduce_tensor``."""
    n = len(word)
    while n and word[:n] not in memo:
        n -= 1
    acc = memo[word[:n]]
    for k in range(n, len(word)):
        acc = reduce_tensor(acc * images[word[k]], left_sys, right_sys)
        memo[word[:k + 1]] = acc
    return acc


def old_apply_algebra_map(p, images, left_sys, right_sys, memo):
    """``apply_algebra_map`` as it once was, with its final reduction."""
    f = p.field
    left, right = left_sys.alphabet, right_sys.alphabet
    memo.setdefault((), TensorPoly(left, right, f, {((), ()): f.one}))
    out = TensorPoly.zero(left, right, f)
    for word, coeff in p.terms.items():
        out = out + old_word_image(word, images, left_sys, right_sys, memo).scale(coeff)
    return reduce_tensor(out, left_sys, right_sys)


def assert_images_as_before(words, relations, images, left_sys, right_sys):
    """Word images, relation images and the relations a map does not kill,
    each as the unreduced product then reduction gave them, on a shared memo
    and on a fresh one."""
    f = left_sys.field
    unit = TensorPoly(left_sys.alphabet, right_sys.alphabet, f, {((), ()): f.one})
    memo, old_memo = {(): unit}, {(): unit}
    old_failed = [rel for rel in relations
                  if old_apply_algebra_map(rel, images, left_sys, right_sys, old_memo)]
    assert unannihilated_relations(relations, images, left_sys, right_sys, _memo=memo) == \
        old_failed
    for word in words:
        old = old_word_image(word, images, left_sys, right_sys, old_memo)
        assert word_image(word, images, left_sys, right_sys, memo) == old, word
        assert word_image(word, images, left_sys, right_sys, {(): unit}) == old, word
    for rel in relations:
        assert apply_algebra_map(rel, images, left_sys, right_sys) == \
            old_apply_algebra_map(rel, images, left_sys, right_sys, {}), rel


@pytest.mark.parametrize("lam_bits, mu_bits", [("000101110", "100000000"),
                                               ("111111111", "111111111")])
def test_galois_coaction_images_are_those_of_the_reduced_products(lam_bits, mu_bits):
    """Both coactions of a certificate, on the 72 basis words of A and on
    the relations of the descent check."""
    lam = fk3.lambda_from_bits(lam_bits)
    mu = fk3.mu_from_bits(mu_bits, lam)
    A, L, B = fk3.build_cleft(lam, mu), fk3.build_lifting(lam, mu), fk3.bosonization_build()
    basis = A.basis()
    assert len(basis) == 72
    prime = fk3.flavor_presentation(lam, T_PRIME_LAMBDA)
    relations = prime.relations + fk3.deformed_relations(lam, mu, T_PRIME_LAMBDA)
    for left_sys, right_sys in ((A.system, B.system), (L.system, A.system)):
        images = letter_images(left_sys.alphabet, right_sys.alphabet, F2, prime.degree_words())
        assert_images_as_before(basis, relations, images, left_sys, right_sys)
        # factor words of two letters, folded one letter at a time
        squares = {o: image * image for o, image in images.items()}
        assert_images_as_before(basis[:30], relations, squares, left_sys, right_sys)


def test_jordan_coaction_images_are_those_of_the_reduced_products():
    """Both coactions of the Jordan check over QQ, on every word of length
    at most 3 and on the relations with rational coefficients added."""
    from nclift import jordan
    from nclift.ncpoly import QQ

    prime, deformed, bos = (jordan.build_jordan(flavor, 6) for flavor in
                            (jordan.U_PRIME, jordan.U_JORDAN, jordan.BOSONIZATION))
    size = len(prime.alphabet)
    words = [()]
    for _ in range(3):
        words += [w + (a,) for w in words if len(w) == len(words[-1]) for a in range(size)]
    extra = parse_poly("1/2 y1*y2 - 3 g*y1 + 2/3 y2*G + 5", prime.alphabet, QQ)
    relations = prime.relations + [rel + extra for rel in prime.relations[:3]]
    for left, right in ((prime, bos), (deformed, prime)):
        left_sys, right_sys = left.complete().system, right.complete().system
        images = letter_images(left.alphabet, right.alphabet, QQ, jordan.DEGREES)
        assert_images_as_before(words, relations, images, left_sys, right_sys)
        squares = {o: image * image for o, image in images.items()}
        assert_images_as_before(words[:21], relations, squares, left_sys, right_sys)


def test_images_into_a_collapsed_target_are_zero():
    """Over a collapsed system NF(1) = 0, so even the empty word's image,
    1 (x) 1 elsewhere, is 0."""
    from nclift.ncpoly import Alphabet
    from nclift.rewrite import ReductionSystem

    alpha = Alphabet.from_parts(["x0", "x1"])
    ok = ReductionSystem(alpha, F2, [parse_poly("x1 x0 + x0 x1", alpha, F2)])
    dead = ReductionSystem(alpha, F2, [parse_poly("x0 + 1", alpha, F2),
                                       parse_poly("x0", alpha, F2)])
    assert dead.collapsed and not ok.collapsed
    p = parse_poly("1 + x0 + x1 x0", alpha, F2)
    images = letter_images(alpha, alpha, F2, [(1,), (1,)])
    for left, right in ((dead, ok), (ok, dead), (dead, dead)):
        assert not apply_algebra_map(p, images, left, right)
        assert not old_apply_algebra_map(p, images, left, right, {})
    assert apply_algebra_map(p, images, ok, ok) == old_apply_algebra_map(p, images, ok, ok, {})


def test_word_images_from_a_caller_memo():
    """A caller's memo: an empty one gets the empty word's image, 0 over a
    collapsed system; a nonzero 1 (x) 1 supplied over a collapsed system
    still gives 0 for a longer word, as reducing each step did; a start
    over other alphabets of the same size is refused with the message of
    ``reduce_tensor``."""
    from nclift.ncpoly import Alphabet
    from nclift.rewrite import ReductionSystem

    alpha = Alphabet.from_parts(["x0", "x1"])
    other = Alphabet.from_parts(["y0", "y1"])
    ok = ReductionSystem(alpha, F2, [parse_poly("x1 x0 + x0 x1", alpha, F2)])
    dead = ReductionSystem(alpha, F2, [parse_poly("x0 + 1", alpha, F2),
                                       parse_poly("x0", alpha, F2)])
    images = letter_images(alpha, alpha, F2, [(1,), (1,)])
    unit = TensorPoly(alpha, alpha, F2, {((), ()): F2.one})
    for left, right in ((dead, ok), (ok, dead)):
        memo: dict = {}
        assert not word_image((), images, left, right, memo)
        assert not memo[()]
        for word in ((0,), (1, 0), (0, 1, 1)):
            assert not word_image(word, images, left, right, {})
            assert not word_image(word, images, left, right, {(): unit})
            assert not old_word_image(word, images, left, right, {(): unit})
    memo = {}
    assert word_image((), images, ok, ok, memo) == unit == memo[()]
    p = parse_poly("x0 x1 + x1", alpha, F2)
    relations = [p, parse_poly("x1 x0 + x0 x1", alpha, F2)]
    assert unannihilated_relations(relations, images, ok, ok, _memo={}) == [p]
    assert unannihilated_relations(relations, images, ok, ok, _memo={(): unit}) == [p]
    for start in (TensorPoly(other, alpha, F2, {((), ()): F2.one}),
                  TensorPoly(alpha, other, F2, {((), ()): F2.one})):
        with pytest.raises(ValueError, match="do not match"):
            word_image((1, 0), images, ok, ok, {(): start})
        with pytest.raises(ValueError, match="do not match"):
            unannihilated_relations(relations, images, ok, ok, _memo={(): start})
        with pytest.raises(ValueError):
            old_word_image((1, 0), images, ok, ok, {(): start})


def test_images_over_other_alphabets_are_refused():
    from nclift.ncpoly import Alphabet, AlphabetMismatchError
    from nclift.rewrite import ReductionSystem

    alpha = Alphabet.from_parts(["x0", "x1"])
    other = Alphabet.from_parts(["y0", "y1"])
    system = ReductionSystem(alpha, F2, [parse_poly("x1 x0 + x0 x1", alpha, F2)])
    p = parse_poly("x0 x1 + 1", alpha, F2)
    for left, right in ((other, alpha), (alpha, other)):
        images = letter_images(left, right, F2, [(1,), (1,)])
        with pytest.raises(AlphabetMismatchError):
            apply_algebra_map(p, images, system, system)


def test_validate_lambda_odd_characteristic_smoke():
    # the constraint solvers accept GF(p); no classification claims are made
    from nclift.ncpoly import prime_field
    f5 = prime_field(5)
    check = validate_lambda([[0] * 3] * 3, "gx", field=f5)
    assert check.ok
    assert extend_lambda(check.matrix, (0, 1), 2) == 0
    assert not validate_lambda([[1, 0, 0], [0, 0, 0], [0, 0, 0]], "gx", field=f5).ok


def test_coactions_coincide_at_zero_lambda(yd):
    lam = validate_lambda([[0] * 3] * 3).matrix
    prime, _, bos, rho_r, rho_l = _coactions(yd, lam)
    g = prime.group_ordinal(yd.group.distinguished[0])
    diag = rho_r[g]
    assert diag.terms == {((g,), (g,)): 1}
    assert rho_l[g].terms == {((g,), (g,)): 1}
    # at zero lambda the primed rules equal the bosonization rules, so the
    # right coaction is the comultiplication-style map on identical algebras
    prime_rules = {(r.lead, tuple(sorted(r.tail.terms.items())))
                   for r in prime.complete().system.rules()}
    bos_rules = {(r.lead, tuple(sorted(r.tail.terms.items())))
                 for r in bos.complete().system.rules()}
    assert prime_rules == bos_rules
