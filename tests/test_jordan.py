"""Characteristic-zero flavors: rules, confluence, word counts, coactions."""

import random
from fractions import Fraction

import pytest

from nclift.ncpoly import NcPoly, QQ, parse_poly
from nclift.rewrite import CONFLUENT, irreducible_words, verify_confluent
from nclift.jordan import (
    BOSONIZATION,
    FLAVORS,
    NEG,
    POS,
    U_JORDAN,
    U_PRIME,
    X1,
    X2,
    build_jordan,
    jordan_coactions,
    pbw_expected_count,
    verify_pbw,
)


def _nf(pres, word):
    sys_ = pres.complete().system
    return NcPoly(pres.alphabet, QQ, sys_.nf_word(word))


def test_commutation_rules_per_flavor():
    deformed = build_jordan(U_JORDAN, 4)
    a = deformed.alphabet
    assert _nf(deformed, (POS, X1)) == parse_poly("x1 g + g - g g", a, QQ)
    assert _nf(deformed, (POS, X2)) == parse_poly("x2 g + x1 g", a, QQ)
    # inverse-letter rules are solved from the action equation, not entered
    assert _nf(deformed, (NEG, X1)) == parse_poly("x1 G - G + 1", a, QQ)
    assert _nf(deformed, (NEG, X2)) == parse_poly("x2 G - x1 G + G - 1", a, QQ)

    prime = build_jordan(U_PRIME, 4)
    ap = prime.alphabet
    assert _nf(prime, (POS, X1)) == parse_poly("y1 g + g", ap, QQ)
    assert _nf(prime, (POS, X2)) == parse_poly("y2 g + y1 g", ap, QQ)

    bos = build_jordan(BOSONIZATION, 4)
    ab = bos.alphabet
    assert _nf(bos, (POS, X1)) == parse_poly("x1 g", ab, QQ)
    assert _nf(bos, (POS, X2)) == parse_poly("x2 g + x1 g", ab, QQ)


def test_quadratic_rule_orientation():
    pres = build_jordan(U_JORDAN, 4)
    a = pres.alphabet
    assert _nf(pres, (X2, X1)) == parse_poly("x1 x2 - 1/2 x1 x1 + x2 + 1/2 x1", a, QQ)


def test_group_square_is_irreducible():
    # the two-letter word g g stays irreducible: the free abelian group brings
    # no product rules beyond the unit cancellations
    pres = build_jordan(U_JORDAN, 4)
    sys_ = pres.complete().system
    assert sys_.nf_word((POS, POS)) == {(POS, POS): Fraction(1)}
    assert sys_.nf_word((POS, NEG)) == {(): Fraction(1)}
    assert sys_.nf_word((NEG, POS)) == {(): Fraction(1)}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_pbw_at_length_eight(flavor):
    report = verify_pbw(build_jordan(flavor, 8), 8)
    assert report.status == CONFLUENT
    assert report.new_rule_count == 0
    assert report.ok
    assert report.per_length == [(l + 1) ** 2 for l in range(9)]


def test_expected_count_closed_form():
    # independent oracle: enumerate (a, b, m) with a+b+m = length and weight
    # 1 for m = 0, 2 otherwise
    for length in range(9):
        count = 0
        for a in range(length + 1):
            for b in range(length + 1 - a):
                m = length - a - b
                count += 1 if m == 0 else 2
        assert pbw_expected_count(length) == count
    assert sum(pbw_expected_count(l) for l in range(3)) == 14
    assert sum(pbw_expected_count(l) for l in range(4)) == 30


def test_totals_at_small_truncations():
    assert verify_pbw(build_jordan(U_JORDAN, 2), 2).total == 14
    assert verify_pbw(build_jordan(U_JORDAN, 3), 3).total == 30


def test_irreducible_words_have_sorted_shape():
    pres = build_jordan(U_PRIME, 5)
    sys_ = pres.complete().system
    for word in irreducible_words(sys_, 5):
        # shape y1^a y2^b (g^c or G^c)
        stages = [0]
        for o in word:
            stages.append({X1: 0, X2: 1, POS: 2, NEG: 3}[o])
        assert all(a <= b for a, b in zip(stages, stages[1:]))
        assert not ((POS in word) and (NEG in word))


def test_half_integer_coefficients_all_flavors():
    # every tail coefficient of every completed rule has denominator 1 or 2
    for flavor in FLAVORS:
        rules = build_jordan(flavor, 6).complete().system.rules()
        assert all(Fraction(c).denominator in (1, 2)
                   for rule in rules for c in rule.tail.terms.values()), flavor


@pytest.mark.parametrize("flavor", FLAVORS)
def test_rule_coefficients_are_ints_exactly_when_integral(flavor):
    # QQ keeps an integral value as an int, which prints and hashes as the
    # Fraction of that value
    pres = build_jordan(flavor, 6)
    coeffs = [c for rule in pres.complete().system.rules() for c in rule.tail.terms.values()]
    assert coeffs and all((type(c) is int) == (Fraction(c).denominator == 1) for c in coeffs)
    assert any(type(c) is Fraction for c in coeffs)
    assert all(Fraction(c).denominator in (1, 2) for c in coeffs)


def test_confluence_post_check():
    for flavor in FLAVORS:
        assert verify_confluent(build_jordan(flavor, 6).complete().system)


def test_normal_form_linear_over_rationals():
    rng = random.Random(41)
    pres = build_jordan(U_JORDAN, 6)
    sys_ = pres.complete().system
    alpha = pres.alphabet
    for _ in range(100):
        def rand_poly():
            items = [(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                     for _ in range(rng.randint(0, 3))]
            return NcPoly.from_terms(alpha, QQ, items)
        p, q = rand_poly(), rand_poly()
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        nf = sys_.normal_form
        assert nf(p.scale(a) + q) == nf(p).scale(a) + nf(q)


def test_coactions_annihilate_defining_relations():
    report = jordan_coactions(6)
    assert report.ok
    assert report.checked == 7  # two units, four commutations, one quadratic


def test_coaction_failure_reporting_on_wrong_target():
    # applying the primed-flavor coaction images to the bosonization
    # quadratic (missing the deformation terms) must not vanish
    from nclift.fulcrum import apply_algebra_map, letter_images, unannihilated_relations
    from nclift.jordan import DEGREES
    prime = build_jordan(U_PRIME, 4)
    bos = build_jordan(BOSONIZATION, 4)
    imgs = letter_images(prime.alphabet, bos.alphabet, QQ, DEGREES)
    undeformed = parse_poly("y1 y2 - y2 y1 - 1/2 y1 y1", prime.alphabet, QQ)
    prime_sys, bos_sys = prime.complete().system, bos.complete().system
    image = apply_algebra_map(undeformed, imgs, prime_sys, bos_sys)
    assert image
    assert unannihilated_relations([undeformed], imgs, prime_sys, bos_sys) == [undeformed]
