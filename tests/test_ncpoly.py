"""Scalars, words, order laws, and free-algebra arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclift.ncpoly import (
    Alphabet,
    AlphabetMismatchError,
    F2,
    NcPoly,
    PrimeField,
    QQ,
    TensorPoly,
    deglex_compare,
    format_poly,
    parse_poly,
    prime_field,
)

ALPHA5 = Alphabet.from_parts(["x0", "x1", "x2"], ["g", "h"])
ALPHA3 = Alphabet.from_parts(["x0", "x1", "x2"])

words5 = st.lists(st.integers(0, 4), max_size=4).map(tuple)
small_polys = st.lists(
    st.tuples(st.lists(st.integers(0, 4), max_size=3).map(tuple), st.integers(1, 1)),
    max_size=4,
).map(lambda items: NcPoly.from_terms(ALPHA5, F2, items))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F2, prime_field(7), QQ])
def test_field_axioms_randomized(field):
    rng = random.Random(20240 + field.char)
    def sample():
        if field is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return field.from_int(rng.randint(0, 40))
    for _ in range(300):
        a, b, c = sample(), sample(), sample()
        assert field.add(a, field.neg(a)) == field.zero
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_rationals_always_reduced():
    rng = random.Random(7)
    val = Fraction(1)
    for _ in range(200):
        other = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        val = QQ.add(QQ.mul(val, other), Fraction(1, 3)) if other else val
        from math import gcd
        assert gcd(val.numerator, val.denominator) == 1
        assert val.denominator > 0


#: rationals in either form the field takes in: ints, and Fractions whose
#: value may be integral
rationals = st.one_of(st.integers(-40, 40), st.fractions(-20, 20, max_denominator=6))
RATIONAL_KEYS = [(), (0,), (1, 0), (2, 2, 1)]


def assert_rational(got, want: Fraction):
    """``got`` is ``want``, as an int exactly when it is integral, and
    prints and hashes as the Fraction does."""
    assert got == want
    assert (type(got) is int) == (want.denominator == 1)
    assert str(got) == str(want)
    assert hash(got) == hash(want)


@given(rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_rational_arithmetic_matches_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_rational(QQ.add(a, b), fa + fb)
    assert_rational(QQ.mul(a, b), fa * fb)
    assert_rational(QQ.neg(a), -fa)
    if a:
        assert_rational(QQ.inv(a), 1 / fa)
        assert_rational(QQ.div(b, a), fb / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


@given(st.integers(-60, 60), st.integers(-12, 12).filter(bool))
@settings(max_examples=200, deadline=None)
def test_rational_parse_matches_fraction(num, den):
    assert_rational(QQ.parse(str(num)), Fraction(num))
    assert_rational(QQ.parse(f"{num}/{den}"), Fraction(num, den))
    assert_rational(QQ.from_int(num), Fraction(num))


@given(st.dictionaries(st.sampled_from(RATIONAL_KEYS), rationals.filter(bool)),
       st.dictionaries(st.sampled_from(RATIONAL_KEYS), rationals), rationals)
@settings(max_examples=300, deadline=None)
def test_rational_add_scaled_matches_fraction(acc, terms, coeff):
    expected = {k: Fraction(c) for k, c in acc.items()}
    for k, c in terms.items():
        s = expected.get(k, 0) + Fraction(coeff) * Fraction(c)
        if s:
            expected[k] = s
        else:
            expected.pop(k, None)
    got = QQ.add_scaled({k: QQ.add(c, 0) for k, c in acc.items()}, terms, coeff)
    # the same keys in the same order, no zero stored, each value in its form
    assert list(got) == list(expected)
    for k, c in got.items():
        assert c
        assert_rational(c, expected[k])


@given(st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=3).map(tuple), rationals),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_rational_polynomials_print_and_hash_as_with_fractions(items):
    p = NcPoly.from_terms(ALPHA3, QQ, items)
    as_fractions = NcPoly(ALPHA3, QQ, {w: Fraction(c) for w, c in p.terms.items()})
    assert all((type(c) is int) == (c.denominator == 1) for c in p.terms.values())
    assert p == as_fractions
    assert hash(p) == hash(as_fractions)
    assert str(p) == str(as_fractions)


def test_prime_field_is_cached_per_modulus():
    assert prime_field(101) is prime_field(101)
    with pytest.raises(ValueError):
        prime_field(6)


def test_fields_compare_by_value():
    assert PrimeField(5) == prime_field(5)
    assert hash(PrimeField(5)) == hash(prime_field(5))
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(2) != F2
    assert F2 != QQ
    p = NcPoly.term(ALPHA3, PrimeField(5), (0,), 2)
    q = NcPoly.term(ALPHA3, prime_field(5), (0,), 2)
    assert p == q and hash(p) == hash(q)
    assert p + q == NcPoly.term(ALPHA3, prime_field(5), (0,), 4)


def reference_add_scaled(field, acc, terms, coeff):
    """The general accumulation loop, through the field's add and mul."""
    z = field.zero
    for k, c in terms.items():
        s = field.add(acc.get(k, z), field.mul(coeff, c))
        if s == z:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


KERNEL_FIELDS = [F2, prime_field(3), prime_field(32003), QQ]
#: words and word pairs (tensor keys), few enough that acc and terms share keys
KERNEL_KEYS = [(), (0,), (1, 0), (2, 2, 1), ((), (0,)), ((1,), (1,)), ((0, 2), ())]


def kernel_scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.char - 1)


def assert_same_accumulation(field, acc, terms, coeff):
    expected = reference_add_scaled(field, dict(acc), terms, coeff)
    got = dict(acc)
    assert field.add_scaled(got, terms, coeff) is got
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_add_scaled_kernel_cases(field):
    one, z = field.one, field.zero
    minus_one = field.neg(one)
    a = field.from_int(2) if field.char != 2 else one
    acc = {(0,): a, ((), (0,)): one, (1, 0): one}
    # coeff zero, including over an explicit zero
    assert_same_accumulation(field, acc, {(0,): one, (2, 2, 1): z}, z)
    # keys already in acc, one of which cancels, and new keys appended
    assert_same_accumulation(field, acc, {(1, 0): one, (0,): a, (): one}, minus_one)
    # an explicit zero in terms, on a key of acc and on a new key
    assert_same_accumulation(field, acc, {(0,): z, (2, 2, 1): z, (1, 0): one}, one)
    # tuple-pair keys, as in tensor terms, cancelling and new
    assert_same_accumulation(field, acc, {((), (0,)): minus_one, ((1,), (1,)): a}, one)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_add_scaled_kernel_matches_the_general_loop(field, data):
    scalars = kernel_scalars(field)
    keys = st.sampled_from(KERNEL_KEYS)
    acc = data.draw(st.dictionaries(keys, scalars.filter(lambda c: c != field.zero)))
    terms = data.draw(st.dictionaries(keys, scalars))
    assert_same_accumulation(field, acc, terms, data.draw(scalars))


def reference_add_outer(field, acc, left, right, coeff):
    """The naive double loop over both factors, through add and mul."""
    z = field.zero
    for l, cl in left.items():
        for r, cr in right.items():
            k = (l, r)
            s = field.add(acc.get(k, z), field.mul(coeff, field.mul(cl, cr)))
            if s == z:
                acc.pop(k, None)
            else:
                acc[k] = s
    return acc


#: factor words, few enough that products meet the keys already in acc
OUTER_WORDS = [(), (0,), (1, 0), (2,)]


@pytest.mark.parametrize("field", [F2, prime_field(5), QQ], ids=str)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_add_outer_kernel_matches_the_naive_double_loop(field, data):
    scalars = kernel_scalars(field)
    nonzero = scalars.filter(lambda c: c != field.zero)
    words = st.sampled_from(OUTER_WORDS)
    pairs = st.tuples(words, words)
    # stored values in the field's own form: QQ keeps integral ones as ints
    drawn = data.draw(st.dictionaries(pairs, nonzero))
    acc = {k: field.add(c, field.zero) for k, c in drawn.items()}
    left = data.draw(st.dictionaries(words, nonzero, max_size=3))
    right = data.draw(st.dictionaries(words, nonzero, max_size=3))
    coeff = data.draw(scalars)
    expected = reference_add_outer(field, dict(acc), left, right, coeff)
    got = dict(acc)
    assert field.add_outer(got, left, right, coeff) is got
    assert list(got.items()) == list(expected.items())
    assert all(c != field.zero for c in got.values())
    if field is QQ:
        assert all(type(c) is int or c.denominator != 1 for c in got.values())
    # a zero coefficient changes nothing, over any factors
    unchanged = dict(acc)
    field.add_outer(unchanged, left, right, field.zero)
    assert list(unchanged.items()) == list(acc.items())


@pytest.mark.parametrize("field", [F2, prime_field(5), QQ], ids=str)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pure_tensors_and_tensor_reduction_match_the_old_loops(field, data):
    from nclift.rewrite import ReductionSystem, reduce_tensor

    scalars = kernel_scalars(field).filter(lambda c: c != field.zero)
    words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
    polys = st.dictionaries(words, scalars, max_size=4).map(
        lambda terms: NcPoly(ALPHA3, field, terms))
    p, q = data.draw(polys), data.draw(polys)
    # TensorPoly.of, as one product per pair of terms
    old = {(wp, wq): field.mul(cp, cq) for wp, cp in p.terms.items() for wq, cq in q.terms.items()}
    assert TensorPoly.of(p, q) == TensorPoly(ALPHA3, ALPHA3, field, old)
    # reduce_tensor, as the triple loop over each term's two normal forms
    relations = [parse_poly(text, ALPHA3, field)
                 for text in ("x1 x0 - x0 x1", "x2 x0 - x0 x2", "x2 x1 - x1 x2",
                              "x2 x2 - 2 x0 - 1")]
    system = ReductionSystem(ALPHA3, field, relations)
    t = TensorPoly.of(p, q) + TensorPoly.of(q, p)
    old = {}
    for (wl, wr), c in t.terms.items():
        for nl, cl in system.nf_word(wl).items():
            for nr, cr in system.nf_word(wr).items():
                reference_add_scaled(field, old, {(nl, nr): field.mul(cl, cr)}, c)
    assert reduce_tensor(t, system, system) == TensorPoly(ALPHA3, ALPHA3, field, old)


# ---------------------------------------------------------------------------
# alphabet and deglex
# ---------------------------------------------------------------------------

def test_alphabet_rejects_duplicates_and_bad_order():
    with pytest.raises(ValueError):
        Alphabet([("a", "module"), ("a", "group")])
    with pytest.raises(ValueError):
        Alphabet([("g", "group"), ("x", "module")])


def test_deglex_examples():
    # longer word wins
    assert deglex_compare((0, 1), (2,), ALPHA3) == 1
    # equal length, first position decides
    assert deglex_compare((0, 1), (2, 0), ALPHA3) == -1
    assert deglex_compare((), (), ALPHA3) == 0


def test_deglex_rejects_malformed_words():
    with pytest.raises(ValueError):
        deglex_compare((0, 9), (0,), ALPHA3)


@given(words5, words5, words5)
@settings(max_examples=300, deadline=None)
def test_deglex_total_order_laws(a, b, c):
    ab = deglex_compare(a, b, ALPHA5)
    ba = deglex_compare(b, a, ALPHA5)
    assert ab == -ba
    assert (ab == 0) == (a == b)
    if ab <= 0 and deglex_compare(b, c, ALPHA5) <= 0:
        assert deglex_compare(a, c, ALPHA5) <= 0


def test_deglex_well_order_on_bounded_words():
    # exhaustive over all words of length <= 4 on five letters: every nonempty
    # subset has a least element consistent with pairwise comparison
    words = [()]
    for _ in range(4):
        words += [w + (l,) for w in words if len(w) == _ for l in range(5)]
    keyed = sorted(words, key=lambda w: (len(w), w))
    for earlier, later in zip(keyed, keyed[1:]):
        assert deglex_compare(earlier, later, ALPHA5) == -1


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_poly_mul_examples():
    x0, x1, x2 = (NcPoly.term(ALPHA3, F2, (i,)) for i in range(3))
    assert (x0 + x1) * x2 == NcPoly.from_terms(ALPHA3, F2, [((0, 2), 1), ((1, 2), 1)])
    p = parse_poly("x0 x1 + x2", ALPHA3, F2)
    assert p * NcPoly.one(ALPHA3, F2) == p
    sq = (x0 + x1) * (x0 + x1)
    assert sq == parse_poly("x0 x0 + x0 x1 + x1 x0 + x1 x1", ALPHA3, F2)


def test_poly_mul_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        NcPoly.one(ALPHA3, F2) * NcPoly.one(ALPHA5, F2)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200, deadline=None)
def test_poly_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_no_zero_coefficients_stored():
    p = parse_poly("x0 + x0", ALPHA3, F2)
    assert not p.terms
    q = NcPoly.from_terms(ALPHA3, QQ, [((0,), Fraction(1, 2)), ((0,), Fraction(-1, 2))])
    assert not q
    x0 = parse_poly("x0", ALPHA3, F2)
    assert not (x0 + x0).terms
    assert not (TensorPoly.of(x0, x0) + TensorPoly.of(x0, x0)).terms
    acc = {(0,): Fraction(1), (1,): Fraction(2)}
    assert QQ.add_scaled(acc, {(0,): Fraction(1, 2), (2,): Fraction(3)}, Fraction(-2)) is acc
    assert acc == {(1,): Fraction(2), (2,): Fraction(-6)}


# ---------------------------------------------------------------------------
# tensor squares
# ---------------------------------------------------------------------------

def test_tensor_mul_examples():
    f = F2
    x0 = NcPoly.term(ALPHA5, f, (0,))
    x1 = NcPoly.term(ALPHA5, f, (1,))
    g = NcPoly.term(ALPHA5, f, (3,))
    one = NcPoly.one(ALPHA5, f)
    assert TensorPoly.of(x0, one) * TensorPoly.of(one, x1) == TensorPoly.of(x0, x1)
    gx0_g = TensorPoly.of(g, g) * TensorPoly.of(x0, one)
    assert gx0_g == TensorPoly(ALPHA5, ALPHA5, f, {((3, 0), (3,)): 1})


def test_tensor_mul_alphabet_mismatch():
    t1 = TensorPoly.of(NcPoly.one(ALPHA3, F2), NcPoly.one(ALPHA3, F2))
    t2 = TensorPoly.of(NcPoly.one(ALPHA5, F2), NcPoly.one(ALPHA3, F2))
    with pytest.raises(AlphabetMismatchError):
        t1 * t2


def test_tensor_square_binomial_over_rationals():
    alpha = Alphabet.from_parts(["a"])
    a = NcPoly.term(alpha, QQ, (0,))
    one = NcPoly.one(alpha, QQ)
    t = TensorPoly.of(a, one) + TensorPoly.of(one, a)
    sq = t * t
    expected = TensorPoly(alpha, alpha, QQ, {
        ((0, 0), ()): Fraction(1),
        ((0,), (0,)): Fraction(2),
        ((), (0, 0)): Fraction(1),
    })
    assert sq == expected


# ---------------------------------------------------------------------------
# textual syntax
# ---------------------------------------------------------------------------

def test_parse_examples():
    p = parse_poly("x0*x1 + x2*x0", ALPHA3, F2)
    assert p.terms == {(0, 1): 1, (2, 0): 1}
    q = parse_poly("1/2 x1 x1", ALPHA3, QQ)
    assert q.terms == {(1, 1): Fraction(1, 2)}
    r = parse_poly("x1 x2 - x2 x1 - 1/2 x1 x1", ALPHA3, QQ)
    assert r.terms == {(1, 2): 1, (2, 1): -1, (1, 1): Fraction(-1, 2)}
    assert parse_poly("0", ALPHA3, F2).terms == {}
    assert parse_poly("1", ALPHA3, F2).terms == {(): 1}
    # a leading sign and a run of signs between terms multiply out
    assert parse_poly("- x0", ALPHA3, QQ).terms == {(0,): -1}
    assert parse_poly("x0 - - x1", ALPHA3, QQ).terms == {(0,): 1, (1,): 1}
    assert parse_poly("x0 + - x1", ALPHA3, QQ).terms == {(0,): 1, (1,): -1}


@pytest.mark.parametrize("text", ["+", "-", "+ +", "x0 +", "x0 x1 -", "x0 + -"])
def test_parse_rejects_a_sign_with_no_term_after_it(text):
    with pytest.raises(ValueError, match="no term"):
        parse_poly(text, ALPHA3, F2)


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        items = [(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))),
                  Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 5))]
        p = NcPoly.from_terms(ALPHA3, QQ, items)
        assert parse_poly(format_poly(p), ALPHA3, QQ) == p


def test_format_is_descending_deglex():
    p = parse_poly("x0 + x2 x0 + 1", ALPHA3, F2)
    assert format_poly(p) == "x2*x0 + x0 + 1"
