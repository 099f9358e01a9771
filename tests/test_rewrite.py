"""Normal forms, ambiguities, completion, irreducible words, GF(2) rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclift import rewrite
from nclift.ncpoly import (Alphabet, F2, QQ, NcPoly, PrimeField, add_scaled, deglex_key,
                           parse_poly, prime_field)
from nclift.rewrite import (
    CAP_EXCEEDED,
    COLLAPSED_TO_ZERO,
    CONFLUENT,
    CapExceededError,
    Presentation,
    ReductionSystem,
    RewriteRule,
    _resolve,
    complete,
    count_irreducible,
    find_ambiguities,
    irreducible_words,
    rank_f2,
    reduce_tensor,
    verify_confluent,
)
from nclift import fk3, jordan
from nclift.fulcrum import T_LAMBDA, FulcrumPresentation, standard_yd_data, validate_lambda
from nclift.rackgroup import s3_quotient

ALPHA = Alphabet.from_parts(["x0", "x1", "x2"])


@pytest.fixture(scope="module")
def fk_completed():
    report = fk3.nichols_report()
    assert report.status == CONFLUENT
    return report


def _parse(text):
    return parse_poly(text, ALPHA, F2)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_normal_form_examples(fk_completed):
    sys_ = fk_completed.system
    assert sys_.normal_form(_parse("x2 x0")) == _parse("x1 x2 + x0 x1")
    assert sys_.normal_form(_parse("x0 x0")) == _parse("0")
    irreducible = _parse("x0 x1 + x1 x2")
    assert sys_.normal_form(irreducible) == irreducible


def test_normal_form_accepts_an_equal_field_instance():
    a = Alphabet.from_parts(["x0", "x1"])
    sys_ = ReductionSystem(a, PrimeField(5), [parse_poly("x1 x0 - 2 x0 x1", a, PrimeField(5))])
    assert sys_.normal_form(parse_poly("x1 x0", a, prime_field(5))) == \
        parse_poly("2 x0 x1", a, prime_field(5))


def test_normal_form_idempotent_and_linear(fk_completed):
    sys_ = fk_completed.system
    rng = random.Random(3)
    for _ in range(200):
        p = NcPoly.from_terms(ALPHA, F2, [
            (tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 5))), 1)
            for _ in range(rng.randint(0, 4))])
        q = NcPoly.from_terms(ALPHA, F2, [
            (tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4))), 1)
            for _ in range(rng.randint(0, 3))])
        nf = sys_.normal_form
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(p) + nf(q)


@pytest.mark.parametrize("flavor", [jordan.U_JORDAN, jordan.BOSONIZATION])
def test_group_power_normal_form_needs_no_recursion(flavor):
    pres = jordan.build_jordan(flavor, 6)
    sys_ = pres.complete().system
    alpha, field = sys_.alphabet, sys_.field

    def power_times_x1(k):
        g_k = (jordan.POS,) * k
        nf = NcPoly.term(alpha, field, (jordan.X1,) + g_k)
        if flavor == jordan.U_JORDAN:
            nf = nf + NcPoly.term(alpha, field, g_k, field.from_int(k)) \
                - NcPoly.term(alpha, field, g_k + (jordan.POS,), field.from_int(k))
        return nf

    # a thousand rewrites deep, far past the interpreter's recursion limit
    word = (jordan.POS,) * 1000 + (jordan.X1,)
    expected = power_times_x1(1000)
    assert NcPoly(alpha, field, sys_.nf_word(word)) == expected
    assert sys_.normal_form(NcPoly.term(alpha, field, word)) == expected
    for k in range(51):
        assert NcPoly(alpha, field, sys_.nf_word((jordan.POS,) * k + (jordan.X1,))) == \
            power_times_x1(k)
    # a system built with g^1000 x1 - x2 stops its completion at the cap
    long_rel = NcPoly.term(alpha, field, word) - NcPoly.term(alpha, field, (jordan.X2,))
    report = complete(ReductionSystem(alpha, field, pres.relations + [long_rel],
                                      pres.degree_cap, pres.order))
    assert report.status == CAP_EXCEEDED
    assert (report.cap_word, report.cap_lead) == (None, (jordan.X1,) + (jordan.POS,) * 1000)


def test_step_budget_is_per_insert(monkeypatch):
    # each relation needs four rewrite steps (x1 x1 -> x0 x0 at every pair),
    # so a budget of six holds for every insert but not for their sum
    alpha = Alphabet.from_parts(["x0", "x1", "x2", "x3", "x4"])
    rels = [parse_poly(text, alpha, F2)
            for text in ["x1 x1 + x0 x0"] + [f"x1 x1 x1 x1 x1 x1 x1 x1 x{k}" for k in (2, 3, 4)]]
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 6)
    sys_ = ReductionSystem(alpha, F2, rels)
    assert [r.lead for r in sys_.rules()] == [(1, 1)] + [(0,) * 8 + (k,) for k in (2, 3, 4)]
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 3)
    with pytest.raises(CapExceededError):
        ReductionSystem(alpha, F2, rels)


def test_rule_tails_below_leads(fk_completed):
    for rule in fk_completed.system.rules():
        for word in rule.tail.terms:
            assert (len(word), word) < (len(rule.lead), rule.lead)


# ---------------------------------------------------------------------------
# ambiguities
# ---------------------------------------------------------------------------

def test_overlap_ambiguity_example():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x2 x0 + x1"), _parse("x0 x1 + x2")])
    ambs = find_ambiguities(sys_)
    assert any(a.word == (2, 0, 1) and a.b == (0,) for a in ambs)


def test_disjoint_single_letter_leads_no_ambiguities():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x0"), _parse("x1")])
    assert find_ambiguities(sys_) == []


def test_fulcrum_system_has_group_module_module_family():
    yd = standard_yd_data()
    lam = validate_lambda([[0] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    quadratics = [fk3.deformed_relation(pres, lam, fk3.zero_mu(), i, j, True)
                  for i, j in fk3.relation_orbit_reps()]
    sys_ = ReductionSystem(pres.alphabet, F2, pres.relations + quadratics)
    ambs = find_ambiguities(sys_)
    mc = pres.alphabet.module_count
    # overlaps of a commutation lead (g, x_i) with a quadratic lead (x_i, x_j)
    family = [a for a in ambs
              if len(a.word) == 3 and a.word[0] >= mc
              and a.word[1] < mc and a.word[2] < mc]
    assert len(family) > 0


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_completion_of_quadratic_ideal_adds_one_cubic(fk_completed):
    assert fk_completed.status == CONFLUENT
    assert len(fk_completed.new_rules) == 1
    rule = fk_completed.new_rules[0]
    assert rule.lead == (1, 0, 1)
    assert rule.tail == _parse("x0 x1 x0")
    assert verify_confluent(fk_completed.system)


def test_group_table_rules_complete_with_zero_new_rules():
    G = s3_quotient()
    ids = [G.name(e) for e in range(G.order)]
    alpha = Alphabet.from_parts([], ids)
    rels = []
    for a in range(1, G.order):
        for b in range(1, G.order):
            prod = G.mul(a, b)
            tail = [((prod,), 1)] if prod != 0 else [((), 1)]
            rels.append(NcPoly.from_terms(alpha, F2, [((a, b), 1)] + tail))
    report = complete(ReductionSystem(alpha, F2, rels))
    assert report.status == CONFLUENT
    assert report.new_rules == []


def test_collapse_detection():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x0 + 1"), _parse("x0")])
    report = complete(sys_)
    assert report.status == COLLAPSED_TO_ZERO
    assert report.system.normal_form(_parse("1")) == _parse("0")


def test_cap_exceeded_when_new_lead_would_be_too_long():
    sys_ = ReductionSystem(ALPHA, F2, fk3.fk3_relations(), degree_cap=2)
    report = complete(sys_)
    assert report.status == CAP_EXCEEDED
    # the diagnostics name the ambiguity and the lead that broke the cap
    assert len(report.cap_lead) > 2
    assert deglex_key(report.cap_lead) < deglex_key(report.cap_word)
    assert report.cap_lead in _resolve(report.system, next(
        a for a in find_ambiguities(report.system) if a.word == report.cap_word))
    assert not {"cap_word", "cap_lead"} & set(report.to_json())


def test_input_lead_longer_than_the_cap_is_cap_exceeded():
    relation = [_parse("x0 x1 x0 + x2")]
    report = complete(ReductionSystem(ALPHA, F2, relation, degree_cap=1))
    assert report.status == CAP_EXCEEDED
    assert (report.cap_word, report.cap_lead) == (None, (0, 1, 0))
    assert report.ambiguities_checked == 0
    # the overlap x0 x1 x0 x1 x0 the cap-1 run never resolved is not confluent
    assert not verify_confluent(ReductionSystem(ALPHA, F2, relation, degree_cap=1))
    report = complete(ReductionSystem(ALPHA, F2, relation, degree_cap=8))
    assert report.status == CONFLUENT
    assert [str(rule) for rule in report.new_rules] == ["x2*x1*x0 -> x0*x1*x2"]


def test_lead_from_inter_reduction_longer_than_the_cap_is_cap_exceeded():
    # xdeglex: adopting x1 -> g g g + 1 rewrites x1 g -> g + x1 into g^4 -> g^3 + 1
    alpha = Alphabet.from_parts(["x0", "x1"], ["g"])
    relations = [parse_poly(text, alpha, F2)
                 for text in ("x0 x1 g x0 + g + x1", "x1 g x1 g + x1 g x0 + 1", "x0 + 1")]
    sys_ = ReductionSystem(alpha, F2, relations, degree_cap=3, order="xdeglex")
    assert all(len(rule.lead) <= 3 for rule in sys_.rules())
    report = complete(sys_)
    assert report.status == CAP_EXCEEDED
    assert (report.cap_word, report.cap_lead) == (None, (2, 2, 2, 2))
    assert [str(rule) for rule in report.new_rules] == ["x1 -> g*g*g + 1"]


# ---------------------------------------------------------------------------
# the queue engine against the restart engine it replaced
# ---------------------------------------------------------------------------

def _restart_interreduce(work):
    """Remove and reinsert every rule, in lead order, until nothing changes."""
    changed = True
    while changed and not work.collapsed:
        changed = False
        for lead in sorted(work._rules, key=work._key):
            if lead not in work._rules:
                continue
            tail = work._rules[lead]
            work._remove(lead)
            f = work.field
            poly = {w: f.neg(c) for w, c in tail.items()}
            poly[lead] = f.one
            work._insert(poly)
            if work.collapsed:
                return
            if work._rules.get(lead) != tail:
                changed = True


def restart_complete(sys_):
    """Reference completion: re-resolve every ambiguity after each new rule.

    Returns (status, system, new rules, resolutions computed).
    """
    work = sys_.copy()
    new_rules = []
    checked = 0
    if work.collapsed:
        return COLLAPSED_TO_ZERO, work, new_rules, checked
    while True:
        for amb in find_ambiguities(work):
            checked += 1
            diff = _resolve(work, amb)
            if not diff:
                continue
            lead = max(diff, key=work._key)
            if not lead:
                return COLLAPSED_TO_ZERO, work, new_rules, checked
            if len(lead) > work.degree_cap:
                return CAP_EXCEEDED, work, new_rules, checked
            lead, tail = work._orient(diff)
            work._install(lead, tail)
            new_rules.append(RewriteRule(lead, NcPoly(work.alphabet, work.field, tail)))
            _restart_interreduce(work)
            if work.collapsed:
                return COLLAPSED_TO_ZERO, work, new_rules, checked
            break
        else:
            return CONFLUENT, work, new_rules, checked


@st.composite
def small_systems(draw, caps=st.integers(3, 5)):
    field = draw(st.sampled_from([F2, prime_field(5), QQ]))
    size = draw(st.integers(2, 3))
    alpha = Alphabet.from_parts([f"x{i}" for i in range(size)])
    letters = st.integers(0, size - 1)
    coeffs = st.integers(-2, 2).filter(bool).map(field.from_int)
    # one term of degree 2 or 3 per relation, so that most systems overlap
    heads = st.tuples(st.lists(letters, min_size=2, max_size=3).map(tuple), coeffs)
    terms = st.tuples(st.lists(letters, max_size=3).map(tuple), coeffs)
    relations = draw(st.lists(st.tuples(heads, st.lists(terms, max_size=2)),
                              min_size=1, max_size=4))
    cap = draw(caps)
    return ReductionSystem(alpha, field, [NcPoly.from_terms(alpha, field, [head] + rest)
                                          for head, rest in relations], degree_cap=cap)


@given(small_systems())
@settings(max_examples=200, deadline=None)
def test_queue_completion_matches_restart_completion(sys_):
    report = complete(sys_)
    status, ref_sys, ref_new, _ = restart_complete(sys_)
    if CAP_EXCEEDED in (status, report.status):
        return
    assert report.status == status
    assert report.system.rules() == ref_sys.rules()
    assert report.new_rules == ref_new
    if status == CONFLUENT:
        assert verify_confluent(report.system)


@given(small_systems(caps=st.integers(1, 4)))
@settings(max_examples=200, deadline=None)
def test_confluent_systems_have_no_lead_above_the_cap(sys_):
    report = complete(sys_)
    if report.status == CONFLUENT:
        assert all(len(rule.lead) <= sys_.degree_cap for rule in report.system.rules())
        assert verify_confluent(report.system)
    elif report.status == CAP_EXCEEDED:
        assert len(report.cap_lead) > sys_.degree_cap


def _nested_leads(sys_):
    """Pairs of distinct leads (l1, l2) with l2 occurring inside l1."""
    leads = [rule.lead for rule in sys_.rules()]
    return [(l1, l2) for l1 in leads for l2 in leads
            if l1 != l2 and any(l1[i:i + len(l2)] == l2 for i in range(len(l1)))]


@given(small_systems(caps=st.integers(1, 5)))
@settings(max_examples=200, deadline=None)
def test_no_lead_contains_another_lead(sys_):
    # which is why every ambiguity the engine lists is an overlap
    assert _nested_leads(sys_) == []
    assert _nested_leads(complete(sys_).system) == []


# ---------------------------------------------------------------------------
# the letter-at-a-time fold against the recursive engine it replaced
# ---------------------------------------------------------------------------

def recursive_nf_word(sys_, word, memo):
    """Reference normal form: rewrite the leftmost lead occurrence, recurse on
    each resulting word, memoize whole words."""
    hit = memo.get(word)
    if hit is not None:
        return hit
    f = sys_.field
    for i in range(len(word)):
        lead = next((lead for lead in sys_._rules if word[i:i + len(lead)] == lead), None)
        if lead is not None:
            break
    else:
        memo[word] = {word: f.one}
        return memo[word]
    acc = {}
    for tw, tc in sys_._rules[lead].items():
        add_scaled(acc, recursive_nf_word(sys_, word[:i] + tw + word[i + len(lead):], memo),
                   tc, f)
    memo[word] = acc
    return acc


@given(small_systems(caps=st.integers(1, 4)), st.data())
@settings(max_examples=150, deadline=None)
def test_fold_matches_recursive_normal_forms(sys_, data):
    words = st.lists(st.integers(0, len(sys_.alphabet) - 1), max_size=8).map(tuple)
    for system in (sys_, complete(sys_).system):
        memo = {}
        for word in data.draw(st.lists(words, min_size=1, max_size=6)):
            expected = {} if system.collapsed else recursive_nf_word(system, word, memo)
            assert system.nf_word(word) == expected


def _act(word, k):
    """x1 -> t, x2 -> -1/2 t^2 d/dt applied to t^k, as (exponent, coefficient)."""
    coeff, exp = Fraction(1), k
    for letter in reversed(word):
        if letter == jordan.X2:
            coeff *= Fraction(-exp, 2)
        exp += 1
    return exp, coeff


def test_long_jordan_word_normal_form():
    sys_ = jordan.build_jordan(jordan.BOSONIZATION, 6).complete().system.copy()
    k = 20
    word = (jordan.X2,) * k + (jordan.X1,) * k
    nf = sys_.nf_word(word)
    # x2^k x1^k = sum over a + b = 2k, b <= k, of c_ab x1^a x2^b
    assert sorted(nf) == sorted((jordan.X1,) * (2 * k - b) + (jordan.X2,) * b
                                for b in range(k + 1))
    # the faithful action on t^0..t^2k separates those normal words
    for n in range(2 * k + 1):
        image = {}
        for w, c in nf.items():
            exp, coeff = _act(w, n)
            image[exp] = image.get(exp, 0) + c * coeff
        exp, coeff = _act(word, n)
        assert {e: c for e, c in image.items() if c} == ({exp: coeff} if coeff else {})
    # the recursive engine memoized 53,236 words already at k = 12
    assert len(sys_._memo) < 2000


def fomin_kirillov(n, field, cap):
    """E_n: generators x_ij (i < j, x_ji = -x_ij), squares, commuting disjoint
    pairs, and the three-term relations."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    alpha = Alphabet.from_parts([f"x{i}{j}" for i, j in pairs])
    gens = {p: NcPoly.term(alpha, field, (k,)) for k, p in enumerate(pairs)}

    def x(a, b):
        return gens[(a, b)] if a < b else -gens[(b, a)]

    rels = [gens[p] * gens[p] for p in pairs]
    rels += [gens[p] * gens[q] - gens[q] * gens[p] for m, p in enumerate(pairs)
             for q in pairs[m + 1:] if not set(p) & set(q)]
    for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n)
                    for k in range(j + 1, n)):
        for a, b, c in ((i, j, k), (i, k, j)):
            rels.append(x(a, b) * x(b, c) + x(b, c) * x(c, a) + x(c, a) * x(a, b))
    return ReductionSystem(alpha, field, rels, degree_cap=cap)


E4_PER_LENGTH = [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]


@pytest.mark.parametrize("field", [F2, prime_field(32003), QQ], ids=["f2", "fp", "qq"])
def test_fomin_kirillov_e4_completes(field):
    report = complete(fomin_kirillov(4, field, 6))
    assert report.status == CONFLUENT
    assert (report.system.rule_count(), len(report.new_rules)) == (25, 8)
    counts = count_irreducible(report.system, 13)
    assert counts.per_length[:13] == E4_PER_LENGTH and counts.finite
    assert counts.total == 576
    # the restart engine resolved 398 ambiguities here
    assert report.ambiguities_checked < 398
    assert verify_confluent(report.system)


def test_fomin_kirillov_e5_breaks_cap_7():
    report = complete(fomin_kirillov(5, F2, 7))
    assert report.status == CAP_EXCEEDED
    assert (report.system.rule_count(), len(report.new_rules)) == (102, 57)
    assert len(report.cap_lead) == 8
    # the restart engine resolved 17,111 ambiguities here
    assert report.ambiguities_checked < 17_111


# ---------------------------------------------------------------------------
# irreducible words
# ---------------------------------------------------------------------------

def test_irreducible_counts_for_quadratic_ideal(fk_completed):
    counts = count_irreducible(fk_completed.system, 8)
    assert counts.total == 12
    assert counts.per_length[:5] == [1, 3, 4, 3, 1]
    assert counts.finite


def test_irreducible_counts_match_row_product_basis(fk_completed):
    # independent oracle: concatenate one entry from each of the three rows
    # {1, x0}, {1, x1, x1 x0}, {1, x2} and count by length
    rows = [[(), (0,)], [(), (1,), (1, 0)], [(), (2,)]]
    basis = sorted({a + b + c for a in rows[0] for b in rows[1] for c in rows[2]},
                   key=lambda w: (len(w), w))
    assert len(basis) == 12
    by_len = {}
    for w in basis:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    counts = count_irreducible(fk_completed.system, 8)
    assert [by_len.get(l, 0) for l in range(5)] == counts.per_length[:5]
    assert sorted(irreducible_words(fk_completed.system, 8),
                  key=lambda w: (len(w), w)) == basis


def test_irreducible_counts_free_algebra():
    sys_ = ReductionSystem(ALPHA, F2, [])
    counts = count_irreducible(sys_, 2)
    assert counts.per_length == [1, 3, 9]
    assert not counts.finite
    with pytest.raises(ValueError, match="max_len"):
        count_irreducible(sys_, -1)


def test_lifting_dimension_is_72():
    build = fk3.build_lifting(fk3.zero_lambda(), fk3.zero_mu())
    assert build.dimension() == 72


# ---------------------------------------------------------------------------
# basis shape of the deformed smash products
# ---------------------------------------------------------------------------

def test_irreducible_words_are_module_then_one_group_letter():
    yd = standard_yd_data()
    lam = validate_lambda([[1] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    report = pres.complete()
    assert report.status == CONFLUENT
    mc = pres.alphabet.module_count
    for word in irreducible_words(report.system, 5):
        group_positions = [k for k, o in enumerate(word) if o >= mc]
        assert len(group_positions) <= 1
        if group_positions:
            assert group_positions[0] == len(word) - 1


def test_filtration_module_degree_never_increases():
    yd = standard_yd_data()
    lam = validate_lambda([[1] * 3] * 3).matrix
    pres = FulcrumPresentation(T_LAMBDA, yd, lam)
    sys_ = pres.complete().system
    rng = random.Random(5)
    size = len(pres.alphabet)
    mc = pres.alphabet.module_count
    for _ in range(300):
        word = tuple(rng.randint(0, size - 1) for _ in range(rng.randint(0, 5)))
        n = sum(1 for o in word if o < mc)
        for out_word in sys_.nf_word(word):
            assert sum(1 for o in out_word if o < mc) <= n


@pytest.mark.parametrize("lam_bits,mu_bits", [("000000000", "000000000"),
                                              ("111111111", "100010001")])
def test_flip_map_is_invertible_on_basis(lam_bits, mu_bits):
    # the linear map (A, h) -> nf(h A) over the 72-word basis has full rank
    lam = fk3.lambda_from_bits(lam_bits)
    build = fk3.build_lifting(lam, fk3.mu_from_bits(mu_bits, lam))
    sys_ = build.system
    basis = build.basis()
    index = {w: n for n, w in enumerate(basis)}
    mc = build.presentation.alphabet.module_count
    rows = []
    for word in basis:
        module_part = tuple(o for o in word if o < mc)
        group_part = tuple(o for o in word if o >= mc)
        bits = 0
        for out_word in sys_.nf_word(group_part + module_part):
            bits ^= 1 << index[out_word]
        rows.append(bits)
    assert rank_f2(rows, len(basis)) == len(basis)


# ---------------------------------------------------------------------------
# tensor reduction
# ---------------------------------------------------------------------------

def test_reduce_tensor_factorwise(fk_completed):
    from nclift.ncpoly import TensorPoly
    sys_ = fk_completed.system
    t = TensorPoly.of(_parse("x2 x0"), _parse("x0 x0"))
    reduced = reduce_tensor(t, sys_, sys_)
    assert reduced == TensorPoly.zero(ALPHA, ALPHA, F2)
    t2 = TensorPoly.of(_parse("x2 x0"), _parse("x1"))
    assert reduce_tensor(t2, sys_, sys_) == TensorPoly.of(_parse("x1 x2 + x0 x1"), _parse("x1"))


# ---------------------------------------------------------------------------
# GF(2) rank
# ---------------------------------------------------------------------------

def test_rank_identity_5184():
    rows = [1 << i for i in range(5184)]
    assert rank_f2(rows, 5184) == 5184


def test_rank_zero_and_duplicates():
    assert rank_f2([0, 0, 0], 16) == 0
    assert rank_f2([0b1011, 0b1011], 4) == 1


def test_rank_width_mismatch():
    with pytest.raises(ValueError):
        rank_f2([0b100], 2)


def test_rank_agrees_with_dense_elimination():
    rng = random.Random(17)
    for _ in range(25):
        n, m = rng.randint(1, 8), rng.randint(1, 10)
        mat = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        rows = [sum(bit << j for j, bit in enumerate(row)) for row in mat]
        # plain elimination oracle on the dense matrix
        dense = [row[:] for row in mat]
        rank = 0
        for col in range(m):
            piv = next((r for r in range(rank, n) if dense[r][col]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            for r in range(n):
                if r != rank and dense[r][col]:
                    dense[r] = [(a + b) % 2 for a, b in zip(dense[r], dense[rank])]
            rank += 1
        assert rank_f2(rows, m) == rank


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
generators = st.fixed_dictionaries({
    "id": st.sampled_from(["x0", "x1", "g", "1", "x0"]) | json_values,
    "sort": st.sampled_from(["module", "group", "other"]) | json_values,
})
presentation_docs = st.fixed_dictionaries({}, optional={
    "alphabet": st.lists(generators, max_size=4) | json_values,
    "relations": st.lists(st.text(" x01g+-*/2", max_size=16), max_size=4) | json_values,
    "degree_cap": st.integers(-1, 9) | json_values,
    "field": st.sampled_from(["f2", "fp:5", "fp:4", "fp:", "rational", "qq"]) | json_values,
    "order": st.sampled_from(["deglex", "xdeglex", "lex"]) | json_values,
})


@given(json_values | presentation_docs)
@settings(max_examples=300, deadline=None)
def test_from_json_returns_or_raises_value_error(doc):
    try:
        pres = Presentation.from_json(doc)
    except ValueError:
        return
    assert pres.system().degree_cap == doc.get("degree_cap", 8)
