"""Normal forms, ambiguities, completion, irreducible words, GF(2) rank."""

import functools
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclift import rewrite
from nclift.ncpoly import (Alphabet, F2, QQ, NcPoly, PrimeField, deglex_key, parse_poly,
                           prime_field)
from nclift.rewrite import (
    CAP_EXCEEDED,
    COLLAPSED_TO_ZERO,
    CONFLUENT,
    Ambiguity,
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
from nclift.fulcrum import (T_LAMBDA, T_PRIME_LAMBDA, FulcrumPresentation, standard_yd_data,
                            validate_lambda)
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


MALFORMED = r"^malformed word: ordinal -?\d+ outside alphabet$"


COMMUTING = ["x1 x0 + x0 x1", "x2 x0 + x0 x2", "x2 x1 + x1 x2"]


def _commuting_system(warm=False):
    """The commutative polynomials in x0, x1, x2, on an empty memo, or on
    a memo that holds a few words and their prefixes."""
    sys_ = ReductionSystem(ALPHA, F2, map(_parse, COMMUTING)).copy()
    assert not sys_._memo
    if warm:
        for word in [(0,), (1, 0), (2, 1, 0), (1, 0, 2, 0)]:
            sys_.nf_word(word)
        assert sys_._memo
    return sys_


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "warm-memo"])
@pytest.mark.parametrize("word", [(3,), (0, 7), (1, 0, 3), (-1,), (1, -1), (1, 0, -2)])
def test_nf_word_rejects_an_ordinal_outside_the_alphabet(word, warm):
    sys_ = _commuting_system(warm)
    with pytest.raises(ValueError, match=MALFORMED):
        sys_.nf_word(word)
    with pytest.raises(ValueError, match=MALFORMED):
        sys_.nf_word(list(word))


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "warm-memo"])
def test_nf_word_of_a_list_is_that_of_its_tuple(warm):
    sys_ = _commuting_system(warm)
    for word in [(), (0,), (1, 0), (2, 1, 0), (1, 2, 1, 0)]:
        got = sys_.nf_word(list(word))
        assert got == sys_.nf_word(word) == _commuting_system().nf_word(word)
        assert got == {tuple(sorted(word)): F2.one}


def test_nf_word_of_a_collapsed_system_is_zero():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x0 + 1"), _parse("x0")])
    assert sys_.collapsed
    for word in [(), (0,), [1, 0], (2, 2, 1)]:
        assert sys_.nf_word(word) == {}
    with pytest.raises(ValueError, match=MALFORMED):
        sys_.nf_word((3,))


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "warm-memo"])
@pytest.mark.parametrize("letter", [3, 7, -1])
def test_nf_times_rejects_a_letter_outside_the_alphabet(letter, warm):
    sys_ = _commuting_system(warm)
    keys = set(sys_._memo)
    for u in [(), (0,), (1, 2)]:
        with pytest.raises(ValueError, match=MALFORMED):
            sys_._nf_times(u, letter)
        # no memo key was left behind, so nf_word still refuses the word
        assert set(sys_._memo) == keys
        with pytest.raises(ValueError, match=MALFORMED):
            sys_.nf_word(u + (letter,))


def test_nf_times_of_a_collapsed_system_is_zero():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x0 + 1"), _parse("x0")])
    assert sys_.collapsed
    assert sys_._nf_times((), 0) == sys_._nf_times((1, 2), 2) == {}
    with pytest.raises(ValueError, match=MALFORMED):
        sys_._nf_times((), 3)


def test_polynomials_with_an_ordinal_outside_the_alphabet_are_refused():
    """Polynomials made with NcPoly's constructor are not checked, so the
    system checks each one it takes in: none can put a malformed word in
    the memo, where nf_word would find it before checking."""
    bad = NcPoly(ALPHA, F2, {(1, 3): F2.one, (0,): F2.one})
    sys_ = _commuting_system(warm=True)
    with pytest.raises(ValueError, match=MALFORMED):
        sys_.normal_form(bad)
    with pytest.raises(ValueError, match=MALFORMED):
        sys_.nf_word((1, 3))
    with pytest.raises(ValueError, match=MALFORMED):
        ReductionSystem(ALPHA, F2, [_parse(COMMUTING[0]), bad])
    base = ReductionSystem(ALPHA, F2, map(_parse, COMMUTING[:2])).freeze()
    with pytest.raises(ValueError, match=MALFORMED):
        base.completion_with([_parse(COMMUTING[2]), bad])
    assert base.completion_with([_parse(COMMUTING[2])]).status == CONFLUENT


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


def _remove(sys_, lead):
    """Remove ``lead`` the way inter-reduction does, with its inner redex."""
    sys_._remove(lead, sys_._find_redex(lead[:-1]))


def _rule_state(sys_):
    """Rules in table order with their tails, and the lead length index."""
    return ([(lead, dict(tail)) for lead, tail in sys_._rules.items()],
            dict(sys_._lengths), sys_.collapsed)


def test_copy_keeps_rule_and_lead_index_order(fk_completed):
    sys_ = fk_completed.system
    dup = sys_.copy()
    assert _rule_state(dup) == _rule_state(sys_)
    assert dup.rules() == sys_.rules()
    # the rule table is not in lead order, so the comparison above checks order
    assert list(sys_._rules) != sorted(sys_._rules, key=sys_._key)
    # the index holds each last letter's lead lengths, longest first
    assert sys_._lengths == {0: (2,), 1: (3, 2), 2: (2,)}
    # a removed lead leaves its length behind, and a copy keeps it
    _remove(dup, (1, 0, 1))
    assert dup.copy()._lengths[1] == (3, 2)
    assert dup._lead_ending((1, 0, 1), 3) is None
    assert dup._lead_ending((1, 0, 1, 1), 4) == (1, 1)


def test_copy_of_a_frozen_system_is_not_frozen(fk_completed):
    rel = _parse("x0 x1 x0")
    with pytest.raises(RuntimeError, match="frozen"):
        fk_completed.system.extend([rel])
    dup = fk_completed.system.copy()
    dup.extend([rel])
    assert dup.normal_form(rel) == _parse("0")


@pytest.mark.parametrize("text", ["x0 x1 x0", "x1 + x0", "1"],
                         ids=["new-rule", "inter-reduces", "collapses"])
def test_changing_a_copy_leaves_the_original_alone(text):
    sys_ = ReductionSystem(ALPHA, F2, [_parse(t) for t in
                                       ["x1 x0 + x0 x1", "x2 x1 + x1 x2", "x2 x0 + x0 x2"]])
    sys_.freeze()
    before = _rule_state(sys_)
    dup = sys_.copy()
    dup.extend([_parse(text)])
    assert _rule_state(dup) != before
    assert _rule_state(sys_) == before
    assert sys_.normal_form(_parse("x2 x1 x0")) == _parse("x0 x1 x2")


def test_presentation_builds_its_rules_once_and_completes_a_copy(monkeypatch):
    pres = Presentation(ALPHA, F2, fk3.fk3_relations())
    system = pres.system()
    assert pres.system() is system
    with pytest.raises(RuntimeError, match="frozen"):
        system.extend([_parse("x0 x1 x0")])
    built = []
    real_init = ReductionSystem.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ReductionSystem, "__init__", recording_init)
    report = pres.complete()
    assert report.status == CONFLUENT
    assert built == [report.system]
    assert system.rule_count() == 5 and report.system.rule_count() == 6


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
    quadratics = [fk3.deformed_relation(pres, lam, i, j, fk3.zero_mu()[i, j], True)
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
            _remove(work, lead)
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
def small_relations(draw, caps=st.integers(3, 5), fields=(F2, prime_field(5), QQ),
                    mixed=False):
    """(alphabet, field, relations, degree cap) of a small system; with
    ``mixed`` the alphabet has both module and group letters."""
    field = draw(st.sampled_from(fields))
    size = draw(st.integers(2, 3))
    groups = draw(st.integers(1, size - 1)) if mixed else 0
    alpha = Alphabet.from_parts([f"x{i}" for i in range(size - groups)],
                                [f"g{i}" for i in range(groups)])
    letters = st.integers(0, size - 1)
    coeffs = st.integers(-2, 2).filter(bool).map(field.from_int)
    # one term of degree 2 or 3 per relation, so that most systems overlap
    heads = st.tuples(st.lists(letters, min_size=2, max_size=3).map(tuple), coeffs)
    terms = st.tuples(st.lists(letters, max_size=3).map(tuple), coeffs)
    relations = draw(st.lists(st.tuples(heads, st.lists(terms, max_size=2)),
                              min_size=1, max_size=4))
    cap = draw(caps)
    return alpha, field, [NcPoly.from_terms(alpha, field, [head] + rest)
                          for head, rest in relations], cap


def small_systems(caps=st.integers(3, 5)):
    return small_relations(caps).map(
        lambda drawn: ReductionSystem(*drawn[:3], degree_cap=drawn[3]))


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


def _all_pairs_ambiguities(leads):
    """Reference overlap search: every ordered pair of leads, every overlap
    length, by slicing."""
    return [Ambiguity(l1, l2, l1[:len(l1) - k], l2[:k], l2[k:])
            for l1 in leads for l2 in leads for k in range(1, min(len(l1), len(l2)))
            if l1[len(l1) - k:] == l2[:k]]


def _sorted_ambiguities(sys_, ambs):
    return sorted(ambs, key=lambda amb: (sys_._key(amb.word), amb.lead1, amb.lead2, amb.a))


def _check_ambiguity_order(sys_):
    """``find_ambiguities`` and a sort by ``_order_text`` both give the
    all-pairs search in the order of the tuple key; returns that list."""
    expected = _sorted_ambiguities(sys_, _all_pairs_ambiguities(list(sys_._rules)))
    assert find_ambiguities(sys_) == expected
    shuffled = list(expected)
    random.Random(len(expected)).shuffle(shuffled)
    assert sorted(shuffled, key=rewrite._order_text(sys_)) == expected
    return expected


@given(small_systems(caps=st.integers(1, 5)))
@settings(max_examples=200, deadline=None)
def test_ambiguities_match_an_all_pairs_search(sys_):
    _check_ambiguity_order(sys_)


@given(small_relations(caps=st.integers(1, 5), mixed=True))
@settings(max_examples=200, deadline=None)
def test_xdeglex_ambiguities_match_an_all_pairs_search(drawn):
    # module degree first: the order of the Jordan systems
    alpha, field, relations, cap = drawn
    _check_ambiguity_order(ReductionSystem(alpha, field, relations, cap, order="xdeglex"))


@pytest.mark.parametrize("flavor", jordan.FLAVORS)
def test_ambiguities_of_the_jordan_systems_match_an_all_pairs_search(flavor):
    pres = jordan.build_jordan(flavor, 6)
    assert (pres.field, pres.order) == (QQ, "xdeglex")
    assert _check_ambiguity_order(pres.system())
    assert _check_ambiguity_order(pres.complete().system)


@pytest.mark.parametrize("build", [
    lambda: complete(fomin_kirillov(4, F2, 6)).system,
    lambda: fk3.build_lifting(fk3.lambda_from_bits("000101110"),
                              fk3.mu_from_bits("100000000",
                                               fk3.lambda_from_bits("000101110"))).system,
], ids=["completed-E4", "fk3-lifting"])
def test_ambiguities_of_large_systems_match_an_all_pairs_search(build):
    sys_ = build()
    ambs = find_ambiguities(sys_)
    assert ambs == _sorted_ambiguities(sys_, _all_pairs_ambiguities(list(sys_._rules)))
    assert len(ambs) > 100


@given(small_systems(caps=st.integers(1, 5)), st.data())
@settings(max_examples=150, deadline=None)
def test_overlap_index_after_discards_matches_an_all_pairs_search(sys_, data):
    # the completion queue adds and discards leads as rules come and go
    leads = list(sys_._rules)
    kept = data.draw(st.lists(st.sampled_from(leads), unique=True)) if leads else []
    index = rewrite._OverlapIndex()
    for lead in leads:
        index.add(lead)
    for lead in leads:
        if lead not in kept:
            index.discard(lead)
            index.discard(lead)     # discarding a lead not indexed does nothing
    reference = _all_pairs_ambiguities(kept)
    for lead in kept:
        found = index.ambiguities(lead)
        assert len(found) == len(set(found))
        assert set(found) == {a for a in reference if lead in (a.lead1, a.lead2)}


@given(small_systems(caps=st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_lead_lookups_match_brute_force(sys_):
    # redex search and word counting both go through the last-letter index
    size = len(sys_.alphabet)
    for system in (sys_, complete(sys_).system):
        leads = list(system._rules)

        def occurrences(word):
            return [(i, lead) for i in range(len(word)) for lead in leads
                    if word[i:i + len(lead)] == lead]

        for n in range(6):
            for word in itertools.product(range(size), repeat=n):
                assert system._find_redex(word) == min(occurrences(word), default=None,
                                                       key=lambda occ: occ[0])
        levels = [[()]]
        for n in range(1, 7):
            level = [w for w in itertools.product(range(size), repeat=n) if not occurrences(w)]
            if not level:
                break
            levels.append(level)
        expected = [[]] if system.collapsed else levels
        assert rewrite.irreducible_words_by_length(system, 6) == expected


@given(small_systems(caps=st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_nf_times_is_nf_word_of_the_word_one_letter_longer(sys_):
    """The fold step against a whole normal form, in systems taken as built:
    inter-reduced, but in general not confluent."""
    size = len(sys_.alphabet)
    irreducible = [w for n in range(5) for w in itertools.product(range(size), repeat=n)
                   if sys_._find_redex(w) is None]
    steps, words = sys_.copy(), sys_.copy()
    for u in irreducible:
        for a in range(size):
            assert steps._nf_times(u, a) == words.nf_word(u + (a,)), (u, a)
    # and on one memo, whichever entry filled it
    for u in irreducible:
        for a in range(size):
            assert words._nf_times(u, a) == steps.nf_word(u + (a,))


# ---------------------------------------------------------------------------
# inter-reduction that skips the rules known reduced, against the full pass
# ---------------------------------------------------------------------------

def _full_pass_interreduce(sys_):
    """Inter-reduction that visits every rule on every pass, as before rules
    kept their strings; it never reads them."""
    changed = True
    while changed and not sys_.collapsed:
        changed = False
        for lead in sorted(sys_._rules, key=sys_._key):
            tail = sys_._rules.get(lead)
            if tail is None:
                continue
            inner = sys_._find_redex(lead[:-1])
            if inner or sys_._find_redex(lead[1:]):
                sys_._remove(lead, inner)
                f = sys_.field
                poly = {w: f.neg(c) for w, c in tail.items()}
                poly[lead] = f.one
                sys_._insert(poly)
                changed = True
                if sys_.collapsed:
                    return
                continue
            reduced = sys_._nf_terms(tail)
            if reduced != tail:
                sys_._rules[lead] = reduced
                sys_._memo.clear()
                changed = True


def _table(sys_):
    """``collapsed`` and the rules in table order, each tail in term order."""
    return sys_.collapsed, [(lead, list(tail.items())) for lead, tail in sys_._rules.items()]


def _drawn_relations(data, alpha, field):
    letters = st.integers(0, len(alpha) - 1)
    coeffs = st.integers(-2, 2).filter(bool).map(field.from_int)
    terms = st.lists(st.tuples(st.lists(letters, max_size=3).map(tuple), coeffs),
                     min_size=1, max_size=3)
    return [NcPoly.from_terms(alpha, field, items)
            for items in data.draw(st.lists(terms, min_size=1, max_size=3))]


@given(small_relations(), st.data())
@settings(max_examples=200, deadline=None)
def test_interreduce_of_a_base_copy_with_added_rules_matches_the_full_pass(drawn, data):
    # the completion_with path: a frozen base's copy, which keeps the base's
    # strings, with the rules that relations reduce to installed on it
    alpha, field, relations, cap = drawn
    base = ReductionSystem(alpha, field, relations, cap).freeze()
    work, ref = base.copy(), base.copy()
    _full_pass_interreduce(ref)
    assert _table(ref) == _table(base)
    for rel in _drawn_relations(data, alpha, field):
        work._insert(dict(rel.terms))
        ref._insert(dict(rel.terms))
    # a copy made before the inter-reduction carries what the inserts left
    dup = work.copy()
    work._interreduce()
    dup._interreduce()
    _full_pass_interreduce(ref)
    assert _table(work) == _table(dup) == _table(ref)


@given(small_systems())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_completion_matches_one_that_interreduces_in_full(sys_):
    # each adoption in _complete is followed by an inter-reduction; the
    # reference system does the full pass there instead.  The examples are
    # fixed: over QQ a few drawn systems take minutes to complete
    ref = sys_.copy()
    ref._interreduce = lambda: _full_pass_interreduce(ref)
    want = rewrite._complete(ref)
    got = rewrite._complete(sys_.copy())
    assert (got.status, got.ambiguities_checked, got.cap_word, got.cap_lead) == \
        (want.status, want.ambiguities_checked, want.cap_word, want.cap_lead)
    assert got.new_rules == want.new_rules
    assert _table(got.system) == _table(want.system)


@pytest.mark.parametrize("field", [F2, prime_field(5), QQ], ids=str)
def test_interreduce_that_collapses_matches_the_full_pass(field):
    # the base's rule of x0 x1 keeps its string; x0 -> 0 occurs in its lead,
    # which is removed and reinserted as a nonzero constant
    base = ReductionSystem(ALPHA, field, [parse_poly("x0 x1 + 1", ALPHA, field)]).freeze()
    assert base._reduced
    work, ref = base.copy(), base.copy()
    for sys_ in (work, ref):
        sys_._install((0,), {})
    work._interreduce()
    _full_pass_interreduce(ref)
    assert _table(work) == _table(ref) == (True, [])
    assert not work._reduced


def _recording_nf_terms(monkeypatch):
    """The tails that ``_nf_terms`` reduces from here on."""
    reduced = []
    nf_terms = ReductionSystem._nf_terms

    def recording(self, terms):
        reduced.append(dict(terms))
        return nf_terms(self, terms)

    monkeypatch.setattr(ReductionSystem, "_nf_terms", recording)
    return reduced


def test_adopting_a_lead_that_occurs_in_no_rule_reduces_no_other_tail(monkeypatch):
    # x2 x2 x2 occurs in none of the commuting rules' leads and tails, so
    # only the new rule's own tail is reduced
    base = _commuting_base()
    work, ref = base.copy(), base.copy()
    reduced = _recording_nf_terms(monkeypatch)
    work._install((2, 2, 2), {(0,): F2.one})
    work._interreduce()
    assert reduced == [{(0,): F2.one}]
    # the full pass reduces all four tails
    ref._install((2, 2, 2), {(0,): F2.one})
    reduced.clear()
    _full_pass_interreduce(ref)
    assert len(reduced) == 4
    assert _table(work) == _table(ref)


def test_adopting_a_lead_that_occurs_in_a_tail_reduces_that_tail(monkeypatch):
    # x0 x1 -> 0 occurs in the tail of x1 x0 -> x0 x1 alone
    work = _commuting_base().copy()
    reduced = _recording_nf_terms(monkeypatch)
    work._install((0, 1), {})
    work._interreduce()
    assert reduced == [{}, {(0, 1): F2.one}]
    assert work._rules[(1, 0)] == {}


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
        f.add_scaled(acc, recursive_nf_word(sys_, word[:i] + tw + word[i + len(lead):], memo),
                     tc)
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


def _longest_lead_ending(leads, word, end):
    return max((lead for lead in leads if len(lead) <= end and word[end - len(lead):end] == lead),
               key=len, default=None)


def _words(size, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(range(size), repeat=n)]


@given(small_systems(caps=st.integers(1, 4)), st.data())
@settings(max_examples=100, deadline=None)
def test_length_index_matches_brute_force_through_installs_and_removals(sys_, data):
    size = len(sys_.alphabet)
    words = _words(size, 5)
    leads = st.lists(st.integers(0, size - 1), min_size=1, max_size=4).map(tuple)
    steps = data.draw(st.lists(st.one_of(leads, st.integers(0, 7)), max_size=8))

    def check():
        for word in words:
            for end in range(1, len(word) + 1):
                assert sys_._lead_ending(word, end) == _longest_lead_ending(sys_._rules, word,
                                                                             end)

    # a lead word installs, an integer removes the lead at that table position;
    # removing whatever is left at the end leaves every length in the index stale
    for step in steps:
        if isinstance(step, tuple):
            sys_._install(step, {(): sys_.field.one})
        elif sys_._rules:
            _remove(sys_, list(sys_._rules)[step % len(sys_._rules)])
        check()
    while sys_._rules:
        _remove(sys_, next(iter(sys_._rules)))
        check()
    assert all(lengths == tuple(sorted(set(lengths), reverse=True))
               for lengths in sys_._lengths.values())


@given(small_systems(caps=st.integers(1, 4)))
@settings(max_examples=200, deadline=None)
def test_kept_memo_matches_a_cold_memo(sys_):
    # sys_ holds the memo its own insertions and inter-reduction left, and a
    # completed system the one its completion left; a copy starts cold
    for system in (sys_, complete(sys_).system):
        cold = system.copy()
        for word in _words(len(system.alphabet), 5):
            assert system.nf_word(word) == cold.nf_word(word)


def test_a_removal_clears_the_memo_only_when_the_lead_could_have_fired():
    # inserting x1 x1 x0 + 1 again memoizes NF(x1 x1 x0) = 1 by its own rule;
    # inter-reduction then removes that rule for its suffix x1 x0, and the
    # reinserted relation reduces to 1 only on a cleared memo
    alpha = Alphabet.from_parts(["x0", "x1"])
    assert ReductionSystem(alpha, F2, [parse_poly(text, alpha, F2) for text in
                                       ("x1 x1 x0 + 1", "x1 x0", "x1 x1 x0 + 1")]).collapsed
    sys_ = ReductionSystem(ALPHA, F2)
    sys_._install((1,), {(0,): F2.one})
    sys_._install((2, 1), {(2,): F2.one})
    # the longest lead ending x2 x1 is x2 x1 itself, not its suffix x1
    assert sys_.nf_word((2, 1)) == {(2,): F2.one}
    _remove(sys_, (2, 1))
    assert sys_.nf_word((2, 1)) == {(2, 0): F2.one}
    # x0 x2 ends inside x0 x2 x1, so x0 x2 x1 never fired and the memo stays
    sys_._install((0, 2), {(1,): F2.one})
    sys_._install((0, 2, 1), {(): F2.one})
    words = _words(3, 4)
    for word in words:
        sys_.nf_word(word)
    kept = dict(sys_._memo)
    _remove(sys_, (0, 2, 1))
    assert sys_._memo == kept
    cold = sys_.copy()
    assert all(sys_.nf_word(word) == cold.nf_word(word) for word in words)


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
    # exact, with no length bound: the top degree is 12
    assert report.dimension() == 576
    profile = Counter(len(w) for w in report.basis())
    assert [profile[n] for n in range(max(profile) + 1)] == E4_PER_LENGTH
    # the restart engine resolved 398 ambiguities here
    assert report.ambiguities_checked < 398
    assert verify_confluent(report.system)


@functools.lru_cache(maxsize=None)
def _e5_cap_7(field):
    return complete(fomin_kirillov(5, field, 7))


@pytest.mark.parametrize("field", [F2, prime_field(32003), QQ], ids=["f2", "fp", "qq"])
def test_fomin_kirillov_e5_breaks_cap_7(field):
    report = _e5_cap_7(field)
    assert report.status == CAP_EXCEEDED
    assert (report.system.rule_count(), len(report.new_rules)) == (102, 57)
    assert len(report.cap_lead) == 8
    # the restart engine resolved 17,111 ambiguities here; the queue resolves
    # 622 on every field
    assert report.ambiguities_checked == 622
    # the same stop as over F2: the same leads in table order, the same new
    # leads, and the same ambiguity and lead at the cap
    over_f2 = _e5_cap_7(F2)
    assert list(report.system._rules) == list(over_f2.system._rules)
    assert [rule.lead for rule in report.new_rules] == [rule.lead for rule in over_f2.new_rules]
    assert (report.cap_word, report.cap_lead) == (over_f2.cap_word, over_f2.cap_lead)


def _two_dict_resolve(sys_, amb):
    """``_resolve`` before it folded both sides into one dict: the two
    one-step resolutions as dicts, their difference reduced by ``_nf_terms``."""
    left = {tw + amb.c: tc for tw, tc in sys_._rules[amb.lead1].items()}
    right = {amb.a + tw: tc for tw, tc in sys_._rules[amb.lead2].items()}
    f = sys_.field
    return sys_._nf_terms(f.add_scaled(left, right, f.neg(f.one)))


def _check_resolve(sys_):
    """Check ``_resolve`` against the two-dict form on every ambiguity of
    sys_, the reference on a copy with a memo of its own; the number of
    ambiguities."""
    ref = sys_.copy()
    ambs = find_ambiguities(sys_)
    for amb in ambs:
        assert _resolve(sys_, amb) == _two_dict_resolve(ref, amb), amb
    return len(ambs)


_PAIR = ("000101110", "100000000")


def _quotient_rules(flavor, lam_bits, mu):
    """The uncompleted rules of a flavor's quotient: its frozen base rules
    extended by the nine deformed relations of mu, a matrix taken as-is."""
    lam = fk3.lambda_from_bits(lam_bits)
    work = fk3.flavor_presentation(lam, flavor).system().copy()
    work.extend(fk3.deformed_relations(lam, mu, flavor))
    return work


def _pair_mu():
    return fk3.mu_from_bits(_PAIR[1], fk3.lambda_from_bits(_PAIR[0]))


@pytest.mark.parametrize("build", [
    lambda: complete(fomin_kirillov(4, F2, 6)).system,
    lambda: complete(fomin_kirillov(4, prime_field(32003), 6)).system,
    lambda: complete(fomin_kirillov(4, QQ, 6)).system,
    lambda: fk3.build_lifting(fk3.lambda_from_bits(_PAIR[0]), _pair_mu()).system,
    lambda: fk3.build_cleft(fk3.lambda_from_bits(_PAIR[0]), _pair_mu()).system,
], ids=["completed-E4-f2", "completed-E4-fp", "completed-E4-qq", "fk3-lifting", "fk3-cleft"])
def test_resolve_matches_the_two_dict_form(build):
    assert _check_resolve(build()) > 100


def test_resolve_matches_the_two_dict_form_through_a_collapse(monkeypatch):
    # an invalid mu collapses this cleft quotient in its completion: every
    # ambiguity of its input, and every resolution on the way, agree
    work = _quotient_rules(T_PRIME_LAMBDA, _PAIR[0],
                           fk3.mu_unchecked(fk3.matrix_from_bits("100000001")))
    assert _check_resolve(work) > 100
    real = rewrite._resolve
    checked = []

    def checking(sys_, amb):
        expected = _two_dict_resolve(sys_.copy(), amb)
        got = real(sys_, amb)
        assert got == expected, amb
        checked.append(amb)
        return got

    monkeypatch.setattr(rewrite, "_resolve", checking)
    report = complete(work)
    assert report.status == COLLAPSED_TO_ZERO
    assert len(checked) == report.ambiguities_checked > 0


@given(small_systems())
@settings(max_examples=200, deadline=None)
def test_resolve_matches_the_two_dict_form_on_small_systems(sys_):
    # uncompleted systems only: no completion runs here
    _check_resolve(sys_)


@pytest.mark.parametrize("build", [
    lambda: fomin_kirillov(4, F2, 6),
    lambda: _quotient_rules(T_PRIME_LAMBDA, _PAIR[0], _pair_mu()),
], ids=["E4-f2", "fk3-cleft"])
def test_the_closing_pass_resolves_exactly_the_final_ambiguities(monkeypatch, build):
    work = build()
    log = []
    passes = []
    real_resolve, real_find = rewrite._resolve, rewrite.find_ambiguities

    def recording_resolve(sys_, amb):
        log.append(amb)
        return real_resolve(sys_, amb)

    def marking_find(sys_):
        found = real_find(sys_)
        passes.append((len(log), found))
        return found

    monkeypatch.setattr(rewrite, "_resolve", recording_resolve)
    monkeypatch.setattr(rewrite, "find_ambiguities", marking_find)
    report = complete(work)
    assert report.status == CONFLUENT and report.new_rules
    assert passes and len(log) == report.ambiguities_checked
    # each full pass resolves every ambiguity it found, in order; after the
    # last one the queue stays empty, so its resolutions end the log and are
    # exactly the ambiguities of the final rules
    for start, found in passes:
        assert log[start:start + len(found)] == found
    start, found = passes[-1]
    assert log[start:] == found == real_find(report.system)


@pytest.mark.parametrize("build", [
    lambda: fk3.build_cleft(fk3.zero_lambda(), fk3.mu_unchecked([[1, 0, 0], [0, 0, 0],
                                                                 [0, 0, 0]])),
    lambda: complete(fomin_kirillov(5, F2, 7)),
    lambda: complete(ReductionSystem(ALPHA, F2, [_parse("x0 x1 x0 + x2")], degree_cap=1)),
], ids=["collapsed-census-build", "e5-cap-7", "cap-exceeded-input"])
def test_every_report_has_a_frozen_system(build):
    # reports are shared through caches, so none may be changed by a caller
    report = build()
    assert report.status != CONFLUENT
    rules = report.system.rules()
    with pytest.raises(RuntimeError, match="frozen"):
        report.system.extend([NcPoly.term(report.system.alphabet, F2, (0, 0))])
    assert report.system.rules() == rules


# ---------------------------------------------------------------------------
# completions of a frozen system's extensions
# ---------------------------------------------------------------------------

def _commuting_base():
    """x1 x0 -> x0 x1, x2 x1 -> x1 x2, x2 x0 -> x0 x2 over F2, frozen."""
    return ReductionSystem(ALPHA, F2, [_parse(t) for t in
                                       ["x1 x0 + x0 x1", "x2 x1 + x1 x2", "x2 x0 + x0 x2"]]
                           ).freeze()


def _count_completions(monkeypatch):
    """The systems that ``complete`` is called on from here on."""
    completed = []

    def counting(sys_):
        completed.append(sys_)
        return complete(sys_)

    monkeypatch.setattr(rewrite, "complete", counting)
    return completed


def _count_reductions(monkeypatch):
    """The term dicts that ``_nf_terms`` reduces from here on."""
    reduced = []
    nf_terms = ReductionSystem._nf_terms

    def counting(self, terms):
        reduced.append(terms)
        return nf_terms(self, terms)

    monkeypatch.setattr(ReductionSystem, "_nf_terms", counting)
    return reduced


def _extended(base, relations):
    """The reference: ``complete`` of a copy of base extended by relations."""
    work = base.copy()
    work.extend(relations)
    return complete(work)


def test_relations_that_add_the_same_rules_share_a_completion(monkeypatch):
    base = _commuting_base()
    completed = _count_completions(monkeypatch)
    report = base.completion_with([_parse("x0 x0 + x1")])
    # x2 x0 + x0 x2 reduces to zero and x1 x0 to x0 x1: the same rule is added
    assert base.completion_with([_parse("x0 x0 + x1 + x2 x0 + x0 x2")]) is report
    assert base.completion_with([_parse("x1 x0 + x0 x1"), _parse("x0 x0 + x1")]) is report
    # one completion, of the base's rules followed by x0 x0 -> x1
    assert len(completed) == 1
    assert not completed[0].collapsed
    assert list(completed[0]._rules.items()) == \
        list(base._rules.items()) + [((0, 0), {(1,): F2.one})]
    assert report.status == CONFLUENT


def test_the_same_leads_with_other_tails_do_not_share_a_completion(monkeypatch):
    base = _commuting_base()
    completed = _count_completions(monkeypatch)
    with_x1 = base.completion_with([_parse("x0 x0 + x1")])
    with_x2 = base.completion_with([_parse("x0 x0 + x2")])
    assert with_x1 is not with_x2
    assert with_x1.system.rules() != with_x2.system.rules()
    # both add one rule of lead x0 x0, and each is completed
    assert [list(sys_._rules)[len(base._rules):] for sys_ in completed] == [[(0, 0)]] * 2
    # neither is taken for the other: each is its relation's own completion
    for text, report in (("x0 x0 + x1", with_x1), ("x0 x0 + x2", with_x2)):
        assert report.system.rules() == _extended(base, [_parse(text)]).system.rules()


def test_a_collapse_is_keyed_by_collapsed_alone(monkeypatch):
    base = _commuting_base()
    completed = _count_completions(monkeypatch)
    report = base.completion_with([_parse("x0 + 1"), _parse("x0")])
    assert report.status == COLLAPSED_TO_ZERO
    # x1 x0 reduces to x0 x1, which leaves 1
    assert base.completion_with([_parse("x1 x0 + x0 x1 + 1")]) is report
    # one completion, of a collapsed system with no rules
    assert len(completed) == 1
    assert completed[0].collapsed and not completed[0]._rules


def test_a_collapse_after_added_rules_shares_the_report_of_one_at_the_first(monkeypatch):
    base = _commuting_base()
    at_first = base.completion_with([_parse("1"), _parse("x0 x0 + x1")])
    completed = _count_completions(monkeypatch)
    reduced = _count_reductions(monkeypatch)
    # two rules are added, then x0 x0 + x1 + 1 reduces to 1 under x0 x0 -> x1;
    # the relation after the collapse is not reduced at all
    at_third = [_parse("x0 x0 + x1"), _parse("x2 x2"), _parse("x0 x0 + x1 + 1"), _parse("x1")]
    assert base.completion_with(at_third) is at_first
    assert at_first.status == COLLAPSED_TO_ZERO
    assert completed == [] and len(reduced) == 3


def test_a_repeated_completion_reduces_nothing(monkeypatch):
    base = _commuting_base()
    texts = ["x0 x0 + x1", "x2 x1 + x1 x2", "x1 x1 x1", "x0 + 1"]
    relations = [_parse(text) for text in texts]
    reports = [base.completion_with(relations[:k]) for k in range(len(relations) + 1)]
    reduced = _count_reductions(monkeypatch)
    completed = _count_completions(monkeypatch)
    assert all(base.completion_with(relations[:k]) is report for k, report in enumerate(reports))
    # relations built again, with the same terms in the same order, are known too
    assert base.completion_with([_parse(text) for text in texts]) is reports[-1]
    assert reduced == [] and completed == []


def test_lists_that_share_a_prefix_reduce_it_once(monkeypatch):
    base = _commuting_base()
    prefix = [_parse("x0 x0 + x1"), _parse("x2 x1 + x1 x2"), _parse("x2 x2 + x0")]
    ends = [_parse("x1 x1 x1"), _parse("x0 x1 + x2")]
    stepped = []
    step = rewrite._ExtensionTrie._step

    def counting(self, work, node, rel):
        stepped.append(rel)
        return step(self, work, node, rel)

    monkeypatch.setattr(rewrite._ExtensionTrie, "_step", counting)
    reports = [base.completion_with(prefix + [end]) for end in ends]
    # x2 x1 + x1 x2 reduces to zero, and still is reduced only once
    assert [id(rel) for rel in stepped] == [id(rel) for rel in prefix + ends]
    for end, report in zip(ends, reports):
        assert report.to_json() == _extended(base, prefix + [end]).to_json()


def test_completion_with_leaves_the_base_alone_and_freezes_its_report():
    base = _commuting_base()
    before = _rule_state(base)
    report = base.completion_with([_parse("x1 + x0"), _parse("x2 x2 x2")])
    assert _rule_state(base) == before
    assert report.system is not base
    with pytest.raises(RuntimeError, match="frozen"):
        report.system.extend([_parse("x0 x0")])


def test_completion_with_needs_a_frozen_system():
    sys_ = ReductionSystem(ALPHA, F2, [_parse("x1 x0 + x0 x1")])
    with pytest.raises(RuntimeError, match="frozen"):
        sys_.completion_with([_parse("x0 x0")])
    assert sys_._extensions is None


# QQ is left out: one of its completions can run without bound
@given(small_relations(fields=(F2, prime_field(5))), st.data())
@settings(max_examples=200, deadline=None)
def test_completion_with_matches_completing_an_extended_copy(drawn, data):
    alpha, field, relations, cap = drawn
    k = data.draw(st.integers(0, len(relations)))
    base = ReductionSystem(alpha, field, relations[:k], degree_cap=cap).freeze()
    # a second list that shares a prefix with the first, then goes on with
    # any of the relations, the base's included
    first = relations[k:]
    second = first[:data.draw(st.integers(0, len(first)))] + \
        data.draw(st.lists(st.sampled_from(relations), max_size=3))
    for added in (first, second):
        report = base.completion_with(added)
        ref = _extended(base, added)
        assert report.to_json() == ref.to_json()
        assert report.dimension() == ref.dimension()
        # the rule table in order, each tail in its term order
        assert list(report.system._rules.items()) == list(ref.system._rules.items())
    assert base.completion_with(first) is base.completion_with(first[:])


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


def _occurs(leads, word):
    return any(word[i:i + len(lead)] == lead for lead in leads
               for i in range(len(word) - len(lead) + 1))


def _infinite_by_dfs(leads, size):
    """A cycle, found depth first, in the graph on the lead-free words of
    length d - 1 with an edge u[:-1] -> u[1:] per lead-free u of length d."""
    d = max(map(len, leads), default=1)
    succ = {}
    for u in itertools.product(range(size), repeat=d):
        if not _occurs(leads, u):
            succ.setdefault(u[:-1], []).append(u[1:])
    state = {}      # 1 while on the path, 2 once done

    def on_cycle(v):
        state[v] = 1
        for w in succ.get(v, ()):
            if state.get(w) == 1 or (w not in state and on_cycle(w)):
                return True
        state[v] = 2
        return False

    return any(v not in state and on_cycle(v) for v in list(succ))


def test_finiteness_matches_a_cycle_search_and_words_a_brute_force_filter():
    rng = random.Random(1982)
    finite = 0
    for _ in range(3000):
        size = rng.randint(1, 3)
        alpha = Alphabet.from_parts([f"x{i}" for i in range(size)])
        leads = [tuple(rng.randrange(size) for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(0, 5))]
        sys_ = ReductionSystem(alpha, F2, [NcPoly.term(alpha, F2, w) for w in leads])
        levels = rewrite.irreducible_words_by_length(sys_)
        assert (levels is None) == _infinite_by_dfs(leads, size), leads
        if levels is None:
            continue
        finite += 1
        expected = [[()]]
        while True:
            # a lead-free word has a lead-free prefix, so extend the last level
            level = [w + (a,) for w in expected[-1] for a in range(size)
                     if not _occurs(leads, w + (a,))]
            if not level:
                break
            expected.append(level)
        assert levels == expected, leads
    assert 300 < finite < 2700


@pytest.mark.parametrize("flavor", jordan.FLAVORS)
def test_jordan_flavors_are_infinite_dimensional(flavor):
    report = jordan.build_jordan(flavor, 6).complete()
    assert report.status == CONFLUENT
    assert report.dimension() is None and report.basis() is None


def test_a_report_has_a_dimension_only_when_confluent_and_finite():
    free = complete(ReductionSystem(ALPHA, F2, []))
    assert free.status == CONFLUENT and free.dimension() is None
    collapsed = complete(ReductionSystem(ALPHA, F2, [_parse("x0 + 1"), _parse("x0")]))
    assert collapsed.status == COLLAPSED_TO_ZERO
    assert (collapsed.dimension(), collapsed.basis()) == (0, [])
    capped = complete(ReductionSystem(ALPHA, F2, [_parse("x0 x0 x0")], degree_cap=2))
    assert capped.status == CAP_EXCEEDED
    assert capped.dimension() is None and capped.basis() is None


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
    mc = build.system.alphabet.module_count
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
    with pytest.raises(ValueError, match=r"^row 0 exceeds width 4$"):
        rank_f2([0b10000], 4)


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


def eager_rank(rows, width):
    """Plain elimination: clear each column, top first, from every other row."""
    rows = list(rows)
    rank = 0
    for col in reversed(range(width)):
        piv = next((r for r in range(rank, len(rows)) if rows[r] >> col & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r] >> col & 1:
                rows[r] ^= rows[rank]
        rank += 1
    return rank


@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m),
    # a small pool of values, so that leads collide and rows repeat
    st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool) | st.integers(0, 2 ** m - 1), max_size=14)))))
@settings(max_examples=300, deadline=None)
def test_rank_of_declared_rows_matches_eager_elimination(case):
    """Int rows, drawn from a small pool so that leads collide and rows
    repeat, rank as plain elimination ranks them."""
    width, values = case
    assert rank_f2(values, width) == eager_rank(values, width)


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


@pytest.mark.parametrize("ident", ["1", "2", "x 0", "", "1/0", "x0*x1"])
def test_from_json_rejects_an_id_that_does_not_read_as_itself(ident):
    doc = {"alphabet": [{"id": "x0", "sort": "module"}, {"id": ident, "sort": "module"}],
           "relations": [], "field": "rational"}
    with pytest.raises(ValueError, match=f"generator id {re.escape(repr(ident))}"):
        Presentation.from_json(doc)


@pytest.mark.parametrize("name", ["fp:x", "fp:", "fp:3.0"])
def test_from_json_names_a_field_it_cannot_read(name):
    doc = {"alphabet": [{"id": "x0", "sort": "module"}], "relations": [], "field": name}
    with pytest.raises(ValueError, match=f"^unknown field {re.escape(repr(name))}$"):
        Presentation.from_json(doc)


@pytest.mark.parametrize("name, char", [("fp: 5", None), ("fp:+5", None), ("fp:\u0665", None),
                                        ("fp:05", None), ("fp:1_1", None),
                                        ("fp:5", 5), ("fp:32003", 32003)])
def test_a_prime_field_modulus_is_plain_decimal_digits(name, char):
    doc = {"alphabet": [{"id": "x0", "sort": "module"}], "relations": [], "field": name}
    if char is None:
        with pytest.raises(ValueError, match=f"^unknown field {re.escape(repr(name))}$"):
            Presentation.from_json(doc)
    else:
        assert Presentation.from_json(doc).field.char == char


@pytest.mark.parametrize("modulus, shown", [
    ("65536", "65536"), ("100000", "100000"), ("1" + "0" * 11, "1" + "0" * 11),
    ("1" + "0" * 12, "10000000... (13 digits)"), ("1" + "0" * 4300, "10000000... (4301 digits)"),
    ("7" * 5000, "77777777... (5000 digits)")])
def test_a_modulus_of_2_16_or_more_is_out_of_range(modulus, shown):
    # past five digits it is refused before int(), which cannot read more
    # than 4,300 of them
    doc = {"alphabet": [{"id": "x0", "sort": "module"}], "relations": [], "field": "fp:" + modulus}
    with pytest.raises(ValueError, match=f"^modulus out of range: {re.escape(shown)}$"):
        Presentation.from_json(doc)


def test_from_json_accepts_the_ids_nclift_builds():
    ids = ["x0", "y1", "e", "g0g1", "g", "G"]
    pres = Presentation.from_json({"alphabet": [{"id": i, "sort": "module"} for i in ids],
                                   "relations": [" + ".join(ids)]})
    assert pres.relations[0].terms == {(k,): F2.one for k in range(len(ids))}
