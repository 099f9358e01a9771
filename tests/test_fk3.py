"""Relations, dimensions, the derived cubic rule, and Galois certificates."""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from nclift.ncpoly import F2, NcPoly, TensorPoly, parse_poly, prime_field, xdeglex_key
from nclift.rewrite import (
    COLLAPSED_TO_ZERO,
    CONFLUENT,
    ReductionSystem,
    complete,
    irreducible_words,
    irreducible_words_by_length,
    rank_f2,
    reduce_tensor,
)
from nclift import fk3, fulcrum, rewrite
from nclift.fk3 import (
    ONE_BASED,
    build_cleft,
    build_lifting,
    bosonization_build,
    cubic_formula,
    derived_cubic_relation,
    galois_certificate,
    lambda_from_bits,
    linear_correction,
    matrix_from_bits,
    mu_from_bits,
    mu_unchecked,
    nichols_report,
    quadratic_relation_terms,
    relation_orbit_reps,
    resolve_cubic_convention,
    skew_primitivity,
    validate_mu,
    zero_lambda,
    zero_mu,
)
from nclift.fulcrum import (
    BOSONIZATION,
    FLAVORS,
    T_LAMBDA,
    T_PRIME_LAMBDA,
    FulcrumPresentation,
    apply_algebra_map,
    letter_images,
    standard_yd_data,
    validate_lambda,
)
from nclift.rackgroup import dihedral_rack

ALL_BITS = [format(n, "09b") for n in range(512)]
VALID_LAMBDAS = [b for b in ALL_BITS if validate_lambda(matrix_from_bits(b)).ok]


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_relation_list():
    rels = fk3.fk3_relations()
    alpha = fk3.module_alphabet()
    assert len(rels) == 5
    assert parse_poly("x0 x0", alpha, F2) in rels
    assert parse_poly("x0 x1 + x2 x0 + x1 x2", alpha, F2) in rels


def test_quadratic_relation_closes_cyclically():
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            words = quadratic_relation_terms(i, j)
            assert len(set(words)) == 3
            # (i|>j)|>i = j makes the three-term window slide back to start
            assert words[2][0] == words[0][1]
            k = (2 * i - j) % 3
            assert set(quadratic_relation_terms(k, i)) == set(words)


def _orbit_walk(rack):
    """Each index pair's orbit walked under (a, b) -> (a|>b, a) from the pair
    itself, and the first pair met of each orbit, row-major: the reference
    that the orbit table's order must reproduce."""
    orbits, reps, seen = {}, [], set()
    for i in range(rack.size):
        for j in range(rack.size):
            walk, (a, b) = [], (i, j)
            for _ in range(3):
                walk.append((a, b))
                a, b = rack.act(a, b), a
            assert (a, b) == (i, j)
            orbits[i, j] = walk
            if (i, j) not in seen:
                reps.append((i, j))
                seen.update(walk)
    return orbits, tuple(reps)


def test_orbit_order_matches_the_rack_walk(monkeypatch):
    orbits, reps = _orbit_walk(dihedral_rack())
    assert relation_orbit_reps() == reps == ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2))
    # the (word, coefficient) items of every NcPoly.from_terms call, in order
    items = []
    from_terms = NcPoly.from_terms

    def recording(cls, alphabet, field, terms):
        items.append(list(terms))
        return from_terms(alphabet, field, items[-1])

    monkeypatch.setattr(NcPoly, "from_terms", classmethod(recording))
    for bits in VALID_LAMBDAS:
        lam = lambda_from_bits(bits)
        pres = fk3.flavor_presentation(lam, T_LAMBDA)
        for (i, j), orbit in orbits.items():
            assert quadratic_relation_terms(i, j) == orbit
            items.clear()
            linear_correction(pres.alphabet, lam, i, j)
            assert items == [[((a,), lam[a, b]) for a, b in orbit]]


def test_nichols_dimension_and_profile():
    report = nichols_report()
    assert report.dimension() == 12
    profile = Counter(len(w) for w in report.basis())
    assert [profile[n] for n in range(max(profile) + 1)] == [1, 3, 4, 3, 1]


# ---------------------------------------------------------------------------
# mu validation
# ---------------------------------------------------------------------------

def test_validate_mu_examples():
    lam0 = zero_lambda()
    assert validate_mu([[1, 0, 0], [0, 1, 0], [0, 0, 1]], lam0).ok
    assert validate_mu([[1] * 3] * 3, lam0).ok
    bad = validate_mu([[1, 0, 0], [0, 0, 0], [0, 0, 0]], lam0)
    assert not bad.ok
    # the joint constraint with k=1 links the (0,0) and (2,2) entries
    assert ("joint", 0, 0, 1) in bad.violations


def test_mu_solutions_for_zero_lambda():
    lam0 = zero_lambda()
    valid = [format(n, "09b") for n in range(512)
             if validate_mu(matrix_from_bits(format(n, "09b")), lam0).ok]
    assert valid == sorted(["000000000", "111111111", "100010001", "011101110"])


def _validate_mu_by_formula(m, lam):
    """(ok, violations) of validate_mu, with lambda's side of the joint
    constraint recomputed for every mu."""
    act = dihedral_rack().act
    f = lam.field
    e = [[f.from_int(c) for c in row] for row in m]
    lamv = lam.entries
    violations = []
    for i in range(3):
        for j in range(3):
            k = act(i, j)
            if not (e[i][j] == e[k][i] == e[j][k]):
                violations.append(("orbit", i, j))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ij = act(i, j)
                lhs = f.add(e[i][j], e[act(k, i)][act(k, j)])
                rhs = f.add(
                    f.mul(lamv[k][i], f.add(lamv[k][ij], lamv[i][j])),
                    f.add(
                        f.mul(lamv[k][j], f.add(lamv[k][i], lamv[j][ij])),
                        f.mul(lamv[k][ij], f.add(lamv[k][j], lamv[ij][i])),
                    ),
                )
                if lhs != rhs:
                    violations.append(("joint", i, j, k))
    return not violations, violations


@pytest.mark.parametrize("lam_bits", VALID_LAMBDAS)
def test_validate_mu_matches_the_formula_for_every_mu(lam_bits):
    lam = lambda_from_bits(lam_bits)
    for bits in ALL_BITS:
        m = matrix_from_bits(bits)
        check = validate_mu(m, lam)
        assert (check.ok, check.violations) == _validate_mu_by_formula(m, lam), bits
        assert check.matrix == (mu_unchecked(m) if check.ok else None)


def test_validate_mu_matches_the_formula_over_gf3():
    f3 = prime_field(3)
    lam = validate_lambda([[0, 2, 1], [1, 0, 2], [2, 1, 0]], field=f3).matrix
    # every mu constant on the orbits (i, j) -> (i|>j, i), then random ones
    act = dihedral_rack().act
    orbit = {}
    for i in range(3):
        for j in range(3):
            members, a, b = set(), i, j
            while (a, b) not in members:
                members.add((a, b))
                a, b = act(a, b), a
            orbit[i, j] = min(members)
    reps = sorted(set(orbit.values()))
    mus = []
    for values in itertools.product(range(3), repeat=len(reps)):
        value = dict(zip(reps, values))
        mus.append([[value[orbit[i, j]] for j in range(3)] for i in range(3)])
    rng = random.Random(5)
    mus += [[[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(300)]
    oks = 0
    for m in mus:
        check = validate_mu(m, lam)
        assert (check.ok, check.violations) == _validate_mu_by_formula(m, lam), m
        oks += check.ok
    assert oks == 3


# ---------------------------------------------------------------------------
# quotient builds
# ---------------------------------------------------------------------------

def test_lifting_dimensions():
    lam0, mu0 = zero_lambda(), zero_mu()
    L = build_lifting(lam0, mu0)
    assert L.status == CONFLUENT and L.dimension() == 72
    muJ = mu_from_bits("111111111", lam0)
    assert build_lifting(lam0, muJ).dimension() == 72


def test_cleft_dimension_and_derived_rule():
    lam0, mu0 = zero_lambda(), zero_mu()
    A = build_cleft(lam0, mu0)
    assert A.status == CONFLUENT and A.dimension() == 72
    cubics = [r for r in A.system.rules() if len(r.lead) == 3]
    assert len(cubics) == 1
    assert cubics[0].lead == (1, 0, 1)
    assert cubics[0].tail.terms == {(0, 1, 0): 1}


def test_linear_correction_orbit_symmetry():
    yd = standard_yd_data()
    for bits in ("000101110", "011000110", "111111111"):
        lam = lambda_from_bits(bits)
        pres = FulcrumPresentation(T_LAMBDA, yd, lam)
        rhd = lambda a, b: (2 * a - b) % 3
        for i in range(3):
            for j in range(3):
                r1 = linear_correction(pres.alphabet, lam, i, j)
                r2 = linear_correction(pres.alphabet, lam, rhd(i, j), i)
                r3 = linear_correction(pres.alphabet, lam, j, rhd(i, j))
                assert r1 == r2 == r3


# ---------------------------------------------------------------------------
# the derived cubic rule
# ---------------------------------------------------------------------------

def test_cubic_relation_trivial_pair():
    rel = derived_cubic_relation(zero_lambda(), zero_mu())
    assert {w for w in rel.terms} == {(1, 0, 1), (0, 1, 0)}


def test_cubic_convention_is_one_based_and_stable():
    assert resolve_cubic_convention() == ONE_BASED


@pytest.mark.parametrize("lam_bits,mu_bits", [
    ("000000000", "000000000"),
    ("000000000", "100010001"),
    ("000101110", "100000000"),
    ("011000110", "000010000"),
    ("111111111", "000000000"),
    ("111111111", "100010001"),
    ("100010111", "011101110"),
])
def test_cubic_matches_closed_formula(lam_bits, mu_bits):
    lam = lambda_from_bits(lam_bits)
    mu = mu_from_bits(mu_bits, lam)
    derived = derived_cubic_relation(lam, mu)
    assert derived.terms == cubic_formula(lam, mu, ONE_BASED).terms


def test_cubic_matches_formula_for_every_valid_pair():
    from nclift.classify import enumerate_pairs
    for p in enumerate_pairs("gx"):
        lam = lambda_from_bits(p.lam_bits)
        mu = mu_from_bits(p.mu_bits, lam)
        derived = derived_cubic_relation(lam, mu)
        assert derived.terms == cubic_formula(lam, mu, ONE_BASED).terms, p.key


def test_cubic_formula_example_coefficients():
    # lambda with entries (1,0) at the two mixed slots, mu with a single
    # diagonal 1: quadratic coefficient 1, linear terms per the closed form
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    rel = derived_cubic_relation(lam, mu)
    alpha = rel.alphabet
    assert rel == parse_poly("y1 y0 y1 + y0 y1 y0 + y1 y0 + y0 y1 + y1", alpha, F2)


# ---------------------------------------------------------------------------
# skew-primitivity
# ---------------------------------------------------------------------------

def test_skew_primitivity_sample_pairs():
    for lam_bits, mu_bits in (("000000000", "000000000"),
                              ("000101110", "100000000"),
                              ("111111111", "100010001")):
        lam = lambda_from_bits(lam_bits)
        mu = mu_from_bits(mu_bits, lam)
        table = skew_primitivity(lam, mu)
        assert set(table) == set(relation_orbit_reps())
        assert all(table.values())


def _skew_primitive_from_pure_tensors(pres, rel, grp):
    """check_skew_primitive before it formed one defect dict: the expected
    value as pure tensors, g (x) NF(rel) reduced by reduce_tensor, and the
    verdict by tensor equality."""
    sys_ = pres.complete().system
    delta = letter_images(pres.alphabet, pres.alphabet, pres.field, pres.degree_words())
    image = apply_algebra_map(rel, delta, sys_, sys_)
    nf_rel = sys_.normal_form(rel)
    expected = TensorPoly.of(nf_rel, NcPoly.one(pres.alphabet, pres.field))
    gword = NcPoly.term(pres.alphabet, pres.field, pres.group_word(grp))
    return image == expected + reduce_tensor(TensorPoly.of(gword, nf_rel), sys_, sys_)


def test_skew_primitivity_agrees_with_the_pure_tensor_construction():
    from nclift.classify import enumerate_pairs

    G = standard_yd_data().group
    cases = []
    for lam_bits in VALID_LAMBDAS:
        lam = lambda_from_bits(lam_bits)
        pres = fk3.flavor_presentation(lam, T_LAMBDA)
        for i, j in relation_orbit_reps():
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            cases.append((pres, fk3.deformed_relation(pres, lam, i, j, F2.zero, True), gij))
    for p in enumerate_pairs("gx"):
        lam = lambda_from_bits(p.lam_bits)
        mu = mu_from_bits(p.mu_bits, lam)
        pres = fk3.flavor_presentation(lam, T_LAMBDA)
        for i, j in relation_orbit_reps():
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            cases.append((pres, fk3.deformed_relation(pres, lam, i, j, mu[i, j], True), gij))
    assert len(cases) == 8 * 5 + 32 * 5
    # random polynomials of degree <= 2 over T_lambda's alphabet, most of
    # them not skew-primitive for any group element
    rng = random.Random(28)
    for _ in range(60):
        pres = fk3.flavor_presentation(lambda_from_bits(rng.choice(VALID_LAMBDAS)), T_LAMBDA)
        letters = range(len(pres.alphabet))
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                 for _ in range(rng.randint(1, 4))]
        rel = NcPoly.from_terms(pres.alphabet, F2, [(w, 1) for w in words])
        cases.append((pres, rel, rng.randrange(G.order)))
    verdicts = []
    for pres, rel, grp in cases:
        verdict = fulcrum.check_skew_primitive(pres, rel, grp)
        assert verdict == _skew_primitive_from_pure_tensors(pres, rel, grp), (rel, grp)
        verdicts.append(verdict)
    assert all(verdicts[:200])
    assert not all(verdicts[200:])


# ---------------------------------------------------------------------------
# mu-necessity over the finite quotient
# ---------------------------------------------------------------------------

def test_invalid_mu_collapses_cleft_and_degenerates_lifting():
    """The constant-term quotient dies for every invalid mu; the group-term
    quotient drops to dimension 4 whenever the failure is visible in its
    relations (over the order-6 group the diagonal entries are invisible,
    since 1 + g_i^2 = 0 in characteristic 2)."""
    lam0 = zero_lambda()
    rng = random.Random(88)
    sampled = 0
    checked_visible = 0
    while sampled < 60:
        bits = format(rng.randrange(512), "09b")
        if validate_mu(matrix_from_bits(bits), lam0).ok:
            continue
        sampled += 1
        mu = mu_unchecked(matrix_from_bits(bits))
        A = build_cleft(lam0, mu)
        assert A.status == COLLAPSED_TO_ZERO
        entries = matrix_from_bits(bits)
        off_diag = [entries[i][j] for i in range(3) for j in range(3) if i != j]
        visible = len(set(off_diag)) > 1
        if visible:
            checked_visible += 1
            L = build_lifting(lam0, mu)
            assert L.status == CONFLUENT
            assert L.dimension() == 4
    assert checked_visible >= 50


def test_invisible_mu_failures_leave_lifting_untouched():
    # diagonal-only failures generate the same group-term ideal as a valid mu
    lam0 = zero_lambda()
    mu = mu_unchecked([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    L = build_lifting(lam0, mu)
    assert L.status == CONFLUENT and L.dimension() == 72
    assert build_cleft(lam0, mu).status == COLLAPSED_TO_ZERO


def test_census_of_one_lambda_is_pinned():
    """sha256 over the reports of both quotients for every one of the 512 mu
    of one lambda: ``to_json()``, ``dimension()`` and the leads in rule-table
    order, as the engine gave them before its lead index was keyed on
    lengths.  A change to any of them must be deliberate."""
    lam = lambda_from_bits("000101110")
    digest = hashlib.sha256()
    for n in range(512):
        mu = mu_unchecked(matrix_from_bits(format(n, "09b")))
        for report in (build_lifting(lam, mu), build_cleft(lam, mu)):
            digest.update(json.dumps([report.to_json(), report.dimension(),
                                      list(report.system._rules)]).encode())
    assert digest.hexdigest() == ("11f32eabd3d6512dd2b886d22856f937"
                                  "5127ff0eb4c3a19e85953463129020dc")


def test_deformed_relations_are_built_once_and_match_a_fresh_build():
    lam = lambda_from_bits("011000110")
    mus = [mu_unchecked(matrix_from_bits(bits)) for bits in ALL_BITS]
    snapshot = {}
    for flavor in (T_LAMBDA, T_PRIME_LAMBDA):
        pres = FulcrumPresentation(flavor, standard_yd_data(), lam)
        for mu in mus:
            shared = fk3.deformed_relations(lam, mu, flavor)
            fresh = [fk3.deformed_relation(pres, lam, i, j, mu[i, j], flavor == T_LAMBDA)
                     for i in range(3) for j in range(3)]
            assert [list(r.terms.items()) for r in shared] == \
                [list(r.terms.items()) for r in fresh]
            for rel in shared:
                snapshot[id(rel)] = (rel, list(rel.terms.items()))
    # one relation per (flavor, i, j, mu_ij): 2 x 9 x 2
    assert len(snapshot) == 36
    for mu in mus:
        build_lifting(lam, mu).dimension()
        build_cleft(lam, mu).dimension()
    for flavor in (T_LAMBDA, T_PRIME_LAMBDA):
        for mu in mus:
            for rel in fk3.deformed_relations(lam, mu, flavor):
                kept, terms = snapshot[id(rel)]
                assert kept is rel and list(rel.terms.items()) == terms


def test_census_of_all_lambdas_is_pinned():
    """The same digest over all 8 lambda, as the engine gave them before
    quotients that add the same rules shared one completion."""
    digest = hashlib.sha256()
    for lam_bits in sorted(VALID_LAMBDAS):
        lam = lambda_from_bits(lam_bits)
        for n in range(512):
            mu = mu_unchecked(matrix_from_bits(format(n, "09b")))
            for report in (build_lifting(lam, mu), build_cleft(lam, mu)):
                digest.update(json.dumps([report.to_json(), report.dimension(),
                                          list(report.system._rules)]).encode())
    assert digest.hexdigest() == ("0965a21dfa606d44fd8fac604df55cc1"
                                  "5de9f7f08f3e61d2e4ac5a5b1f7b56f9")


# ---------------------------------------------------------------------------
# quotients built on a shared flavor base
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("lam_bits", VALID_LAMBDAS)
def test_flavor_rules_are_the_relations_as_inserted(lam_bits, flavor):
    pres = FulcrumPresentation(flavor, standard_yd_data(), lambda_from_bits(lam_bits))
    system = ReductionSystem(pres.alphabet, pres.field, pres.relations,
                             pres.degree_cap, pres.order)
    inserted = [system._orient(dict(rel.terms)) for rel in pres.relations]
    assert list(system._rules.items()) == inserted, (
        "building the flavor's rules reduced, reordered or inter-reduced a relation; "
        "fk3 builds each deformed quotient by inserting its relations into a copy of "
        "these rules, which is the system of all the relations at once only when "
        "building them changes none")


def _from_scratch(lam, mu, flavor):
    """The quotient's relations and its completion from a system of them all."""
    pres = FulcrumPresentation(flavor, standard_yd_data(), lam)
    relations = pres.relations + [
        fk3.deformed_relation(pres, lam, i, j, mu[i, j], flavor == T_LAMBDA)
        for i in range(3) for j in range(3)]
    system = ReductionSystem(pres.alphabet, pres.field, relations,
                             pres.degree_cap, pres.order)
    return relations, complete(system)


def _assert_same_build(build, lam, mu, flavor):
    relations, scratch = _from_scratch(lam, mu, flavor)
    base = fk3.flavor_presentation(lam, flavor)
    assert base.relations + fk3.deformed_relations(lam, mu, flavor) == relations
    assert build is fk3._build_quotient(lam, mu, flavor)
    assert build.to_json() == scratch.to_json()
    assert build.system.rules() == scratch.system.rules()
    assert build.dimension() == scratch.dimension()
    assert build.basis() == scratch.basis()
    return build.dimension()


def _mu_sample(lam):
    """(mu bits, dimension of L, dimension of A) for a valid mu, a
    diagonal-only invalid mu that L does not see, and two invalid mu that
    take L down to 4; every invalid mu collapses A."""
    valid = next(b for b in ALL_BITS if validate_mu(matrix_from_bits(b), lam).ok)
    diagonal = next(b for b in ("100000000", "000010000", "000000001")
                    if not validate_mu(matrix_from_bits(b), lam).ok)
    return [(valid, 72, 72), (diagonal, 72, 0), ("010000000", 4, 0), ("110100011", 4, 0)]


@pytest.mark.parametrize("lam_bits", VALID_LAMBDAS)
def test_quotients_on_the_shared_base_match_from_scratch_builds(lam_bits):
    lam = lambda_from_bits(lam_bits)
    for mu_bits, dim_l, dim_a in _mu_sample(lam):
        mu = mu_unchecked(matrix_from_bits(mu_bits))
        assert _assert_same_build(build_lifting(lam, mu), lam, mu, T_LAMBDA) == dim_l
        assert _assert_same_build(build_cleft(lam, mu), lam, mu, T_PRIME_LAMBDA) == dim_a


def test_mu_that_add_the_same_rules_share_one_completion():
    lam = lambda_from_bits("000101110")
    builds = [build_lifting(lam, mu_unchecked(matrix_from_bits(bits)))
              for bits in ("000100100", "000100101")]
    assert builds[0] is builds[1]
    for bits, build in zip(("000100100", "000100101"), builds):
        mu = mu_unchecked(matrix_from_bits(bits))
        assert _assert_same_build(build, lam, mu, T_LAMBDA) == 4
    shared = Counter(id(build_lifting(lam, mu_unchecked(matrix_from_bits(bits))))
                     for bits in ALL_BITS)
    assert (len(shared), max(shared.values())) == (24, 48)
    assert shared[id(builds[0])] == 48


def test_a_quotients_rules_hold_its_deformed_relations():
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    for build, flavor in ((build_lifting(lam, mu), T_LAMBDA),
                          (build_cleft(lam, mu), T_PRIME_LAMBDA)):
        base = fk3.flavor_presentation(lam, flavor)
        base_system = base.system()
        deformed = fk3.deformed_relations(lam, mu, flavor)
        assert len(deformed) == 9
        assert any(base_system.normal_form(rel) for rel in deformed)
        system = build.system
        assert system is not base_system
        assert not any(system.normal_form(rel) for rel in deformed)
        # every rule of all the relations at once holds in the quotient
        at_once = ReductionSystem(base.alphabet, base.field, base.relations + deformed,
                                  base.degree_cap, base.order)
        assert not any(system.normal_form(rule.as_poly()) for rule in at_once.rules())


def test_bosonization_on_the_shared_base_matches_a_from_scratch_build():
    assert _assert_same_build(bosonization_build(), zero_lambda(), zero_mu(),
                              BOSONIZATION) == 72


def _relation_from_parts(pres, lam, mu, i, j, group_term):
    """R_{i,j} + r_{i,j}, then mu_{i,j} and mu_{i,j} g_i g_j, built afresh."""
    f, alphabet = lam.field, pres.alphabet
    rel = fk3.quadratic_relation(alphabet, f, i, j) + linear_correction(alphabet, lam, i, j)
    if mu[i, j] != f.zero:
        rel = rel + NcPoly.term(alphabet, f, (), mu[i, j])
        if group_term:
            G = pres.yd.group
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            rel = rel + NcPoly.term(alphabet, f, pres.group_word(gij), mu[i, j])
    return rel


def _term_lists(relations):
    return [list(rel.terms.items()) for rel in relations]


@pytest.mark.parametrize("lam_bits", VALID_LAMBDAS)
def test_deformed_relations_match_a_fresh_build(lam_bits):
    lam = lambda_from_bits(lam_bits)
    for flavor in FLAVORS:
        pres = fk3.flavor_presentation(lam, flavor)
        for mu_bits in ("000000000", "100000000", "010011001", "111111111"):
            mu = mu_unchecked(matrix_from_bits(mu_bits))
            fresh = [_relation_from_parts(pres, lam, mu, i, j, flavor == T_LAMBDA)
                     for i in range(3) for j in range(3)]
            assert _term_lists(fk3.deformed_relations(lam, mu, flavor)) == _term_lists(fresh)


def test_building_a_quotient_leaves_the_shared_deformed_relations_alone():
    lam = lambda_from_bits("000101110")
    mu = mu_unchecked(matrix_from_bits("010011001"))
    assert not validate_mu(matrix_from_bits("010011001"), lam).ok
    # every mu with the same entry at (i, j) shares these relation objects
    relations = fk3.deformed_relations(lam, mu, T_LAMBDA)
    before = _term_lists(relations)
    # past the quotient cache, so that the build runs here
    fk3._build_quotient.__wrapped__(lam, mu, T_LAMBDA)
    assert _term_lists(relations) == before
    after = fk3.deformed_relations(lam, mu, T_LAMBDA)
    assert all(a is b for a, b in zip(after, relations)) and len(after) == 9


# ---------------------------------------------------------------------------
# Galois certificates
# ---------------------------------------------------------------------------

def test_galois_certificate_trivial_pair():
    cert = galois_certificate(zero_lambda(), zero_mu())
    assert (cert.rank_right, cert.rank_left) == (5184, 5184)
    assert cert.bijective
    assert len(cert.basis_cleft) == 72
    assert cert.basis_cleft[0] == "1"


def test_galois_certificate_deformed_pair():
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    cert = galois_certificate(lam, mu)
    assert cert.bijective


def per_term_galois_rows(lam, mu, same_image=None, table=None):
    """kappa_r and kappa_l rows built term by term with one nf_word call per
    product, the construction before the product table.  Rows come image by
    image: (w, u) for kappa_r, (u, w) for kappa_l.  Column block k holds
    the k-th outer word (B word for kappa_r, L word for kappa_l) in xdeglex
    order, and each block is over the A basis.  A basis word w takes the
    coaction image of ``same_image.get(w, w)``.  Given a ``table``, the
    product of basis words u and v is ``table[u][v]`` over basis positions
    instead of a normal form."""
    same_image = same_image or {}
    A, L, B = build_cleft(lam, mu), build_lifting(lam, mu), bosonization_build()
    basis_a, basis_l, basis_b = A.basis(), L.basis(), B.basis()
    idx_a = {w: k for k, w in enumerate(basis_a)}
    n = len(basis_a)
    a_sys, l_sys, b_sys = A.system, L.system, B.system

    def blocks(basis, alphabet):
        return {w: k for k, w in enumerate(sorted(basis, key=lambda w: xdeglex_key(w, alphabet)))}

    block_b, block_l = blocks(basis_b, b_sys.alphabet), blocks(basis_l, l_sys.alphabet)
    degrees = fk3.flavor_presentation(lam, T_PRIME_LAMBDA).degree_words()
    imgs_r = letter_images(a_sys.alphabet, b_sys.alphabet, F2, degrees)
    imgs_l = letter_images(l_sys.alphabet, a_sys.alphabet, F2, degrees)

    def images_of_basis(imgs, left_sys, right_sys):
        return [apply_algebra_map(NcPoly.term(a_sys.alphabet, F2, same_image.get(w, w)), imgs,
                                  left_sys, right_sys)
                for w in basis_a]

    def times(u, v):
        if table is not None:
            return table[idx_a[u]][idx_a[v]]
        return sum(1 << idx_a[w] for w in a_sys.nf_word(u + v))

    rho_r = images_of_basis(imgs_r, a_sys, b_sys)
    rho_l = images_of_basis(imgs_l, l_sys, a_sys)
    rows_r = []
    for w_idx in range(n):
        for u in basis_a:
            bits = 0
            for (aw, bw) in rho_r[w_idx].terms:
                bits ^= times(u, aw) << block_b[bw] * n
            rows_r.append(bits)
    rows_l = []
    for u_idx in range(n):
        for w in basis_a:
            bits = 0
            for (lw, aw) in rho_l[u_idx].terms:
                bits ^= times(aw, w) << block_l[lw] * n
            rows_l.append(bits)
    return rows_r, rows_l


def recording_rank(monkeypatch):
    """Patch fk3's rank_f2 to record each call's rows and width."""
    calls = []

    def rank(rows, width=None):
        calls.append({"rows": list(rows), "width": width})
        return rank_f2(calls[-1]["rows"], width)

    monkeypatch.setattr(fk3, "rank_f2", rank)
    return calls


def recording_galois_rank(monkeypatch):
    """Patch fk3's _galois_rank to record each map's coaction images, its
    lines of entries and the function that builds its tables of entries."""
    maps = []
    galois_rank = fk3._galois_rank

    def recording(images, line, tables, n):
        maps.append((images, line, tables))
        return galois_rank(images, line, tables, n)

    monkeypatch.setattr(fk3, "_galois_rank", recording)
    return maps


def top_blocks(rows, n=72):
    """Each image's top block (the highest nonzero block of its n rows) and
    its rows there."""
    out = []
    for k in range(0, len(rows), n):
        image = rows[k:k + n]
        top = max(row.bit_length() - 1 for row in image) // n
        out.append((top, [row >> top * n & (1 << n) - 1 for row in image]))
    return out


@pytest.mark.parametrize("lam_bits, mu_bits", [("000000000", "000000000"),
                                               ("000101110", "100000000")])
def test_galois_rows_match_the_per_term_construction(monkeypatch, lam_bits, mu_bits):
    lam = lambda_from_bits(lam_bits)
    mu = mu_from_bits(mu_bits, lam)
    maps = recording_galois_rank(monkeypatch)
    calls = recording_rank(monkeypatch)
    cert = galois_certificate(lam, mu)
    # the kernel ranked six 72-row diagonal blocks per map and nothing else
    assert [(len(call["rows"]), call["width"]) for call in calls] == [(72, 72)] * 12
    assert all(isinstance(row, int) for call in calls for row in call["rows"])
    old_r, old_l = per_term_galois_rows(lam, mu)
    for (images, _, tables), old, diagonals in zip(maps, (old_r, old_l), (calls[:6], calls[6:])):
        assert [fk3._built_row(blocks, 72, entries)
                for blocks in images for entries in tables()] == old
        tops = top_blocks(old)
        assert len({top for top, _ in tops}) == 72
        assert ({tuple(rows) for _, rows in tops}
                == {tuple(call["rows"]) for call in diagonals})
        assert all(rank_f2(call["rows"], 72) == 72 for call in diagonals)
    assert rank_f2(old_r, 5184) == rank_f2(old_l, 5184) == 5184
    assert (cert.rank_right, cert.rank_left) == (5184, 5184)


def test_block_argument_certifies_both_maps_on_every_pair(monkeypatch):
    """On all 32 pairs the top blocks are distinct and every diagonal block
    is invertible, so no row of either map is built or eliminated, and the
    full product table is never composed."""
    from nclift.classify import enumerate_pairs

    def no_elimination(*args):
        raise AssertionError("a Galois map fell back to eliminating every row")

    def no_table(*args):
        raise AssertionError("a certificate composed the full product table")

    monkeypatch.setattr(fk3, "_built_row", no_elimination)
    monkeypatch.setattr(fk3._Products, "table", no_table)
    calls = recording_rank(monkeypatch)
    pairs = enumerate_pairs("gx")
    assert len(pairs) == 32
    for p in pairs:
        lam = lambda_from_bits(p.lam_bits)
        cert = galois_certificate(lam, mu_from_bits(p.mu_bits, lam))
        assert (cert.rank_right, cert.rank_left) == (5184, 5184), p.key
        assert cert.bijective
    assert {(len(call["rows"]), call["width"]) for call in calls} == {(72, 72)}
    assert len(calls) == 32 * 12


def test_diagonal_blocks_are_xors_of_product_lines(monkeypatch):
    """On the 10 class representatives, every diagonal block the kernel
    ranked is the XOR, over the A positions of its top block, of the
    columns (kappa_r) or the rows (kappa_l) of the full product table."""
    from nclift.classify import enumerate_pairs, partition_classes
    from nclift.fulcrum import s3_violations

    classes = partition_classes(enumerate_pairs("gx"))
    reps = [next(p for p in cls if not s3_violations(matrix_from_bits(p.lam_bits)))
            for cls in classes]
    assert len(reps) == 10
    maps = recording_galois_rank(monkeypatch)
    calls = recording_rank(monkeypatch)
    for p in reps:
        lam = lambda_from_bits(p.lam_bits)
        mu = mu_from_bits(p.mu_bits, lam)
        maps.clear()
        calls.clear()
        assert galois_certificate(lam, mu).bijective
        A = build_cleft(lam, mu)
        prod = fk3._Products(A.system, A.basis()).table()
        columns = [list(column) for column in zip(*prod)]
        assert len(calls) == 12
        for (images, _, _), lines, diagonals in zip(maps, (columns, prod), (calls[:6], calls[6:])):
            expected = set()
            for blocks in images:
                bits = [0] * 72
                for a in blocks[0][1]:
                    bits = [b ^ x for b, x in zip(bits, lines[a])]
                expected.add(tuple(bits))
            assert len(expected) == 6, p.key
            assert {tuple(call["rows"]) for call in diagonals} == expected, p.key


def test_galois_ranks_when_a_diagonal_block_is_singular(monkeypatch):
    """A product table whose row 1 repeats row 0 (the unit's): kappa_r's
    top blocks stay distinct, but its diagonal blocks, right multiplication
    by a group element, get two equal rows, so the kernel eliminates every
    row, and the rank is that of eager elimination."""
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    tables = []

    class RepeatedRow(fk3._Products):
        # the repeated row in every column, row and full table
        def column(self, k):
            column = list(super().column(k))
            column[1] = column[0]
            return column

        def row(self, k):
            return super().row(0 if k == 1 else k)

        def table(self):
            tables.append(super().table())
            return tables[-1]

    monkeypatch.setattr(fk3, "_Products", RepeatedRow)
    maps = recording_galois_rank(monkeypatch)
    calls = recording_rank(monkeypatch)
    cert = galois_certificate(lam, mu)
    images_r = maps[0][0]
    assert len({blocks[0][0] for blocks in images_r}) == len(images_r) == 72
    assert [len(call["rows"]) for call in calls[:2]] == [72, 5184]
    assert rank_f2(calls[0]["rows"], 72) < 72
    assert tables[0][1] == tables[0][0]
    old_r, old_l = per_term_galois_rows(lam, mu, table=tables[0])
    assert calls[1]["rows"] == old_r
    assert cert.rank_right == rank_f2(old_r, 5184) < 5184
    assert cert.rank_left == rank_f2(old_l, 5184)
    assert not cert.bijective


def test_galois_ranks_of_a_map_that_is_not_bijective(monkeypatch):
    """Two basis words share one coaction image, so two top blocks
    coincide and the kernel eliminates every row."""
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    basis = build_cleft(lam, mu).basis()
    same_image = {basis[40]: basis[41]}

    def sharing_word_image(word, images, left_sys, right_sys, memo):
        return fulcrum.word_image(same_image.get(word, word), images, left_sys, right_sys, memo)

    monkeypatch.setattr(fk3, "word_image", sharing_word_image)
    calls = recording_rank(monkeypatch)
    cert = galois_certificate(lam, mu)
    old_r, old_l = per_term_galois_rows(lam, mu, same_image)
    assert calls[0]["rows"] == old_r
    assert calls[1]["rows"] == old_l
    assert cert.rank_right == rank_f2(old_r, 5184) < 5184
    assert cert.rank_left == rank_f2(old_l, 5184) < 5184
    assert not cert.bijective


def test_galois_ranks_when_an_image_has_no_top_block(monkeypatch):
    """One basis word's coaction image is zero, so its image has no top
    block and the kernel eliminates every row: each map loses that word's
    72 rows."""
    lam = lambda_from_bits("000101110")
    mu = mu_from_bits("100000000", lam)
    zero_word = build_cleft(lam, mu).basis()[40]

    def zero_word_image(word, images, left_sys, right_sys, memo):
        image = fulcrum.word_image(word, images, left_sys, right_sys, memo)
        return TensorPoly(image.left, image.right, F2, {}) if word == zero_word else image

    monkeypatch.setattr(fk3, "word_image", zero_word_image)
    calls = recording_rank(monkeypatch)
    cert = galois_certificate(lam, mu)
    assert [len(call["rows"]) for call in calls] == [5184, 5184]
    assert cert.rank_right == cert.rank_left == 5112
    assert cert.bijective is False


def image_from_the_empty_word(word, images, left_sys, right_sys):
    """One basis word's coaction image, multiplied and reduced one letter at
    a time from 1 (x) 1, as apply_algebra_map did before it kept a memo."""
    acc = TensorPoly(left_sys.alphabet, right_sys.alphabet, F2, {((), ()): F2.one})
    for letter in word:
        acc = reduce_tensor(acc * images[letter], left_sys, right_sys)
    return acc


@pytest.mark.parametrize("lam_bits, mu_bits", [("000101110", "100000000"),
                                               ("111111111", "111111111")])
def test_prefix_images_match_images_from_the_empty_word(monkeypatch, lam_bits, mu_bits):
    lam = lambda_from_bits(lam_bits)
    mu = mu_from_bits(mu_bits, lam)
    calls = []

    def recording_word_image(word, images, left_sys, right_sys, memo):
        image = fulcrum.word_image(word, images, left_sys, right_sys, memo)
        calls.append((word, images, left_sys, right_sys, id(memo), image))
        return image

    monkeypatch.setattr(fk3, "word_image", recording_word_image)
    assert galois_certificate(lam, mu).bijective
    A, L, B = build_cleft(lam, mu), build_lifting(lam, mu), bosonization_build()
    basis = A.basis()
    assert len(calls) == 2 * len(basis) == 144
    sides = [calls[:72], calls[72:]]
    for side, (left_sys, right_sys) in zip(sides, ((A.system, B.system), (L.system, A.system))):
        assert [c[0] for c in side] == basis
        assert len({c[4] for c in side}) == 1
        for word, images, left, right, _, image in side:
            assert (left, right) == (left_sys, right_sys)
            assert image == image_from_the_empty_word(word, images, left_sys, right_sys), word
    assert sides[0][0][4] != sides[1][0][4]


def test_product_table_is_associative_and_unital():
    lam = lambda_from_bits("000101110")
    A = build_cleft(lam, mu_from_bits("100000000", lam))
    basis = A.basis()
    n = len(basis)
    prod = fk3._Products(A.system, basis).table()
    assert n == 72 and basis[0] == ()
    for v in range(n):
        assert prod[0][v] == prod[v][0] == 1 << v
    support = [[[k for k in range(n) if bits >> k & 1] for bits in row] for row in prod]
    for u in range(n):
        prod_u = prod[u]
        for v in range(n):
            uv = support[u][v]
            support_v = support[v]
            for w in range(n):
                left = right = 0
                for k in uv:
                    left ^= prod[k][w]
                for k in support_v[w]:
                    right ^= prod_u[k]
                assert left == right, (basis[u], basis[v], basis[w])


def per_product_table(system, basis):
    """Structure constants with one nf_word call per product."""
    idx = {w: k for k, w in enumerate(basis)}
    return [[sum(1 << idx[w] for w in system.nf_word(u + v)) for v in basis]
            for u in basis]


@pytest.mark.parametrize("lam_bits, mu_bits", [("000000000", "000000000"),
                                               ("000101110", "100000000")])
def test_product_table_matches_one_normal_form_per_product(lam_bits, mu_bits):
    lam = lambda_from_bits(lam_bits)
    mu = mu_from_bits(mu_bits, lam)
    for build in (build_cleft(lam, mu), build_lifting(lam, mu), bosonization_build()):
        basis = build.basis()
        assert len(basis) == 72
        assert fk3._Products(build.system, basis).table() == per_product_table(build.system, basis)
    # a basis that is not ordered by length gives the same products
    shuffled = build.basis()
    random.Random(31).shuffle(shuffled)
    assert shuffled[0] != ()
    assert fk3._Products(build.system, shuffled).table() == per_product_table(build.system, shuffled)


def test_product_table_rejects_a_basis_that_is_not_prefix_closed():
    system = bosonization_build().system
    basis = bosonization_build().basis()
    with pytest.raises(ValueError, match="prefix"):
        fk3._Products(system, basis[1:]).table()
    short = next(w for w in basis if len(w) == 1 and any(v[:1] == w for v in basis if len(v) > 1))
    with pytest.raises(ValueError, match="prefix"):
        fk3._Products(system, [w for w in basis if w != short]).table()


def test_rank_of_zero_map_is_zero():
    from nclift.rewrite import rank_f2
    assert rank_f2([0] * 5184, 5184) == 0


def test_galois_certificate_rejects_degenerate_input():
    lam0 = zero_lambda()
    bad = mu_unchecked([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        galois_certificate(lam0, bad)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_round_trip():
    cert = fk3.certify("000101110", "100000000", galois=True)
    doc = cert.to_json()
    assert doc["schema"] == 1
    assert doc["valid"] is True
    assert doc["dim_lifting"] == 72 and doc["dim_cleft"] == 72
    assert doc["galois"]["bijective"] is True
    assert doc["cubic_convention"] == ONE_BASED


def test_certify_rejects_invalid_input():
    with pytest.raises(ValueError):
        fk3.certify("100000000", "000000000")  # invalid lambda
    with pytest.raises(ValueError):
        fk3.certify("000000000", "100000000")  # invalid mu
    with pytest.raises(ValueError):
        fk3.certify("000000000", "000000000", group_mode="gx")


def test_bosonization_build_is_the_undeformed_quotient():
    B = bosonization_build()
    assert B.dimension() == 72
    assert B.status == CONFLUENT


def test_a_build_enumerates_its_words_once(monkeypatch):
    # a fresh report of the shared completion, so that nothing is cached yet
    build = dataclasses.replace(bosonization_build())
    expected = irreducible_words(build.system, 6)
    calls = []

    def counting(system, max_len=None):
        calls.append(max_len)
        return irreducible_words_by_length(system, max_len)

    monkeypatch.setattr(rewrite, "irreducible_words_by_length", counting)
    first = build.basis()
    assert first == expected
    assert build.dimension() == len(first) == 72
    first.reverse()
    second = build.basis()
    assert second is not first and second == first[::-1]
    assert build.dimension() == 72
    assert calls == [None]


def test_lifting_basis_profile_by_length():
    # module-word profile [1,3,4,3,1] convolved with (1 + 5 group letters)
    from nclift.rewrite import count_irreducible
    lam = lambda_from_bits("000101110")
    build = build_lifting(lam, mu_from_bits("100000000", lam))
    counts = count_irreducible(build.system, 10)
    assert counts.per_length[:7] == [1, 8, 19, 23, 16, 5, 0]
    assert counts.total == 72


def test_quotient_multiplication_is_associative_on_sample():
    # well-definedness oracle independent of the confluence bookkeeping
    lam = lambda_from_bits("111111111")
    build = build_lifting(lam, mu_from_bits("100010001", lam))
    sys_ = build.system
    basis = build.basis()
    rng = random.Random(2718)

    def mul(u, v):
        return sys_.nf_word(u + v)

    for _ in range(700):
        a, b, c = (rng.choice(basis) for _ in range(3))
        left = {}
        for w, coeff in mul(a, b).items():
            for w2, coeff2 in mul(w, c).items():
                left[w2] = (left.get(w2, 0) + coeff * coeff2) % 2
        right = {}
        for w, coeff in mul(b, c).items():
            for w2, coeff2 in mul(a, w).items():
                right[w2] = (right.get(w2, 0) + coeff * coeff2) % 2
        assert {w for w, c0 in left.items() if c0} == {w for w, c0 in right.items() if c0}
