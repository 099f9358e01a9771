"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines as they happen.  Criterion 8 is asserted in its original stated form; the
computation shows the group-term quotient over the order-6 group never
collapses to zero for invalid mu (it degenerates to dimension 4 or is blind
to the failure), so that single criterion fails by design rather than being
weakened; test_fk3 pins the true degeneration behavior.
"""

import random
import time

import pytest

from nclift.ncpoly import F2, NcPoly, deglex_compare
from nclift.rewrite import COLLAPSED_TO_ZERO, CONFLUENT
from nclift import classify as classify_mod
from nclift import fk3
from nclift import jordan
from nclift.fulcrum import T_LAMBDA, extend_lambda, standard_yd_data, validate_lambda
from nclift.rackgroup import conjugation_action

SEED = 20260809


def _report(num: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{stamp}")


@pytest.fixture(scope="module")
def pairs():
    return classify_mod.enumerate_pairs("gx")


@pytest.fixture(scope="module")
def classes(pairs):
    return classify_mod.partition_classes(pairs)


def test_criterion_01_nichols_dimension():
    t0 = time.monotonic()
    dim = fk3.nichols_report().dimension()
    elapsed = time.monotonic() - t0
    ok = dim == 12 and elapsed < 1.0
    _report(1, "quadratic-ideal irreducible words = 12", ok, elapsed)
    assert dim == 12
    assert elapsed < 1.0


def test_criterion_02_pair_enumeration():
    t0 = time.monotonic()
    found = classify_mod.enumerate_pairs("gx")
    elapsed = time.monotonic() - t0
    ok = len(found) == 32 and elapsed < 1.0
    _report(2, "valid (lambda, mu) pairs = 32", ok, elapsed)
    assert len(found) == 32
    assert elapsed < 1.0


def test_criterion_03_isomorphism_classes(pairs):
    t0 = time.monotonic()
    classes = classify_mod.partition_classes(pairs)
    elapsed = time.monotonic() - t0

    def cid(lam, mu):
        for cls in classes:
            for p in cls:
                if (p.lam_bits, p.mu_bits) == (lam, mu):
                    return p.class_id
        raise AssertionError((lam, mu))

    memberships = (
        cid("000000000", "000000000") == cid("000000000", "111111111")
        and cid("000000000", "000000000") == cid("000101110", "100000000")
    )
    singles = [c for c in classes if c[0].lam_bits == "111111111"]
    ok = (len(classes) == 10 and memberships
          and len(singles) == 4 and all(len(c) == 1 for c in singles)
          and elapsed < 1.0)
    _report(3, "10 isomorphism classes with pinned memberships", ok, elapsed)
    assert len(classes) == 10
    assert memberships
    assert len(singles) == 4 and all(len(c) == 1 for c in singles)
    assert elapsed < 1.0


def test_criterion_04_lifting_dimensions(pairs):
    t0 = time.monotonic()
    checked = 0
    for p in pairs:
        if not validate_lambda(fk3.matrix_from_bits(p.lam_bits), "s3").ok:
            continue
        lam = fk3.lambda_from_bits(p.lam_bits)
        mu = fk3.mu_from_bits(p.mu_bits, lam)
        dim_l = fk3.build_lifting(lam, mu).dimension()
        dim_a = fk3.build_cleft(lam, mu).dimension()
        assert dim_l == 72, (p.key, dim_l)
        assert dim_a == 72, (p.key, dim_a)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == len(pairs) and elapsed < 30.0
    _report(4, f"dim L = dim A = 72 for all {checked} compatible pairs", ok, elapsed)
    assert checked == 32
    assert elapsed < 30.0


def test_criterion_05_skew_primitivity(pairs):
    from nclift.fulcrum import check_skew_primitive
    t0 = time.monotonic()
    G = standard_yd_data().group
    mu0 = fk3.zero_mu()
    for p in pairs:
        lam = fk3.lambda_from_bits(p.lam_bits)
        pres = fk3.flavor_presentation(lam, T_LAMBDA)
        for i, j in fk3.relation_orbit_reps():
            # the exact displayed identity on the quadratic-plus-linear core
            core = fk3.deformed_relation(pres, lam, i, j, mu0[i, j], group_term=True)
            gij = G.mul(G.distinguished[i], G.distinguished[j])
            assert check_skew_primitive(pres, core, gij), (p.key, (i, j))
        # and the full deformed relation, which in char 2 is equivalent
        mu = fk3.mu_from_bits(p.mu_bits, lam)
        assert all(fk3.skew_primitivity(lam, mu).values()), p.key
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(5, "all 32 pairs x 5 relations skew-primitive", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_06_derived_cubic_relation():
    sample = [
        ("000000000", "000000000"),
        ("000000000", "100010001"),
        ("000101110", "100000000"),
        ("011000110", "000010000"),
        ("111111111", "000000000"),
        ("100010111", "011101110"),
    ]
    convention = fk3.resolve_cubic_convention()
    mismatch_other = 0
    for lam_bits, mu_bits in sample:
        lam = fk3.lambda_from_bits(lam_bits)
        mu = fk3.mu_from_bits(mu_bits, lam)
        derived = fk3.derived_cubic_relation(lam, mu)
        assert derived.terms == fk3.cubic_formula(lam, mu, convention).terms, (lam_bits, mu_bits)
        other = [c for c in fk3.CONVENTIONS if c != convention][0]
        if derived.terms != fk3.cubic_formula(lam, mu, other).terms:
            mismatch_other += 1
    ok = len(sample) >= 5 and mismatch_other > 0
    _report(6, f"cubic rule matches closed form under '{convention}' on {len(sample)} pairs", ok)
    assert len(sample) >= 5
    assert mismatch_other > 0  # the convention choice is not vacuous


def test_criterion_07_galois_bijectivity(classes):
    worst = 0.0
    for cls in classes:
        rep = next(p for p in cls
                   if validate_lambda(fk3.matrix_from_bits(p.lam_bits), "s3").ok)
        lam = fk3.lambda_from_bits(rep.lam_bits)
        mu = fk3.mu_from_bits(rep.mu_bits, lam)
        t0 = time.monotonic()
        cert = fk3.galois_certificate(lam, mu)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert cert.rank_right == 5184, rep.key
        assert cert.rank_left == 5184, rep.key
        assert elapsed < 60.0
    _report(7, "both Galois maps full rank 5184 per class representative", True, worst)


def test_criterion_08_mu_necessity_as_stated():
    """Asserted in its original stated form: sampled invalid mu must make the
    group-term quotient report COLLAPSED_TO_ZERO.  Over the order-6 group
    this is provably not what happens (the quotient stays nonzero of
    dimension 72 or 4), so this criterion is expected to fail; the companion
    tests in test_fk3 certify the true degeneration statement."""
    lam0 = fk3.zero_lambda()
    rng = random.Random(SEED)
    sampled = []
    while len(sampled) < 50:
        bits = format(rng.randrange(512), "09b")
        if bits in sampled:
            continue
        if not fk3.validate_mu(fk3.matrix_from_bits(bits), lam0).ok:
            sampled.append(bits)
    statuses = [fk3.build_lifting(lam0, fk3.mu_unchecked(fk3.matrix_from_bits(b))).status
                for b in sampled]
    ok = all(s == COLLAPSED_TO_ZERO for s in statuses)
    _report(8, "build_lifting collapses for 50 sampled invalid mu", ok)
    assert ok, (
        "no invalid mu collapses the group-term quotient over the order-6 "
        f"group: statuses={sorted(set(statuses))}; the constant-term quotient "
        "does collapse for every invalid mu (see test_fk3)"
    )


def test_criterion_09_jordan_pbw():
    t0 = time.monotonic()
    for flavor in jordan.FLAVORS:
        report = jordan.verify_pbw(jordan.build_jordan(flavor, 8), 8)
        assert report.status == CONFLUENT
        assert report.new_rule_count == 0
        assert report.ok
    totals = {n: jordan.verify_pbw(jordan.build_jordan(jordan.U_JORDAN, n), n).total
              for n in (2, 3)}
    assert totals == {2: 14, 3: 30}
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    _report(9, "all three flavors confluent with zero new rules, counts 14/30", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_10_jordan_coactions():
    report = jordan.jordan_coactions(6)
    _report(10, f"both coactions annihilate all {report.checked} defining relations", report.ok)
    assert report.ok


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    yd = standard_yd_data()
    G, rack = yd.group, yd.rack
    build = fk3.build_lifting(fk3.zero_lambda(), fk3.zero_mu())
    sys_ = build.system
    alpha = build.system.alphabet
    size = len(alpha)

    # normal-form idempotence and linearity
    for _ in range(1000):
        p = NcPoly.from_terms(alpha, F2, [
            (tuple(rng.randint(0, size - 1) for _ in range(rng.randint(0, 4))), 1)
            for _ in range(rng.randint(0, 3))])
        q = NcPoly.from_terms(alpha, F2, [
            (tuple(rng.randint(0, size - 1) for _ in range(rng.randint(0, 4))), 1)
            for _ in range(rng.randint(0, 2))])
        nf = sys_.normal_form
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(p) + nf(q)

    # degree-lexicographic order laws
    for _ in range(1000):
        a, b, c = (tuple(rng.randint(0, size - 1) for _ in range(rng.randint(0, 5)))
                   for _ in range(3))
        ab, bc, ac = (deglex_compare(x, y, alpha) for x, y in ((a, b), (b, c), (a, c)))
        assert ab == -deglex_compare(b, a, alpha)
        if ab <= 0 and bc <= 0:
            assert ac <= 0

    # rack and group axioms under random sampling
    for _ in range(1000):
        i, j, k = (rng.randint(0, 2) for _ in range(3))
        assert rack.act(i, rack.act(j, k)) == rack.act(rack.act(i, j), rack.act(i, k))
        a, b, c = (rng.randint(0, G.order - 1) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert conjugation_action(G.mul(a, b), i, G) == \
            conjugation_action(a, conjugation_action(b, i, G), G)

    # cocycle extension is word-independent
    lam = fk3.lambda_from_bits("000101110")
    for _ in range(1000):
        w1 = [rng.randint(0, 2) for _ in range(rng.randint(0, 4))]
        w2 = list(w1)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(w2))
            g = rng.randint(0, 2)
            w2[pos:pos] = [g, g]  # insert a square, the element is unchanged
        if rng.random() < 0.5 and len(w2) >= 2:
            pos = rng.randint(0, len(w2) - 2)
            i, j = w2[pos], w2[pos + 1]
            w2[pos:pos + 2] = [rack.act(i, j), i]  # enveloping relation move
        assert G.element_of_word(w1) == G.element_of_word(w2)
        for target in range(3):
            assert extend_lambda(lam, w1, target) == extend_lambda(lam, w2, target)

    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(11, "property suites, 1000 randomized cases each", ok, elapsed)
    assert elapsed < 10.0
