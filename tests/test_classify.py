"""Pair enumeration, isomorphism witnesses, partition, table emission."""

import json
import random
import re

import pytest

from nclift import classify
from nclift.classify import (
    IsoWitness,
    PairRecord,
    emit_table,
    enumerate_pairs,
    iso_related,
    partition_classes,
)
from nclift.fk3 import all_bits, matrix_from_bits
from nclift.fulcrum import validate_lambda


@pytest.fixture(scope="module")
def pairs():
    return enumerate_pairs("gx")


@pytest.fixture(scope="module")
def classes(pairs):
    return partition_classes(pairs)


def _find(pairs, lam, mu):
    return next(p for p in pairs if p.lam_bits == lam and p.mu_bits == mu)


def test_pair_count(pairs):
    assert len(pairs) == 32


def test_distinct_lambda_count(pairs):
    # eight valid lambda matrices occur among the pairs; each carries four mu
    lams = {}
    for p in pairs:
        lams.setdefault(p.lam_bits, []).append(p.mu_bits)
    assert len(lams) == 8
    assert all(len(v) == 4 for v in lams.values())


def test_zero_lambda_mu_values(pairs):
    mus = sorted(p.mu_bits for p in pairs if p.lam_bits == "000000000")
    # zero, all-ones, identity, ones-minus-identity
    assert mus == sorted(["000000000", "111111111", "100010001", "011101110"])


def test_deterministic_ordering(pairs):
    keys = [p.key for p in pairs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("mode", ["gx", "s3"])
def test_only_orbit_constant_mu_are_validated(monkeypatch, pairs, mode):
    validated = []
    real = classify.validate_mu

    def recording(m, lam):
        validated.append(tuple(map(tuple, m)))
        return real(m, lam)

    monkeypatch.setattr(classify, "validate_mu", recording)
    assert [p.key for p in enumerate_pairs(mode)] == [p.key for p in pairs]
    # the same 32 mu for each of the 8 valid lambda, not all 512
    assert len(validated) == 8 * 32 and len(set(validated)) == 32
    # every other mu breaks an orbit identity, which no lambda repairs
    for lam_bits in {p.lam_bits for p in pairs}:
        lam = validate_lambda(matrix_from_bits(lam_bits), mode).matrix
        assert not any(real(matrix_from_bits(bits), lam).ok
                       for bits in all_bits()
                       if tuple(map(tuple, matrix_from_bits(bits))) not in validated)


@pytest.mark.parametrize("mode", ["gx", "s3"])
def test_lambda_masks_accept_exactly_the_valid_lambda(mode):
    masks = classify._lambda_masks(mode)
    passed = [bits for n, bits in enumerate(all_bits()) if classify._even(n, masks)]
    valid = [bits for bits in all_bits()
             if validate_lambda(matrix_from_bits(bits), mode).ok]
    assert passed == valid and len(valid) == 8


# ---------------------------------------------------------------------------
# isomorphism witnesses
# ---------------------------------------------------------------------------

def test_identity_witness(pairs):
    p = _find(pairs, "000000000", "000000000")
    w = iso_related(p, p)
    assert isinstance(w, IsoWitness)
    assert w.auto == (0, 1, 2) and w.shifts == (0, 0, 0)


def test_witness_zero_to_all_ones_mu(pairs):
    p = _find(pairs, "000000000", "000000000")
    q = _find(pairs, "000000000", "111111111")
    w = iso_related(p, q)
    assert w is not None
    assert w.shifts == (1, 1, 1) or w.auto != (0, 1, 2)


def test_witness_zero_to_deformed_lambda(pairs):
    p = _find(pairs, "000000000", "000000000")
    q = _find(pairs, "000101110", "100000000")
    w = iso_related(p, q)
    assert w is not None
    # the identity automorphism with shifts (1,0,0) does the job
    direct = iso_related(p, q)
    assert direct.auto == (0, 1, 2) and direct.shifts == (1, 0, 0)


def test_reverse_witnesses_exist(pairs):
    related = [(p, q) for p in pairs for q in pairs if iso_related(p, q) is not None]
    assert len(related) >= 100
    for p, q in related:
        assert iso_related(q, p) is not None


def _list_witness_images(p):
    """_witness_images before it read matrices as bits: per (automorphism,
    shifts) in search order, the image matrices built entry by entry as
    lists, kept when the image lambda meets the third condition."""
    from nclift.rackgroup import dihedral_rack, rack_automorphisms
    r = dihedral_rack()
    triples = [(i, j, r.act(i, j)) for i in range(3) for j in range(3)]
    lp, mp = matrix_from_bits(p.lam_bits), matrix_from_bits(p.mu_bits)
    for a in rack_automorphisms(r):
        for s in [(s0, s1, s2) for s0 in (0, 1) for s1 in (0, 1) for s2 in (0, 1)]:
            lq = [[0] * 3 for _ in range(3)]
            mq = [[0] * 3 for _ in range(3)]
            for i, j, ij in triples:
                lq[a[i]][a[j]] = (lp[i][j] + s[ij] + s[j]) % 2
                mq[a[i]][a[j]] = (mp[i][j] + s[i] * s[j] + s[ij] * s[i] + s[j] * s[ij]) % 2
            if all((s[i] * lq[a[i]][a[j]] + s[ij] * lq[a[ij]][a[i]]
                    + s[j] * lq[a[j]][a[ij]]) % 2 == 0 for i, j, ij in triples):
                yield IsoWitness(a, s), ("".join(map(str, lq[0] + lq[1] + lq[2])),
                                         "".join(map(str, mq[0] + mq[1] + mq[2])))


@pytest.mark.parametrize("mode", ["gx", "s3"])
def test_witness_images_match_the_list_construction(mode):
    for p in enumerate_pairs(mode):
        assert list(classify._witness_images(p)) == list(_list_witness_images(p)), p.key
    # the masks do not rely on the pair being valid
    rng = random.Random(5)
    for _ in range(200):
        p = PairRecord(format(rng.randrange(512), "09b"), format(rng.randrange(512), "09b"), mode)
        assert list(classify._witness_images(p)) == list(_list_witness_images(p)), p.key


def _search_witness(p, q):
    """The 48-candidate search of iso_related before it listed images: every
    (automorphism, shifts) in order, each tested against q's matrices."""
    from nclift.fk3 import matrix_from_bits
    from nclift.rackgroup import dihedral_rack, rack_automorphisms
    r = dihedral_rack()
    lp, mp = matrix_from_bits(p.lam_bits), matrix_from_bits(p.mu_bits)
    lq, mq = matrix_from_bits(q.lam_bits), matrix_from_bits(q.mu_bits)
    def holds(auto, s, i, j):
        ij = r.act(i, j)
        mu_shift = (s[i] * s[j] + s[ij] * s[i] + s[j] * s[ij]) % 2
        third = (s[i] * lq[auto[i]][auto[j]] + s[ij] * lq[auto[ij]][auto[i]]
                 + s[j] * lq[auto[j]][auto[ij]]) % 2
        return (lq[auto[i]][auto[j]] == (lp[i][j] + s[ij] + s[j]) % 2
                and mq[auto[i]][auto[j]] == (mp[i][j] + mu_shift) % 2 and third == 0)

    for auto in rack_automorphisms(r):
        for s in [(s0, s1, s2) for s0 in (0, 1) for s1 in (0, 1) for s2 in (0, 1)]:
            if all(holds(auto, s, i, j) for i in range(3) for j in range(3)):
                return IsoWitness(auto, s)
    return None


def _search_partition(pairs):
    """partition_classes before it listed images: a union of every pair a < b
    with a witness either way, found by the 48-candidate search."""
    items = sorted(pairs, key=lambda p: p.key)
    root = list(range(len(items)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if _search_witness(items[a], items[b]) or _search_witness(items[b], items[a]):
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)
    groups = {}
    for idx, rec in enumerate(items):
        groups.setdefault(find(idx), []).append(rec.key)
    return sorted(groups.values(), key=lambda c: (-len(c), c[0]))


def test_witnesses_match_the_candidate_search(pairs):
    found = 0
    for p in pairs:
        for q in pairs:
            witness = iso_related(p, q)
            assert witness == _search_witness(p, q), (p.key, q.key)
            found += witness is not None
    assert found >= 100


@pytest.mark.parametrize("mode", ["gx", "s3"])
def test_partition_matches_the_candidate_search(mode):
    mode_pairs = enumerate_pairs(mode)
    classes = partition_classes(mode_pairs)
    assert [[p.key for p in cls] for cls in classes] == _search_partition(mode_pairs)
    assert [p.class_id for cls in classes for p in cls] == [
        cid for cid, cls in enumerate(classes) for _ in cls]


def test_partition_rejects_images_that_are_not_a_class(monkeypatch, pairs):
    # drop one image of one pair: that pair's set is then smaller than the
    # sets of the rest of its class, which the groupoid rules out
    p = _find(pairs, "000000000", "000000000")
    dropped = _find(pairs, "000000000", "111111111").key
    real = classify._witness_images

    def lossy(q):
        return ((w, key) for w, key in real(q) if q.key != p.key or key != dropped)

    monkeypatch.setattr(classify, "_witness_images", lossy)
    fresh = enumerate_pairs("gx")
    with pytest.raises(ValueError, match=re.escape(f"pair {p.key}")):
        partition_classes(fresh)
    # without the dropped image's pair in the list, the sets agree again
    others = [q for q in fresh if q.key != dropped]
    assert p.key in [q.key for cls in partition_classes(others) for q in cls]


def test_partition_rejects_a_repeated_pair(pairs):
    with pytest.raises(ValueError, match="listed twice"):
        partition_classes(pairs + [PairRecord(*pairs[5].key, "gx")])


def test_pairs_from_different_modes_are_rejected(pairs):
    p = pairs[0]
    other = PairRecord(p.lam_bits, p.mu_bits, "s3")
    with pytest.raises(ValueError, match="different modes"):
        iso_related(p, other)
    with pytest.raises(ValueError, match="different modes"):
        partition_classes([p, other])
    with pytest.raises(ValueError, match="different modes"):
        partition_classes([PairRecord(q.lam_bits, q.mu_bits, q.mode) for q in pairs] + [other])


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_class_count_and_sizes(classes):
    assert len(classes) == 10
    assert sorted((len(c) for c in classes), reverse=True) == [8, 8, 3, 3, 3, 3, 1, 1, 1, 1]


def test_required_memberships(classes):
    def cid(lam, mu):
        for cls in classes:
            for p in cls:
                if (p.lam_bits, p.mu_bits) == (lam, mu):
                    return p.class_id
        raise AssertionError("pair not found")

    assert cid("000000000", "000000000") == cid("000000000", "111111111")
    assert cid("000000000", "000000000") == cid("000101110", "100000000")


def test_all_ones_lambda_pairs_are_singletons(classes):
    singles = [c for c in classes if c[0].lam_bits == "111111111"]
    assert len(singles) == 4
    assert all(len(c) == 1 for c in singles)


def test_partition_is_order_independent(pairs, classes):
    shuffled = [PairRecord(p.lam_bits, p.mu_bits, p.mode) for p in pairs]
    random.Random(23).shuffle(shuffled)
    reclassed = partition_classes(shuffled)
    original = [[(p.lam_bits, p.mu_bits) for p in cls] for cls in classes]
    redone = [[(p.lam_bits, p.mu_bits) for p in cls] for cls in reclassed]
    assert original == redone


def test_every_class_has_s3_compatible_lambda(classes):
    from nclift.fulcrum import validate_lambda
    from nclift.fk3 import matrix_from_bits
    for cls in classes:
        assert any(validate_lambda(matrix_from_bits(p.lam_bits), "s3").ok for p in cls)


def test_s3_mode_enumeration(classes):
    # every lambda here happens to satisfy the finite-quotient condition, so
    # the restricted enumeration returns the same pairs
    assert len(enumerate_pairs("s3")) == 32


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_json_round_trip(classes):
    text = emit_table(classes, "json", "gx")
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert doc["pair_count"] == 32
    assert doc["class_count"] == 10
    assert len(doc["pairs"]) == 32


def test_emit_markdown_has_32_rows(classes):
    text = emit_table(classes, "md", "gx")
    rows = [line for line in text.splitlines() if line.startswith("|")]
    assert len(rows) == 2 + 32  # header + separator + data


def test_emit_csv_header(classes):
    text = emit_table(classes, "csv", "gx")
    assert text.splitlines()[0] == "lambda,mu,class,dim,galois_r,galois_l"
    assert len(text.splitlines()) == 33


def test_emit_rejects_unknown_format(classes):
    with pytest.raises(ValueError):
        emit_table(classes, "xml", "gx")


def test_witness_realizes_an_algebra_isomorphism(pairs):
    """Decisive cross-check: the witness data for a related pair induces an
    actual isomorphism of the 72-dimensional quotients, verified by mapping
    every defining relation to zero and by full rank on the basis."""
    from nclift import fk3
    from nclift.fulcrum import T_LAMBDA
    from nclift.ncpoly import F2, NcPoly
    from nclift.rewrite import rank_f2

    p = _find(pairs, "000000000", "000000000")
    q = _find(pairs, "000101110", "100000000")
    witness = iso_related(p, q)
    assert witness is not None

    lam_p = fk3.lambda_from_bits(p.lam_bits)
    lam_q = fk3.lambda_from_bits(q.lam_bits)
    mu_p = fk3.mu_from_bits(p.mu_bits, lam_p)
    src = fk3.build_lifting(lam_p, mu_p)
    dst = fk3.build_lifting(lam_q, fk3.mu_from_bits(q.mu_bits, lam_q))
    src_pres = fk3.flavor_presentation(lam_p, T_LAMBDA)
    dst_pres = fk3.flavor_presentation(lam_q, T_LAMBDA)
    alpha = dst.system.alphabet
    G = dst_pres.yd.group
    phi, s = witness.auto, witness.shifts

    # generator images: x_i -> x_{phi(i)} + s_i (1 + g_{phi(i)}),
    # group letters via the group automorphism induced by phi
    images = {}
    for i in range(3):
        items = [((phi[i],), 1)]
        if s[i]:
            items += [((), 1), (dst_pres.group_word(G.distinguished[phi[i]]), 1)]
        images[i] = NcPoly.from_terms(alpha, F2, items)
    for e in range(G.order):
        target = G.element_of_word(tuple(phi[i] for i in G.words[e]))
        images[src_pres.group_ordinal(e)] = NcPoly.term(
            alpha, F2, dst_pres.group_word(target))

    def apply_map(poly):
        out = NcPoly.zero(alpha, F2)
        for word, coeff in poly.terms.items():
            acc = NcPoly.one(alpha, F2)
            for letter in word:
                acc = dst.system.normal_form(acc * images[letter])
            out = out + acc.scale(coeff)
        return dst.system.normal_form(out)

    for rel in src_pres.relations + fk3.deformed_relations(lam_p, mu_p, T_LAMBDA):
        assert not apply_map(rel), f"relation not killed: {rel}"

    basis_src = src.basis()
    basis_dst = dst.basis()
    index = {w: n for n, w in enumerate(basis_dst)}
    rows = []
    for w in basis_src:
        bits = 0
        for out_word in apply_map(NcPoly.term(src.system.alphabet, F2, w)).terms:
            bits ^= 1 << index[out_word]
        rows.append(bits)
    assert rank_f2(rows, 72) == 72


def test_certificates_populate_rows(classes):
    from nclift import fk3
    rep = classes[0][0]
    cert = fk3.certify(rep.lam_bits, rep.mu_bits, galois=True).to_json()
    text = emit_table(classes, "json", "gx", {(rep.lam_bits, rep.mu_bits): cert})
    doc = json.loads(text)
    row = next(r for r in doc["pairs"]
               if (r["lambda"], r["mu"]) == (rep.lam_bits, rep.mu_bits))
    assert row["dim"] == 72 and row["galois_r"] == 5184 and row["galois_l"] == 5184
