"""Rack axioms, automorphism enumeration, and the order-6 quotient."""

import hashlib
import json

import pytest

from nclift.ncpoly import F2, Alphabet, parse_poly
from nclift.rackgroup import (
    GroupTable,
    RackData,
    conjugation_action,
    dihedral_rack,
    rack_automorphisms,
    s3_quotient,
    translation_group,
)
from nclift.rewrite import CONFLUENT, Presentation


@pytest.fixture(scope="module")
def rack():
    return dihedral_rack()


@pytest.fixture(scope="module")
def group():
    return s3_quotient()


def test_rack_values(rack):
    assert rack.act(1, 2) == 0
    for i in range(3):
        assert rack.act(i, i) == i
    for i in range(3):
        for j in range(3):
            assert rack.act(rack.act(i, j), i) == j


def test_orbit_walks_each_pair_back_to_itself(rack):
    for i in range(3):
        for j in range(3):
            orbit = rack.orbit(i, j)
            assert orbit[0] == (i, j) and len(set(orbit)) == len(orbit)
            assert orbit == (((i, i),) if i == j
                             else ((i, j), (rack.act(i, j), i), (j, rack.act(i, j))))
            for a, b in orbit:
                assert set(rack.orbit(a, b)) == set(orbit)


def test_the_order_6_group_is_the_translation_group(group):
    """``s3_quotient`` is the cached translation group of the cached
    dihedral rack, and its table is the one pinned before the group was
    built for any rack."""
    assert translation_group(dihedral_rack()) is group is s3_quotient()
    assert group.rack is dihedral_rack()
    text = json.dumps(group.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == ("a4e52754a4270d839f171f7d7c88d535"
                                                "c823d4447848389106a20760831b519c")


def test_translation_group_refuses_equal_translations():
    trivial = RackData(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="coincide"):
        translation_group(trivial)


def test_rack_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        RackData(2, ((0, 0), (0, 1)))  # left translation not bijective
    # bijective but not self-distributive
    with pytest.raises(ValueError):
        RackData(3, ((1, 0, 2), (0, 1, 2), (0, 1, 2)))


def test_rack_automorphisms(rack):
    autos = rack_automorphisms(rack)
    perms = set(autos)
    assert len(autos) == 6
    assert (0, 1, 2) in perms
    # the transposition fixing 0 preserves the operation
    assert (0, 2, 1) in perms
    # closure under inversion
    for a in autos:
        inverse = [0] * len(a)
        for i, p in enumerate(a):
            inverse[p] = i
        assert tuple(inverse) in perms
    # for the affine rack these are exactly the affine maps i -> a i + b
    affine = {tuple((a * i + b) % 3 for i in range(3)) for a in (1, 2) for b in range(3)}
    assert perms == affine


def test_quotient_order_and_identity(group):
    assert group.order == 6
    assert group.identity == 0
    assert group.name(0) == "e"


def test_distinguished_elements(group, rack):
    g = group.distinguished
    assert len(set(g)) == 3
    for i in range(3):
        assert group.mul(g[i], g[i]) == group.identity
    # enveloping relation g_i g_j = g_{i|>j} g_i inside the table
    for i in range(3):
        for j in range(3):
            assert group.mul(g[i], g[j]) == group.mul(g[rack.act(i, j)], g[i])


def test_conjugation_reproduces_rack(group, rack):
    for j in range(3):
        for i in range(3):
            assert conjugation_action(group.distinguished[j], i, group) == rack.act(j, i)
    for i in range(3):
        assert conjugation_action(group.identity, i, group) == i


def test_conjugation_is_an_action(group):
    for a in range(group.order):
        for b in range(group.order):
            for i in range(3):
                lhs = conjugation_action(group.mul(a, b), i, group)
                rhs = conjugation_action(a, conjugation_action(b, i, group), group)
                assert lhs == rhs


def test_canonical_words_reproduce_elements(group):
    for e in range(group.order):
        assert group.element_of_word(group.words[e]) == e
    names = [group.name(e) for e in range(group.order)]
    assert names == ["e", "g0", "g1", "g2", "g0g1", "g0g2"]


def test_group_table_validation_is_exhaustive(group, rack):
    # tampering with one entry must be caught
    bad = [list(row) for row in group.table]
    bad[1][1] = 1
    with pytest.raises(ValueError):
        GroupTable(group.order, bad, group.distinguished, group.words, rack)


def test_json_round_trip(group):
    doc = group.to_json()
    assert doc["schema"] == 1
    assert doc["order"] == 6
    assert doc["table"][0] == list(range(6))
    assert doc["distinguished"] == {"0": 1, "1": 2, "2": 3}


def test_presentation_completes_to_the_group(group, rack):
    # the order is computed by the Diamond Lemma from the presentation
    # < g_i | g_i g_j = g_{i|>j} g_i, g_0^2 = 1 >, independently of the
    # translations the table is built from; without the inverse letters
    # G_i the presented monoid has 8 elements
    ids = ["g0", "g1", "g2", "G0", "G1", "G2"]
    alphabet = Alphabet.from_parts([], ids)
    texts = ["g0 g0 + 1"]
    for i in range(3):
        texts += [f"g{i} G{i} + 1", f"G{i} g{i} + 1"]
        texts += [f"g{i} g{j} + g{rack.act(i, j)} g{i}" for j in range(3) if j != i]
    relations = [parse_poly(t, alphabet, F2) for t in texts]
    report = Presentation(alphabet, F2, relations, degree_cap=4).complete()
    assert report.status == CONFLUENT
    basis = report.basis()
    assert len(basis) == group.order == 6
    # a basis word with an inverse letter has no rack index and fails here
    rack_index = {alphabet.ordinal(f"g{i}"): i for i in range(3)}
    assert {tuple(rack_index[o] for o in w) for w in basis} == set(group.words)
