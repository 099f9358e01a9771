"""FK4 over S_4: the builders that serve the rack (Z_3, 2) read the rack of
the six transpositions of S_4 as well.  The rack's table is the only input
made here; the group, the presentation and the relations come from the same
functions as at rank 3."""

from collections import Counter
from itertools import combinations, product

import pytest

from nclift import fk3
from nclift.fulcrum import (
    BOSONIZATION,
    T_LAMBDA,
    FulcrumPresentation,
    as_entries,
    extend_lambda,
    standard_yd_data,
    validate_lambda,
)
from nclift.ncpoly import F2
from nclift.rackgroup import RackData, dihedral_rack
from nclift.rewrite import CONFLUENT


@pytest.fixture(scope="module")
def rack():
    """The transpositions (a b) of S_4, a < b, under conjugation."""
    transpositions = list(combinations(range(4), 2))

    def conjugate(t, u):
        swap = {t[0]: t[1], t[1]: t[0]}
        return tuple(sorted(swap.get(x, x) for x in u))

    return RackData(6, tuple(tuple(transpositions.index(conjugate(t, u)) for u in transpositions)
                             for t in transpositions))


def test_relation_orbits_are_squares_commutators_and_triangles(rack):
    sizes = Counter(len(rack.orbit(i, j)) for i, j in fk3.relation_orbit_reps(rack))
    assert sizes == {1: 6, 2: 3, 3: 8}
    pairs = [ab for i, j in fk3.relation_orbit_reps(rack) for ab in rack.orbit(i, j)]
    assert sorted(pairs) == list(product(range(6), repeat=2))


def test_the_orbit_relations_present_e4(rack):
    """The 17 orbit relations alone: the Fomin-Kirillov algebra E_4, of
    dimension 576 = 2^4 * 3^2 * 4 (Fomin & Kirillov 1999)."""
    report = fk3.nichols_report(rack)
    assert len(fk3.fk3_relations(rack)) == 17
    assert report.status == CONFLUENT and report.dimension() == 576


def test_the_bosonization_over_s4_has_dimension_13824(rack):
    report = fk3.bosonization_build(rack)
    assert standard_yd_data(rack).group.order == 24
    assert report.status == CONFLUENT
    assert len(report.system.rules()) == 693 and len(report.new_rules) == 8
    assert report.dimension() == 576 * 24 == 13824


def test_t_lambda_folds_over_the_racks_own_action(rack):
    """All-ones lambda over S_4: lambda(g, x_i) is the parity of g's word,
    the sign of g, both in the commutation rules and by ``extend_lambda``
    on every word of length at most 3.  Folding over the dihedral rack
    instead raised IndexError."""
    yd = standard_yd_data(rack)
    G = yd.group
    ones = validate_lambda([[1] * 6] * 6, rack=rack)
    assert ones.ok
    pres = FulcrumPresentation(T_LAMBDA, yd, ones.matrix)
    assert len(pres.relations) == 1 + 23 * 23 + 23 * 6 == 668
    commutations = pres.relations[1 + 23 * 23:]
    mismatches = 0
    for rel, (g, i) in zip(commutations, product(range(1, G.order), range(6))):
        assert rel.terms[(pres.group_ordinal(g), i)] == F2.one
        parity = len(G.words[g]) % 2
        mismatches += ((pres.group_ordinal(g),) in rel.terms) != parity
        mismatches += extend_lambda(ones.matrix, G.words[g], i) != parity
    assert mismatches == 0
    values: dict = {}
    for n in range(4):
        for word in product(range(6), repeat=n):
            g = G.element_of_word(word)
            for i in range(6):
                value = extend_lambda(ones.matrix, word, i)
                assert value == len(word) % 2 == values.setdefault((g, i), value)


def test_matrices_are_shaped_by_their_rack(rack):
    assert len(as_entries([[0] * 6] * 6, F2, rack)) == 6
    for m in ([[0] * 3] * 3, [[0] * 6] * 5, [[0] * 6] * 5 + [[0] * 5]):
        with pytest.raises(ValueError, match="expected a 6x6 matrix"):
            as_entries(m, F2, rack)


def test_a_presentation_refuses_lambda_of_another_rack(rack):
    with pytest.raises(ValueError, match="another rack"):
        FulcrumPresentation(BOSONIZATION, standard_yd_data(rack), fk3.zero_lambda())
    with pytest.raises(ValueError, match="another rack"):
        FulcrumPresentation(BOSONIZATION, standard_yd_data(dihedral_rack()),
                            fk3.zero_lambda(rack))
