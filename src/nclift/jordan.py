"""The characteristic-zero example over the infinite cyclic group.

Two module generators x1, x2 and two group letters g, G (the inverse) over
the rationals, with three flavors: the plain bosonization of the Jordan
plane, the deformed quotient whose commutation correction lands in the group
algebra, and its primed companion with scalar corrections.  The inverse-letter
commutation rules are derived by solving the action equation rather than
entered by hand, confluence is certified with zero new rules (the PBW
property), and the two coactions are checked to annihilate every defining
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import Alphabet, NcPoly, QQ
from .rewrite import CONFLUENT, Presentation, count_irreducible
from .fulcrum import letter_images, unannihilated_relations

BOSONIZATION = "bosonization"
U_JORDAN = "u_jordan"
U_PRIME = "u_prime"
FLAVORS = (BOSONIZATION, U_JORDAN, U_PRIME)

# ordinals in every flavor's alphabet
X1, X2, POS, NEG = 0, 1, 2, 3
#: both module letters have degree g
DEGREES = ((POS,), (POS,))


def jordan_alphabet(flavor: str) -> Alphabet:
    prefix = "y" if flavor == U_PRIME else "x"
    return Alphabet.from_parts([f"{prefix}1", f"{prefix}2"], ["g", "G"])


def _action_data(flavor: str):
    """Module matrix and group-algebra parts of the generator action.

    ``matrix[i][j]`` is the coefficient of x_{j+1} in g . x_{i+1}; ``hpart[i]``
    is the group-algebra component as {word: coefficient} over the letters
    g, G.  The adjoint action of the abelian group on its group algebra is
    trivial, which is what makes the inverse action solvable below.
    """
    one = Fraction(1)
    matrix = ((one, Fraction(0)), (one, one))
    if flavor == BOSONIZATION:
        hpart = ({}, {})
    elif flavor == U_JORDAN:
        hpart = ({(): one, (POS,): -one}, {})
    elif flavor == U_PRIME:
        hpart = ({(): one}, {})
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return matrix, hpart


def _inverse_action(matrix, hpart):
    """Solve g . (G . x) = x for the inverse-letter action.

    With B the inverse of the 2x2 module matrix, the group-algebra part of
    G . x_i is forced to -(B h)_i."""
    (a, b), (c, d) = matrix
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    kpart = []
    for i in range(2):
        acc: dict = {}
        for j in range(2):
            QQ.add_scaled(acc, hpart[j], -inv[i][j])
        kpart.append(acc)
    return inv, tuple(kpart)


def build_jordan(flavor: str, max_len: int) -> Presentation:
    """Assemble one flavor as a presentation over the rationals, with a
    degree cap that covers words up to ``max_len``.

    The module-degree-refined order is required here: the deformed
    commutation tails carry the group word g g, which plain deglex would rank
    above the lead g x1."""
    alpha = jordan_alphabet(flavor)
    matrix, hpart = _action_data(flavor)
    inv, kpart = _inverse_action(matrix, hpart)
    one = Fraction(1)
    half = Fraction(1, 2)

    def poly(items):
        return NcPoly.from_terms(alpha, QQ, items)

    rels = [
        poly([((POS, NEG), one), ((), -one)]),
        poly([((NEG, POS), one), ((), -one)]),
    ]
    for letter, mat, hp in ((POS, matrix, hpart), (NEG, inv, kpart)):
        for i in range(2):
            items = [((letter, i), one)]
            for j in range(2):
                if mat[i][j]:
                    items.append(((j, letter), -mat[i][j]))
            for w, coeff in hp[i].items():
                items.append((w + (letter,), -coeff))
            rels.append(poly(items))
    quad = [((X1, X2), one), ((X2, X1), -one), ((X1, X1), -half)]
    if flavor in (U_JORDAN, U_PRIME):
        quad += [((X2,), one), ((X1,), half)]
    rels.append(poly(quad))

    return Presentation(alpha, QQ, rels, max(max_len, 4), "xdeglex", name=flavor)


def pbw_expected_count(length: int) -> int:
    """Count of words x1^a x2^b h with a + b + |h| = length, h a power of one
    group letter.  Summing weight 1 for the empty group part and 2 otherwise
    over a + b = length - m gives (length+1) + length(length+1) = (length+1)^2.
    """
    return (length + 1) + 2 * (length * (length + 1) // 2)


@dataclass
class PbwReport:
    flavor: str
    status: str
    new_rule_count: int
    per_length: list
    expected: list
    total: int
    ok: bool


def verify_pbw(pres: Presentation, max_len: int) -> PbwReport:
    """Complete the presentation and compare irreducible-word counts per
    length up to ``max_len`` with the closed formula; zero new rules is part
    of the contract."""
    report = pres.complete()
    counts = count_irreducible(report.system, max_len) \
        if report.status == CONFLUENT else None
    per_length = counts.per_length if counts else []
    expected = [pbw_expected_count(l) for l in range(max_len + 1)]
    ok = (report.status == CONFLUENT and not report.new_rules
          and per_length == expected)
    return PbwReport(pres.name, report.status, len(report.new_rules),
                     per_length, expected, sum(per_length), ok)


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------

@dataclass
class JordanCoactionReport:
    max_len: int
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def jordan_coactions(max_len: int = 6) -> JordanCoactionReport:
    """Check that both coactions annihilate every defining relation of the
    primed flavor, in the reduced tensor targets."""
    prime = build_jordan(U_PRIME, max_len)
    deformed = build_jordan(U_JORDAN, max_len)
    bos = build_jordan(BOSONIZATION, max_len)
    for pres in (prime, deformed, bos):
        if pres.complete().status != CONFLUENT:
            raise RuntimeError(f"{pres.name} did not complete")
    failures = []
    for side, left, right in (("rho_r", prime, bos), ("rho_l", deformed, prime)):
        left_sys, right_sys = left.complete().system, right.complete().system
        imgs = letter_images(left.alphabet, right.alphabet, QQ, DEGREES)
        failures += [(side, str(rel)) for rel in
                     unannihilated_relations(prime.relations, imgs, left_sys, right_sys)]
    return JordanCoactionReport(max_len, len(prime.relations), failures)
