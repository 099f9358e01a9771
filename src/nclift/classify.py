"""Exhaustive enumeration of valid parameter pairs over GF(2), the
isomorphism relation between the resulting deformations, and table emission.

A pair is a 3x3 lambda matrix satisfying the cocycle constraints together
with a 3x3 mu matrix satisfying the orbit and joint constraints.  Two pairs
give isomorphic deformations exactly when a rack automorphism and three
shift scalars transform one into the other.  Over GF(2) the lambda
conditions and, for fixed shifts, the witness conditions are linear in the
9 entries, so a matrix is read as the int of its bit string and tested
against parity masks read off the rack: all 512 lambda are screened that way
before ``validate_lambda`` sees them.  Each of the 48 candidates carries a
pair to exactly one image, so the witnesses are found by listing a pair's
images rather than by testing candidates against every other pair.
Isomorphisms form a groupoid, so a pair's images are its class: the partition
reads the classes off the images and checks that every member of a class has
the same images.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .rackgroup import dihedral_rack, rack_automorphisms
from .fulcrum import GX_MODE, S3_MODE, validate_lambda
from .fk3 import all_bits, matrix_from_bits, pair_orbits, validate_mu


@dataclass
class PairRecord:
    lam_bits: str
    mu_bits: str
    mode: str
    class_id: int | None = None

    @property
    def key(self) -> tuple:
        return (self.lam_bits, self.mu_bits)


@dataclass(frozen=True)
class IsoWitness:
    """A rack automorphism and shift scalars carrying one pair to another.

    Over GF(2) the overall scale is forced to 1, so a witness is the
    permutation, as the tuple of images of 0, 1, 2, plus the triple
    (shift_0, shift_1, shift_2)."""

    auto: tuple
    shifts: tuple


# A matrix is the int of its bit string (see ``fk3.all_bits``).  A linear
# condition on the entries is then a parity mask: it holds when the int has
# an even number of bits in the mask.

def _bit(n: int, i: int, j: int) -> int:
    return 1 << (n * (n - i) - 1 - j)


def _masks(n: int, conditions) -> tuple:
    """The distinct nonzero parity masks of ``conditions``, each a sequence
    of entries (i, j) whose sum must be 0; a repeated entry cancels."""
    out: list = []
    for entries in conditions:
        mask = 0
        for i, j in entries:
            mask ^= _bit(n, i, j)
        if mask and mask not in out:
            out.append(mask)
    return tuple(out)


def _even(n: int, masks: tuple) -> bool:
    """Whether n meets every parity mask in ``masks``."""
    return not any((n & m).bit_count() & 1 for m in masks)


@lru_cache(maxsize=None)
def _lambda_masks(mode: str) -> tuple:
    """The parity masks of ``validate_lambda``'s conditions in ``mode``."""
    rack = dihedral_rack()
    n, act = rack.size, rack.act
    masks = _masks(n, (((i, act(j, k)), (j, k), (act(i, j), act(i, k)), (i, k))
                       for i, j, k in product(range(n), repeat=3)))
    if mode == S3_MODE:
        masks += _masks(n, (((i, j), (i, act(i, j))) for i, j in product(range(n), repeat=2)))
    return masks


def enumerate_pairs(mode: str = GX_MODE) -> list[PairRecord]:
    """Every valid pair, deterministically ordered by (lambda bits, mu bits).

    All 512 lambda are tested, each as a 9-bit int against the parity masks
    of ``validate_lambda``'s conditions in ``mode``; ``validate_lambda``
    then builds the matrix of each lambda that passes, and stays the one
    judge of validity.  The mu that ``validate_mu`` is asked about are the
    32 of the 512 constant on every orbit, mu_{i,j} = mu_{i|>j,i} =
    mu_{j,i|>j}, found once for all lambda by the parity masks of each pair
    and the next pair of its orbit."""
    if mode not in (GX_MODE, S3_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    rack = dihedral_rack()
    orbit_masks = _masks(rack.size, ((ij, orbit[1 % len(orbit)])
                                     for ij, orbit in pair_orbits(rack)))
    orbit_constant = [(b, matrix_from_bits(b)) for n, b in enumerate(all_bits())
                      if _even(n, orbit_masks)]
    lambda_masks = _lambda_masks(mode)
    out: list[PairRecord] = []
    for n, lam_bits in enumerate(all_bits()):
        if not _even(n, lambda_masks):
            continue
        check = validate_lambda(matrix_from_bits(lam_bits), mode)
        if not check.ok:
            continue
        for mu_bits, mu in orbit_constant:
            if validate_mu(mu, check.matrix).ok:
                out.append(PairRecord(lam_bits, mu_bits, mode))
    return out


@lru_cache(maxsize=None)
def _witness_table() -> tuple:
    """The format of a key's bit strings, then per automorphism phi in search
    order: the moves (bit of (i, j), bit of (phi(i), phi(j))) of its
    permutation of the entries, and per shift s in search order the witness,
    the XOR masks that the first two conditions of ``iso_related`` add to the
    permuted lambda and mu, and the parity masks of the third condition on
    the image lambda.  Read off the dihedral rack on first use."""
    rack = dihedral_rack()
    n, act, orbits = rack.size, rack.act, pair_orbits(rack)
    table = []
    for a in rack_automorphisms(rack):
        moves = tuple((_bit(n, i, j), _bit(n, a[i], a[j])) for (i, j), _ in orbits)
        candidates = []
        for s in product((0, 1), repeat=n):
            lam_x = mu_x = 0
            for (i, j), orbit in orbits:
                if (s[act(i, j)] + s[j]) % 2:
                    lam_x ^= _bit(n, a[i], a[j])
                if sum(s[c] * s[d] for c, d in orbit) % 2:
                    mu_x ^= _bit(n, a[i], a[j])
            third = _masks(n, ([(a[c], a[d]) for c, d in orbit if s[c]] for _, orbit in orbits))
            candidates.append((IsoWitness(a, s), lam_x, mu_x, third))
        table.append((moves, tuple(candidates)))
    return f"0{n * n}b", tuple(table)


def _witness_images(p: PairRecord):
    """(witness, key) for every witness that p admits, in search order
    (automorphism, then shifts s0 s1 s2 counting up), where key is the
    (lambda, mu) bits of the pair it carries p to.

    p's lambda and mu are permuted once per automorphism; each shift then
    fixes the image pair by the XOR masks of the first two conditions of
    ``iso_related``, and a candidate whose image lambda fails a parity mask
    of the third condition is skipped.
    """
    lam, mu = int(p.lam_bits, 2), int(p.mu_bits, 2)
    spec, table = _witness_table()
    for moves, candidates in table:
        lam_a = mu_a = 0
        for src, dst in moves:
            if lam & src:
                lam_a |= dst
            if mu & src:
                mu_a |= dst
        for witness, lam_x, mu_x, third in candidates:
            lq = lam_a ^ lam_x
            if _even(lq, third):
                yield witness, (format(lq, spec), format(mu_a ^ mu_x, spec))


def iso_related(p: PairRecord, q: PairRecord) -> IsoWitness | None:
    """First witness (automorphism, shifts) mapping p to q, or None.

    The three conditions, with phi the automorphism, s the shifts, the
    scale pinned to 1 over GF(2), and O the orbit of (i, j):
      q.lambda[phi(i),phi(j)] = p.lambda[i,j] + s[i|>j] + s[j]
      q.mu[phi(i),phi(j)]     = p.mu[i,j] + sum over (a, b) in O of s[a]s[b]
      0 = sum over (a, b) in O of s[a] q.lambda[phi(a),phi(b)]
    """
    if p.mode != q.mode:
        raise ValueError("pairs from different modes")
    return next((w for w, key in _witness_images(p) if key == q.key), None)


def partition_classes(pairs: list[PairRecord]) -> list[list[PairRecord]]:
    """The isomorphism classes of ``pairs``: the class of p is p with those
    of its witness images that are in ``pairs``.  Isomorphisms form a
    groupoid, so every member must have the same set; one that does not (a
    wrong witness condition) or a repeated (lambda, mu) key is a ValueError.
    Members are sorted by key, classes by descending size, then smallest key;
    class ids follow that order, whatever the input order of ``pairs``.
    """
    if len({p.mode for p in pairs}) > 1:
        raise ValueError("pairs from different modes")
    by_key: dict = {}
    for p in pairs:
        if p.key in by_key:
            raise ValueError(f"pair {p.key} is listed twice")
        by_key[p.key] = p
    orbits = {key: frozenset([key, *(k for _, k in _witness_images(p) if k in by_key)])
              for key, p in by_key.items()}
    classes = []
    for key in sorted(by_key):
        orbit = orbits[key]
        for k in sorted(orbit):
            if orbits[k] != orbit:
                raise ValueError(f"the witness images of pair {key} and of pair {k} "
                                 "are not one isomorphism class")
        if key == min(orbit):
            classes.append([by_key[k] for k in sorted(orbit)])
    classes.sort(key=lambda c: (-len(c), c[0].key))
    for cid, cls in enumerate(classes):
        for rec in cls:
            rec.class_id = cid
    return classes


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

JSON_FORMAT, CSV_FORMAT, MARKDOWN_FORMAT = "json", "csv", "md"


def _row(rec: PairRecord, certificates: dict | None) -> dict:
    row = {
        "lambda": rec.lam_bits,
        "mu": rec.mu_bits,
        "class": rec.class_id,
        "dim": None,
        "galois_r": None,
        "galois_l": None,
    }
    cert = (certificates or {}).get(rec.key)
    if cert is not None:
        row["dim"] = cert.get("dim_lifting")
        gal = cert.get("galois")
        if gal:
            row["galois_r"] = gal.get("rank_right")
            row["galois_l"] = gal.get("rank_left")
    return row


def emit_table(classes: list[list[PairRecord]], fmt: str = JSON_FORMAT,
               mode: str = GX_MODE, certificates: dict | None = None) -> str:
    """Render the classification, one row per pair, grouped by class."""
    rows = [_row(rec, certificates) for cls in classes for rec in cls]
    if fmt == JSON_FORMAT:
        doc = {
            "schema": 1,
            "group": mode,
            "pair_count": len(rows),
            "class_count": len(classes),
            "class_sizes": sorted((len(c) for c in classes), reverse=True),
            "pairs": rows,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    header = ["lambda", "mu", "class", "dim", "galois_r", "galois_l"]
    # one cell list per row, empty where a value is unknown
    cells = [["" if row[key] is None else row[key] for key in header] for row in rows]
    if fmt == CSV_FORMAT:
        import csv      # here, so that importing the CLI never loads it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    if fmt == MARKDOWN_FORMAT:
        lines = [header, ["---"] * len(header)] + cells
        return "".join("| " + " | ".join(map(str, line)) + " |\n" for line in lines)
    raise ValueError(f"unsupported format {fmt!r}")
