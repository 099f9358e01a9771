"""Exhaustive enumeration of valid parameter pairs over GF(2), the
isomorphism relation between the resulting deformations, and table emission.

A pair is a 3x3 lambda matrix satisfying the cocycle constraints together
with a 3x3 mu matrix satisfying the orbit and joint constraints.  Two pairs
give isomorphic deformations exactly when a rack automorphism and three
shift scalars transform one into the other.  Each of the 48 candidates
carries a pair to exactly one image, so the witnesses are found by listing a
pair's images rather than by testing candidates against every other pair.
Isomorphisms form a groupoid, so a pair's images are its class: the partition
reads the classes off the images and checks that every member of a class has
the same images.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import product

from .rackgroup import dihedral_rack, rack_automorphisms
from .fulcrum import GX_MODE, ORBIT_TRIPLES, S3_MODE, validate_lambda
from .fk3 import matrix_from_bits, validate_mu

_AUTOS = tuple(rack_automorphisms(dihedral_rack()))


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


def _all_bits():
    return (format(n, "09b") for n in range(512))


def enumerate_pairs(mode: str = GX_MODE) -> list[PairRecord]:
    """Brute force over all 512 lambda and the mu that ``validate_mu`` can
    accept, deterministically ordered by (lambda bits, mu bits).

    Those mu are the 32 of the 512 constant on every orbit,
    mu_{i,j} = mu_{i|>j,i} = mu_{j,i|>j}, found once for all lambda."""
    if mode not in (GX_MODE, S3_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    orbit_constant = [b for b in _all_bits()
                      if all(b[3 * i + j] == b[3 * k + i] == b[3 * j + k]
                             for i, j, k in ORBIT_TRIPLES)]
    out: list[PairRecord] = []
    for lam_bits in _all_bits():
        check = validate_lambda(matrix_from_bits(lam_bits), mode)
        if not check.ok:
            continue
        for mu_bits in orbit_constant:
            if validate_mu(matrix_from_bits(mu_bits), check.matrix).ok:
                out.append(PairRecord(lam_bits, mu_bits, mode))
    return out


#: the shifts in search order
_SHIFTS = tuple(product((0, 1), repeat=3))


def _bits(m: list) -> str:
    return "".join(str(c) for row in m for c in row)


def _witness_images(p: PairRecord):
    """(witness, key) for every witness that p admits, in search order
    (automorphism, then shifts s0 s1 s2 counting up), where key is the
    (lambda, mu) bits of the pair it carries p to.

    The first two conditions of ``iso_related`` fix the image pair; a
    candidate whose image fails the third condition is skipped.
    """
    lp, mp = matrix_from_bits(p.lam_bits), matrix_from_bits(p.mu_bits)
    for a in _AUTOS:
        for s in _SHIFTS:
            lq = [[0] * 3 for _ in range(3)]
            mq = [[0] * 3 for _ in range(3)]
            for i, j, ij in ORBIT_TRIPLES:
                lq[a[i]][a[j]] = (lp[i][j] + s[ij] + s[j]) % 2
                mq[a[i]][a[j]] = (mp[i][j] + s[i] * s[j] + s[ij] * s[i] + s[j] * s[ij]) % 2
            if all((s[i] * lq[a[i]][a[j]] + s[ij] * lq[a[ij]][a[i]]
                    + s[j] * lq[a[j]][a[ij]]) % 2 == 0 for i, j, ij in ORBIT_TRIPLES):
                yield IsoWitness(a, s), (_bits(lq), _bits(mq))


def iso_related(p: PairRecord, q: PairRecord) -> IsoWitness | None:
    """First witness (automorphism, shifts) mapping p to q, or None.

    The three conditions, with phi the automorphism, s the shifts and the
    scale pinned to 1 over GF(2):
      q.lambda[phi(i),phi(j)] = p.lambda[i,j] + s[i|>j] + s[j]
      q.mu[phi(i),phi(j)]     = p.mu[i,j] + s[i]s[j] + s[i|>j]s[i] + s[j]s[i|>j]
      0 = s[i] q.lambda[phi(i),phi(j)] + s[i|>j] q.lambda[phi(i|>j),phi(i)]
            + s[j] q.lambda[phi(j),phi(i|>j)]
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
