#!/usr/bin/env python3
"""Exhaustive census of what invalid mu matrices do to the two quotients.

For every valid lambda and every one of the 512 candidate mu, build both the
group-term quotient L and the constant-term quotient A over the order-6
group and tabulate (status, dimension).  The headline facts this reproduces:

  * invalid mu never zeroes L over the finite group: the quotient is either
    blind to the failure (dimension 72, when only diagonal entries are
    involved, since 1 + g_i^2 = 0 in characteristic 2) or degenerates to the
    4-dimensional algebra F2[x]/(x^2) (x) F2[Z2];
  * invalid mu always zeroes A, whose constant-term deformation sees every
    entry of mu.

Usage: python scripts/mu_collapse_census.py [--lambda BITS]

Exits 1, naming each fact that fails and for which lambda, when the census
contradicts one of these facts or valid mu does not give dimension 72 for
both quotients.
"""

import argparse
import sys
import time
from collections import Counter

from nclift import classify, fk3


def census(lam_bits: str) -> tuple[Counter, Counter]:
    lam = fk3.lambda_from_bits(lam_bits)
    res_l: Counter = Counter()
    res_a: Counter = Counter()
    for n in range(512):
        mu_bits = format(n, "09b")
        valid = fk3.validate_mu(fk3.matrix_from_bits(mu_bits), lam).ok
        mu = fk3.mu_unchecked(fk3.matrix_from_bits(mu_bits))
        L = fk3.build_lifting(lam, mu)
        A = fk3.build_cleft(lam, mu)
        res_l[(valid, L.status, L.dimension())] += 1
        res_a[(valid, A.status, A.dimension())] += 1
    return res_l, res_a


def failed_facts(res_l: Counter, res_a: Counter) -> list[str]:
    """The facts of the module docstring that a census contradicts."""
    out = []
    if any(valid and (status, dim) != (fk3.CONFLUENT, 72)
           for res in (res_l, res_a) for valid, status, dim in res):
        out.append("valid mu gives dimension 72 for both L and A")
    if any(not valid and dim == 0 for valid, _, dim in res_l):
        out.append("invalid mu never zeroes L")
    if any(not valid and dim != 0 for valid, _, dim in res_a):
        out.append("invalid mu always zeroes A")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--lambda", dest="lam", default=None,
                        help="restrict to one lambda bitstring")
    args = parser.parse_args()

    if args.lam:
        lambdas = [args.lam]
    else:
        lambdas = sorted({p.lam_bits for p in classify.enumerate_pairs("gx")})

    failures = []
    for lam_bits in lambdas:
        t0 = time.time()
        res_l, res_a = census(lam_bits)
        print(f"lambda {lam_bits}  [{time.time()-t0:.1f}s]")
        for label, res in (("L", res_l), ("A", res_a)):
            for (valid, status, dim), count in sorted(res.items()):
                tag = "valid" if valid else "invalid"
                print(f"  {label} {tag:7s} -> {status:18s} dim {dim}: {count}")
        failures += [f"lambda {lam_bits}: {fact}" for fact in failed_facts(res_l, res_a)]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
