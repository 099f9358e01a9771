"""Known answers the benchmark checks nclift's outputs against.

Every constant here is written out by hand from the source paper or from
Fomin & Kirillov (1999); none is computed by nclift.  The two parameter
conditions are transcribed from the paper's definitions, so that the census
can tell valid from invalid (lambda, mu) without asking the code under test.
Tests replace single values here to show that a wrong answer is reported as
a failure.
"""

# --- characteristic 2: the paper's classification and certificates --------

PAIR_COUNT = 32
CLASS_COUNT = 10
QUOTIENT_DIM = 72
GALOIS_RANK = 72 * 72          # 5184, both Galois maps bijective

# --- the mu census ---------------------------------------------------------

# a valid mu gives 72-dimensional L and A; an invalid mu collapses A to zero
# and leaves L either blind to the failure (72) or degenerate (4)
CENSUS_INVALID_L_DIMS = (4, 72)
CENSUS_INVALID_A_DIM = 0

# --- Fomin-Kirillov algebras -----------------------------------------------

# Hilbert series of E_4: [2]^2 [3]^2 [4]^2 (Fomin & Kirillov 1999)
E4_PER_LENGTH = [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
E4_TOTAL = 576
E5_TOTAL = 8_294_400
# the top degree of E_5's Hilbert series; counting one past it shows finiteness
E5_TOP_DEGREE = 40

# --- characteristic 0: the Jordan example ----------------------------------

# (l+1)^2 irreducible words of each length l <= 6, zero new rules
JORDAN_PER_LENGTH = [1, 4, 9, 16, 25, 36, 49]


# --- parameter conditions over GF(2), on the rack (Z_3, i|>j = 2i - j) ------

def rhd(i: int, j: int) -> int:
    return (2 * i - j) % 3


def bits_matrix(bits: str) -> list:
    return [[int(bits[3 * r + c]) for c in range(3)] for r in range(3)]


def lambda_ok(bits: str) -> bool:
    """lambda_{i,j|>k} + lambda_{j,k} = lambda_{i|>j,i|>k} + lambda_{i,k} for
    all i, j, k (the cocycle condition over the enveloping group)."""
    e = bits_matrix(bits)
    return all(
        (e[i][rhd(j, k)] + e[j][k]) % 2 == (e[rhd(i, j)][rhd(i, k)] + e[i][k]) % 2
        for i in range(3) for j in range(3) for k in range(3))


def mu_ok(lam_bits: str, mu_bits: str) -> bool:
    """mu is constant on the orbits (i,j) ~ (i|>j,i) ~ (j,i|>j) and meets the
    joint condition with lambda at all 27 index triples."""
    lam, mu = bits_matrix(lam_bits), bits_matrix(mu_bits)
    for i in range(3):
        for j in range(3):
            k = rhd(i, j)
            if not mu[i][j] == mu[k][i] == mu[j][k]:
                return False
    for i in range(3):
        for j in range(3):
            ij = rhd(i, j)
            for k in range(3):
                lhs = mu[i][j] + mu[rhd(k, i)][rhd(k, j)]
                rhs = (lam[k][i] * (lam[k][ij] + lam[i][j])
                       + lam[k][j] * (lam[k][i] + lam[j][ij])
                       + lam[k][ij] * (lam[k][j] + lam[ij][i]))
                if lhs % 2 != rhs % 2:
                    return False
    return True


ALL_BITS = tuple(format(n, "09b") for n in range(512))
VALID_LAMBDAS = tuple(b for b in ALL_BITS if lambda_ok(b))
VALID_PAIRS = frozenset((lam, mu) for lam in VALID_LAMBDAS for mu in ALL_BITS
                        if mu_ok(lam, mu))
