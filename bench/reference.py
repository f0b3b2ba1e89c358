"""Reference values computed apart from qborel.

Nothing here imports the library.  The workloads compare the library's
outputs against these values, so a fault that the library shares
between its own routes still shows.
"""

from __future__ import annotations

from fractions import Fraction

# Heights of the roots of Delta^+(w_r), written out per type:
#   A_n, node r:  eps_i - eps_j for i <= r < j, height j - i;
#   D_n, node n:  eps_i + eps_j for i < j <= n, height 2n - i - j;
#   D_n, node 1:  eps_1 - eps_j (height j - 1) and eps_1 + eps_j
#                 (height 2n - 1 - j) for 2 <= j <= n.
ROOT_HEIGHTS = {
    "A2r1": (1, 2),
    "A3r2": (1, 2, 2, 3),
    "A5r3": (1, 2, 2, 3, 3, 3, 4, 4, 5),
    "A6r3": (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6),
    "D5r5": (1, 2, 3, 3, 4, 4, 5, 5, 6, 7),
    "D6r1": (1, 2, 3, 4, 5, 5, 6, 7, 8, 9),
}

# The two points at which exact coefficients are compared.
Q_POINTS = (Fraction(2), Fraction(3))


def graded_count(heights, h: int) -> int:
    """The coefficient sum of prod_beta (1 - x^{ht beta})^{-1} up to x^h:
    the number of multiplicity data of total height <= h."""
    coeffs = [1] + [0] * h
    for d in heights:
        for k in range(d, h + 1):
            coeffs[k] += coeffs[k - d]
    return sum(coeffs)


def laurent_at(terms: dict, q: Fraction) -> Fraction:
    """Value of sum_k c_k q^k, given the map k -> c_k."""
    return sum((c * q ** k for k, c in terms.items()), Fraction(0))


def a_monomial_at(a_terms: dict, degree: int, q: Fraction):
    """The q-value of the a^degree part of an element of Z[q^{+-1}][a],
    given as a map a-degree -> (map q-exponent -> int); None unless the
    element is exactly a multiple of a^degree."""
    if set(a_terms) != {degree}:
        return None
    return laurent_at(a_terms[degree], q)


def _o_sign(family: str, n: int, i: int) -> int:
    if family == "A" or i <= n - 1:
        return (-1) ** (i + 1)
    return (-1) ** n


def psi_one(family: str, n: int, r: int, q: Fraction) -> Fraction:
    """The q-part of psi_{r,1} = -a c_r, with the paper's shift scalar
    c_r = (q - q^{-1}) (-1)^{n+1} o(r) q^{-(n+1)} (type A) or
    c_r = (q - q^{-1}) o(r) q^{-2(n-1)} (type D)."""
    qmq = q - 1 / q
    o = _o_sign(family, n, r)
    if family == "A":
        c_r = qmq * (-1) ** (n + 1) * o * q ** (-(n + 1))
    else:
        c_r = qmq * o * q ** (-2 * (n - 1))
    return -c_r


def gamma(family: str, n: int, k: int, q: Fraction) -> Fraction:
    """The q-part of the lowering-model scalar gamma_k (a-degree k):
    (-1)^{kn-1} q^{-k(n+1)+2} (q - q^{-1})^{k-1} (type A) or
    (-1)^{k-1} q^{-2k(n-1)+2} (q - q^{-1})^{k-1} (type D)."""
    qmq = q - 1 / q
    if family == "A":
        return (-1) ** (k * n - 1) * q ** (-k * (n + 1) + 2) * qmq ** (k - 1)
    return (-1) ** (k - 1) * q ** (-2 * k * (n - 1) + 2) * qmq ** (k - 1)
