"""Level-one affine root vectors E_{delta - alpha_i} as operator words.

Three sources, kept separate on purpose:

* ``leading_E`` -- the leading word with its scalar, valid as the full
  operator on the alpha_r-string span (every discarded tail word ends in
  a letter other than e_0 and e_r, so tails kill that span);
* ``full_E_typeA`` -- the complete free-word expression for family A,
  built by the rank recursion on bracket substitutions (no general braid
  automorphism is ever applied);
* ``hardcoded_full_E`` -- transcribed small-rank expressions used as
  independent cross-checks.

Operator comparisons are evaluation-based; see opalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeffring import Coefficient, LaurentPoly
from .latticemod import Element, get_module
from .opalg import CheckReport, OperatorExpr, evaluate, q_bracket
from .rootdata import AffineType


@dataclass(frozen=True)
class CatalogEntry:
    leading: OperatorExpr
    full: OperatorExpr | None
    provenance: str  # "leading-only" | "recursion" | "hardcoded" | "zero"


def _word(letters, qexp=0, sign=1):
    coeff = Coefficient.from_laurent(LaurentPoly.q_power(qexp, sign))
    return OperatorExpr.basis(tuple(letters), coeff)


def leading_E(t: AffineType, i: int) -> OperatorExpr:
    """The leading word of E_{delta - alpha_i} with its scalar.

    For i != r the operator annihilates the verified domain, so the zero
    operator is returned (valid there and nowhere else).
    """
    n, r = t.n, t.r
    if i != r:
        return OperatorExpr.zero()
    if t.family == "A":
        letters = list(range(r + 1, n + 1)) + list(range(r - 1, 0, -1)) + [0]
        return _word(letters, qexp=-(n - 1), sign=(-1) ** (n - 1))
    if r == 1:
        letters = list(range(2, n)) + [n] + list(range(n - 2, 1, -1)) + [0]
    else:
        second = [n - 1] if r == n else [n]
        letters = (list(range(n - 2, 0, -1)) + second
                   + list(range(n - 2, 1, -1)) + [0])
    return _word(letters, qexp=-2 * n + 4)


@lru_cache(maxsize=None)
def _x_expr(n: int, r: int) -> OperatorExpr:
    """The pre-relabeling expression in letters 1..n (family A)."""
    if r == 1:
        u = OperatorExpr.e(n)
        for k in range(n - 1, 0, -1):
            u = q_bracket(u, OperatorExpr.e(k))
        return u
    if r == n:
        u = OperatorExpr.e(1)
        for k in range(2, n + 1):
            u = q_bracket(u, OperatorExpr.e(k))
        return u
    table = {}
    for k in range(1, n):
        if k < n - r:
            table[k] = OperatorExpr.e(k)
        elif k == n - r:
            table[k] = q_bracket(OperatorExpr.e(n + 1 - r), OperatorExpr.e(n - r))
        else:
            table[k] = OperatorExpr.e(k + 1)
    return _x_expr(n - 1, r).substitute(table)


@lru_cache(maxsize=None)
def full_E_typeA(n: int, r: int) -> OperatorExpr:
    """The complete expression of E_{delta - alpha_r} for family A."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return _x_expr(n, r).relabel(lambda i: (i + r) % (n + 1))


class Unsupported(ValueError):
    pass


def hardcoded_full_E(t: AffineType) -> CatalogEntry:
    """Transcribed small-rank expressions (full words for A_3; leading
    words plus the tail-class marker for the small D cases).  Tail
    coefficients are never invented; only their vanishing on the
    alpha_r-string is used downstream."""
    qp = Coefficient.q_power
    e = OperatorExpr.basis
    key = (t.family, t.n, t.r)
    if key == ("A", 3, 1):
        full = (e((0, 3, 2)) + e((3, 0, 2), qp(-1) * -1)
                + e((2, 0, 3), qp(-1) * -1) + e((2, 3, 0), qp(-2)))
    elif key == ("A", 3, 2):
        full = (e((0, 1, 3)) + e((1, 0, 3), qp(-1) * -1)
                + e((3, 0, 1), qp(-1) * -1) + e((3, 1, 0), qp(-2)))
    elif key == ("A", 3, 3):
        full = (e((0, 1, 2)) + e((1, 0, 2), qp(-1) * -1)
                + e((2, 0, 1), qp(-1) * -1) + e((2, 1, 0), qp(-2)))
    elif key == ("D", 4, 1):
        return CatalogEntry(e((2, 3, 4, 2, 0), qp(-4)), None, "hardcoded")
    elif key == ("D", 4, 4):
        return CatalogEntry(e((2, 1, 3, 2, 0), qp(-4)), None, "hardcoded")
    elif key == ("D", 5, 5):
        return CatalogEntry(e((3, 2, 1, 4, 3, 2, 0), qp(-6)), None, "hardcoded")
    else:
        raise Unsupported(f"no hard-coded expression for {t}")
    return CatalogEntry(leading_E(t, t.r), full, "hardcoded")


def catalog_entry(t: AffineType, i: int) -> CatalogEntry:
    if i != t.r:
        return CatalogEntry(OperatorExpr.zero(), None, "zero")
    if t.family == "A":
        return CatalogEntry(leading_E(t, i), full_E_typeA(t.n, t.r), "recursion")
    return CatalogEntry(leading_E(t, i), None, "leading-only")


# ---------------------------------------------------------------------
# verified-domain checks
# ---------------------------------------------------------------------

def alpha_r_string(t: AffineType, m: int) -> Element:
    """The basis vector with multiplicity m at alpha_r."""
    mod = get_module(t)
    c = [0] * mod.nroots
    c[mod.alpha_r_idx] = m
    return Element.basis(tuple(c))


def string_coefficient(t: AffineType, v: Element, m: int) -> Coefficient:
    """The coefficient of the m-th alpha_r-string basis vector in v,
    converted to the f_r-power normalization: the lattice vector with
    multiplicity m at alpha_r equals q^{m(m-1)/2} f_r^m."""
    mod = get_module(t)
    c = [0] * mod.nroots
    c[mod.alpha_r_idx] = m
    coeff = v.terms.get(tuple(c))
    if coeff is None:
        return Coefficient.zero()
    if set(v.terms) != {tuple(c)}:
        raise ValueError("element is not a single string vector")
    return coeff * Coefficient.q_power(m * (m - 1) // 2)


def string_span_values(t: AffineType):
    """The two scalars (E.1 against f_r, E.f_r against f_r^2)."""
    n = t.n
    a = Coefficient.a_power(1)
    if t.family == "A":
        g1 = Coefficient.from_laurent(LaurentPoly.q_power(-(n - 1), (-1) ** (n - 1)))
        return g1 * a, g1 * Coefficient.q_power(2) * a
    return (Coefficient.q_power(-2 * n + 4) * a,
            Coefficient.q_power(-2 * n + 6) * a)


def verified_domain_check(t: AffineType) -> CheckReport:
    """Evaluate the catalog operator for i = r on the alpha_r-string and
    compare against the known scalars; for family A additionally check
    that the full and leading operators agree on that span."""
    entry = catalog_entry(t, t.r)
    v1, v2 = string_span_values(t)
    op = entry.full if entry.full is not None else entry.leading
    fails = []
    out0 = evaluate(op, t, alpha_r_string(t, 0))
    if string_coefficient(t, out0, 1) != v1:
        fails.append(f"E.1 = {out0}, expected {v1} * f_r")
    out1 = evaluate(op, t, alpha_r_string(t, 1))
    if string_coefficient(t, out1, 2) != v2:
        fails.append(f"E.f_r = {out1}, expected {v2} * f_r^2")
    if entry.full is not None:
        for m in range(3):
            v = alpha_r_string(t, m)
            if evaluate(entry.full, t, v) != evaluate(entry.leading, t, v):
                fails.append(f"full/leading disagree on string vector {m}")
    name = f"root-vector-domain-{t}"
    if fails:
        return CheckReport(name, False, "; ".join(fails))
    return CheckReport(name, True)
