"""Level-one affine root vectors E_{delta - alpha_i} as operator words.

Both constructed operators come from one path: the letters p_1 ... p_k
that carry alpha_0 to delta - alpha_r one adjacent simple root at a time,
read off the stored root order for every family (``_path``).

* ``bracket_E`` -- the complete operator, the left-normed q-bracket
  [...[[e_0, e_{p_1}]_q, e_{p_2}]_q ...]_q (Beck's iterated brackets;
  no braid automorphism is ever applied);
* ``leading_E`` -- its leading word e_{p_k} ... e_{p_1} e_0 with its
  scalar (-q^{-1})^k, equal to the bracket on the alpha_r-string span
  (every other word of the bracket ends in a letter other than e_0
  and e_r, so it kills that span);
* ``hardcoded_full_E`` -- transcribed small-rank expressions used as
  independent cross-checks.

``bracket_E`` and ``leading_E`` are free-word references for checks
and tests: ``drinfeld.CurrentEngine`` applies the same bracket letter by
letter on the lattice module, in every family, without expanding its
2^k words.

Operator comparisons are evaluation-based; see opalg.
"""

from __future__ import annotations

from operator import ge, sub

from .coeffring import Coefficient, LaurentPoly
from .latticemod import Element, get_module
from .opalg import CheckReport, OperatorExpr, evaluate, q_bracket
from .rootdata import AffineType, dual_coxeter, positive_roots_wr, theta


def check_node(t: AffineType, i: int):
    """Reject a node outside 1..n with a ValueError."""
    if not 1 <= i <= t.n:
        raise ValueError(f"node {i} is outside 1..{t.n} for {t}")


def _path(t: AffineType):
    """The letters p_1 ... p_k of the path from alpha_0 to delta - alpha_r:
    alpha_{p_j} pairs to -1 with the running sum alpha_0 + alpha_{p_1}
    + ... + alpha_{p_{j-1}}, and the whole sum is delta - alpha_r.

    Read off the stored root order: from theta, each step goes to the
    earliest root of positive_roots_wr one simple root lower, and records
    that simple root, until it reaches alpha_r."""
    roots = positive_roots_wr(t)
    v, path = theta(t), []
    while sum(v) > 1:
        b = next(b for b in roots
                 if sum(b) == sum(v) - 1 and all(map(ge, v, b)))
        path.append(1 + list(map(sub, v, b)).index(1))
        v = b
    return tuple(path)


def leading_E(t: AffineType, i: int) -> OperatorExpr:
    """The leading word of E_{delta - alpha_i} with its scalar: the path
    read backwards, then e_0, with scalar (-q^{-1})^k.

    For i != r the operator annihilates the verified domain, so the zero
    operator is returned (valid there and nowhere else).
    """
    check_node(t, i)
    if i != t.r:
        return OperatorExpr.zero()
    path = _path(t)
    coeff = Coefficient.from_laurent(
        LaurentPoly.q_power(-len(path), (-1) ** len(path)))
    return OperatorExpr.basis(path[::-1] + (0,), coeff)


def bracket_E(t: AffineType) -> OperatorExpr:
    """The complete E_{delta - alpha_r} as the left-normed q-bracket
    [...[[e_0, e_{p_1}]_q, e_{p_2}]_q ...]_q along the path."""
    u = OperatorExpr.e(0)
    for p in _path(t):
        u = q_bracket(u, OperatorExpr.e(p))
    return u


class Unsupported(ValueError):
    pass


def hardcoded_full_E(t: AffineType) -> OperatorExpr:
    """Transcribed small-rank expressions: the full words for A_3, and
    for the small D cases the leading word only, which equals the
    complete operator on the alpha_r-string span and nowhere else.
    Tail coefficients are never invented."""
    qp = Coefficient.q_power
    e = OperatorExpr.basis
    key = (t.family, t.n, t.r)
    if key == ("A", 3, 1):
        return (e((0, 3, 2)) + e((3, 0, 2), qp(-1) * -1)
                + e((2, 0, 3), qp(-1) * -1) + e((2, 3, 0), qp(-2)))
    if key == ("A", 3, 2):
        return (e((0, 1, 3)) + e((1, 0, 3), qp(-1) * -1)
                + e((3, 0, 1), qp(-1) * -1) + e((3, 1, 0), qp(-2)))
    if key == ("A", 3, 3):
        return (e((0, 1, 2)) + e((1, 0, 2), qp(-1) * -1)
                + e((2, 0, 1), qp(-1) * -1) + e((2, 1, 0), qp(-2)))
    if key == ("D", 4, 1):
        return e((2, 3, 4, 2, 0), qp(-4))
    if key == ("D", 4, 4):
        return e((2, 1, 3, 2, 0), qp(-4))
    if key == ("D", 5, 5):
        return e((3, 2, 1, 4, 3, 2, 0), qp(-6))
    raise Unsupported(f"no hard-coded expression for {t}")


# ---------------------------------------------------------------------
# verified-domain checks
# ---------------------------------------------------------------------

def alpha_r_string(t: AffineType, m: int) -> Element:
    """The basis vector with multiplicity m at alpha_r."""
    mod = get_module(t)
    i = mod.alpha_r_idx
    return Element.basis(mod.vacuum[:i] + (m,) + mod.vacuum[i + 1:])


def string_coefficient(t: AffineType, v: Element, m: int) -> Coefficient:
    """The coefficient of v on the m-th alpha_r-string basis vector,
    converted to the f_r-power normalization: the lattice vector with
    multiplicity m at alpha_r equals q^{m(m-1)/2} f_r^m.  ValueError if v
    has a term anywhere else."""
    (c,) = alpha_r_string(t, m).terms
    if v.terms.keys() - {c}:
        raise ValueError("element is not a single string vector")
    return v.coefficient(c) * Coefficient.q_power(m * (m - 1) // 2)


def string_span_values(t: AffineType):
    """The two scalars (E.1 against f_r, E.f_r against f_r^2):
    (-1)^h q^{-(h-2)} a and (-1)^h q^{-(h-4)} a, h the dual Coxeter
    number."""
    h = dual_coxeter(t)
    return tuple(Coefficient.from_laurent(LaurentPoly.q_power(e, (-1) ** h), 1)
                 for e in (2 - h, 4 - h))


def verified_domain_check(t: AffineType) -> CheckReport:
    """Evaluate ``bracket_E`` on the alpha_r-string: against the known
    scalars on 1 and f_r, and against ``leading_E`` on the first three
    string vectors."""
    full, lead = bracket_E(t), leading_E(t, t.r)
    v1, v2 = string_span_values(t)
    fails = []
    outs = [evaluate(full, t, alpha_r_string(t, m)) for m in range(3)]
    for m, want, name in ((1, v1, "E.1"), (2, v2, "E.f_r")):
        try:
            ok = string_coefficient(t, outs[m - 1], m) == want
        except ValueError:   # a term off the string
            ok = False
        if not ok:
            fails.append(f"{name} = {outs[m - 1]}, expected {want} * f_r"
                         + "^2" * (m - 1))
    for m, out in enumerate(outs):
        if out != evaluate(lead, t, alpha_r_string(t, m)):
            fails.append(f"full/leading disagree on string vector {m}")
    return CheckReport(f"root-vector-domain-{t}", not fails, "; ".join(fails))
