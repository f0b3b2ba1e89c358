"""Rank-one laboratory and the alpha_r-string recurrence engine.

Rank one (n = 1) carries both module structures in full: the raising
model multiplies by the loop generator on the right with a weight
q-power, the lowering model multiplies on the left with no q-power.
In higher rank the lowering-model module is not constructed here; only
its alpha_r-string consequences are, with the two level-one scalars
taken as quoted input data.  Reports therefore
label lowering-model results as conditional on that base data, except
at rank one where everything closes unconditionally.

Basis vectors are powers f^m of the node-r lowering generator, with
e_r f^m = q^{-m+1} [m]_q f^{m-1} and k_r f^m = q^{-2m} f^m; this uses
only the alpha_r-pairing and is valid in every rank.
"""

from __future__ import annotations

from .coeffring import (Coefficient, LaurentPoly, exact_divide, q_integer)
from .drinfeld import DomainViolation, EllWeight, NotEigenvector, c_r
from .opalg import CheckReport
from .rootdata import AffineType, o_sign

_QMQ = LaurentPoly({1: 1, -1: -1})  # q - q^{-1}


class StringElement:
    """Finite Coefficient-linear combination of powers f^m."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def zero():
        return StringElement()

    @staticmethod
    def power(m, coeff=None):
        return StringElement({m: coeff if coeff is not None else Coefficient.one()})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Coefficient.zero()) + c
        return StringElement(terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Coefficient.zero()) - c
        return StringElement(terms)

    def scale(self, coeff):
        if isinstance(coeff, (int, LaurentPoly)):
            coeff = coeff * Coefficient.one()
        return StringElement({m: coeff * c for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, StringElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def coefficient(self, m):
        return self.terms.get(m, Coefficient.zero())

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({c}) * f^{m}" for m, c in sorted(self.terms.items()))

    __repr__ = __str__


def _e_lower(v: StringElement) -> StringElement:
    """e_r on powers: f^m -> q^{-m+1} [m]_q f^{m-1}."""
    terms = {}
    for m, c in v.terms.items():
        if m == 0:
            continue
        terms[m - 1] = terms.get(m - 1, Coefficient.zero()) + c * Coefficient.from_laurent(
            LaurentPoly.q_power(-m + 1) * q_integer(m))
    return StringElement(terms)


def rank_one_apply(op: str, model: str, v: StringElement) -> StringElement:
    """Generators of the rank-one module; model is 'pos' or 'neg'."""
    if model not in ("pos", "neg"):
        raise ValueError("model must be pos or neg")
    if op == "e1":
        return _e_lower(v)
    if op == "e0":
        a = Coefficient.a_power(1)
        terms = {}
        for m, c in v.terms.items():
            factor = a * Coefficient.q_power(2 * m) if model == "pos" else a
            terms[m + 1] = terms.get(m + 1, Coefficient.zero()) + c * factor
        return StringElement(terms)
    if op in ("k1", "k0"):
        sign = -1 if op == "k1" else 1
        return StringElement({m: c * Coefficient.q_power(sign * 2 * m)
                              for m, c in v.terms.items()})
    raise ValueError(f"unknown generator {op!r}")


def _compose(ops, model, v):
    for op in reversed(ops):
        v = rank_one_apply(op, model, v)
    return v


def rank_one_serre_check(M: int = 20) -> CheckReport:
    """Quartic Serre relations on f^m (m <= M) in both models, plus the
    eight intermediate three-letter expansions checked line by line."""
    lines = []
    ok = True
    three = Coefficient.from_laurent(q_integer(3))

    def serre(i, j, model, v):
        ei, ej = f"e{i}", f"e{j}"
        return (_compose([ei, ei, ei, ej], model, v)
                - _compose([ei, ei, ej, ei], model, v).scale(three)
                + _compose([ei, ej, ei, ei], model, v).scale(three)
                - _compose([ej, ei, ei, ei], model, v))

    for model in ("pos", "neg"):
        bad = [m for m in range(M + 1)
               for (i, j) in ((0, 1), (1, 0))
               if not serre(i, j, model, StringElement.power(m)).is_zero()]
        ok &= not bad
        lines.append(CheckReport(f"rank1-serre-{model}", not bad,
                                 f"m <= {M}" if not bad else f"fails at {bad}").line())

    # the four raising-model expansion lines, on probes u = f^m:
    # coefficients in terms of s = t = -2m and e_1'(u) = q^{-m+1}[m]f^{m-1}
    def ap(d):  # a^3 q^d
        return Coefficient({3: LaurentPoly.q_power(d)})

    def eprime(m):
        return Coefficient.from_laurent(LaurentPoly.q_power(-m + 1) * q_integer(m))

    for m in range(6):
        s = t = -2 * m
        fm2 = lambda c: StringElement.power(m + 2, c)
        expansions_pos = [
            (["e0", "e0", "e0", "e1"], fm2(ap(-3 * s) * eprime(m))),
            (["e0", "e0", "e1", "e0"],
             fm2(ap(-3 * s + 2) * eprime(m) + ap(-3 * s + t + 2))),
            (["e0", "e1", "e0", "e0"],
             fm2(ap(-3 * s + 4) * eprime(m)
                 + ap(-3 * s + t + 2) * Coefficient.from_laurent(LaurentPoly({0: 1, 2: 1})))),
            (["e1", "e0", "e0", "e0"],
             fm2(ap(-3 * s + 6) * eprime(m)
                 + ap(-3 * s + t + 2) * Coefficient.from_laurent(LaurentPoly({0: 1, 2: 1, 4: 1})))),
        ]
        expansions_neg = [
            (["e0", "e0", "e0", "e1"], fm2(ap(0) * eprime(m))),
            (["e0", "e0", "e1", "e0"], fm2(ap(0) + ap(-2) * eprime(m))),
            (["e0", "e1", "e0", "e0"],
             fm2(ap(0) * Coefficient.from_laurent(LaurentPoly({-2: 1, 0: 1})) + ap(-4) * eprime(m))),
            (["e1", "e0", "e0", "e0"],
             fm2(ap(0) * Coefficient.from_laurent(LaurentPoly({-4: 1, -2: 1, 0: 1}))
                 + ap(-6) * eprime(m))),
        ]
        for model, expansions in (("pos", expansions_pos), ("neg", expansions_neg)):
            for ops, expected in expansions:
                got = _compose(ops, model, StringElement.power(m))
                if got != expected:
                    ok = False
                    lines.append(CheckReport(
                        f"rank1-expansion-{model}-{'.'.join(ops)}-m{m}", False,
                        f"got {got}, expected {expected}").line())
    lines.append(CheckReport("rank1-expansions", ok, "both models, m <= 5").line())

    # diagonal conjugation: k_j e_i = q^{a_ij} e_i k_j with a_01 = a_10 = -2,
    # checked through k_j e_i f^m = q^{a_ij} q^{wt exponent of f^m} e_i f^m
    conj_ok = True
    for model in ("pos", "neg"):
        for (kj, ei, aij) in (("k0", "e1", -2), ("k1", "e0", -2),
                              ("k0", "e0", 2), ("k1", "e1", 2)):
            for m in range(6):
                v = StringElement.power(m)
                lhs = rank_one_apply(kj, model, rank_one_apply(ei, model, v))
                rhs = rank_one_apply(ei, model, rank_one_apply(
                    kj, model, v)).scale(Coefficient.q_power(aij))
                if lhs != rhs:
                    conj_ok = False
    ok &= conj_ok
    lines.append(CheckReport("rank1-k-conjugation", conj_ok,
                             "both models, m <= 5").line())

    report = CheckReport("rank1-suite", ok)
    report.lines = lines
    return report


# ---------------------------------------------------------------------
# the general string recurrence
# ---------------------------------------------------------------------

def base_scalars(t: AffineType, model: str):
    """(E.1 scalar against f, E.f scalar against f^2) for E_{d-alpha_r}.

    Raising model: the two scalars independently re-derived on the
    lattice module in rootvec.  Lowering model: quoted input data.
    """
    n = t.n
    a = Coefficient.a_power(1)
    if t.family == "A":
        g = Coefficient.from_laurent(
            LaurentPoly.q_power(-(n - 1), (-1) ** (n - 1))) * a
        if model == "pos":
            return g, g * Coefficient.q_power(2)
        return g, g
    g = Coefficient.q_power(-2 * n + 4) * a
    if model == "pos":
        return g, Coefficient.q_power(-2 * n + 6) * a
    return g, g


class StringEngine:
    """E_{k delta - alpha_r} on span{1, f, f^2}, by the four-term step."""

    def __init__(self, t: AffineType, model: str):
        self.t = t
        self.model = model
        self.E1_0, self.E1_1 = base_scalars(t, model)
        self._cache = {}
        self._q2 = Coefficient.q_power(-2)
        self._two = q_integer(2)

    def _assert_closed(self, v: StringElement):
        if any(m > 2 for m in v.terms):
            raise DomainViolation("left span{1, f, f^2}")

    def E1(self, v: StringElement) -> StringElement:
        out = StringElement.zero()
        for m, c in v.terms.items():
            if m == 0:
                out = out + StringElement.power(1, c * self.E1_0)
            elif m == 1:
                out = out + StringElement.power(2, c * self.E1_1)
            else:
                raise DomainViolation("E_(delta-alpha_r) needed on f^2")
        return out

    def E(self, k: int, v: StringElement) -> StringElement:
        self._assert_closed(v)
        out = StringElement.zero()
        for m, c in v.terms.items():
            out = out + self._E_power(k, m).scale(c)
        return out

    def _E_power(self, k: int, m: int) -> StringElement:
        key = (k, m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        v = StringElement.power(m)
        if k == 1:
            out = self.E1(v)
        else:
            e = _e_lower
            four = (self.E1(e(self.E(k - 1, v)))
                    - e(self.E1(self.E(k - 1, v))).scale(self._q2)
                    - self.E(k - 1, self.E1(e(v)))
                    + self.E(k - 1, e(self.E1(v))).scale(self._q2))
            out = StringElement({mm: -exact_divide(c, self._two)
                                 for mm, c in four.terms.items()})
        self._assert_closed(out)
        self._cache[key] = out
        return out


def string_recurrence(t: AffineType, model: str, K: int):
    """The scalars gamma_k with E_{k delta - alpha_r}.1 = gamma_k f."""
    eng = StringEngine(t, model)
    out = []
    for k in range(1, K + 1):
        v = eng.E(k, StringElement.power(0))
        if not set(v.terms) <= {1}:
            raise AssertionError(f"E_{k}.1 is not a multiple of f: {v}")
        out.append(v.coefficient(1))
    return out


def negative_closed_form(t: AffineType, k: int) -> Coefficient:
    """The lowering-model scalar gamma_k in closed form."""
    n = t.n
    qmq_pow = Coefficient.from_laurent(_QMQ) ** (k - 1)
    a_k = Coefficient.a_power(k)
    if t.family == "A":
        sign = (-1) ** (k * n - 1)
        return (Coefficient.from_laurent(
            LaurentPoly.q_power(-k * (n + 1) + 2, sign)) * qmq_pow * a_k)
    sign = (-1) ** (k - 1)
    return (Coefficient.from_laurent(
        LaurentPoly.q_power(-2 * k * (n - 1) + 2, sign)) * qmq_pow * a_k)


def negative_ell_weight(t: AffineType, K: int) -> EllWeight:
    """psi+_{r,k}-eigenvalues of the vacuum in the lowering model,
    computed on the string span and matched to the geometric series."""
    eng = StringEngine(t, "neg")
    o = o_sign(t, t.r)
    qmq = Coefficient.from_laurent(_QMQ)
    one = StringElement.power(0)
    coeffs = [Coefficient.one()]
    for k in range(1, K + 1):
        w = eng.E(k, _e_lower(one)) - _e_lower(eng.E(k, one)).scale(eng._q2)
        # k_r is the identity on the vacuum (weight zero)
        w = w.scale(qmq * (o ** k))
        if set(w.terms) - {0}:
            raise NotEigenvector(f"psi+_{t.r},{k} not diagonal on vacuum", w)
        coeffs.append(w.coefficient(0))
    geometric = -(Coefficient.a_power(1) * c_r(t))
    power = Coefficient.one()
    for k in range(1, K + 1):
        power = power * geometric   # geometric ** k
        if coeffs[k] != power:
            raise AssertionError(
                f"psi_{t.r},{k} = {coeffs[k]} differs from geometric {power}")
    psi = {i: tuple([Coefficient.one()] + [Coefficient.zero()] * K)
           for i in range(1, t.n + 1)}
    psi[t.r] = tuple(coeffs)
    form = {i: "trivial" for i in psi}
    form[t.r] = "geometric"
    return EllWeight(psi, form)
