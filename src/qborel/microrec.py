"""Rank-one laboratory and the alpha_r-string inputs of both models.

Rank one (n = 1) carries both module structures in full: the raising
model multiplies by the loop generator on the right with a weight
q-power, the lowering model multiplies on the left with no q-power.
In higher rank the lowering-model module is not constructed here; only
its alpha_r-string consequences are, with the level-one scalar on 1 and
on f taken as quoted input data.  So every lowering-model result above
rank one rests on that base data, and only at rank one does everything
close unconditionally.  No report says so: ``lweight --model neg`` and
``recurrence --model neg`` print no such label.

Basis vectors are powers f^m of the node-r lowering generator, with
e_r f^m = q^{-m+1} [m]_q f^{m-1} and k_r f^m = q^{-2m} f^m; this uses
only the alpha_r-pairing and is valid in every rank.  ``_run_word``
applies the rank-one letters to term maps on the powers, and
``rank_one_serre_check`` runs opalg's relations on it through
``opalg.run_expression``, each report line from its own results.
``string_recurrence`` and ``negative_ell_weight`` take gamma_k =
gamma_1 rho^{k-1} from ``drinfeld.string_closure``; the model chooses
only its inputs: in the raising model ``CurrentEngine``'s E_{d-a_r} and
e_r on the lattice module, in the lowering one the quoted scalar on 1
and f and e_r as a one-letter ``_run_word`` call.  A string vector, like
a module element, is a ``GradedCombination``: one a-degree and
coefficients in ``LaurentPoly``.  The scalars that leave this module
(``string_recurrence``, ``negative_ell_weight``) are full
``Coefficient``s.
"""

from __future__ import annotations

from functools import partial

from .coeffring import Coefficient, GradedCombination, LaurentPoly, q_integer
from .drinfeld import (_QMQ, QMQ, CurrentEngine, EllWeight, c_r,
                       psi_bracket, string_closure, vacuum_eigenvalue)
from .latticemod import letter_str
from .opalg import (CheckReport, OperatorExpr, k_e_conjugation_expr,
                    run_expression, serre_expr)
from .rootdata import AffineType, dual_coxeter, o_sign
from .rootvec import alpha_r_string, string_span_values


class StringElement(GradedCombination):
    """Finite linear combination of powers f^m, a-homogeneous."""

    __slots__ = ()

    @staticmethod
    def _label(m):
        return f"f^{m}"


def _run_word(model, word, terms):
    """The twin of ``LatticeModule._run_word`` on the powers f^m, the
    factor a of e_0 left to the caller: e_0 f^m is q^{2m} f^{m+1} in the
    raising model and f^{m+1} in the lowering one, k_0 is k_1^{-1}, and
    no letter sends two powers to one, so no step sums."""
    for x in word:
        if x == 1:
            terms = {m - 1: c * q_integer(m, 1 - m)
                     for m, c in terms.items() if m}
        elif x == 0:
            terms = {m + 1: c.shift(2 * m) if model == "pos" else c
                     for m, c in terms.items()}
        else:
            s = 2 * x[2] if x[1] == 0 else -2 * x[2]
            terms = {m: c.shift(s * m) for m, c in terms.items()}
    return terms


def rank_one_serre_check(M: int = 20) -> CheckReport:
    """Quartic Serre relations on f^m (m <= M) in both models, plus the
    eight intermediate three-letter expansions checked line by line, and
    the k-conjugations."""
    if M < 0:
        raise ValueError("M must be >= 0")
    a1 = AffineType("A", 1, 1)
    reports = []

    def run(x, model, m):
        return run_expression(x, lambda w, terms: _run_word(model, w, terms),
                              StringElement.basis(m))

    serres = [serre_expr(i, j, a1) for i, j in ((0, 1), (1, 0))]
    for model in ("pos", "neg"):
        bad = [m for m in range(M + 1)
               if any(run(x, model, m) for x in serres)]
        reports.append(CheckReport(f"rank1-serre-{model}", not bad,
                                   f"fails at {bad}" if bad else f"m <= {M}"))

    # the four raising-model expansion lines, on probes u = f^m:
    # coefficients in terms of s = t = -2m and e_1'(u) = q^{-m+1}[m]f^{m-1}
    def ap(d):  # a^3 q^d
        return Coefficient.from_laurent(LaurentPoly.q_power(d), 3)

    def eprime(m):
        return Coefficient.from_laurent(LaurentPoly.q_power(-m + 1) * q_integer(m))

    expansions_ok = True
    for m in range(6):
        s = t = -2 * m
        fm2 = lambda c: StringElement.basis(m + 2, c)
        expansions_pos = [
            ((0, 0, 0, 1), fm2(ap(-3 * s) * eprime(m))),
            ((0, 0, 1, 0), fm2(ap(-3 * s + 2) * eprime(m) + ap(-3 * s + t + 2))),
            ((0, 1, 0, 0),
             fm2(ap(-3 * s + 4) * eprime(m)
                 + ap(-3 * s + t + 2) * Coefficient.from_laurent(LaurentPoly({0: 1, 2: 1})))),
            ((1, 0, 0, 0),
             fm2(ap(-3 * s + 6) * eprime(m)
                 + ap(-3 * s + t + 2) * Coefficient.from_laurent(LaurentPoly({0: 1, 2: 1, 4: 1})))),
        ]
        expansions_neg = [
            ((0, 0, 0, 1), fm2(ap(0) * eprime(m))),
            ((0, 0, 1, 0), fm2(ap(0) + ap(-2) * eprime(m))),
            ((0, 1, 0, 0),
             fm2(ap(0) * Coefficient.from_laurent(LaurentPoly({-2: 1, 0: 1})) + ap(-4) * eprime(m))),
            ((1, 0, 0, 0),
             fm2(ap(0) * Coefficient.from_laurent(LaurentPoly({-4: 1, -2: 1, 0: 1}))
                 + ap(-6) * eprime(m))),
        ]
        for model, expansions in (("pos", expansions_pos), ("neg", expansions_neg)):
            for word, expected in expansions:
                got = run(OperatorExpr.basis(word), model, m)
                if got != expected:
                    expansions_ok = False
                    reports.append(CheckReport(
                        f"rank1-expansion-{model}-{'.'.join(map(letter_str, word))}"
                        f"-m{m}", False, f"got {got}, expected {expected}"))
    reports.append(CheckReport("rank1-expansions", expansions_ok,
                               "both models, m <= 5"))

    # k_j e_i k_j^{-1} = q^{a_ji} e_i for all four pairs
    conjugations = [k_e_conjugation_expr(j, i, a1) for j in (0, 1) for i in (0, 1)]
    conj_ok = not any(run(x, model, m) for model in ("pos", "neg")
                      for x in conjugations for m in range(6))
    reports.append(CheckReport("rank1-k-conjugation", conj_ok,
                               "both models, m <= 5"))

    return CheckReport("rank1-suite", all(r.passed for r in reports),
                       lines=[r.line() for r in reports])


# ---------------------------------------------------------------------
# the general string recurrence
# ---------------------------------------------------------------------

def _times(g):
    """f^m -> g f^{m+1} on term maps of the powers: the lowering model's
    E_{d-a_r} on 1 and f for g the quoted scalar, and E_{kd-a_r} on 1 for
    g = gamma_k."""
    return lambda terms: {m + 1: p * g for m, p in terms.items()}


_lowering_e = partial(_run_word, "neg", (1,))   # e_r on the powers


def string_recurrence(t: AffineType, model: str, K: int):
    """The scalars gamma_k with E_{k delta - alpha_r}.1 = gamma_k f, k <= K,
    as gamma_1 rho^{k-1} from ``drinfeld.string_closure``: in the raising
    model on the lattice module, where 1 is the vacuum and f the unit
    vector at alpha_r (its factor q^{m(m-1)/2} is 1 at m = 1), in the
    lowering model on the powers f^m.  AssertionError if E_1.1 has any
    other term or B is not diagonal on 1 and f."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if model == "pos":
        eng = CurrentEngine(t)
        E1, e = (lambda u: eng._E1(t.r, u)), (lambda u: eng._e(t.r, u))
        (one,), (f,) = (alpha_r_string(t, m).terms for m in (0, 1))
    elif model == "neg":
        E1, e = _times(string_span_values(t)[0].terms[()]), _lowering_e
        one, f = 0, 1
    else:
        raise ValueError("model must be pos or neg")
    g, rho = string_closure(E1, e, one, f)
    out = [Coefficient.from_laurent(g, 1)]
    for k in range(2, K + 1):
        g *= rho
        out.append(Coefficient.from_laurent(g, k))
    return out


def negative_closed_form(t: AffineType, k: int) -> Coefficient:
    """The lowering-model scalar gamma_k in closed form:
    (-1)^{k(h+1)+1} q^{-kh+2} (q - q^{-1})^{k-1} a^k, h the dual Coxeter
    number."""
    h = dual_coxeter(t)
    return QMQ ** (k - 1) * Coefficient.from_laurent(
        LaurentPoly.q_power(2 - k * h, (-1) ** (k * (h + 1) + 1)), k)


def negative_ell_weight(t: AffineType, K: int) -> EllWeight:
    """psi+_{r,k}-eigenvalues of the vacuum in the lowering model, read
    off the string closure and matched to the geometric series.

    Only node r is computed.  Every other node i is filled with the
    series 1, 0, 0, ... and tagged ``trivial`` without any computation:
    the string span carries no operator at i != r, so that tag is not a
    result."""
    o = o_sign(t, t.r)
    geometric = -(Coefficient.a_power(1) * c_r(t))
    coeffs = [Coefficient.one()]
    for k, g in enumerate(string_recurrence(t, "neg", K), start=1):
        power = coeffs[-1] * geometric   # geometric ** k: all earlier match
        # psi_bracket on the vacuum with E_k 1 = gamma_k f, times
        # (q - q^{-1}) o^k; k_r is the identity on the vacuum (weight zero)
        w = psi_bracket(_times(g.a_terms[k]), _lowering_e, {0: _QMQ * o ** k})
        coeffs.append(vacuum_eigenvalue(StringElement._of(w, k), 0, t.r, k))
        if coeffs[k] != power:
            raise AssertionError(
                f"psi_{t.r},{k} = {coeffs[k]} differs from geometric {power}")
    psi = {i: tuple([Coefficient.one()] + [Coefficient.zero()] * K)
           for i in range(1, t.n + 1)}
    psi[t.r] = tuple(coeffs)
    form = {i: "trivial" for i in psi}
    form[t.r] = "geometric"
    return EllWeight(psi, form)
