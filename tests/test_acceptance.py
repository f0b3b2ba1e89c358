"""Acceptance gate: the seven headline guarantees, at exact equality
in Z[q^{+-1}][a].

1. Defining relations on every supported type with n <= 6, on all basis
   vectors of height <= 6 plus 500 seeded random data with entries <= 10.
2. Raising-model l-weights: a degree-one polynomial series at node r
   with the closed scalar, trivial elsewhere (K = 6), plus two verbatim
   rank-specific values.
3. Lowering-model l-weights: recurrence scalars match the closed forms
   for k <= 10 (k <= 20 at rank one, unconditionally) and the geometric
   series; D4 exact check included.
4. Root-vector cross-checks: complete expressions against transcripts,
   full vs leading agreement on the string span for 2 <= n <= 7, and the
   four scalar values.
5. Character identity at height <= 10 for all supported types, n <= 9.
6. Braid combinatorics of the reading words for n <= 9.
7. Divisibility sentinel: criteria 2-4 never hit an inexact division.
"""

import random

import pytest

from qborel.chars import character_identity_check
from qborel.coeffring import Coefficient, LaurentPoly, NotDivisible, \
    parse_coefficient
from qborel.drinfeld import c_r, ell_weight_of_vacuum
from qborel.latticemod import Element, get_module, random_datum
from qborel.microrec import (negative_closed_form, negative_ell_weight,
                             rank_one_serre_check, string_recurrence)
from qborel.opalg import defining_relations, evaluate
from qborel.rootdata import (AffineType, braid_equivalent, convex_order,
                             positive_roots_wr, reading_words, reduced_word_wr,
                             simple_root, theta)
from qborel.rootvec import (alpha_r_string, bracket_E, hardcoded_full_E,
                            leading_E, string_span_values,
                            verified_domain_check)


def supported_types(nmax):
    out = [AffineType("A", n, r) for n in range(1, nmax + 1)
           for r in range(1, n + 1)]
    out += [AffineType("D", n, r) for n in range(4, nmax + 1)
            for r in (1, n - 1, n)]
    return out


TYPES_6 = supported_types(6)
TYPES_9 = supported_types(9)


# -- criterion 1: defining relations ----------------------------------

@pytest.mark.parametrize("t", TYPES_6, ids=str)
def test_criterion1_relations(t):
    mod = get_module(t)
    rng = random.Random(20240814)
    data = mod.enumerate_data(height=6)
    data += [random_datum(t, rng, max_entry=10) for _ in range(500)]
    for name, x in defining_relations(t):
        for c in data:
            out = evaluate(x, t, Element.basis(c))
            assert out.is_zero(), f"{name} fails on {mod.datum_str(c)}"


# -- criterion 2: raising-model l-weights ------------------------------

@pytest.mark.parametrize("t", TYPES_6, ids=str)
def test_criterion2_positive_ell_weight(t):
    ell = ell_weight_of_vacuum(t, K=6)
    assert ell.closed_form[t.r] == "polynomial"
    assert ell.psi[t.r][1] == -(Coefficient.a_power(1) * c_r(t))
    assert all(c.is_zero() for c in ell.psi[t.r][2:])
    for i in ell.psi:
        if i != t.r:
            assert ell.closed_form[i] == "trivial"


def test_criterion2_verbatim_values():
    ell = ell_weight_of_vacuum(AffineType("A", 1, 1), K=6)
    assert str(ell.psi[1][1]) == "q^-3*a - q^-1*a"
    ell = ell_weight_of_vacuum(AffineType("A", 3, 2), K=6)
    assert str(ell.psi[2][1]) == "-q^-5*a + q^-3*a"


# -- criterion 3: lowering-model l-weights -----------------------------

@pytest.mark.parametrize("t", TYPES_6, ids=str)
def test_criterion3_negative_closed_forms(t):
    gammas = string_recurrence(t, "neg", K=10)
    for k in range(1, 11):
        assert gammas[k - 1] == negative_closed_form(t, k)
    ell = negative_ell_weight(t, K=10)
    geom = -(Coefficient.a_power(1) * c_r(t))
    for k in range(11):
        assert ell.psi[t.r][k] == geom ** k


def test_criterion3_rank_one_unconditional_k20():
    t = AffineType("A", 1, 1)
    gammas = string_recurrence(t, "neg", K=20)
    for k in range(1, 21):
        assert gammas[k - 1] == negative_closed_form(t, k)
    assert rank_one_serre_check(M=20).passed


def test_criterion3_D4_exact():
    ell = negative_ell_weight(AffineType("D", 4, 4), K=10)
    assert str(ell.psi[4][1]) == "q^-7*a - q^-5*a"
    assert ell.psi[4][2] == parse_coefficient(
        "q^-14*a^2 - 2*q^-12*a^2 + q^-10*a^2")


# -- criterion 4: root-vector cross-checks -----------------------------

@pytest.mark.parametrize("r", [1, 2, 3])
def test_criterion4_full_E_A3_vs_transcript(r):
    t = AffineType("A", 3, r)
    full = bracket_E(t)
    hard = hardcoded_full_E(t)
    mod = get_module(t)
    for c in mod.enumerate_data(height=6):
        v = Element.basis(c)
        assert evaluate(full, t, v) == evaluate(hard, t, v)


@pytest.mark.parametrize("t", [AffineType("A", n, r) for n in range(2, 8)
                               for r in range(1, n + 1)], ids=str)
def test_criterion4_full_vs_leading_on_string(t):
    full, lead = bracket_E(t), leading_E(t, t.r)
    for m in range(3):
        v = alpha_r_string(t, m)
        assert evaluate(full, t, v) == evaluate(lead, t, v)


@pytest.mark.parametrize("t", TYPES_6 + [AffineType("A", 7, r)
                                         for r in range(1, 8)], ids=str)
def test_criterion4_string_span_values(t):
    rep = verified_domain_check(t)
    assert rep.passed, rep.detail
    v1, v2 = string_span_values(t)
    n = t.n
    if t.family == "A":
        lead = Coefficient.from_laurent(
            LaurentPoly.q_power(-(n - 1), (-1) ** (n - 1)))
        assert v1 == lead * Coefficient.a_power(1)
        assert v2 == lead * Coefficient.q_power(2) * Coefficient.a_power(1)
    else:
        assert v1 == Coefficient.q_power(-2 * n + 4) * Coefficient.a_power(1)
        assert v2 == Coefficient.q_power(-2 * n + 6) * Coefficient.a_power(1)


# -- criterion 5: character identity -----------------------------------

@pytest.mark.parametrize("t", TYPES_9, ids=str)
def test_criterion5_character_identity(t):
    rep = character_identity_check(t, height=10)
    assert rep.passed, rep.detail


# -- criterion 6: braid combinatorics ----------------------------------

@pytest.mark.parametrize("t", TYPES_9, ids=str)
def test_criterion6_braid(t):
    betas = positive_roots_wr(t)  # asserts the inversion-set enumeration
    assert betas[0] == simple_root(t, t.r)
    assert betas[-1] == theta(t)
    row, col = reading_words(t)
    assert row == reduced_word_wr(t)
    convex_order(t, col)  # column word must be reduced
    assert braid_equivalent(t, row, col)


# -- criterion 7: divisibility sentinel --------------------------------

def test_criterion7_no_inexact_division():
    # a representative pass through every division-using path; any
    # NotDivisible would fail this test
    try:
        for t in [AffineType("A", 4, 2), AffineType("D", 5, 5),
                  AffineType("D", 6, 1)]:
            ell_weight_of_vacuum(t, K=6)
            string_recurrence(t, "neg", K=10)
            string_recurrence(t, "pos", K=6)
            verified_domain_check(t)
    except NotDivisible as exc:  # pragma: no cover
        pytest.fail(f"inexact division: {exc}")
