import random

import pytest
from hypothesis import given, settings, strategies as st

from qborel.coeffring import Coefficient, LaurentPoly
from qborel.latticemod import Element, get_module, random_datum
from qborel.opalg import (CheckReport, OperatorExpr, central_element_expr,
                          check_identity_on_basis, evaluate, k_commutation_expr,
                          k_e_conjugation_expr, q_bracket, serre_expr)
from qborel.rootdata import AffineType
from qborel.rootvec import bracket_E


def types_for_relations():
    out = []
    for n in range(1, 5):
        for r in range(1, n + 1):
            out.append(AffineType("A", n, r))
    for n in (4, 5):
        for r in (1, n - 1, n):
            out.append(AffineType("D", n, r))
    return out


def test_expr_algebra():
    x = OperatorExpr.e(1) * OperatorExpr.e(2)
    y = OperatorExpr.e(2) * OperatorExpr.e(1)
    assert x != y
    assert (x - x).is_zero()
    assert q_bracket(OperatorExpr.e(1), OperatorExpr.e(2)).support() \
        == {(1, 2), (2, 1)}


def test_evaluation_right_to_left():
    t = AffineType("A", 2, 1)
    mod = get_module(t)
    vac = Element.basis(mod.vacuum)
    # e_2 e_0 vac is nonzero, e_0 e_2 vac applies e_2 first and dies
    assert not evaluate(OperatorExpr.basis((2, 0)), t, vac).is_zero()
    assert evaluate(OperatorExpr.basis((0, 2)), t, vac).is_zero()


def test_serre_expr_shape():
    t = AffineType("A", 2, 1)
    x = serre_expr(1, 2, t)
    assert x.support() == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    # A_1^(1): a_01 = -2 gives the quartic form
    t1 = AffineType("A", 1, 1)
    y = serre_expr(0, 1, t1)
    assert x is not y and len(y.support()) == 4
    assert all(len(w) == 4 for w in y.support())


def test_defining_relations_sample_sweep():
    # full suite on a couple of types at small height; the acceptance
    # gate runs the complete sweep
    for t in [AffineType("A", 2, 1), AffineType("D", 4, 4)]:
        exprs = []
        for i in range(t.n + 1):
            for j in range(t.n + 1):
                if i != j:
                    exprs.append(serre_expr(i, j, t))
                exprs.append(k_e_conjugation_expr(i, j, t))
                if i < j:
                    exprs.append(k_commutation_expr(i, j))
        exprs.append(central_element_expr(t))
        for x in exprs:
            rep = check_identity_on_basis(x, t, bound=None, height=3,
                                          extra_random=5, seed=11)
            assert rep.passed, rep.detail


def test_check_identity_reports_counterexample():
    t = AffineType("A", 2, 1)
    rep = check_identity_on_basis(OperatorExpr.e(0), t, bound=None, height=2,
                                  name="nonzero-op")
    assert not rep.passed
    assert "counterexample" in rep.detail
    assert rep.line().startswith("CHECK nonzero-op FAIL")


def test_check_report_lines():
    assert CheckReport("x", True).line() == "CHECK x PASS"
    assert CheckReport("x", False, "boom").line() == "CHECK x FAIL boom"


# -- letters ----------------------------------------------------------------

def test_invalid_letters_raise_before_any_word_runs():
    t = AffineType("A", 3, 2)
    mod = get_module(t)
    vac = Element.basis(mod.vacuum)
    # e_1 kills the vacuum first, so k_1^2 would never be applied
    for x, name in [(OperatorExpr.k(1, 2) * OperatorExpr.e(1), "k1\\^2"),
                    (OperatorExpr.e(9), "e9"), (OperatorExpr.k(4), "k4"),
                    (OperatorExpr.e(2) + OperatorExpr.k(0, 0), "k0\\^0")]:
        with pytest.raises(ValueError, match=f"{name} is not a letter of A3r2"):
            evaluate(x, t, vac)


def test_apply_rejects_invalid_letters():
    t = AffineType("D", 4, 4)
    mod = get_module(t)
    vac = Element.basis(mod.vacuum)
    with pytest.raises(ValueError, match="e9 is not a letter of D4r4"):
        mod.apply_e(9, vac)
    with pytest.raises(ValueError, match="e-1 is not a letter of D4r4"):
        mod.apply_e(-1, vac)
    with pytest.raises(ValueError, match="k1\\^2 is not a letter of D4r4"):
        mod.apply_k(1, 2, vac)
    with pytest.raises(ValueError, match="k5 is not a letter of D4r4"):
        mod.apply_k(5, 1, vac)


def test_words_of_different_a_degrees_raise():
    t = AffineType("A", 3, 2)
    mod = get_module(t)
    c = [0] * mod.nroots
    c[mod.alpha_r_idx] = 1
    v = Element.basis(tuple(c))
    x = OperatorExpr.e(0) + OperatorExpr.e(t.r)
    assert not evaluate(OperatorExpr.e(0), t, v).is_zero()
    assert not evaluate(OperatorExpr.e(t.r), t, v).is_zero()
    with pytest.raises(ValueError, match="a-degrees"):
        evaluate(x, t, v)
    # a zero word value has no degree
    assert not evaluate(x, t, Element.basis(mod.vacuum)).is_zero()


def test_two_nonzero_degree_classes_raise():
    # e_0 never kills a datum; on seeded data where e_r does not either,
    # the classes 1 and 0 raise, whichever word comes first, also next to
    # a class that cancels
    for t in (AffineType("A", 4, 2), AffineType("D", 5, 5)):
        mod = get_module(t)
        serre = serre_expr(t.r, t.r - 1, t).scale(Coefficient.a_power(2))
        rng = random.Random(17)
        c = [0] * mod.nroots
        c[mod.alpha_r_idx] = 1
        data = [tuple(c)] + [random_datum(t, rng, max_entry=3)
                             for _ in range(4)]
        for c in data:
            v = Element.basis(c)
            if evaluate(OperatorExpr.e(t.r), t, v).is_zero():
                continue
            for x in (OperatorExpr.e(0) + OperatorExpr.e(t.r),
                      OperatorExpr.e(t.r) + OperatorExpr.e(0),
                      serre + OperatorExpr.e(0) * OperatorExpr.k(1)
                      + OperatorExpr.e(t.r)):
                with pytest.raises(ValueError, match="a-degrees"):
                    evaluate(x, t, v)


def test_a_degree_class_that_cancels_has_no_degree():
    # a Serre relation times a^2, and a k-conjugation with e_0, cancel on
    # every datum: their classes have no degree next to a nonzero one,
    # whatever the order of the words
    for t in (AffineType("A", 4, 2), AffineType("D", 5, 1)):
        mod = get_module(t)
        serre = serre_expr(t.r, t.r % t.n + 1, t).scale(Coefficient.a_power(2))
        conj = k_e_conjugation_expr(1, 0, t)
        rng = random.Random(23)
        data = mod.enumerate_data(height=2) + [
            random_datum(t, rng, max_entry=3) for _ in range(4)]
        for c in data:
            v = Element.basis(c, Coefficient.q_power(-1) * 2)
            e = OperatorExpr.e(t.r)
            for x in (serre + e, e + serre, conj + e, serre + conj + e):
                assert evaluate(x, t, v) == evaluate(e, t, v), (x, c)
            assert evaluate(serre + conj, t, v).is_zero()


def test_program_does_not_depend_on_the_type():
    x = (q_bracket(OperatorExpr.e(0), OperatorExpr.e(2)) * OperatorExpr.k(1, -1)
         + OperatorExpr.e(1) * OperatorExpr.e(0) * OperatorExpr.k(0)
         + OperatorExpr.e(4).scale(Coefficient.a_power(1)))
    a32, d44 = AffineType("A", 3, 2), AffineType("D", 4, 4)
    # e_4 is no letter of A3r2, and one of D4r4
    with pytest.raises(ValueError, match="e4 is not a letter of A3r2"):
        evaluate(x, a32, Element.basis(get_module(a32).vacuum))
    y = x - OperatorExpr.e(4).scale(Coefficient.a_power(1))
    for c in [(1, 0, 2, 1), (0, 2, 1, 1)]:
        got = evaluate(y, a32, Element.basis(c))
        assert got == evaluate(OperatorExpr(dict(y.terms)), a32, Element.basis(c))
    for c in [(1, 0, 2, 0, 1, 1), (2, 1, 1, 1, 0, 2)]:
        for z in (x, y):
            v = Element.basis(c)
            assert evaluate(z, d44, v) == evaluate(OperatorExpr(dict(z.terms)),
                                                   d44, v)


# -- evaluation against values captured before words ran on term maps -------

def _relations(t):
    i, j = (1, 2) if t.family == "A" else (2, 3)
    return {"serre": serre_expr(i, j, t),
            "k-conjugation": k_e_conjugation_expr(2, 1, t),
            "central": central_element_expr(t)}


def _type(label):
    return AffineType(label[0], int(label[1]), int(label[3]))


# str(evaluate(.)) of each word of serre_expr (nodes 1, 2 in A, 2, 3 in D),
# of k_e_conjugation_expr(2, 1) and of central_element_expr, with its
# coefficient; and of bracket_E(A4r2) on all three types
WORD_GOLDEN = {
    ("A4r2", "central", (1, 1, 1, 1, 1, 1)): {
        "k0.k1.k2.k3.k4": "(1) * [1,1,1,1,1,1]",
        "1": "(-1) * [1,1,1,1,1,1]"},
    ("A4r2", "central", (2, 0, 3, 1, 0, 2)): {
        "k0.k1.k2.k3.k4": "(1) * [2,0,3,1,0,2]",
        "1": "(-1) * [2,0,3,1,0,2]"},
    ("A4r2", "central", (5, 0, 1, 0, 6, 0)): {
        "k0.k1.k2.k3.k4": "(1) * [5,0,1,0,6,0]",
        "1": "(-1) * [5,0,1,0,6,0]"},
    ("A4r2", "k-conjugation", (1, 1, 1, 1, 1, 1)): {
        "k2.e1.k2^-1":
            "(q^-1) * [1,1,2,1,1,0] + (q^-1) * [1,2,1,1,0,1] + "
            "(q^-1) * [2,1,1,0,1,1]",
        "e1":
            "(-q^-1) * [1,1,2,1,1,0] + (-q^-1) * [1,2,1,1,0,1] + "
            "(-q^-1) * [2,1,1,0,1,1]"},
    ("A4r2", "k-conjugation", (2, 0, 3, 1, 0, 2)): {
        "k2.e1.k2^-1": "(q^-1 + q^1) * [2,0,4,1,0,1] + (q^-1) * [3,0,3,0,0,2]",
        "e1": "(-q^-1 - q^1) * [2,0,4,1,0,1] + (-q^-1) * [3,0,3,0,0,2]"},
    ("A4r2", "k-conjugation", (5, 0, 1, 0, 6, 0)): {
        "k2.e1.k2^-1": "(q^-1 + q^1 + q^3 + q^5 + q^7 + q^9) * [5,1,1,0,5,0]",
        "e1": "(-q^-1 - q^1 - q^3 - q^5 - q^7 - q^9) * [5,1,1,0,5,0]"},
    ("A4r2", "serre", (1, 1, 1, 1, 1, 1)): {
        "e1.e1.e2":
            "(q^-2 + 1) * [0,2,2,1,0,0] + (q^-1 + q^1) * "
            "[1,1,2,0,1,0] + (q^-1 + q^1) * [1,2,1,0,0,1]",
        "e1.e2.e1":
            "(-q^-2 - 2 - q^2) * [0,2,2,1,0,0] + (-2*q^-1 - 3*q^1 - "
            "q^3) * [1,1,2,0,1,0] + (-2*q^-1 - 3*q^1 - q^3) * "
            "[1,2,1,0,0,1]",
        "e2.e1.e1":
            "(1 + q^2) * [0,2,2,1,0,0] + (q^-1 + 2*q^1 + q^3) * "
            "[1,1,2,0,1,0] + (q^-1 + 2*q^1 + q^3) * [1,2,1,0,0,1]"},
    ("A4r2", "serre", (2, 0, 3, 1, 0, 2)): {
        "e1.e1.e2":
            "(q^-2 + 2 + q^2) * [1,0,5,1,0,0] + (q^-2 + 3 + 3*q^2 + "
            "q^4) * [2,0,4,0,0,1]",
        "e1.e2.e1":
            "(-q^-2 - 3 - 3*q^2 - q^4) * [1,0,5,1,0,0] + (-2*q^-2 - "
            "6 - 7*q^2 - 4*q^4 - q^6) * [2,0,4,0,0,1]",
        "e2.e1.e1":
            "(1 + 2*q^2 + q^4) * [1,0,5,1,0,0] + (q^-2 + 3 + 4*q^2 "
            "+ 3*q^4 + q^6) * [2,0,4,0,0,1]"},
    ("A4r2", "serre", (5, 0, 1, 0, 6, 0)): {
        "e1.e1.e2":
            "(q^-5 + 3*q^-3 + 6*q^-1 + 10*q^1 + 15*q^3 + 19*q^5 + "
            "21*q^7 + 21*q^9 + 19*q^11 + 15*q^13 + 10*q^15 + 6*q^17 "
            "+ 3*q^19 + q^21) * [4,2,1,0,4,0]",
        "e1.e2.e1":
            "(-q^-5 - 4*q^-3 - 9*q^-1 - 16*q^1 - 25*q^3 - 34*q^5 - "
            "40*q^7 - 42*q^9 - 40*q^11 - 34*q^13 - 25*q^15 - "
            "16*q^17 - 9*q^19 - 4*q^21 - q^23) * [4,2,1,0,4,0]",
        "e2.e1.e1":
            "(q^-3 + 3*q^-1 + 6*q^1 + 10*q^3 + 15*q^5 + 19*q^7 + "
            "21*q^9 + 21*q^11 + 19*q^13 + 15*q^15 + 10*q^17 + "
            "6*q^19 + 3*q^21 + q^23) * [4,2,1,0,4,0]"},
    ("D5r1", "central", (0, 5, 6, 0, 0, 0, 1, 1)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [0,5,6,0,0,0,1,1]",
        "1": "(-1) * [0,5,6,0,0,0,1,1]"},
    ("D5r1", "central", (1, 2, 1, 0, 0, 1, 1, 1)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [1,2,1,0,0,1,1,1]",
        "1": "(-1) * [1,2,1,0,0,1,1,1]"},
    ("D5r1", "central", (2, 1, 0, 3, 1, 0, 2, 1)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [2,1,0,3,1,0,2,1]",
        "1": "(-1) * [2,1,0,3,1,0,2,1]"},
    ("D5r1", "k-conjugation", (0, 5, 6, 0, 0, 0, 1, 1)): {
        "k2.e1.k2^-1": "0",
        "e1": "0"},
    ("D5r1", "k-conjugation", (1, 2, 1, 0, 0, 1, 1, 1)): {
        "k2.e1.k2^-1": "(q^-1) * [0,2,1,0,0,1,1,1]",
        "e1": "(-q^-1) * [0,2,1,0,0,1,1,1]"},
    ("D5r1", "k-conjugation", (2, 1, 0, 3, 1, 0, 2, 1)): {
        "k2.e1.k2^-1": "(q^-2 + 1) * [1,1,0,3,1,0,2,1]",
        "e1": "(-q^-2 - 1) * [1,1,0,3,1,0,2,1]"},
    ("D5r1", "serre", (0, 5, 6, 0, 0, 0, 1, 1)): {
        "e2.e2.e3":
            "(q^-10 + 2*q^-8 + 2*q^-6 + 2*q^-4 + 2*q^-2 + 1) * "
            "[1,4,6,0,0,1,1,0] + (q^-16 + 3*q^-14 + 5*q^-12 + "
            "7*q^-10 + 9*q^-8 + 11*q^-6 + 11*q^-4 + 9*q^-2 + 7 + "
            "5*q^2 + 3*q^4 + q^6) * [1,5,5,0,0,0,2,0] + (q^-8 + "
            "2*q^-6 + 3*q^-4 + 4*q^-2 + 4 + 3*q^2 + 2*q^4 + q^6) * "
            "[2,3,6,0,0,1,0,1] + (q^-14 + 3*q^-12 + 6*q^-10 + "
            "10*q^-8 + 15*q^-6 + 20*q^-4 + 23*q^-2 + 24 + 23*q^2 + "
            "20*q^4 + 15*q^6 + 10*q^8 + 6*q^10 + 3*q^12 + q^14) * "
            "[2,4,5,0,0,0,1,1]",
        "e2.e3.e2":
            "(-q^-12 - 4*q^-10 - 6*q^-8 - 6*q^-6 - 6*q^-4 - 5*q^-2 "
            "- 2) * [1,4,6,0,0,1,1,0] + (-q^-16 - 4*q^-14 - 8*q^-12 "
            "- 12*q^-10 - 16*q^-8 - 20*q^-6 - 21*q^-4 - 18*q^-2 - "
            "14 - 10*q^2 - 6*q^4 - 2*q^6) * [1,5,5,0,0,0,2,0] + "
            "(-q^-10 - 3*q^-8 - 5*q^-6 - 7*q^-4 - 8*q^-2 - 7 - "
            "5*q^2 - 3*q^4 - q^6) * [2,3,6,0,0,1,0,1] + (-q^-14 - "
            "4*q^-12 - 9*q^-10 - 16*q^-8 - 25*q^-6 - 34*q^-4 - "
            "40*q^-2 - 42 - 40*q^2 - 34*q^4 - 25*q^6 - 16*q^8 - "
            "9*q^10 - 4*q^12 - q^14) * [2,4,5,0,0,0,1,1]",
        "e3.e2.e2":
            "(q^-12 + 3*q^-10 + 4*q^-8 + 4*q^-6 + 4*q^-4 + 3*q^-2 + "
            "1) * [1,4,6,0,0,1,1,0] + (q^-14 + 3*q^-12 + 5*q^-10 + "
            "7*q^-8 + 9*q^-6 + 10*q^-4 + 9*q^-2 + 7 + 5*q^2 + 3*q^4 "
            "+ q^6) * [1,5,5,0,0,0,2,0] + (q^-10 + 2*q^-8 + 3*q^-6 "
            "+ 4*q^-4 + 4*q^-2 + 3 + 2*q^2 + q^4) * "
            "[2,3,6,0,0,1,0,1] + (q^-12 + 3*q^-10 + 6*q^-8 + "
            "10*q^-6 + 14*q^-4 + 17*q^-2 + 18 + 17*q^2 + 14*q^4 + "
            "10*q^6 + 6*q^8 + 3*q^10 + q^12) * [2,4,5,0,0,0,1,1]"},
    ("D5r1", "serre", (1, 2, 1, 0, 0, 1, 1, 1)): {
        "e2.e2.e3":
            "(q^-1 + 2*q^1 + q^3) * [2,1,1,0,0,2,1,0] + (q^-4 + "
            "2*q^-2 + 2 + q^2) * [2,2,0,0,0,1,2,0] + (1 + q^2) * "
            "[3,0,1,0,0,2,0,1] + (q^-3 + 2*q^-1 + 2*q^1 + q^3) * "
            "[3,1,0,0,0,1,1,1]",
        "e2.e3.e2":
            "(-q^-3 - 4*q^-1 - 5*q^1 - 2*q^3) * [2,1,1,0,0,2,1,0] + "
            "(-q^-4 - 3*q^-2 - 4 - 2*q^2) * [2,2,0,0,0,1,2,0] + "
            "(-q^-2 - 2 - q^2) * [3,0,1,0,0,2,0,1] + (-q^-3 - "
            "3*q^-1 - 3*q^1 - q^3) * [3,1,0,0,0,1,1,1]",
        "e3.e2.e2":
            "(q^-3 + 3*q^-1 + 3*q^1 + q^3) * [2,1,1,0,0,2,1,0] + "
            "(q^-2 + 2 + q^2) * [2,2,0,0,0,1,2,0] + (q^-2 + 1) * "
            "[3,0,1,0,0,2,0,1] + (q^-1 + q^1) * [3,1,0,0,0,1,1,1]"},
    ("D5r1", "serre", (2, 1, 0, 3, 1, 0, 2, 1)): {
        "e2.e2.e3": "(q^1 + 2*q^3 + q^5) * [3,0,0,3,1,1,2,0]",
        "e2.e3.e2": "(-q^-1 - 3*q^1 - 4*q^3 - 2*q^5) * [3,0,0,3,1,1,2,0]",
        "e3.e2.e2": "(q^-1 + 2*q^1 + 2*q^3 + q^5) * [3,0,0,3,1,1,2,0]"},
    ("D5r5", "central", (0, 2, 1, 0, 1, 1, 0, 0, 1, 0)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [0,2,1,0,1,1,0,0,1,0]",
        "1": "(-1) * [0,2,1,0,1,1,0,0,1,0]"},
    ("D5r5", "central", (1, 1, 0, 1, 1, 0, 1, 1, 0, 1)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [1,1,0,1,1,0,1,1,0,1]",
        "1": "(-1) * [1,1,0,1,1,0,1,1,0,1]"},
    ("D5r5", "central", (1, 5, 1, 0, 2, 0, 0, 6, 0, 0)): {
        "k0.k1.k2.k2.k3.k3.k4.k5": "(1) * [1,5,1,0,2,0,0,6,0,0]",
        "1": "(-1) * [1,5,1,0,2,0,0,6,0,0]"},
    ("D5r5", "k-conjugation", (0, 2, 1, 0, 1, 1, 0, 0, 1, 0)): {
        "k2.e1.k2^-1": "(q^1) * [0,2,1,0,1,1,0,1,0,0]",
        "e1": "(-q^1) * [0,2,1,0,1,1,0,1,0,0]"},
    ("D5r5", "k-conjugation", (1, 1, 0, 1, 1, 0, 1, 1, 0, 1)): {
        "k2.e1.k2^-1":
            "(q^-2) * [1,1,0,1,1,1,0,1,0,1] + (q^-1) * "
            "[1,1,1,0,1,0,1,1,0,1]",
        "e1":
            "(-q^-2) * [1,1,0,1,1,1,0,1,0,1] + (-q^-1) * "
            "[1,1,1,0,1,0,1,1,0,1]"},
    ("D5r5", "k-conjugation", (1, 5, 1, 0, 2, 0, 0, 6, 0, 0)): {
        "k2.e1.k2^-1": "0",
        "e1": "0"},
    ("D5r5", "serre", (0, 2, 1, 0, 1, 1, 0, 0, 1, 0)): {
        "e2.e2.e3":
            "(1 + q^2) * [0,3,0,0,2,0,1,0,0,0] + (q^-1 + 2*q^1 + "
            "q^3) * [1,2,0,0,2,0,0,0,1,0]",
        "e2.e3.e2":
            "(-q^-2 - 2 - q^2) * [0,3,0,0,2,0,1,0,0,0] + (-2*q^-1 - "
            "4*q^1 - 3*q^3 - q^5) * [1,2,0,0,2,0,0,0,1,0]",
        "e3.e2.e2":
            "(q^-2 + 1) * [0,3,0,0,2,0,1,0,0,0] + (q^-1 + 2*q^1 + "
            "2*q^3 + q^5) * [1,2,0,0,2,0,0,0,1,0]"},
    ("D5r5", "serre", (1, 1, 0, 1, 1, 0, 1, 1, 0, 1)): {
        "e2.e2.e3": "(q^2 + q^4) * [1,1,0,1,2,0,1,0,1,0]",
        "e2.e3.e2": "(-q^2 - q^4) * [1,1,0,1,2,0,1,0,1,0]",
        "e3.e2.e2": "0"},
    ("D5r5", "serre", (1, 5, 1, 0, 2, 0, 0, 6, 0, 0)): {
        "e2.e2.e3":
            "(q^-5 + 2*q^-3 + 2*q^-1 + 2*q^1 + 2*q^3 + 2*q^5 + q^7) "
            "* [1,6,0,0,3,0,0,5,0,0]",
        "e2.e3.e2":
            "(-q^-5 - 2*q^-3 - 2*q^-1 - 2*q^1 - 2*q^3 - 2*q^5 - "
            "q^7) * [1,6,0,0,3,0,0,5,0,0]",
        "e3.e2.e2": "0"},
}

BRACKET_GOLDEN = {
    ("A4r2", (1, 1, 1, 1, 1, 1)):
        "(-q^-2*a + a) * [1,1,2,2,1,0] + (-q^-2*a + a) * "
        "[1,2,1,2,0,1] + (-q^-2*a) * [2,1,1,1,1,1]",
    ("A4r2", (2, 0, 3, 1, 0, 2)):
        "(-q^-1*a + q^3*a) * [2,0,4,2,0,1] + (-q^-1*a) * "
        "[3,0,3,1,0,2]",
    ("A4r2", (5, 0, 1, 0, 6, 0)):
        "(-q^1*a + q^13*a) * [5,1,1,1,5,0] + (-q^2*a) * "
        "[6,0,1,0,6,0]",
    ("D5r1", (0, 5, 6, 0, 0, 0, 1, 1)): "0",
    ("D5r1", (1, 2, 1, 0, 0, 1, 1, 1)):
        "(q^7*a - 2*q^8*a + q^9*a) * [0,2,1,0,1,1,0,2]",
    ("D5r1", (2, 1, 0, 3, 1, 0, 2, 1)):
        "(q^2*a - 2*q^3*a + 3*q^4*a - 4*q^5*a + 3*q^6*a - 2*q^7*a + "
        "q^8*a) * [1,1,0,3,2,0,1,2] + (-q^1*a + 2*q^2*a - 3*q^3*a + "
        "4*q^4*a - 3*q^5*a + 2*q^6*a - 2*q^8*a + 3*q^9*a - 4*q^10*a "
        "+ 3*q^11*a - 2*q^12*a + q^13*a) * [1,1,1,2,1,1,1,2] + "
        "(-q^2*a + 2*q^3*a - 3*q^4*a + 4*q^5*a - 4*q^6*a + 4*q^7*a "
        "- 3*q^8*a + 2*q^9*a - q^10*a) * [1,2,0,2,1,0,2,2]",
    ("D5r5", (0, 2, 1, 0, 1, 1, 0, 0, 1, 0)):
        "(q^3*a - 2*q^4*a + q^5*a) * [0,2,2,0,1,1,0,0,0,1] + "
        "(-q^-1*a + 2*a - 2*q^2*a + q^3*a) * [0,3,1,0,0,2,0,0,0,1] "
        "+ (-a + 2*q^1*a - q^2*a) * [1,2,1,0,0,1,0,1,0,1]",
    ("D5r5", (1, 1, 0, 1, 1, 0, 1, 1, 0, 1)):
        "(q^2*a - 2*q^3*a + q^4*a) * [1,1,1,1,1,1,0,0,0,2] + (q^2*a "
        "- 2*q^3*a + q^4*a) * [1,1,2,0,1,0,1,0,0,2] + (-q^-1*a + "
        "2*a - 2*q^2*a + q^3*a) * [1,2,0,1,0,2,0,0,0,2] + (-a + "
        "2*q^1*a - 2*q^3*a + q^4*a) * [1,2,1,0,0,1,1,0,0,2] + "
        "(-q^-1*a + 2*a - q^1*a) * [2,1,0,1,0,1,0,1,0,2] + (-a + "
        "2*q^1*a - q^2*a) * [2,1,1,0,0,0,1,1,0,2]",
    ("D5r5", (1, 5, 1, 0, 2, 0, 0, 6, 0, 0)): "0",
}


@pytest.mark.parametrize("key", sorted(WORD_GOLDEN), ids=str)
def test_relation_words_golden_values(key):
    label, name, c = key
    t = _type(label)
    x = _relations(t)[name]
    v = Element.basis(c)
    got = {OperatorExpr._label(w): str(evaluate(OperatorExpr.basis(w, k), t, v))
           for w, k in x.terms.items()}
    assert got == WORD_GOLDEN[key]
    assert evaluate(x, t, v).is_zero()


@pytest.mark.parametrize("key", sorted(BRACKET_GOLDEN), ids=str)
def test_bracket_golden_values(key):
    label, c = key
    x = bracket_E(AffineType("A", 4, 2))
    assert str(evaluate(x, _type(label), Element.basis(c))) == BRACKET_GOLDEN[key]


# -- algebraic properties -----------------------------------------------------

TYPES = [AffineType("A", 3, 2), AffineType("D", 4, 4)]


@st.composite
def homogeneous_exprs(draw, n, e0, a_degree):
    """Words over e_1..e_n and k_i^{+-1}, each with e0 letters e_0,
    with small coefficients times a^a_degree."""
    letter = st.one_of(st.integers(1, n),
                       st.tuples(st.just("k"), st.integers(0, n),
                                 st.sampled_from((1, -1))))
    out = OperatorExpr.zero()
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(letter, max_size=3))
        at = draw(st.integers(0, len(word)))
        word = tuple(word[:at] + [0] * e0 + word[at:])
        coeff = draw(st.integers(-3, 3).filter(bool))
        out = out + OperatorExpr.basis(word, Coefficient.from_laurent(
            LaurentPoly.q_power(draw(st.integers(-2, 2)), coeff), a_degree))
    return out


@st.composite
def evaluation_cases(draw):
    """A type; x, y of any degrees; u, w of one shared degree; and a
    multi-term element v."""
    t = draw(st.sampled_from(TYPES))
    degrees = st.integers(0, 1)
    x, y = [draw(homogeneous_exprs(t.n, draw(degrees), draw(degrees)))
            for _ in range(2)]
    e0, a_degree = draw(degrees), draw(degrees)
    u, w = [draw(homogeneous_exprs(t.n, e0, a_degree)) for _ in range(2)]
    nroots = get_module(t).nroots
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        c = tuple(draw(st.lists(st.integers(0, 3), min_size=nroots,
                                max_size=nroots)))
        terms[c] = LaurentPoly.q_power(draw(st.integers(-2, 2)),
                                       draw(st.integers(-2, 2).filter(bool)))
    return t, x, y, u, w, Element(terms, draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(evaluation_cases())
def test_evaluation_is_a_homomorphism(case):
    t, x, y, u, w, v = case
    assert evaluate(x * y, t, v) == evaluate(x, t, evaluate(y, t, v))
    assert evaluate(u + w, t, v) == evaluate(u, t, v) + evaluate(w, t, v)
    assert evaluate(u - u, t, v).is_zero()


WORD_TYPES = [AffineType("A", 3, 2), AffineType("A", 4, 2),
              AffineType("D", 4, 4), AffineType("D", 5, 1)]


@st.composite
def word_sums(draw):
    """A type, an expression of one a-degree class whose words share
    leftmost letters, and a one-term or multi-term element."""
    t = draw(st.sampled_from(WORD_TYPES))
    k = st.tuples(st.just("k"), st.integers(0, t.n), st.sampled_from((1, -1)))
    letter = st.one_of(st.integers(1, t.n), k)
    # words start with a prefix of one of two stems, so that their
    # leftmost letters and whole chains of them are shared
    stems = [draw(st.lists(letter, max_size=4)) for _ in range(2)]
    a_class = draw(st.integers(0, 1))
    x = OperatorExpr.zero()
    for _ in range(draw(st.integers(1, 6))):
        stem = draw(st.sampled_from(stems))
        word = stem[:draw(st.integers(0, len(stem)))]
        word += draw(st.one_of(st.lists(letter, max_size=3),
                               st.lists(k, max_size=3)))
        # the word's e_0 letters and its coefficient's a-degree add up to
        # the class
        e0 = draw(st.integers(0, a_class))
        for _ in range(e0):
            word.insert(draw(st.integers(0, len(word))), 0)
        coeff = Coefficient.from_laurent(
            LaurentPoly({draw(st.integers(-2, 2)): draw(st.integers(-3, 3)
                                                       .filter(bool)),
                         draw(st.integers(-2, 2)): draw(st.integers(-1, 1))}),
            a_class - e0)
        x = x + OperatorExpr.basis(tuple(word), coeff)
    nroots = get_module(t).nroots
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        c = tuple(draw(st.lists(st.integers(0, 3), min_size=nroots,
                                max_size=nroots)))
        terms[c] = draw(st.sampled_from((LaurentPoly.one(),
                                         LaurentPoly({0: 1, 2: -1}),
                                         LaurentPoly.q_power(-1, 2))))
    return t, x, Element(terms, draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(word_sums())
def test_evaluate_is_the_sum_of_its_words(case):
    # the word trie factors shared leftmost letters out of the sum; the
    # value must be the one of the words run one by one
    t, x, v = case
    want = Element.zero()
    for w, c in x.terms.items():
        want = want + evaluate(OperatorExpr.basis(w, c), t, v)
    assert evaluate(x, t, v) == want


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_evaluate_leaves_its_input_unchanged(t):
    # the identity word of the central element is the empty word, whose
    # term map is the input's own; a basis vector's one term carries the
    # shared coefficient 1, which the one-term walk must not hand back
    mod = get_module(t)
    datum = mod.enumerate_data(height=2)[-1]
    central = central_element_expr(t)
    one = OperatorExpr.identity()
    for v in (Element({mod.vacuum: LaurentPoly.q_power(1, 2),
                       datum: LaurentPoly.one()}, 1),
              Element.basis(datum)):
        before, deg = dict(v.terms), v.deg
        for x in (central, one - OperatorExpr.k(0), one.scale(-1) + central,
                  one + OperatorExpr.k(1),
                  OperatorExpr.e(0) * OperatorExpr.k(2)):
            out = evaluate(x, t, v)
            assert v.terms == before and v.deg == deg
            assert out.terms is not v.terms
        assert evaluate(central, t, v).is_zero()
        assert evaluate(one, t, v) == v


def test_bad_letters_and_data_raise_on_every_call():
    # the letters and data are checked on each call, also once the
    # program is compiled and the e_on_datum cache holds the data
    t = AffineType("A", 3, 2)
    good = Element.basis((1, 0, 2, 1))
    x = OperatorExpr.e(1) * OperatorExpr.e(0) + OperatorExpr.e(7)
    y = OperatorExpr.e(1) * OperatorExpr.e(0)
    for _ in range(3):
        with pytest.raises(ValueError, match="e7 is not a letter of A3r2"):
            evaluate(x, t, good)
        evaluate(y, t, good)
        for bad in [(1, 0, 2), (1, -1, 2, 1), (1, 0.5, 2, 1)]:
            with pytest.raises(ValueError, match="is not a datum of A3r2"):
                evaluate(y, t, Element.basis(bad))
