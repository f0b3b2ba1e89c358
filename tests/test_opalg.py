from qborel.coeffring import Coefficient
from qborel.latticemod import Element, get_module
from qborel.opalg import (CheckReport, OperatorExpr, central_element_expr,
                          check_identity_on_basis, evaluate, k_commutation_expr,
                          k_e_conjugation_expr, q_bracket, serre_expr)
from qborel.rootdata import AffineType


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
