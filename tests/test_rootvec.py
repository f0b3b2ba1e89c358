import pytest

from qborel.coeffring import Coefficient, LaurentPoly
from qborel.latticemod import Element
from qborel.opalg import OperatorExpr, evaluate
from qborel.rootdata import (AffineType, dual_coxeter, positive_roots_wr,
                             simple_root, theta)
from qborel.rootvec import (Unsupported, _path, alpha_r_string, bracket_E,
                            hardcoded_full_E, leading_E, string_coefficient,
                            string_span_values, verified_domain_check)


def test_full_E_word_structure_family_A():
    # each word uses each letter of {0..n} except r exactly once, no word
    # ends in e_r, and exactly one word ends in e_0
    for n in range(2, 7):
        for r in range(1, n + 1):
            x = bracket_E(AffineType("A", n, r))
            enders = []
            for w in x.support():
                assert sorted(w) == sorted(set(range(n + 1)) - {r})
                assert w[-1] != r
                enders.append(w[-1])
            assert enders.count(0) == 1


def test_full_E_leading_term():
    # the unique 0-terminated word of the bracket is the leading word,
    # letter for letter, with the leading scalar
    for n in range(2, 7):
        for r in range(1, n + 1):
            t = AffineType("A", n, r)
            lead = leading_E(t, r)
            (lw, lc), = lead.terms.items()
            x = bracket_E(t)
            (w0,) = [w for w in x.support() if w[-1] == 0]
            assert w0 == lw
            assert x.terms[w0] == lc


def test_full_vs_hardcoded_A3():
    # evaluation equality on a graded basis, not free-word equality
    from qborel.latticemod import get_module
    for r in (1, 2, 3):
        t = AffineType("A", 3, r)
        full = bracket_E(t)
        hard = hardcoded_full_E(t)
        mod = get_module(t)
        for c in mod.enumerate_data(height=5):
            v = Element.basis(c)
            assert evaluate(full, t, v) == evaluate(hard, t, v)


def test_hardcoded_leading_words_D():
    for key in [("D", 4, 1), ("D", 4, 4), ("D", 5, 5)]:
        t = AffineType(*key)
        assert hardcoded_full_E(t) == leading_E(t, t.r)
    with pytest.raises(Unsupported):
        hardcoded_full_E(AffineType("D", 6, 6))


def test_leading_E_zero_off_node():
    t = AffineType("A", 3, 2)
    assert leading_E(t, 1).is_zero()
    assert not leading_E(t, 2).is_zero()
    assert not bracket_E(t).is_zero()


def test_node_outside_range_is_rejected():
    t = AffineType("A", 3, 2)
    for i in (0, 4, 9):
        with pytest.raises(ValueError, match="outside 1..3"):
            leading_E(t, i)


@pytest.mark.parametrize("t", [AffineType("D", n, r) for n in range(4, 8)
                               for r in (1, n - 1, n)], ids=str)
def test_bracket_matches_leading_on_string_D(t):
    # family D: the bracket along the path is a complete operator whose
    # image of the alpha_r-string span is the leading word's
    x = bracket_E(t)
    lead = leading_E(t, t.r)
    for m in range(3):
        v = alpha_r_string(t, m)
        assert evaluate(x, t, v) == evaluate(lead, t, v)


@pytest.mark.parametrize("t", [AffineType("A", 4, 2), AffineType("A", 5, 3),
                               AffineType("A", 6, 3)], ids=str)
def test_complete_operator_golden_values(t):
    # middle nodes with n > 3, where the bracket's free words differ from
    # those of the rank recursion it replaced; the first datum is on the
    # alpha_r-string, the other two are off it, of height >= 4
    x = bracket_E(t)
    for c, want in FULL_E_GOLDEN[str(t)].items():
        got = evaluate(x, t, Element.basis(c))
        assert {d: str(got.coefficient(d)) for d in got.terms} == want, c


# evaluate(E_{delta - alpha_r}, t, basis(c)) as {datum: coefficient text},
# captured from the rank-recursion construction the bracket replaced
FULL_E_GOLDEN = {
    "A4r2": {
        (2, 0, 0, 0, 0, 0): {(3, 0, 0, 0, 0, 0): "-q^-1*a"},
        (2, 1, 0, 0, 1, 0): {(2, 2, 0, 1, 0, 0): "-a + q^2*a",
                             (3, 1, 0, 0, 1, 0): "-q^-1*a"},
        (4, 0, 0, 0, 1, 0): {(4, 1, 0, 1, 0, 0): "-q^4*a + q^6*a",
                             (5, 0, 0, 0, 1, 0): "-q^1*a"}},
    "A5r3": {
        (2, 0, 0, 0, 0, 0, 0, 0, 0): {(3, 0, 0, 0, 0, 0, 0, 0, 0): "q^-2*a"},
        (3, 0, 0, 0, 1, 0, 0, 0, 0): {(3, 1, 0, 1, 0, 0, 0, 0, 0): "q^1*a - q^3*a",
                                      (4, 0, 0, 0, 1, 0, 0, 0, 0): "q^-1*a"},
        (4, 1, 0, 0, 0, 0, 0, 0, 0): {(5, 1, 0, 0, 0, 0, 0, 0, 0): "a"}},
    "A6r3": {
        (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0):
            {(3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0): "-q^-3*a"},
        (3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0):
            {(3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0): "-a + q^2*a",
             (4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0): "-q^-2*a"},
        (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0):
            {(5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0): "-q^-1*a"}},
}


def test_string_span_values_on_string():
    for t in [AffineType("A", 2, 1), AffineType("A", 5, 3),
              AffineType("D", 4, 4), AffineType("D", 5, 4),
              AffineType("D", 6, 1)]:
        v1, v2 = string_span_values(t)
        for op in (bracket_E(t), leading_E(t, t.r)):
            assert string_coefficient(
                t, evaluate(op, t, alpha_r_string(t, 0)), 1) == v1
            assert string_coefficient(
                t, evaluate(op, t, alpha_r_string(t, 1)), 2) == v2


def test_string_coefficient_rejects_a_vector_off_the_string():
    # e_0 on the vacuum lies wholly off the alpha_r-string on A3r2: no
    # string coefficient, so a ValueError rather than zero
    t = AffineType("A", 3, 2)
    vac = alpha_r_string(t, 0)
    off = evaluate(OperatorExpr.e(0), t, vac)
    (c,) = off.terms
    assert c != alpha_r_string(t, 1).support().pop()
    for v in (Element.basis(c), off, Element.basis(c) + alpha_r_string(t, 1)):
        with pytest.raises(ValueError, match="not a single string vector"):
            string_coefficient(t, v, 1)
    assert string_coefficient(t, Element.zero(), 1) == Coefficient.zero()
    assert string_coefficient(t, alpha_r_string(t, 1), 1) == Coefficient.one()


def test_domain_check_reports_a_value_off_the_string(monkeypatch):
    # an operator whose values leave the alpha_r-string is a FAIL line
    # with its values, not a ValueError from string_coefficient
    import qborel.rootvec as rootvec
    t = AffineType("A", 3, 2)
    monkeypatch.setattr(rootvec, "bracket_E", lambda t: OperatorExpr.e(0))
    rep = verified_domain_check(t)
    assert not rep.passed
    assert rep.detail.startswith("E.1 = (a) * [0,0,0,1], expected ")
    assert "; E.f_r = (a) * [1,0,0,1], expected " in rep.detail


def test_string_span_value_shape():
    # family A: (-q^{-1})^{n-1} a and (-q^{-1})^{n-1} q^2 a
    t = AffineType("A", 4, 2)
    v1, v2 = string_span_values(t)
    assert v1 == Coefficient.from_laurent(
        LaurentPoly.q_power(-3, -1)) * Coefficient.a_power(1)
    assert v2 == v1 * Coefficient.q_power(2)
    # family D: a q^{-2n+4} and a q^{-2n+6}
    t = AffineType("D", 5, 5)
    v1, v2 = string_span_values(t)
    assert v1 == Coefficient.q_power(-6) * Coefficient.a_power(1)
    assert v2 == Coefficient.q_power(-4) * Coefficient.a_power(1)


def test_verified_domain_sweep():
    for n in range(2, 8):
        for r in (1, n):
            assert verified_domain_check(AffineType("A", n, r)).passed
    for n in (4, 5, 6):
        for r in (1, n - 1, n):
            assert verified_domain_check(AffineType("D", n, r)).passed


# the paths of the per-family rule the stored-order search replaced
PATH_GOLDEN = {AffineType("A", 4, 2): (1, 4, 3),
               AffineType("D", 5, 1): (2, 3, 5, 4, 3, 2),
               AffineType("D", 6, 5): (2, 3, 4, 6, 1, 2, 3, 4),
               AffineType("D", 6, 6): (2, 3, 4, 5, 1, 2, 3, 4)}


@pytest.mark.parametrize("t", list(PATH_GOLDEN), ids=str)
def test_path_golden(t):
    assert _path(t) == PATH_GOLDEN[t]


def test_path_walks_down_the_roots():
    # h^v - 2 letters, each partial difference theta - alpha_{p_1} - ...
    # - alpha_{p_j} a root of the module, the last one alpha_r
    types = [AffineType("A", n, r) for n in range(1, 13)
             for r in range(1, n + 1)]
    types += [AffineType("D", n, r) for n in range(4, 13)
              for r in (1, n - 1, n)]
    for t in types:
        path = _path(t)
        assert len(path) == dual_coxeter(t) - 2
        roots = set(positive_roots_wr(t))
        v = theta(t)
        for p in path:
            v = tuple(x - (j == p) for j, x in enumerate(v, start=1))
            assert v in roots
        assert v == simple_root(t, t.r)
