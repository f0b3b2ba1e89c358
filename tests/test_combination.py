"""The shared combination core and the text form of its subclasses."""

import pytest
from hypothesis import given, settings, strategies as st

from qborel.coeffring import (Coefficient, Combination, GradedCombination,
                              LaurentPoly, _add_terms, parse_coefficient)
from qborel.latticemod import Element
from qborel.microrec import StringElement
from qborel.opalg import OperatorExpr

LABELS = ("x", "y", "z")


def laurents():
    """Small Laurent polynomials, zero included, so that sums cancel often."""
    return st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                           max_size=2).map(LaurentPoly)


def coeffs():
    """Small Coefficients a^d p, zero included, so that sums cancel often.
    Every value drawn for one example has the same a-degree d, so that
    any two of them can be added."""
    return st.builds(Coefficient.from_laurent, laurents(),
                     st.shared(st.integers(0, 2), key="a-degree"))


# labels and coefficients of each kind: words over Coefficient,
# Coefficient itself as the graded combination of its one label () over
# LaurentPoly, and the graded core at a-degree 0 over LaurentPoly
KINDS = {Combination: (LABELS, coeffs()), Coefficient: (((),), laurents()),
         GradedCombination: (LABELS, laurents())}


def reference(ps, zero):
    """A dict of coefficients summed label by label, zeros dropped."""
    out = {}
    for k, v in ps:
        out[k] = out.get(k, zero) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def ref_combine(x, y, sign, zero):
    return reference(list(x.items()) + [(k, v if sign > 0 else -v)
                                        for k, v in y.items()], zero)


def no_stored_zero(c):
    return all(not v.is_zero() for v in c.terms.values())


@pytest.mark.parametrize("cls", [Combination, Coefficient, GradedCombination],
                         ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_combination_against_dict_reference(cls, data):
    labels, values = KINDS[cls]
    pairs = st.lists(st.tuples(st.sampled_from(labels), values), max_size=6)
    p1, p2, s = data.draw(pairs), data.draw(pairs), data.draw(values)
    zero = cls.ring.zero()
    x, y = cls.collect(p1), cls.collect(p2)
    rx, ry = reference(p1, zero), reference(p2, zero)
    assert x.terms == rx and y.terms == ry
    assert (x + y).terms == ref_combine(rx, ry, 1, zero)
    assert (x - y).terms == ref_combine(rx, ry, -1, zero)
    assert (-x).terms == {k: -v for k, v in rx.items()}
    assert x.scale(s).terms == reference(((k, s * v) for k, v in rx.items()),
                                         zero)
    for c in (x, y, x + y, x - y, -x, x.scale(s)):
        assert no_stored_zero(c)
    assert (x - x).is_zero() and (x - x) == cls.zero()
    assert x.scale(zero).is_zero()
    assert x.scale(0).is_zero()
    assert x.support() == set(rx)
    for k in labels:
        assert x.coefficient(k) == rx.get(k, zero)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_graded_combination_carries_one_degree(data):
    pairs = st.lists(st.tuples(st.sampled_from(LABELS), laurents()), max_size=6)
    p1, p2, s = data.draw(pairs), data.draw(pairs), data.draw(laurents())
    d, e = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    zero = LaurentPoly.zero()
    x = GradedCombination(_add_terms({}, p1), d)
    y = GradedCombination(_add_terms({}, p2), d)
    rx, ry = reference(p1, zero), reference(p2, zero)
    assert x.terms == rx
    for k in LABELS:
        assert x.coefficient(k) == Coefficient.from_laurent(rx.get(k, zero), d)
    if rx and ry:
        assert (x + y).deg == d
    # scaling by a^e s, given as a Coefficient of one a-degree
    xs = x.scale(Coefficient.from_laurent(s, e))
    assert xs.terms == reference(((k, s * v) for k, v in rx.items()), zero)
    assert xs.is_zero() or xs.deg == d + e
    assert xs == x.scale(s, e) == x.scale(s).scale(Coefficient.a_power(e))
    assert GradedCombination.basis("x", Coefficient.from_laurent(s, e)) == (
        GradedCombination.basis("x").scale(s, e))
    if rx and ry and e:
        with pytest.raises(ValueError):
            x + y.scale(Coefficient.a_power(e))


def test_graded_combination_rejects_non_homogeneous_coefficients():
    # no Coefficient has two a-degrees, so none can reach the graded core
    with pytest.raises(ValueError):
        Coefficient.one() + Coefficient.a_power(1)
    with pytest.raises(ValueError):
        parse_coefficient("1 + q^1*a")
    # nor can the removed map of a-degrees, or a label other than (), build one
    with pytest.raises(ValueError):
        Coefficient({0: LaurentPoly.one(), 1: LaurentPoly.one()})
    with pytest.raises(ValueError):
        Coefficient.basis(1)
    with pytest.raises(ValueError):
        Coefficient.collect([(3, LaurentPoly.one())])
    x = GradedCombination.basis("x")
    with pytest.raises(TypeError):
        x.scale("a")
    assert x.scale(Coefficient.zero()).is_zero()
    assert x.scale(3).coefficient("x") == Coefficient.from_int(3)


@pytest.mark.parametrize("cls, key", [(Element, (0, 1)), (OperatorExpr, (1,)),
                                      (StringElement, 2), (Combination, "x"),
                                      (Coefficient, ())])
def test_basis_with_zero_coefficient_is_zero(cls, key):
    assert cls.basis(key, cls.ring.zero()).is_zero()
    assert str(cls.basis(key, cls.ring.zero())) == "0"
    assert cls.basis(key).coefficient(key) == cls.ring.one()


def test_combinations_of_different_kinds_differ():
    assert Element.basis((0,)) != OperatorExpr.basis((0,))
    assert StringElement.zero() != Element.zero()


def test_text_form_element():
    a = Coefficient.a_power(1)
    x = (Element.basis((1, 0, 2), Coefficient.q_power(1) * a)
         + Element.basis((0, 3, 0), Coefficient.from_int(-2) * a))
    assert str(x) == "(-2*a) * [0,3,0] + (q^1*a) * [1,0,2]"
    assert repr(x) == str(x)
    assert str(Element.basis((2,), Coefficient.q_power(-1))) == "(q^-1) * [2]"


@pytest.mark.parametrize("cls, key", [(Element, (0, 3, 0)),
                                      (StringElement, 2)])
def test_mixed_degree_sum_raises(cls, key):
    x = cls.basis(key, Coefficient.q_power(1))
    y = cls.basis(key, Coefficient.from_int(-2) * Coefficient.a_power(1))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        y - x
    # a zero value has no degree
    z = y - y
    assert z.is_zero() and z + x == x and x + z == x and z == cls.zero()


def test_text_form_operator_expr():
    E, qp = OperatorExpr, Coefficient.q_power
    y = (E.k(1) * E.e(2) * E.k(1, -1) - E.e(2).scale(qp(-1))
         + E.identity().scale(3) + E.e(10) * E.e(2)
         + (E.e(2) * E.e(10)).scale(Coefficient.a_power(2))
         + E.k(0, -1) * E.e(0))
    assert str(y) == ("(3) * 1 + (-q^-1) * e2 + (1) * k0^-1.e0 + (1) * e10.e2"
                      " + (a^2) * e2.e10 + (1) * k1.e2.k1^-1")


def test_text_form_string_element():
    z = (StringElement.basis(2, Coefficient.q_power(2) * Coefficient.a_power(1))
         + StringElement.basis(0, Coefficient.from_laurent(
             LaurentPoly({1: 1, -1: -1}), 1)))
    assert str(z) == "(-q^-1*a + q^1*a) * f^0 + (q^2*a) * f^2"


@pytest.mark.parametrize("cls", [Element, OperatorExpr, StringElement])
def test_text_form_zero(cls):
    assert str(cls.zero()) == "0"


def test_add_terms_mutates_scales_and_deletes_cancelling_sums():
    q = LaurentPoly.q_power
    out = {"x": q(1), "y": q(2)}
    terms = {"x": -q(1), "z": q(3)}
    got = _add_terms(out, terms.items())
    assert got is out
    assert out == {"y": q(2), "z": q(3)}
    assert terms == {"x": -q(1), "z": q(3)}
    # p scales each value before it is added, and a scaled sum can cancel
    p = LaurentPoly({0: 1, 1: 1})
    assert _add_terms(out, {"y": q(1), "z": q(4)}.items(), p) is out
    assert out == {"y": q(2) + p * q(1), "z": q(3) + p * q(4)}
    assert _add_terms(out, {"y": -q(1)}.items(), p * q(1)) is out
    assert out == {"y": q(2) + p * q(1) - p * q(2), "z": q(3) + p * q(4)}
    out = {"y": -(p * q(2))}
    assert _add_terms(out, {"y": q(2)}.items(), p) == {}
    assert _add_terms({}, {"w": q(0)}.items(), p) == {"w": p}
    assert _add_terms(out, ()) is out == {}


def test_add_terms_takes_any_iterable_of_pairs():
    q = LaurentPoly.q_power
    # a generator, read once, with labels repeated within it
    pairs = ((k, q(e)) for k, e in [("x", 1), ("y", 2), ("x", 3)])
    assert _add_terms({"y": q(0)}, pairs) == {"x": q(1) + q(3),
                                              "y": q(0) + q(2)}
    assert next(pairs, None) is None
    # a label that cancels and then reappears holds its last value
    p = LaurentPoly({0: 1, 2: -1})
    assert _add_terms({}, [("x", p), ("x", -p), ("x", p)]) == {"x": p}
    assert _add_terms({}, [("x", p), ("x", -p)]) == {}
    assert _add_terms({}, [("x", q(1)), ("x", -q(1)), ("x", q(1))],
                      p) == {"x": p * q(1)}


@given(st.dictionaries(st.sampled_from(LABELS), laurents().filter(bool)),
       st.dictionaries(st.sampled_from(LABELS), laurents().filter(bool)),
       laurents().filter(bool))
@settings(max_examples=60, deadline=None)
def test_add_terms_is_the_sum_of_combinations(a, b, p):
    # p is nonzero, as every caller's scalar is
    want = reference(list(a.items()) + [(k, p * v) for k, v in b.items()],
                     LaurentPoly.zero())
    got = _add_terms(dict(a), b.items(), p)
    assert all(got.values())
    assert got == want
