import math

import pytest
from hypothesis import given, settings, strategies as st

from qborel.coeffring import (Coefficient, LaurentPoly, NotDivisible,
                              _width_for, parse_coefficient, q_binomial,
                              q_factorial, q_integer)


def lp(d):
    return LaurentPoly(d)


def test_laurent_basic_arithmetic():
    x = lp({1: 1, -1: 1})
    y = lp({0: 2})
    assert x + y == lp({1: 1, 0: 2, -1: 1})
    assert x - x == lp({})
    assert x * y == lp({1: 2, -1: 2})
    assert x ** 2 == lp({2: 1, 0: 2, -2: 1})
    assert (-x) + x == LaurentPoly.zero()


def test_q_integer_values():
    assert q_integer(0) == LaurentPoly.zero()
    assert q_integer(1) == lp({0: 1})
    assert q_integer(2) == lp({1: 1, -1: 1})
    assert q_integer(3) == lp({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        q_integer(-2)


def test_q_integer_eval_at_one():
    for m in range(0, 7):
        assert q_integer(m).eval_at_one() == m


@pytest.mark.parametrize("m", [5, 62, 63, 64, 65, 300])
def test_q_integer_inside_and_beyond_the_table(m):
    # the small q-integers come from a fixed table, larger ones are built
    assert q_integer(m) == lp({k: 1 for k in range(1 - m, m, 2)})
    assert q_integer(m) * q_integer(2) == q_integer(m + 1) + q_integer(m - 1)


@pytest.mark.parametrize("m", [2 ** 15 - 1, 2 ** 15])
def test_q_integer_at_the_narrow_width_boundary(m):
    # ||[m]_q||_1 = m: 16-bit digits hold it below 2^15, 64-bit ones above
    p = q_integer(m)
    assert p.b == (16 if m < 2 ** 15 else 64) == _width_for(m)
    assert dict(p.terms) == {k: 1 for k in range(1 - m, m, 2)}
    assert p.eval_at_one() == m


@pytest.mark.parametrize("e", [-65, -64, 0, 63, 64])
@pytest.mark.parametrize("m", [0, 1, 63, 64, 65])
def test_shifted_q_integer(m, e):
    assert q_integer(m, e) == q_integer(m).shift(e)
    assert q_integer(m, e) == lp({e + k: 1 for k in range(1 - m, m, 2)})
    # inside the table equal values are one object; outside it none is kept
    inside = m < 64 and -64 <= e < 64
    assert (q_integer(m, e) is q_integer(m, e)) == inside


@pytest.mark.parametrize("e", [0, 5, -100])
def test_shifted_q_integer_needs_m_nonnegative(e):
    with pytest.raises(ValueError, match="m >= 0"):
        q_integer(-1, e)


def test_q_binomial_example():
    # [4 choose 2]_q
    assert q_binomial(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binomial(5, 0) == lp({0: 1})
    assert q_binomial(5, 5) == lp({0: 1})


def test_q_binomial_symmetry_and_counting():
    for n in range(8):
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert b.bar() == b  # bar-invariant
            import math
            assert b.eval_at_one() == math.comb(n, k)


def binomial_by_division(m, k):
    """[m choose k]_q as [m-k+1]_q ... [m]_q divided exactly by [k]_q!."""
    num = LaurentPoly.one()
    for j in range(m - k + 1, m + 1):
        num = num * q_integer(j)
    return num.exact_divide(q_factorial(k))


def test_q_binomial_is_the_quotient_of_q_factorials():
    for m in range(13):
        for k in range(m + 1):
            assert q_binomial(m, k) == binomial_by_division(m, k), (m, k)


def test_q_factorial_degree():
    f = q_factorial(4)
    assert f.eval_at_one() == 24


def test_exact_division_success():
    num = q_integer(2) * q_integer(3)
    assert Coefficient.from_laurent(num).exact_divide(q_integer(2)) \
        == Coefficient.from_laurent(q_integer(3))


def test_exact_division_failure():
    num = Coefficient.from_laurent(lp({1: 1, 0: 1}))  # q + 1
    with pytest.raises(NotDivisible):
        num.exact_divide(q_integer(2))  # q + q^-1
    with pytest.raises(NotDivisible):
        lp({0: 1, 1: 3}).exact_divide(lp({0: 1, 1: 2}))  # floor quotient 1


def test_bar_involution():
    x = lp({3: 2, -1: -5})
    assert x.bar() == lp({-3: 2, 1: -5})
    assert x.bar().bar() == x


def test_coefficient_ring_ops():
    a = Coefficient.a_power(1)
    q = Coefficient.q_power(1)
    # a Coefficient is a^d p: a sum of two a-degrees does not exist
    with pytest.raises(ValueError):
        q * a + Coefficient.one()
    with pytest.raises(ValueError):
        Coefficient.one() + Coefficient.a_power(1)
    c = q * a + 2 * a
    assert str(c) == "2*a + q^1*a"
    assert c.a_terms == {1: lp({0: 2, 1: 1})}
    assert c - c == Coefficient.zero()
    # zero has no degree
    assert (c - c) + Coefficient.one() == Coefficient.one() == 1
    # a LaurentPoly and a Coefficient of degree 0 compare alike both ways
    assert LaurentPoly.one() == Coefficient.one() == LaurentPoly.one()
    assert not LaurentPoly.one() != Coefficient.one()
    assert not Coefficient.one() != LaurentPoly.one()
    assert lp({1: 1}) != Coefficient.one() and Coefficient.one() != lp({1: 1})
    assert lp({0: 1}) != a and a != lp({0: 1})
    assert LaurentPoly.one() != "1" and not LaurentPoly.one() == None
    assert (a ** 3) * (a ** 2) == Coefficient.a_power(5)
    assert Coefficient.from_laurent(lp({2: 3}), 4) == (
        Coefficient.from_int(3) * q ** 2 * a ** 4)


def test_coefficient_str_canonical():
    c = (Coefficient.q_power(-3) - Coefficient.q_power(-1)) * Coefficient.a_power(1)
    assert str(c) == "q^-3*a - q^-1*a"
    assert str(Coefficient.zero()) == "0"
    assert str(-Coefficient.one()) == "-1"


def test_parse_roundtrip_fixed():
    for s in ["q^-3*a - q^-1*a", "2 + q^1", "-q^-5*a + q^3*a", "2*q^4*a^2", "0"]:
        assert str(parse_coefficient(s)) == s
    # text with two a-degrees is no Coefficient
    for s in ["1 + q^1*a", "q^-1*a^2 - a^3"]:
        with pytest.raises(ValueError):
            parse_coefficient(s)
    # nor is empty text, or text with an empty monomial
    for s in ["", "  ", "+", "q^1 +", "+ q^1", "q^1 + + q^2"]:
        with pytest.raises(ValueError):
            parse_coefficient(s)
    # nor is text that parses but does not print back to itself
    for s in ["q^2 + q^1", "q^1 + q^1", "1*q^1", "q^0", "a^1", "0*q^1",
              "q^1+q^2", "q ^ 1"]:
        with pytest.raises(ValueError, match="not canonical"):
            parse_coefficient(s)


# a^d p with one a-degree d and p a small Laurent polynomial
coeff_strategy = st.builds(
    Coefficient.from_laurent,
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9).filter(bool),
                    max_size=6).map(LaurentPoly),
    st.integers(0, 4))


@given(coeff_strategy, coeff_strategy)
def test_parse_roundtrip_random(c, other):
    assert parse_coefficient(str(c)) == c
    if c and other and other.deg != c.deg:
        with pytest.raises(ValueError):
            parse_coefficient(f"{c} + {other}")


@given(coeff_strategy, coeff_strategy)
def test_ring_commutativity(x, y):
    assert x * y == y * x
    if x and y and x.deg != y.deg:
        with pytest.raises(ValueError):
            x + y
    # y's Laurent part at x's a-degree
    y = Coefficient.from_laurent(sum(y.a_terms.values(), lp({})), x.deg)
    assert x + y == y + x
    assert (x + y) * x == x * x + y * x


@given(st.integers(1, 8), st.integers(1, 8))
def test_q_integer_multiplicative_divisibility(m, k):
    # [mk] is divisible by [m]
    prod = q_integer(m * k)
    out = Coefficient.from_laurent(prod).exact_divide(q_integer(m))
    assert out * Coefficient.from_laurent(q_integer(m)) \
        == Coefficient.from_laurent(prod)


# -- the packed kernel across digit widths --------------------------------
#
# A dict of q-exponent -> coefficient is the reference: every operation of
# the packed kernel must agree with these few lines of schoolbook
# arithmetic, whatever digit width the packed values reach.

def ref_add(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def ref_mul(x, y):
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


# coefficients near a digit width's half, where a sum or product must
# move to a wider digit: +-(2^(64j-2) +- 1) for the 64-bit multiples,
# and for the 16-bit digit +-(2^14 +- 1), whose sums cross 2^15,
# +-(2^15 +- 1) on either side of it, and +-(2^7 +- 1) and +-(2^8 +- 1),
# whose products cross it
near_width = st.one_of(
    st.builds(lambda j, sign, e: sign * (2 ** (64 * j - 2) + e),
              st.integers(1, 4), st.sampled_from([1, -1]),
              st.integers(-1, 1)),
    st.builds(lambda k, sign, e: sign * (2 ** k + e),
              st.sampled_from([7, 8, 14, 15]), st.sampled_from([1, -1]),
              st.integers(-1, 1)))
big_int = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200),
                    near_width)
big_terms = st.dictionaries(st.integers(-60, 60), big_int.filter(bool),
                            max_size=8)


@given(big_terms, big_terms)
def test_packed_ring_ops_match_reference(d1, d2):
    x, y = lp(d1), lp(d2)
    assert dict(x.terms) == d1 and dict(y.terms) == d2
    assert dict((x * y).terms) == ref_mul(d1, d2)
    assert dict((x + y).terms) == ref_add(d1, d2)
    assert dict((x - y).terms) == ref_add(d1, d2, -1)
    assert dict((-x).terms) == {k: -v for k, v in d1.items()}
    assert dict((x * 3).terms) == {k: 3 * v for k, v in d1.items()}
    assert (x * y).eval_at_one() == sum(ref_mul(d1, d2).values())
    assert dict(x.bar().terms) == {-k: v for k, v in d1.items()}


@given(big_terms, big_terms)
def test_packed_cancellation_is_exactly_zero(d1, d2):
    x, y = lp(d1), lp(d2)
    prod = x * y
    assert (prod - y * x).is_zero()
    assert prod - y * x == LaurentPoly.zero()
    assert not (x - x)
    assert (prod + x) - prod == x
    assert ((x + y) * (x - y)) - (x * x - y * y) == 0


@given(big_terms, big_terms.filter(bool))
def test_packed_exact_division(d1, d2):
    x, y = lp(d1), lp(d2)
    assert (x * y).exact_divide(y) == x
    if x and len(d2) > 1:
        with pytest.raises(NotDivisible):
            (x * y + LaurentPoly.q_power(min(d1) + min(d2) - 1)).exact_divide(y)


@given(big_terms.filter(bool))
def test_equal_values_at_different_widths(d):
    x = lp(d)
    huge = LaurentPoly({0: 2 ** 600, 7: -(2 ** 599)})
    y = (x + huge) - huge          # same value, carried at a wider width
    assert y.b > x.b
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert Coefficient.from_laurent(x) == Coefficient.from_laurent(y)
    assert hash(Coefficient.from_laurent(x)) == hash(Coefficient.from_laurent(y))
    # equal values of the three kinds hash alike, so each set holds one
    assert len({1, LaurentPoly.one(), Coefficient.one()}) == 1
    assert len({0, LaurentPoly.zero(), Coefficient.zero(),
                Coefficient.from_laurent(LaurentPoly.zero(), 3)}) == 1
    assert len({-5, LaurentPoly.from_int(-5), Coefficient.from_int(-5)}) == 1
    qmq = LaurentPoly({1: 1, -1: -1})
    assert len({qmq, Coefficient.from_laurent(qmq)}) == 1
    assert len({qmq, Coefficient.from_laurent(qmq, 1), 1}) == 3
    assert {Coefficient.one(): "c"}.get(LaurentPoly.one()) == "c"


def test_binomial_power_coefficients():
    p = lp({0: 1, 1: 1}) ** 200
    assert dict(p.terms) == {j: math.comb(200, j) for j in range(201)}
    assert p.eval_at_one() == 2 ** 200


def test_long_power_roundtrips_through_text():
    qmq = Coefficient.from_laurent(lp({1: 1, -1: -1}))
    c = qmq ** 149
    assert parse_coefficient(str(c)) == c
    terms = c.a_terms[0].terms
    assert terms[149] == 1 and terms[-149] == -1 and len(terms) == 150


def test_terms_is_read_only_and_power_needs_nonnegative_exponent():
    x = lp({1: 2})
    with pytest.raises(TypeError):
        x.terms[0] = 1
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        Coefficient.from_laurent(x) ** -1


@given(big_terms, st.integers(-200, 200))
def test_shift_is_multiplication_by_a_q_power(d, e):
    p = lp(d)
    assert p.shift(e) == p * LaurentPoly.q_power(e)
    assert dict(p.shift(e).terms) == {k + e: c for k, c in d.items()}
    assert p.shift(e).shift(-e) == p


# -- packed division and powers -------------------------------------------

@given(big_terms, big_terms.filter(bool))
def test_exact_divide_agrees_with_long_division(d1, d2):
    x, y = lp(d1), lp(d2)
    for num in (x * y, x * y + LaurentPoly.q_power(min(d1, default=0) + 1),
                x):
        try:
            expected = num._long_divide(y) if num else LaurentPoly.zero()
        except NotDivisible:
            with pytest.raises(NotDivisible):
                num.exact_divide(y)
        else:
            assert num.exact_divide(y) == expected


def _count_long_divisions(monkeypatch):
    seen = []
    long_divide = LaurentPoly._long_divide

    def counted(self, den):
        seen.append(den)
        return long_divide(self, den)

    monkeypatch.setattr(LaurentPoly, "_long_divide", counted)
    return seen


def test_exact_divide_falls_back_when_digits_may_carry(monkeypatch):
    # (1 - 2q) sum_{k<62} 2^k q^k = 1 - 2^62 q^62 packs at width 64, but
    # the quotient's norm times 3 passes 2^63: its digits could carry
    seen = _count_long_divisions(monkeypatch)
    den = lp({0: 1, 1: -2})
    quot = lp({k: 2 ** k for k in range(62)})
    num = lp({0: 1, 62: -(2 ** 62)})
    assert num == den * quot and num.b == 64
    assert num.exact_divide(den) == quot
    assert len(seen) == 1


def test_exact_divide_falls_back_when_16_bit_digits_may_carry(monkeypatch):
    # (1 - 2q) sum_{k<14} 2^k q^k = 1 - 2^14 q^14 packs at width 16, but
    # the quotient's norm times 3 passes 2^15: its digits could carry
    seen = _count_long_divisions(monkeypatch)
    den = lp({0: 1, 1: -2})
    quot = lp({k: 2 ** k for k in range(14)})
    num = lp({0: 1, 14: -(2 ** 14)})
    assert num == den * quot and num.b == den.b == 16
    assert num.exact_divide(den) == quot
    assert len(seen) == 1


def test_exact_divide_rejects_a_whole_integer_quotient_that_carries(
        monkeypatch):
    # at the operands' width b, 1 - X^(b+1) is a multiple of 1 - 2X at
    # X = 2^b, since 2^(b(b+1)) = 1 modulo 2^(b+1) - 1, but 1 - q^(b+1)
    # has no root at q = 1/2
    seen = _count_long_divisions(monkeypatch)
    den = lp({0: 1, 1: -2})
    b = den.b
    num = lp({0: 1, b + 1: -1})
    assert num.b == b
    assert not num.n % den.n
    with pytest.raises(NotDivisible):
        num.exact_divide(den)
    assert len(seen) == 1


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-20, 20), big_int.filter(bool),
                       max_size=4), st.integers(0, 12))
def test_power_is_the_repeated_product(d, k):
    x = lp(d)
    product = LaurentPoly.one()
    for _ in range(k):
        product = product * x
    assert x ** k == product
    assert Coefficient.from_laurent(x, 2) ** k == Coefficient.from_laurent(
        x ** k, 2 * k)


def test_negative_a_degrees_roundtrip_through_text():
    for c in (Coefficient.a_power(-1),
              Coefficient.from_laurent(lp({2: 1}), -3),
              Coefficient.from_laurent(lp({-1: 2, 3: -1}), -12)):
        assert parse_coefficient(str(c)) == c
    assert str(Coefficient.a_power(-1)) == "a^-1"
    assert parse_coefficient("q^2*a^-3").a_terms == {-3: lp({2: 1})}


def test_power_after_a_cancellation_runs_at_the_norm_width():
    # the tracked bound of x is about 2^602, its norm 2: the power must
    # not run at the width of the bound's 12th power
    q = lp({1: 1})
    huge = lp({0: 2 ** 600, 7: -(2 ** 599)})
    x = (LaurentPoly.one() + q + huge) - huge
    assert x.m > 2 ** 600
    y = x ** 12
    assert y == (LaurentPoly.one() + q) ** 12
    assert y.b == _width_for(4096)
    assert dict(y.terms) == {k: math.comb(12, k) for k in range(13)}
