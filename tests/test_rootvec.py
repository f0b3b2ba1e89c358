import pytest

from qborel.coeffring import Coefficient, LaurentPoly
from qborel.latticemod import Element
from qborel.opalg import evaluate
from qborel.rootdata import AffineType
from qborel.rootvec import (Unsupported, alpha_r_string, catalog_entry,
                            string_span_values, full_E_typeA, hardcoded_full_E,
                            leading_E, string_coefficient,
                            verified_domain_check)


def test_full_E_word_structure_family_A():
    # each word uses each letter of {0..n} except r exactly once, no word
    # ends in e_r, and exactly one word ends in e_0
    for n in range(2, 7):
        for r in range(1, n + 1):
            x = full_E_typeA(n, r)
            enders = []
            for w in x.support():
                assert sorted(w) == sorted(set(range(n + 1)) - {r})
                assert w[-1] != r
                enders.append(w[-1])
            assert enders.count(0) == 1


def test_full_E_leading_term():
    # the unique 0-terminated word of the full expression carries the
    # leading scalar and equals the leading word up to commuting swaps
    from qborel.rootdata import braid_equivalent
    for n in range(2, 7):
        for r in range(1, n + 1):
            t = AffineType("A", n, r)
            lead = leading_E(t, r)
            (lw, lc), = lead.terms.items()
            x = full_E_typeA(n, r)
            (w0,) = [w for w in x.support() if w[-1] == 0]
            assert braid_equivalent(t, w0, lw)
            assert x.terms[w0] == lc


def test_full_vs_hardcoded_A3():
    # evaluation equality on a graded basis, not free-word equality
    from qborel.latticemod import get_module
    for r in (1, 2, 3):
        t = AffineType("A", 3, r)
        full = full_E_typeA(3, r)
        hard = hardcoded_full_E(t).full
        mod = get_module(t)
        for c in mod.enumerate_data(height=5):
            v = Element.basis(c)
            assert evaluate(full, t, v) == evaluate(hard, t, v)


def test_hardcoded_leading_words_D():
    for key in [("D", 4, 1), ("D", 4, 4), ("D", 5, 5)]:
        t = AffineType(*key)
        entry = hardcoded_full_E(t)
        assert entry.leading == leading_E(t, t.r)
    with pytest.raises(Unsupported):
        hardcoded_full_E(AffineType("D", 6, 6))


def test_catalog_zero_off_node():
    t = AffineType("A", 3, 2)
    assert catalog_entry(t, 1).provenance == "zero"
    assert catalog_entry(t, 1).leading.is_zero()
    assert catalog_entry(t, 2).provenance == "recursion"


def test_string_span_values_on_string():
    for t in [AffineType("A", 2, 1), AffineType("A", 5, 3),
              AffineType("D", 4, 4), AffineType("D", 5, 4),
              AffineType("D", 6, 1)]:
        v1, v2 = string_span_values(t)
        entry = catalog_entry(t, t.r)
        op = entry.full if entry.full is not None else entry.leading
        assert string_coefficient(
            t, evaluate(op, t, alpha_r_string(t, 0)), 1) == v1
        assert string_coefficient(
            t, evaluate(op, t, alpha_r_string(t, 1)), 2) == v2


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
