import pytest

from qborel import microrec
from qborel.coeffring import Coefficient, LaurentPoly, q_integer
from qborel.drinfeld import c_r
from qborel.opalg import OperatorExpr
from qborel.microrec import (_run_word, negative_closed_form,
                             negative_ell_weight, rank_one_serre_check,
                             string_recurrence)
from qborel.rootdata import AffineType, dual_coxeter, o_sign
from qborel.rootvec import string_span_values


def test_rank_one_suite():
    rep = rank_one_serre_check(20)
    assert rep.passed, "\n".join(rep.lines)


def test_rank_one_generators():
    f2 = {2: LaurentPoly.one()}
    for model in ("pos", "neg"):
        # e_1 f^2 = q^{-1} [2] f
        assert _run_word(model, (1,), f2) == {
            1: LaurentPoly.q_power(-1) * q_integer(2)}
        # diagonal: k_1 f^m = q^{-2m} f^m, k_0 f^m = q^{2m} f^m
        assert _run_word(model, (("k", 1, 1),), f2) == {2: LaurentPoly.q_power(-4)}
        assert _run_word(model, (("k", 0, 1),), f2) == {2: LaurentPoly.q_power(4)}
        assert _run_word(model, (("k", 1, -1),), f2) == {2: LaurentPoly.q_power(4)}
        assert _run_word(model, (("k", 0, -1),), f2) == {2: LaurentPoly.q_power(-4)}
        # the empty word is the identity on the map itself
        assert _run_word(model, (), f2) is f2
    # raising model: e_0 f^m = a q^{2m} f^{m+1}; lowering: a f^{m+1}; the
    # factor a is the caller's
    assert _run_word("pos", (0,), f2) == {3: LaurentPoly.q_power(4)}
    assert _run_word("neg", (0,), f2) == {3: LaurentPoly.one()}
    assert _run_word("pos", (1,), {0: LaurentPoly.one()}) == {}
    # a word applies its letters in order: e_1 then e_0 on f^2
    assert _run_word("pos", (1, 0), f2) == {
        2: LaurentPoly.q_power(1) * q_integer(2)}


@pytest.mark.parametrize("model", ["bogus", "POS", ""])
def test_unknown_model_is_rejected(model):
    with pytest.raises(ValueError, match="model must be pos or neg"):
        string_recurrence(AffineType("A", 3, 2), model, 3)


def _mutant(letter_map):
    """microrec._run_word with some letters replaced: letter_map(model, x)
    gives a term-map function for the letter x, or None to keep it."""
    def run_word(model, word, terms):
        for x in word:
            f = letter_map(model, x)
            terms = f(terms) if f else _run_word(model, (x,), terms)
        return terms
    return run_word


def _lowering_e0(power):
    return _mutant(lambda model, x: (
        lambda terms: {m + 1: c.shift(power * m) for m, c in terms.items()})
        if model == "neg" and x == 0 else None)


def _lines(rep):
    return {line.split()[1]: line for line in rep.lines}


def test_rank_one_suite_catches_a_lowering_e0_with_q_power_m(monkeypatch):
    monkeypatch.setattr(microrec, "_run_word", _lowering_e0(1))
    rep = rank_one_serre_check(6)
    assert not rep.passed
    lines = _lines(rep)
    assert lines["rank1-serre-neg"].startswith("CHECK rank1-serre-neg FAIL")
    assert " PASS" in lines["rank1-serre-pos"]


def test_rank_one_suite_catches_a_lowering_e0_with_q_power_2m(monkeypatch):
    # the raising model's e_0 in the lowering model: the Serre relations
    # hold, and only the transcribed expansion lines can see it
    monkeypatch.setattr(microrec, "_run_word", _lowering_e0(2))
    rep = rank_one_serre_check(6)
    assert not rep.passed
    lines = _lines(rep)
    assert " PASS" in lines["rank1-serre-neg"]
    assert " PASS" in lines["rank1-k-conjugation"]
    assert any(name.startswith("rank1-expansion-neg-") for name in lines)
    assert not any(name.startswith("rank1-expansion-pos-") for name in lines)
    assert "FAIL" in lines["rank1-expansions"]


def test_rank_one_suite_catches_a_k1_sign_flip(monkeypatch):
    monkeypatch.setattr(microrec, "_run_word", _mutant(
        lambda model, x: (lambda terms: _run_word(model, (("k", 1, -x[2]),), terms))
        if x.__class__ is tuple and x[1] == 1 else None))
    rep = rank_one_serre_check(6)
    assert not rep.passed
    lines = _lines(rep)
    assert lines["rank1-k-conjugation"] == \
        "CHECK rank1-k-conjugation FAIL both models, m <= 5"
    assert " PASS" in lines["rank1-serre-pos"] and " PASS" in lines["rank1-serre-neg"]


def test_rank_one_lines_are_built_from_their_own_results(monkeypatch):
    # a Serre relation replaced by e_0 fails at every m, each m listed
    # once, and leaves the expansion line alone
    monkeypatch.setattr(microrec, "serre_expr",
                        lambda i, j, t: OperatorExpr.e(0))
    rep = rank_one_serre_check(3)
    lines = _lines(rep)
    for model in ("pos", "neg"):
        assert lines[f"rank1-serre-{model}"] == \
            f"CHECK rank1-serre-{model} FAIL fails at [0, 1, 2, 3]"
    assert lines["rank1-expansions"] == \
        "CHECK rank1-expansions PASS both models, m <= 5"
    assert " PASS" in lines["rank1-k-conjugation"]
    assert not rep.passed
    assert rep.line() == "CHECK rank1-suite FAIL"


def test_string_recurrence_positive_terminates():
    # raising model, read off the lattice module: gamma_1 is the closed
    # form and every later gamma_k is zero (the l-weight is polynomial)
    types = ([AffineType("A", n, r) for n in range(1, 7)
              for r in range(1, n + 1)]
             + [AffineType("D", n, r) for n in range(4, 7)
                for r in (1, n - 1, n)])
    for t in types:
        g = string_recurrence(t, "pos", 6)
        assert g[0] == string_span_values(t)[0], t
        assert len(g) == 6 and all(c.is_zero() for c in g[1:]), t


@pytest.mark.parametrize("model", ["pos", "neg"])
def test_string_recurrence_rejects_a_term_off_f(model, monkeypatch):
    # each model's closure with the input term map added to E_{d-a_r}'s
    # value, so that E_1.1 gains the term 1
    closure = microrec.string_closure
    monkeypatch.setattr(microrec, "string_closure", lambda E1, *rest: closure(
        lambda u: {**u, **E1(u)}, *rest))
    with pytest.raises(AssertionError, match=r"E_1\.1 is not a multiple of f"):
        string_recurrence(AffineType("A", 3, 2), model, 2)


def test_string_recurrence_negative_closed_forms():
    for t in [AffineType("A", 1, 1), AffineType("A", 4, 2),
              AffineType("D", 4, 4), AffineType("D", 6, 1)]:
        g = string_recurrence(t, "neg", 8)
        for k in range(1, 9):
            assert g[k - 1] == negative_closed_form(t, k), (t, k)


def test_negative_closed_form_shape():
    # gamma_k carries a^k and (q - q^{-1})^{k-1}
    t = AffineType("A", 2, 1)
    g3 = negative_closed_form(t, 3)
    assert set(g3.a_terms) == {3}
    assert negative_closed_form(t, 1) == Coefficient.from_laurent(
        LaurentPoly.q_power(-1, -1)) * Coefficient.a_power(1)


def test_negative_ell_weight_geometric():
    for t in [AffineType("A", 1, 1), AffineType("A", 3, 2),
              AffineType("D", 4, 4), AffineType("D", 5, 4)]:
        ell = negative_ell_weight(t, 6)
        assert ell.closed_form[t.r] == "geometric"
        geom = -(Coefficient.a_power(1) * c_r(t))
        for k in range(7):
            assert ell.psi[t.r][k] == geom ** k
        for i in ell.psi:
            if i != t.r:
                assert ell.closed_form[i] == "trivial"


def test_negative_A1_unconditional_k20():
    t = AffineType("A", 1, 1)
    g = string_recurrence(t, "neg", 20)
    qmq = Coefficient.from_laurent(LaurentPoly({1: 1, -1: -1}))
    for k in range(1, 21):
        expected = (Coefficient.from_laurent(
            LaurentPoly.q_power(-2 * k + 2, (-1) ** (k - 1)))
            * (qmq ** (k - 1)) * Coefficient.a_power(k))
        assert g[k - 1] == expected


@pytest.mark.parametrize("K", [0, -3])
def test_string_jobs_reject_nonpositive_K(K):
    t = AffineType("A", 3, 2)
    for model in ("pos", "neg"):
        with pytest.raises(ValueError, match="K must be >= 1"):
            string_recurrence(t, model, K)
    with pytest.raises(ValueError, match="K must be >= 1"):
        negative_ell_weight(t, K)


def test_rank_one_rejects_negative_height():
    with pytest.raises(ValueError, match="M must be >= 0"):
        rank_one_serre_check(-1)


# -- the closed forms in the dual Coxeter number ---------------------------
#
# The per-family formulas that the h^v forms replaced, kept as the
# reference: A_n has h^v = n + 1 and D_n has h^v = 2n - 2.

QMQ = Coefficient.from_laurent(LaurentPoly({1: 1, -1: -1}))


def family_c_r(t):
    n = t.n
    if t.family == "A":
        sign = (-1) ** (n + 1) * o_sign(t, t.r)
        return QMQ * Coefficient.from_laurent(LaurentPoly.q_power(-(n + 1), sign))
    return QMQ * Coefficient.from_laurent(
        LaurentPoly.q_power(-2 * (n - 1), o_sign(t, t.r)))


def family_string_span_values(t):
    n = t.n
    a = Coefficient.a_power(1)
    if t.family == "A":
        g1 = Coefficient.from_laurent(LaurentPoly.q_power(-(n - 1), (-1) ** (n - 1)))
        return g1 * a, g1 * Coefficient.q_power(2) * a
    return (Coefficient.q_power(-2 * n + 4) * a,
            Coefficient.q_power(-2 * n + 6) * a)


def family_negative_closed_form(t, k):
    n = t.n
    qmq_pow = QMQ ** (k - 1)
    a_k = Coefficient.a_power(k)
    if t.family == "A":
        sign = (-1) ** (k * n - 1)
        return (Coefficient.from_laurent(
            LaurentPoly.q_power(-k * (n + 1) + 2, sign)) * qmq_pow * a_k)
    sign = (-1) ** (k - 1)
    return (Coefficient.from_laurent(
        LaurentPoly.q_power(-2 * k * (n - 1) + 2, sign)) * qmq_pow * a_k)


CLOSED_FORM_TYPES = ([AffineType("A", n, r) for n in range(1, 10)
                      for r in range(1, n + 1)]
                     + [AffineType("D", n, r) for n in range(4, 10)
                        for r in (1, n - 1, n)])


@pytest.mark.parametrize("t", CLOSED_FORM_TYPES, ids=str)
def test_closed_forms_in_the_dual_coxeter_number(t):
    assert dual_coxeter(t) == (t.n + 1 if t.family == "A" else 2 * t.n - 2)
    assert c_r(t) == family_c_r(t)
    assert string_span_values(t) == family_string_span_values(t)
    for k in range(1, 9):
        assert negative_closed_form(t, k) == family_negative_closed_form(t, k)
