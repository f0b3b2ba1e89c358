import random

import pytest

from qborel.coeffring import Coefficient, LaurentPoly, q_integer
from qborel.drinfeld import (CurrentEngine, EllWeight, c_r,
                             ell_weight_of_vacuum, raise_level,
                             string_closure)
from qborel.latticemod import Element, get_module, random_datum
from qborel.microrec import _string_inputs, negative_closed_form
from qborel.opalg import evaluate
from qborel.rootdata import AffineType, o_sign
from qborel.rootvec import alpha_r_string, bracket_E, string_span_values
from test_latticemod import move_pairs


def test_c_r_values():
    # type A: (-1)^{n+1} o(r) (q - q^{-1}) q^{-(n+1)}
    t = AffineType("A", 3, 2)
    qmq = LaurentPoly({1: 1, -1: -1})
    assert c_r(t) == Coefficient.from_laurent(
        qmq * LaurentPoly.q_power(-4, (-1) ** 4 * o_sign(t, 2)))
    # type D: o(r) (q - q^{-1}) q^{-2(n-1)}
    t = AffineType("D", 4, 4)
    assert c_r(t) == Coefficient.from_laurent(
        qmq * LaurentPoly.q_power(-6, o_sign(t, 4)))


def test_ell_weights_do_not_share_a_default_closed_form():
    x, y = EllWeight({1: ()}), EllWeight(psi={2: ()})
    x.closed_form[1] = "trivial"
    assert y.closed_form == {} and x.closed_form == {1: "trivial"}
    form = {}
    assert EllWeight({}, form).closed_form is form


def test_ell_weight_A1_verbatim():
    ell = ell_weight_of_vacuum(AffineType("A", 1, 1), 4)
    assert ell.closed_form[1] == "polynomial"
    assert str(ell.psi[1][1]) == "q^-3*a - q^-1*a"
    assert all(c.is_zero() for c in ell.psi[1][2:])


def test_ell_weight_A3_verbatim():
    ell = ell_weight_of_vacuum(AffineType("A", 3, 2), 4)
    assert ell.closed_form == {1: "trivial", 2: "polynomial", 3: "trivial"}
    assert str(ell.psi[2][1]) == "-q^-5*a + q^-3*a"


def test_ell_weight_first_coefficient_is_minus_acr():
    for t in [AffineType("A", 4, 2), AffineType("D", 4, 1),
              AffineType("D", 5, 5), AffineType("D", 6, 5)]:
        ell = ell_weight_of_vacuum(t, 3)
        assert ell.psi[t.r][1] == -(Coefficient.a_power(1) * c_r(t))
        assert ell.closed_form[t.r] == "polynomial"
        for i in ell.psi:
            if i != t.r:
                assert ell.closed_form[i] == "trivial"


@pytest.mark.parametrize(
    "t", [AffineType("A", n, r) for n in range(2, 7) for r in range(1, n + 1)]
    + [AffineType("D", n, r) for n in range(4, 7) for r in (1, n - 1, n)],
    ids=str)
def test_E1_is_the_bracket(t):
    # one route in every family: E1 at node r is bracket_E applied letter
    # by letter, and zero at every other node, on all data of height <= 2
    # and on two seeded 0/1 data; on A4r2, D5r1 and D5r5 also on four
    # seeded data with entries <= 3, where bracket_E's words branch
    eng = CurrentEngine(t)
    mod = get_module(t)
    rng = random.Random(7)
    data = mod.enumerate_data(height=2)
    data += [random_datum(t, rng, max_entry=1) for _ in range(2)]
    if str(t) in ("A4r2", "D5r1", "D5r5"):
        data += [random_datum(t, rng, max_entry=3) for _ in range(4)]
    x = bracket_E(t)
    for c in data:
        v = Element.basis(c)
        assert eng.E1(t.r, v) == evaluate(x, t, v), c
        for i in range(1, t.n + 1):
            if i != t.r:
                assert eng.E1(i, v).is_zero(), (i, c)


def test_E1_bracket_is_memoised_per_partial_bracket_and_datum(monkeypatch):
    # every partial bracket u_j(c) is computed once: on a random D7r1
    # datum, where the unmemoised walk repeats up to 3 * 2^10 - 2 e-steps,
    # the one-letter _run_word calls (e-steps) and the e_on_datum calls
    # are each at most two per (j, datum) memo entry, plus one
    t = AffineType("D", 7, 1)
    mod = get_module(t)
    c = random_datum(t, random.Random(11), max_entry=10)
    counts = {"e_on_datum": 0, "_run_word": 0}
    for name in counts:
        def counted(*args, f=getattr(mod, name), name=name):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(mod, name, counted)
    eng = CurrentEngine(t)
    out = eng.E1(t.r, Element.basis(c))
    entries = len(eng._memo)
    assert entries and not out.is_zero()
    assert counts["_run_word"] <= 2 * entries + 1, (counts, entries)
    assert counts["e_on_datum"] <= 2 * entries + 1, (counts, entries)


def test_engine_cache_info_equals_a_recount(monkeypatch):
    import qborel.drinfeld as drinfeld
    engines = []

    class Recorded(CurrentEngine):
        def __init__(self, t):
            super().__init__(t)
            engines.append(self)

    monkeypatch.setattr(drinfeld, "CurrentEngine", Recorded)
    ell_weight_of_vacuum(AffineType("D", 5, 5), 3)
    (eng,) = engines
    memo = eng._memo
    info = eng.cache_info()
    assert info == {"entries": len(memo),
                    "terms": sum(len(v) for v in memo.values())}
    assert info["entries"] and info["terms"]


def test_E1_is_the_bracket_on_a_random_D5r5_datum():
    t = AffineType("D", 5, 5)
    v = Element.basis(random_datum(t, random.Random(3), max_entry=6))
    assert CurrentEngine(t).E1(t.r, v) == evaluate(bracket_E(t), t, v)


def test_E_level_requires_positive_k():
    eng = CurrentEngine(AffineType("A", 2, 1))
    with pytest.raises(ValueError):
        eng.E(1, 0, Element.basis(get_module(AffineType("A", 2, 1)).vacuum))


def test_E_rejects_node_outside_range():
    t = AffineType("A", 3, 2)
    eng = CurrentEngine(t)
    vac = Element.basis(get_module(t).vacuum)
    for i in (0, 4, 9):
        with pytest.raises(ValueError, match="outside 1..3"):
            eng.E(i, 1, vac)
        with pytest.raises(ValueError, match="outside 1..3"):
            eng.E1(i, vac)


@pytest.mark.parametrize("family, n, r", [("A", 3, 2), ("D", 4, 4)])
def test_engines_hold_no_reference_cycle(family, n, r):
    # the memo must be freed with its engine, without waiting for the
    # cycle collector
    import gc
    import weakref
    t = AffineType(family, n, r)
    vac = Element.basis(get_module(t).vacuum)
    enabled = gc.isenabled()
    gc.disable()
    try:
        eng = CurrentEngine(t)
        eng.psi_plus(t.r, 3, vac)
        assert eng._memo
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_vacuum_eigenvalue_reads_the_vacuum_line_only():
    from qborel.drinfeld import NotEigenvector, vacuum_eigenvalue
    t = AffineType("A", 3, 2)
    mod = get_module(t)
    vac = mod.vacuum
    w = Element.basis(vac, Coefficient.q_power(3))
    assert vacuum_eigenvalue(w, vac, 2, 1) == Coefficient.q_power(3)
    assert vacuum_eigenvalue(Element.zero(), vac, 2, 1) == Coefficient.zero()
    (other, _), = move_pairs(mod.e_on_datum(0, vac))
    with pytest.raises(NotEigenvector, match="psi\\+_2,1 does not preserve"):
        vacuum_eigenvalue(w + Element.basis(other), vac, 2, 1)


# -- the level step as a commutator ------------------------------------------

def four_term_step(E1, e, Ek, v):
    """The four-term step of the drinfeld docstring, written out term by
    term: the reference that raise_level's commutator form must match.
    The steps act on term maps, which this reference sums as elements."""
    E1, e, Ek = (lambda u, f=f: Element._of(f(u.terms)) for f in (E1, e, Ek))
    v = Element._of(v)
    q_inv2 = Coefficient.q_power(-2)
    four = (E1(e(Ek(v)))
            - e(E1(Ek(v))).scale(q_inv2)
            - Ek(E1(e(v)))
            + Ek(e(E1(v))).scale(q_inv2))
    return (-four.exact_divide(q_integer(2))).terms


def steps(eng, i, k):
    """The engine's E_{d-a_i}, e_i and E_{(k-1)d-a_i} on term maps."""
    return (lambda u: eng._E1(i, u), lambda u: eng._e(i, u),
            lambda u: eng._level(i, k - 1, u))


@pytest.mark.parametrize("t", [AffineType("A", 3, 2), AffineType("D", 4, 4)],
                         ids=str)
def test_raise_level_is_the_four_term_step_on_the_lattice(t):
    eng, mod = CurrentEngine(t), get_module(t)
    rng = random.Random(7)
    vectors = [alpha_r_string(t, m) for m in range(3)]
    vectors += [vectors[0] + vectors[1].scale(Coefficient.q_power(3)),
                Element.basis(random_datum(t, rng, max_entry=2))]
    vectors = [v.terms for v in vectors]
    other = 1 if t.r != 1 else 2
    for k in (2, 3, 4):
        for i in (t.r, other):
            for v in vectors:
                got = raise_level(*steps(eng, i, k), v)
                assert got == four_term_step(*steps(eng, i, k), v), (i, k, v)
                assert eng.E(i, k, Element._of(v)).terms == got
    # On L^+ every level >= 2 vanishes (the l-weight is polynomial), so
    # the identity is also checked on other linear maps: each of the four
    # terms has one E1, so (q + q^{-1}) E1 keeps the division exact, and
    # e_0 with e_r or k_r for E_k gives nonzero values.
    E1q = lambda u: {c: q_integer(2) * p for c, p in eng._E1(t.r, u).items()}
    e0 = lambda u: mod._run_word((0,), u)
    nonzero = 0
    for Ek in (lambda u: mod._run_word((t.r,), u),
               lambda u: mod._run_word((("k", t.r, 1),), u)):
        for v in vectors:
            got = raise_level(E1q, e0, Ek, v)
            assert got == four_term_step(E1q, e0, Ek, v), v
            nonzero += bool(got)
    assert nonzero == 2 * len(vectors)


# -- the string closure ------------------------------------------------------

CRITERION2_TYPES = ([AffineType("A", n, r) for n in range(1, 7)
                     for r in range(1, n + 1)]
                    + [AffineType("D", n, r) for n in range(4, 7)
                       for r in (1, n - 1, n)])


def lattice_inputs(t):
    """string_closure's raising-model inputs: an engine's E_{d-a_r} and
    the lattice module's e_r, the data of 1 and f, and the datum of f^2."""
    (f2,) = alpha_r_string(t, 2).terms
    return _string_inputs(t, "pos"), f2


def lowering_inputs(t):
    """The lowering model's: the quoted scalar on 1 and f, and e_r."""
    return _string_inputs(t, "neg")


def closure_series(inputs, K=6):
    g, rho = string_closure(*inputs)
    return [g * rho ** (k - 1) for k in range(1, K + 1)]


def scaled_on(F, label, c):
    """The term-map function F with its value on label times c (on maps
    of one label, as the closure applies its inputs)."""
    return lambda u: ({x: p * c for x, p in F(u).items()} if label in u
                      else F(u))


@pytest.mark.parametrize("t", CRITERION2_TYPES, ids=str)
def test_string_closure_is_the_level_engine_on_the_lattice(t):
    # gamma_1 rho^{k-1} is CurrentEngine.E(r, k, 1) read at f, k <= 6: the
    # level-by-level route is the reference
    eng = CurrentEngine(t)
    inputs, _ = lattice_inputs(t)
    one, f = inputs[2:]
    for k, g in enumerate(closure_series(inputs), start=1):
        v = eng.E(t.r, k, Element.basis(one))
        assert v.terms.keys() <= {f}, (k, v)
        assert v.coefficient(f) == Coefficient.from_laurent(g, k), k


@pytest.mark.parametrize("t", [AffineType("A", 2, 1), AffineType("A", 3, 2),
                               AffineType("D", 4, 4), AffineType("D", 5, 1)],
                         ids=str)
def test_string_closure_catches_wrong_inputs(t):
    # a wrong e_r coefficient on f^2, a wrong E_{d-a_r} on f and (on the
    # lattice) E_{d-a_r} read at a node other than r each change the
    # series, in both models
    q = LaurentPoly.q_power(1)
    eng = CurrentEngine(t)
    (E1, e, one, f), f2 = lattice_inputs(t)
    other = 1 if t.r != 1 else 2
    mutants = [(E1, scaled_on(e, f2, q), one, f),
               (scaled_on(E1, f, q), e, one, f),
               ((lambda u: eng._E1(other, u)), e, one, f)]
    reference = closure_series((E1, e, one, f))
    assert reference[0] == string_span_values(t)[0].a_terms[1]
    for inputs in mutants:
        assert closure_series(inputs) != reference
    E1, e, one, f = lowering_inputs(t)
    reference = [negative_closed_form(t, k).a_terms[k] for k in range(1, 7)]
    assert closure_series((E1, e, one, f)) == reference
    for inputs in [(E1, scaled_on(e, f2, q), one, f),
                   (scaled_on(E1, f, q), e, one, f)]:
        assert closure_series(inputs) != reference


@pytest.mark.parametrize("model", ["pos", "neg"])
def test_string_closure_rejects_a_nondiagonal_bracket(model):
    # e_r f gains a term at f itself, so B f leaves the line of f
    t = AffineType("A", 3, 2)
    E1, e, one, f = (lattice_inputs(t)[0] if model == "pos"
                     else lowering_inputs(t))
    e_bad = lambda u: {**u, **e(u)} if f in u else e(u)
    with pytest.raises(AssertionError, match="B is not diagonal on"):
        string_closure(E1, e_bad, one, f)
