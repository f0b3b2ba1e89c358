import gc
import random
import tracemalloc
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from qborel import latticemod
from qborel.chars import module_character
from qborel.coeffring import (_ONE, _Q_INTEGERS, Coefficient, LaurentPoly,
                              _build_q_integer, q_integer)
from qborel.latticemod import Element, LatticeModule, get_module, random_datum
from qborel.opalg import (OperatorExpr, defining_relations, evaluate,
                          k_e_conjugation_expr, run_expression)
from qborel.rootdata import (AffineType, pairing, positive_roots_wr,
                             simple_root, theta)


def move_pairs(entry):
    """The (datum, coefficient) pairs of an e_on_datum entry, which holds
    them flat as (d1, p1, d2, p2, ...)."""
    assert len(entry) % 2 == 0, entry
    it = iter(entry)
    return tuple(zip(it, it))


def _wt(mod, c):
    """-sum c_beta beta, in simple-root coordinates; its coordinates sum
    to minus the height of c."""
    return tuple(-sum(m * b[j] for m, b in zip(c, mod.roots))
                 for j in range(mod.t.n))


def test_vacuum_and_weights():
    t = AffineType("A", 2, 1)
    mod = get_module(t)
    assert _wt(mod, mod.vacuum) == (0, 0)
    one = [0] * mod.nroots
    one[mod.alpha_r_idx] = 1
    assert _wt(mod, tuple(one)) == (-1, 0)


def test_e0_adds_theta():
    for t in [AffineType("A", 3, 2), AffineType("D", 4, 4), AffineType("D", 5, 1)]:
        mod = get_module(t)
        out = mod.apply_e(0, Element.basis(mod.vacuum))
        assert len(out.terms) == 1
        (c,) = out.terms
        assert c[mod.theta_idx] == 1 and sum(c) == 1
        # coefficient is a * q^0 on the vacuum
        assert out.coefficient(c) == Coefficient.a_power(1)


def test_e0_powers_raise_the_a_degree():
    # the a-degree of e_0^k on the vacuum is k; e_i and k_i keep it
    for t in [AffineType("A", 3, 2), AffineType("D", 4, 4)]:
        mod = get_module(t)
        v = Element.basis(mod.vacuum)
        for k in range(1, 5):
            v = mod.apply_e(0, v)
            assert not v.is_zero() and v.deg == k
            assert all(c.a_terms.keys() == {k}
                       for c in map(v.coefficient, v.terms))
            assert mod.apply_k(0, 1, v).deg == k
        raised = [mod.apply_e(i, v) for i in range(1, t.n + 1)]
        assert any(not w.is_zero() for w in raised)
        assert all(w.deg == 4 for w in raised if not w.is_zero())


def test_er_on_alpha_r_string():
    # e_r [m at alpha_r] = [m]_q [m-1 at alpha_r]
    for t in [AffineType("A", 3, 2), AffineType("D", 4, 4)]:
        mod = get_module(t)
        for m in [1, 2, 3, 4, 63, 64, 90]:
            c = [0] * mod.nroots
            c[mod.alpha_r_idx] = m
            out = mod.apply_e(t.r, Element.basis(tuple(c)))
            c[mod.alpha_r_idx] = m - 1
            assert out == Element.basis(
                tuple(c), Coefficient.from_laurent(q_integer(m)))


def test_ei_shifts_weight():
    # e_i (i >= 1) raises the weight by alpha_i; e_0 lowers it by theta
    rng = random.Random(7)
    for t in [AffineType("A", 4, 2), AffineType("D", 5, 5), AffineType("D", 4, 3)]:
        mod = get_module(t)
        for _ in range(20):
            c = random_datum(t, rng, max_entry=3)
            w = _wt(mod, c)
            for i in range(0, t.n + 1):
                shift = (tuple(-x for x in theta(t))
                         if i == 0 else simple_root(t, i))
                for d in mod.apply_e(i, Element.basis(c)).support():
                    assert _wt(mod, d) == tuple(map(sum, zip(w, shift)))


def test_k_diagonal_consistency():
    # k_i k_i^{-1} = 1 and k_0 = product of k_i^{-marks}
    rng = random.Random(3)
    for t in [AffineType("A", 3, 1), AffineType("D", 4, 1)]:
        mod = get_module(t)
        for _ in range(10):
            v = Element.basis(random_datum(t, rng, max_entry=4))
            for i in range(t.n + 1):
                assert mod.apply_k(i, -1, mod.apply_k(i, 1, v)) == v


def test_enumerate_basis_examples():
    t = AffineType("A", 2, 1)
    data = get_module(t).enumerate_data(box=(2, 1))
    # roots alpha_1 and alpha_1+alpha_2: box 2a_1+a_2 allows
    # (0,0),(1,0),(2,0),(0,1),(1,1)
    assert len(data) == 5
    assert (0, 0) in {tuple(c) for c in data}


def test_enumerate_data_rejects_short_box():
    # the height cap keeps an unchecked enumeration finite, so this test
    # fails rather than hangs if the box length goes unchecked
    mod = get_module(AffineType("A", 4, 2))
    with pytest.raises(ValueError, match="rank 4"):
        mod.enumerate_data(height=3, box=(1,))


def test_enumerate_data_rejects_long_box():
    with pytest.raises(ValueError, match="rank 2"):
        get_module(AffineType("A", 2, 1)).enumerate_data(box=(1, 1, 1, 1, 1))


@pytest.mark.parametrize("kwargs", [{"height": -1}, {"box": (1, -1)},
                                    {"height": 2, "box": (-1, 1)}],
                         ids=["height", "box", "both"])
def test_enumerate_data_rejects_negative_caps(kwargs):
    # the vacuum has height 0, so no datum satisfies a negative cap
    mod = get_module(AffineType("A", 2, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        mod.enumerate_data(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"height": 3.0}, "height cap must be an int"),
    ({"height": True}, "height cap must be an int"),
    ({"box": (1, 1.0)}, "box bound entries must be ints"),
    ({"box": (True, 1)}, "box bound entries must be ints"),
    ({"height": 2, "box": (1, "1")}, "box bound entries must be ints"),
], ids=["float-height", "bool-height", "float-box-entry", "bool-box-entry",
        "str-box-entry"])
def test_enumerate_data_rejects_non_int_caps(kwargs, match):
    # the caps are counts: a float one would fail deep inside the walk,
    # and a bool one is an int that counts nothing
    mod = get_module(AffineType("A", 2, 1))
    with pytest.raises(ValueError, match=match):
        mod.enumerate_data(**kwargs)


def brute_force_data(mod, height=None, box=None):
    """Every multiplicity tuple of a box big enough to hold all data,
    in lexicographic order, filtered by the caps: each root's
    multiplicity runs up to the most of it that fits the caps alone."""
    cap = height if height is not None else sum(box)
    rank = mod.t.n
    tops = []
    for beta in mod.roots:
        top = cap // sum(beta)
        if box is not None:
            top = min([top] + [b // x for b, x in zip(box, beta) if x])
        tops.append(top)
    out = []
    for c in iproduct(*(range(top + 1) for top in tops)):
        depth = [sum(m * s[j] for m, s in zip(c, mod.roots))
                 for j in range(rank)]
        if height is not None and sum(depth) > height:
            continue
        if box is not None and any(d > b for d, b in zip(depth, box)):
            continue
        out.append(c)
    return out


@pytest.mark.parametrize("t, kwargs", [
    (AffineType("A", 3, 2), {"height": 4}),
    (AffineType("A", 3, 2), {"box": (2, 3, 1)}),
    (AffineType("A", 3, 2), {"height": 3, "box": (2, 2, 2)}),
    (AffineType("A", 2, 1), {"height": 0}),
    (AffineType("A", 2, 1), {"box": (0, 0)}),
    (AffineType("D", 4, 1), {"height": 3}),
    (AffineType("D", 4, 1), {"box": (1, 1, 1, 1)}),
    (AffineType("D", 4, 4), {"height": 4, "box": (1, 2, 1, 2)}),
], ids=str)
def test_enumerate_data_matches_brute_force(t, kwargs):
    mod = get_module(t)
    assert mod.enumerate_data(**kwargs) == brute_force_data(mod, **kwargs)


def brute_force_character(mod, data):
    """The number of data at each depth vector sum c_beta beta."""
    dims = {}
    for c in data:
        w = tuple(sum(m * beta[j] for m, beta in zip(c, mod.roots))
                  for j in range(mod.t.n))
        dims[w] = dims.get(w, 0) + 1
    return dims


@st.composite
def walk_caps(draw):
    t = draw(st.sampled_from([AffineType("A", 3, 2), AffineType("A", 4, 2),
                              AffineType("D", 4, 4), AffineType("D", 5, 1)]))
    caps = draw(st.sampled_from(["box", "height", "both"]))
    kwargs = {}
    if caps != "box":
        # zero, and 2^k - 1 and 2^k at the digit boundaries of the codes
        kwargs["height"] = draw(st.sampled_from([0, 1, 2, 3, 4, 7, 8]))
    # entries below, at and above the height cap; small with no cap, so
    # that the brute force stays small
    top = kwargs.get("height", 0) + 2
    if caps != "height":
        kwargs["box"] = draw(st.tuples(*[st.integers(0, top)] * t.n))
    return t, kwargs


@settings(max_examples=200, deadline=None)
@given(walk_caps())
def test_walk_matches_brute_force(inputs):
    t, kwargs = inputs
    mod = get_module(t)
    data = brute_force_data(mod, **kwargs)
    assert mod.enumerate_data(**kwargs) == data
    assert (module_character(t, bound=kwargs.get("box"),
                             height=kwargs.get("height"))
            == brute_force_character(mod, data))


def test_enumerate_basis_height():
    for t in [AffineType("A", 3, 2), AffineType("D", 4, 4)]:
        mod = get_module(t)
        data = mod.enumerate_data(height=5)
        assert len(set(data)) == len(data)
        assert all(-sum(_wt(mod, c)) <= 5 for c in data)
        # lexicographic determinism
        assert data == mod.enumerate_data(height=5)


def test_element_algebra():
    t = AffineType("A", 1, 1)
    mod = get_module(t)
    v = Element.basis(mod.vacuum)
    w = v.scale(Coefficient.q_power(2)) + v
    assert w - v.scale(Coefficient.q_power(2)) == v
    assert (v - v).is_zero()
    assert str(Element.zero()) == "0"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A", "D"]), st.data())
def test_action_linearity(family, data):
    if family == "A":
        n = data.draw(st.integers(1, 4))
        r = data.draw(st.integers(1, n))
    else:
        n = data.draw(st.integers(4, 5))
        r = data.draw(st.sampled_from([1, n - 1, n]))
    t = AffineType(family, n, r)
    mod = get_module(t)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    c1, c2 = random_datum(t, rng, 3), random_datum(t, rng, 3)
    x = Element.basis(c1, Coefficient.q_power(1)) + Element.basis(c2)
    i = data.draw(st.integers(0, n))
    lhs = mod.apply_e(i, x)
    rhs = (mod.apply_e(i, Element.basis(c1)).scale(Coefficient.q_power(1))
           + mod.apply_e(i, Element.basis(c2)))
    assert lhs == rhs


# -- data checked against the type -------------------------------------

A3R2 = AffineType("A", 3, 2)   # four positive roots
NOT_DATA_OF_A3R2 = [(OperatorExpr.e(0), (0, 0, 0, 0, 7)),
                    (OperatorExpr.k(1), (-3, 0, 0, 0)),
                    (OperatorExpr.e(1), (0, 1)),
                    (OperatorExpr.e(1), (0, -1, 0, 0)),
                    (OperatorExpr.k(1), (0.5, 0, 0, 0)),
                    (OperatorExpr.k(1), (0, "a", 0, 0)),
                    (OperatorExpr.e(1), (1.0, 0, 0, 0)),
                    (OperatorExpr.k(1), (300.0, 0, 0, 0)),
                    (OperatorExpr.e(1), (0, -300, 0, 0)),
                    (OperatorExpr.k(1), (True, 0, 0, 0)),
                    (OperatorExpr.e(2), (0, 0, 1, False))]
NOT_DATA_IDS = ["too-long", "negative-k", "too-short", "negative-e",
                "half-entry-k", "str-entry-k", "float-entry-e",
                "large-float-k", "large-negative-e", "bool-entry-k",
                "bool-entry-e"]


@pytest.mark.parametrize("x, c", NOT_DATA_OF_A3R2, ids=NOT_DATA_IDS)
def test_evaluate_rejects_data_not_of_the_type(x, c):
    with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
        evaluate(x, A3R2, Element.basis(c))
    # checked before any letter runs, so the valid datum of the sum never
    # reaches the cache of a fresh module; it equals no bad datum, since
    # (1.0, 0, 0, 0) == (1, 0, 0, 0) would merge the two terms
    mod = LatticeModule(A3R2)
    v = Element.basis((0, 0, 0, 1)) + Element.basis(c)
    with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
        evaluate(x, A3R2, v)
    with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
        mod.apply_e(1, v)
    with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
        mod.apply_k(1, -1, v)
    assert mod.cache_info() == {"entries": (0, 0, 0, 0), "moves": 0, "data": 0}


def test_check_data_accepts_large_int_entries():
    # entries beyond 255 take the min/sum route of check_data
    mod = LatticeModule(A3R2)
    mod.check_data([(0, 0, 0, 255), (0, 0, 0, 256), (2**70, 0, 1, 0)])
    out = evaluate(OperatorExpr.k(1), A3R2, Element.basis((0, 0, 0, 300)))
    assert set(out.terms) == {(0, 0, 0, 300)}


def test_e_on_datum_rejects_bad_nodes_and_data():
    mod = LatticeModule(A3R2)
    for i in (-1, 4, 9):
        with pytest.raises(ValueError, match=f"e{i} is not a letter of A3r2"):
            mod.e_on_datum(i, mod.vacuum)
    for _, c in NOT_DATA_OF_A3R2:
        with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
            mod.e_on_datum(0, c)
    assert mod.cache_info()["data"] == 0


# -- what the e_on_datum cache shares ------------------------------------

def _relation_exprs(t):
    return [x for _, x in defining_relations(t)]


@pytest.fixture(scope="module")
def swept_d5r5():
    """A fresh D5r5 module after every relation on every datum of height
    <= 6, and the cache as {node: {datum: moves}}."""
    t = AffineType("D", 5, 5)
    get_module.cache_clear()
    mod = get_module(t)
    for x in _relation_exprs(t):
        for c in mod.enumerate_data(height=6):
            assert evaluate(x, t, Element.basis(c)).is_zero()
    return mod, {i: dict(mod._e_cache[i]) for i in range(t.n + 1)}


def test_cached_data_are_interned(swept_d5r5):
    mod, cache = swept_d5r5
    interned = mod._interned
    for entries in cache.values():
        for c, moves in entries.items():
            assert interned[c] is c
            for d, _ in move_pairs(moves):
                assert interned[d] is d
    # the Serre words reach equal data along different paths
    info = mod.cache_info()
    assert info["data"] < info["moves"] + sum(info["entries"])


def test_cached_coefficients_come_from_the_table(swept_d5r5):
    _, cache = swept_d5r5
    shared = 0
    for entries in cache.values():
        for moves in entries.values():
            for _, p in move_pairs(moves):
                # every coefficient is q^e [m]_q: m unit terms around q^e
                exps = sorted(p.terms)
                m, e = len(exps), (exps[0] + exps[-1]) // 2
                assert p == q_integer(m, e)
                if m < 64 and abs(e) < 64:
                    assert p is q_integer(m, e)
                    shared += 1
    assert shared


def test_cache_info_equals_a_recount(swept_d5r5):
    mod, cache = swept_d5r5
    moves = [mv for entries in cache.values() for mvs in entries.values()
             for mv in move_pairs(mvs)]
    data = {id(c) for entries in cache.values() for c in entries}
    data |= {id(d) for d, _ in moves}
    assert mod.cache_info() == {
        "entries": tuple(len(cache[i]) for i in range(6)),
        "moves": len(moves), "data": len(data)}


def test_cache_entries_are_flat(swept_d5r5):
    # each entry is (d1, p1, d2, p2, ...): interned data alternating with
    # their coefficients, and no tuple per move
    mod, cache = swept_d5r5
    interned = mod._interned
    flat = 0
    for entries in cache.values():
        for moves in entries.values():
            assert type(moves) is tuple and len(moves) % 2 == 0
            for d, p in move_pairs(moves):
                assert type(d) is tuple and len(d) == mod.nroots
                assert interned[d] is d and {type(x) for x in d} == {int}
                assert type(p) is LaurentPoly
            flat += len(moves) > 2
    assert flat


def _sweep_bytes_per_move(t, height):
    """Every relation of type t on every datum of height <= height, run
    on a fresh module, and the bytes that latticemod allocated and still
    holds after the sweep, per stored move, by tracemalloc.  The cycle
    collector is off and its full collection has emptied the free lists
    before, so only the sweep's own allocations are counted."""
    mod = LatticeModule(t)
    data = mod.enumerate_data(height=height)
    exprs = _relation_exprs(t)
    enabled, tracing = gc.isenabled(), tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for x in exprs:
            for c in data:
                v = Element.basis(c)
                assert run_expression(x, mod._run_word, v).is_zero()
        after = tracemalloc.take_snapshot()
    finally:
        if not tracing:
            tracemalloc.stop()
        if enabled:
            gc.enable()
    only = [tracemalloc.Filter(True, latticemod.__file__)]
    held = sum(s.size_diff for s in after.filter_traces(only).compare_to(
        before.filter_traces(only), "filename"))
    return held / mod.cache_info()["moves"]


def test_the_swept_cache_holds_few_bytes_per_move():
    # D5r5, height <= 6, 397 stored moves: about 218 bytes per move on
    # Python 3.11 and 227 on 3.10 with flat entries, 266 and 275 with a
    # (datum, coefficient) tuple per move
    assert _sweep_bytes_per_move(AffineType("D", 5, 5), 6) < 245


# -- which misses check their datum ---------------------------------------

def _sweep(mod, seed, count=12, max_entry=4):
    """Every relation of mod's type on seeded random data, each datum a
    new tuple object for each relation, with no check of evaluate's."""
    rng = random.Random(seed)
    data = [random_datum(mod.t, rng, max_entry) for _ in range(count)]
    for x in _relation_exprs(mod.t):
        for c in data:
            v = Element.basis(tuple(list(c)))
            assert run_expression(x, mod._run_word, v).is_zero()


def _count_checks(monkeypatch, mod):
    """Record, for each datum check_data sees, whether it was the object
    held in the intern table at the time; and count the misses of
    e_on_datum on objects that were not."""
    seen, foreign = [], []
    check_data, e_on_datum = mod.check_data, mod.e_on_datum

    def counted_check(data):
        for c in data:
            seen.append(mod._interned.get(c) is c)
        return check_data(data)

    def counted_e(i, c):
        if c not in mod._e_cache[i] and mod._interned.get(c) is not c:
            foreign.append(c)
        return e_on_datum(i, c)

    monkeypatch.setattr(mod, "check_data", counted_check)
    monkeypatch.setattr(mod, "e_on_datum", counted_e)
    return seen, foreign


@pytest.mark.parametrize("t", [A3R2, AffineType("D", 4, 4)], ids=str)
def test_swept_cache_holds_only_interned_objects(t):
    mod = LatticeModule(t)
    _sweep(mod, seed=7)
    interned = mod._interned
    assert interned
    for cache in mod._e_cache.values():
        for c, moves in cache.items():
            assert interned[c] is c
            for d, _ in move_pairs(moves):
                assert interned[d] is d


@pytest.mark.parametrize("t", [A3R2, AffineType("D", 4, 4)], ids=str)
def test_a_miss_checks_only_data_not_yet_interned(monkeypatch, t):
    mod = LatticeModule(t)
    seen, foreign = _count_checks(monkeypatch, mod)
    c = tuple(random_datum(t, random.Random(3), 4))
    mod.e_on_datum(1, c)
    assert seen == [False]           # a new object is checked once
    mod.e_on_datum(1, c)             # a hit
    mod.e_on_datum(2, c)             # a miss on the interned object
    (d, _), *_ = move_pairs(mod.e_on_datum(0, c))
    mod.e_on_datum(1, d)             # a miss on an interned move target
    assert seen == [False]
    mod.e_on_datum(3, tuple(list(c)))   # a miss on an equal new tuple
    assert seen == [False, False]
    # over a relation sweep, every check is of a datum not yet interned,
    # and every miss on such a datum is checked
    _sweep(mod, seed=5)
    assert not any(seen) and len(seen) == len(foreign) > 2


def test_a_float_twin_of_an_interned_datum_is_rejected_on_a_miss():
    mod = LatticeModule(A3R2)
    (d, _), = move_pairs(mod.e_on_datum(0, mod.vacuum))
    assert mod._interned[d] is d and d[mod.theta_idx] == 1
    twin = tuple(float(x) if p == mod.theta_idx else x
                 for p, x in enumerate(d))
    assert twin == d and hash(twin) == hash(d)
    for i in range(A3R2.n + 1):
        with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
            mod.e_on_datum(i, twin)
    assert mod.cache_info()["entries"] == (1, 0, 0, 0)
    assert mod.e_on_datum(0, d)


@pytest.mark.parametrize("entry", [float, str], ids=["float", "str"])
def test_a_twin_of_an_interned_datum_is_rejected_on_entry(entry):
    # evaluate, apply_e and apply_k skip the check of the very interned
    # object only: a twin with one float or str entry is checked in full
    mod = get_module(A3R2)
    c = (1, 0, 2, 1)
    evaluate(OperatorExpr.e(2), A3R2, Element.basis(c))
    held = mod._interned[c]
    twin = tuple(entry(x) if p == 2 else x for p, x in enumerate(held))
    if entry is float:
        assert twin == held and mod._interned.get(twin) is held
    v = Element.basis(twin)
    for run in (lambda: evaluate(OperatorExpr.e(1), A3R2, v),
                lambda: evaluate(OperatorExpr.k(2, -1), A3R2, v),
                lambda: mod.apply_e(3, v),
                lambda: mod.apply_k(0, 1, v)):
        with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
            run()
    assert not evaluate(k_e_conjugation_expr(1, 2, A3R2), A3R2,
                        Element.basis(held))


def test_a_bool_twin_of_an_interned_datum_is_rejected():
    # (True, 0, 2, 1) == (1, 0, 2, 1) and hashes alike, so it finds the
    # interned datum in every table, and is checked in full all the same
    mod = get_module(A3R2)
    c = (1, 0, 2, 1)
    evaluate(OperatorExpr.e(2), A3R2, Element.basis(c))
    held = mod._interned[c]
    twin = (True,) + held[1:]
    assert twin == held and mod._interned.get(twin) is held
    v = Element.basis(twin)
    for run in (lambda: evaluate(OperatorExpr.e(1), A3R2, v),
                lambda: evaluate(OperatorExpr.k(2, -1), A3R2, v),
                lambda: mod.apply_e(3, v),
                lambda: mod.apply_k(0, 1, v)):
        with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
            run()
    # a miss of e_on_datum on a bool twin, as on a float one
    mod = LatticeModule(A3R2)
    (d, _), = move_pairs(mod.e_on_datum(0, mod.vacuum))
    twin = tuple(bool(x) if p == mod.theta_idx else x
                 for p, x in enumerate(d))
    assert twin == d and mod._interned.get(twin) is d
    for i in range(A3R2.n + 1):
        with pytest.raises(ValueError, match=r"is not a datum of A3r2"):
            mod.e_on_datum(i, twin)
    assert mod.cache_info()["entries"] == (1, 0, 0, 0)


@st.composite
def words_on_data(draw):
    """A type, a sum of up to three words of up to four letters, and a
    datum with entries <= 4."""
    t = draw(st.sampled_from([A3R2, AffineType("A", 4, 2),
                              AffineType("D", 4, 4), AffineType("D", 5, 1)]))
    letter = st.one_of(st.integers(0, t.n),
                       st.tuples(st.just("k"), st.integers(0, t.n),
                                 st.sampled_from((1, -1))))
    x = OperatorExpr.zero()
    e0 = draw(st.integers(0, 1))   # one a-degree for all words
    for _ in range(draw(st.integers(1, 3))):
        word = [w for w in draw(st.lists(letter, max_size=4)) if w != 0]
        at = draw(st.integers(0, len(word)))
        x = x + OperatorExpr.basis(tuple(word[:at] + [0] * e0 + word[at:]))
    nroots = len(positive_roots_wr(t))
    c = tuple(draw(st.lists(st.integers(0, 4), min_size=nroots,
                            max_size=nroots)))
    return t, x, c


@settings(max_examples=60, deadline=None)
@given(words_on_data())
def test_cache_hits_equal_misses(case):
    t, x, c = case
    get_module.cache_clear()
    cold = evaluate(x, t, Element.basis(c))
    assert evaluate(x, t, Element.basis(c)) == cold


def golden_data(nroots):
    """Three fixed data with unequal entries, so that every exponent
    vector shows in the q-powers of the moves."""
    return [tuple(p % 3 + 1 for p in range(nroots)),
            tuple(2 * p % 5 for p in range(nroots)),
            tuple(p * p % 5 + 1 for p in range(nroots))]


@pytest.mark.parametrize("t", [AffineType("A", 4, 2), AffineType("D", 5, 1),
                               AffineType("D", 5, 4), AffineType("D", 5, 5)],
                         ids=str)
def test_moves_match_golden_values(t):
    # A4r2 has nodes on both sides of r; D5r4 is the r = n-1 family that
    # the diagram flip n <-> n-1 relates to D5r5
    mod = get_module(t)
    for k, c in enumerate(golden_data(mod.nroots)):
        for i in range(1, t.n + 1):
            got = {d: str(coeff)
                   for d, coeff in move_pairs(mod.e_on_datum(i, c))}
            assert got == MOVE_GOLDEN[(str(t), i, k)], (i, c)


# e_on_datum(i, golden_data(nroots)[k]) for every node i, as
# {datum: coefficient text}, keyed by (type, i, k): the values of the
# per-family move tables that the convex-order rule replaced
MOVE_GOLDEN = {
    ("A4r2", 1, 0): {
        (1, 2, 4, 1, 2, 2): "q^-2 + 1 + q^2",
        (1, 3, 3, 1, 1, 3): "q^-1 + q^1",
        (2, 2, 3, 0, 2, 3): "1"},
    ("A4r2", 1, 1): {
        (0, 3, 4, 1, 2, 0): "q^-3 + q^-1 + q^1",
        (1, 2, 4, 0, 3, 0): "1"},
    ("A4r2", 1, 2): {
        (1, 2, 6, 5, 2, 0): "q^-4",
        (1, 3, 5, 5, 1, 1): "q^-5 + q^-3",
        (2, 2, 5, 4, 2, 1): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("A4r2", 2, 0): {(0, 2, 3, 1, 2, 3): "1"},
    ("A4r2", 2, 1): {},
    ("A4r2", 2, 2): {(0, 2, 5, 5, 2, 1): "1"},
    ("A4r2", 3, 0): {
        (1, 2, 3, 2, 1, 3): "q^-2 + 1",
        (2, 1, 3, 1, 2, 3): "q^-1 + q^1"},
    ("A4r2", 3, 1): {
        (0, 2, 4, 2, 2, 0): "q^-4 + q^-2 + 1",
        (1, 1, 4, 1, 3, 0): "q^-1 + q^1"},
    ("A4r2", 3, 2): {
        (1, 2, 5, 6, 1, 1): "q^-2 + 1",
        (2, 1, 5, 5, 2, 1): "q^-1 + q^1"},
    ("A4r2", 4, 0): {
        (1, 2, 3, 1, 3, 2): "q^-3 + q^-1 + q^1",
        (1, 3, 2, 1, 2, 3): "q^-2 + 1 + q^2"},
    ("A4r2", 4, 1): {(0, 3, 3, 1, 3, 0): "q^-3 + q^-1 + q^1 + q^3"},
    ("A4r2", 4, 2): {
        (1, 2, 5, 5, 3, 0): "q^-3",
        (1, 3, 4, 5, 2, 1): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r1", 1, 0): {(0, 2, 3, 1, 2, 3, 1, 2): "1"},
    ("D5r1", 1, 1): {},
    ("D5r1", 1, 2): {(0, 2, 5, 5, 2, 1, 2, 5): "1"},
    ("D5r1", 2, 0): {
        (1, 2, 3, 1, 2, 3, 2, 1): "q^-2 + 1",
        (2, 1, 3, 1, 2, 3, 1, 2): "q^-1 + q^1"},
    ("D5r1", 2, 1): {
        (0, 2, 4, 1, 3, 0, 3, 3): "q^-5 + q^-3 + q^-1 + q^1",
        (1, 1, 4, 1, 3, 0, 2, 4): "q^-1 + q^1"},
    ("D5r1", 2, 2): {
        (1, 2, 5, 5, 2, 1, 3, 4): "q^-5 + q^-3 + q^-1 + q^1 + q^3",
        (2, 1, 5, 5, 2, 1, 2, 5): "q^-1 + q^1"},
    ("D5r1", 3, 0): {
        (1, 2, 3, 1, 2, 4, 0, 2): "q^-1",
        (1, 3, 2, 1, 2, 3, 1, 2): "q^-2 + 1 + q^2"},
    ("D5r1", 3, 1): {
        (0, 2, 4, 1, 3, 1, 1, 4): "q^-3 + q^-1",
        (0, 3, 3, 1, 3, 0, 2, 4): "q^-3 + q^-1 + q^1 + q^3"},
    ("D5r1", 3, 2): {
        (1, 2, 5, 5, 2, 2, 1, 5): "q^-4 + q^-2",
        (1, 3, 4, 5, 2, 1, 2, 5): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r1", 4, 0): {
        (1, 2, 3, 1, 3, 2, 1, 2): "1 + q^2 + q^4",
        (1, 2, 4, 0, 2, 3, 1, 2): "1"},
    ("D5r1", 4, 1): {(0, 2, 5, 0, 3, 0, 2, 4): "1"},
    ("D5r1", 4, 2): {
        (1, 2, 5, 5, 3, 0, 2, 5): "1",
        (1, 2, 6, 4, 2, 1, 2, 5): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r1", 5, 0): {
        (1, 2, 3, 2, 2, 2, 1, 2): "q^-1 + q^1 + q^3",
        (1, 2, 4, 1, 1, 3, 1, 2): "q^-1 + q^1"},
    ("D5r1", 5, 1): {(0, 2, 5, 1, 2, 0, 2, 4): "q^-2 + 1 + q^2"},
    ("D5r1", 5, 2): {
        (1, 2, 5, 6, 2, 0, 2, 5): "q^3",
        (1, 2, 6, 5, 1, 1, 2, 5): "q^-1 + q^1"},
    ("D5r4", 1, 0): {
        (1, 2, 3, 1, 2, 3, 1, 3, 2, 1): "q^2 + q^4 + q^6",
        (1, 2, 3, 1, 2, 4, 0, 2, 3, 1): "q^2",
        (1, 2, 4, 0, 2, 3, 1, 2, 3, 1): "1"},
    ("D5r4", 1, 1): {
        (0, 2, 4, 1, 3, 0, 2, 5, 0, 3): "q^1",
        (0, 2, 4, 1, 3, 1, 1, 4, 1, 3): "q^2 + q^4",
        (0, 2, 5, 0, 3, 0, 2, 4, 1, 3): "1"},
    ("D5r4", 1, 2): {
        (1, 2, 5, 5, 2, 1, 2, 6, 4, 2): "q^-5 + q^-3 + q^-1 + q^1 + q^3",
        (1, 2, 5, 5, 2, 2, 1, 5, 5, 2): "q^-1 + q^1",
        (1, 2, 6, 4, 2, 1, 2, 5, 5, 2): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r4", 2, 0): {
        (1, 2, 3, 1, 2, 3, 1, 2, 4, 0): "q^-2",
        (1, 2, 3, 1, 3, 2, 1, 2, 3, 1): "q^-3 + q^-1 + q^1",
        (1, 3, 2, 1, 2, 3, 1, 2, 3, 1): "q^-2 + 1 + q^2"},
    ("D5r4", 2, 1): {
        (0, 2, 4, 1, 3, 0, 2, 4, 2, 2): "q^-1 + q^1 + q^3",
        (0, 3, 3, 1, 3, 0, 2, 4, 1, 3): "q^-3 + q^-1 + q^1 + q^3"},
    ("D5r4", 2, 2): {
        (1, 2, 5, 5, 2, 1, 2, 5, 6, 1): "q^-3 + q^-1",
        (1, 2, 5, 5, 3, 0, 2, 5, 5, 2): "q^-3",
        (1, 3, 4, 5, 2, 1, 2, 5, 5, 2): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r4", 3, 0): {
        (1, 2, 3, 1, 2, 3, 2, 2, 2, 1): "q^-2 + 1 + q^2",
        (1, 2, 3, 1, 2, 4, 1, 1, 3, 1): "q^-2 + 1",
        (2, 1, 3, 1, 2, 3, 1, 2, 3, 1): "q^-1 + q^1"},
    ("D5r4", 3, 1): {
        (0, 2, 4, 1, 3, 0, 3, 4, 0, 3): "q^-6",
        (0, 2, 4, 1, 3, 1, 2, 3, 1, 3): "q^-5 + q^-3 + q^-1 + q^1",
        (1, 1, 4, 1, 3, 0, 2, 4, 1, 3): "q^-1 + q^1"},
    ("D5r4", 3, 2): {
        (1, 2, 5, 5, 2, 1, 3, 5, 4, 2): "q^-9 + q^-7 + q^-5 + q^-3 + q^-1",
        (1, 2, 5, 5, 2, 2, 2, 4, 5, 2): "q^-5 + q^-3 + q^-1 + q^1 + q^3",
        (2, 1, 5, 5, 2, 1, 2, 5, 5, 2): "q^-1 + q^1"},
    ("D5r4", 4, 0): {(0, 2, 3, 1, 2, 3, 1, 2, 3, 1): "1"},
    ("D5r4", 4, 1): {},
    ("D5r4", 4, 2): {(0, 2, 5, 5, 2, 1, 2, 5, 5, 2): "1"},
    ("D5r4", 5, 0): {
        (1, 2, 3, 2, 2, 3, 0, 2, 3, 1): "1",
        (1, 2, 4, 1, 2, 2, 1, 2, 3, 1): "q^-2 + 1 + q^2",
        (1, 3, 3, 1, 1, 3, 1, 2, 3, 1): "q^-1 + q^1"},
    ("D5r4", 5, 1): {
        (0, 2, 4, 2, 3, 0, 1, 4, 1, 3): "q^2 + q^4",
        (0, 3, 4, 1, 2, 0, 2, 4, 1, 3): "q^-2 + 1 + q^2"},
    ("D5r4", 5, 2): {
        (1, 2, 5, 6, 2, 1, 1, 5, 5, 2): "q^3 + q^5",
        (1, 2, 6, 5, 2, 0, 2, 5, 5, 2): "1",
        (1, 3, 5, 5, 1, 1, 2, 5, 5, 2): "q^-1 + q^1"},
    ("D5r5", 1, 0): {
        (1, 2, 3, 1, 2, 3, 1, 3, 2, 1): "q^2 + q^4 + q^6",
        (1, 2, 3, 1, 2, 4, 0, 2, 3, 1): "q^2",
        (1, 2, 4, 0, 2, 3, 1, 2, 3, 1): "1"},
    ("D5r5", 1, 1): {
        (0, 2, 4, 1, 3, 0, 2, 5, 0, 3): "q^1",
        (0, 2, 4, 1, 3, 1, 1, 4, 1, 3): "q^2 + q^4",
        (0, 2, 5, 0, 3, 0, 2, 4, 1, 3): "1"},
    ("D5r5", 1, 2): {
        (1, 2, 5, 5, 2, 1, 2, 6, 4, 2): "q^-5 + q^-3 + q^-1 + q^1 + q^3",
        (1, 2, 5, 5, 2, 2, 1, 5, 5, 2): "q^-1 + q^1",
        (1, 2, 6, 4, 2, 1, 2, 5, 5, 2): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r5", 2, 0): {
        (1, 2, 3, 1, 2, 3, 1, 2, 4, 0): "q^-2",
        (1, 2, 3, 1, 3, 2, 1, 2, 3, 1): "q^-3 + q^-1 + q^1",
        (1, 3, 2, 1, 2, 3, 1, 2, 3, 1): "q^-2 + 1 + q^2"},
    ("D5r5", 2, 1): {
        (0, 2, 4, 1, 3, 0, 2, 4, 2, 2): "q^-1 + q^1 + q^3",
        (0, 3, 3, 1, 3, 0, 2, 4, 1, 3): "q^-3 + q^-1 + q^1 + q^3"},
    ("D5r5", 2, 2): {
        (1, 2, 5, 5, 2, 1, 2, 5, 6, 1): "q^-3 + q^-1",
        (1, 2, 5, 5, 3, 0, 2, 5, 5, 2): "q^-3",
        (1, 3, 4, 5, 2, 1, 2, 5, 5, 2): "q^-4 + q^-2 + 1 + q^2 + q^4"},
    ("D5r5", 3, 0): {
        (1, 2, 3, 1, 2, 3, 2, 2, 2, 1): "q^-2 + 1 + q^2",
        (1, 2, 3, 1, 2, 4, 1, 1, 3, 1): "q^-2 + 1",
        (2, 1, 3, 1, 2, 3, 1, 2, 3, 1): "q^-1 + q^1"},
    ("D5r5", 3, 1): {
        (0, 2, 4, 1, 3, 0, 3, 4, 0, 3): "q^-6",
        (0, 2, 4, 1, 3, 1, 2, 3, 1, 3): "q^-5 + q^-3 + q^-1 + q^1",
        (1, 1, 4, 1, 3, 0, 2, 4, 1, 3): "q^-1 + q^1"},
    ("D5r5", 3, 2): {
        (1, 2, 5, 5, 2, 1, 3, 5, 4, 2): "q^-9 + q^-7 + q^-5 + q^-3 + q^-1",
        (1, 2, 5, 5, 2, 2, 2, 4, 5, 2): "q^-5 + q^-3 + q^-1 + q^1 + q^3",
        (2, 1, 5, 5, 2, 1, 2, 5, 5, 2): "q^-1 + q^1"},
    ("D5r5", 4, 0): {
        (1, 2, 3, 2, 2, 3, 0, 2, 3, 1): "1",
        (1, 2, 4, 1, 2, 2, 1, 2, 3, 1): "q^-2 + 1 + q^2",
        (1, 3, 3, 1, 1, 3, 1, 2, 3, 1): "q^-1 + q^1"},
    ("D5r5", 4, 1): {
        (0, 2, 4, 2, 3, 0, 1, 4, 1, 3): "q^2 + q^4",
        (0, 3, 4, 1, 2, 0, 2, 4, 1, 3): "q^-2 + 1 + q^2"},
    ("D5r5", 4, 2): {
        (1, 2, 5, 6, 2, 1, 1, 5, 5, 2): "q^3 + q^5",
        (1, 2, 6, 5, 2, 0, 2, 5, 5, 2): "1",
        (1, 3, 5, 5, 1, 1, 2, 5, 5, 2): "q^-1 + q^1"},
    ("D5r5", 5, 0): {(0, 2, 3, 1, 2, 3, 1, 2, 3, 1): "1"},
    ("D5r5", 5, 1): {},
    ("D5r5", 5, 2): {(0, 2, 5, 5, 2, 1, 2, 5, 5, 2): "1"},
}


# -- the one-pass word steps -------------------------------------------------

def types_up_to(nmax):
    out = [AffineType("A", n, r) for n in range(1, nmax + 1)
           for r in range(1, n + 1)]
    return out + [AffineType("D", n, r) for n in range(4, nmax + 1)
                  for r in (1, n - 1, n)]


def test_moves_of_each_e_i_have_distinct_sources():
    # so the moves of e_i on one datum have distinct targets, which the
    # one-term walk of _run_word relies on
    for t in types_up_to(8):
        mod = LatticeModule(t)
        for i, moves in mod._moves.items():
            sources = [src for src, _ in moves]
            assert len(set(sources)) == len(sources), (t, i)


def _e_step_reference(mod, i, terms):
    """e_i on a term map, summed move by move and filtered for zeros."""
    out = {}
    for c, coef in terms.items():
        for md, mc in move_pairs(mod.e_on_datum(i, c)):
            out[md] = out.get(md, LaurentPoly.zero()) + coef * mc
    return {d: p for d, p in out.items() if p}


def _cancelling_map(mod, i, c):
    """A two-term map on c and another datum whose e_i images cancel at a
    common target, or None if there is no such datum."""
    for md, mc in move_pairs(mod.e_on_datum(i, c)):
        for src, tgt in (mod._moves[i] if i else ()):
            other = list(md)
            other[src] += 1
            if tgt is not None:
                other[tgt] -= 1
            other = tuple(other)
            if min(other) < 0 or other == c:
                continue
            for mdo, mo in move_pairs(mod.e_on_datum(i, other)):
                if mdo == md:
                    return {c: mo, other: -mc}
    return None


@st.composite
def term_maps(draw):
    """A type, a node and a term map of one term, of several, or of two
    whose images cancel at one target."""
    t = draw(st.sampled_from([A3R2, AffineType("A", 4, 2),
                              AffineType("D", 4, 4), AffineType("D", 5, 1)]))
    mod = get_module(t)
    i = draw(st.integers(0, t.n))
    datum = st.lists(st.integers(0, 3), min_size=mod.nroots,
                     max_size=mod.nroots).map(tuple)
    coef = st.builds(LaurentPoly.q_power, st.integers(-3, 3),
                     st.integers(-3, 3).filter(bool))
    kind = draw(st.sampled_from(["one", "several", "cancel"]))
    if kind == "cancel":
        terms = _cancelling_map(mod, i, draw(datum))
        if terms is not None:
            return mod, i, terms
    size = (1, 1) if kind == "one" else (2, 5)
    return mod, i, draw(st.dictionaries(datum, coef, min_size=size[0],
                                        max_size=size[1]))


@settings(max_examples=150, deadline=None)
@given(term_maps())
def test_e_step_is_the_sum_of_the_moves(case):
    mod, i, terms = case
    out = mod._run_word((i,), terms)
    assert out == _e_step_reference(mod, i, terms)
    assert all(out.values())


@pytest.mark.parametrize("t", [AffineType("A", 4, 2), AffineType("D", 5, 5)],
                         ids=str)
def test_e_on_datum_yields_the_items_of_the_e_step(t):
    # dict() of the pairs is the term map e_i(c): distinct data, nonzero
    # coefficients, the one-letter _run_word on c
    mod = LatticeModule(t)
    rng = random.Random(str(t))
    p = LaurentPoly({-1: 2, 1: -1})
    for c in [mod.vacuum] + [random_datum(t, rng, 4) for _ in range(12)]:
        for i in range(t.n + 1):
            entry = mod.e_on_datum(i, c)
            assert type(entry) is tuple
            moves = move_pairs(entry)
            assert all(len(mv) == 2 and mv[1] for mv in moves)
            assert len(dict(moves)) == len(moves)
            assert dict(moves) == mod._run_word((i,), {c: _ONE}), (i, c)
            assert ({d: p * mc for d, mc in moves}
                    == mod._run_word((i,), {c: p})), (i, c)


def test_e_step_drops_a_cancelled_target():
    mod = get_module(AffineType("A", 4, 2))
    rng = random.Random(5)
    cancelled = 0
    for _ in range(50):
        c = tuple(rng.randint(0, 3) for _ in range(mod.nroots))
        i = rng.randint(1, 4)
        terms = _cancelling_map(mod, i, c)
        if terms is None:
            continue
        out = mod._run_word((i,), terms)
        assert out == _e_step_reference(mod, i, terms)
        targets = {md for d in terms
                   for md, _ in move_pairs(mod.e_on_datum(i, d))}
        cancelled += len(targets) - len(out)
    assert cancelled


def _k_exponent(mod, i, c):
    """k_i acts on c by q^{(alpha_i, wt c)}, and k_0 by q^{-(theta, wt c)}."""
    t = mod.t
    if i:
        return pairing(t, simple_root(t, i), _wt(mod, c))
    return -pairing(t, theta(t), _wt(mod, c))


def _k_step_reference(mod, i, s, terms):
    return {c: coef.shift(s * _k_exponent(mod, i, c))
            for c, coef in terms.items()}


def test_k_step_is_the_pairing_sum():
    for t in types_up_to(6):
        mod = get_module(t)
        rng = random.Random(str(t))
        terms = {tuple(rng.randint(0, 9) for _ in range(mod.nroots)):
                 LaurentPoly.q_power(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(20)}
        for i in range(t.n + 1):
            for s in (1, -1):
                expected = _k_step_reference(mod, i, s, terms)
                assert mod._run_word((("k", i, s),), terms) == expected, \
                    (t, i, s)
                c, coef = next(iter(terms.items()))
                assert (mod._run_word((("k", i, s),), {c: coef})
                        == {c: expected[c]}), (t, i, s)


def test_e0_exponent_is_the_k0_exponent_minus_c_theta():
    for t in types_up_to(6):
        mod = get_module(t)
        rng = random.Random(str(t))
        data = [mod.vacuum] + [
            tuple(rng.randint(0, 9) for _ in range(mod.nroots))
            for _ in range(20)]
        for c in data:
            d = list(c)
            d[mod.theta_idx] += 1
            e = -pairing(t, theta(t), _wt(mod, c)) - c[mod.theta_idx]
            assert (move_pairs(mod.e_on_datum(0, c))
                    == ((tuple(d), q_integer(1, e)),)), \
                (t, c)


# -- whole words on term maps ----------------------------------------------

def _chain(mod, word, terms):
    """The word's letters applied one by one through the references."""
    for letter in word:
        if isinstance(letter, tuple):
            terms = _k_step_reference(mod, letter[1], letter[2], terms)
        else:
            terms = _e_step_reference(mod, letter, terms)
    return terms


@st.composite
def word_cases(draw):
    """A type, a word of length 0..5 over its letters, and a term map of
    one term (coefficient the shared 1 or another) or of several."""
    t = draw(st.sampled_from([A3R2, AffineType("A", 4, 2),
                              AffineType("D", 4, 4), AffineType("D", 5, 1)]))
    mod = get_module(t)
    letter = st.one_of(st.integers(0, t.n),
                       st.tuples(st.just("k"), st.integers(0, t.n),
                                 st.sampled_from([1, -1])))
    word = tuple(draw(st.lists(letter, max_size=5)))
    datum = st.lists(st.integers(0, 3), min_size=mod.nroots,
                     max_size=mod.nroots).map(tuple)
    coef = st.builds(LaurentPoly.q_power, st.integers(-3, 3),
                     st.integers(-3, 3).filter(bool))
    kind = draw(st.sampled_from(["one", "other", "several"]))
    if kind == "one":
        terms = Element.basis(draw(datum)).terms
    elif kind == "other":
        terms = {draw(datum): draw(coef)}
    else:
        terms = draw(st.dictionaries(datum, coef, min_size=2, max_size=5))
    return mod, word, terms


@settings(max_examples=200, deadline=None)
@given(word_cases())
def test_run_word_is_the_letter_by_letter_chain(case):
    mod, word, terms = case
    before = dict(terms)
    out = mod._run_word(word, terms)
    assert out == _chain(mod, word, terms)
    assert all(out.values())
    assert terms == before
    if not word:
        assert out is terms


def test_run_word_stops_when_a_word_dies_midway():
    mod = get_module(AffineType("A", 4, 2))
    # on the vacuum, e_0 adds one unit at theta; e_1 moves it and a second
    # e_1 finds nothing to move, and so does e_3 after k_1
    for word in [(0, 1, 1, 2), (0, ("k", 1, 1), 3, 3, 0)]:
        for terms in (Element.basis(mod.vacuum).terms,
                      {mod.vacuum: LaurentPoly.q_power(1, 2)}):
            assert _chain(mod, word[:2], terms)
            assert not _chain(mod, word[:3], terms)
            assert mod._run_word(word, terms) == {}


def test_run_word_whose_first_e_step_branches():
    mod = get_module(AffineType("D", 5, 1))
    rng = random.Random(7)
    found = 0
    for _ in range(40):
        c = tuple(rng.randint(0, 3) for _ in range(mod.nroots))
        i = rng.randint(1, 5)
        if len(move_pairs(mod.e_on_datum(i, c))) < 2:
            continue
        word = (("k", 0, 1), i, ("k", i, -1), rng.randint(0, 5), 0)
        for terms in (Element.basis(c).terms, {c: LaurentPoly.q_power(-2, 3)}):
            out = mod._run_word(word, terms)
            assert out == _chain(mod, word, terms) and all(out.values())
        found += 1
    assert found


def test_run_word_of_k_letters_only():
    mod = get_module(AffineType("D", 4, 4))
    rng = random.Random(3)
    word = tuple(("k", rng.randint(0, 4), rng.choice((1, -1)))
                 for _ in range(6))
    for _ in range(10):
        c = tuple(rng.randint(0, 5) for _ in range(mod.nroots))
        e = sum(s * _k_exponent(mod, i, c) for _, i, s in word)
        for coef in (Element.basis(c).terms[c], LaurentPoly.q_power(2, -3)):
            out = mod._run_word(word, {c: coef})
            assert out == {c: coef.shift(e)} == _chain(mod, word, {c: coef})


def test_run_word_branches_drops_back_to_one_term_and_cancels():
    # D4r4 from a basis datum: e_2 branches, e_4 leaves one term, so the
    # walk resumes; e_1 branches again and e_4 kills every term
    mod = get_module(AffineType("D", 4, 4))
    c = (0, 2, 2, 2, 2, 2)
    sizes = [len(_chain(mod, (2, 4, 1, 4)[:k], {c: LaurentPoly.one()}))
             for k in range(1, 5)]
    assert sizes == [2, 1, 2, 0]
    word = (2, ("k", 1, 1), 4, ("k", 0, -1), 1, ("k", 3, 1), 4, 2)
    for terms in (Element.basis(c).terms, {c: LaurentPoly.q_power(-2, 3)}):
        assert mod._run_word(word, terms) == {}
    # A3r2, two terms of opposite signs: e_1 cancels the first map down
    # to one term, on which the walk resumes and e_3 branches, and the
    # second map to nothing
    mod = get_module(A3R2)
    drop = {(2, 2, 0, 3): LaurentPoly.one(), (1, 3, 1, 2): -q_integer(3, 2)}
    gone = {(1, 3, 0, 1): LaurentPoly.one(),
            (0, 4, 1, 0): -LaurentPoly.q_power(1)}
    assert len(_chain(mod, (1,), drop)) == 1
    assert len(_chain(mod, (1, 3), drop)) == 2
    for word in [(1,), (1, ("k", 2, -1), 3, 2), (("k", 0, -1), 1, 0, 3)]:
        out = mod._run_word(word, drop)
        assert out == _chain(mod, word, drop) and all(out.values()), word
        assert mod._run_word(word, gone) == {}, word


def test_run_word_of_the_empty_word_or_map_is_its_input():
    mod = get_module(A3R2)
    for terms in ({mod.vacuum: LaurentPoly.q_power(1, 2)},
                  {mod.vacuum: LaurentPoly.one(), (1, 0, 2, 1): LaurentPoly.one()}):
        assert mod._run_word((), terms) is terms
    empty = {}
    assert mod._run_word((0, ("k", 1, 1)), empty) == {}


# -- what the one-term walk allocates --------------------------------------

def _single_move_nodes(mod, c):
    """The nodes whose e-step on c has exactly one move."""
    return [i for i in range(mod.t.n + 1)
            if len(move_pairs(mod.e_on_datum(i, c))) == 1]


def _counted_arithmetic(monkeypatch):
    """{"shift": 0, "mul": 0}, counting from now on the calls of
    LaurentPoly.shift and LaurentPoly.__mul__."""
    counts = {"shift": 0, "mul": 0}
    shift, mul = LaurentPoly.shift, LaurentPoly.__mul__

    def counted_shift(self, e):
        counts["shift"] += 1
        return shift(self, e)

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "shift", counted_shift)
    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    return counts


@pytest.mark.parametrize("t", [A3R2, AffineType("D", 5, 5)], ids=str)
def test_one_term_walk_shifts_once_and_never_multiplies(monkeypatch, t):
    # k letters around one e letter of one move on a basis datum: the
    # k-exponents add up in one integer, shifted into the shared move
    # coefficient once, and the shared 1 is never multiplied
    mod = get_module(t)
    rng = random.Random(11)
    counts = _counted_arithmetic(monkeypatch)
    k = lambda: ("k", rng.randint(0, t.n), rng.choice((1, -1)))
    shifted = 0
    for _ in range(20):
        c = random_datum(t, rng, 3)
        for i in _single_move_nodes(mod, c):
            word = tuple(k() for _ in range(rng.randint(1, 3))) + (i,) + \
                tuple(k() for _ in range(rng.randint(0, 3)))
            expected = _chain(mod, word, Element.basis(c).terms)
            counts.update(shift=0, mul=0)
            out = mod._run_word(word, Element.basis(c).terms)
            assert counts["mul"] == 0 and counts["shift"] <= 1, word
            assert out == expected, word
            shifted += counts["shift"]
    assert shifted > 10


@pytest.mark.parametrize("t", [A3R2, AffineType("D", 4, 4)], ids=str)
def test_a_sweep_leaves_the_shared_coefficients_as_built(t):
    _sweep(LatticeModule(t), seed=9)
    fields = lambda p: (p.n, p.lo, p.b, p.m)
    assert fields(_ONE) == fields(LaurentPoly.one())
    filled = 0
    for k, p in enumerate(_Q_INTEGERS):
        if p is not None:
            m, e = k >> 7, (k & 127) - 64
            assert fields(p) == fields(_build_q_integer(m).shift(e)), (m, e)
            filled += 1
    assert filled > 10


def test_a_word_whose_k_exponents_cancel_keeps_the_move_coefficient():
    t = AffineType("D", 5, 5)
    mod = get_module(t)
    rng = random.Random(5)
    found = 0
    for _ in range(20):
        c = random_datum(t, rng, 3)
        for j in _single_move_nodes(mod, c):
            (d, mc), = move_pairs(mod.e_on_datum(j, c))
            words = []
            for i in range(t.n + 1):
                words += [(("k", i, 1), ("k", i, -1), j),
                          (j, ("k", i, -1), ("k", i, 1))]
                # k_i^-1 e_j k_i cancels where k_i has one exponent on
                # c and on e_j(c)
                if _k_exponent(mod, i, c) == _k_exponent(mod, i, d):
                    words.append((("k", i, -1), j, ("k", i, 1)))
            for word in words:
                out = mod._run_word(word, Element.basis(c).terms)
                assert out == {d: mc} and out[d] is mc, word
                found += 1
    assert found > 100
