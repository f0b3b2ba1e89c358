from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from qborel.chars import (character_identity_check, dump_csv, module_character,
                          positive_roots_simple, product_character)
from qborel.rootdata import AffineType


def test_module_character_examples():
    t = AffineType("A", 2, 1)
    dims = module_character(t, height=5)
    assert dims[(0, 0)] == 1
    assert dims[(1, 1)] == 1  # the unique datum at eps_1 - eps_3
    assert dims[(2, 1)] == 1  # one unit at each of the two roots


def test_product_character_single_ray():
    pc = product_character([(1, 0)], [1], bound=(4, 0))
    assert pc == {(k, 0): 1 for k in range(5)}
    pc2 = product_character([(1, 0)], [2], bound=(4, 0))
    assert pc2 == {(k, 0): k + 1 for k in range(5)}


def test_product_character_two_roots():
    # 1/((1-x)(1-xy)): coefficient at x^a y^b is 1 iff a >= b
    pc = product_character([(1, 0), (1, 1)], [1, 1], bound=(3, 3))
    for a in range(4):
        for b in range(4):
            assert pc.get((a, b), 0) == (1 if a >= b else 0)


def test_unit_exponents_assertion():
    # every inversion-set root carries alpha_r exactly once, so unit
    # exponents are the only case the identity needs
    for t in [AffineType("A", 4, 2), AffineType("D", 5, 5)]:
        for beta in positive_roots_simple(t):
            assert beta[t.r - 1] == 1


def test_identity_small_types():
    for t in [AffineType("A", 1, 1), AffineType("A", 3, 2),
              AffineType("D", 4, 1), AffineType("D", 4, 4)]:
        rep = character_identity_check(t, 7)
        assert rep.passed, rep.detail


def test_identity_detects_wrong_exponent():
    t = AffineType("A", 2, 1)
    roots = positive_roots_simple(t)
    lhs = module_character(t, height=6)
    rhs = product_character(roots, [2] * len(roots), height=6)
    assert lhs != rhs


def test_dump_csv_format():
    t = AffineType("A", 1, 1)
    text = dump_csv(module_character(t, height=2))
    assert text.splitlines()[0] == "0;1"
    assert "2;1" in text.splitlines()


# -- malformed input ----------------------------------------------------

@pytest.mark.parametrize("roots, exponents, kwargs, match", [
    ([(0, 0)], [1], {"bound": (2, 2)}, "zero root"),
    ([(1, 0), (0, 0)], [1, 1], {"height": 3}, "zero root"),
    ([(1, -1)], [1], {"bound": (2, 2)}, "nonnegative coordinates"),
    ([(1, 0), (1, 1, 0)], [1, 1], {"height": 3}, "different lengths"),
    ([(1, 0), (1, 1)], [1, 1], {"bound": (2, 2, 2)}, "box bound has 3"),
    ([(1, 0), (1, 1)], [1, 1], {"bound": (2,)}, "box bound has 1"),
    ([(1, 0)], [1], {"height": -1}, "height cap"),
    ([(1, 0)], [1], {"bound": (2, -1)}, "box bound entries"),
    ([], [], {"height": 3}, "at least one root"),
    # caps, exponents and coordinates are counts: a float one would fail
    # deep inside the pass, and a bool one is an int that counts nothing
    ([(1, 0)], [1], {"height": 3.0}, "height cap must be an int"),
    ([(1, 0)], [1], {"height": True}, "height cap must be an int"),
    ([(1, 0)], [1], {"bound": (2, 2.0)}, "box bound entries must be ints"),
    ([(1, 0)], [1], {"bound": (False, 2)}, "box bound entries must be ints"),
    ([(1, 0)], [2.0], {"height": 3}, "exponents must be ints"),
    ([(1, 0)], [True], {"height": 3}, "exponents must be ints"),
    ([(1.0, 0)], [1], {"height": 3}, "root coordinates must be ints"),
    ([(1, 0), (True, 1)], [1, 1], {"height": 3},
     "root coordinates must be ints"),
], ids=["zero-root", "zero-root-later", "negative-coordinate",
        "ragged-roots", "long-box", "short-box", "negative-height",
        "negative-box-entry", "no-roots", "float-height", "bool-height",
        "float-box-entry", "bool-box-entry", "float-exponent",
        "bool-exponent", "float-coordinate", "bool-coordinate"])
def test_product_character_rejects_malformed_input(roots, exponents,
                                                    kwargs, match):
    with pytest.raises(ValueError, match=match):
        product_character(roots, exponents, **kwargs)


# -- the sparse pass against the dense forward pass ----------------------

def dense_product_character(roots, exponents, bound=None, height=None):
    """Reference: walk every cell of the dense box in lexicographic order
    and turn each factor into its geometric series in place."""
    rank = len(roots[0])
    box = bound if bound is not None else (height,) * rank
    cells = [w for w in iproduct(*(range(b + 1) for b in box))
             if height is None or sum(w) <= height]
    cellset = set(cells)
    dims = {w: 0 for w in cells}
    dims[(0,) * rank] = 1
    for beta, m in zip(roots, exponents):
        for _ in range(m):
            for w in cells:
                prev = tuple(x - y for x, y in zip(w, beta))
                if prev in cellset:
                    dims[w] += dims[prev]
    return {w: d for w, d in dims.items() if d}


@st.composite
def product_inputs(draw):
    rank = draw(st.integers(1, 3))
    root = st.tuples(*[st.integers(0, 3)] * rank).filter(any)
    roots = draw(st.lists(root, min_size=1, max_size=4))
    exponents = draw(st.lists(st.integers(1, 3), min_size=len(roots),
                              max_size=len(roots)))
    caps = draw(st.sampled_from(["box", "height", "both"]))
    kwargs = {}
    if caps != "height":
        kwargs["bound"] = draw(st.tuples(*[st.integers(0, 5)] * rank))
    if caps != "box":
        # 15 and 16 sit at a digit boundary of the packed cells
        kwargs["height"] = draw(st.integers(0, 8) | st.sampled_from([15, 16]))
    return roots, exponents, kwargs


@settings(max_examples=150, deadline=None)
@given(product_inputs())
def test_product_character_matches_dense_pass(inputs):
    roots, exponents, kwargs = inputs
    assert (product_character(roots, exponents, **kwargs)
            == dense_product_character(roots, exponents, **kwargs))


@settings(max_examples=150, deadline=None)
@given(product_inputs(), st.data())
def test_product_character_is_independent_of_the_factor_order(inputs, data):
    # the pass sorts its factors tallest root first, equal heights in
    # the order given; any order given must come to the same coefficients
    roots, exponents, kwargs = inputs
    factors = data.draw(st.permutations(list(zip(roots, exponents))))
    shuffled_roots, shuffled_exponents = map(list, zip(*factors))
    assert (product_character(shuffled_roots, shuffled_exponents, **kwargs)
            == product_character(roots, exponents, **kwargs))


def test_identity_A8r4_height_12():
    # the dense box here has 13^8 cells; the sparse pass visits only
    # the 1,167 reachable weights
    rep = character_identity_check(AffineType("A", 8, 4), 12)
    assert rep.passed, rep.detail
    assert rep.detail == "1167 weights"
