import copy
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from qborel import rootdata
from qborel.rootdata import (AffineType, NotReduced, braid_equivalent,
                             braid_equivalent_bfs, cartan_entry, cartan_matrix,
                             convex_order, index_matrix, marks, o_sign,
                             pairing, positive_roots, positive_roots_wr,
                             reading_words, reduced_word_wr, root_str,
                             simple_root, theta)


def all_types(nmax=6):
    out = []
    for n in range(1, nmax + 1):
        for r in range(1, n + 1):
            out.append(AffineType("A", n, r))
    for n in range(4, nmax + 1):
        for r in (1, n - 1, n):
            out.append(AffineType("D", n, r))
    return out


def test_type_validation():
    with pytest.raises(ValueError):
        AffineType("D", 3, 1)
    with pytest.raises(ValueError):
        AffineType("D", 5, 2)
    with pytest.raises(ValueError):
        AffineType("A", 3, 4)
    with pytest.raises(ValueError):
        AffineType("B", 2, 1)


@pytest.mark.parametrize("args", [("A", 3, True), ("A", 3, 2.0),
                                  ("A", 3.0, 2), ("D", True, 1)],
                         ids=["bool-node", "float-node", "float-rank",
                              "bool-rank"])
def test_type_rejects_non_int_rank_and_node(args):
    with pytest.raises(ValueError, match="bad type"):
        AffineType(*args)


TYPE_ERRORS = {   # message -> arguments
    "bad type D3r1": ("D", 3, 1), "bad type D5r2": ("D", 5, 2),
    "bad type A3r4": ("A", 3, 4), "bad type A0r1": ("A", 0, 1),
    "unknown family 'B'": ("B", 2, 1), "bad type A3rTrue": ("A", 3, True),
    "bad type A3r2.0": ("A", 3, 2.0), "bad type A3.0r2": ("A", 3.0, 2),
    "bad type DTruer1": ("D", True, 1)}


@pytest.mark.parametrize("message", TYPE_ERRORS)
def test_type_validation_messages(message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AffineType(*TYPE_ERRORS[message])


def test_type_is_an_immutable_value():
    t = AffineType("A", 3, 2)
    u = AffineType(family="A", n=3, r=2)
    assert t is not u and t == u and hash(t) == hash(u)
    assert hash(t) == hash(("A", 3, 2))
    assert t != ("A", 3, 2) and ("A", 3, 2) != t
    assert t != AffineType("A", 3, 1) and t != AffineType("D", 4, 4)
    assert (t.family, t.n, t.r) == ("A", 3, 2)
    assert repr(t) == "AffineType(family='A', n=3, r=2)"
    assert str(t) == "A3r2"
    for attempt in (lambda: setattr(t, "n", 4), lambda: delattr(t, "n"),
                    lambda: setattr(t, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert t.n == 3
    assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)
    assert len({t, u, AffineType("A", 3, 1)}) == 2


def test_cartan_matrices_small():
    t = AffineType("A", 2, 1)
    assert cartan_matrix(t) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    t = AffineType("A", 1, 1)
    assert cartan_matrix(t) == ((2, -2), (-2, 2))
    t = AffineType("D", 4, 4)
    cm = cartan_matrix(t)
    # node 2 is the affine branch point: joined to 0, 1, 3, 4
    assert [cm[2][j] for j in range(5)] == [-1, -1, 2, -1, -1]
    assert cm[3][4] == 0 and cm[0][1] == 0


def test_cartan_symmetric_and_diagonal():
    for t in all_types():
        cm = cartan_matrix(t)
        for i in range(t.n + 1):
            assert cm[i][i] == 2
            for j in range(t.n + 1):
                assert cm[i][j] == cm[j][i]
                if i != j:
                    assert cm[i][j] <= 0


def test_theta_marks():
    assert marks(AffineType("A", 4, 1)) == (1, 1, 1, 1)
    assert marks(AffineType("D", 4, 4)) == (1, 2, 1, 1)
    assert marks(AffineType("D", 6, 1)) == (1, 2, 2, 2, 1, 1)


def test_positive_roots_from_the_matrix():
    # n(n+1)/2 roots for A_n and n(n-1) for D_n, and theta the unique
    # root of greatest height
    for t in all_types(12):
        roots = positive_roots(t)
        n = t.n
        assert len(set(roots)) == len(roots) == (
            n * (n + 1) // 2 if t.family == "A" else n * (n - 1))
        top = max(map(sum, roots))
        assert [b for b in roots if sum(b) == top] == [theta(t)]


def _parse_eps(text):
    """The epsilon-coordinates {index: coefficient} of a root_str text."""
    out = {}
    for sign, mult, idx in re.findall(r"([+-]?)(?:(\d+)\*)?e(\d+)", text):
        out[int(idx)] = (-1 if sign == "-" else 1) * int(mult or 1)
    return out


def test_root_str_keeps_the_form():
    # the printed epsilon forms of the roots of u_r have dot product
    # (beta, gamma)
    for t in all_types():
        roots = positive_roots_wr(t)
        eps = [_parse_eps(root_str(t, b)) for b in roots]
        for b, x in zip(roots, eps):
            for c, y in zip(roots, eps):
                dot = sum(m * y.get(i, 0) for i, m in x.items())
                assert dot == pairing(t, b, c)


@pytest.mark.parametrize("t", [AffineType("A", 4, 2), AffineType("D", 5, 1),
                               AffineType("D", 5, 5)], ids=str)
def test_positive_roots_wr_rejects_a_word_of_another_element(t, monkeypatch):
    # dropping the last letter keeps the word reduced but loses theta
    word = reduced_word_wr(t)
    monkeypatch.setattr(rootdata, "reduced_word_wr", lambda _: word[:-1])
    positive_roots_wr.cache_clear()
    try:
        with pytest.raises(AssertionError, match="does not enumerate"):
            positive_roots_wr(t)
    finally:
        positive_roots_wr.cache_clear()


def test_o_sign_alternates_on_edges():
    for t in all_types(9):
        cm = cartan_matrix(t)
        for i in range(1, t.n + 1):
            for j in range(1, t.n + 1):
                if i != j and cm[i][j] < 0:
                    assert o_sign(t, i) == -o_sign(t, j)


def test_reduced_words_are_reduced():
    for t in all_types(9):
        word = reduced_word_wr(t)
        betas = convex_order(t, word)
        assert len(set(betas)) == len(word)


def test_convex_order_endpoints():
    for t in all_types(9):
        betas = convex_order(t, reduced_word_wr(t))
        assert betas[0] == simple_root(t, t.r)
        assert betas[-1] == theta(t)


@pytest.mark.parametrize("t", [AffineType("A", 3, 2), AffineType("D", 5, 1)],
                         ids=str)
def test_simple_root_rejects_nodes_outside_1_to_n(t):
    for i in (-1, 0, t.n + 1):
        with pytest.raises(ValueError,
                           match=rf"alpha_{i} is not a simple root of {t}"):
            simple_root(t, i)


def test_convex_order_rejects_non_reduced():
    t = AffineType("A", 3, 2)
    with pytest.raises(NotReduced):
        convex_order(t, (2, 2))
    with pytest.raises(NotReduced):
        convex_order(t, (1, 2, 1, 2, 1, 2))


@pytest.mark.parametrize("word", [(0,), (2, 0), (4,), (1, -1)], ids=str)
def test_convex_order_rejects_letters_outside_the_nodes(word):
    with pytest.raises(ValueError, match=r"is not a node of A3r2"):
        convex_order(AffineType("A", 3, 2), word)


def test_convexity_property():
    # if beta_i + beta_j is again in the list, it sits between them
    for t in all_types():
        betas = convex_order(t, reduced_word_wr(t))
        pos = {b: k for k, b in enumerate(betas)}
        for i, bi in enumerate(betas):
            for j in range(i + 1, len(betas)):
                s = tuple(x + y for x, y in zip(bi, betas[j]))
                if s in pos:
                    assert i < pos[s] < j


def test_inversion_set_sizes():
    # |Delta^+(w_r)|: r(n+1-r) for A; 2(n-1) for D r=1; n(n-1)/2 otherwise
    for t in all_types():
        size = len(positive_roots_wr(t))
        if t.family == "A":
            assert size == t.r * (t.n + 1 - t.r)
        elif t.r == 1:
            assert size == 2 * (t.n - 1)
        else:
            assert size == t.n * (t.n - 1) // 2


def test_alpha_r_multiplicity_one():
    # every root of the inversion set contains alpha_r exactly once
    for t in all_types():
        for b in positive_roots_wr(t):
            assert b[t.r - 1] == 1


def test_pairing_root_lengths():
    for t in all_types(12):
        for b in positive_roots(t):
            assert pairing(t, b, b) == 2


def test_braid_projection_vs_bfs():
    # cross-check the canonical form against explicit move search
    for t in [AffineType("A", 4, 2), AffineType("D", 4, 4),
              AffineType("D", 5, 1), AffineType("A", 5, 3)]:
        row, col = reading_words(t)
        assert braid_equivalent(t, row, col)
        assert braid_equivalent_bfs(t, row, col)


def test_braid_not_equivalent():
    t = AffineType("A", 3, 2)
    # adjacent non-commuting letters swapped: different commutation class
    assert not braid_equivalent(t, (1, 2, 3), (2, 1, 3))
    assert not braid_equivalent(t, (1, 3), (1, 3, 1))


@settings(max_examples=60)
@given(st.data())
def test_braid_random_shuffles(data):
    t = AffineType("A", 5, 2)
    word = list(reduced_word_wr(t))
    # apply random legal commuting swaps; equivalence must be preserved
    nswaps = data.draw(st.integers(0, 12))
    cm = cartan_matrix(t)
    w = list(word)
    for _ in range(nswaps):
        p = data.draw(st.integers(0, len(w) - 2))
        if w[p] != w[p + 1] and cm[w[p]][w[p + 1]] == 0:
            w[p], w[p + 1] = w[p + 1], w[p]
    assert braid_equivalent(t, tuple(word), tuple(w))


def test_index_matrix_family_A():
    t = AffineType("A", 4, 2)
    assert index_matrix(t) == ((2, 3, 4), (1, 2, 3))
    row, col = reading_words(t)
    assert row == (2, 3, 4, 1, 2, 3)
    assert col == (2, 1, 3, 2, 4, 3)


def test_reading_words_reduced_and_equivalent():
    for t in all_types(9):
        row, col = reading_words(t)
        assert row == reduced_word_wr(t)
        convex_order(t, col)  # must not raise
        assert braid_equivalent(t, row, col)


def test_cartan_entry_is_the_matrix_entry():
    for t in all_types():
        cm = cartan_matrix(t)
        for i in range(t.n + 1):
            for j in range(t.n + 1):
                assert cartan_entry(t, i, j) == cm[i][j]
    t = AffineType("A", 3, 2)
    for i, j in [(4, 0), (0, -1)]:
        with pytest.raises(ValueError, match=r"is not a node of A3r2"):
            cartan_entry(t, i, j)
