"""Cartan and root data for the two supported untwisted affine families.

Supported setups: family A with rank n >= 1 and any node r in {1,...,n};
family D with rank n >= 4 and r in {1, n-1, n} (the three nodes whose
fundamental coweight translation admits the combinatorics used here).

Every root is stored in simple-root coordinates, a tuple of n ints.  The
finite Cartan matrix is the one per-family input: the chain 1 - 2 - ...
- n, with node n joined to n-2 instead of n-1 in family D.  The form,
the positive roots, theta and the simple reflections are all read off
it.  The node-0 direction is represented through the highest root theta
via (alpha_0, x) = -(theta, x), which is all the algebra ever needs.
Epsilon-coordinates are only the print form of ``root_str``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul


class NotReduced(ValueError):
    """A word whose beta-sequence repeats or leaves the positive roots."""


class AffineType:
    """A supported type: family "A" or "D", rank n and node r.  Immutable
    and hashable; equal types compare and hash alike."""

    __slots__ = ("family", "n", "r")

    def __init__(self, family: str, n: int, r: int):
        init = object.__setattr__
        init(self, "family", family)
        init(self, "n", n)
        init(self, "r", r)
        if type(n) is not int or type(r) is not int:
            raise ValueError(f"bad type {self}")
        if family == "A":
            if n < 1 or not 1 <= r <= n:
                raise ValueError(f"bad type {self}")
        elif family == "D":
            if n < 4 or r not in (1, n - 1, n):
                raise ValueError(f"bad type {self}")
        else:
            raise ValueError(f"unknown family {family!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AffineType, (self.family, self.n, self.r)

    def __eq__(self, other):
        if other.__class__ is not AffineType:
            return NotImplemented
        return (self.family == other.family and self.n == other.n
                and self.r == other.r)

    def __hash__(self):
        return hash((self.family, self.n, self.r))

    def __repr__(self):
        return (f"AffineType(family={self.family!r}, n={self.n!r}, "
                f"r={self.r!r})")

    def __str__(self):
        return f"{self.family}{self.n}r{self.r}"


# ---------------------------------------------------------------------
# the Cartan matrix, the form and the positive roots
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _finite_cartan(t: AffineType):
    """The finite Cartan matrix, rows and columns indexed by 1..n."""
    n = t.n
    cm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        j = i - 2 if t.family == "D" and i == n - 1 else i - 1
        cm[i][j] = cm[j][i] = -1
    return tuple(map(tuple, cm))


def simple_root(t: AffineType, i: int):
    """alpha_i, for i in {1,...,n}; ValueError naming the type for any
    other i."""
    if not 1 <= i <= t.n:
        raise ValueError(f"alpha_{i} is not a simple root of {t}: the "
                         f"nodes are 1..{t.n}")
    v = [0] * t.n
    v[i - 1] = 1
    return tuple(v)


def simple_pairings(t: AffineType, v) -> tuple:
    """((alpha_1, v), ..., (alpha_n, v))."""
    return tuple(sum(map(mul, row, v)) for row in _finite_cartan(t))


def pairing(t: AffineType, x, y) -> int:
    """The symmetric form (x, y) of the root lattice."""
    return sum(map(mul, x, simple_pairings(t, y)))


@lru_cache(maxsize=None)
def positive_roots(t: AffineType) -> tuple:
    """Every positive root, by height: beta + alpha_i is a root exactly
    when (beta, alpha_i) = -1, the form being simply laced.  Each root
    carries its simple_pairings, which adding alpha_i raises by row i."""
    cm = _finite_cartan(t)
    roots = [(simple_root(t, i), cm[i - 1]) for i in range(1, t.n + 1)]
    seen = {beta for beta, _ in roots}
    for beta, pv in roots:  # the list grows as the loop walks it
        for i, x in enumerate(pv):
            if x == -1:
                gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if gamma not in seen:
                    seen.add(gamma)
                    roots.append((gamma, tuple(map(add, pv, cm[i]))))
    return tuple(beta for beta, _ in roots)


def theta(t: AffineType):
    """The highest root, the last of ``positive_roots``."""
    return positive_roots(t)[-1]


def marks(t: AffineType) -> tuple:
    """The marks a_1..a_n with theta = sum a_i alpha_i."""
    return theta(t)


def dual_coxeter(t: AffineType) -> int:
    """The dual Coxeter number h^v = 1 + a_1 + ... + a_n (simply laced,
    so marks and comarks agree): n + 1 for A_n, 2n - 2 for D_n."""
    return 1 + sum(marks(t))


def cartan_entry(t: AffineType, i: int, j: int) -> int:
    """The affine Cartan matrix entry a_{ij} = (alpha_i, alpha_j),
    0 <= i,j <= n."""
    for k in (i, j):
        if not 0 <= k <= t.n:
            raise ValueError(f"node {k} is not a node of {t}: the nodes are "
                             f"0..{t.n}")
    return cartan_matrix(t)[i][j]


@lru_cache(maxsize=None)
def cartan_matrix(t: AffineType):
    """The affine Cartan matrix a_{ij}, 0 <= i,j <= n (alpha_0 via -theta)."""
    row0 = tuple(-x for x in simple_pairings(t, theta(t)))
    return ((2,) + row0,) + tuple(
        (x,) + row for x, row in zip(row0, _finite_cartan(t)))


def o_sign(t: AffineType, i: int) -> int:
    """A 2-coloring sign map on I: o(i) = -o(j) whenever a_{ij} < 0.

    Family A uses (-1)^{i+1}.  Family D must give the two fork nodes the
    same color, so o(n) = o(n-1) there.
    """
    if t.family == "A" or i <= t.n - 1:
        return (-1) ** (i + 1)
    return (-1) ** t.n


# ---------------------------------------------------------------------
# reduced words and convex orders
# ---------------------------------------------------------------------

def _swap(i, j):
    def f(word):
        return tuple(j if x == i else i if x == j else x for x in word)
    return f


def reduced_word_wr(t: AffineType) -> tuple:
    """The explicit reduced word for w_r used throughout: the row
    reading of ``index_matrix``."""
    return tuple(x for row in index_matrix(t) for x in row)


def convex_order(t: AffineType, word) -> tuple:
    """The beta-sequence beta_k = w_{k-1}(alpha_{i_k}), w_{k-1} the prefix
    s_{i_1}...s_{i_{k-1}}.  The images w(alpha_j) of the simple roots are
    updated one letter at a time from row i of the Cartan matrix:
    w s_i(alpha_j) = w(alpha_j) - a_ij w(alpha_i).

    Raises NotReduced unless the betas are distinct positive roots.
    """
    cm = _finite_cartan(t)
    images = [simple_root(t, j) for j in range(1, t.n + 1)]
    betas = []
    for k, i in enumerate(word):
        if not 1 <= i <= t.n:
            raise ValueError(f"letter {i} of word {word} is not a node of "
                             f"{t}: the letters are 1..{t.n}")
        v = images[i - 1]
        if min(v) < 0 or v in betas:
            raise NotReduced(f"word {word} fails at position {k}")
        betas.append(v)
        images = [tuple(x - a * y for x, y in zip(w, v)) if a else w
                  for w, a in zip(images, cm[i - 1])]
    return tuple(betas)


@lru_cache(maxsize=None)
def positive_roots_wr(t: AffineType) -> tuple:
    """Delta^+(w_r), the positive roots with a nonzero alpha_r-coefficient
    (which is 1, r being minuscule), listed in the convex order of
    reduced_word_wr."""
    betas = convex_order(t, reduced_word_wr(t))
    if set(betas) != {b for b in positive_roots(t) if b[t.r - 1]}:
        raise AssertionError(f"beta-sequence of {t} does not enumerate the set")
    return betas


def root_str(t: AffineType, v) -> str:
    """A root-lattice vector printed in epsilon-coordinates, through the
    images alpha_i = e_i - e_{i+1}, and alpha_n = e_{n-1} + e_n in
    family D."""
    n = t.n
    eps = [0] * (n + 1)  # e_1 .. e_{n+1}
    for i, x in enumerate(v):  # x alpha_{i+1}
        if t.family == "D" and i == n - 1:
            eps[n - 2] += x
            eps[n - 1] += x
        else:
            eps[i] += x
            eps[i + 1] -= x
    parts = []
    for idx, x in enumerate(eps, start=1):
        if x == 0:
            continue
        parts.append(("+" if x > 0 else "-") if abs(x) == 1 else f"{x:+d}*")
        parts.append(f"e{idx}")
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


# ---------------------------------------------------------------------
# 2-braid moves
# ---------------------------------------------------------------------

def _commute(t: AffineType, x: int, y: int) -> bool:
    return cartan_entry(t, x, y) == 0


def braid_equivalent(t: AffineType, w1, w2) -> bool:
    """Equality of words up to swaps of adjacent commuting letters.

    Decided by a canonical form: two words are equivalent iff they have
    the same projection onto every pair of non-commuting letters (and the
    same letter multiset).  A breadth-first search over actual moves is
    kept alongside as a cross-check for short words (see tests).
    """
    if len(w1) != len(w2):
        return False
    return _projection_form(t, w1) == _projection_form(t, w2)


def _projection_form(t: AffineType, word):
    letters = sorted(set(word))
    cm = cartan_matrix(t)
    proj = {}
    for ai, x in enumerate(letters):
        for y in letters[ai:]:
            if x == y or cm[x][y] != 0:
                proj[(x, y)] = tuple(c for c in word if c in (x, y))
    return proj


def braid_equivalent_bfs(t: AffineType, w1, w2, cap=200000) -> bool:
    """Reference implementation by explicit search over 2-braid moves."""
    if len(w1) != len(w2):
        return False
    w1, w2 = tuple(w1), tuple(w2)
    seen = {w1}
    frontier = [w1]
    while frontier:
        nxt = []
        for w in frontier:
            if w == w2:
                return True
            for p in range(len(w) - 1):
                if w[p] != w[p + 1] and _commute(t, w[p], w[p + 1]):
                    u = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            if len(seen) > cap:
                raise RuntimeError("commutation class too large for BFS")
        frontier = nxt
    return w2 in seen


# ---------------------------------------------------------------------
# index matrices and their reading words
# ---------------------------------------------------------------------

def index_matrix(t: AffineType):
    """The index matrix whose row reading is reduced_word_wr.

    Family A: an r x (n+1-r) array with first row (r, r+1, ..., n) and
    each later row one less than the row above.  Family D (r = n): the
    upper-triangular array with diagonal (n, n-1, n, n-1, ...) and entry
    n-1-v+u at position (u, v) above it; r = n-1 swaps the letters
    n-1 <-> n; r = 1 is the single row (1, 2, ..., n, n-2, ..., 1) (see
    reading_words).
    """
    n, r = t.n, t.r
    if t.family == "A":
        return tuple(tuple(r - u + v for v in range(n - r + 1)) for u in range(r))
    if r == 1:
        return (tuple(range(1, n + 1)) + tuple(range(n - 2, 0, -1)),)
    rows = []
    for u in range(1, n):
        row = [n if u % 2 == 1 else n - 1]
        row.extend(n - 1 - v + u for v in range(u + 1, n))
        rows.append(tuple(row))
    if r == n - 1:
        rows = [_swap(n - 1, n)(row) for row in rows]
    return tuple(rows)


def reading_words(t: AffineType):
    """Row and column readings of the index matrix (both reduced words).

    For family D with r = 1 there is no two-dimensional matrix; the
    column word is taken to be the row word with its unique commuting
    adjacent pair (n-1, n) swapped, a labeled convention.
    """
    row = reduced_word_wr(t)
    if t.family == "D" and t.r == 1:
        n = t.n
        p = row.index(n - 1)
        col = row[:p] + (n, n - 1) + row[p + 2:]
        return row, col
    m = index_matrix(t)
    ncols = max(len(mrow) for mrow in m)
    col = []
    if t.family == "A":
        for v in range(ncols):
            for u in range(len(m)):
                col.append(m[u][v])
    else:
        # upper-triangular: row u occupies columns u..n-1 (1-indexed)
        for v in range(ncols):
            for u in range(v + 1):
                col.append(m[u][v - u])
    return row, tuple(col)
