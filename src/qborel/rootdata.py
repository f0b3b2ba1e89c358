"""Cartan and root data for the two supported untwisted affine families.

Supported setups: family A with rank n >= 1 and any node r in {1,...,n};
family D with rank n >= 4 and r in {1, n-1, n} (the three nodes whose
fundamental coweight translation admits the combinatorics used here).

Roots are stored in epsilon-coordinates: integer vectors of length n+1
(family A; root-lattice vectors sum to zero) or length n (family D).
The node-0 direction is represented through the highest root theta via
(alpha_0, x) = -(theta, x), which is all the algebra ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class NotReduced(ValueError):
    """A word whose beta-sequence repeats or leaves the positive roots."""


@dataclass(frozen=True)
class AffineType:
    family: str  # "A" or "D"
    n: int
    r: int

    def __post_init__(self):
        if self.family == "A":
            if self.n < 1 or not 1 <= self.r <= self.n:
                raise ValueError(f"bad type {self}")
        elif self.family == "D":
            if self.n < 4 or self.r not in (1, self.n - 1, self.n):
                raise ValueError(f"bad type {self}")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def eps_dim(self):
        return self.n + 1 if self.family == "A" else self.n

    def __str__(self):
        return f"{self.family}{self.n}r{self.r}"


# ---------------------------------------------------------------------
# simple roots, theta, pairing
# ---------------------------------------------------------------------

def simple_root(t: AffineType, i: int):
    """alpha_i in epsilon-coordinates, for i in {1,...,n}."""
    n, d = t.n, t.eps_dim
    v = [0] * d
    if t.family == "A" or i < n:
        v[i - 1], v[i] = 1, -1
    else:  # family D, i == n: alpha_n = eps_{n-1} + eps_n
        v[n - 2], v[n - 1] = 1, 1
    return tuple(v)


def theta(t: AffineType):
    """The highest root: eps_1 - eps_{n+1} (A) or eps_1 + eps_2 (D)."""
    v = [0] * t.eps_dim
    if t.family == "A":
        v[0], v[t.n] = 1, -1
    else:
        v[0], v[1] = 1, 1
    return tuple(v)


def pairing(x, y) -> int:
    """The symmetric form as an epsilon-coordinate dot product.

    For family A this is only valid when at least one argument lies in
    the root lattice (coordinates summing to zero), where the 1/(n+1)
    correction term of the ambient form drops out.
    """
    if len(x) != len(y):
        raise ValueError("incompatible lattices")
    return sum(a * b for a, b in zip(x, y))


def to_simple_coords(t: AffineType, v) -> tuple:
    """Write a root-lattice vector in the basis alpha_1..alpha_n."""
    n = t.n
    if t.family == "A":
        if sum(v) != 0:
            raise ValueError("not in the root lattice")
        return tuple(sum(v[:i]) for i in range(1, n + 1))
    c = [0] * (n + 1)  # 1-indexed
    for i in range(1, n - 1):
        c[i] = c[i - 1] + v[i - 1] if i > 1 else v[0]
    # remaining two coordinates from the fork relations
    s = v[n - 2] + (c[n - 2] if n >= 3 else 0)
    d = v[n - 1]
    if (s - d) % 2 or (s + d) % 2:
        raise ValueError("not in the root lattice")
    c[n - 1] = (s - d) // 2
    c[n] = (s + d) // 2
    return tuple(c[1:])


def marks(t: AffineType) -> tuple:
    """The marks a_1..a_n with theta = sum a_i alpha_i."""
    return to_simple_coords(t, theta(t))


def dual_coxeter(t: AffineType) -> int:
    """The dual Coxeter number h^v = 1 + a_1 + ... + a_n (simply laced,
    so marks and comarks agree): n + 1 for A_n, 2n - 2 for D_n."""
    return 1 + sum(marks(t))


def _affine_simple_root(t: AffineType, i: int):
    """alpha_i for i in {0,...,n}, with alpha_0 represented by -theta."""
    if not 0 <= i <= t.n:
        raise ValueError(f"node {i} is not a node of {t}: the nodes are "
                         f"0..{t.n}")
    if i == 0:
        return tuple(-x for x in theta(t))
    return simple_root(t, i)


def cartan_entry(t: AffineType, i: int, j: int) -> int:
    """The affine Cartan matrix entry a_{ij} = (alpha_i, alpha_j),
    0 <= i,j <= n."""
    return pairing(_affine_simple_root(t, i), _affine_simple_root(t, j))


def cartan_matrix(t: AffineType):
    """The affine Cartan matrix a_{ij}, 0 <= i,j <= n (alpha_0 via -theta)."""
    alphas = [_affine_simple_root(t, i) for i in range(t.n + 1)]
    return tuple(tuple(pairing(a, b) for b in alphas) for a in alphas)


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
    """The explicit reduced word for w_r used throughout."""
    n, r = t.n, t.r
    if t.family == "A":
        word = []
        for s in range(r, 0, -1):
            word.extend(range(s, s + n - r + 1))
        return tuple(word)
    if r == 1:
        return tuple(range(1, n + 1)) + tuple(range(n - 2, 0, -1))
    # r == n: blocks k = 1..n-1
    word = []
    for k in range(1, n):
        if n % 2 == 0 and k == n - 1:
            word.append(n)
        elif k % 2 == 1:
            word.append(n)
            word.extend(range(n - 2, k - 1, -1))
        else:
            word.extend(range(n - 1, k - 1, -1))
    word = tuple(word)
    if r == n - 1:
        word = _swap(n - 1, n)(word)
    return word


def _reflect(t: AffineType, i: int, v):
    """Apply the simple reflection s_i to an epsilon-coordinate vector."""
    n = t.n
    v = list(v)
    if t.family == "A" or i < n:
        v[i - 1], v[i] = v[i], v[i - 1]
    else:
        v[n - 2], v[n - 1] = -v[n - 1], -v[n - 2]
    return tuple(v)


def _is_positive_root(v) -> bool:
    for x in v:
        if x:
            return x > 0
    return False


def convex_order(t: AffineType, word) -> tuple:
    """The beta-sequence beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}).

    Raises NotReduced unless the betas are distinct positive roots.
    """
    betas = []
    for k in range(len(word)):
        v = simple_root(t, word[k])
        for j in range(k - 1, -1, -1):
            v = _reflect(t, word[j], v)
        if not _is_positive_root(v) or v in betas:
            raise NotReduced(f"word {word} fails at position {k}")
        betas.append(v)
    return tuple(betas)


@lru_cache(maxsize=None)
def positive_roots_wr(t: AffineType) -> tuple:
    """Delta^+(w_r), listed in the convex order of reduced_word_wr."""
    betas = convex_order(t, reduced_word_wr(t))
    n, r = t.n, t.r
    if t.family == "A":
        expected = {_eps_pair(t, i, j, -1) for i in range(1, r + 1)
                    for j in range(r + 1, n + 2)}
    elif r == 1:
        expected = {_eps_pair(t, 1, i, s) for i in range(2, n + 1) for s in (-1, 1)}
    elif r == n:
        expected = {_eps_pair(t, i, j, 1) for i in range(1, n)
                    for j in range(i + 1, n + 1)}
    else:  # r == n-1: flip the sign of eps_n in the r = n labels
        expected = set()
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                v = list(_eps_pair(t, i, j, 1))
                v[n - 1] = -v[n - 1]
                expected.add(tuple(v))
    if set(betas) != expected:
        raise AssertionError(f"beta-sequence of {t} does not enumerate the set")
    return betas


def _eps_pair(t: AffineType, i, j, sign):
    v = [0] * t.eps_dim
    v[i - 1] = 1
    v[j - 1] += sign
    return tuple(v)


def root_str(v) -> str:
    parts = []
    for idx, x in enumerate(v, start=1):
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
    """The index matrix whose row reading gives reduced_word_wr.

    Family A: an r x (n+1-r) array with first row (r, r+1, ..., n) and
    each later row one less than the row above.  Family D (r = n): the
    upper-triangular array with diagonal (n, n-1, n, n-1, ...) and entry
    n-1-v+u at position (u, v) above it; r = n-1 swaps the letters
    n-1 <-> n; r = 1 has no matrix (single-row convention, see
    reading_words).
    """
    n, r = t.n, t.r
    if t.family == "A":
        return tuple(tuple(r - u + v for v in range(n - r + 1)) for u in range(r))
    if r == 1:
        return (reduced_word_wr(t),)
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
    if t.family == "D" and t.r == 1:
        row = reduced_word_wr(t)
        n = t.n
        p = row.index(n - 1)
        col = row[:p] + (n, n - 1) + row[p + 2:]
        return row, col
    m = index_matrix(t)
    row = tuple(x for mrow in m for x in mrow)
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
