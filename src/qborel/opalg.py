"""Formal noncommutative operator expressions and relation checking.

An ``OperatorExpr`` is a finite Coefficient-linear combination of words
in the letters ``e_0..e_n`` and ``k_i^{+-1}``.  Words act on module
elements right-to-left.  Two expressions are never compared as free
words: equality of operators is always decided by evaluation on graded
bases, since distinct free words can act identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coeffring import Coefficient, Combination, q_binomial
from .latticemod import Element, get_module, random_datum
from .rootdata import AffineType, cartan_matrix

# letters: an int i means e_i; ("k", i, s) means k_i^s with s = +-1.


class OperatorExpr(Combination):
    """A combination of words; ``==`` compares free words only, and
    operator equality goes via evaluation."""

    __slots__ = ()

    @staticmethod
    def identity():
        return OperatorExpr.basis(())

    @staticmethod
    def e(i):
        return OperatorExpr.basis((i,))

    @staticmethod
    def k(i, s=1):
        return OperatorExpr.basis((("k", i, s),))

    def __mul__(self, other):
        """Concatenation product: (xy)(v) = x(y(v))."""
        return OperatorExpr.collect((w1 + w2, c1 * c2)
                                    for w1, c1 in self.terms.items()
                                    for w2, c2 in other.terms.items())

    @staticmethod
    def _label(w):
        def lstr(x):
            if isinstance(x, tuple):
                return f"k{x[1]}" + ("" if x[2] == 1 else "^-1")
            return f"e{x}"

        return '.'.join(map(lstr, w)) or '1'

    @staticmethod
    def _sort_key(w):
        return (len(w), str(w))


def q_bracket(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    """[x, y]_q = xy - q^{-1} yx."""
    return x * y - (y * x).scale(Coefficient.q_power(-1))


def evaluate(x: OperatorExpr, t: AffineType, v: Element) -> Element:
    """Apply the expression to a module element, letters right-to-left.

    Each word's value has the a-degree of v plus its number of e_0
    letters and its coefficient's degree; words whose values differ in
    degree make the sum raise ValueError."""
    mod = get_module(t)
    out = Element.zero()
    for w, c in x.terms.items():
        u = v
        for letter in reversed(w):
            if u.is_zero():
                break
            if isinstance(letter, tuple):
                u = mod.apply_k(letter[1], letter[2], u)
            else:
                u = mod.apply_e(letter, u)
        out = out + u.scale(c)
    return out


def serre_expr(i: int, j: int, t: AffineType) -> OperatorExpr:
    """The denominator-cleared quantum Serre relation for the pair (i, j):
    sum_m (-1)^m [1-a_ij choose m]_q e_i^{1-a_ij-m} e_j e_i^m."""
    if i == j:
        raise ValueError("need i != j")
    aij = cartan_matrix(t)[i][j]
    N = 1 - aij
    out = OperatorExpr.zero()
    for m in range(N + 1):
        word = (i,) * (N - m) + (j,) + (i,) * m
        coeff = Coefficient.from_laurent(q_binomial(N, m) * ((-1) ** m))
        out = out + OperatorExpr.basis(word, coeff)
    return out


def k_e_conjugation_expr(i: int, j: int, t: AffineType) -> OperatorExpr:
    """k_i e_j k_i^{-1} - q^{a_ij} e_j (zero in the algebra)."""
    aij = cartan_matrix(t)[i][j]
    return (OperatorExpr.k(i) * OperatorExpr.e(j) * OperatorExpr.k(i, -1)
            - OperatorExpr.e(j).scale(Coefficient.q_power(aij)))


def k_commutation_expr(i: int, j: int) -> OperatorExpr:
    return OperatorExpr.k(i) * OperatorExpr.k(j) - OperatorExpr.k(j) * OperatorExpr.k(i)


def central_element_expr(t: AffineType) -> OperatorExpr:
    """k_0 * prod k_i^{a_i} - 1, with a_i the marks; acts as zero."""
    from .rootdata import marks
    x = OperatorExpr.k(0)
    for i, a in enumerate(marks(t), start=1):
        for _ in range(a):
            x = x * OperatorExpr.k(i)
    return x - OperatorExpr.identity()


@dataclass
class CheckReport:
    name: str
    passed: bool
    detail: str = ""
    lines: list = field(default_factory=list)

    def line(self):
        tail = f" {self.detail}" if self.detail else ""
        return f"CHECK {self.name} {'PASS' if self.passed else 'FAIL'}{tail}"


def check_identity_on_basis(x: OperatorExpr, t: AffineType, bound,
                            extra_random: int = 0, seed: int = 0,
                            name: str = "identity",
                            height: int = None) -> CheckReport:
    """Evaluate x on every basis vector within the caps (a simple-root
    box `bound`, a total height cap `height`, or both) plus extra seeded
    random data; PASS iff every value is zero."""
    mod = get_module(t)
    data = mod.enumerate_data(height=height, box=bound)
    rng = random.Random(seed)
    data = list(data) + [random_datum(t, rng) for _ in range(extra_random)]
    for c in data:
        out = evaluate(x, t, Element.basis(c))
        if not out.is_zero():
            return CheckReport(name, False,
                               f"counterexample {mod.datum_str(c)} -> {out}")
    return CheckReport(name, True, f"{len(data)} vectors")
