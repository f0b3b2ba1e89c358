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

from .coeffring import Coefficient, Combination, _homogeneous, q_binomial
from .latticemod import Element, get_module, letter_str, random_datum
from .rootdata import AffineType, cartan_entry

# letters: an int i means e_i; ("k", i, s) means k_i^s with s = +-1.


class OperatorExpr(Combination):
    """A combination of words; ``==`` compares free words only, and
    operator equality goes via evaluation.

    Nothing mutates ``terms`` after construction: every constructor and
    operation returns a fresh expression.  So ``evaluate`` compiles an
    expression once, on first use, into a program kept in ``_program``:
    for each word its letters in application order, its coefficient's
    Laurent part and a-degree, and the distinct letters of all words.
    The program does not depend on the type it is evaluated on."""

    __slots__ = ("_program",)

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

    def _compiled(self):
        """(words, letters): each word as (letters in application order,
        Laurent part of its coefficient, or None for 1, a-degree of the
        coefficient plus the word's number of e_0 letters), and the set
        of all letters."""
        try:
            return self._program
        except AttributeError:
            words = []
            for w, c in self.terms.items():
                p, d = _homogeneous(c)
                words.append((w[::-1], None if p == 1 else p,
                              d + w.count(0)))
            letters = frozenset(x for w in self.terms for x in w)
            self._program = (tuple(words), letters)
            return self._program

    @staticmethod
    def _label(w):
        return '.'.join(map(letter_str, w)) or '1'

    @staticmethod
    def _sort_key(w):
        return (len(w), str(w))


def q_bracket(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    """[x, y]_q = xy - q^{-1} yx."""
    return x * y - (y * x).scale(Coefficient.q_power(-1))


def evaluate(x: OperatorExpr, t: AffineType, v: Element) -> Element:
    """Apply the expression to a module element, letters right-to-left.

    Every letter and every datum of v must be one of t's (ValueError
    otherwise), checked once, before any word runs.  Each word runs on
    the plain term map {datum: LaurentPoly} of v through
    ``LatticeModule._run_word``, which walks a basis vector as one
    (datum, coefficient) pair until a step branches, and its value
    times the word's coefficient is added into one map; the result is
    built as an ``Element`` at the end, and v is never mutated.  A
    word's value has the a-degree of v plus its number of e_0 letters
    and its coefficient's degree; two nonzero word values of different
    degrees raise ValueError."""
    words, letters = x._compiled()
    mod = get_module(t)
    mod.check_letters(letters)
    terms = v.terms
    mod.check_data(terms)
    run_word = mod._run_word
    out = {}
    deg = None
    for w, p, d in words:
        u = run_word(w, terms)
        if not u:
            continue
        d += v.deg
        if not out:
            # the word's value starts the sum; its map is its own unless
            # it is v's, as for the empty word
            deg = d
            if p is not None:
                out = {c: p * val for c, val in u.items()}
            else:
                out = dict(u) if u is terms else u
            continue
        if d != deg:
            raise ValueError(f"sum of words of a-degrees {deg} and {d} "
                             f"in {x} on {v}")
        get = out.get
        for c, val in u.items():
            if p is not None:
                val = p * val
            s = get(c)
            if s is None:
                out[c] = val
            else:
                s = s + val
                if s:
                    out[c] = s
                else:
                    del out[c]
    return Element._of(out, deg or 0)


def serre_expr(i: int, j: int, t: AffineType) -> OperatorExpr:
    """The denominator-cleared quantum Serre relation for the pair (i, j):
    sum_m (-1)^m [1-a_ij choose m]_q e_i^{1-a_ij-m} e_j e_i^m."""
    if i == j:
        raise ValueError("need i != j")
    aij = cartan_entry(t, i, j)
    N = 1 - aij
    out = OperatorExpr.zero()
    for m in range(N + 1):
        word = (i,) * (N - m) + (j,) + (i,) * m
        coeff = Coefficient.from_laurent(q_binomial(N, m) * ((-1) ** m))
        out = out + OperatorExpr.basis(word, coeff)
    return out


def k_e_conjugation_expr(i: int, j: int, t: AffineType) -> OperatorExpr:
    """k_i e_j k_i^{-1} - q^{a_ij} e_j (zero in the algebra)."""
    aij = cartan_entry(t, i, j)
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
