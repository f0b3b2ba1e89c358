"""Formal noncommutative operator expressions and relation checking.

An ``OperatorExpr`` is a finite Coefficient-linear combination of words
in the letters ``e_0..e_n`` and ``k_i^{+-1}``.  Words act on module
elements right-to-left.  Two expressions are never compared as free
words: equality of operators is always decided by evaluation on graded
bases, since distinct free words can act identically.

``run_expression`` evaluates an expression on any module given by its
step ``run_word(word, terms)`` on term maps {label: LaurentPoly}:
``LatticeModule._run_word`` on Lusztig data, and ``microrec._run_word``
on the powers of the rank-one models.  ``evaluate`` is the lattice
module's letter and datum checks followed by one ``run_expression``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coeffring import (Coefficient, Combination, _add_terms, _homogeneous,
                        q_binomial)
from .latticemod import Element, get_module, letter_str, random_datum
from .rootdata import AffineType, cartan_entry, marks

# letters: an int i means e_i; ("k", i, s) means k_i^s with s = +-1.


class OperatorExpr(Combination):
    """A combination of words; ``==`` compares free words only, and
    operator equality goes via evaluation.

    Nothing mutates ``terms`` after construction: every constructor and
    operation returns a fresh expression.  So an expression is compiled
    once, on the first read of ``_program``, into a program kept there:
    the letters of all words, and for each a-degree class (a word's
    coefficient degree plus its number of e_0 letters) a word trie,
    left-factored so that sum_w c_w w(v) = sum_x x(sum_u c_{xu} u(v)).
    A trie node is a tuple of edges (segment, child, p): a branch-free
    chain of letters in application order, the node below it or None
    when the segment ends a word and so runs on v, and the Laurent part
    of that word's coefficient, or None.  Words with no shared leftmost
    letter make a flat root.  The program does not depend on the type."""

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

    def __getattr__(self, name):
        """``_program`` on its first read, which then fills its slot:
        (classes, letters), the (a-degree, trie) pairs and all letters."""
        if name != "_program":
            raise AttributeError(name)
        classes = {}
        for w, c in self.terms.items():
            p, d = _homogeneous(c)
            classes.setdefault(d + w.count(0), []).append(
                (w[::-1], None if p == 1 else p))
        letters = frozenset(x for w in self.terms for x in w)
        self._program = (tuple((d, _trie(words))
                               for d, words in classes.items()), letters)
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


def _trie(words):
    """The trie node of (letters in application order, p) pairs."""
    edges, groups = [], {}
    for w, p in words:
        if w:
            groups.setdefault(w[-1], []).append((w[:-1], p))
        else:
            edges.append(((), None, p))
    for x, sub in groups.items():
        child = _trie(sub)
        if len(child) == 1:
            # a chain with no branch is one segment
            (seg, child, p), = child
            edges.append((seg + (x,), child, p))
        else:
            edges.append(((x,), child, None))
    return tuple(edges)


def _run_trie(edges, terms, run_word):
    """The sum over a trie node's edges of each segment applied to its
    child's value, or to terms scaled by p, as a new map without zeros;
    p scales a segment's value when it is merged.  A value that needs
    no scaling starts an empty sum as is, unless it is terms itself."""
    out = {}
    for seg, child, p in edges:
        u = run_word(seg, terms if child is None
                     else _run_trie(child, terms, run_word))
        if not u:
            continue
        if not out and p is None and u is not terms:
            out = u
        else:
            _add_terms(out, u.items(), p)
    return out


def run_expression(x: OperatorExpr, run_word, v):
    """Apply the expression to v, a ``GradedCombination`` of any module
    given by its step run_word(word, terms): the letters of word, in
    application order, applied to a term map {label: LaurentPoly}, as a
    new map without zeros (terms itself for the empty word), the factor
    a of each e_0 left to the caller.

    Each a-degree class runs its trie on v's term map, so an outer
    letter is applied once, to the summed value of the words below it.
    v is never mutated.  Two nonzero class values raise ValueError; a
    class whose words cancel on v has no degree.  The value is of v's
    own kind."""
    terms = v.terms
    out = {}
    deg = 0
    for d, edges in x._program[0]:
        u = _run_trie(edges, terms, run_word)
        if not u:
            continue
        d += v.deg
        if out:
            raise ValueError(f"sum of words of a-degrees {deg} and {d} "
                             f"in {x} on {v}")
        out, deg = u, d
    return v._of(out, deg)


def evaluate(x: OperatorExpr, t: AffineType, v: Element) -> Element:
    """``run_expression`` on the lattice module of t, once every letter
    and every datum of v is checked to be one of t's (ValueError).

    The letters are one subset test, and ``check_letters`` runs only to
    raise; ``check_data`` skips a datum that is the very object of the
    module's intern table and checks every other."""
    mod = get_module(t)
    letters = x._program[1]
    if not mod.letters.issuperset(letters):
        mod.check_letters(letters)
    mod.check_data(v.terms)
    return run_expression(x, mod._run_word, v)


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
