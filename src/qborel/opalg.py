"""Formal noncommutative operator expressions and relation checking.

An ``OperatorExpr`` is a finite linear combination of words in the
letters ``e_0..e_n`` and ``k_i^{+-1}``: a ``GradedCombination``, whose
coefficients are LaurentPolys times one power a^deg for the whole
expression, as for module elements.  Words act on module elements
right-to-left.  Two expressions are never compared as free
words: equality of operators is always decided by evaluation on graded
bases, since distinct free words can act identically.

``run_expression`` evaluates an expression on any module given by its
step ``run_word(word, terms)`` on term maps {label: LaurentPoly}:
``LatticeModule._run_word`` on Lusztig data, as is or, for the
rank-one lowering model, with each e_0 letter replaced by e_0 k_1.
``evaluate`` is the lattice module's letter and datum checks followed
by one ``run_expression``.  ``defining_relations`` lists every defining
relation of a type by name.
"""

from __future__ import annotations

import random

from .coeffring import (_ONE, GradedCombination, LaurentPoly, _add_terms,
                        q_binomial)
from .latticemod import Element, get_module, letter_str, random_datum
from .rootdata import AffineType, cartan_entry, marks

# letters: an int i means e_i; ("k", i, s) means k_i^s with s = +-1.


class OperatorExpr(GradedCombination):
    """A graded combination of words: a^deg * sum_w terms[w] w, each
    terms[w] a LaurentPoly.  ``==`` compares free words only, and
    operator equality goes via evaluation; as for any
    ``GradedCombination``, a sum of two nonzero expressions of different
    degrees raises ValueError.

    Nothing mutates ``terms`` after construction: every constructor and
    operation returns a fresh expression.  So an expression is compiled
    once, on the first read of ``_program``, into a program kept there:
    the letters of all words, and for each a-degree class (deg plus a
    word's number of e_0 letters) a word trie, left-factored so that
    sum_w c_w w(v) = sum_x x(sum_u c_{xu} u(v)).  A trie node is a tuple
    of edges (segment, child, p): a branch-free chain of letters in
    application order, the node below it or None when the segment ends
    a word and so runs on v, and that word's LaurentPoly coefficient, or
    None for 1.  Words with no shared leftmost letter make a flat root.
    The program does not depend on the type."""

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
        """Concatenation product: (xy)(v) = x(y(v)), of a-degree
        self.deg + other.deg."""
        return OperatorExpr._of(_add_terms({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items())), self.deg + other.deg)

    def __getattr__(self, name):
        """``_program`` on its first read, which then fills its slot:
        (classes, letters), the (a-degree, trie) pairs and all letters.
        A word's class is deg plus its number of e_0 letters, and its
        trie leaf holds its LaurentPoly as is."""
        if name != "_program":
            raise AttributeError(name)
        classes = {}
        for w, p in self.terms.items():
            classes.setdefault(self.deg + w.count(0), []).append(
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
    return x * y - (y * x).scale(LaurentPoly.q_power(-1))


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
    sum_m (-1)^m [1-a_ij choose m]_q e_i^{1-a_ij-m} e_j e_i^m, its words
    by increasing m."""
    if i == j:
        raise ValueError("need i != j")
    N = 1 - cartan_entry(t, i, j)
    terms = {}
    for m in range(N + 1):
        b = q_binomial(N, m)
        terms[(i,) * (N - m) + (j,) + (i,) * m] = -b if m & 1 else b
    return OperatorExpr._of(terms)


def k_e_conjugation_expr(i: int, j: int, t: AffineType) -> OperatorExpr:
    """k_i e_j k_i^{-1} - q^{a_ij} e_j (zero in the algebra)."""
    aij = cartan_entry(t, i, j)
    return OperatorExpr._of({
        (("k", i, 1), j, ("k", i, -1)): _ONE,
        (j,): LaurentPoly.q_power(aij, -1)})


def k_commutation_expr(i: int, j: int) -> OperatorExpr:
    """k_i k_j - k_j k_i (zero in the algebra; the zero expression for
    i = j)."""
    if i == j:
        return OperatorExpr.zero()
    ki, kj = ("k", i, 1), ("k", j, 1)
    return OperatorExpr._of({(ki, kj): _ONE,
                             (kj, ki): LaurentPoly.from_int(-1)})


def central_element_expr(t: AffineType) -> OperatorExpr:
    """k_0 * prod k_i^{a_i} - 1, with a_i the marks; acts as zero."""
    word = (("k", 0, 1),)
    for i, a in enumerate(marks(t), start=1):
        word += (("k", i, 1),) * a
    return OperatorExpr._of({word: _ONE, (): LaurentPoly.from_int(-1)})


def defining_relations(t: AffineType):
    """Every defining relation of t as (name, expression) pairs: for each
    pair of nodes (i, j), row by row, ``serre-i-j`` when i != j,
    ``k{i}-e{j}-conj``, and ``k{i}-k{j}-comm`` when i < j; last
    ``central-element``.  These are the names of the ``relations`` job."""
    out = []
    for i in range(t.n + 1):
        for j in range(t.n + 1):
            if i != j:
                out.append((f"serre-{i}-{j}", serre_expr(i, j, t)))
            out.append((f"k{i}-e{j}-conj", k_e_conjugation_expr(i, j, t)))
            if i < j:
                out.append((f"k{i}-k{j}-comm", k_commutation_expr(i, j)))
    return out + [("central-element", central_element_expr(t))]


class CheckReport:
    """The outcome of one check: its name, whether it passed, a detail
    and the text lines of its report."""

    def __init__(self, name: str, passed: bool, detail: str = "",
                 lines: list = None):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.lines = [] if lines is None else lines

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
