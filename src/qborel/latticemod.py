"""The combinatorial module U(n,r)_a on multiplicity data.

A basis label ("datum") is a multiplicity function on the root list
``positive_roots_wr(t)``, whose roots are in simple-root coordinates,
stored as a plain tuple of nonnegative ints aligned with that list.  The
Chevalley generators act by closed combinatorial formulas:

* ``e_i`` (i in I) moves one unit from a root beta to beta - alpha_i
  (deleting it when beta = alpha_r), with coefficient
  q^{E(i,beta,c)} [c_beta]_q, where [c_beta]_q is the q-integer of the
  multiplicity of the DECREMENTED root and E is linear in the datum.
  The moves are derived, not tabulated: one rule reads them off the
  convex order of the roots for every family (``_build_moves``);
* ``e_0`` adds one unit at theta with coefficient
  a * q^{-(theta, wt(c)) - c_theta};
* ``k_i`` acts diagonally by q^{(alpha_i, wt(c))}, and k_0 by
  q^{-(theta, wt(c))}.

All exponents here are linear functionals of the datum.  A move is
stored as its (decremented index, incremented index or None) pair only:
``e_on_datum`` reads the exponent of each move of e_i as a running sum
over the earlier moves of the same e_i.  The exponent of each k_i is
the difference of two sums of datum entries, picked by two itemgetters
per node that are built once from each root's pairings with the simple
roots; the exponent of e_0 is that of k_0 minus c_theta.

``e_on_datum`` caches its result for every datum it meets, in one dict
per node keyed by the datum itself.  Each distinct value is stored once:
the data of the cache, keys and move targets alike, pass through one
intern table of the module, so equal data reached along different paths
share one tuple, and each move coefficient q^e [m]_q comes from the
shared table of ``coeffring.q_integer``.  ``check_data`` skips a datum
that is the very object of the intern table, which was checked or built
by a move from a checked datum, and checks every other object, an equal
one included; a miss calls ``check_data`` only when its datum is not
that object, so a miss on an interned datum makes no call.  The cache and
the intern table live exactly as long as the module, which
``get_module`` keeps for the life of the process.

Every generator acts a-homogeneously, so an ``Element`` is a
``GradedCombination``: one a-degree, the number of e_0 letters applied,
and coefficients in ``LaurentPoly``.  ``e_on_datum`` gives the q-part of
each move, and ``apply_e(0, .)`` raises the degree by one.

``e_on_datum`` returns the term map e_i(c) flat, as one tuple
(d1, p1, d2, p2, ...) with no tuple per move: a one-move result is the
pair (d, p) itself, and zip(it, it) over it = iter(moves) yields the
items.  ``_run_word`` is the one routine that applies letters to a plain
term map {datum: LaurentPoly}: ``apply_e`` and ``apply_k`` are
one-letter calls of it on an element's map, ``opalg.evaluate`` runs each
trie segment through it by ``run_expression``, ``drinfeld.CurrentEngine``
each e- and k-step of its levels and its bracket, and ``microrec`` both
rank-one models and e_r on the alpha_r-string.  Almost every step of a
relation check acts on a map of one term, which ``_run_word`` walks as
one (datum, coefficient) pair until an e-letter gives two or more
terms; a map of several terms takes each letter in one pass, each term's
pairs added by ``coeffring._add_terms``, the one sum rule for term maps,
and the walk resumes once the map is down to one term.  ``e_on_datum`` is
the per-term call on every route.  The one-term walk adds each k-letter's
exponent, read off the datum that letter acts on, to one integer and
shifts the coefficient by it once, when the walk returns or branches;
so a coefficient stays the shared 1 through k letters, and the shared 1
is never multiplied on the walk: the move coefficients are taken as
they are.  This is no weight tracking: every exponent is still read
from the current datum.

``walk_data`` is the one recursion over the data within the caps: it
packs each depth vector in one integer and calls a leaf at every datum,
the last root's in one loop; ``enumerate_data`` records the data.

A letter is an int i for e_i or a triple ("k", i, s) for k_i^s; the
letters of a type are e_0..e_n and k_0..k_n to the power +-1.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul

from .coeffring import _ONE, GradedCombination, _add_terms, q_integer
from .rootdata import (AffineType, positive_roots_wr, root_str,
                       simple_pairings, simple_root, theta)


class Element(GradedCombination):
    """A finite linear combination of basis data, a-homogeneous."""

    __slots__ = ()

    @staticmethod
    def _label(c):
        return f"[{','.join(map(str, c))}]"


class LatticeModule:
    """Action tables and evaluation for one affine type."""

    def __init__(self, t: AffineType):
        self.t = t
        self.roots = positive_roots_wr(t)
        self.nroots = len(self.roots)
        self.idx = {b: p for p, b in enumerate(self.roots)}
        # (node, coordinate) pairs of each root's nonzero coordinates
        self.supports = [[(j, x) for j, x in enumerate(b) if x]
                         for b in self.roots]
        self.height = [sum(b) for b in self.roots]
        self.theta = theta(t)
        self.theta_idx = self.idx[self.theta]
        self.alpha_r_idx = self.idx[simple_root(t, t.r)]
        self.vacuum = (0,) * self.nroots
        self._moves = self._build_moves()
        # k_i multiplies by q^{(alpha_i, wt(c))} and k_0 by
        # q^{-(theta, wt(c))}, read off each root's pairings
        # ((alpha_1, beta), ..., (alpha_n, beta))
        pairings = [simple_pairings(t, b) for b in self.roots]
        self._k_getters = {0: _exponent_getters(
            [sum(map(mul, self.theta, pv)) for pv in pairings])}
        for i in range(1, t.n + 1):
            self._k_getters[i] = _exponent_getters(
                [-pv[i - 1] for pv in pairings])
        self.letters = frozenset(
            [*range(t.n + 1)]
            + [("k", i, s) for i in range(t.n + 1) for s in (1, -1)])
        # e_on_datum's cache, {node: {datum: moves}}, and the intern
        # table {datum: datum} of every datum it holds
        self._e_cache = {i: {} for i in range(t.n + 1)}
        self._interned = {}

    # -- move construction --------------------------------------------

    def _build_moves(self):
        """The moves of each e_i, read off the convex order of the roots,
        as (source, target or None) pairs in that order.

        e_i acts on the dual PBW product as a q-derivation: it turns one
        unit at beta into one at beta - alpha_i, or deletes it when
        beta = alpha_i, which only alpha_r can be (every stored root has
        alpha_r-coefficient 1).  The roots are scanned in their stored
        convex order, and the q-exponent of a move is the accumulated
        (c_target - c_source) over all earlier moves of the same e_i:
        the pass-through cost of the derivation reaching that factor of
        the dual PBW product.  ``e_on_datum`` takes that sum as it goes."""
        moves = {}
        for i in range(1, self.t.n + 1):
            mv = []
            for src, b in enumerate(self.roots):
                if not b[i - 1]:
                    continue
                if self.height[src] == 1:
                    mv.append((src, None))
                    continue
                tgt = self.idx.get(b[:i - 1] + (b[i - 1] - 1,) + b[i:])
                if tgt is not None:
                    mv.append((src, tgt))
            moves[i] = tuple(mv)
        return moves

    # -- generator actions ----------------------------------------------

    def e_on_datum(self, i, c):
        """e_i applied to a basis datum, as the term map e_i(c) held flat:
        one tuple (d1, p1, d2, p2, ...) of distinct data, each followed by
        its nonzero LaurentPoly coefficient, with no tuple per move; a
        one-move result is (d, p) and no move gives ().  For i = 0 the
        factor a is left to the caller.

        The result is cached in node i's dict under the datum.  On a miss
        the datum is checked (``check_data``) unless it is the very object
        held in the intern table: that one was checked on entry or made by
        a move from a checked datum, while any other object, an equal
        tuple included, is checked.  It and every datum the moves produce
        are then interned, so the cache holds one tuple per distinct
        datum; the coefficients come from ``q_integer``'s table when
        m < 64 and -64 <= e < 64."""
        try:
            cache = self._e_cache[i]
        except KeyError:
            raise ValueError(f"e{i} is not a letter of {self.t}: the e "
                             f"letters are e_0..e_{self.t.n}") from None
        hit = cache.get(c)
        if hit is not None:
            return hit
        interned = self._interned
        if interned.get(c) is not c:
            self.check_data((c,))
        intern = interned.setdefault
        # every target is read off one scratch copy of c, restored after
        # each move
        d = list(c)
        if i == 0:
            d[self.theta_idx] += 1
            d = tuple(d)
            # the k_0 exponent minus c_theta
            plus, minus = self._k_getters[0]
            e = sum(plus(c)) - sum(minus(c)) - c[self.theta_idx]
            out = intern(d, d), q_integer(1, e)
        else:
            out = []
            # e is the running sum of c[tgt] - c[src] over the earlier
            # moves, always over the input datum c
            e = 0
            for src, tgt in self._moves[i]:
                m = c[src]
                if m:
                    d[src] = m - 1
                    if tgt is None:
                        t = tuple(d)
                    else:
                        d[tgt] += 1
                        t = tuple(d)
                        d[tgt] -= 1
                    d[src] = m
                    out.append(intern(t, t))
                    out.append(q_integer(m, e))
                if tgt is not None:
                    e += c[tgt] - m
            out = tuple(out)
        cache[intern(c, c)] = out
        return out

    def cache_info(self):
        """What the e_on_datum cache holds: ``entries``, the number of
        cached data of each node (a tuple indexed by node), ``moves``, the
        number of stored moves (half the entries' lengths), and ``data``,
        the number of interned data."""
        return {"entries": tuple(map(len, self._e_cache.values())),
                "moves": sum(len(v) for cache in self._e_cache.values()
                             for v in cache.values()) // 2,
                "data": len(self._interned)}

    def _run_word(self, word, terms):
        """The letters of word, in application order, applied to a term
        map {datum: LaurentPoly}, as a new map without zeros; for the
        empty word or the empty map, terms itself.  The factor a of each
        e_0 is left to the caller.

        All letters come from one iterator.  A one-term map is walked as
        one (datum, coefficient) pair until an e-letter gives two or more
        terms: the moves of e_i on one datum have distinct sources, hence
        distinct targets, and Z[q^{+-1}] has no zero divisors, so that
        map is dict() of the moves' pairs, or the moves' pairs scaled by
        the walk's coefficient into a new map by ``_add_terms``.  On that
        walk each k letter adds its exponent on the current datum to one
        integer sh, and the coefficient is shifted by sh once, when the
        walk returns or branches, and not at all when sh is 0: q^sh
        commutes with every move coefficient, and the walk's coefficient
        stays the shared 1 through k letters.  A map
        of several terms takes each letter in one pass:
        ``e_on_datum`` once per term, its pairs times the term's
        coefficient added into one new map by ``_add_terms``, or every
        coefficient shifted by its k-exponent.  Once the map is down to
        one term, the walk resumes with the next letter."""
        if not word:
            return terms
        letters = iter(word)
        getters, e_on_datum = self._k_getters, self.e_on_datum
        while terms:
            if len(terms) == 1:
                (c, coef), = terms.items()
                # the k-exponents so far, shifted into coef at the end
                sh = 0
                for letter in letters:
                    if letter.__class__ is tuple:
                        plus, minus = getters[letter[1]]
                        sh += letter[2] * (sum(plus(c)) - sum(minus(c)))
                        continue
                    moves = e_on_datum(letter, c)
                    if len(moves) == 2:
                        c, mc = moves
                        coef = mc if coef is _ONE else coef * mc
                    elif not moves:
                        return {}
                    else:
                        if sh:
                            coef = coef.shift(sh)
                        it = iter(moves)
                        terms = (dict(zip(it, it)) if coef is _ONE
                                 else _add_terms({}, zip(it, it), coef))
                        break
                else:
                    return {c: coef.shift(sh) if sh else coef}
            for letter in letters:
                if letter.__class__ is tuple:
                    plus, minus = getters[letter[1]]
                    sign = letter[2]
                    terms = {c: coef.shift(sign * (sum(plus(c))
                                                   - sum(minus(c))))
                             for c, coef in terms.items()}
                    continue
                out = {}
                for c, coef in terms.items():
                    it = iter(e_on_datum(letter, c))
                    _add_terms(out, zip(it, it),
                               None if coef is _ONE else coef)
                terms = out
                if len(terms) < 2:
                    break
            else:
                return terms
        return terms

    def check_letters(self, letters):
        """ValueError unless every letter is one of this type's."""
        if not self.letters.issuperset(letters):
            bad = next(x for x in letters if x not in self.letters)
            raise ValueError(
                f"{letter_str(bad)} is not a letter of {self.t}: the letters "
                f"are e_0..e_{self.t.n} and k_0..k_{self.t.n} to the power +-1")

    def check_data(self, data):
        """ValueError unless every datum has one nonnegative int entry per
        positive root of this type.  An entry whose type is not int itself,
        a bool, float or str, is rejected.

        A datum that is the very object held in the intern table is
        skipped, by the rule of ``e_on_datum``'s misses: it was checked
        on entry or made by a move from a checked datum.  Any other
        object, an equal tuple or a float or bool twin included, is
        checked."""
        n = self.nroots
        interned = self._interned
        for c in data:
            if interned.get(c) is c or (len(c) == n and {int}.issuperset(
                    map(type, c)) and min(c) >= 0):
                continue
            raise ValueError(
                f"{c} is not a datum of {self.t}: a datum has {n} "
                f"nonnegative int entries, one per positive root")

    def apply_e(self, i, v: Element) -> Element:
        self.check_letters((i,))
        self.check_data(v.terms)
        return Element._of(self._run_word((i,), v.terms),
                           v.deg + (i == 0))

    def apply_k(self, i, exponent, v: Element) -> Element:
        self.check_letters((("k", i, exponent),))
        self.check_data(v.terms)
        return v._of(self._run_word((("k", i, exponent),), v.terms), v.deg)

    # -- basis enumeration ------------------------------------------------

    def enumerate_data(self, height=None, box=None):
        """All data within a total-height cap and/or a simple-root box,
        in lexicographic order of the datum tuple."""
        out = []
        self.walk_data(lambda code, datum: out.append(tuple(datum)),
                       height=height, box=box)
        return out

    def walk_data(self, leaf, height=None, box=None):
        """Call leaf(code, datum) at every datum (the walk's own list)
        within a height cap and/or a simple-root box, in lexicographic
        order, and return s: code is the depth vector sum c_beta beta,
        coordinate j in the s bits from s*j up, s the bit length of the
        height cap, which bounds every coordinate.  The caps are ints; a
        float or bool cap or box entry is rejected with ValueError."""
        if height is None and box is None:
            raise ValueError("need a height cap or a box")
        if height is not None:
            if type(height) is not int:
                raise ValueError("height cap must be an int")
            if height < 0:
                raise ValueError("height cap must be nonnegative")
        if box is not None:
            box = tuple(box)
            if len(box) != self.t.n:
                raise ValueError(f"box bound has {len(box)} entries; "
                                 f"{self.t} has rank {self.t.n}")
            if not all(type(b) is int for b in box):
                raise ValueError("box bound entries must be ints")
            if any(b < 0 for b in box):
                raise ValueError("box bound entries must be nonnegative")
        # the height is the total of the used depths, so a height cap
        # alone bounds each node by itself and a box alone bounds the
        # height by its total: both caps always apply, and only box
        # nodes below the height cap can bind
        if height is None:
            height = sum(box)
        room = list(box) if box is not None else [height] * self.t.n
        binds = [[(j, x) for j, x in support if room[j] < height]
                 for support in self.supports]
        s = height.bit_length()
        codes = [sum(x << s * j for j, x in sup) for sup in self.supports]
        heights = self.height
        # below the least height of roots p, p+1, ... only zeros fit; past
        # the last root nothing does, so its multiplicities are all leaves
        lowest = [min(heights[p:]) for p in range(self.nroots)] + [height + 1]
        datum = [0] * self.nroots

        def rec(p, left, code):
            # the largest multiplicity of root p that fits the remaining
            # height and the remaining room at its binding nodes
            h, step, bind = heights[p], codes[p], binds[p]
            below = lowest[p + 1]
            top = left // h
            for j, x in bind:
                k = room[j] // x
                if k < top:
                    top = k
            for m in range(top + 1):
                datum[p] = m
                if left < below:
                    leaf(code, datum)
                else:
                    rec(p + 1, left, code)
                left -= h
                code += step
                for j, x in bind:
                    room[j] -= x
            for j, x in bind:
                room[j] += (top + 1) * x
            datum[p] = 0

        rec(0, height, 0)
        return s

    def datum_str(self, c):
        parts = [f"{root_str(self.t, self.roots[p])}:{m}"
                 for p, m in enumerate(c) if m]
        return "{" + ", ".join(parts) + "}"


def _exponent_getters(values):
    """(plus, minus), two itemgetters with sum(plus(c)) - sum(minus(c))
    the sum of values[p] * c[p]: plus holds each position p values[p]
    times where that is positive, minus -values[p] times where it is
    negative.  Both also hold position 0 equally often, enough that each
    picks two entries at least and so returns a tuple."""
    plus = [p for p, x in enumerate(values) for _ in range(x)]
    minus = [p for p, x in enumerate(values) for _ in range(-x)]
    pad = [0] * max(0, 2 - min(len(plus), len(minus)))
    return itemgetter(*plus, *pad), itemgetter(*minus, *pad)


def letter_str(x):
    """The text form of a letter: e2, k1, k1^-1."""
    if isinstance(x, tuple) and len(x) == 3:
        return f"k{x[1]}" + ("" if x[2] == 1 else f"^{x[2]}")
    return f"e{x}"


@lru_cache(maxsize=None)
def get_module(t: AffineType) -> LatticeModule:
    return LatticeModule(t)


def random_datum(t: AffineType, rng, max_entry=10):
    mod = get_module(t)
    return tuple(rng.randint(0, max_entry) for _ in range(mod.nroots))
