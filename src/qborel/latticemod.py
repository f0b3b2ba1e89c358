"""The combinatorial module U(n,r)_a on multiplicity data.

A basis label ("datum") is a multiplicity function on the root list
``positive_roots_wr(t)``, stored as a plain tuple of nonnegative ints
aligned with that list.  The Chevalley generators act by closed
combinatorial formulas:

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

All exponents here are linear functionals of the datum, so each move is
precomputed as (decremented index, incremented index or None, exponent
vector) and evaluated by a dot product.

Every generator acts a-homogeneously, so an ``Element`` is a
``GradedCombination``: one a-degree, the number of e_0 letters applied,
and coefficients in ``LaurentPoly``.  ``e_on_datum`` gives the q-part of
each move, and ``apply_e(0, .)`` raises the degree by one.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffring import GradedCombination, LaurentPoly, q_integer
from .rootdata import (AffineType, pairing, positive_roots_wr, root_str,
                       simple_root, theta, to_simple_coords)


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
        self.simple = [to_simple_coords(t, b) for b in self.roots]
        # (node, coordinate) pairs of each root's nonzero coordinates
        self.supports = [[(j, x) for j, x in enumerate(s) if x]
                         for s in self.simple]
        self.height = [sum(s) for s in self.simple]
        self.theta = theta(t)
        self.theta_idx = self.idx[self.theta]
        # alpha_r itself is always a stored root label (for D r = n-1 the
        # eps_n sign flip makes alpha_{n-1} = eps_{n-1} - eps_n literal)
        self.alpha_r_idx = self.idx[simple_root(t, t.r)]
        self.vacuum = (0,) * self.nroots
        self._moves = self._build_moves()
        self._e0_vec = tuple(
            pairing(self.theta, b) - (1 if p == self.theta_idx else 0)
            for p, b in enumerate(self.roots))
        self._k_vec = {0: tuple(pairing(self.theta, b) for b in self.roots)}
        for i in range(1, t.n + 1):
            ai = simple_root(t, i)
            self._k_vec[i] = tuple(-pairing(ai, b) for b in self.roots)
        self._e_cache = {}

    # -- move construction --------------------------------------------

    def _build_moves(self):
        """The moves of each e_i, read off the convex order of the roots.

        e_i acts on the dual PBW product as a q-derivation: it turns one
        unit at beta into one at beta - alpha_i, or deletes it when
        beta = alpha_i, which only alpha_r can be (every stored root has
        alpha_r-coefficient 1).  The roots are scanned in their stored
        convex order, and the q-exponent of a move is the accumulated
        (c_target - c_source) over all earlier moves of the same e_i:
        the pass-through cost of the derivation reaching that factor of
        the dual PBW product."""
        where = {s: p for p, s in enumerate(self.simple)}
        moves = {}
        for i in range(1, self.t.n + 1):
            mv = []
            vec = [0] * self.nroots
            for src, s in enumerate(self.simple):
                if not s[i - 1]:
                    continue
                if self.height[src] == 1:
                    mv.append((src, None, tuple(vec)))
                    continue
                tgt = where.get(s[:i - 1] + (s[i - 1] - 1,) + s[i:])
                if tgt is not None:
                    mv.append((src, tgt, tuple(vec)))
                    vec[tgt] += 1
                    vec[src] -= 1
            moves[i] = tuple(mv)
        return moves

    # -- weights --------------------------------------------------------

    def wt(self, c):
        """-sum c_beta beta, in simple-root coordinates (length n)."""
        out = [0] * self.t.n
        supports = self.supports
        for p, m in enumerate(c):
            if m:
                for j, x in supports[p]:
                    out[j] -= m * x
        return tuple(out)

    def height_of(self, c):
        return sum(m * h for m, h in zip(c, self.height))

    # -- generator actions ----------------------------------------------

    def e_on_datum(self, i, c):
        """e_i applied to a basis datum, as a tuple of (LaurentPoly, datum)
        pairs; for i = 0 the factor a is left to ``apply_e``."""
        key = (i, c)
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        out = []
        if i == 0:
            e = sum(v * m for v, m in zip(self._e0_vec, c))
            d = list(c)
            d[self.theta_idx] += 1
            out.append((LaurentPoly.q_power(e), tuple(d)))
        else:
            for dec, inc, vec in self._moves[i]:
                m = c[dec]
                if m == 0:
                    continue
                e = sum(v * mm for v, mm in zip(vec, c))
                d = list(c)
                d[dec] -= 1
                if inc is not None:
                    d[inc] += 1
                out.append((q_integer(m).shift(e), tuple(d)))
        out = tuple(out)
        self._e_cache[key] = out
        return out

    def apply_e(self, i, v: Element) -> Element:
        terms = {}
        get = terms.get
        for c, coef in v.terms.items():
            for mc, md in self.e_on_datum(i, c):
                x = coef * mc
                s = get(md)
                terms[md] = x if s is None else s + x
        return Element(terms, v.deg + (i == 0))

    def apply_k(self, i, exponent, v: Element) -> Element:
        if exponent not in (1, -1):
            raise ValueError("k exponent must be +-1")
        vec = self._k_vec[i]
        terms = {c: coef.shift(exponent * sum(x * m for x, m in zip(vec, c)))
                 for c, coef in v.terms.items()}
        return v._like(terms)

    # -- basis enumeration ------------------------------------------------

    def enumerate_data(self, height=None, box=None):
        """All data within a total-height cap and/or a simple-root box,
        in lexicographic order of the datum tuple."""
        if height is None and box is None:
            raise ValueError("need a height cap or a box")
        if height is not None and height < 0:
            raise ValueError("height cap must be nonnegative")
        if box is not None:
            box = tuple(box)
            if len(box) != self.t.n:
                raise ValueError(f"box bound has {len(box)} entries; "
                                 f"{self.t} has rank {self.t.n}")
            if any(b < 0 for b in box):
                raise ValueError("box bound entries must be nonnegative")
        # the height is the total of the used depths, so a height cap
        # alone bounds each node by itself and a box alone bounds the
        # height by its total: both caps always apply
        room = list(box) if box is not None else [height] * self.t.n
        if height is None:
            height = sum(box)
        supports, heights = self.supports, self.height
        # below the least height of roots p, p+1, ... only zeros fit; past
        # the last root nothing does
        lowest = [min(heights[p:]) for p in range(self.nroots)] + [height + 1]
        datum = [0] * self.nroots
        out = []

        def rec(p, left):
            if left < lowest[p]:
                out.append(tuple(datum))
                return
            # the largest multiplicity of root p that fits the remaining
            # height and the remaining room at every node of its support
            support, h = supports[p], heights[p]
            top = left // h
            for j, x in support:
                k = room[j] // x
                if k < top:
                    top = k
            for m in range(top + 1):
                datum[p] = m
                rec(p + 1, left)
                left -= h
                for j, x in support:
                    room[j] -= x
            for j, x in support:
                room[j] += (top + 1) * x
            datum[p] = 0

        rec(0, height)
        return out

    def datum_str(self, c):
        parts = [f"{root_str(self.roots[p])}:{m}" for p, m in enumerate(c) if m]
        return "{" + ", ".join(parts) + "}"


@lru_cache(maxsize=None)
def get_module(t: AffineType) -> LatticeModule:
    return LatticeModule(t)


def random_datum(t: AffineType, rng, max_entry=10):
    mod = get_module(t)
    return tuple(rng.randint(0, max_entry) for _ in range(mod.nroots))
