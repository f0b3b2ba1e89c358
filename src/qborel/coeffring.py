"""Exact arithmetic with the a-homogeneous elements of Z[q^{+-1}][a].

Two structures:

* ``LaurentPoly`` -- integer Laurent polynomials in q, packed into one
  Python integer by Kronecker substitution.
* ``Combination`` -- finite linear combinations of hashable labels with
  nonzero coefficients in a ring.  ``GradedCombination`` is a
  combination over ``LaurentPoly`` that carries one a-degree for all
  its terms, since every generator acts a-homogeneously: e_0 carries
  one factor of the formal parameter ``a``, and e_1..e_n and k_i none.
  Module elements on Lusztig data and vectors on the alpha_r-string
  are of this kind, and so is the scalar ``Coefficient``, a^d times a
  Laurent polynomial, on one fixed label.  Operator words are
  combinations over ``Coefficient``.  One core thus serves every level
  of the coefficient tower, and one rule rejects a sum of two nonzero
  values of different a-degrees with ValueError.  One routine,
  ``_add_terms``, is the sum rule for term maps {label: value}: it adds
  (label, value) pairs into a map in place and deletes every sum that
  cancels.  ``Combination`` addition and ``collect``, the word-trie sums
  of ``opalg``, the level steps of ``drinfeld`` and the multi-term
  e-step of ``LatticeModule._run_word`` all add through it.

Packed format.  A nonzero Laurent polynomial ``p = q^lo * sum_k c_k q^k``
is stored as four integers ``(n, lo, b, m)``: ``n = sum_k c_k X^k``
evaluated at ``X = 2^b``, with ``c_0 != 0``; the digit width ``b``; and
a tracked bound ``m >= ||p||_1 = sum_k |c_k|``.  The width follows one
rule, ``_width_for``: 16 bits while ``m < 2^15``, otherwise the least
multiple of 64 bits that holds ``m``.  Zero is ``(0, 0, 16, 0)`` and one
is ``(1, 0, 16, 1)``.  The invariant

    ||p||_1 <= m < 2^(b-1)

makes the signed base-``2^b`` digits of ``n`` exactly the coefficients
``c_k``, so ``n`` determines ``p`` at a given width: the zero test is
``n == 0`` and equality is equality of ``(lo, n)`` at a common width.
A product is one big-integer product and a sum one shift and add.  The
bound follows ``m(pq) = m(p) m(q)`` and ``m(p +- q) = m(p) + m(q)``;
when a result's bound would reach ``2^(b-1)``, the operands' exact
norms replace their bounds and, if that is still not enough, the
operands are repacked at a wider width.  The bound is tracked, never
assumed.  CPython multiplies integers of a few dozen digits by
schoolbook, in time quadratic in their bit length, so the narrow digit
makes the common product, of coefficients far below 2^15, cheap.

A power ``p ** k`` is one big-integer power, at the width of the bound
``m^k``, taken from the exact norm when the tracked bound would widen
the operand.  An exact division is one ``divmod`` of the packed integers at
a common width: a remainder proves that no quotient exists, and a whole
integer quotient is accepted when its decoded digits times the
divisor's cannot carry, ``||quot||_1 * m(den) < 2^(b-1)``.  Otherwise
the digits are divided by long division, which decides either way.

Everything is exact; there is no field of fractions.  The only division
offered is the method ``exact_divide``, which raises ``NotDivisible``
when the quotient does not exist in the ring.  A failed division always
signals a wrong construction upstream, never a rounding problem.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from types import MappingProxyType


class NotDivisible(ArithmeticError):
    """Raised when an exact division in Z[q^{+-1}][a] leaves a remainder."""


# -- packed digits -------------------------------------------------------

_BIG_ENDIAN = sys.byteorder == "big"   # array words are native-endian

# the signed array typecode of each item width in bits, read off its
# itemsize: a digit width found here is read and written as one array
_TYPECODES = {array(t).itemsize * 8: t for t in "hilq"}


def _width_for(m: int) -> int:
    """The digit width for a bound m: 16 bits while m < 2^15, otherwise
    the least multiple of 64 bits b with m < 2^(b-1)."""
    if not m >> 15:
        return 16
    return (m.bit_length() + 64) // 64 * 64


def _offset(size: int, b: int) -> int:
    """sum_{k < size} 2^(b-1) X^k at X = 2^b.  Adding it moves every
    signed digit into [0, 2^b); xor-ing it then leaves each digit's
    two's complement."""
    return int.from_bytes((bytes(b // 8 - 1) + b"\x80") * size, "little")


def _digits(n: int, b: int, spare: int = 0) -> list:
    """The signed base-2^b digits of n, lowest first, without top zeros.

    n must be the packed value of a polynomial whose coefficients are
    below 2^(b-1) in size, or ``spare`` must add one top digit: any n
    then fits, whatever its digits."""
    if not n:
        return []
    size = n.bit_length() // b + 1 + spare
    h = _offset(size, b)
    raw = ((n + h) ^ h).to_bytes(size * b // 8, "little")
    code = _TYPECODES.get(b)
    if code:
        words = array(code, raw)
        if _BIG_ENDIAN:
            words.byteswap()
        out = words.tolist()
    else:
        w = b // 8
        out = [int.from_bytes(raw[i:i + w], "little", signed=True)
               for i in range(0, len(raw), w)]
    while not out[-1]:
        out.pop()
    return out


def _pack(digits, b: int) -> int:
    """Inverse of _digits: every |digit| must be below 2^(b-1)."""
    code = _TYPECODES.get(b)
    if code:
        words = array(code, digits)
        if _BIG_ENDIAN:
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join(d.to_bytes(b // 8, "little", signed=True)
                       for d in digits)
    h = _offset(len(digits), b)
    return (int.from_bytes(raw, "little") ^ h) - h


_new = object.__new__


def _make(n, lo, b, m):
    p = _new(LaurentPoly)
    p.n = n
    p.lo = lo
    p.b = b
    p.m = m
    return p


def _from_digits(digits, lo):
    """The Laurent polynomial q^lo sum_k digits[k] q^k; the first and last
    digits must be nonzero."""
    m = sum(map(abs, digits))
    b = _width_for(m)
    return _make(_pack(digits, b), lo, b, m)


def _at(p, b):
    """p's packed integer at width b, which must hold p's digits:
    b >= p.b, or ||p||_1 < 2^(b-1)."""
    if p.b == b or p.n.bit_length() < p.b:   # a monomial packs alike at any width
        return p.n
    return _pack(_digits(p.n, p.b), b)


def _norm(p):
    """The exact l1-norm of p."""
    return sum(map(abs, _digits(p.n, p.b)))


def _widen(p, q, m, combine):
    """Common width and result bound for combining p and q, where m is the
    tracked bound of the result and combine(m_p, m_q) the bound rule."""
    b = max(p.b, q.b)
    if m >> (b - 1):
        m = combine(_norm(p), _norm(q))
        b = max(b, _width_for(m))
    return b, m


def _sum(p, q):
    if not q.m:
        return p
    if not p.m:
        return q
    b = p.b
    m = p.m + q.m
    pn, qn = p.n, q.n
    if q.b != b or m >> (b - 1):
        b, m = _widen(p, q, m, operator.add)
        pn, qn = _at(p, b), _at(q, b)
    lo, qlo = p.lo, q.lo
    if lo == qlo:
        n = pn + qn
        if not n:
            return _make(0, 0, 16, 0)
        if not n & ((1 << b) - 1):   # cancellation in the lowest digits
            shift = ((n & -n).bit_length() - 1) // b
            n >>= b * shift
            lo += shift
        return _make(n, lo, b, m)
    if lo < qlo:
        return _make(pn + (qn << (b * (qlo - lo))), lo, b, m)
    return _make((pn << (b * (lo - qlo))) + qn, qlo, b, m)


class LaurentPoly:
    """An integer Laurent polynomial in q (packed; see the module doc)."""

    __slots__ = ("n", "lo", "b", "m", "_terms")

    def __init__(self, terms=None):
        terms = {k: c for k, c in dict(terms or {}).items() if c}
        if not terms:
            self.n, self.lo, self.b, self.m = 0, 0, 16, 0
            return
        lo = min(terms)
        digits = [terms.get(k, 0) for k in range(lo, max(terms) + 1)]
        m = sum(map(abs, digits))
        self.b = _width_for(m)
        self.n = _pack(digits, self.b)
        self.lo = lo
        self.m = m

    @property
    def terms(self):
        """The map q-exponent -> nonzero coefficient, decoded, read-only."""
        try:
            return self._terms
        except AttributeError:   # decoded once, on first read
            lo = self.lo
            self._terms = MappingProxyType(
                {lo + k: c for k, c in enumerate(_digits(self.n, self.b)) if c})
            return self._terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return _make(0, 0, 16, 0)

    @staticmethod
    def one():
        return _make(1, 0, 16, 1)

    @staticmethod
    def q_power(k, coeff=1):
        if not coeff:
            return _make(0, 0, 16, 0)
        m = abs(coeff)
        return _make(coeff, k, _width_for(m), m)

    @staticmethod
    def from_int(c):
        return LaurentPoly.q_power(0, c)

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        return _sum(self, other)

    def __sub__(self, other):
        return _sum(self, -other)

    def __neg__(self):
        return _make(-self.n, self.lo, self.b, self.m)

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                other = LaurentPoly.from_int(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        m = self.m * other.m
        if not m:
            return _make(0, 0, 16, 0)
        b = self.b
        if other.b == b and not m >> (b - 1):
            p = _new(LaurentPoly)
            p.n = self.n * other.n
            p.lo = self.lo + other.lo
            p.b = b
            p.m = m
            return p
        b, m = _widen(self, other, m, operator.mul)
        return _make(_at(self, b) * _at(other, b), self.lo + other.lo, b, m)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k as one big-integer power, at the width of the bound
        m^k of the result.  When that bound would widen the operand, the
        power of the exact norm replaces it and sets the width, which may
        then be narrower than the operand's: after a cancellation the
        tracked bound can be far above the norm."""
        if k < 0:
            raise ValueError("LaurentPoly power needs k >= 0")
        if not k:
            return _make(1, 0, 16, 1)
        if not self.n:
            return self
        m = self.m ** k
        b = _width_for(m)
        if b <= self.b:
            b = self.b
        else:
            m = _norm(self) ** k
            b = _width_for(m)
        return _make(_at(self, b) ** k, self.lo * k, b, m)

    def shift(self, e):
        """self * q^e; only the lowest exponent moves."""
        if not self.n:
            return self
        return _make(self.n, self.lo + e, self.b, self.m)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.lo != other.lo:
            return False
        if self.b == other.b:
            return self.n == other.n
        b = max(self.b, other.b)
        return _at(self, b) == _at(other, b)

    def __hash__(self):
        terms = self.terms
        if terms.keys() <= {0}:   # a constant equals its int: hash alike
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return self.n != 0

    def is_zero(self):
        return not self.n

    def bar(self):
        """The bar involution q -> q^{-1}."""
        if not self.n:
            return self
        digits = _digits(self.n, self.b)
        return _from_digits(digits[::-1], -(self.lo + len(digits) - 1))

    def eval_at_one(self):
        return sum(_digits(self.n, self.b))

    # -- exact division -----------------------------------------------

    def exact_divide(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/den; raises NotDivisible on any remainder."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        # Both packed values start at a nonzero digit, so the quotient, if
        # there is one, is an honest polynomial quot with a nonzero
        # constant term, and self.n = den.n * quot(X) at X = 2^b exactly.
        # A remainder thus proves there is none.  A whole integer quotient
        # is quot(X) once its digits, times den's, cannot carry.
        b = max(self.b, den.b)
        qn, rest = divmod(_at(self, b), _at(den, b))
        if rest:
            raise NotDivisible(f"{self} is not divisible by {den}")
        quot = _digits(qn, b, 1)
        m = sum(map(abs, quot))
        if not (m * den.m) >> (b - 1):
            return _from_digits(quot, self.lo - den.lo)
        return self._long_divide(den)

    def _long_divide(self, den):
        """Exact quotient self/den by long division of the digits, from
        the top."""
        num = _digits(self.n, self.b)
        dd = _digits(den.n, den.b)
        top, lead = len(dd) - 1, dd[-1]
        qlen = len(num) - top
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = num[i + top]
            if not c:
                continue
            if c % lead:
                raise NotDivisible(f"{self} is not divisible by {den}")
            qc = quot[i] = c // lead
            for j, dv in enumerate(dd):
                num[i + j] -= qc * dv
        if any(num):
            raise NotDivisible(f"{self} is not divisible by {den}")
        return _from_digits(quot, self.lo - den.lo)

    # -- text form ----------------------------------------------------

    def __str__(self):
        return str(Coefficient.from_laurent(self))

    __repr__ = __str__


def _build_q_integer(m):
    if not m:
        return LaurentPoly.zero()
    b = _width_for(m)
    # the digits 1, 0, 1, 0, ..., 1: a geometric sum in X^2
    n = ((1 << (2 * b * m)) - 1) // ((1 << (2 * b)) - 1)
    return _make(n, 1 - m, b, m)


# q^e [m]_q for the small m that multiplicities take and the small shifts
# that move exponents take, 0 <= m < 64 and -64 <= e < 64, at position
# 128 m + e + 64; each is built on first use so that importing costs
# nothing.  The size is fixed: a table grown to the largest m seen would
# keep O(m^2) digits for the life of the process after one huge
# multiplicity.
_Q_INTEGERS = [None] * (64 * 128)


def q_integer(m: int, e: int = 0) -> LaurentPoly:
    """q^e [m]_q, where [m]_q = q^{m-1} + q^{m-3} + ... + q^{-(m-1)} and
    [0]_q = 0.

    Values with 0 <= m < 64 and -64 <= e < 64 come from one fixed-size
    table, so equal values are one shared object; the rest are built
    on each call and never stored."""
    if 0 <= m < 64 and -64 <= e < 64:
        k = (m << 7) + e + 64
        p = _Q_INTEGERS[k]
        if p is None:
            p = _Q_INTEGERS[k] = _build_q_integer(m).shift(e)
        return p
    if m < 0:
        raise ValueError("q_integer needs m >= 0")
    return _build_q_integer(m).shift(e)


def q_factorial(m: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for j in range(1, m + 1):
        out = out * q_integer(j)
    return out


def q_binomial(m: int, k: int) -> LaurentPoly:
    """The Gaussian binomial [m choose k]_q, by exact Laurent division."""
    if not 0 <= k <= m:
        raise ValueError("q_binomial needs 0 <= k <= m")
    num = LaurentPoly.one()
    for j in range(m - k + 1, m + 1):
        num = num * q_integer(j)
    return num.exact_divide(q_factorial(k))


class Combination:
    """A finite linear combination of hashable labels over a coefficient
    ring.

    ``terms`` maps each label to its nonzero coefficient, an element of
    the class attribute ``ring``: ``Coefficient`` for operator words,
    ``LaurentPoly`` for every ``GradedCombination``: module elements,
    string vectors and ``Coefficient`` itself.  A subclass names its
    labels: ``_label`` prints one, and ``_sort_key`` orders them in the
    text form.
    """

    __slots__ = ("terms",)
    _label = str
    _sort_key = None

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, terms):
        """A combination on a map whose values are all nonzero."""
        c = _new(cls)
        c.terms = terms
        return c

    def _like(self, terms):
        """A combination of self's kind on a map of nonzero values."""
        return self._of(terms)

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def basis(cls, key, coeff=None):
        return cls({key: cls.ring.one() if coeff is None else coeff})

    @classmethod
    def collect(cls, pairs):
        """The sum of the (label, coefficient) pairs, equal labels added."""
        return cls(_add_terms({}, pairs))

    def __add__(self, other):
        mine, theirs = self.terms, other.terms
        if not theirs:
            return self
        if not mine:
            return other
        return self._like(_add_terms(dict(mine), theirs.items()))

    def __sub__(self, other):
        return self + (-other)

    # Z[q^{+-1}][a] has no zero divisors, so negation and scaling by a
    # nonzero scalar need no zero filter

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, coeff):
        ring = self.ring
        if not isinstance(coeff, ring):
            coeff = ring.one() * coeff
        if not coeff:
            return self._of({})
        return self._of({k: coeff * v for k, v in self.terms.items()})

    def exact_divide(self, den: LaurentPoly):
        """Divide every coefficient by den; NotDivisible on a remainder."""
        return self._like({k: v.exact_divide(den)
                           for k, v in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def coefficient(self, key):
        c = self.terms.get(key)
        return self.ring.zero() if c is None else c

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        return " + ".join(f"({self.coefficient(k)}) * {self._label(k)}"
                          for k in sorted(terms, key=self._sort_key))

    __repr__ = __str__


def _add_terms(out, pairs, p=None):
    """Add the (label, value) pairs into the term map out in place, each
    value times p when p is given, deleting every sum that cancels;
    return out.  This is the one sum rule for term maps: a map is added
    as its ``.items()``, never as itself, whose keys a 2-tuple datum
    (A2r1) would unpack as pairs without an error; a flat tuple
    (k1, v1, k2, v2, ...) as ``zip(it, it)`` with ``it = iter(flat)``."""
    get = out.get
    for k, v in pairs:
        if p is not None:
            v = p * v
        s = get(k)
        if s is None:
            out[k] = v
        elif s := s + v:
            out[k] = s
        else:
            del out[k]
    return out


# shared constants: nothing mutates a LaurentPoly
_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


def _homogeneous(coeff):
    """(p, d) with coeff = a^d p, for an int, a LaurentPoly or a
    Coefficient."""
    if isinstance(coeff, LaurentPoly):
        return coeff, 0
    if isinstance(coeff, int):
        return LaurentPoly.from_int(coeff), 0
    if not isinstance(coeff, Coefficient):
        raise TypeError(f"cannot scale by a {type(coeff).__name__}")
    return coeff.terms.get((), _ZERO), coeff.deg


class GradedCombination(Combination):
    """A combination whose terms all carry one power of a: the value
    a^deg * sum_k terms[k] k, with ``terms`` over LaurentPoly.

    Module elements and string vectors are of this kind, because every
    generator acts a-homogeneously: e_0 carries one factor of a, and
    e_1..e_n and k_i none.  A zero value has no degree.  Adding two
    nonzero values of different degrees raises ValueError: no
    construction of the library makes such a sum, so one signals a
    wrong operator upstream.  ``coefficient`` and the text form give
    each term's full Coefficient a^deg * terms[k].
    """

    __slots__ = ("deg",)
    ring = LaurentPoly

    def __init__(self, terms=None, deg=0):
        Combination.__init__(self, terms)
        self.deg = deg

    @classmethod
    def _of(cls, terms, deg=0):
        c = _new(cls)
        c.terms = terms
        c.deg = deg
        return c

    def _like(self, terms):
        return self._of(terms, self.deg)

    @classmethod
    def basis(cls, key, coeff=None):
        """coeff is an int, a LaurentPoly or a Coefficient."""
        if coeff is None:
            return cls._of({key: _ONE})
        p, d = _homogeneous(coeff)
        return cls._of({key: p} if p else {}, d)

    def __add__(self, other):
        if self.deg != other.deg and self.terms and other.terms:
            raise ValueError(
                f"sum of a-degrees {self.deg} and {other.deg}: {self} + {other}")
        return Combination.__add__(self, other)

    def scale(self, coeff, deg=0):
        """self times a^deg coeff, for coeff as in ``basis``."""
        p, d = _homogeneous(coeff)
        if not p:
            return self._of({})
        return self._of({k: p * v for k, v in self.terms.items()},
                        self.deg + d + deg)

    def __eq__(self, other):
        return (Combination.__eq__(self, other)
                and (self.deg == other.deg or not self.terms))

    def coefficient(self, key):
        p = self.terms.get(key)
        return (Coefficient.zero() if p is None
                else Coefficient.from_laurent(p, self.deg))


class Coefficient(GradedCombination):
    """An element a^deg * p of Z[q^{+-1}][a], p a LaurentPoly: the graded
    combination of the one label (), the empty monomial.

    Every scalar of the library has this form, since every generator
    acts a-homogeneously; as for any ``GradedCombination``, zero has no
    degree and a sum of two nonzero values of different degrees raises
    ValueError."""

    __slots__ = ()

    @staticmethod
    def _check(labels):
        """Reject every label but (), the a-degrees of the removed
        dict-of-degrees form among them."""
        if set(labels) - {()}:
            raise ValueError("a Coefficient has the one label (); "
                             "build a^d p with from_laurent(p, d)")

    def __init__(self, terms=None, deg=0):
        GradedCombination.__init__(self, terms, deg)
        self._check(self.terms)

    @classmethod
    def basis(cls, key, coeff=None):
        cls._check((key,))
        return super().basis(key, coeff)

    @property
    def a_terms(self):
        """The map a-degree -> nonzero LaurentPoly: {deg: p}, or {} at zero."""
        return {self.deg: p for p in self.terms.values()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def one():
        return Coefficient._of({(): LaurentPoly.one()})

    @staticmethod
    def from_laurent(p: LaurentPoly, a_degree: int = 0):
        return Coefficient._of({(): p} if p.n else {}, a_degree)

    @staticmethod
    def from_int(c: int):
        return Coefficient.from_laurent(LaurentPoly.from_int(c))

    @staticmethod
    def q_power(k: int):
        return Coefficient._of({(): LaurentPoly.q_power(k)})

    @staticmethod
    def a_power(d: int):
        return Coefficient._of({(): LaurentPoly.one()}, d)

    # -- ring structure -----------------------------------------------

    # a product is the first factor scaled by the second
    __mul__ = __rmul__ = GradedCombination.scale

    def __pow__(self, k):
        return Coefficient.from_laurent(
            self.terms.get((), _ZERO) ** k, self.deg * k)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = Coefficient.from_laurent(*_homogeneous(other))
        return GradedCombination.__eq__(self, other)

    def __hash__(self):
        p = self.terms.get((), _ZERO)   # degree 0 equals its LaurentPoly
        return hash((self.deg, p) if self.deg and p else p)

    # -- text form ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        d = self.deg
        a = "a" if d == 1 else f"a^{d}" if d else ""
        p = self.terms[()].terms
        out = []
        for k in sorted(p):
            c = p[k]
            mono = "*".join(filter(None, (
                str(abs(c)) if abs(c) != 1 or not (k or d) else "",
                f"q^{k}" if k else "", a)))
            sign = "-" if c < 0 else "+"
            out.append(f"{sign} {mono}" if out else mono if c > 0 else f"-{mono}")
        return " ".join(out)

    __repr__ = __str__


# a plain Combination, and OperatorExpr, is over Coefficient
Combination.ring = Coefficient


_MONO_RE = re.compile(
    r"^(?P<int>-?\d+)?"
    r"(?:\*?q\^(?P<q>-?\d+))?"
    r"(?:\*?a(?:\^(?P<a>-?\d+))?)?$"
)


def parse_coefficient(text: str) -> Coefficient:
    """Parse the canonical text form produced by Coefficient.__str__;
    ValueError on text that is not of that form, or has two a-degrees:
    empty text and an empty monomial, such as a dangling or doubled
    sign, are rejected, and so is any text, stripped, that its parse
    does not print back to, such as unsorted or repeated powers, a
    written 1, 0 or exponent 1, or spaces inside a monomial."""
    text = text.strip()
    if not text:
        raise ValueError("empty coefficient text")
    if text == "0":
        return Coefficient.zero()
    out = Coefficient.zero()
    # normalize "x - y" into "x + -y" then split on +
    for raw in text.replace("- ", "+ -").split("+"):
        mono = raw.strip().replace(" ", "")
        if not mono:
            raise ValueError(f"empty monomial in {text!r}")
        neg = mono.startswith("-") and not mono[1:2].isdigit()
        if neg:
            mono = mono[1:]
        m = _MONO_RE.match(mono)
        if not m or not mono:
            raise ValueError(f"cannot parse monomial {raw!r}")
        c = int(m.group("int")) if m.group("int") is not None else 1
        if neg:
            c = -c
        k = int(m.group("q")) if m.group("q") is not None else 0
        has_a = "a" in mono
        d = int(m.group("a")) if m.group("a") is not None else (1 if has_a else 0)
        out = out + Coefficient.from_laurent(LaurentPoly.q_power(k, c), d)
    if str(out) != text:
        raise ValueError(f"{text!r} is not canonical: it reads {out}")
    return out
