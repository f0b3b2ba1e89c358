"""Higher root vectors E_{k delta - alpha_i} and the currents psi+_{i,k}.

The level-raising step is the four-term combination

    -(q + q^{-1}) E_{(k+1)d - a_i}
        = E_{d-a_i} e_i E_k - q^{-2} e_i E_{d-a_i} E_k
          - E_k E_{d-a_i} e_i + q^{-2} E_k e_i E_{d-a_i},

that is B E_k - E_k B with B = E_{d-a_i} e_i - q^{-2} e_i E_{d-a_i}
(``psi_bracket``), applied with memoized lazy evaluation on basis labels
(materializing E_k as a word expression would grow exponentially in k).
``raise_level`` is that step and ``LevelEngine`` its one memo, which
``CurrentEngine`` runs on the lattice module and
``microrec.StringEngine`` on the alpha_r-string.  On the lattice module
E_{d-a_r} is, in every family, the q-bracket along ``rootvec._path``
applied letter by letter.  The division by q + q^{-1} must be exact; a
failure is a hard error: the base operator data is wrong.

The central element acts trivially on every module here, so no
C^{1/2} bookkeeping appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeffring import Coefficient, LaurentPoly, _add_terms, q_integer
from .latticemod import Element, get_module
from .rootdata import AffineType, dual_coxeter, o_sign
from .rootvec import _path, check_node


class DomainViolation(RuntimeError):
    """A level-one operator was needed outside the span it is known on."""


class NotEigenvector(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class EllWeight:
    """Truncated l-weight: per node i, coefficients (Psi_{i,0},...,Psi_{i,K})."""
    psi: dict
    closed_form: dict = field(default_factory=dict)


QMQ = Coefficient.from_laurent(LaurentPoly({1: 1, -1: -1}))  # q - q^{-1}
Q_INV2 = Coefficient.q_power(-2)  # q^{-2}
_QPQ = q_integer(2)  # q + q^{-1}


def c_r(t: AffineType) -> Coefficient:
    """The spectral-parameter shift scalar between the constructed module
    and the prefundamental representation: (-1)^h o(r) (q - q^{-1}) q^{-h},
    h the dual Coxeter number."""
    h = dual_coxeter(t)
    return QMQ * LaurentPoly.q_power(-h, (-1) ** h * o_sign(t, t.r))


def psi_bracket(Ek, e, v):
    """E_k e_i v - q^{-2} e_i E_k v; k_i and (q - q^{-1}) o^k turn it
    into psi+_{i,k} v.  Ek and e apply E_{kd-a_i} and e_i."""
    return Ek(e(v)) - e(Ek(v)).scale(Q_INV2)


def raise_level(E1, e, Ek, v):
    """E_{(k+1)d - a_i} v by the step of the module docstring, as
    -(B E_k v - E_k B v)/(q + q^{-1}) with B = psi_bracket(E1, e, .).

    E1, e and Ek apply E_{d-a_i}, e_i and E_{kd-a_i} to a combination.
    The order is fixed, E_k v first, so the first DomainViolation a
    level-one operator raises is always the same."""
    return -(psi_bracket(E1, e, Ek(v))
             - Ek(psi_bracket(E1, e, v))).exact_divide(_QPQ)


def vacuum_eigenvalue(w, vac, i, k):
    """The scalar of w = psi+_{i,k} vac on the vacuum label vac;
    NotEigenvector if w leaves the vacuum line."""
    if w.terms.keys() - {vac}:
        raise NotEigenvector(
            f"psi+_{i},{k} does not preserve the vacuum line", w)
    return w.coefficient(vac)


class LevelEngine:
    """The memo of E_{k delta - alpha_i} on basis labels.

    A subclass gives ``_steps(node, k)``: callables applying
    E_{d-a_node}, e_node and E_{(k-1)d-a_node} to a combination.  They
    are built on a memo miss only and never stored, so no reference
    cycle keeps the memo alive after its engine."""

    def __init__(self):
        self._memo = {}

    def _level(self, node, k, v):
        """E_{k delta - alpha_node} v, extended linearly from the memo."""
        if k < 1:
            raise ValueError("level must be >= 1")
        memo = self._memo
        out = v.zero()
        for c, coeff in v.terms.items():
            key = (node, k, c)
            hit = memo.get(key)
            if hit is None:
                E1, e, below = self._steps(node, k)
                b = v.basis(c)
                hit = memo[key] = (E1(b) if k == 1
                                   else raise_level(E1, e, below, b))
            out = out + hit.scale(coeff, v.deg)
        return out


class CurrentEngine(LevelEngine):
    """Memoized computation of E_{k delta - alpha_i} on the lattice module."""

    def __init__(self, t: AffineType):
        super().__init__()
        self.t = t
        self.mod = get_module(t)
        self._path = _path(t)

    # -- level one ----------------------------------------------------

    def E1(self, i: int, v: Element) -> Element:
        """E_{delta - alpha_i} v: zero for i != r, and for i = r the
        q-bracket of ``rootvec.bracket_E``, never expanded into words."""
        check_node(self.t, i)
        self.mod.check_data(v.terms)
        if i != self.t.r:
            return Element.zero()
        return Element._of(self._bracket(len(self._path), v.terms), v.deg + 1)

    def _bracket(self, j, terms):
        """u_j on a term map {datum: LaurentPoly}, as a new map without
        zeros, the factor a of e_0 left to the caller: u_0 = e_0 and
        u_j(w) = u_{j-1}(e_{p_j} w) - q^{-1} e_{p_j} u_{j-1}(w) along
        the path p, each e-step a one-letter call of
        ``LatticeModule._run_word``.  An empty map returns at once, so
        on the alpha_r-string span, which every e_{p_j} kills (no path
        letter is r), u_k costs about 2k e-steps."""
        if not terms:
            return terms
        run_word = self.mod._run_word
        if not j:
            return run_word((0,), terms)
        p = (self._path[j - 1],)
        head = self._bracket(j - 1, run_word(p, terms))
        tail = run_word(p, self._bracket(j - 1, terms))
        return _add_terms(head, {c: -x.shift(-1) for c, x in tail.items()})

    # -- level k ------------------------------------------------------

    def E(self, i: int, k: int, v: Element) -> Element:
        check_node(self.t, i)
        return self._level(i, k, v)

    def _steps(self, i, k):
        return (lambda u: self.E1(i, u), lambda u: self.mod.apply_e(i, u),
                lambda u: self.E(i, k - 1, u))

    # -- currents ------------------------------------------------------

    def psi_plus(self, i: int, k: int, v: Element) -> Element:
        o = o_sign(self.t, i)
        w = psi_bracket(lambda u: self.E(i, k, u),
                        lambda u: self.mod.apply_e(i, u), v)
        w = self.mod.apply_k(i, 1, w)
        return w.scale(QMQ * (o ** k))

    def x_minus_on_vacuum(self, i: int, k: int) -> Element:
        vac = Element.basis(self.mod.vacuum)
        o = o_sign(self.t, i)
        return self.mod.apply_k(i, 1, self.E(i, k, vac)).scale(-(o ** k))


def ell_weight_of_vacuum(t: AffineType, K: int = 6) -> EllWeight:
    """Eigenvalue lists of psi+_{i,k} on the vacuum, k <= K, per node."""
    if K < 1:
        raise ValueError("K must be >= 1")
    eng = CurrentEngine(t)
    vac = Element.basis(eng.mod.vacuum)
    vkey = eng.mod.vacuum
    psi = {}
    form = {}
    for i in range(1, t.n + 1):
        coeffs = tuple([Coefficient.one()] + [
            vacuum_eigenvalue(eng.psi_plus(i, k, vac), vkey, i, k)
            for k in range(1, K + 1)])
        psi[i] = coeffs
        expected = [Coefficient.one(), -(Coefficient.a_power(1) * c_r(t))]
        expected += [Coefficient.zero()] * (K - 1)
        if i == t.r and coeffs == tuple(expected):
            form[i] = "polynomial"
        elif all(c.is_zero() for c in coeffs[1:]):
            form[i] = "trivial"
        else:
            form[i] = "unrecognized"
    return EllWeight(psi, form)
