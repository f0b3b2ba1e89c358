"""Higher root vectors E_{k delta - alpha_i} and the currents psi+_{i,k}.

The level-raising step is the four-term combination

    -(q + q^{-1}) E_{(k+1)d - a_i}
        = E_{d-a_i} e_i E_k - q^{-2} e_i E_{d-a_i} E_k
          - E_k E_{d-a_i} e_i + q^{-2} E_k e_i E_{d-a_i},

that is B E_k - E_k B with B = E_{d-a_i} e_i - q^{-2} e_i E_{d-a_i}
(``psi_bracket``), applied lazily to term maps {label: LaurentPoly}
(materializing E_k as a word expression would grow exponentially in k).
``CurrentEngine`` runs it on the lattice module: ``_extend`` extends
every such map from one memo of per-label values, and E_{d-a_r} is the
q-bracket along ``rootvec._path`` with each partial bracket in the memo.
The division by q + q^{-1} must be exact; a failure is a hard error: the
base operator data is wrong.  On the alpha_r-string 1, f, f^2, ... B is
diagonal, B f^m = beta_m f^m, so E_k 1 = gamma_1 rho^{k-1} f for every k
with rho = (beta_0 - beta_1)/(q + q^{-1}) (``string_closure``).

The central element acts trivially on every module here, so no
C^{1/2} bookkeeping appears anywhere.
"""

from __future__ import annotations

from .coeffring import (_ONE, _ZERO, Coefficient, LaurentPoly, _add_terms,
                        q_integer)
from .latticemod import Element, get_module
from .rootdata import AffineType, dual_coxeter, o_sign
from .rootvec import _path, check_node


class NotEigenvector(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class EllWeight:
    """Truncated l-weight: per node i, coefficients (Psi_{i,0},...,Psi_{i,K}),
    and per node the tag of its closed form."""

    def __init__(self, psi: dict, closed_form: dict = None):
        self.psi = psi
        self.closed_form = {} if closed_form is None else closed_form


_QMQ = LaurentPoly({1: 1, -1: -1})  # q - q^{-1}
QMQ = Coefficient.from_laurent(_QMQ)
_QPQ = q_integer(2)  # q + q^{-1}


def c_r(t: AffineType) -> Coefficient:
    """The spectral-parameter shift scalar between the constructed module
    and the prefundamental representation: (-1)^h o(r) (q - q^{-1}) q^{-h},
    h the dual Coxeter number."""
    h = dual_coxeter(t)
    return QMQ * LaurentPoly.q_power(-h, (-1) ** h * o_sign(t, t.r))


def _q_commutator(x, y, s):
    """x - q^s y on term maps, summed into x in place."""
    return _add_terms(x, y.items(), LaurentPoly.q_power(s, -1))


def psi_bracket(Ek, e, terms):
    """E_k e_i v - q^{-2} e_i E_k v on a term map; k_i and (q - q^{-1}) o^k
    turn it into psi+_{i,k} v.  Ek and e apply E_{kd-a_i} and e_i to term
    maps, Ek as a new map."""
    return _q_commutator(Ek(e(terms)), e(Ek(terms)), -2)


def raise_level(E1, e, Ek, terms):
    """E_{(k+1)d - a_i} v on a term map by the step of the module
    docstring, as (E_k B v - B E_k v)/(q + q^{-1}) with
    B = psi_bracket(E1, e, .).

    E1, e and Ek apply E_{d-a_i}, e_i and E_{kd-a_i} to term maps, E1 and
    Ek as new maps."""
    b_ek = psi_bracket(E1, e, Ek(terms))
    x = _q_commutator(Ek(psi_bracket(E1, e, terms)), b_ek, 0)
    return {c: p.exact_divide(_QPQ) for c, p in x.items()}


def string_closure(E1, e, one, f):
    """(gamma_1, rho) of the module docstring as LaurentPolys, from E1 and
    e, which apply E_{d-a_r} (as a new map) and e_r to term maps, and the
    labels one and f of 1 and f.  AssertionError if E_1.1 leaves the line
    of f or B is not diagonal on 1 and f."""
    g = E1({one: _ONE})
    if g.keys() - {f}:
        raise AssertionError(f"E_1.1 is not a multiple of f: {g}")
    beta = []
    for c in (one, f):
        b = psi_bracket(E1, e, {c: _ONE})
        if b.keys() - {c}:
            raise AssertionError(f"B is not diagonal on {c}: {b}")
        beta.append(b.get(c, _ZERO))
    return g.get(f, _ZERO), (beta[0] - beta[1]).exact_divide(_QPQ)


def vacuum_eigenvalue(w, vac, i, k):
    """The scalar of w = psi+_{i,k} vac on the vacuum label vac;
    NotEigenvector if w leaves the vacuum line."""
    if w.terms.keys() - {vac}:
        raise NotEigenvector(
            f"psi+_{i},{k} does not preserve the vacuum line", w)
    return w.coefficient(vac)


class CurrentEngine:
    """E_{k delta - alpha_i} and psi+_{i,k} on the lattice module, from one
    memo of per-label values.  The memo's rules are never stored, so no
    reference cycle keeps it alive after its engine."""

    def __init__(self, t: AffineType):
        self.t = t
        self.mod = get_module(t)
        self._path = _path(t)
        self._memo = {}

    def _extend(self, key, rule, terms):
        """The linear map named key on a term map, as a new map: its value
        rule(c) on a label c is computed on the first call only."""
        memo = self._memo
        out = {}
        for c, p in terms.items():
            hit = memo.get((key, c))
            if hit is None:
                hit = memo[key, c] = rule(c)
            _add_terms(out, hit.items(), None if p is _ONE else p)
        return out

    def _level(self, i, k, terms):
        """E_{k delta - alpha_i} on a term map, as a new map."""
        if k < 1:
            raise ValueError("level must be >= 1")
        if k == 1:
            return self._E1(i, terms)
        return self._extend((i, k), lambda c: raise_level(
            lambda u: self._E1(i, u), lambda u: self._e(i, u),
            lambda u: self._level(i, k - 1, u), {c: _ONE}), terms)

    def _psi(self, i, k, terms):
        """psi+_{i,k} on a term map but for its diagonal factor k_i:
        psi_bracket times (q - q^{-1}) o(i)^k."""
        w = psi_bracket(lambda u: self._level(i, k, u),
                        lambda u: self._e(i, u), terms)
        return _add_terms({}, w.items(), _QMQ * o_sign(self.t, i) ** k)

    def cache_info(self):
        """The memo's number of ``entries`` and the ``terms`` they hold."""
        memo = self._memo
        return {"entries": len(memo), "terms": sum(map(len, memo.values()))}

    def _check(self, i, v):
        check_node(self.t, i)
        self.mod.check_data(v.terms)

    def _e(self, i, terms):
        return self.mod._run_word((i,), terms)

    def _E1(self, i, terms):
        """E_{delta - alpha_i}: zero for i != r, and for i = r the q-bracket
        of ``rootvec.bracket_E``, never expanded into words."""
        if i != self.t.r:
            return {}
        return self._bracket(len(self._path), terms)

    def _bracket(self, j, terms):
        """u_j on a term map, the factor a of e_0 left to the caller:
        u_0 = e_0 and u_j(c) = u_{j-1}(e_{p_j} c) - q^{-1} e_{p_j} u_{j-1}(c)
        along the path p, each e-step a one-letter ``_run_word`` call.  u_j(c)
        is memoised: at most two e-steps however many branches reach it."""
        return self._extend(("u", j), lambda c: self._u(j, c), terms)

    def _u(self, j, c):
        run_word, one = self.mod._run_word, {c: _ONE}
        if not j:
            return run_word((0,), one)
        p = (self._path[j - 1],)
        head = self._bracket(j - 1, run_word(p, one))
        return _q_commutator(head, run_word(p, self._bracket(j - 1, one)), -1)

    # -- public entries: checked once, then term maps ------------------

    def E1(self, i: int, v: Element) -> Element:
        self._check(i, v)
        return Element._of(self._E1(i, v.terms), v.deg + 1)

    def E(self, i: int, k: int, v: Element) -> Element:
        self._check(i, v)
        return Element._of(self._level(i, k, v.terms), v.deg + k)

    def psi_plus(self, i: int, k: int, v: Element) -> Element:
        self._check(i, v)
        w = self.mod._run_word((("k", i, 1),), self._psi(i, k, v.terms))
        return Element._of(w, v.deg + k)


def ell_weight_of_vacuum(t: AffineType, K: int = 6) -> EllWeight:
    """Eigenvalue lists of psi+_{i,k} on the vacuum, k <= K, per node."""
    if K < 1:
        raise ValueError("K must be >= 1")
    eng = CurrentEngine(t)
    vkey = eng.mod.vacuum
    vac = Element.basis(vkey)
    polynomial = (Coefficient.one(), -(Coefficient.a_power(1) * c_r(t)),
                  *[Coefficient.zero()] * (K - 1))
    psi, form = {}, {}
    for i in range(1, t.n + 1):
        psi[i] = (Coefficient.one(), *[
            vacuum_eigenvalue(eng.psi_plus(i, k, vac), vkey, i, k)
            for k in range(1, K + 1)])
        if i == t.r and psi[i] == polynomial:
            form[i] = "polynomial"
        elif not any(psi[i][1:]):
            form[i] = "trivial"
        else:
            form[i] = "unrecognized"
    return EllWeight(psi, form)
