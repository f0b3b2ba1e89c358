"""The four benchmark workloads.

A workload has a set-up, which builds its inputs on a freshly imported
qborel, and a round, which runs its checks once.  Set-up never fills
the library's caches, so a round on a fresh set-up costs what one CLI
job costs in a fresh process.  A round returns a Tally of the
operations it attempted, those whose library call raised (failed) and
those whose output was wrong.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass

import reference


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def _report_exception(what):
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def affine_type(qb, label):
    """AffineType from a label such as 'A5r3'."""
    family, rest = label[0], label[1:]
    n, r = rest.split("r")
    return qb.rootdata.AffineType(family, int(n), int(r))


# ---------------------------------------------------------------------
# checks shared by the workloads and the self-check
# ---------------------------------------------------------------------

def relation_exprs(qb, t):
    """Every defining relation, as the CLI `relations` job builds them."""
    op = qb.opalg
    out = []
    for i in range(t.n + 1):
        for j in range(t.n + 1):
            if i != j:
                out.append(op.serre_expr(i, j, t))
            out.append(op.k_e_conjugation_expr(i, j, t))
            if i < j:
                out.append(op.k_commutation_expr(i, j))
    out.append(op.central_element_expr(t))
    return out


def check_relation(qb, t, x, data) -> Tally:
    """Evaluate the relation x on every datum; each value must be zero."""
    evaluate, basis = qb.opalg.evaluate, qb.latticemod.Element.basis
    tally = Tally(attempted=len(data))
    for c in data:
        try:
            out = evaluate(x, t, basis(c))
        except Exception:
            if not tally.failed:
                _report_exception(f"evaluate on {t}")
            tally.failed += 1
            continue
        tally.wrong += not out.is_zero()
    return tally


def check_count(label, count, height) -> bool:
    """A count of data (or a character total) against the product series."""
    return count == reference.graded_count(reference.ROOT_HEIGHTS[label], height)


def compare_characters(lhs, rhs) -> Tally:
    """Compare two characters weight by weight; one operation per weight."""
    weights = set(lhs) | set(rhs)
    wrong = sum(1 for w in weights if lhs.get(w, 0) != rhs.get(w, 0))
    return Tally(attempted=len(weights), wrong=wrong)


def _a_terms(coeff):
    return {d: p.terms for d, p in coeff.a_terms.items()}


def check_geometric(t, psi) -> Tally:
    """psi = (psi_{r,0}, ..., psi_{r,K}) of the lowering model: psi_{r,k}
    is a multiple of a^k whose q-part is psi_one^k, at q = 2 and 3."""
    tally = Tally(attempted=len(psi) - 1)
    for k in range(1, len(psi)):
        for q in reference.Q_POINTS:
            ratio = reference.psi_one(t.family, t.n, t.r, q)
            if reference.a_monomial_at(_a_terms(psi[k]), k, q) != ratio ** k:
                tally.wrong += 1
                break
    return tally


def check_gammas(t, gammas, closed) -> Tally:
    """gamma_k equals the library's closed form exactly, and both equal
    the paper's closed form at q = 2 and 3."""
    tally = Tally(attempted=len(gammas))
    for k, (g, c) in enumerate(zip(gammas, closed), start=1):
        ok = g == c
        for q in reference.Q_POINTS:
            want = reference.gamma(t.family, t.n, k, q)
            ok = ok and reference.a_monomial_at(_a_terms(g), k, q) == want
        tally.wrong += not ok
    return tally


def check_raising(t, psi, psi_neg) -> Tally:
    """Raising-model series per node: node r is 1 + psi_{r,1} z with
    psi_{r,1} equal to the lowering model's; every other node is 1."""
    tally = Tally()
    for i, series in psi.items():
        for k in range(1, len(series)):
            tally.attempted += 1
            if i == t.r and k == 1:
                tally.wrong += series[1] != psi_neg[1]
            else:
                tally.wrong += not series[k].is_zero()
    return tally


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

class RelationsGraded:
    name = "relations-graded"
    types = ("A5r3", "D5r5")
    height = 10

    def setup(self, qb, seed):
        rng = random.Random(seed)
        state = []
        for label in self.types:
            t = affine_type(qb, label)
            mod = qb.latticemod.get_module(t)
            exprs = relation_exprs(qb, t)
            data = mod.enumerate_data(height=self.height)
            if not check_count(label, len(data), self.height):
                raise AssertionError(
                    f"{label}: {len(data)} graded data of height <= "
                    f"{self.height}, the product series says otherwise")
            # the seed fixes the order only; the set of evaluations and
            # every count are the same for every seed
            rng.shuffle(exprs)
            rng.shuffle(data)
            state.append((t, exprs, data))
        return state

    def round(self, qb, state) -> Tally:
        tally = Tally()
        for t, exprs, data in state:
            for x in exprs:
                tally.add(check_relation(qb, t, x, data))
        return tally


class RelationsRandom(RelationsGraded):
    name = "relations-random"
    sizes = (("A5r3", 60), ("D6r6", 30))
    max_entry = 10

    def setup(self, qb, seed):
        rng = random.Random(seed)
        state = []
        for label, count in self.sizes:
            t = affine_type(qb, label)
            nroots = qb.latticemod.get_module(t).nroots
            exprs = relation_exprs(qb, t)
            # each root's multiplicities over the data are a shuffle of the
            # same balanced list of 0..max_entry, so every seed draws the
            # same amount of multiplicity and only the combinations vary
            columns = []
            for _ in range(nroots):
                column = [k % (self.max_entry + 1) for k in range(count)]
                rng.shuffle(column)
                columns.append(column)
            data = list(zip(*columns))
            state.append((t, exprs, data))
        return state


class Character:
    name = "character"
    types = ("A6r3", "D6r1")
    height = 14

    def setup(self, qb, seed):
        state = []
        for label in self.types:
            t = affine_type(qb, label)
            qb.latticemod.get_module(t)
            state.append((label, t, qb.chars.positive_roots_simple(t)))
        return state

    def round(self, qb, state) -> Tally:
        chars = qb.chars
        tally = Tally()
        for label, t, roots in state:
            try:
                lhs = chars.module_character(t, height=self.height)
                rhs = chars.product_character(roots, [1] * len(roots),
                                              height=self.height)
            except Exception:
                _report_exception(f"character of {t}")
                tally.add(Tally(attempted=1, failed=1))
                continue
            tally.add(compare_characters(lhs, rhs))
            tally.wrong += not check_count(label, sum(lhs.values()), self.height)
        return tally


class LweightDeep:
    name = "lweight-deep"
    types = ("A6r3", "D6r6")
    K = 150

    def setup(self, qb, seed):
        state = []
        for label in self.types:
            t = affine_type(qb, label)
            qb.latticemod.get_module(t)
            state.append(t)
        return state

    def round(self, qb, state) -> Tally:
        mr, K = qb.microrec, self.K
        tally = Tally()
        for t in state:
            try:
                pos = qb.drinfeld.ell_weight_of_vacuum(t, K)
                neg = mr.negative_ell_weight(t, K)
                gammas = mr.string_recurrence(t, "neg", K)
                closed = [mr.negative_closed_form(t, k) for k in range(1, K + 1)]
            except Exception:
                _report_exception(f"l-weights of {t}")
                tally.add(Tally(attempted=1, failed=1))
                continue
            tally.add(check_raising(t, pos.psi, neg.psi[t.r]))
            tally.add(check_geometric(t, neg.psi[t.r]))
            tally.add(check_gammas(t, gammas, closed))
        return tally


WORKLOADS = {w.name: w for w in (RelationsGraded(), RelationsRandom(),
                                  Character(), LweightDeep())}
