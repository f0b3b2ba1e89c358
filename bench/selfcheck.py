"""Fast check that every workload's correctness check can fail.

    python3 bench/selfcheck.py

At small sizes it hands each check of workloads.py a true input, which
must pass, and a corrupted one, which must be caught.  Exits 0 when
every check behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    sys.path.insert(0, str(SRC))
    import qborel as qb
    import workloads as wl
    from workloads import affine_type

    results = []

    def expect(name, passed, caught):
        ok = passed and caught
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true input "
              f"{'passes' if passed else 'is rejected'}, corrupted input "
              f"{'is caught' if caught else 'passes'}")

    # relations: the Serre relation (1,2) on A2r1 with the q-binomial
    # [2]_q of its middle word replaced by the ordinary binomial 2
    t = affine_type(qb, "A2r1")
    data = qb.latticemod.get_module(t).enumerate_data(height=6)
    serre = qb.opalg.serre_expr(1, 2, t)
    bad = qb.opalg.OperatorExpr({
        w: (qb.coeffring.Coefficient.from_int(-2) if w == (1, 2, 1) else c)
        for w, c in serre.terms.items()})
    expect("serre with a perturbed q-binomial",
           wl.check_relation(qb, t, serre, data).wrong == 0,
           wl.check_relation(qb, t, bad, data).wrong > 0)

    # counts: the number of graded data, and a character total, off by one
    n = len(data)
    expect("graded count off by one",
           wl.check_count("A2r1", n, 6),
           not wl.check_count("A2r1", n + 1, 6)
           and not wl.check_count("A2r1", n - 1, 6))
    t = affine_type(qb, "A3r2")
    roots = qb.chars.positive_roots_simple(t)
    lhs = qb.chars.module_character(t, height=5)
    rhs = qb.chars.product_character(roots, [1] * len(roots), height=5)
    w = max(lhs)
    expect("character weight off by one",
           wl.compare_characters(lhs, rhs).wrong == 0
           and wl.check_count("A3r2", sum(lhs.values()), 5),
           wl.compare_characters({**lhs, w: lhs[w] + 1}, rhs).wrong == 1
           and not wl.check_count("A3r2", sum(lhs.values()) + 1, 5))

    # l-weights: a lowering-model value off the geometric series, a wrong
    # recurrence scalar, and a nonzero raising-model tail
    q = qb.coeffring.Coefficient.q_power(1)
    K = 6
    for label in ("A2r1", "D4r4"):
        t = affine_type(qb, label)
        psi = qb.microrec.negative_ell_weight(t, K).psi[t.r]
        expect(f"{label} non-geometric l-weight value",
               wl.check_geometric(t, psi).wrong == 0,
               wl.check_geometric(t, psi[:3] + (psi[3] * q,) + psi[4:]).wrong == 1)
        gammas = qb.microrec.string_recurrence(t, "neg", K)
        closed = [qb.microrec.negative_closed_form(t, k) for k in range(1, K + 1)]
        off = gammas[:2] + [gammas[2] * q] + gammas[3:]
        expect(f"{label} recurrence scalar off the closed form",
               wl.check_gammas(t, gammas, closed).wrong == 0,
               wl.check_gammas(t, off, closed).wrong == 1
               and wl.check_gammas(t, off, off).wrong == 1)
        pos = qb.drinfeld.ell_weight_of_vacuum(t, K).psi
        tail = dict(pos)
        tail[t.r] = pos[t.r][:2] + (pos[t.r][1],) + pos[t.r][3:]
        expect(f"{label} raising-model series with a nonzero tail",
               wl.check_raising(t, pos, psi).wrong == 0,
               wl.check_raising(t, tail, psi).wrong == 1)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
