"""Command-line driver: every verification as a reproducible batch job.

Reports are line-oriented (``CHECK <name> PASS|FAIL ...``); the ``text``
format adds human-readable tables above the check lines.  Identical
arguments (including --seed) produce byte-identical reports, and the
exit code is 0 exactly when every check report passed.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .chars import character_identity_check
from .coeffring import Coefficient
from .drinfeld import c_r, ell_weight_of_vacuum
from .microrec import (negative_closed_form, negative_ell_weight,
                       rank_one_serre_check, string_recurrence)
from .opalg import (CheckReport, central_element_expr, k_commutation_expr,
                    k_e_conjugation_expr, serre_expr,
                    check_identity_on_basis)
from .rootdata import (AffineType, braid_equivalent, convex_order,
                       positive_roots, reading_words, reduced_word_wr,
                       root_str, simple_root, theta)
from .rootvec import string_span_values


def _emit(args, lines, passed):
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _height(args, default):
    """The height cap: both caps apply when both are given; the default
    height only when neither is."""
    if args.height is None and args.bound is None:
        return default
    return args.height


def cmd_relations(args) -> int:
    t = AffineType(args.family, args.n, args.r)
    height = _height(args, 6)
    lines = []
    if args.fmt == "text":
        caps = [f"height <= {height}"] if height is not None else []
        if args.bound is not None:
            caps.append(f"box {','.join(map(str, args.bound))}")
        lines.append(f"defining-relation sweep on {t}, {', '.join(caps)}")
    checks = []
    for i in range(t.n + 1):
        for j in range(t.n + 1):
            if i != j:
                checks.append((f"serre-{i}-{j}", serre_expr(i, j, t)))
            checks.append((f"k{i}-e{j}-conj", k_e_conjugation_expr(i, j, t)))
            if i < j:
                checks.append((f"k{i}-k{j}-comm", k_commutation_expr(i, j)))
    checks.append(("central-element", central_element_expr(t)))
    reports = [check_identity_on_basis(
        x, t, bound=args.bound, height=height,
        extra_random=10, seed=args.seed, name=f"relations-{t}-{name}")
        for name, x in checks]
    lines += [rep.line() for rep in reports]
    return _emit(args, lines, all(rep.passed for rep in reports))


def cmd_lweight(args) -> int:
    t = AffineType(args.family, args.n, args.r)
    lines = []
    if args.model == "pos":
        ell = ell_weight_of_vacuum(t, args.K)
        expected_tag = "polynomial"
    else:
        ell = negative_ell_weight(t, args.K)
        expected_tag = "geometric"
    if args.fmt == "text":
        for i in sorted(ell.psi):
            coeffs = ", ".join(str(c) for c in ell.psi[i])
            lines.append(f"Psi_{i}(z) coefficients: {coeffs}  [{ell.closed_form[i]}]")
        lines.append(f"c_r = {c_r(t)}")
    ok = (ell.closed_form[t.r] == expected_tag
          and all(ell.closed_form[i] == "trivial"
                  for i in ell.closed_form if i != t.r))
    rep = CheckReport(
        f"lweight-{args.model}-{t}-K{args.K}", ok,
        f"node {t.r} {ell.closed_form[t.r]}, others trivial" if ok
        else f"tags {ell.closed_form}")
    lines.append(rep.line())
    return _emit(args, lines, rep.passed)


def cmd_character(args) -> int:
    t = AffineType(args.family, args.n, args.r)
    height = _height(args, 8)
    rep = character_identity_check(t, height, bound=args.bound)
    lines = rep.lines if args.fmt == "text" else []
    return _emit(args, lines + [rep.line()], rep.passed)


def cmd_braid(args) -> int:
    t = AffineType(args.family, args.n, args.r)
    lines = []
    word = reduced_word_wr(t)
    betas = convex_order(t, word)  # raises NotReduced on a bad word
    ok1 = betas[0] == simple_root(t, t.r)
    ok2 = betas[-1] == theta(t)
    # the roots in only one of betas and Delta^+(w_r), the positive roots
    # with a nonzero alpha_r-coefficient
    odd = set(betas).symmetric_difference(
        b for b in positive_roots(t) if b[t.r - 1])
    row, col = reading_words(t)
    ok4 = braid_equivalent(t, row, col)
    if args.fmt == "text":
        lines.append(f"reduced word: {word}")
        lines.append("convex order: "
                     + ", ".join(root_str(t, b) for b in betas))
        lines.append(f"row reading: {row}")
        lines.append(f"col reading: {col}")
    inv = f"{len(betas)} roots"
    if odd:
        inv += "; not in both: " + ", ".join(
            root_str(t, b) for b in sorted(odd))
    reports = [CheckReport(f"braid-{t}-first-root", ok1, root_str(t, betas[0])),
               CheckReport(f"braid-{t}-last-root", ok2, root_str(t, betas[-1])),
               CheckReport(f"braid-{t}-inversion-set", not odd, inv),
               CheckReport(f"braid-{t}-readings-equivalent", ok4)]
    lines += [rep.line() for rep in reports]
    return _emit(args, lines, all(rep.passed for rep in reports))


def cmd_rank1(args) -> int:
    M = args.height if args.height is not None else 20
    rep = rank_one_serre_check(M)
    return _emit(args, rep.lines + [rep.line()], rep.passed)


def cmd_recurrence(args) -> int:
    t = AffineType(args.family, args.n, args.r)
    lines = []
    gammas = string_recurrence(t, args.model, args.K)
    if args.fmt == "text":
        for k, g in enumerate(gammas, start=1):
            lines.append(f"gamma_{k} = {g}")
    if args.model == "neg":
        bad = [k for k, g in enumerate(gammas, start=1)
               if g != negative_closed_form(t, k)]
        rep = CheckReport(
            f"recurrence-neg-{t}-K{args.K}", not bad,
            "closed-form residuals all 0" if not bad
            else f"mismatch at k = {bad}")
    else:
        # the raising model's gammas, read off the lattice module, are
        # the closed form at k = 1 and terminate: gamma_k = 0 past the
        # polynomial l-weight's single nontrivial coefficient
        want, bad = string_span_values(t)[0], []
        if gammas[0] != want:
            bad.append(f"gamma_1 = {gammas[0]}, expected {want}")
        if not all(g == Coefficient.zero() for g in gammas[1:]):
            bad.append("unexpected tail")
        rep = CheckReport(f"recurrence-pos-{t}-K{args.K}", not bad,
                          "; ".join(bad) or "gamma_k = 0 for k >= 2")
    lines.append(rep.line())
    return _emit(args, lines, rep.passed)


_COMMANDS = {
    "relations": cmd_relations,
    "lweight": cmd_lweight,
    "character": cmd_character,
    "braid": cmd_braid,
    "rank1": cmd_rank1,
    "recurrence": cmd_recurrence,
}


def box(text):
    """A --bound argument: comma-separated per-node depth bounds, such as
    2,1,2; argparse turns the ValueError of a malformed one into a usage
    error."""
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qborel",
        description="exact verification jobs for the lattice modules")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--family", choices=["A", "D"], default="A")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--bound", type=box, default=None,
                   help="comma-separated per-node depth bounds")
    p.add_argument("--K", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=["pos", "neg"], default="pos")
    p.add_argument("--format", dest="fmt", choices=["text", "lines"],
                   default="lines")
    p.add_argument("--output", type=str, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # surface residuals etc. as a FAIL line
        traceback.print_exc(file=sys.stderr)
        sys.stdout.write(f"CHECK {args.command} FAIL {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
