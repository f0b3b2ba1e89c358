"""Graded characters of the lattice module and product-series expansions.

Characters live over the root lattice: a graded dimension is a map from
a depth vector (the simple-root coordinates of minus the weight, always
componentwise nonnegative here) to a dimension.  Two independent routes
are provided and never merged:

* ``module_character`` counts basis data directly, as the packed depth
  codes that ``LatticeModule.walk_data`` hands over, each decoded once;
* ``product_character`` expands a product of geometric series
  prod_beta (1 - e^{-beta})^{-m_beta} coefficientwise, as a sparse pass:
  starting from {0: 1}, each factor (1 - e^{-beta})^{-1} walks every
  nonzero cell up its beta-ray until the box or the height cap stops
  it, so only cells the series reaches are ever visited; a cell is one
  packed integer with its height as the top digit.

A code has an s-bit digit per simple root, s the bit length of the
height cap (the box total without one), which bounds every coordinate,
so only the box nodes below the cap can bind and only they are tested.
Their agreement on the inversion-set roots with unit exponents is a
proved identity, checked by ``character_identity_check``.  The routes
share no code, not even to pack and decode, so a codec fault in one
shows against the other; the product route never touches ``latticemod``.
"""

from __future__ import annotations

from .opalg import CheckReport
from .rootdata import AffineType, positive_roots_wr


def positive_roots_simple(t: AffineType):
    """The inversion-set roots in simple-root coordinates, as a list."""
    return list(positive_roots_wr(t))


def module_character(t: AffineType, bound=None, height=None):
    """Weight-space dimensions of the lattice module by direct count of
    the walk's packed depth codes, each decoded once at the end."""
    from .latticemod import get_module
    counts = {}

    def leaf(code, datum):
        counts[code] = counts.get(code, 0) + 1

    s = get_module(t).walk_data(leaf, height=height, box=bound)
    mask = (1 << s) - 1
    digits = [[code >> s * j & mask for code in counts] for j in range(t.n)]
    return dict(zip(zip(*digits), counts.values()))


def product_character(roots, exponents, bound=None, height=None):
    """Coefficients of prod_i (1 - e^{-roots[i]})^{-exponents[i]} within a
    componentwise box and/or a total-height cap; roots are simple-root
    coordinate tuples, nonnegative and nonzero."""
    if bound is None and height is None:
        raise ValueError("need a box or a height cap")
    if len(roots) != len(exponents):
        raise ValueError("one exponent per root")
    if not roots:
        raise ValueError("need at least one root")
    if any(m < 1 for m in exponents):
        raise ValueError("exponents must be positive")
    rank = len(roots[0])
    if any(len(beta) != rank for beta in roots):
        raise ValueError("roots of different lengths")
    if any(x < 0 for beta in roots for x in beta):
        raise ValueError("roots must have nonnegative coordinates")
    if any(not any(beta) for beta in roots):
        raise ValueError("a zero root makes the series diverge")
    if bound is not None:
        bound = tuple(bound)
        if len(bound) != rank:
            raise ValueError(f"box bound has {len(bound)} entries; "
                             f"the roots have {rank}")
        if any(b < 0 for b in bound):
            raise ValueError("box bound entries must be nonnegative")
    if height is not None and height < 0:
        raise ValueError("height cap must be nonnegative")
    # a height cap alone bounds every coordinate by itself, and a box
    # alone bounds the height by its total, so both caps always apply and
    # only the box nodes below the height cap can bind
    if height is None:
        height = sum(bound)
    binding = [j for j in range(rank)
               if bound is not None and bound[j] < height]
    s = height.bit_length()
    mask, top = (1 << s) - 1, s * rank
    dims = {0: 1}
    for beta, m in zip(roots, exponents):
        hb = sum(beta)
        step = sum(x << s * j for j, x in enumerate(beta)) + (hb << top)
        checks = [(s * j, bound[j], beta[j]) for j in binding if beta[j]]
        for _ in range(m):
            # multiply by 1/(1 - e^{-beta}): every support cell w feeds
            # w + k beta for 0 <= k <= kmax, the last step within the caps
            out = {}
            get = out.get
            for w, d in dims.items():
                kmax = (height - (w >> top)) // hb
                for sh, b, x in checks:
                    k = (b - (w >> sh & mask)) // x
                    if k < kmax:
                        kmax = k
                out[w] = get(w, 0) + d
                for _ in range(kmax):
                    w += step
                    out[w] = get(w, 0) + d
            dims = out
    return dict(zip(zip(*[[w >> s * j & mask for w in dims]
                          for j in range(rank)]), dims.values()))


def character_identity_check(t: AffineType, height=None,
                             bound=None) -> CheckReport:
    """Direct count vs unit-exponent product expansion on every weight
    within the height cap and/or the simple-root box; the check is named
    by what it covered, and its lines hold the count as ``dump_csv``
    text."""
    roots = positive_roots_simple(t)
    lhs = module_character(t, bound=bound, height=height)
    rhs = product_character(roots, [1] * len(roots), bound=bound,
                            height=height)
    name = f"character-{t}"
    if height is not None:
        name += f"-h{height}"
    if bound is not None:
        name += "-b" + ",".join(map(str, bound))
    lines = [dump_csv(lhs)]
    if lhs == rhs:
        return CheckReport(name, True, f"{len(lhs)} weights", lines)
    bad = sorted(set(lhs) ^ set(rhs)
                 | {w for w in set(lhs) & set(rhs) if lhs[w] != rhs[w]})
    w = bad[0]
    return CheckReport(name, False,
                       f"at depth {w}: count {lhs.get(w, 0)}, "
                       f"product {rhs.get(w, 0)}", lines)


def dump_csv(dims) -> str:
    """One line per weight: comma-separated depth coordinates, then the
    dimension."""
    lines = []
    for w in sorted(dims):
        lines.append(",".join(map(str, w)) + f";{dims[w]}")
    return "\n".join(lines)
