"""Exact symbolic realization of prefundamental Borel modules on
Lusztig data, for affine families A and D at minuscule nodes."""

from .coeffring import (Coefficient, GradedCombination, LaurentPoly,
                        NotDivisible, parse_coefficient, q_binomial,
                        q_factorial, q_integer)
from .rootdata import (AffineType, NotReduced, braid_equivalent, cartan_matrix,
                       convex_order, index_matrix, marks, o_sign, pairing,
                       positive_roots, positive_roots_wr, reading_words,
                       reduced_word_wr, root_str, simple_root, theta)
from .latticemod import Element, LatticeModule, get_module
from .opalg import (CheckReport, OperatorExpr, central_element_expr,
                    check_identity_on_basis, defining_relations, evaluate,
                    k_commutation_expr, k_e_conjugation_expr, q_bracket,
                    run_expression, serre_expr)
from .rootvec import (Unsupported, alpha_r_string, bracket_E,
                      hardcoded_full_E, leading_E, string_coefficient,
                      string_span_values, verified_domain_check)
from .drinfeld import (CurrentEngine, EllWeight, NotEigenvector, c_r,
                       ell_weight_of_vacuum, string_closure)
from .microrec import (negative_closed_form, negative_ell_weight,
                       rank_one_serre_check, string_recurrence)
from .chars import (character_identity_check, dump_csv, module_character,
                    positive_roots_simple, product_character)

__version__ = "1.0.0"
