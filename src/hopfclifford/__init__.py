"""Computational Clifford theory for finite-dimensional semisimple Hopf algebras.

Build group algebras, dual group algebras, and bismash products from finite
group data, decompose them into matrix blocks, and decide whether induction
from the stabilizer of an irreducible module of a normal Hopf subalgebra is
a bijection onto the module's equivalence class.
"""

from .errors import (ConfigError, ConsistencyError, FactorizationError,
                     HopfCliffordError, NoAntipodeError, NormalityError,
                     NotACharacterError, NumericDegeneracyError,
                     PreconditionError, SemisimplicityError, SizeLimitError,
                     TheoremViolationError)
from .groups import (FiniteGroup, MatchedPair, Subgroup, derive_actions,
                     group_from_permutations, is_exact_factorization,
                     is_invariant_subgroup_under_lact, orbit_and_stabilizer,
                     subgroup_closure, verify_matched_pair)
from .hopf import (TOL_ALG, AlgebraData, BismashResult, HopfAlgebraData,
                   HopfInclusion, HopfSurjection, SubspaceBasis, bismash,
                   coefficient_space, comodule_map_rho, dual_group_algebra,
                   dual_hopf, graded_component, group_algebra,
                   hopf_map_residual, is_cocentral, is_hopf_subalgebra,
                   is_normal_hopf_subalgebra, quotient_hopf, solve_antipode,
                   subspace_product, verify_hopf_axioms)
from .repcalc import (Character, ExplicitModule, SemisimpleDecomposition,
                      construct_irreducible_module, decompose,
                      group_algebra_form, induce_character, multiplicity,
                      regular_character, restrict_character,
                      restriction_table, wedderburn)
from .clifford import (AlphaReport, EquivalenceClassData, Extension,
                       StabilizerResult, analyze_alpha, compute_stabilizer,
                       conjugate_module, conjugation_matrix,
                       coset_projection_check, direct_correspondence_check,
                       equivalence_classes, graded_stabilizer_analysis,
                       stabilizer_dimension_bound, verify_class_formulas)
from .scenarios import (Scenario, build_scenario, builtin_scenario,
                        load_scenario, run_scenario)

__version__ = "0.1.0"
