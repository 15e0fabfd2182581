"""Exact-arithmetic calculus of tree diagrams, symplectic expansions and
Johnson homomorphisms on surface groups, with the lattice and mod-2
computations that detect torsion in the abelianized Johnson kernel."""

from .exact_linalg import (IntegerLattice, Mod2Subspace, gf2_span_closure,
                           hnf, snf_diagonal)
from .lie import (LieContext, LieElement, get_context, ideal_omega_component,
                  lbar_rank, lyndon_words, standard_bracketing, witt_rank)
from .mcg import (BoundingPairMap, Commutator, Conjugate, GradedValue,
                  Inverse, Product, SeparatingTwist, bounding_pair_value,
                  build_phi, casson_values, compose_values, factor_value,
                  genus_of_lift, r_circ_mod1, r_mod1, tau, theorem_b_report,
                  tr3, twist_value)
from .sp_mod2 import (SpTransformation, lower_bound_exponents, stigma,
                      verify_kernel_lemma, verify_ses)
from .trees import (DerivationElement, TreeSum, congruent_mod_trees, join,
                    mod1_class_is_zero, tree_lattice, varpi)
from .words import (ExpansionTable, GroupWord, boundary_word, comm, get_table,
                    parse_word, symplectic_check, theta)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
