"""Exact workbench for many-valued modal logics over FL_ew chains.

Subpackages by concern: ``formulas`` (AST, parser, printer), ``algebras``
(exact residuated-lattice arithmetic), ``kripke`` (finite models and
evaluation), ``decision`` (propositional and finite-frame decisions),
``pcp`` (the correspondence-problem encoding), ``bridges`` (reductions and
the first-order printer), ``necessitation`` (the global-vs-local-plus-
necessitation separation), and ``cli``.
"""

from .algebras import (CarrierError, EXP_ONE, EXP_ZERO, ExpChain, ExpValue,
                       FiniteTable, MVn, ResourceLimitError, StdGodel, StdMV,
                       StdProduct, leq, mv_chain_tables, op_apply, power,
                       validate_finite_algebra)
from .formulas import (And, Box, Const0, Const1, Diamond, Formula, Implies,
                       ONE, Or, ParseError, Times, Var, ZERO, box_prefix,
                       fpow, iff, neg, parse, prop_subformulas, render,
                       subformulas, substitute, variables)
from .kripke import (KripkeFrame, KripkeModel, Verdict, Witness,
                     consequence_witness, evaluate, extract_chain,
                     generated_submodel, globally_satisfies, height, heights,
                     is_transitive, load_model, model_from_json,
                     model_to_json, unravel)
from .decision import (coenumerate_nonconsequences, decide_cardinality,
                       decide_on_frame, finite_consequence, luk_consequence,
                       translate_on_frame)
from .pcp import (Numeral, PCPInstance, build_chain_model, build_countermodel,
                  concat, encode, extract_solution, find_solutions,
                  verify_solution)
from .bridges import (extend_model_pq, finite_to_global,
                      global_to_local_transitive, luk2prod_extended,
                      luk2prod_formula, modal_to_fo, model_l2p, model_p2l,
                      recognize_finite_to_global, render_fo,
                      rewrite_to_fragment, product_side_premises, verify_exponent_identity)
from .necessitation import (build_premise_cycle_model, build_nec_model,
                            separation_premises, verify_separation)

__all__ = [
    "CarrierError", "EXP_ONE", "EXP_ZERO", "ExpChain", "ExpValue", "FiniteTable",
    "MVn", "ResourceLimitError", "StdGodel", "StdMV", "StdProduct", "leq",
    "mv_chain_tables", "op_apply", "power", "validate_finite_algebra",
    "And", "Box", "Const0", "Const1", "Diamond", "Formula", "Implies", "ONE",
    "Or", "ParseError", "Times", "Var", "ZERO", "box_prefix", "fpow", "iff",
    "neg", "parse", "prop_subformulas", "render", "subformulas", "substitute",
    "variables",
    "KripkeFrame", "KripkeModel", "Verdict", "Witness", "consequence_witness",
    "evaluate", "extract_chain", "generated_submodel", "globally_satisfies",
    "height", "heights", "is_transitive", "load_model", "model_from_json",
    "model_to_json", "unravel",
    "coenumerate_nonconsequences", "decide_cardinality", "decide_on_frame",
    "finite_consequence", "luk_consequence", "translate_on_frame",
    "Numeral", "PCPInstance", "build_chain_model", "build_countermodel",
    "concat", "encode", "extract_solution", "find_solutions", "verify_solution",
    "extend_model_pq", "finite_to_global", "global_to_local_transitive",
    "luk2prod_extended", "luk2prod_formula", "modal_to_fo", "model_l2p",
    "model_p2l", "recognize_finite_to_global", "render_fo",
    "rewrite_to_fragment", "product_side_premises", "verify_exponent_identity",
    "build_premise_cycle_model", "build_nec_model", "separation_premises",
    "verify_separation",
]

__version__ = "0.1.0"
