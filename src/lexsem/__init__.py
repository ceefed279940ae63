"""A typed lambda calculus with sorted individuals, a lexicon of words
with coercion morphisms, and a composition engine that turns binary
parse trees into many-sorted logical formulae."""

from .composition import (AND_MARKER, CompositionError, FELICITOUS,
                          INFELICITOUS, Leaf, Node, ParseTree, RESOURCE_LIMIT,
                          Reading, Rejection, THE_MARKER, TYPE_ERROR,
                          Verdict, apply_with_coercion, compose, felicity,
                          parse_tree)
from .kernel import (Abs, App, Arrow, Const, Context, Forall, KernelError,
                     PROP, ParseError, SortRef, Term, TyAbs, TyApp,
                     Type, TypeVar, TypingError, Var, alpha_equiv,
                     alpha_key, free_type_vars, free_vars, fresh_name,
                     parse_term, parse_type, render_term, render_type,
                     subst_term, subst_type, type_of)
from .lexicon import (FLEXIBLE, LexEntry, Lexicon, LexiconError, Morphism,
                      RIGID, candidates, identity_morphism, iota,
                      load_lexicon, poly_and, save_lexicon)
from .logic import (And, Applied, Atom, ConstRef, Description, Formula,
                    Implies, LogicError, Or, Quant, Ref, TermRef, VarRef,
                    choice_type, connective_type, formula_to_term,
                    logical_constants, logical_signature, quantifier_type,
                    render_formula, to_formula)
from .reduction import (FuelExhausted, ReductionTrace, TraceStep,
                        find_redexes, normal_form, normalize, reduce_at,
                        reduce_step, render_trace)

__all__ = [
    # composition
    "AND_MARKER", "CompositionError", "FELICITOUS", "INFELICITOUS", "Leaf",
    "Node", "ParseTree", "RESOURCE_LIMIT", "Reading", "Rejection",
    "THE_MARKER", "TYPE_ERROR", "Verdict", "apply_with_coercion", "compose",
    "felicity", "parse_tree",
    # kernel
    "Abs", "App", "Arrow", "Const", "Context", "Forall", "KernelError",
    "PROP", "ParseError", "SortRef", "Term", "TyAbs", "TyApp", "Type",
    "TypeVar", "TypingError", "Var", "alpha_equiv", "alpha_key",
    "free_type_vars", "free_vars", "fresh_name", "parse_term", "parse_type",
    "render_term", "render_type", "subst_term", "subst_type", "type_of",
    # lexicon
    "FLEXIBLE", "LexEntry", "Lexicon", "LexiconError", "Morphism", "RIGID",
    "candidates", "identity_morphism", "iota", "load_lexicon", "poly_and",
    "save_lexicon",
    # logic
    "And", "Applied", "Atom", "ConstRef", "Description", "Formula",
    "Implies", "LogicError", "Or", "Quant", "Ref", "TermRef", "VarRef",
    "choice_type", "connective_type", "formula_to_term", "logical_constants",
    "logical_signature", "quantifier_type", "render_formula", "to_formula",
    # reduction
    "FuelExhausted", "ReductionTrace", "TraceStep", "find_redexes",
    "normal_form", "normalize", "reduce_at", "reduce_step", "render_trace",
]
