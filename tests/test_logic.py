import pytest

from lexsem import (Abs, And, App, Applied, Arrow, Atom, Const, ConstRef,
                    Context, Description, Forall, Implies, LogicError, Or,
                    PROP, Quant, SortRef, TermRef, TyApp, TypeVar, Var,
                    VarRef, alpha_equiv, choice_type, connective_type,
                    formula_to_term, logical_constants, logical_signature,
                    normalize, parse_term, quantifier_type, render_formula,
                    to_formula, type_of)

import termgen

E = SortRef("e")


def sig(**preds):
    consts = dict(logical_constants())
    consts.update(preds)
    return Context(sorts={"e", "s"}, constants=consts)


# ---------------------------------------------------------------------------
# the signature

def test_connective_type():
    assert connective_type() == Arrow(PROP, Arrow(PROP, PROP))


def test_quantifier_type():
    assert quantifier_type() == Forall("a", Arrow(Arrow(TypeVar("a"), PROP),
                                                  PROP))


def test_choice_type():
    assert choice_type() == Forall("a", Arrow(Arrow(TypeVar("a"), PROP),
                                              TypeVar("a")))


def test_signature_types_are_built_once():
    assert choice_type() is choice_type()
    assert connective_type() is connective_type()
    assert quantifier_type() is quantifier_type()


def test_logical_signature_contents():
    ctx = logical_signature({"e", "t"})
    assert type_of(Const("&", connective_type()), ctx) == connective_type()
    for name in ("&", "|", "=>", "exists", "forall", "iota"):
        assert name in ctx.constants


def test_logical_signature_requires_t():
    with pytest.raises(LogicError):
        logical_signature({"e"})


# ---------------------------------------------------------------------------
# extraction

def test_to_formula_atoms_and_connectives():
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP), a=E, b=E)
    t = parse_term("(#& (#p #a)) (#q #b)", ctx)
    f = to_formula(t)
    assert f == And(Atom(ConstRef("p"), (ConstRef("a"),)),
                    Atom(ConstRef("q"), (ConstRef("b"),)))


def test_to_formula_quantifier():
    ctx = sig(p=Arrow(E, PROP))
    t = parse_term("#exists{e} (lam x:e. #p x)", ctx)
    f = to_formula(t)
    assert f == Quant("exists", "x", E, Atom(ConstRef("p"), (VarRef("x"),)))


def test_to_formula_eta_expands_quantified_predicate():
    ctx = sig(p=Arrow(E, PROP))
    bare = parse_term("#exists{e} #p", ctx)
    expanded = parse_term("#exists{e} (lam x:e. #p x)", ctx)
    assert to_formula(bare) == to_formula(expanded)


def test_to_formula_iota_description():
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP))
    t = parse_term("#q (#iota{e} #p)", ctx)
    f = to_formula(t)
    assert f == Atom(ConstRef("q"), (Description(E, Const("p", Arrow(E, PROP))),))


def test_to_formula_rejects_open_terms():
    with pytest.raises(LogicError):
        to_formula(Var("x", PROP))


def test_to_formula_rejects_non_propositions():
    with pytest.raises(LogicError):
        to_formula(Const("k", E))


def test_to_formula_rejects_redexes():
    t = App(Abs("x", PROP, Var("x", PROP)), Const("r", PROP))
    with pytest.raises(LogicError):
        to_formula(t)


def test_to_formula_higher_order_atom():
    # a predicate over predicates stays an atom
    ho = Arrow(Arrow(E, PROP), PROP)
    ctx = sig(big=ho, p=Arrow(E, PROP))
    f = to_formula(parse_term("#big #p", ctx))
    assert f == Atom(ConstRef("big"), (ConstRef("p"),))


# ---------------------------------------------------------------------------
# rendering

def test_render_formula_precedence():
    a = Atom(ConstRef("a"), ())
    b = Atom(ConstRef("b"), ())
    c = Atom(ConstRef("c"), ())
    assert render_formula(And(a, Or(b, c))) == "a & (b | c)"
    assert render_formula(Or(And(a, b), c)) == "a & b | c"
    assert render_formula(Implies(Or(a, b), c)) == "a | b => c"
    assert render_formula(Implies(a, Implies(b, c))) == "a => b => c"
    assert render_formula(And(And(a, b), c)) == "a & b & c"
    assert render_formula(And(a, And(b, c))) == "a & (b & c)"


def test_render_formula_quantifier_scope():
    x = Quant("forall", "x", E, Implies(Atom(ConstRef("p"), (VarRef("x"),)),
                                        Atom(ConstRef("q"), (VarRef("x"),))))
    assert render_formula(x) == "forall x:e. p(x) => q(x)"
    assert render_formula(And(Atom(ConstRef("r"), ()), x)) == \
        "r & (forall x:e. p(x) => q(x))"


def test_render_formula_unicode():
    f = Quant("exists", "x", E,
              And(Atom(ConstRef("club"), (VarRef("x"),)),
                  Atom(ConstRef("defeated"), (VarRef("x"), ConstRef("Leeds")))))
    assert render_formula(f, "unicode") == "∃x:e. club(x) ∧ defeated(x, Leeds)"


def test_render_formula_freshens_shadowed_binders():
    inner = Quant("exists", "x", E, Atom(ConstRef("r"),
                                         (VarRef("x"), VarRef("x"))))
    outer = Quant("exists", "x", E, And(Atom(ConstRef("p"), (VarRef("x"),)),
                                        inner))
    # the inner binder got a new name and its occurrences follow it
    assert render_formula(outer) == \
        "exists x:e. p(x) & (exists x1:e. r(x1, x1))"


def test_render_formula_freshens_inside_descriptions():
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP), r=Arrow(E, Arrow(E, PROP)))
    f = to_formula(parse_term(
        "#exists{e} (lam x:e. (#& (#p x)) (#exists{e} (lam x:e."
        " #q (#iota{e} (lam z:e. (#r z) x)))))", ctx))
    # the description's x is the inner binder's, which prints as x1
    assert render_formula(f) == \
        "exists x:e. p(x) & (exists x1:e. q(iota[e](z. r(z, x1))))"


def test_render_formula_freshens_inside_embedded_terms():
    r = Const("r", Arrow(E, Arrow(E, PROP)))
    f = Atom(ConstRef("q"), (TermRef(App(App(r, Var("x", E)),
                                         Var("x1", E))),))
    for name in ("x1", "x", "x1", "x"):
        f = Quant("exists", name, E, f)
    # the term's x and x1 are the two innermost binders, printed x2 and x11
    assert render_formula(f) == ("exists x:e. exists x1:e. exists x2:e."
                                 " exists x11:e. q(#r x2 x11)")


def test_render_description():
    d = Description(SortRef("v"), Abs("x", SortRef("v"),
                                      App(Const("assi", Arrow(SortRef("v"), PROP)),
                                          Var("x", SortRef("v")))))
    f = Atom(ConstRef("assi"), (d,))
    assert render_formula(f) == "assi(iota[v](assi))"
    assert render_formula(f, "unicode") == "assi(ι[v](assi))"


def test_render_applied_compound():
    f = Atom(ConstRef("spread_out"),
             (Applied(ConstRef("t3"), (ConstRef("lpl"),)),))
    assert render_formula(f) == "spread_out(t3(lpl))"


def test_render_formula_bad_style():
    with pytest.raises(ValueError):
        render_formula(Atom(ConstRef("a"), ()), "latex")


# ---------------------------------------------------------------------------
# round trip

def test_formula_to_term_round_trip_eta_long():
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP), a=E)
    for src in ["(#& (#p #a)) (#q #a)",
                "#exists{e} (lam x:e. (#| (#p x)) (#q x))",
                "#forall{e} (lam x:e. (#=> (#p x)) (#q x))",
                "#q (#iota{e} #p)"]:
        t = parse_term(src, ctx)
        f = to_formula(t)
        back, _ = normalize(formula_to_term(f, ctx))
        assert alpha_equiv(back, t), src


def test_formula_round_trip_on_population():
    g = termgen.RandomTerms(23)
    count = 0
    for t in g.population(250):
        nf, _ = normalize(t)
        if type_of(nf, g.ctx) != PROP:
            continue
        f = to_formula(nf)
        back, _ = normalize(formula_to_term(f, g.ctx))
        assert to_formula(back) == f
        count += 1
    assert count > 30


def test_formula_to_term_unknown_constant():
    with pytest.raises(LogicError):
        formula_to_term(Atom(ConstRef("ghost"), ()), sig())


def test_formula_to_term_unbound_variable():
    with pytest.raises(LogicError):
        formula_to_term(Atom(ConstRef("p"), (VarRef("x"),)),
                        sig(p=Arrow(E, PROP)))
