import pytest

from lexsem import (Abs, And, App, Applied, Arrow, Atom, Const, ConstRef,
                    Context, Description, Forall, Implies, LogicError, Or,
                    PROP, Quant, SortRef, TermRef, TyApp, TypeVar, Var,
                    VarRef, alpha_equiv, alpha_key, choice_type,
                    connective_type, formula_to_term, logical_constants,
                    logical_signature, felicity, normalize, parse_term,
                    parse_tree, quantifier_type, render_formula,
                    render_term, render_trace, to_formula, type_of)
from lexsem import iota, logic

import termgen
from test_composition import _fan_out_lexicon
from test_kernel import _unshared

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


def test_logical_constants_are_a_copy_of_one_table():
    first = logical_constants()
    assert set(first) == {"&", "|", "=>", "exists", "forall", "iota"}
    assert first["iota"] is choice_type()
    first.clear()
    assert logical_constants() is not first
    assert len(logical_constants()) == 6


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
# the guards of the formula and head readers

def test_formula_reads_connectives_and_quantifiers_by_their_names():
    ctx = sig(r=Arrow(E, Arrow(E, PROP)), p=Arrow(E, PROP), a=E, b=E)
    # a constant with two arguments that is no connective is an atom
    assert to_formula(parse_term("#r #a #b", ctx)) == \
        Atom(ConstRef("r"), (ConstRef("a"), ConstRef("b")))
    # a quantifier over a bare predicate binds a fresh name
    assert to_formula(parse_term("#exists{e} #p", ctx)) == \
        Quant("exists", "x", E, Atom(ConstRef("p"), (VarRef("x"),)))
    # a connective applied to a connective's application stays a tree
    assert to_formula(parse_term("(#| (#p #a)) ((#& (#p #a)) (#p #b))",
                                 ctx)) == \
        Or(Atom(ConstRef("p"), (ConstRef("a"),)),
           And(Atom(ConstRef("p"), (ConstRef("a"),)),
               Atom(ConstRef("p"), (ConstRef("b"),))))


def test_head_reads_iota_as_a_description_only_when_applied():
    ep = Arrow(E, PROP)
    ctx = sig(p=ep, q=ep, pp=Arrow(ep, PROP), a=E,
              pick=Arrow(Arrow(ep, E), PROP), hi=Arrow(PROP, PROP))
    p = Const("p", ep)
    # iota at an atom's head, with its predicate and one more argument
    f = to_formula(parse_term("#iota{e -> t} #pp #a", ctx))
    assert f == Atom(Description(ep, Const("pp", Arrow(ep, PROP))),
                     (ConstRef("a"),))
    # iota as an argument, applied and unapplied
    assert to_formula(parse_term("#q (#iota{e} #p)", ctx)) == \
        Atom(ConstRef("q"), (Description(E, p),))
    bare = parse_term("#iota{e}", ctx)
    assert to_formula(App(Const("pick", Arrow(Arrow(ep, E), PROP)),
                          bare)) == Atom(ConstRef("pick"), (TermRef(bare),))
    # another type-applied constant is no description
    forall = parse_term("#forall{e} #p", ctx)
    assert to_formula(parse_term("#hi (#forall{e} #p)", ctx)) == \
        Atom(ConstRef("hi"), (TermRef(forall),))


def test_eta_head_names_a_predicate_or_its_eta_expansion():
    ep = Arrow(E, PROP)
    ctx = Context(sorts={"e"}, constants={"p": ep},
                  variables={"P": ep, "y": E})
    eta = logic._eta_head
    assert eta(Const("p", ep)) == "p" and eta(Var("P", ep)) == "P"
    assert eta(parse_term("lam x:e. #p x", ctx)) == "p"
    assert eta(parse_term("lam x:e. #p y", ctx)) is None
    assert eta(parse_term("lam x:e. P x", ctx)) == "P"
    # built directly: x applied to itself does not type-check
    assert eta(Abs("x", E, App(Var("x", E), Var("x", E)))) is None
    assert eta(parse_term("lam x:e. #p #a", sig(p=ep, a=E))) is None


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
    # neither a name nor an abstraction: the predicate prints as a term
    r = Const("r", Arrow(E, Arrow(E, PROP)))
    the = Description(E, App(r, Const("a", E)))
    assert render_formula(Atom(ConstRef("q0"), (the,))) == \
        "q0(iota[e](#r #a))"


def test_render_applied_compound():
    f = Atom(ConstRef("spread_out"),
             (Applied(ConstRef("t3"), (ConstRef("lpl"),)),))
    assert render_formula(f) == "spread_out(t3(lpl))"


def test_render_formula_bad_style():
    with pytest.raises(ValueError):
        render_formula(Atom(ConstRef("a"), ()), "latex")


def test_shared_subformulas_are_rendered_once(monkeypatch):
    # 216 readings over 36 distinct left and 6 distinct right conjuncts
    v = felicity(parse_tree("((AND (AND p q) p) w)"), _fan_out_lexicon(6))
    assert len(v.readings) == 216
    calls, render_ref = [0], logic._render_ref

    def counted(*args):
        calls[0] += 1
        return render_ref(*args)

    monkeypatch.setattr(logic, "_render_ref", counted)
    for r in v.readings:
        render_formula(r.formula)
    # every reading printed from scratch makes 2,592 calls
    assert calls[0] < 600


def _shadowing():
    """A binder of x over a formula with a binder of x inside it, and
    every node of it: the inner nodes print renamed under the outer one."""
    body = Atom(ConstRef("r"), (VarRef("x"), VarRef("x")))
    inner = Quant("exists", "x", E, body)
    conj = And(Atom(ConstRef("p"), (VarRef("x"),)), inner)
    return [body, inner, conj, Quant("exists", "x", E, conj)]


def test_render_order_does_not_change_the_text():
    fresh = {style: [render_formula(f, style) for f in _shadowing()]
             for style in ("ascii", "unicode")}
    assert fresh["ascii"][3] == "exists x:e. p(x) & (exists x1:e. r(x1, x1))"
    # top scope first, then under the binder the inner nodes shadow
    nodes = _shadowing()
    for style in ("ascii", "unicode"):
        assert [render_formula(f, style) for f in nodes] == fresh[style]
    # under the binder first, then at top scope
    nodes = _shadowing()
    for style in ("unicode", "ascii"):
        assert [render_formula(f, style)
                for f in reversed(nodes)] == fresh[style][::-1]
    # one style's kept text never answers for the other
    for first, then in (("ascii", "unicode"), ("unicode", "ascii")):
        nodes = _shadowing()
        render_formula(nodes[3], first)
        assert render_formula(nodes[3], then) == fresh[then][3]


def test_a_kept_reference_text_never_answers_under_a_binder():
    # a reference shared by two formulae, printed at top scope first:
    # under a binder of its own binder's name it prints a fresh name, in
    # either style, and each style keeps its own top-scope text
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP))
    d = Description(E, parse_term("lam x:e. (#& (#p x)) (#q x)", ctx))
    applied = Applied(ConstRef("f"), (d,))
    for ref, top, under in [
            (d, ("iota[e](x. p(x) & q(x))", "ι[e](x. p(x) ∧ q(x))"),
             ("iota[e](x1. p(x1) & q(x1))", "ι[e](x1. p(x1) ∧ q(x1))")),
            (applied,
             ("f(iota[e](x. p(x) & q(x)))", "f(ι[e](x. p(x) ∧ q(x)))"),
             ("f(iota[e](x1. p(x1) & q(x1)))",
              "f(ι[e](x1. p(x1) ∧ q(x1)))"))]:
        atom = Atom(ConstRef("r"), (ref,))
        bound = Quant("exists", "x", E, Atom(ConstRef("s"),
                                             (VarRef("x"), ref)))
        assert render_formula(atom) == f"r({top[0]})"
        assert render_formula(atom, "unicode") == f"r({top[1]})"
        assert render_formula(bound) == f"exists x:e. s(x, {under[0]})"
        assert render_formula(bound, "unicode") == f"∃x:e. s(x, {under[1]})"
        assert (ref._ascii, ref._unicode) == top


def test_a_term_is_not_a_formula_after_it_is_printed():
    # a term keeps its own printed text, which `render_formula` never reads
    term = parse_term("(lam x:e. x) #lpl", sig(lpl=E))
    for style in ("ascii", "unicode"):
        with pytest.raises(LogicError, match="^not a formula"):
            render_formula(term, style)
        assert render_term(term, style) in ("(lam x:e. x) #lpl",
                                            "(λx^e. x) lpl")
        with pytest.raises(LogicError, match="^not a formula"):
            render_formula(term, style)


def test_rendering_leaves_the_record_unchanged():
    rendered, copy = _shadowing(), _shadowing()
    for f in rendered:
        render_formula(f)
        render_formula(f, "unicode")
    for f, g in zip(rendered, copy):
        assert f == g and g == f
        assert hash(f) == hash(g)
        assert repr(f) == repr(g)
    match rendered[3]:
        case Quant(kind, var, sort, And(left, right)):
            got = (kind, var, sort, left, right)
    assert got == ("exists", "x", E, copy[2].left, copy[2].right)
    with pytest.raises(AttributeError):
        rendered[3].body = None


def test_kept_data_leaves_the_term_record_unchanged():
    g = termgen.RandomTerms(23)
    terms = [nf for nf, _ in map(normalize, g.population(150))
             if type_of(nf) == PROP]
    assert len(terms) > 20
    for t in terms:
        copy = _unshared(t)
        alpha_key(t)
        render_term(t)
        render_term(t, "unicode")
        f = logic._formula(t)
        assert t == copy and copy == t
        assert hash(t) == hash(copy)
        assert repr(t) == repr(copy)
        assert f == logic._formula(copy) == to_formula(_unshared(t))
        assert logic._formula(t) is f    # kept on the node


def test_render_trace_is_render_term_per_step():
    for t in termgen.RandomTerms(29).population(150):
        _, trace = normalize(t)
        want = [f"{i} {s.rule} at {'.'.join(map(str, s.path)) or 'ε'}"
                f" ⇒ {render_term(s.result)}"
                for i, s in enumerate(trace.steps, 1)]
        assert render_trace(trace) == "\n".join(want)


# ---------------------------------------------------------------------------
# round trip

def test_formula_to_term_round_trip_eta_long():
    ctx = sig(p=Arrow(E, PROP), q=Arrow(E, PROP), a=E, f=Arrow(E, E),
              h=Arrow(Arrow(E, PROP), PROP))
    for src in ["(#& (#p #a)) (#q #a)",
                "#exists{e} (lam x:e. (#| (#p x)) (#q x))",
                "#forall{e} (lam x:e. (#=> (#p x)) (#q x))",
                "#q (#iota{e} #p)",
                # an Applied reference, and a TermRef one
                "#p (#f #a)", "#h (lam x:e. #p x)"]:
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


def test_formula_to_term_unknown_quantifier():
    with pytest.raises(LogicError):
        formula_to_term(Quant("most", "x", E,
                              Atom(ConstRef("p"), (VarRef("x"),))),
                        sig(p=Arrow(E, PROP)))


@pytest.mark.parametrize("style", ["ascii", "unicode"])
def test_render_formula_unknown_quantifier(style):
    f = Quant("most", "x", SortRef("e"), Atom(ConstRef("p"), (VarRef("x"),)))
    with pytest.raises(LogicError, match="not a formula"):
        render_formula(f, style)


def test_each_logical_constant_is_one_shared_term():
    ep = Arrow(E, PROP)
    ctx = sig(p=ep, a=E)
    p = Atom(ConstRef("p"), (ConstRef("a"),))
    conj = formula_to_term(And(p, p), ctx).fun.fun
    assert conj == Const("&", connective_type())
    assert formula_to_term(Or(p, And(p, p)), ctx).arg.fun.fun is conj
    some = formula_to_term(Quant("exists", "x", E, p), ctx).fun.fun
    assert formula_to_term(Quant("exists", "y", E, p), ctx).fun.fun is some
    the = Atom(ConstRef("p"), (Description(E, Const("p", ep)),))
    assert (formula_to_term(the, ctx).arg.fun.fun
            is iota(E, Const("p", ep))[0].fun.fun)


def test_formula_to_term_unbound_variable():
    with pytest.raises(LogicError):
        formula_to_term(Atom(ConstRef("p"), (VarRef("x"),)),
                        sig(p=Arrow(E, PROP)))
