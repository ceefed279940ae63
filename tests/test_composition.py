import random
import re
import sys
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsem import (App, Arrow, CompositionError, Const, FELICITOUS,
                    FLEXIBLE, Forall, FuelExhausted, INFELICITOUS, LexEntry,
                    Leaf, Morphism, Node, PROP, ParseError,
                    RESOURCE_LIMIT, Rejection, SortRef,
                    THE_MARKER, TYPE_ERROR, TyApp, TypeVar, alpha_equiv,
                    alpha_key, apply_with_coercion, choice_type, compose,
                    felicity, free_type_vars, load_lexicon, normal_form,
                    normalize, parse_tree, poly_and, quantifier_type,
                    render_formula, render_term, subst_type, to_formula,
                    type_of)
from lexsem import composition, kernel, lexicon, logic, reduction
from lexsem.kernel import _apply
from lexsem.reduction import _Meter, _normal_form

import termgen
from conftest import deep_shared_lexicon, fixture_text

E = SortRef("e")


# ---------------------------------------------------------------------------
# tree syntax

def test_parse_tree_left_fold():
    assert parse_tree("(a b c)") == Node(Node(Leaf("a"), Leaf("b")), Leaf("c"))


def test_parse_tree_nesting():
    t = parse_tree("((some club) (defeated Leeds))")
    assert t == Node(Node(Leaf("some"), Leaf("club")),
                     Node(Leaf("defeated"), Leaf("Leeds")))


def test_parse_tree_singleton_unwraps():
    assert parse_tree("(x)") == Leaf("x")
    assert parse_tree("((x))") == Leaf("x")
    assert parse_tree("(" * 3000 + "f x" + ")" * 3000) == \
        Node(Leaf("f"), Leaf("x"))


def test_parse_tree_bare_leaf():
    assert parse_tree("  Liverpool ") == Leaf("Liverpool")


WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


@pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_parse_tree_splits_at_every_whitespace_character(space):
    assert len(WHITESPACE) == 29
    assert parse_tree(f"(a{space}b)") == Node(Leaf("a"), Leaf("b"))


@pytest.mark.parametrize("text,fragment", [
    ("(a b", "missing ')'"),
    ("a b)", "trailing"),
    ("(a) b", "trailing"),
    ("()", "empty"),
    (")", "unexpected ')'"),
    ("", "unexpected end"),
])
def test_parse_tree_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("(a b", "missing ')' (line 1, column 5)"),
    ("a b)", "trailing input after tree (line 1, column 3)"),
    ("(a) b", "trailing input after tree (line 1, column 5)"),
    ("()", "empty tree (line 1, column 1)"),
    (")", "unexpected ')' (line 1, column 1)"),
    ("", "unexpected end of tree (line 1, column 1)"),
    # a column counts characters, whitespace that is not ASCII included
    ("(a\u3000(b))\u3000c", "trailing input after tree (line 1, column 9)"),
    ("(x\x1c())", "empty tree (line 1, column 4)"),
])
def test_parse_tree_error_columns(text, message):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == (1, int(message[-2:-1]))


# the reference tokenizer: a token is a parenthesis or a run of anything
# else up to whitespace, `\s` matching the characters `str.isspace` accepts
TREE_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _failing_offset(text):
    """Where `parse_tree` must fail on `text`, by the reference tokens:
    the start of the failing token, the end of the text, or None."""
    stack, done = [], False
    for m in TREE_TOKEN_RE.finditer(text):
        if done:
            return m.start()
        if m.group() == "(":
            stack.append([m.start(), False])
            continue
        if m.group() == ")":
            if not stack:
                return m.start()
            start, filled = stack.pop()
            if not filled:
                return start
        if stack:
            stack[-1][1] = True
        else:
            done = True
    return len(text) if stack or not done else None


@settings(max_examples=400)
@given(st.lists(st.sampled_from(["(", ")", "a", "bc", "é", "a(", " ", "\t",
                                 "\x0b", "\x1c", "\x85", "\u3000"]),
                max_size=14).map("".join))
def test_a_tree_error_is_placed_at_its_token(text):
    at = _failing_offset(text)
    try:
        parse_tree(text)
    except ParseError as err:
        assert (err.line, err.col) == (1, at + 1), text
    else:
        assert at is None, text


def test_tree_str_round_trip():
    tree = parse_tree("((AND spread_out voted) Liverpool)")
    assert str(tree) == "(((AND spread_out) voted) Liverpool)"
    assert parse_tree(str(tree)) == tree


# ---------------------------------------------------------------------------
# application with coercion

def test_apply_direct(liverpool):
    fun = liverpool.entry("voted").principal
    arg = Const("she", SortRef("P"))
    [(term, m)] = apply_with_coercion(fun, arg)
    assert m is None
    assert alpha_equiv(term, App(fun, arg))


def test_apply_mismatch_without_entry(liverpool):
    fun = liverpool.entry("spread_out").principal
    arg = liverpool.entry("Liverpool").principal
    assert apply_with_coercion(fun, arg) == []


def test_apply_through_morphism(liverpool):
    fun = liverpool.entry("spread_out").principal
    entry = liverpool.entry("Liverpool")
    [(term, m)] = apply_with_coercion(fun, entry.principal, entry)
    assert m.name == "t3"
    assert alpha_equiv(term, App(fun, App(m.term, entry.principal)))


def test_apply_no_fitting_morphism(liverpool):
    fun = Const("p", Arrow(SortRef("zz"), PROP))
    entry = liverpool.entry("Liverpool")
    assert apply_with_coercion(fun, entry.principal, entry) == []


def test_apply_non_function_raises(liverpool):
    arg = liverpool.entry("won").principal
    with pytest.raises(CompositionError):
        apply_with_coercion(liverpool.entry("Liverpool").principal, arg)


def test_apply_instantiates_quantified_functor(montague):
    fun = Const("exists", quantifier_type())
    arg = montague.entry("club").principal
    [(term, m)] = apply_with_coercion(fun, arg)
    assert m is None
    assert type_of(term) == PROP


def test_apply_quantified_no_match(montague):
    fun = Const("exists", quantifier_type())
    assert apply_with_coercion(fun, montague.entry("Leeds").principal) == []


def test_apply_requires_full_instantiation(montague):
    # only one of the two leading quantifiers is determined by the match
    assert apply_with_coercion(poly_and(),
                               montague.entry("club").principal) == []


# ---------------------------------------------------------------------------
# whole trees

def test_compose_plain_sentence(montague):
    [r] = compose(parse_tree("((some club) (defeated Leeds))"), montague)
    assert render_formula(r.formula) == "exists x:e. club(x) & defeated(x, Leeds)"
    assert r.used_morphisms == ()
    assert r.presuppositions == ()


def test_compose_records_morphism(liverpool):
    [r] = compose(parse_tree("(spread_out Liverpool)"), liverpool)
    assert render_formula(r.formula) == "spread_out(t3(lpl))"
    assert r.used_morphisms == (("Liverpool", (1,), "t3"),)


def test_compose_copredication(liverpool):
    [r] = compose(parse_tree("((AND spread_out voted) Liverpool)"), liverpool)
    assert render_formula(r.formula) == \
        "spread_out(t3(lpl)) & voted(t2(lpl))"
    assert r.used_morphisms == (("Liverpool", (1,), "t3"),
                                ("Liverpool", (1,), "t2"))


def test_compose_rigid_conflict_is_empty(liverpool):
    assert compose(parse_tree("((AND voted won) Liverpool)"), liverpool) == []


# a rigid morphism declared under the implicit identity's name
ID_RIGID = """\
sorts: T F
pred lpl : T
pred t1 : T -> F
pred won : F -> t
pred big : T -> t
word L : T = #lpl
  morph id : T -> F = #t1 [rigid]
word won : F -> t = #won
word big : T -> t = #big
"""


@pytest.mark.parametrize("name", ["id", "m"])
@pytest.mark.parametrize("text", ["((AND big won) L)", "((AND won big) L)"])
def test_a_rigid_morphism_excludes_the_implicit_identity_by_any_name(
        name, text):
    # one morphism twice is one object, not one name
    lex = load_lexicon(ID_RIGID.replace("morph id", f"morph {name}"))
    v = felicity(parse_tree(text), lex)
    assert v.status == INFELICITOUS
    assert [str(r) for r in v.rejection_log] == \
        [f"rigid {name} excludes id"]


def test_compose_rigid_agrees_with_itself(liverpool):
    [r] = compose(parse_tree("((AND won won) Liverpool)"), liverpool)
    assert render_formula(r.formula) == "won(t1(lpl)) & won(t1(lpl))"
    assert r.used_morphisms == (("Liverpool", (1,), "t1"),
                                ("Liverpool", (1,), "t1"))


def test_definite_referent(assinatura):
    [r] = compose(parse_tree("(THE assinatura)"), assinatura)
    assert type_of(r.term) == SortRef("v")
    assert [render_formula(p) for p in r.presuppositions] == \
        ["assi(iota[v](assi))"]


def test_a_definite_over_a_definite_is_built_per_tree():
    # the inner THE's node carries the word's entry but not its leaf's
    # reading, so the entry's kept THE node is not the outer one
    lex = load_lexicon("sorts: e\npred q : (e -> t) -> t\n"
                       "word q : (e -> t) -> t = #q\n")
    v = felicity(parse_tree("(THE (THE q))"), lex)
    assert v.status == FELICITOUS
    [r] = v.readings
    assert render_term(r.term) == "#iota{e} (#iota{e -> t} #q)"
    assert [render_formula(p) for p in r.presuppositions] == \
        ["q(iota[e -> t](q))",
         "iota[e -> t](q)(iota[e](iota[e -> t](q)))"]


def test_presupposition_propagates(assinatura):
    [r] = compose(parse_tree("(atrasou (THE assinatura))"), assinatura)
    assert render_formula(r.formula) == "atrasou(iota[v](assi))"
    assert [render_formula(p) for p in r.presuppositions] == \
        ["assi(iota[v](assi))"]
    assert r.used_morphisms == ()


def test_coerced_definite(assinatura):
    [r] = compose(parse_tree("(ilegivel (THE assinatura))"), assinatura)
    assert render_formula(r.formula) == "ilegivel(f_phi(iota[v](assi)))"
    assert r.used_morphisms == (("assinatura", (1,), "f_phi"),)


def test_nested_conjunction(assinatura):
    tree = parse_tree("((AND (AND furou ilegivel) atrasou) (THE assinatura))")
    verdict = felicity(tree, assinatura)
    assert verdict.status == "felicitous"
    [r] = verdict.readings
    assert render_formula(r.formula) == \
        "furou(f_vphi(iota[v](assi))) & ilegivel(f_phi(iota[v](assi)))" \
        " & atrasou(iota[v](assi))"
    names = [name for _, _, name in r.used_morphisms]
    assert names.count("Id_v") == 2
    assert {"f_vphi", "f_phi"} <= set(names)
    assert verdict.notes == \
        ("rigidity applies within each conjunction node separately",)


def test_two_conjunction_nodes_note():
    text = fixture_text("liverpool.mgl") + \
        "pred both : t -> t -> t\nword both : t -> t -> t = #both\n"
    lex = load_lexicon(text)
    tree = parse_tree("((both ((AND spread_out voted) Liverpool))"
                      " ((AND spread_out voted) Liverpool))")
    verdict = felicity(tree, lex)
    assert verdict.status == "felicitous"
    [r] = verdict.readings
    # an embedded proposition renders in applied form under a plain head
    assert render_formula(r.formula) == \
        "both(&(spread_out(t3(lpl)), voted(t2(lpl)))," \
        " &(spread_out(t3(lpl)), voted(t2(lpl))))"
    assert r.used_morphisms == (
        ("Liverpool", (0, 1, 1), "t3"), ("Liverpool", (0, 1, 1), "t2"),
        ("Liverpool", (1, 1), "t3"), ("Liverpool", (1, 1), "t2"))
    assert verdict.notes == \
        ("rigidity applies within each conjunction node separately",)


def test_empty_alternatives_propagate():
    text = fixture_text("liverpool.mgl") + \
        "pred both : t -> t -> t\nword both : t -> t -> t = #both\n"
    lex = load_lexicon(text)
    tree = parse_tree("((both ((AND spread_out voted) Liverpool))"
                      " ((AND voted won) Liverpool))")
    verdict = felicity(tree, lex)
    assert verdict.status == "infelicitous"
    assert verdict.readings == ()
    assert any("rigid t1 excludes t2" == str(r)
               for r in verdict.rejection_log)


def test_conjunction_node_logs_each_rejection_once():
    # the nested conjunction has four readings; the outer node's pairs
    # do not depend on them, so its one rejection is logged once
    lex = load_lexicon(
        "sorts: T P F\n"
        "pred c : T\npred a : T -> P\npred b : T -> P\npred r : T -> F\n"
        "pred p : P -> t\npred q : P -> t\npred won : F -> t\n"
        "word w : T = #c\n"
        "  morph Id : T -> T = lam x:T. x [flexible]\n"
        "  morph a : T -> P = #a [flexible]\n"
        "  morph b : T -> P = #b [flexible]\n"
        "  morph r : T -> F = #r [rigid]\n"
        "word p : P -> t = #p\nword q : P -> t = #q\n"
        "word won : F -> t = #won\n")
    v = felicity(parse_tree("((AND (AND p q) won) w)"), lex)
    assert v.status == "infelicitous"
    assert [str(r) for r in v.rejection_log] == ["rigid r excludes Id"]



@pytest.mark.parametrize("name,text,word,source", [
    ("liverpool", "((AND voted won) voted)", "voted", "P -> t"),
    ("fanout", "((AND p p) q)", "q", "A -> t"),
])
def test_a_shared_argument_with_no_coercions_is_rejected_once(
        name, text, word, source):
    # both conjuncts would coerce from the argument's type; the entry has
    # no coercions from it, which rejects the node once, not per conjunct
    v = felicity(parse_tree(text), load_lexicon(fixture_text(f"{name}.mgl")))
    assert v.status == "infelicitous"
    assert v.rejection_log == (
        Rejection((), f"'{word}' has no coercions from {source}"),)

def test_four_readings_when_all_flexible():
    lex = load_lexicon(
        "sorts: xi alpha\n"
        "pred k : xi\npred u : xi -> alpha\npred w : xi -> alpha\n"
        "pred pp : alpha -> t\npred qq : alpha -> t\n"
        "word N : xi = #k\n"
        "  morph u : xi -> alpha = #u [flexible]\n"
        "  morph w : xi -> alpha = #w [flexible]\n"
        "word pp : alpha -> t = #pp\n"
        "word qq : alpha -> t = #qq\n")
    readings = compose(parse_tree("((AND pp qq) N)"), lex)
    formulas = sorted(render_formula(r.formula) for r in readings)
    assert formulas == ["pp(u(k)) & qq(u(k))", "pp(u(k)) & qq(w(k))",
                        "pp(w(k)) & qq(u(k))", "pp(w(k)) & qq(w(k))"]


def test_alpha_equivalent_readings_collapse():
    # two differently named morphisms denoting the same function
    lex = load_lexicon(
        "sorts: xi alpha\n"
        "pred k : xi\npred u : xi -> alpha\n"
        "pred pp : alpha -> t\npred qq : alpha -> t\n"
        "word N : xi = #k\n"
        "  morph u : xi -> alpha = #u [flexible]\n"
        "  morph w : xi -> alpha = #u [flexible]\n"
        "word pp : alpha -> t = #pp\n"
        "word qq : alpha -> t = #qq\n")
    readings = compose(parse_tree("((AND pp qq) N)"), lex)
    assert len(readings) == 1
    assert render_formula(readings[0].formula) == "pp(u(k)) & qq(u(k))"


def test_readings_equal_after_normalization_collapse():
    # #f and its eta-expansion differ as terms but agree once applied
    lex = load_lexicon(
        "sorts: S A\n"
        "pred c : S\npred f : S -> A\n"
        "pred p : A -> t\npred q : A -> t\n"
        "word w : S = #c\n"
        "  morph g : S -> A = #f [flexible]\n"
        "  morph h : S -> A = lam x:S. #f x [flexible]\n"
        "word p : A -> t = #p\n"
        "word q : A -> t = #q\n")
    [r] = compose(parse_tree("((AND p q) w)"), lex)
    assert render_formula(r.formula) == "p(f(c)) & q(f(c))"
    assert r.used_morphisms == (("w", (1,), "g"), ("w", (1,), "g"))


def test_single_predication_ignores_rigidity():
    text = fixture_text("liverpool.mgl").replace("#t3 [flexible]",
                                                 "#t3 [rigid]")
    lex = load_lexicon(text)
    [r] = compose(parse_tree("(spread_out Liverpool)"), lex)
    assert render_formula(r.formula) == "spread_out(t3(lpl))"


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_felicitous(liverpool):
    v = felicity(parse_tree("(spread_out Liverpool)"), liverpool)
    assert v.status == "felicitous"
    assert len(v.readings) == 1
    assert v.rejection_log == ()
    assert v.error is None


def test_verdict_infelicitous(liverpool):
    v = felicity(parse_tree("((AND voted won) Liverpool)"), liverpool)
    assert v.status == "infelicitous"
    assert v.readings == ()
    assert str(v.rejection_log[0]) == "rigid t1 excludes t2"
    assert v.rejection_log[0].assignment == ("t2", "t1")


def test_verdict_unknown_word(liverpool):
    v = felicity(parse_tree("(spread_out Everton)"), liverpool)
    assert v.status == "typeError"
    assert "Everton" in v.error


def test_verdict_untypable_application(assinatura):
    v = felicity(parse_tree("(ilegivel assinatura)"), assinatura)
    assert v.status == "typeError"
    assert "cannot apply" in v.error


def test_verdict_non_function(liverpool):
    v = felicity(parse_tree("(Liverpool voted)"), liverpool)
    assert v.status == "typeError"
    assert "not a function type" in v.error


def test_verdict_resource_limit(liverpool):
    tree = parse_tree("((AND spread_out voted) Liverpool)")
    v = felicity(tree, liverpool, fuel=1)
    assert v.status == RESOURCE_LIMIT == "resourceLimit"
    assert v.error == "no normal form after 1 steps"
    assert v.readings == ()
    # an ill-typed tree is still a type error at the same fuel
    v = felicity(parse_tree("(spread_out voted)"), liverpool, fuel=1)
    assert v.status == "typeError"


def test_error_paths_are_dotted(liverpool):
    with pytest.raises(CompositionError) as err:
        compose(parse_tree("(spread_out (THE missing))"), liverpool)
    assert str(err.value).startswith("at 1.1:")


def test_unapplied_marker(liverpool):
    with pytest.raises(CompositionError):
        compose(parse_tree("(AND spread_out)"), liverpool)
    with pytest.raises(CompositionError):
        compose(parse_tree("(THE AND)"), liverpool)


MARKER_ERRORS = [
    ("(THE AND)", "at ε: THE needs a noun"),
    ("(THE (AND voted))", "at ε: THE needs a noun"),
    ("(AND THE)", "at ε: AND needs a predicate"),
    ("((AND voted) THE)", "at ε: AND needs a predicate"),
    ("((AND voted won) (AND voted))",
     "at ε: a conjunction needs a term argument"),
    ("(((AND voted spread_out) (AND won)) Liverpool)",
     "at 0: a conjunction needs a term argument"),
    ("(voted THE)", "at ε: a marker cannot be an argument"),
    ("THE", "at ε: the tree is an unapplied marker"),
    ("((AND Liverpool voted) Liverpool)",
     "at ε: a conjunct must be a one-place predicate, got T"),
    # the error is reported once, at the node that cannot apply
    ("(voted (Liverpool voted))", "at 1: T is not a function type"),
    # the rigid clash below empties the argument, whose type is still t
    ("(won ((AND voted won) Liverpool))", "at ε: cannot apply F -> t to t"),
]


@pytest.mark.parametrize("text,error", MARKER_ERRORS,
                         ids=[text for text, _ in MARKER_ERRORS])
def test_marker_and_conjunct_errors(liverpool, text, error):
    v = felicity(parse_tree(text), liverpool)
    assert v.status == "typeError"
    assert v.error == error


def test_rejection_str():
    r = Rejection(("f", "g"), "rigid f excludes g")
    assert str(r) == "rigid f excludes g"


# ---------------------------------------------------------------------------
# subject reduction on the composition path: reduction checks no types, so
# every reading, and every step that led to it, must keep the type of the
# term it was normalized from

def _fixture_trees():
    for name in ("montague", "liverpool", "assinatura"):
        lex = load_lexicon(fixture_text(f"{name}.mgl"))
        for line in fixture_text(f"trees_{name}.txt").splitlines():
            if line.strip() and not line.startswith("#"):
                yield lex, line


def _fixture_cases():
    yield from _fixture_trees()
    gen = termgen.RandomCopreds(23)
    for _ in range(200):
        inst = gen.instance()
        yield inst.lexicon, inst.tree_text


def test_readings_keep_their_source_type():
    readings = 0
    for lex, text in _fixture_cases():
        for r in felicity(parse_tree(text), lex).readings:
            want = type_of(r.source, lex.context)
            assert type_of(r.term, lex.context) == want, text
            for step in normalize(r.source)[1].steps:
                assert type_of(step.result, lex.context) == want, text
            readings += 1
    assert readings >= 60


# ---------------------------------------------------------------------------
# a node builds its readings' normal forms from its children's, contracting
# only the redexes it makes; the result must still be the normal form of the
# reading's source, bound variable names included

def _nested_and(depth):
    tree = "spread_out"
    for i in range(depth):
        tree = f"(AND {('voted', 'spread_out')[i % 2]} {tree})"
    return f"({tree} Liverpool)"


def _fan_out_lexicon(m, kind="normal"):
    return load_lexicon(_fan_out_text(m, kind))


def _fan_out_text(m, kind="normal"):
    """A word with `m` flexible morphisms into its predicates' sort.  Of
    kind "non-normal", the word, the predicate `p` and every morphism are
    terms that take steps to normalize; of kind "odd", the word, `p` and
    the odd-numbered morphisms only."""
    preds = "".join(f"pred u{i} : T -> A\n" for i in range(m))
    slow = {"normal": (), "non-normal": range(m), "odd": range(1, m, 2)}[kind]
    w, p = "#c", "#p"
    if kind != "normal":
        w, p = "(lam z:T. z) #c", "lam z:A. (lam k:A. #p k) z"
    morphs = "".join(
        f"  morph u{i} : T -> A = "
        + (f"lam z:T. (lam k:T. #u{i} k) z" if i in slow else f"#u{i}")
        + " [flexible]\n" for i in range(m))
    return (f"sorts: T A\npred c : T\n{preds}pred p : A -> t\n"
            f"pred q : A -> t\nword w : T = {w}\n{morphs}"
            f"word p : A -> t = {p}\nword q : A -> t = #q\n")


def _normal_form_cases():
    yield from _fixture_cases()
    liverpool = load_lexicon(fixture_text("liverpool.mgl"))
    for depth in range(2, 13):
        yield liverpool, _nested_and(depth)
    for m in range(1, 7):
        # conjunction depth 2: m ** 3 readings
        yield _fan_out_lexicon(m), "((AND (AND p q) p) w)"
    arrow = load_lexicon(ARROW_SHARED)
    for words in ARROW_SHARED_CHARGES:
        for conj in _bracketings(words.split()):
            yield arrow, f"({conj} dog)"


def test_readings_are_normal_forms_of_their_sources():
    readings = 0
    for lex, text in _normal_form_cases():
        for r in felicity(parse_tree(text), lex).readings:
            nf = normal_form(r.source)
            assert r.term == nf, text
            assert alpha_key(r.term) == alpha_key(nf), text
            readings += 1
    assert readings >= 500


def test_a_verdict_with_no_readings_logs_a_rejection():
    # readings vanish only at a conjunction node whose pairs are all
    # refused, and each refusal is logged
    empty = 0
    for lex, text in _normal_form_cases():
        v = felicity(parse_tree(text), lex)
        if v.error is None and not v.readings:
            assert v.status == INFELICITOUS and v.rejection_log, text
            empty += 1
    assert empty >= 100


def test_poly_and_is_parsed_before_the_tree_is_walked(monkeypatch, liverpool):
    # parsed on first use under the frames of the innermost conjunction, it
    # made how deep a tree can be depend on what the process judged before;
    # it is parsed at import, so judging a tree parses nothing
    parsed = []
    monkeypatch.setattr(lexicon, "parse_term",
                        lambda *args: parsed.append(args))
    assert felicity(parse_tree(_nested_and(50)), liverpool).status == \
        FELICITOUS
    assert parsed == []
    assert poly_and() is poly_and()


def test_a_conjunct_is_built_once_per_node():
    # each half of a reading, a conjunct applied to the shared argument
    # through one morphism, is one object for every reading that holds it
    readings = felicity(parse_tree("((AND (AND p q) p) w)"),
                        _fan_out_lexicon(6)).readings
    assert len(readings) == 216
    assert len({id(r.term.fun.arg) for r in readings}) == 36
    assert len({id(r.term.arg) for r in readings}) == 6


def test_a_nested_conjunction_substitutes_each_shared_part_once():
    # the inner node's 36 readings hold 6 left and 6 right halves, built
    # over the argument itself; the outer node takes each inner reading as
    # its half, so the readings it builds share them as the inner did
    readings = felicity(parse_tree("((AND (AND p q) p) w)"),
                        _fan_out_lexicon(6)).readings
    assert len(readings) == 216
    assert len({id(r.term.fun.arg.fun.arg) for r in readings}) == 6
    assert len({id(r.term.fun.arg.arg) for r in readings}) == 6


# the smallest fuel at which each tree is judged, recorded before the
# halves of a conjunction were shared between its readings: per kind of
# fan-out lexicon, at m = 1 to 5, for the trees of FAN_OUT_TREES; then
# for the first 100 RandomCopreds(41) instances.  In kind "odd" a reading
# through two slow morphisms costs most, and the halves it holds were
# first built for cheaper readings
FAN_OUT_TREES = ("((AND p q) w)", "((AND (AND p q) p) w)",
                 "((AND p (AND q p)) w)")
FAN_OUT_CHARGES = {
    "normal": [(8, 18, 18)] * 5,
    "non-normal": [(15, 29, 29)] * 5,
    "odd": [(11, 23, 23)] + [(15, 29, 29)] * 4,
}
RANDOM_COPRED_CHARGES = (
    1, 1, 1, 21, 1, 1, 1, 21, 1, 1, 8, 10, 1, 1, 1, 18, 1, 1, 1, 1,
    8, 1, 21, 1, 9, 1, 1, 1, 1, 1, 1, 10, 1, 1, 1, 18, 17, 1, 19, 1,
    1, 1, 1, 1, 1, 10, 1, 9, 1, 1, 1, 1, 1, 16, 1, 8, 8, 1, 18, 1,
    8, 18, 1, 1, 1, 1, 10, 1, 1, 1, 1, 8, 1, 8, 1, 1, 8, 1, 1, 20,
    1, 1, 1, 1, 1, 1, 8, 10, 1, 1, 8, 1, 1, 1, 9, 1, 1, 1, 10, 1)


# the same for a conjunction nested to depth 3, m ** 4 readings, at m = 1
# to 4, recorded before a conjunction node substituted each part its
# nested readings share once
FAN_OUT_DEPTH_3 = "((AND (AND (AND p q) p) q) w)"
FAN_OUT_DEPTH_3_CHARGES = {
    "normal": [28] * 4,
    "non-normal": [41] * 4,
    "odd": [33] + [41] * 3,
}


def _charge_cases():
    for kind, per_m in FAN_OUT_CHARGES.items():
        for m, charges in enumerate(per_m, 1):
            lex = _fan_out_lexicon(m, kind)
            yield from ((lex, t, c) for t, c in zip(FAN_OUT_TREES, charges))
    gen = termgen.RandomCopreds(41)
    for charge in RANDOM_COPRED_CHARGES:
        inst = gen.instance()
        yield inst.lexicon, inst.tree_text, charge


def test_fuel_charges_are_pinned():
    for lex, text, charge in _charge_cases():
        tree = parse_tree(text)
        assert felicity(tree, lex, charge).status != RESOURCE_LIMIT, text
        if charge > 1:
            v = felicity(tree, lex, charge - 1)
            assert v.status == RESOURCE_LIMIT, text


def test_depth_3_fuel_charges_are_pinned():
    tree = parse_tree(FAN_OUT_DEPTH_3)
    for kind, per_m in FAN_OUT_DEPTH_3_CHARGES.items():
        for m, charge in enumerate(per_m, 1):
            lex = _fan_out_lexicon(m, kind)
            assert len(felicity(tree, lex, charge).readings) == m ** 4
            v = felicity(tree, lex, charge - 1)
            assert v.status == RESOURCE_LIMIT, (kind, m)


def _bracketings(words):
    """Every bracketing of a conjunction of `words`, in their order."""
    if len(words) == 1:
        yield words[0]
    for i in range(1, len(words)):
        for left, right in product(_bracketings(words[:i]),
                                   _bracketings(words[i:])):
            yield f"(AND {left} {right})"


# the smallest fuel at which every bracketing of 3 and of 4 conjuncts is
# judged, per kind of fan-out lexicon at m = 1 to 3, recorded while a
# nested conjunction was still built over a placeholder for the shared
# argument and applied to it afterwards; n conjuncts give m ** n readings
BRACKETING_CHARGES = {
    ("p", "q", "p"): {"normal": [18] * 3, "non-normal": [29] * 3,
                      "odd": [23, 29, 29]},
    ("p", "q", "p", "q"): {"normal": [28] * 3, "non-normal": [41] * 3,
                           "odd": [33, 41, 41]},
}

# a shared argument of arrow type: each morphism puts it at the head of an
# application, the rigid one twice, and `every` puts it under a binder
ARROW_SHARED = """\
sorts: e f
pred dog : e -> t
pred g : f -> e
pred h : f -> e
pred q : e -> t
word dog : e -> t = lam x:e. #dog x
  morph m1 : (e -> t) -> f -> t = lam P:e -> t. lam y:f. P (#g y) [flexible]
  morph m2 : (e -> t) -> f -> t = \
lam P:e -> t. lam y:f. (#& (P (#g y))) (P (#h y)) [rigid]
word some : (e -> t) -> t = lam P:e -> t. #exists{e} P
word every : (e -> t) -> t = lam P:e -> t. \
#forall{e} (lam x:e. (#=> (#q x)) (P x))
word somef : (f -> t) -> t = lam P:f -> t. #exists{f} P
"""

# (smallest fuel, readings) of each bracketing of 2 and 3 conjuncts over
# `dog`, in the order of `_bracketings`, recorded as BRACKETING_CHARGES was
ARROW_SHARED_CHARGES = {
    "some some": [(12, 1)], "some every": [(13, 1)],
    "some somef": [(13, 1)], "every some": [(13, 1)],
    "every every": [(14, 1)], "every somef": [(14, 1)],
    "somef some": [(13, 1)], "somef every": [(14, 1)],
    "somef somef": [(16, 2)],
    "some some some": [(24, 1)] * 2, "some some every": [(25, 1)] * 2,
    "some some somef": [(25, 1)] * 2, "some every some": [(25, 1)] * 2,
    "some every every": [(26, 1)] * 2, "some every somef": [(26, 1)] * 2,
    "some somef some": [(25, 1)] * 2, "some somef every": [(26, 1)] * 2,
    "some somef somef": [(28, 2), (26, 1)],
    "every some some": [(25, 1)] * 2, "every some every": [(26, 1)] * 2,
    "every some somef": [(26, 1)] * 2, "every every some": [(26, 1)] * 2,
    "every every every": [(27, 1)] * 2, "every every somef": [(27, 1)] * 2,
    "every somef some": [(26, 1)] * 2, "every somef every": [(27, 1)] * 2,
    "every somef somef": [(29, 2), (27, 1)],
    "somef some some": [(25, 1)] * 2, "somef some every": [(26, 1)] * 2,
    "somef some somef": [(26, 1)] * 2, "somef every some": [(26, 1)] * 2,
    "somef every every": [(27, 1)] * 2, "somef every somef": [(27, 1)] * 2,
    "somef somef some": [(26, 1), (28, 2)],
    "somef somef every": [(27, 1), (29, 2)],
    "somef somef somef": [(29, 2)] * 2,
}


def _bracketing_cases():
    for words, per_kind in BRACKETING_CHARGES.items():
        for kind, per_m in per_kind.items():
            for m, charge in enumerate(per_m, 1):
                lex = _fan_out_lexicon(m, kind)
                for conj in _bracketings(words):
                    yield lex, f"({conj} w)", charge, m ** len(words)
    lex = load_lexicon(ARROW_SHARED)
    for words, per_tree in ARROW_SHARED_CHARGES.items():
        trees = list(_bracketings(words.split()))
        assert len(trees) == len(per_tree)
        for conj, (charge, count) in zip(trees, per_tree):
            yield lex, f"({conj} dog)", charge, count


def test_every_bracketing_keeps_its_fuel_charge():
    cases = 0
    for lex, text, charge, count in _bracketing_cases():
        tree = parse_tree(text)
        assert len(felicity(tree, lex, charge).readings) == count, text
        v = felicity(tree, lex, charge - 1)
        assert v.status == RESOURCE_LIMIT, text
        cases += 1
    assert cases == 3 * 3 * (2 + 5) + 9 + 27 * 2


def _node_paths(tree, path=(), fun=False):
    """The paths of the nodes of `tree` that have a normal form: all but
    the markers, a conjunction with one conjunct, and a conjunction with
    two that its parent applies to their argument."""
    if isinstance(tree, Leaf):
        return [] if tree.word in ("THE", "AND") else [path]
    below = (_node_paths(tree.fun, path + (0,), True)
             + _node_paths(tree.arg, path + (1,)))
    if tree.fun == Leaf("AND") or fun and isinstance(tree.fun, Node) \
            and tree.fun.fun == Leaf("AND"):
        return below
    return below + [path]


def _subtree(tree, path):
    for i in path:
        tree = (tree.fun, tree.arg)[i]
    return tree


def _check_nested_lines(tree, lex, lines):
    """A nested conjunction's lines, its own and its conjuncts', count
    what its conjunction applied alone to the shared argument is charged,
    less the argument's lines: those belong to the argument's node."""
    def total(prefix):
        return sum(own for path, _, own, _ in lines
                   if path[:len(prefix)] == prefix)

    conjunctions = [path for path, kind, _, _ in lines if kind == "AND"]
    applied = [q for q in conjunctions
               if _subtree(tree, q).fun.fun != Leaf("AND")]
    for path in set(conjunctions) - set(applied):
        outer = max(q for q in applied if path[:len(q)] == q)
        arg = outer + (1,)
        alone = parse_tree(f"({_subtree(tree, path)} {_subtree(tree, arg)})")
        first = []
        felicity(alone, lex, _alts=first)
        assert total(path) == first[0].steps - total(arg), (tree, path)


def _derivation_cases():
    for lex, text in _fixture_trees():
        yield lex, text
    fanout = load_lexicon(fixture_text("fanout.mgl"))
    for line in fixture_text("trees_fanout.txt").splitlines():
        yield fanout, line
    for kind in ("normal", "non-normal", "odd"):
        for m in range(1, 4):
            lex = _fan_out_lexicon(m, kind)
            for words in (("p", "q"), ("p", "q", "p"), ("p", "q", "p", "q")):
                for conj in _bracketings(words):
                    yield lex, f"({conj} w)"
    for seed in (23, 41):
        gen = termgen.RandomCopreds(seed)
        for _ in range(100):
            inst = gen.instance()
            yield inst.lexicon, inst.tree_text


def test_a_derivation_s_steps_add_up_to_its_reading_s_charge():
    # composition's own derivation of a reading, which --format trace
    # prints: one line per tree node with a normal form, bottom-up, whose
    # steps sum to the charge at any fuel that lets the reading be, none
    # of them below 0
    readings = checked = 0
    for lex, text in _derivation_cases():
        tree = parse_tree(text)
        alts = []
        v = felicity(tree, lex, _alts=alts)
        if v.status != FELICITOUS:
            continue
        readings += len(v.readings)
        _check_nested_lines(tree, lex, composition._derivation(alts[0]))
        charges = [alt.steps for alt in alts]
        for fuel in range(1, max(charges) + 2):
            alts = []
            at_fuel = felicity(tree, lex, fuel, _alts=alts)
            if at_fuel.status != FELICITOUS:
                assert at_fuel.status == RESOURCE_LIMIT, (text, fuel)
                assert max(charges) > fuel, (text, fuel)
                continue
            assert at_fuel == v and max(charges) <= fuel, (text, fuel)
            assert [alt.steps for alt in alts] == charges, (text, fuel)
            for alt, r in zip(alts, v.readings):
                lines = composition._derivation(alt)
                assert sum(own for _, _, own, _ in lines) == alt.steps
                assert all(own >= 0 for _, _, own, _ in lines), text
                assert lines[-1][0] == () and lines[-1][3] == r.term
                assert sorted(p for p, *_ in lines) == \
                    sorted(_node_paths(tree)), text
                # a word's line counts what normal order takes on its term,
                # and THE contracts nothing a reading is charged for
                for path, kind, own, _ in lines:
                    if kind == "word":
                        word = _subtree(tree, path).word
                        term = lex.entry(word).principal
                        assert own == len(normalize(term)[1]), text
                    assert kind != "THE" or own == 0, text
                checked += 1
    # a tree is felicitous from its largest charge on, at least once
    assert readings > 2000 and checked >= readings


Y_BINDER = """\
sorts: T A
pred c : T
pred r : T -> A -> t
pred p : A -> t
pred q : A -> t
word w : T = #c
  morph u : T -> A = lam z:T. #iota{A} (lam y:A. #r z y) [flexible]
word p : A -> t = #p
word q : A -> t = #q
"""


def test_a_binder_named_y_keeps_its_name_under_a_nested_conjunction():
    # the morphism's own binder prints alike however the conjuncts are
    # bracketed: nothing in a reading is named after the source's `y`
    lex = load_lexicon(Y_BINDER)
    part = "iota[A](y. r(c, y))"
    [flat] = felicity(parse_tree("((AND p q) w)"), lex).readings
    assert render_formula(flat.formula) == f"p({part}) & q({part})"
    [nested] = felicity(parse_tree("((AND (AND p q) p) w)"), lex).readings
    assert render_formula(nested.formula) == \
        f"p({part}) & q({part}) & p({part})"
    term = "#iota{A} (lam y:A. #r #c y)"
    assert render_term(nested.term) == \
        f"#& (#& (#p ({term})) (#q ({term}))) (#p ({term}))"
    assert nested.term == normal_form(nested.source)


def _runs_out(source, fuel):
    try:
        normalize(source, fuel)
    except FuelExhausted:
        return True
    return False


def test_fuel_bounds_the_steps_of_each_reading():
    # a reading is charged the steps of its parts plus those of their
    # meeting; on the fixture trees that is what normalizing its source
    # takes
    for lex, text in _fixture_trees():
        tree = parse_tree(text)
        readings = felicity(tree, lex).readings
        most = max((len(normalize(r.source)[1]) for r in readings), default=0)
        for fuel in range(1, most + 2):
            out = any(_runs_out(r.source, fuel) for r in readings)
            v = felicity(tree, lex, fuel=fuel)
            assert (v.status == RESOURCE_LIMIT) == out, (text, fuel)


def test_a_coercion_shared_by_two_conjuncts_is_charged_once(assinatura):
    # the nested conjunction gets Id_v(iota[v](assi)) and puts it in both
    # of its conjuncts: normal order contracts that redex twice, while the
    # reading is charged the one contraction made where it was built
    tree = parse_tree("((AND (AND furou ilegivel) atrasou) (THE assinatura))")
    [r] = felicity(tree, assinatura).readings
    assert len(normalize(r.source)[1]) == 20
    assert _runs_out(r.source, 19)
    assert felicity(tree, assinatura, fuel=19).status == FELICITOUS
    assert felicity(tree, assinatura, fuel=18).status == RESOURCE_LIMIT


@pytest.mark.parametrize("text,error", [
    # (some club) takes two steps, but the tree above it cannot be typed
    ("(((some club) (defeated Leeds)) Leeds)",
     "at ε: t is not a function type"),
    # the claim of THE takes two steps too, and is held back like a reading
    ("((THE (defeated Leeds)) Leeds)", "at ε: e is not a function type"),
], ids=["reading", "the-claim"])
def test_a_type_error_outranks_running_out_of_fuel(montague, text, error):
    v = felicity(parse_tree(text), montague, fuel=1)
    assert v.status == TYPE_ERROR
    assert v.error == error


def test_a_the_claim_out_of_fuel_is_a_resource_limit(montague):
    tree = parse_tree("(THE (defeated Leeds))")
    v = felicity(tree, montague, fuel=1)
    assert v.status == RESOURCE_LIMIT
    assert v.error == "no normal form after 1 steps"
    assert felicity(tree, montague, fuel=2).status == FELICITOUS


# lexicon terms that are not normal: the principals and morphisms are
# normalized where composition takes them, and charged for it
NON_NORMAL = """\
sorts: T P Pl
pred lpl : T
pred t2 : T -> P
pred t3 : T -> Pl
pred spread_out : Pl -> t
pred voted : P -> t
word Liverpool : T = (lam x:T. x) #lpl
  morph t2 : T -> P = lam x:T. (lam y:T. #t2 y) x [flexible]
  morph t3 : T -> Pl = lam x:T. (lam y:T. #t3 y) x [flexible]
word spread_out : Pl -> t = lam x:Pl. (lam y:Pl. #spread_out y) x
word voted : P -> t = #voted
"""


@pytest.mark.parametrize("text,charge,normal_order", [
    ("(spread_out Liverpool)", 5, 5),
    # normal order copies Liverpool's redex into each conjunct; the
    # reading is charged it once
    ("((AND spread_out voted) Liverpool)", 15, 16),
    ("((AND (AND spread_out voted) spread_out) Liverpool)", 29, 32),
])
def test_lexicon_terms_that_are_not_normal(text, charge, normal_order):
    lex = load_lexicon(NON_NORMAL)
    tree = parse_tree(text)
    v = felicity(tree, lex, fuel=charge)
    assert v.status == FELICITOUS
    for r in v.readings:
        assert r.term == normal_form(r.source), text
        assert len(normalize(r.source)[1]) == normal_order, text
    assert felicity(tree, lex, fuel=charge - 1).status == RESOURCE_LIMIT


def test_a_kept_route_is_charged_its_morphism_and_its_contraction():
    # t2 takes a step to normalize and one to meet lpl; Liverpool's own
    # step is its leaf's, added where the route is used
    lex = load_lexicon(NON_NORMAL)
    felicity(parse_tree("((AND spread_out voted) Liverpool)"), lex)
    entry = lex.entry("Liverpool")
    (t2,) = (m for m in entry.morphisms if m.name == "t2")
    nf, steps = entry._kept[id(t2)]
    assert (render_term(nf), steps) == ("#t2 #lpl", 2)


# an argument past the fuel: the word takes 10 steps, THE's claim 2
SLOW_ARGUMENT = f"""\
sorts: T A
pred c : T
pred u : T -> A
pred p : A -> t
pred q : A -> t
word w : T = {"(lam x:T. x) (" * 10}#c{")" * 10}
  morph u : T -> A = #u [flexible]
word n : T -> t = lam x:T. (lam y:T. #q (#u y)) x
  morph u : T -> A = #u [flexible]
word p : A -> t = #p
word q : A -> t = #q
"""


def test_nothing_is_built_on_an_argument_past_the_fuel(monkeypatch):
    # below its steps the argument has no normal form: no route, half or
    # nested reading is built on it, and none is kept to be found at a
    # fuel that lets the argument be
    def applying(fun, arg, step):
        assert fun is not None and arg is not None
        return _apply(fun, arg, step)

    monkeypatch.setattr(composition, "_apply", applying)
    shared = load_lexicon(SLOW_ARGUMENT)
    trees = [parse_tree(f"({conj} {arg})") for arg in ("w", "(THE n)")
             for conj in ("p", "(AND p q)", "(AND (AND p q) p)",
                          "(AND p (AND q p))")]
    for fuel in range(1, 31):
        for tree in trees:
            want = felicity(tree, load_lexicon(SLOW_ARGUMENT), fuel)
            assert felicity(tree, shared, fuel) == want, (tree, fuel)
    # the last fuel lets every tree be
    assert all(felicity(tree, shared, 30).status == FELICITOUS
               for tree in trees)


# ---------------------------------------------------------------------------
# a lexicon normalizes each of its terms once, on first use, and keeps the
# result: what one tree leaves behind must not change another's verdict

def _memo_cases():
    for name in ("montague", "liverpool", "assinatura"):
        yield fixture_text(f"{name}.mgl"), [
            line for line in fixture_text(f"trees_{name}.txt").splitlines()
            if line.strip() and not line.startswith("#")]
    # terms that take steps to normalize, so a memo hit charges them
    yield NON_NORMAL, [
        "(spread_out Liverpool)", "((AND spread_out voted) Liverpool)",
        "((AND (AND spread_out voted) spread_out) Liverpool)"]
    gen = termgen.RandomCopreds(31)
    for _ in range(50):
        inst = gen.instance()
        yield inst.lexicon_text, [inst.tree_text]


def test_a_shared_lexicon_gives_a_fresh_lexicons_verdicts():
    for text, trees in _memo_cases():
        # every tree at the default fuel, then each tree at fuels 1 to 12
        runs = ([(tree, 10000) for tree in trees]
                + [(tree, fuel) for tree in trees for fuel in range(1, 13)])
        want = {run: felicity(parse_tree(run[0]), load_lexicon(text), run[1])
                for run in runs}
        for order in (runs, runs[::-1]):
            shared = load_lexicon(text)
            for tree, fuel in order:
                got = felicity(parse_tree(tree), shared, fuel)
                assert got == want[tree, fuel], (tree, fuel)



@pytest.mark.parametrize("fuel", [0, -1])
def test_fuel_below_one_is_refused_before_anything_else(fuel):
    # on a fresh lexicon and on one whose memo every fixture tree has
    # filled, for a well-typed tree and an ill-typed one
    text = fixture_text("liverpool.mgl")
    warm = load_lexicon(text)
    for line in fixture_text("trees_liverpool.txt").splitlines():
        if line.strip() and not line.startswith("#"):
            felicity(parse_tree(line), warm)
    for lex in (load_lexicon(text), warm):
        for tree in ("(voted Liverpool)", "(Liverpool voted)"):
            for judge in (compose, felicity):
                with pytest.raises(ValueError, match="^fuel must be >= 1$"):
                    judge(parse_tree(tree), lex, fuel)


@pytest.mark.parametrize("text,lookups", [
    # the 4 word leaves; the inner conjunction node tries the 6 morphisms
    # of w into A, and the outer one, at the referent type T, those 6 and
    # the implicit identity
    ("((AND (AND p q) p) w)", 4 + 6 + 7),
    # the 2 word leaves, and one application coercing w through each of
    # its 6 morphisms
    ("(p w)", 2 + 6),
])
def test_a_node_looks_up_each_lexicon_term_once(monkeypatch, text, lookups):
    normal, calls = composition._normal_form, []

    def counted_normal(*args):
        calls.append(args)
        return normal(*args)

    monkeypatch.setattr(composition, "_normal_form", counted_normal)
    v = felicity(parse_tree(text), _fan_out_lexicon(6))
    assert v.status == FELICITOUS
    # at most one lookup per leaf, and one per morphism per node
    assert len(calls) <= lookups


def test_judging_types_no_morphism_term(monkeypatch):
    # a morphism term was typed when its lexicon loaded; a judgement
    # needs only its normal form
    lex = _fan_out_lexicon(6)
    morph_terms = {id(m.term) for e in lex.entries.values()
                   for m in e.morphisms}
    typed = []
    for module in (kernel, lexicon, composition, logic, reduction):
        def counted(term, *args, _type_of=module.type_of):
            typed.append(term)
            return _type_of(term, *args)
        monkeypatch.setattr(module, "type_of", counted)
    v = felicity(parse_tree("((AND p q) w)"), lex)
    assert v.status == FELICITOUS
    assert typed
    assert not any(id(t) in morph_terms for t in typed)


def _counted_apply(monkeypatch, fun, arg):
    """The calls to composition's `_apply` of a term `== fun` to a term
    for which `arg` holds."""
    calls = []

    def counted(f, a, step):
        if f == fun and arg(a):
            calls.append(a)
        return _apply(f, a, step)

    monkeypatch.setattr(composition, "_apply", counted)
    return calls


def test_a_coerced_argument_is_built_once_per_lexicon(monkeypatch):
    # a word's coercion depends on the lexicon alone: one lexicon builds
    # `t3` applied to `#lpl`, and `f_phi` applied to the ι term of
    # assinatura, once for any number of trees
    liverpool = load_lexicon(fixture_text("liverpool.mgl"))
    town = SortRef("T")
    calls = _counted_apply(
        monkeypatch, Const("t3", Arrow(town, SortRef("Pl"))),
        lambda a: a == Const("lpl", town))
    for _ in range(50):
        v = felicity(parse_tree("(spread_out Liverpool)"), liverpool)
        assert [render_formula(r.formula) for r in v.readings] == \
            ["spread_out(t3(lpl))"]
    assert len(calls) == 1

    assinatura = load_lexicon(fixture_text("assinatura.mgl"))
    event = SortRef("v")
    calls = _counted_apply(
        monkeypatch, Const("f_phi", Arrow(event, SortRef("phi"))),
        lambda a: isinstance(a, App) and a.fun == TyApp(
            logic._LOGICAL_TERMS[logic.IOTA_NAME], event))
    for _ in range(50):
        v = felicity(parse_tree("(ilegivel (THE assinatura))"), assinatura)
        assert [render_formula(r.formula) for r in v.readings] == \
            ["ilegivel(f_phi(iota[v](assi)))"]
    assert len(calls) == 1


def test_a_replaced_morphism_misses_the_kept_route():
    # the principal term, and so the argument's normal form that keeps
    # the routes, is the same object; the morphism is not
    lex = load_lexicon(fixture_text("liverpool.mgl"))
    tree = parse_tree("(spread_out Liverpool)")
    [r] = felicity(tree, lex).readings
    assert render_formula(r.formula) == "spread_out(t3(lpl))"
    old = lex.entries["Liverpool"]
    town, place = old.principal_type, SortRef("Pl")
    lex.predicates["t4"] = Arrow(town, place)
    t3 = Morphism("t3", Const("t4", Arrow(town, place)), town, place,
                  FLEXIBLE)
    lex.entries["Liverpool"] = LexEntry(old.word, old.principal, town,
                                        old.morphisms[:3] + (t3,))
    del old
    lex.validate()
    [r] = felicity(tree, lex).readings
    assert render_formula(r.formula) == "spread_out(t4(lpl))"


def test_a_replaced_entry_misses_the_memo():
    lex = load_lexicon(fixture_text("liverpool.mgl"))
    tree = parse_tree("(spread_out Liverpool)")

    def formula():
        [r] = felicity(tree, lex).readings
        return render_formula(r.formula)

    assert formula() == "spread_out(t3(lpl))"
    old = lex.entries["Liverpool"]
    town = old.principal_type
    lex.entries["Liverpool"] = LexEntry(
        old.word, Const("everton", town), town, old.morphisms)
    assert formula() == "spread_out(t3(everton))"
    # a morphism of the same name with another term
    *kept, t3 = old.morphisms
    t4 = Morphism(t3.name, Const("t4", Arrow(t3.source, t3.target)),
                  t3.source, t3.target, t3.rigidity)
    lex.entries["Liverpool"] = LexEntry(
        old.word, old.principal, town, (*kept, t4))
    assert formula() == "spread_out(t4(lpl))"


# ---------------------------------------------------------------------------
# an entry keeps its word's leaf node and its conjunction plans

def _kept_leaf(entry):
    """The leaf node `entry` keeps, or None."""
    return (entry._kept or {}).get("leaf", (None,))[0]


def _kept_plans(entry):
    """The conjunction plans `entry` keeps, by their triples of α-keys."""
    return [k for k in entry._kept or () if isinstance(k, tuple)
            and len(k) == 3]


def test_a_replaced_entry_misses_the_kept_leaf_and_plan():
    lex = load_lexicon(fixture_text("liverpool.mgl"))
    conj = parse_tree("((AND voted won) Liverpool)")
    old = lex.entries["Liverpool"]
    assert felicity(conj, lex).status == INFELICITOUS
    assert _kept_leaf(old) is not None and _kept_plans(old)
    # the same word with every morphism flexible, and another referent
    town = old.principal_type
    lex.entries["Liverpool"] = new = LexEntry(
        old.word, Const("everton", town), town,
        tuple(Morphism(m.name, m.term, m.source, m.target, FLEXIBLE)
              for m in old.morphisms))
    assert _kept_leaf(new) is None and not _kept_plans(new)
    v = felicity(conj, lex)
    assert v.status == FELICITOUS
    assert [render_formula(r.formula) for r in v.readings] == \
        ["voted(t2(everton)) & won(t1(everton))"]
    assert _kept_leaf(new) is not _kept_leaf(old)
    assert _kept_leaf(new).alts[0].term == Const("everton", town)


SLOW_WORD = """\
sorts: T A
pred c : T
pred u : T -> A
pred p : A -> t
word w : T = (lam f:T. f) ((lam z:T. z) #c)
  morph u : T -> A = lam z:T. (lam k:T. #u k) z [flexible]
word p : A -> t = #p
"""


def test_a_leaf_past_the_fuel_is_neither_reused_nor_kept():
    # w's principal term takes 2 steps to normalize
    cases = [(tree, fuel) for tree in ("w", "(p w)", "((AND p p) w)")
             for fuel in (1, 10000, 1)]

    def fresh(tree, fuel):
        return repr(felicity(parse_tree(tree), load_lexicon(SLOW_WORD), fuel))

    lex = load_lexicon(SLOW_WORD)
    entry = lex.entries["w"]
    v = felicity(parse_tree("w"), lex, 1)
    assert v.status == RESOURCE_LIMIT
    assert _kept_leaf(entry) is None
    for tree, fuel in cases:
        assert repr(felicity(parse_tree(tree), lex, fuel)) == \
            fresh(tree, fuel), (tree, fuel)
    kept = _kept_leaf(entry)
    assert kept.alts[0].steps == 2
    # a kept node is not reused below its steps, nor replaced there
    assert felicity(parse_tree("w"), lex, 1).status == RESOURCE_LIMIT
    assert _kept_leaf(entry) is kept
    assert felicity(parse_tree("w"), lex, 2).status == FELICITOUS


@pytest.mark.parametrize("text,formula", [
    ("((AND voted voted) Liverpool)", "voted(t2(lpl)) & voted(t2(lpl))"),
    ("((AND spread_out (AND voted voted)) Liverpool)",
     "spread_out(t3(lpl)) & (voted(t2(lpl)) & voted(t2(lpl)))"),
])
def test_a_word_that_is_both_conjuncts(liverpool, text, formula):
    # one kept leaf node on both sides of a conjunction: its one reading
    # is a left half and a right half at once
    for lex in (liverpool, load_lexicon(fixture_text("liverpool.mgl"))):
        [r] = felicity(parse_tree(text), lex).readings
        assert render_formula(r.formula) == formula


RIGID_FAN_OUT = """\
sorts: T A
pred c : T
pred u0 : T -> A
pred u1 : T -> A
pred u2 : T -> A
pred u3 : T -> A
pred p : A -> t
pred q : A -> t
word w : T = #c
  morph u0 : T -> A = #u0 [rigid]
  morph u1 : T -> A = #u1 [flexible]
  morph u2 : T -> A = #u2 [rigid]
  morph u3 : T -> A = #u3 [flexible]
word p : A -> t = #p
word q : A -> t = #q
"""


@pytest.mark.parametrize("text", ["((AND p q) w)", "((AND (AND p q) p) w)",
                                  "((AND p (AND q q)) w)"])
def test_a_kept_plan_logs_its_rejections_on_every_call(text):
    tree = parse_tree(text)
    want = felicity(tree, load_lexicon(RIGID_FAN_OUT))
    assert len(want.rejection_log) >= 6
    assert len({r.reason for r in want.rejection_log}) >= 4
    lex = load_lexicon(RIGID_FAN_OUT)
    for _ in range(3):
        v = felicity(tree, lex)
        assert v.rejection_log == want.rejection_log
        assert repr(v) == repr(want)


def test_a_reading_after_its_halves_is_keyed_in_three_calls(monkeypatch):
    # a reading's normal form is `#& L` applied to R, and every reading
    # with one left half holds one `#& L`: once each half is keyed, a
    # reading's key is its own node, `#& L` and R
    key, calls, per_reading = kernel._key, [0], []

    def counted_key(*args):
        calls[0] += 1
        return key(*args)

    def counted_alpha_key(x):
        before = calls[0]
        try:
            return kernel.alpha_key(x)
        finally:
            per_reading.append(calls[0] - before)

    monkeypatch.setattr(kernel, "_key", counted_key)
    monkeypatch.setattr(composition, "alpha_key", counted_alpha_key)
    readings = felicity(parse_tree("((AND (AND p q) p) w)"),
                        _fan_out_lexicon(6)).readings
    assert len(readings) == len(per_reading) == 216
    halves = (len({id(r.term.fun.arg) for r in readings})
              + len({id(r.term.arg) for r in readings}))
    assert halves == 42
    # only a reading that holds a half not keyed before costs more
    assert len([n for n in per_reading if n > 3]) <= halves
    assert min(per_reading) == 3


# ---------------------------------------------------------------------------
# a THE claim applies its noun's normal form to the choice term by
# hereditary substitution; normal order on the same application is the
# reference for its normal form and for the steps it is charged

# nouns that take steps: one normalizes to an abstraction, one to a constant
NON_NORMAL_NOUNS = """\
sorts: T
pred p : T -> t
word abstraction : T -> t = lam x:T. (lam y:T. #p y) x
word constant : T -> t = (lam f:T -> t. f) #p
"""


def _nouns():
    for text in (fixture_text("montague.mgl"), fixture_text("liverpool.mgl"),
                 fixture_text("assinatura.mgl"), NON_NORMAL, NON_NORMAL_NOUNS):
        lex = load_lexicon(text)
        for entry in lex.entries.values():
            ty = entry.principal_type
            if isinstance(ty, Arrow) and ty.codomain == PROP:
                yield lex, entry


def test_a_the_claim_matches_normal_order_on_its_noun():
    charges = []
    for lex, entry in _nouns():
        sort = entry.principal_type.domain
        noun, trace = normalize(entry.principal)
        choice = App(TyApp(Const("iota", choice_type()), sort), noun)
        loop = _Meter(10000)
        claim = _normal_form(App(noun, choice), loop)
        hereditary = _Meter(10000)
        assert _apply(noun, choice, hereditary) == claim, entry.word
        assert hereditary.spent == loop.spent, entry.word
        charge = len(trace) + loop.spent
        tree = parse_tree(f"(THE {entry.word})")
        [r] = felicity(tree, lex).readings
        assert r.presuppositions == (to_formula(claim),), entry.word
        # the claim is charged its noun's steps and its own: one step more
        # than the reading when the noun is an abstraction
        for fuel in range(1, charge + 2):
            want = FELICITOUS if fuel >= charge else RESOURCE_LIMIT
            assert felicity(tree, lex, fuel).status == want, (entry.word, fuel)
        charges.append(charge)
    assert len(charges) == 12
    assert set(charges) == {0, 1, 2}


def test_a_the_node_over_a_leaf_noun_is_built_once_per_entry(monkeypatch):
    # over a word's kept leaf node, THE's node depends on the entry alone:
    # its claim is built for the first tree, and every later tree over the
    # same noun gets the same node, presupposition and all
    the_node, apply = composition._the_node, composition._apply
    depth, nodes, applies = [0], [], []

    def counted_the_node(*args):
        depth[0] += 1
        try:
            nodes.append(the_node(*args))
        finally:
            depth[0] -= 1
        return nodes[-1]

    def counted_apply(*args):
        if depth[0]:
            applies.append(args)
        return apply(*args)

    monkeypatch.setattr(composition, "_the_node", counted_the_node)
    monkeypatch.setattr(composition, "_apply", counted_apply)
    lex = load_lexicon(fixture_text("assinatura.mgl"))
    presups = []
    for _ in range(50):
        [r] = felicity(parse_tree("(atrasou (THE assinatura))"), lex).readings
        presups += r.presuppositions
    [r] = felicity(parse_tree("(furou (THE assinatura))"), lex).readings
    presups += r.presuppositions
    assert len(applies) == 1
    assert len(nodes) == len(presups) == 51
    assert all(node is nodes[0] for node in nodes)
    assert all(p is presups[0] for p in presups)
    assert render_formula(presups[0]) == "assi(iota[v](assi))"


def _the_cases():
    """Per lexicon text, its fixture's THE trees and `(THE w)` on each
    noun `_nouns` walks; then arguments routed through a morphism: one
    through Liverpool's declared `Id`, an abstraction, which costs one
    contraction, and through fan-out morphisms that take steps to
    normalize."""
    for name in ("montague", "liverpool", "assinatura"):
        trees = [line for line in fixture_text(f"trees_{name}.txt")
                 .splitlines() if THE_MARKER in line]
        yield fixture_text(f"{name}.mgl"), trees
    yield NON_NORMAL, []
    yield NON_NORMAL_NOUNS, []
    yield (fixture_text("liverpool.mgl")
           + "pred big : T -> t\nword big : T -> t = #big\n",
           ["(spread_out Liverpool)", "((AND big spread_out) Liverpool)",
            "((AND voted big) Liverpool)", "((AND big big) Liverpool)"])
    for kind in ("non-normal", "odd"):
        yield _fan_out_text(3, kind), ["(p w)", "((AND p q) w)"]


def test_a_kept_the_node_answers_as_a_fresh_lexicon_does_at_any_fuel():
    # fuels 1 to a tree's charge + 1, the least fuel at which it is not a
    # resource limit, ascending, then descending once its nodes are kept,
    # then the default: a kept node is reused only at or above the steps
    # its claim is charged, which for a noun that is an abstraction are
    # one more than its reading's, and a kept routed argument only at or
    # above its steps and those of its morphism and their meeting
    judged = 0
    for text, trees in _the_cases():
        lex = load_lexicon(text)
        trees = trees + [f"(THE {e.word})" for e in lex.entries.values()
                         if lexicon.is_predicate(e.principal_type)]
        for tree in map(parse_tree, trees):
            def fresh(fuel):
                return felicity(tree, load_lexicon(text), fuel)

            charge = next(fuel for fuel in count(1)
                          if fresh(fuel).status != RESOURCE_LIMIT)
            fuels = list(range(1, charge + 2))
            want = {fuel: fresh(fuel) for fuel in fuels + [10000]}
            for fuel in fuels + fuels[::-1] + [10000]:
                assert felicity(tree, lex, fuel) == want[fuel], (tree, fuel)
                judged += 1
    assert judged == 309


def test_judging_a_the_tree_normalizes_lexicon_terms_only(monkeypatch):
    # the reduction loop looks for its next redex with `_redexes`
    normal, find = composition._normal_form, reduction._redexes
    depth, inside, outside = [0], [], []

    def counted_normal(*args):
        depth[0] += 1
        try:
            return normal(*args)
        finally:
            depth[0] -= 1

    def counted_find(term, *path):
        (inside if depth[0] else outside).append(term)
        return find(term, *path)

    monkeypatch.setattr(composition, "_normal_form", counted_normal)
    monkeypatch.setattr(reduction, "_redexes", counted_find)
    # fresh lexica, so that their terms are normalized here
    cases = [(lex, text) for lex, text in _fixture_trees()
             if THE_MARKER in text]
    non_normal = load_lexicon(NON_NORMAL)
    cases += [(non_normal, "(THE spread_out)"),
              (non_normal, "(spread_out (THE spread_out))")]
    for lex, text in cases:
        v = felicity(parse_tree(text), lex)
        assert v.status not in (TYPE_ERROR, RESOURCE_LIMIT), text
    assert inside
    assert outside == []


# ---------------------------------------------------------------------------
# a conjunction plan is kept per triple of α-keys: no type is hashed field by
# field, and each rejection still prints the types its own tree holds

def test_a_shared_word_with_a_600_arrow_type_gets_a_verdict():
    lex = load_lexicon(deep_shared_lexicon(600))
    for text, formula in [("(p w)", "p(c)"), ("((AND p s) w)", "p(c) & s(c)")]:
        v = felicity(parse_tree(text), lex)
        assert v.status == FELICITOUS, text
        assert [render_formula(r.formula) for r in v.readings] == [formula]


ALPHA_VARIANT_DOMAINS = """\
sorts: S A
pred c : S
pred m0 : S -> A
pred p1 : (Pi 'a. 'a -> 'a) -> t
pred p2 : (Pi 'b. 'b -> 'b) -> t
word w : S = #c
  morph m : S -> A = #m0 [flexible]
word p1 : (Pi 'a. 'a -> 'a) -> t = #p1
word p2 : (Pi 'b. 'b -> 'b) -> t = #p2
"""


@pytest.mark.parametrize("order", [("p1", "p2"), ("p2", "p1")])
def test_alpha_variant_domains_each_print_their_own(order):
    shown = {"p1": "Pi 'a. 'a -> 'a", "p2": "Pi 'b. 'b -> 'b"}
    lex = load_lexicon(ALPHA_VARIANT_DOMAINS)
    for left, right in (order, order[::-1]):
        v = felicity(parse_tree(f"((AND {left} {right}) w)"), lex)
        assert v.status == INFELICITOUS
        assert [str(r) for r in v.rejection_log] == [
            f"'w' has no morphism from S to {shown[left]}",
            f"'w' has no morphism from S to {shown[right]}"]


# ---------------------------------------------------------------------------
# quantified functors: instantiated to their argument, then applied

POLYMORPHIC = """\
sorts: e
pred c0 : e
pred p0 : e -> t
word c : e = #c0
word p : e -> t = #p0
word idf : Pi 'a. 'a -> 'a = Lam 'a. lam x:'a. x
word app : Pi 'a. ('a -> t) -> 'a -> t = Lam 'a. lam P:'a -> t. lam x:'a. P x
"""


@pytest.mark.parametrize("text,charge", [
    ("(p (idf c))", 2),
    ("((app p) c)", 3),
    ("(idf p)", 2),
    ("((idf p) c)", 2),
    # the claim's step comes on top of normal order's 2
    ("(THE (app p))", 3),
])
def test_a_quantified_functor_is_charged_its_instantiation(text, charge):
    lex = load_lexicon(POLYMORPHIC)
    tree = parse_tree(text)
    v = felicity(tree, lex, fuel=charge)
    assert v.status == FELICITOUS
    for r in v.readings:
        assert r.term == normal_form(r.source), text
    assert felicity(tree, lex, fuel=charge - 1).status == RESOURCE_LIMIT


def test_a_quantified_constant_is_applied_as_it_stands():
    # the instance of a constant makes no redex: `_apply` leaves the type
    # application as it is, and no step is charged
    lex = load_lexicon(POLYMORPHIC + "pred q : Pi 'a. 'a -> t\n"
                                     "word q : Pi 'a. 'a -> t = #q\n")
    v = felicity(parse_tree("(q c)"), lex, fuel=1)
    assert v.status == FELICITOUS
    [r] = v.readings
    assert render_term(r.term) == "#q{e} #c0"
    assert r.term == normal_form(r.source)


# ---------------------------------------------------------------------------
# instantiation: the type arguments are read off the argument, and the
# instance is kept only if its domain is α-equal to the argument's type

CAPTURE = """\
sorts: e
pred f : Pi 'a. (Pi 'b. 'a -> 'a) -> t
pred w : Pi 'c. 'c -> 'c
pred g : Pi 'a. ('a -> (Pi 'b. 'b -> 'a)) -> t
pred v : 'z -> (Pi 'c. 'c -> 'c)
word f : Pi 'a. (Pi 'b. 'a -> 'a) -> t = #f
word w : Pi 'c. 'c -> 'c = #w
word g : Pi 'a. ('a -> (Pi 'b. 'b -> 'a)) -> t = #g
word v : 'z -> (Pi 'c. 'c -> 'c) = #v
"""


@pytest.mark.parametrize("text,error", [
    # 'a would be bound to the argument's own bound 'c
    ("(f w)", "at ε: cannot apply Pi 'a. (Pi 'b. 'a -> 'a) -> t"
              " to Pi 'c. 'c -> 'c"),
    # 'a := 'z gives 'z -> Pi 'b. 'b -> 'z, not the argument's type
    ("(g v)", "at ε: cannot apply Pi 'a. ('a -> Pi 'b. 'b -> 'a) -> t"
              " to 'z -> Pi 'c. 'c -> 'c"),
])
def test_an_instance_unlike_the_argument_is_refused(text, error):
    lex = load_lexicon(CAPTURE)
    tree = parse_tree(text)
    fun, arg = (lex.entry(str(t)).principal for t in (tree.fun, tree.arg))
    assert apply_with_coercion(fun, arg) == []
    v = felicity(tree, lex)
    assert (v.status, v.error, v.readings) == (TYPE_ERROR, error, ())


_TYPE_VARS = ("a", "b", "c")
_TYPE_SORTS = (SortRef("S"), SortRef("T"))


def _random_type(rng, depth):
    k = rng.randrange(5 if depth else 2)
    if k == 0:
        return rng.choice(_TYPE_SORTS)
    if k == 1:
        return TypeVar(rng.choice(_TYPE_VARS))
    if k == 4:
        return Forall(rng.choice(_TYPE_VARS), _random_type(rng, depth - 1))
    return Arrow(_random_type(rng, depth - 1), _random_type(rng, depth - 1))


def _renamed(ty, rng):
    """An α-variant of `ty`: each quantifier takes a name not free in its
    body."""
    if isinstance(ty, Arrow):
        return Arrow(_renamed(ty.domain, rng), _renamed(ty.codomain, rng))
    if isinstance(ty, Forall):
        body = _renamed(ty.body, rng)
        fv = free_type_vars(body) - {ty.var}
        v = rng.choice([v for v in _TYPE_VARS + ("d",) if v not in fv])
        return Forall(v, subst_type(body, ty.var, TypeVar(v)))
    return ty


def _instantiated(fty, type_args):
    for ty in type_args:
        fty = subst_type(fty.body, fty.var, ty)
    return fty


def _captured(ty, v, rep):
    """`ty` with `rep` put for the free `v` as plain text would be, so that
    a quantifier of `ty` may capture a variable of `rep`."""
    if isinstance(ty, TypeVar):
        return rep if ty.name == v else ty
    if isinstance(ty, Arrow):
        return Arrow(_captured(ty.domain, v, rep),
                     _captured(ty.codomain, v, rep))
    if isinstance(ty, Forall) and ty.var != v:
        return Forall(ty.var, _captured(ty.body, v, rep))
    return ty


def _instantiation_case(rng):
    """A functor type quantified over one or two of the pool's variables,
    and an argument type: for half the cases an α-variant of an instance
    of its domain; for a quarter the same built by substitution that may
    capture, so that it looks like an instance but need not be one; for
    the rest any type."""
    peeled = rng.sample(_TYPE_VARS, rng.randint(1, 2))
    # most domains mention every quantified variable
    domain = _random_type(rng, 3)
    while not set(peeled) <= free_type_vars(domain) and rng.random() < 0.9:
        domain = _random_type(rng, 3)
    fty = Arrow(domain, _random_type(rng, 1))
    for v in reversed(peeled):
        fty = Forall(v, fty)
    kind = rng.random()
    if kind < 0.5:
        args = [_random_type(rng, 2) for _ in peeled]
        return fty, _renamed(_instantiated(fty, args).domain, rng)
    if kind < 0.75:
        aty = domain
        for v in peeled:
            aty = _captured(aty, v, _random_type(rng, 2))
        return fty, _renamed(aty, rng)
    return fty, _random_type(rng, 3)


def _subtrees(ty):
    yield ty
    if isinstance(ty, Arrow):
        yield from _subtrees(ty.domain)
        yield from _subtrees(ty.codomain)
    elif isinstance(ty, Forall):
        yield from _subtrees(ty.body)


def _oracle_instance(fty, aty):
    """The instance whose domain is α-equal to `aty`, trying every subtree
    of `aty` for every quantified variable, or None; a variable that does
    not occur free in the domain is not determined, and admits none."""
    peeled, core = [], fty
    while isinstance(core, Forall):
        peeled.append(core.var)
        core = core.body
    if not set(peeled) <= free_type_vars(core.domain):
        return None
    for args in product(set(_subtrees(aty)), repeat=len(peeled)):
        inst = _instantiated(fty, args)
        if alpha_equiv(inst.domain, aty):
            return inst
    return None


def test_instantiation_matches_the_brute_force_oracle():
    rng = random.Random(7)
    instantiated = 0
    for _ in range(2000):
        fty, aty = _instantiation_case(rng)
        want = _oracle_instance(fty, aty)
        got = apply_with_coercion(Const("f", fty), Const("c", aty))
        assert bool(got) == (want is not None), (fty, aty)
        for term, m in got:
            assert m is None
            assert alpha_equiv(type_of(term), want.codomain)
        instantiated += bool(got)
    # both outcomes are well represented
    assert 500 < instantiated < 1000


ENDO = """\
sorts: e
pred c : e
pred g : e -> e
pred p : e -> t
pred q : e -> t
pred k : Pi 'a. 'a
word c : e = #c
word g : e -> e = #g
word p : e -> t = #p
word q : e -> t = #q
word k : Pi 'a. 'a = #k
"""


@pytest.mark.parametrize("lexicon,text,error", [
    (fixture_text("liverpool.mgl"), "(THE Liverpool)",
     "at ε: THE needs a predicate, got T"),
    # an application has no entry to route a morphism from
    (ENDO, "((AND p q) (g c))",
     "at ε: a shared argument must carry a lexical entry"),
    # a quantified functor whose body is not a function type
    (ENDO, "(k c)", "at ε: cannot apply Pi 'a. 'a to e"),
], ids=["THE-over-a-referent", "shared-application", "quantified-non-arrow"])
def test_a_tree_the_node_rules_refuse_is_a_type_error(lexicon, text, error):
    v = felicity(parse_tree(text), load_lexicon(lexicon))
    assert (v.status, v.error, v.readings) == (TYPE_ERROR, error, ())
