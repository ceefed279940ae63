import sys

import pytest

from lexsem import (App, Arrow, CompositionError, Const, FELICITOUS,
                    FuelExhausted, LexEntry, Leaf, Morphism, Node, PROP,
                    ParseError, RESOURCE_LIMIT, Rejection, SortRef, TYPE_ERROR,
                    alpha_equiv, alpha_key, apply_with_coercion, compose,
                    felicity, load_lexicon, normal_form, normalize,
                    parse_tree, poly_and, quantifier_type, render_formula,
                    type_of)

import termgen
from conftest import fixture_text

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


def _fan_out_lexicon(m):
    """A word with `m` flexible morphisms into its predicates' sort."""
    preds = "".join(f"pred u{i} : T -> A\n" for i in range(m))
    morphs = "".join(f"  morph u{i} : T -> A = #u{i} [flexible]\n"
                     for i in range(m))
    return load_lexicon(
        f"sorts: T A\npred c : T\n{preds}pred p : A -> t\npred q : A -> t\n"
        f"word w : T = #c\n{morphs}word p : A -> t = #p\n"
        f"word q : A -> t = #q\n")


def _normal_form_cases():
    yield from _fixture_cases()
    liverpool = load_lexicon(fixture_text("liverpool.mgl"))
    for depth in range(2, 13):
        yield liverpool, _nested_and(depth)
    for m in range(1, 7):
        # conjunction depth 2: m ** 3 readings
        yield _fan_out_lexicon(m), "((AND (AND p q) p) w)"


def test_readings_are_normal_forms_of_their_sources():
    readings = 0
    for lex, text in _normal_form_cases():
        for r in felicity(parse_tree(text), lex).readings:
            nf = normal_form(r.source)
            assert r.term == nf, text
            assert alpha_key(r.term) == alpha_key(nf), text
            readings += 1
    assert readings >= 500


def _runs_out(source, fuel):
    try:
        normalize(source, fuel)
    except FuelExhausted:
        return True
    return False


def test_fuel_bounds_the_steps_of_each_reading():
    # a reading is charged the steps of its parts plus those of their
    # meeting; on the fixture trees that is what normalizing its source
    # takes, so --format trace never runs out where the verdict did not
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
