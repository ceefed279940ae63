import pytest

from lexsem import (Abs, Arrow, Const, Forall, LexEntry, Lexicon,
                    LexiconError, Morphism, PROP, SortRef, TypeVar,
                    TypingError, Var, alpha_equiv, candidates, find_redexes,
                    iota, load_lexicon, parse_term, parse_type, poly_and,
                    render_formula, render_term, save_lexicon, type_of)
from lexsem import felicity, kernel, lexicon, parse_tree
from lexsem.reduction import _built, _normal_form

from conftest import fixture_text

T = SortRef("T")
V = SortRef("v")
E = SortRef("e")
F = SortRef("f")


# ---------------------------------------------------------------------------
# loading the fixtures

def test_liverpool_fixture_shape(liverpool):
    entry = liverpool.entry("Liverpool")
    assert entry.principal_type == T
    names = [m.name for m in entry.morphisms]
    assert names == ["Id", "t1", "t2", "t3"]
    rigid = {m.name: m.rigidity for m in entry.morphisms}
    assert rigid == {"Id": "flexible", "t1": "rigid",
                     "t2": "flexible", "t3": "flexible"}
    assert entry.morphisms[1].target == SortRef("F")
    assert entry.morphisms[3].target == SortRef("Pl")


def test_assinatura_fixture_shape(assinatura):
    entry = assinatura.entry("assinatura")
    assert entry.principal_type == Arrow(V, PROP)
    assert entry.coercion_source == V
    names = [(m.name, m.rigidity) for m in entry.morphisms]
    assert names == [("Id_v", "rigid"), ("f_vphi", "flexible"),
                     ("f_phi", "flexible")]


def test_identity_detection(liverpool, assinatura):
    assert liverpool.entry("Liverpool").morphisms[0].is_identity
    assert assinatura.entry("assinatura").morphisms[0].is_identity
    assert not assinatura.entry("assinatura").morphisms[1].is_identity


def test_unknown_word(liverpool):
    with pytest.raises(LexiconError):
        liverpool.entry("Everton")


@pytest.mark.parametrize("word,shown", [
    ("Everton", "Everton"),
    ("caf\u00e9\\x00", "caf\u00e9\\x00"),
    ("\x00", "\\x00"),
    ("\x1b[31mX", "\\x1b[31mX"),
    ("a\u200bb\x7f", "a\\u200bb\\x7f"),
])
def test_unknown_word_escapes_only_what_does_not_print(liverpool, word, shown):
    with pytest.raises(LexiconError) as err:
        liverpool.entry(word)
    assert str(err.value) == f"unknown word '{shown}'"


def test_comments_and_blank_lines():
    lex = load_lexicon("# header\n\nsorts: e\n\npred p : e -> t\n"
                       "pred a0 : e\nword a : e = #a0\n")
    assert lex.entry("a").principal_type == SortRef("e")


# ---------------------------------------------------------------------------
# load errors carry line numbers

@pytest.mark.parametrize("text,fragment", [
    # term parse error inside a word line
    ("sorts: e\nword w : e = lam x:", "line 2"),
    # declared and actual type disagree
    ("sorts: e\nword w : e = lam x:e. x", "declared e"),
    # a morphism needs an arrow type
    ("sorts: e\npred p : e -> t\nword w : e -> t = lam x:e. #p x\n"
     "  morph m : e = #p [rigid]", "line 4"),
    ("sorts: e\nword w : e -> t = lam x:e. #& x x\nword w : e = #k",
     "line 2"),
    ("sorts: e\npred k : e\nword w : e = #k\nword w : e = #k",
     "already declared"),
    ("sorts: e\nword w : e -> e = lam x:e. x\n"
     "  morph m : e -> e = lam x:e. x [rigid]\n"
     "  morph m : e -> e = lam x:e. x [rigid]", "declared twice"),
    # morph line missing its rigidity tag
    ("sorts: e\nword w : e -> e = lam x:e. x\n"
     "  morph twist = lam x:e. x", "line 3"),
    ("sorts: e\n  morph stray : e -> e = lam x:e. x [rigid]",
     "preceding word"),
    # unknown sort in a type
    ("sorts: e\npred k : e\nword w : q = #k", "line 3"),
    # no individual sorts at all
    ("pred p : t -> t", "sort"),
    ("sorts: e\npred exists : e -> t", "exists"),
    ("sorts: e\nthis is not a directive", "line 2"),
])
def test_load_errors(text, fragment):
    with pytest.raises(LexiconError) as err:
        load_lexicon(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("sorts: e\npred k : e\nword w : e = #c",
     "line 3, column 14: unknown constant '#c'"),
    # a column counts in the file's line, leading whitespace included
    ("sorts: e\npred p : e -> t\nword w : e -> t = #p\n"
     "  morph m : e -> q = lam x:e. x [rigid]",
     "line 4, column 18: unknown sort 'q'"),
    ("sorts: e\n\tword w : e = lam x:e. y",
     "line 2, column 24: unbound identifier 'y'"),
    ("sorts: e\npred p : e ->",
     "line 2, column 14: expected a type, found end of input"),
    # a line that is not its directive's shape is placed by its line
    ("sorts: e 9x\n", "line 1: bad sort name '9x'"),
    ("sorts: e\npred p e -> t\n", "line 2: expected 'pred <name> : <type>'"),
    ("sorts: e\nword w e = #c\n",
     "line 2: expected 'word <name> : <type> = <term>'"),
])
def test_a_parse_error_is_placed_once_in_its_file_line(text, message):
    with pytest.raises(LexiconError) as err:
        load_lexicon(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("pred c : e\nxsorts: e\nword c : e = #c\n",
     "line 2: cannot read 'xsorts: e'"),
    ("\ufeffsorts: e\nword c : e = #c\n",
     "line 1: cannot read '\\ufeffsorts: e'"),
    # no line that cannot be read: no sort is all there is to say
    ("# xsorts: e\nsorts:\npred p : t -> t\n",
     "a lexicon needs at least one individual sort"),
])
def test_with_no_sort_the_first_unreadable_line_is_named(text, message):
    with pytest.raises(LexiconError) as err:
        load_lexicon(text)
    assert str(err.value) == message


def _morph(name, fun_type, source, target, rigidity="flexible"):
    return Morphism(name, Const(name, fun_type), source, target, rigidity)


@pytest.mark.parametrize("sorts,predicates,morphisms,message", [
    ({"t"}, {}, None, "a lexicon needs at least one individual sort"),
    ({"e"}, {"exists": Arrow(E, PROP)}, None,
     "'exists' is a logical constant"),
    ({"e"}, {}, (Morphism("m", Abs("x", E, Var("x", E)), E, E, "stiff"),),
     "word 'w': morphism m has rigidity 'stiff'"),
    ({"e", "f"}, {"m": Arrow(E, E)}, (_morph("m", Arrow(E, E), E, F),),
     "word 'w': morphism m has type e -> e, declared e -> f"),
    ({"e", "f"}, {"m": Arrow(E, F), "n": Arrow(F, E)},
     (_morph("m", Arrow(E, F), E, F), _morph("n", Arrow(F, E), F, E)),
     "word 'w': morphism n leaves from f, the entry coerces from e"),
], ids=["no-individual-sort", "logical-constant", "rigidity", "morph-type",
        "morph-source"])
def test_validate_refuses_a_hand_built_lexicon(sorts, predicates, morphisms,
                                               message):
    entries = {}
    if morphisms is not None:
        predicates = {"c": E, **predicates}
        entries["w"] = LexEntry("w", Const("c", E), E, morphisms)
    lex = Lexicon(sorts=sorts, predicates=predicates, entries=entries)
    with pytest.raises(LexiconError) as err:
        lex.validate()
    assert str(err.value) == message


def test_endomorphisms_must_be_identities():
    text = ("sorts: e\npred f : e -> e\npred k : e\n"
            "word w : e = #k\n"
            "  morph spin : e -> e = #f [rigid]\n")
    with pytest.raises(LexiconError) as err:
        load_lexicon(text)
    assert "identity" in str(err.value)


def test_morphism_source_must_match_principal():
    text = ("sorts: e s\npred f : s -> e\npred k : e\n"
            "word w : e = #k\n"
            "  morph off : s -> e = #f [flexible]\n")
    with pytest.raises(LexiconError):
        load_lexicon(text)


# ---------------------------------------------------------------------------
# candidate enumeration

def test_candidates_by_target(liverpool):
    entry = liverpool.entry("Liverpool")
    ms = candidates(entry, T, SortRef("Pl"))
    assert [m.name for m in ms] == ["t3"]
    assert str(ms[0]) == "t3 : T -> Pl [flexible]"


def test_candidates_endo_uses_declared_identity(liverpool):
    entry = liverpool.entry("Liverpool")
    ms = candidates(entry, T, T)
    assert [m.name for m in ms] == ["Id"]


def test_candidates_no_target(liverpool):
    entry = liverpool.entry("Liverpool")
    assert candidates(entry, T, SortRef("zz")) == []


def test_candidates_wrong_source(liverpool):
    entry = liverpool.entry("Liverpool")
    with pytest.raises(LexiconError) as err:
        candidates(entry, SortRef("F"), SortRef("Pl"))
    assert "no coercions from" in str(err.value)


def test_candidates_implicit_identity(montague):
    entry = montague.entry("Leeds")
    ms = candidates(entry, SortRef("e"), SortRef("e"))
    assert len(ms) == 1
    assert ms[0].rigidity == "flexible"
    assert ms[0].is_identity


# ---------------------------------------------------------------------------
# the polymorphic conjunction combinator

def test_poly_and_type():
    want = parse_type("Pi 'a. Pi 'b. ('a -> t) -> ('b -> t) -> "
                      "Pi 'c. 'c -> ('c -> 'a) -> ('c -> 'b) -> t",
                      {"t"})
    assert alpha_equiv_types(type_of(poly_and()), want)


def alpha_equiv_types(x, y):
    # compare via dummy constants
    from lexsem import Const
    return alpha_equiv(Const("_", x), Const("_", y))


def test_poly_and_is_normal():
    assert find_redexes(poly_and()) == []


def test_poly_and_value():
    from lexsem import Context, logical_constants
    ctx = Context(sorts={"t"}, constants=logical_constants())
    want = parse_term(
        "Lam 'a. Lam 'b. lam P:'a -> t. lam Q:'b -> t. Lam 'c. lam x:'c. "
        "lam f:'c -> 'a. lam g:'c -> 'b. (#& (P (f x))) (Q (g x))", ctx)
    assert alpha_equiv(poly_and(), want)


def test_poly_and_binders_and_body():
    # composition charges each conjunction POLY_AND_BINDERS steps and
    # builds its normal form as `#& (P (f x)) (Q (g x))`
    from lexsem import Abs, Context, TyAbs, logical_constants
    from lexsem.lexicon import POLY_AND_BINDERS
    body, binders = poly_and(), 0
    while isinstance(body, (Abs, TyAbs)):
        body, binders = body.body, binders + 1
    assert binders == POLY_AND_BINDERS == 8
    a, b, c = TypeVar("a"), TypeVar("b"), TypeVar("c")
    ctx = Context(sorts={"t"}, constants=logical_constants(), variables={
        "P": Arrow(a, PROP), "Q": Arrow(b, PROP), "x": c,
        "f": Arrow(c, a), "g": Arrow(c, b)})
    assert body == parse_term("#& (P (f x)) (Q (g x))", ctx)


# ---------------------------------------------------------------------------
# definite descriptions

def test_iota_builds_description(assinatura):
    entry = assinatura.entry("assinatura")
    term, presup = iota(V, entry.principal)
    assert type_of(term) == V
    assert render_formula(presup) == "assi(iota[v](assi))"
    assert render_formula(presup, "unicode") == "assi(ι[v](assi))"


def test_iota_on_plain_predicate(montague):
    term, presup = iota(SortRef("e"), montague.entry("club").principal)
    assert type_of(term) == SortRef("e")
    assert render_formula(presup) == "club(iota[e](club))"


def test_iota_sort_mismatch(assinatura):
    with pytest.raises(LexiconError):
        iota(SortRef("phi"), assinatura.entry("assinatura").principal)


# ---------------------------------------------------------------------------
# save and reload

@pytest.mark.parametrize("name", ["liverpool.mgl", "assinatura.mgl",
                                  "montague.mgl"])
def test_save_load_round_trip(name):
    first = load_lexicon(fixture_text(name))
    second = load_lexicon(save_lexicon(first))
    assert set(first.sorts) == set(second.sorts)
    assert set(first.predicates) == set(second.predicates)
    assert sorted(first.entries) == sorted(second.entries)
    for a in first.entries.values():
        b = second.entry(a.word)
        assert alpha_equiv(a.principal, b.principal)
        assert [(m.name, m.rigidity) for m in a.morphisms] == \
            [(m.name, m.rigidity) for m in b.morphisms]
        for ma, mb in zip(a.morphisms, b.morphisms):
            assert alpha_equiv(ma.term, mb.term)


def test_validate_catches_hand_built_duplicates(liverpool):
    entry = liverpool.entry("Liverpool")
    dup = entry.morphisms[1]
    bad = LexEntry(entry.word, entry.principal, entry.principal_type,
                   entry.morphisms + (Morphism(dup.name, dup.term, dup.source,
                                               dup.target, "flexible"),))
    entries = dict(liverpool.entries)
    entries["Liverpool"] = bad
    lex = Lexicon(sorts=set(liverpool.sorts),
                  predicates=dict(liverpool.predicates), entries=entries)
    with pytest.raises(LexiconError):
        lex.validate()


@pytest.mark.parametrize("text, message", [
    ("sorts: e\npred k : e\nword w : e = " + "(" * 3000 + "#k" + ")" * 3000,
     "line 3: nested too deeply"),
    ("sorts: e\npred p : " + "e -> " * 3000 + "t\n",
     "line 2: nested too deeply"),
], ids=["term", "type"])
def test_too_deep_a_line_is_named_by_its_number(text, message):
    with pytest.raises(LexiconError) as err:
        load_lexicon(text)
    assert str(err.value) == message


def test_a_morph_line_attaches_to_the_last_word_across_preds():
    lex = load_lexicon("sorts: T F\npred c : T\npred f : T -> F\n"
                       "word w : T = #c\npred g : T -> F\n"
                       "  morph m1 : T -> F = #f [rigid]\n"
                       "  morph m2 : T -> F = #g [flexible]\n"
                       "word v : T = #c\n")
    assert [m.name for m in lex.entry("w").morphisms] == ["m1", "m2"]
    assert lex.entry("v").morphisms == ()


def test_the_context_follows_the_declarations():
    lex = load_lexicon("sorts: e\npred c : e\nword w : e = #c\n")
    e = SortRef("e")
    # a context read before the lexicon grows is not kept
    assert "d" not in lex.context.constants
    lex.predicates["d"] = e
    lex.entries["v"] = LexEntry("v", Const("d", e), e)
    lex.validate()
    lex.entries["u"] = LexEntry("u", Const("k", e), e)
    with pytest.raises(TypingError, match="unknown constant '#k'"):
        lex.validate()
    lex.sorts.add("f")
    assert "f" in lex.context.sorts


def test_interleaved_pred_and_word_lines_load_in_linear_work(monkeypatch):
    # three predicates and two words per entry, each word after the
    # predicates it uses: the context is built once and grows in place,
    # so each declared type's sorts are checked a bounded number of times
    n = 1000
    lines = ["sorts: S"]
    for i in range(n):
        lines += [f"pred a{i} : S", f"pred p{i} : S -> t",
                  f"pred q{i} : S -> t", f"word w{i} : S = #a{i}",
                  f"word n{i} : S -> t = lam x:S. #p{i} x"]
    built, checks = [], []
    check_sorts = kernel._check_sorts

    class CountedContext(kernel.Context):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counted_check_sorts(*args):
        checks.append(args)
        return check_sorts(*args)

    monkeypatch.setattr(lexicon, "Context", CountedContext)
    monkeypatch.setattr(kernel, "_check_sorts", counted_check_sorts)
    lex = load_lexicon("\n".join(lines) + "\n")
    assert len(lex.entries) == 2 * n
    assert len(built) <= 1
    # linear in what is declared: a few calls per constant's type, and
    # one per binder's
    constants = len(lex.predicates) + len(lexicon._LOGICAL_CONSTANTS)
    assert len(checks) <= 3 * constants + n
    assert lex.context.constants.keys() == \
        {*lex.predicates, *lexicon._LOGICAL_CONSTANTS}


def test_a_word_s_morph_lines_build_its_entry_once(monkeypatch):
    # the entry is built after the word's last morph line, not once per
    # line with its morphisms copied, which is quadratic in their number
    n = 2000
    text = ("sorts: T A\npred c : T\npred f : T -> A\nword w : T = #c\n"
            + "".join(f"  morph u{i} : T -> A = #f [flexible]\n"
                      for i in range(n))
            + "word v : T = #c\n")
    built = []

    def counted(*args):
        built.append(args[0])
        return LexEntry(*args)

    monkeypatch.setattr(lexicon, "LexEntry", counted)
    lex = load_lexicon(text)
    assert built == ["w", "v"]
    assert [m.name for m in lex.entry("w").morphisms] == \
        [f"u{i}" for i in range(n)]
    assert lex.entry("v").morphisms == ()


def test_a_loaded_term_is_typed_once(monkeypatch):
    # the loader checks each word and morph term with the type its parse
    # found; a hand-built entry is still typed by validate()
    n = 2000
    text = ("sorts: T A\npred c : T\npred f : T -> A\npred p : A -> t\n"
            + "".join(f"word w{i} : T = #c\n"
                      f"  morph u : T -> A = lam x:T. #f x [flexible]\n"
                      f"word p{i} : A -> t = lam y:A. #p y\n"
                      for i in range(n // 2)))
    depth, typed = [0], []
    type_of_ = kernel._type_of

    def counted(t, *args):
        if depth[0] == 0:
            typed.append(t)
        depth[0] += 1
        try:
            return type_of_(t, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernel, "_type_of", counted)
    lex = load_lexicon(text)
    assert len(lex.entries) == n
    terms = [t for e in lex.entries.values()
             for t in (e.principal, *(m.term for m in e.morphisms))]
    assert len(typed) == len(terms) == 3 * n // 2
    assert all(t is u for t, u in zip(typed, terms))
    typed.clear()
    lex.validate()
    assert len(typed) == len(terms)


def test_a_word_named_like_a_tree_marker_is_refused():
    # a tree reads THE and AND as its markers, so no tree reaches such a
    # word: the loader and validate() refuse it, naming it
    for name in ("THE", "AND"):
        text = f"sorts: e\npred c : e\nword {name} : e = #c\n"
        message = f"^word '{name}': "
        with pytest.raises(LexiconError, match=message):
            load_lexicon(text)
        lex = load_lexicon(text.replace(f"word {name}", "word w"))
        lex.entries[name] = LexEntry(name, lex.entry("w").principal,
                                     SortRef("e"))
        with pytest.raises(LexiconError, match=message):
            lex.validate()


def test_a_term_keeps_its_normal_form_once_it_has_one():
    lex = load_lexicon("sorts: T\npred p : T -> t\nword w : T -> t ="
                       " lam x:T. (lam y:T. (lam z:T. #p z) y) x\n")
    entry = lex.entry("w")

    def normal(e, fuel):
        # a normal form kept by the one rule for lexicon-determined data
        return lexicon._kept(e, "nf", fuel, _built, fuel, 0,
                             lambda step: _normal_form(e.principal, step))

    # out of fuel: nothing is kept
    assert normal(entry, 1)[0] is None
    assert "nf" not in entry._kept
    nf, steps = normal(entry, 10)
    assert (render_term(nf), steps) == ("lam x:T. #p x", 2)
    assert entry._kept["nf"] == (nf, 2)
    # a smaller fuel still gets no normal form, and another lexicon
    # holding the same entry finds the kept one
    assert normal(entry, 1) == (None, 2)
    other = Lexicon(sorts=set(lex.sorts), predicates=dict(lex.predicates),
                    entries={"w": entry})
    assert normal(other.entry("w"), 10)[0] is nf


# ---------------------------------------------------------------------------
# candidates kept on the entry

def _names(ms):
    return [m.name for m in ms]


def test_a_replaced_entry_misses_the_kept_candidates(liverpool):
    entry = liverpool.entry("Liverpool")
    pl = SortRef("Pl")
    assert _names(candidates(entry, T, pl)) == ["t3"]
    extra = Morphism("t9", entry.morphisms[3].term, T, pl, "flexible")
    replaced = LexEntry(entry.word, entry.principal, entry.principal_type,
                        entry.morphisms + (extra,))
    assert _names(candidates(replaced, T, pl)) == ["t3", "t9"]
    assert _names(candidates(entry, T, pl)) == ["t3"]


def test_a_returned_list_is_the_callers_own(liverpool):
    entry = liverpool.entry("Liverpool")
    ms = candidates(entry, T, T)
    ms.clear()
    ms.append(None)
    assert _names(candidates(entry, T, T)) == ["Id"]
    assert candidates(entry, T, T) is not candidates(entry, T, T)


def test_the_no_coercions_message_is_the_same_on_every_call(liverpool):
    entry = liverpool.entry("Liverpool")
    messages = []
    for _ in range(3):
        with pytest.raises(LexiconError) as err:
            candidates(entry, SortRef("F"), SortRef("Pl"))
        messages.append(str(err.value))
    assert messages == ["'Liverpool' has no coercions from F"] * 3


def test_the_implicit_identity_is_built_once_per_entry_and_type():
    lex = load_lexicon(fixture_text("montague.mgl"))
    e = SortRef("e")
    leeds, club = lex.entry("Leeds"), lex.entry("club")
    (ident,) = candidates(leeds, e, e)
    assert candidates(leeds, SortRef("e"), SortRef("e"))[0] is ident
    # its normal form is built with the route through it, which the entry
    # keeps by the identity's id, so a later use finds it
    tree = parse_tree("((AND club club) Leeds)")
    felicity(tree, lex)
    nf, steps = leeds._kept[id(ident)]
    assert (render_term(nf), steps) == ("#Leeds", 1)
    felicity(tree, lex)
    assert leeds._kept[id(candidates(leeds, e, e)[0])][0] is nf
    # each entry, and each type, has its own
    assert candidates(club, e, e)[0] is not ident
    eet = Arrow(e, Arrow(e, PROP))
    (rel_ident,) = candidates(lex.entry("defeated"), eet, eet)
    assert rel_ident.source == eet and rel_ident is not ident


def test_the_implicit_identity_is_spelled_as_the_entry_is():
    # asked in two spellings of one type, in either order, on a lexicon
    # that keeps its answers or on a fresh one, the identity is the same
    text = ("sorts: e\n"
            "word f : Pi 'a. 'a -> 'a = Lam 'a. lam x:'a. x\n")
    spellings = [Forall(v, Arrow(TypeVar(v), TypeVar(v))) for v in "ab"]
    answers = []
    for order in (spellings, spellings[::-1]):
        shared = load_lexicon(text).entry("f")
        for ty in order:
            answers.append(candidates(shared, ty, ty))
            answers.append(candidates(load_lexicon(text).entry("f"), ty, ty))
    assert all(a == answers[0] for a in answers)
    [ident] = answers[0]
    assert ident.source == spellings[0]


def _fresh_candidates(entry, frm, to):
    """What `candidates` answers, worked out anew on every call."""
    if not alpha_equiv(frm, entry.coercion_source):
        return f"'{entry.word}' has no coercions from {frm}"
    out = [m for m in entry.morphisms if alpha_equiv(m.target, to)]
    if alpha_equiv(frm, to) and not any(m.is_identity for m in out):
        out.append(Morphism("id", Abs("x", frm, Var("x", frm)), frm, frm,
                            "flexible"))
    return out


@pytest.mark.parametrize("name", ["liverpool.mgl", "assinatura.mgl",
                                  "montague.mgl", "fanout.mgl"])
def test_kept_candidates_answer_as_a_fresh_lexicon_does(name):
    def queries(lex):
        types = [SortRef(s) for s in sorted(lex.sorts)]
        types += list(lex.predicates.values())
        for e in lex.entries.values():
            types += [e.principal_type]
            types += [Arrow(m.source, m.target) for m in e.morphisms]
        return [(e, frm, to) for e in lex.entries.values()
                for frm in types for to in types]

    def answers(qs):
        out = []
        for entry, frm, to in qs:
            try:
                out.append(candidates(entry, frm, to))
            except LexiconError as err:
                out.append(str(err))
        return out

    kept, fresh = (load_lexicon(fixture_text(name)) for _ in range(2))
    qs, fresh_qs = queries(kept), queries(fresh)
    assert len(qs) > 200
    want = [_fresh_candidates(*q) for q in qs]
    # forward, then backward once everything is kept
    assert answers(qs) == want
    assert answers(qs[::-1]) == want[::-1]
    # a fresh lexicon asked backward first
    assert answers(fresh_qs[::-1]) == want[::-1]
    assert answers(fresh_qs) == want
