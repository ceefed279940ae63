import collections.abc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsem import (Abs, App, Arrow, Const, Context, Forall, PROP, ParseError,
                    SortRef, TyAbs, TyApp, TypeVar, TypingError, Var,
                    alpha_equiv, alpha_key, choice_type, felicity,
                    free_type_vars, free_vars, fresh_name, load_lexicon,
                    parse_term, parse_tree, parse_type, quantifier_type,
                    reduce_at, render_term, render_type, subst_term,
                    subst_type, type_of)
from lexsem import kernel
from lexsem.kernel import _apply, is_term, is_type
from lexsem.reduction import _Meter

import termgen

E = SortRef("e")


def ctx(**constants):
    return Context(sorts={"e", "s"}, constants=constants)


# ---------------------------------------------------------------------------
# types and contexts

def test_prop_is_a_sort_ref():
    assert PROP == SortRef("t")


def test_context_always_knows_t():
    c = Context(sorts={"e"}, constants={})
    assert "t" in c.sorts


def test_context_rejects_name_collisions():
    with pytest.raises(TypingError):
        Context(sorts={"e"}, constants={"c": E}, variables={"c": E})


def test_context_rejects_unknown_sort_in_constant():
    with pytest.raises(TypingError):
        Context(sorts={"e"}, constants={"c": SortRef("nope")})


def test_parse_type_right_associative():
    t = parse_type("e -> e -> t", {"e"})
    assert t == Arrow(E, Arrow(E, PROP))


def test_parse_type_parens_override():
    t = parse_type("(e -> e) -> t", {"e"})
    assert t == Arrow(Arrow(E, E), PROP)


def test_parse_type_pi_binds_loosest():
    t = parse_type("Pi 'a. 'a -> t", {"e"})
    assert t == Forall("a", Arrow(TypeVar("a"), PROP))


def test_parse_type_unknown_sort():
    with pytest.raises(ParseError) as err:
        parse_type("e -> q", {"e"})
    assert "q" in str(err.value)


def test_parse_type_reads_the_sort_set_in_place():
    # a copy of the set would iterate it: a lexicon with n sorts would
    # load in O(n) per type
    class Sorts(collections.abc.Set):
        iterated = 0

        def __init__(self, names):
            self.names = frozenset(names)

        def __contains__(self, name):
            return name in self.names

        def __iter__(self):
            Sorts.iterated += 1
            return iter(self.names)

        def __len__(self):
            return len(self.names)

    assert parse_type("e -> t", Sorts({"e"})) == Arrow(E, PROP)
    assert Sorts.iterated == 0


def test_render_type_round_trip():
    for src in ["e", "e -> t", "(e -> t) -> (e -> t) -> t",
                "Pi 'a. ('a -> t) -> 'a",
                "Pi 'a. Pi 'b. ('a -> t) -> ('b -> t) -> Pi 'c. 'c -> ('c -> 'a) -> ('c -> 'b) -> t"]:
        ty = parse_type(src, {"e"})
        assert parse_type(render_type(ty), {"e"}) == ty


def test_render_type_unicode():
    ty = parse_type("Pi 'a. ('a -> t) -> 'a", {"e"})
    assert render_type(ty, "unicode") == "Πa. (a→t)→a"


# ---------------------------------------------------------------------------
# terms: parsing and rendering

def test_parse_term_application_left_assoc():
    c = ctx(f=Arrow(E, Arrow(E, PROP)), a=E, b=E)
    t = parse_term("#f #a #b", c)
    assert t == App(App(Const("f", Arrow(E, Arrow(E, PROP))), Const("a", E)),
                    Const("b", E))


def test_parse_term_unbound_identifier():
    with pytest.raises(ParseError):
        parse_term("x", ctx())


def test_parse_term_unknown_constant():
    with pytest.raises(ParseError):
        parse_term("#missing", ctx())


def test_parse_term_reserved_binder_name():
    with pytest.raises(ParseError):
        parse_term("lam lam:e. x", ctx())


def test_parse_term_type_application():
    c = ctx(q=Forall("a", Arrow(TypeVar("a"), PROP)))
    t = parse_term("lam x:e. #q{e} x", c)
    assert isinstance(t.body.fun, TyApp)
    assert t.body.fun.arg_type == E


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_term("lam x:e. (#& x", ctx())
    assert err.value.line == 1
    assert err.value.col > 1


@pytest.mark.parametrize("parse, text", [
    (parse_term, "(" * 1000 + "#a" + ")" * 1000),
    (parse_term, "lam x:e. " * 3000 + "#a"),
    (parse_type, "(" * 3000 + "e" + ")" * 3000),
    (parse_type, "e -> " * 5000 + "e"),
], ids=["term-parens", "term-binders", "type-parens", "type-arrows"])
def test_too_deep_a_nesting_is_a_parse_error(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text, ctx(a=E))
    assert str(err.value) == "nested too deeply"
    assert (err.value.line, err.value.col) == (None, None)


def test_parse_error_positions_count_lines_and_characters():
    # a column counts characters, tabs and carriage returns one each
    for text, line, col in [("lam x:e.\n  #missing", 2, 3),
                            ("lam x:e.\r\n\t#missing", 2, 2),
                            ("lam x:\u00e9. x", 1, 7),
                            ("lam x:e.\n\n", 3, 1)]:
        with pytest.raises(ParseError) as err:
            parse_term(text, ctx())
        assert (err.value.line, err.value.col) == (line, col), text


def test_render_term_parenthesizes_reparseably():
    c = ctx(p=Arrow(E, PROP), a=E)
    cases = [
        "lam x:e. #p x",
        "(lam x:e. x) #a",
        "lam f:e -> e. lam x:e. f (f x)",
        "Lam 'a. lam x:'a. x",
        "(Lam 'a. lam x:'a. x){e} #a",
    ]
    for src in cases:
        t = parse_term(src, c)
        again = parse_term(render_term(t), c)
        assert alpha_equiv(t, again)


def test_render_term_unicode_style():
    c = ctx(p=Arrow(E, PROP))
    t = parse_term("Lam 'a. lam x:'a. x", c)
    assert render_term(t, "unicode") == "Λa. λx^a. x"
    u = parse_term("lam x:e. #p x", c)
    assert render_term(u, "unicode") == "λx^e. p x"


# ---------------------------------------------------------------------------
# free variables and alpha-equivalence

def test_free_vars_shadowing():
    t = parse_term("lam x:e. x", ctx())
    assert free_vars(t) == {}
    u = App(Abs("x", E, Var("x", E)), Var("y", E))
    assert free_vars(u) == {"y": E}


def test_free_type_vars_of_term():
    t = Abs("x", TypeVar("a"), Var("x", TypeVar("a")))
    assert free_type_vars(t) == {"a"}
    assert free_type_vars(TyAbs("a", t)) == set()


def test_fresh_name_avoids():
    assert fresh_name("x", {"x", "x1"}) not in {"x", "x1"}
    assert fresh_name("y", set()) == "y"


def test_alpha_equiv_binders():
    a = parse_term("lam x:e. lam y:e. x", ctx())
    b = parse_term("lam u:e. lam v:e. u", ctx())
    c_ = parse_term("lam u:e. lam v:e. v", ctx())
    assert alpha_equiv(a, b)
    assert not alpha_equiv(a, c_)


def test_alpha_equiv_type_binders():
    a = parse_term("Lam 'a. lam x:'a. x", ctx())
    b = parse_term("Lam 'b. lam x:'b. x", ctx())
    assert alpha_equiv(a, b)


def test_alpha_equiv_distinguishes_const_and_var():
    assert not alpha_equiv(Const("a", E), Var("a", E))


def test_alpha_equiv_free_vars_by_name():
    assert alpha_equiv(Var("x", E), Var("x", E))
    assert not alpha_equiv(Var("x", E), Var("y", E))


# ---------------------------------------------------------------------------
# substitution

def test_subst_term_capture_avoidance():
    # (lam y:e. x y)[x := y] must rename the binder
    body = Abs("y", E, App(Var("x", Arrow(E, E)), Var("y", E)))
    out = subst_term(body, "x", Var("y", Arrow(E, E)))
    assert isinstance(out, Abs)
    assert out.var != "y"
    assert free_vars(out) == {"y": Arrow(E, E)}


def test_beta_step_renames_a_type_binder_the_argument_needs():
    # (lam z:e. Lam 'b. lam w:'b. z) ((lam q:'b. #c) v): the argument's
    # free type variable 'b must not be captured by the body's Lam 'b
    c = Context(sorts={"e"}, constants={"c": E}, variables={"v": TypeVar("b")})
    term = parse_term(
        "(lam z:e. Lam 'b. lam w:'b. z) ((lam q:'b. #c) v)", c)
    out = reduce_at(term, ())
    assert isinstance(out, TyAbs) and out.var != "b"
    assert out.body.var_type == TypeVar(out.var)
    assert out.body.body == term.arg
    assert free_type_vars(out) == {"b"}
    assert subst_term(term.fun.body, "z", term.arg) == out


def test_subst_term_checks_value_type():
    with pytest.raises(TypingError):
        subst_term(Var("x", E), "x", Const("r", PROP))


def test_subst_term_shadowed_occurrences_stay():
    t = Abs("x", E, Var("x", E))
    out = subst_term(App(t, Var("x", E)), "x", Const("k", E))
    assert out == App(t, Const("k", E))


def test_subst_type_in_types():
    ty = Forall("a", Arrow(TypeVar("a"), TypeVar("b")))
    out = subst_type(ty, "b", E)
    assert out == Forall("a", Arrow(TypeVar("a"), E))
    # bound occurrences are untouched
    assert subst_type(ty, "a", E) == ty


def test_subst_type_capture_avoidance():
    # substituting 'a into Pi b. a -> b must not capture under b
    ty = Forall("b", Arrow(TypeVar("a"), TypeVar("b")))
    out = subst_type(ty, "a", TypeVar("b"))
    assert isinstance(out, Forall)
    assert out.var != "b"
    assert out.body.domain == TypeVar("b")


def test_subst_type_capture_avoidance_under_type_abstraction():
    # the term-level twin of the case above: Lam b. x:('a -> 'b)
    t = TyAbs("b", Var("x", Arrow(TypeVar("a"), TypeVar("b"))))
    out = subst_type(t, "a", TypeVar("b"))
    assert isinstance(out, TyAbs)
    assert out.var != "b"
    assert out.body.type == Arrow(TypeVar("b"), TypeVar(out.var))


def test_subst_type_stops_at_its_own_type_abstraction():
    t = TyAbs("a", Var("x", Arrow(TypeVar("a"), TypeVar("b"))))
    assert subst_type(t, "a", E) is t


def test_subst_type_rewrites_annotations():
    t = Abs("x", TypeVar("a"), Var("x", TypeVar("a")))
    out = subst_type(t, "a", E)
    assert out == Abs("x", E, Var("x", E))


def _subterms(t):
    yield t
    for name in t.__match_args__:
        child = getattr(t, name)
        if is_term(child):
            yield from _subterms(child)


def test_substitution_returns_what_it_leaves_alone():
    k = Const("k", E)
    shared = 0
    for t in termgen.RandomTerms(31).population(200):
        # nothing to substitute: the very same term comes back
        assert subst_term(t, "nowhere", k) is t
        assert subst_type(t, "nowhere", E) is t
        ty = type_of(t)
        assert subst_type(ty, "nowhere", E) is ty
        # a variable free on one side of an application only: the other
        # side comes back as it was
        for u in _subterms(t):
            if not isinstance(u, App):
                continue
            only = set(free_vars(u.arg)) - set(free_vars(u.fun))
            for x in sorted(only):
                out = subst_term(u, x, Var(x + "_", free_vars(u.arg)[x]))
                assert out.fun is u.fun and out.arg is not u.arg
                shared += 1
    assert shared > 30


def test_a_beta_step_keeps_the_text_of_what_it_leaves_alone():
    c = ctx(p=Arrow(E, Arrow(E, PROP)), k=E)
    t = parse_term("(lam y:e. #p ((lam z:e. z) #k) y) #k", c)
    render_term(t)
    untouched = t.fun.body.fun.arg    # (lam z:e. z) #k holds no y
    assert untouched._ascii == "(lam z:e. z) #k"
    out = reduce_at(t, ())
    assert out.fun.arg is untouched
    assert render_term(out) == "#p ((lam z:e. z) #k) #k"
    # a hereditary step shares it too, and its own result is normal
    f = parse_term("lam y:e. #p (#q #k) y", ctx(p=Arrow(E, Arrow(E, PROP)),
                                              q=Arrow(E, E), k=E))
    render_term(f)
    out = _apply(f, Const("k", E), _Meter(1))
    assert out.fun.arg is f.body.fun.arg and out.fun.arg._ascii == "#q #k"


# ---------------------------------------------------------------------------
# typing

def test_type_of_application_mismatch():
    f = Const("p", Arrow(E, PROP))
    with pytest.raises(TypingError):
        type_of(App(f, Const("r", PROP)))


def test_type_of_type_application():
    poly = TyAbs("a", Abs("x", TypeVar("a"), Var("x", TypeVar("a"))))
    assert type_of(poly) == Forall("a", Arrow(TypeVar("a"), TypeVar("a")))
    assert type_of(TyApp(poly, E)) == Arrow(E, E)


def test_type_of_vacuous_quantification_allowed():
    t = TyAbs("a", Const("k", E))
    assert type_of(t) == Forall("a", E)


def test_tyabs_side_condition():
    # Lam 'a over a body whose free variable mentions 'a is rejected
    bad = TyAbs("a", Var("y", TypeVar("a")))
    with pytest.raises(TypingError):
        type_of(bad)
    # the same body under a binder for y is fine
    good = Abs("y", TypeVar("a"), TyAbs("b", Var("y", TypeVar("a"))))
    assert type_of(good) == Arrow(TypeVar("a"), Forall("b", TypeVar("a")))


def test_type_of_checks_context_declarations():
    c = ctx(k=E)
    with pytest.raises(TypingError):
        type_of(Const("k", PROP), c)
    assert type_of(Const("k", E), c) == E


def test_type_of_free_variable_consistency():
    t = App(App(Const("f", Arrow(E, Arrow(PROP, E))), Var("x", E)),
            Var("x", PROP))
    with pytest.raises(TypingError):
        type_of(t)


# ---------------------------------------------------------------------------
# generated populations

def test_generated_terms_typecheck():
    g = termgen.RandomTerms(7)
    for t in g.population(150):
        ty = type_of(t, g.ctx)
        assert ty is not None


def test_parse_render_round_trip_on_population():
    g = termgen.RandomTerms(31)
    for t in g.population(150):
        src = render_term(t)
        again = parse_term(src, g.ctx)
        assert alpha_equiv(t, again), src


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_alpha_equiv_is_reflexive_on_random_terms(seed):
    t = termgen.RandomTerms(seed).closed_term()
    assert alpha_equiv(t, t)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_alpha_equiv_is_symmetric(s1, s2):
    a = termgen.RandomTerms(s1).closed_term()
    b = termgen.RandomTerms(s2).closed_term()
    assert alpha_equiv(a, b) == alpha_equiv(b, a)


# ---------------------------------------------------------------------------
# canonical keys

def _pick(rng, old, pool, free):
    """`old` or a name from `pool` that is not free where it will bind."""
    new = rng.choice((old,) + pool)
    return old if new in free else new


def _rename_type(ty, rng):
    """An alpha-equivalent copy whose binders draw from a tiny name pool."""
    match ty:
        case Arrow(d, c):
            return Arrow(_rename_type(d, rng), _rename_type(c, rng))
        case Forall(v, b):
            b = _rename_type(b, rng)
            n = _pick(rng, v, ("a", "b"), free_type_vars(b) - {v})
            return Forall(n, subst_type(b, v, TypeVar(n)))
    return ty


def _rename(t, rng):
    """An alpha-equivalent copy of a term; the small pools make binders
    shadow each other, and capture-avoiding substitution keeps it sound."""
    match t:
        case Var(n, ty):
            return Var(n, _rename_type(ty, rng))
        case Const(n, ty):
            return Const(n, _rename_type(ty, rng))
        case App(f, a):
            return App(_rename(f, rng), _rename(a, rng))
        case TyApp(f, ty):
            return TyApp(_rename(f, rng), _rename_type(ty, rng))
        case Abs(x, ty, b):
            ty, b = _rename_type(ty, rng), _rename(b, rng)
            n = _pick(rng, x, ("x", "y"), set(free_vars(b)) - {x})
            return Abs(n, ty, subst_term(b, x, Var(n, ty)))
        case TyAbs(v, b):
            b = _rename(b, rng)
            n = _pick(rng, v, ("a", "b"), free_type_vars(b) - {v})
            return TyAbs(n, subst_type(b, v, TypeVar(n)))


def test_alpha_key_equal_on_renamed_copies():
    rng = random.Random(5)
    renamed = 0
    for t in termgen.RandomTerms(11).population(300):
        copy = _rename(t, rng)
        renamed += copy != t
        assert alpha_key(copy) == alpha_key(t), render_term(t)
    assert renamed > 100
    for ty in (choice_type(), quantifier_type(),
               parse_type("Pi 'a. Pi 'b. ('a -> 'b) -> Pi 'a. 'a", {"e"})):
        copy = _rename_type(ty, rng)
        assert alpha_key(copy) == alpha_key(ty)


def _unshared(x):
    """A copy of a type or term that shares no node with it, so it keeps
    nothing that `x` or its parts have kept."""
    if not (is_type(x) or is_term(x)):
        return x
    return type(x)(*(_unshared(getattr(x, f)) for f in x.__match_args__))


def test_a_kept_key_does_not_depend_on_where_it_was_made():
    # a body keyed under its binder, where the bound variable is an
    # index, keeps nothing that answers for it alone, where it is free,
    # and the other way round
    rng = random.Random(17)
    binders = [t for t in termgen.RandomTerms(17).population(200)
               if isinstance(t, Abs)]
    binders += [ty for ty in (_poly_type(rng, 4) for _ in range(100))
                if isinstance(ty, Forall)]
    binders += [parse_term(s, ctx()) for s in (
        "Lam 'a. lam x:'a. x", "Lam 'a. Lam 'a. lam x:'a. x",
        "Lam 'a. Lam 'b. lam f:'a -> 'b. lam x:'a. f x")]
    assert len(binders) > 50
    for body_first in (False, True):
        for x in binders:
            x = _unshared(x)
            want = alpha_key(_unshared(x)), alpha_key(_unshared(x.body))
            if body_first:
                assert alpha_key(x.body) == want[1], str(x)
            assert alpha_key(x) == want[0], str(x)
            assert alpha_key(x.body) == want[1], str(x)
            assert alpha_key(x) == want[0], str(x)


def test_render_term_keeps_each_style_apart():
    terms = termgen.RandomTerms(19).population(100)
    for first, then in (("ascii", "unicode"), ("unicode", "ascii")):
        for t in map(_unshared, terms):
            want = {s: render_term(_unshared(t), s) for s in (first, then)}
            assert want[first] != want[then] or isinstance(t, (Var, Const))
            assert render_term(t, first) == want[first]
            assert render_term(t, then) == want[then]
            assert render_term(t, first) == want[first]


def test_alpha_key_shadowing():
    a = parse_term("lam x:e. lam x:e. x", ctx())
    b = parse_term("lam y:e. lam z:e. z", ctx())
    c_ = parse_term("lam y:e. lam z:e. y", ctx())
    assert alpha_key(a) == alpha_key(b) != alpha_key(c_)
    ta = parse_term("Lam 'a. Lam 'a. lam x:'a. x", ctx())
    tb = parse_term("Lam 'b. Lam 'c. lam x:'c. x", ctx())
    tc = parse_term("Lam 'b. Lam 'c. lam x:'b. x", ctx())
    assert alpha_key(ta) == alpha_key(tb) != alpha_key(tc)


@pytest.mark.parametrize("a,b", [
    (Var("x", E), Var("y", E)),
    (Const("a", E), Const("b", E)),
    (Const("a", E), Var("a", E)),
    (Var("x", E), Var("x", SortRef("s"))),
    (Abs("x", E, Var("x", E)), Abs("x", SortRef("s"), Var("x", E))),
    (Abs("x", E, Var("x", E)), Abs("x", E, Var("y", E))),
    (TypeVar("a"), TypeVar("b")),
    (Forall("a", TypeVar("a")), Forall("a", TypeVar("b"))),
    (TyApp(Const("c", choice_type()), E),
     TyApp(Const("c", choice_type()), SortRef("s"))),
])
def test_alpha_key_differs_on_free_names_and_annotations(a, b):
    assert alpha_key(a) != alpha_key(b)
    assert not alpha_equiv(a, b)


# alpha_equiv on types must agree with their keys everywhere

def _poly_type(rng, depth):
    """A type over one sort whose quantifiers and type variables draw from
    a two-name pool, so binders shadow each other and variables occur
    both bound and free."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice((E, TypeVar("a"), TypeVar("b")))
    if r < 0.65:
        return Arrow(_poly_type(rng, depth - 1), _poly_type(rng, depth - 1))
    return Forall(rng.choice("ab"), _poly_type(rng, depth - 1))


@pytest.mark.parametrize("a,b,want", [
    ("Pi 'a. Pi 'a. 'a", "Pi 'b. Pi 'c. 'c", True),
    ("Pi 'a. Pi 'a. 'a", "Pi 'b. Pi 'c. 'b", False),
    ("Pi 'a. 'b", "Pi 'b. 'b", False),
    ("Pi 'a. 'a -> 'b", "Pi 'c. 'c -> 'b", True),
    ("Pi 'a. 'a -> 'b", "Pi 'b. 'b -> 'b", False),
    ("e", "'e", False),
    ("Pi 'a. e", "Pi 'b. 'e", False),
])
def test_alpha_equiv_on_hand_picked_types(a, b, want):
    a, b = parse_type(a, {"e"}), parse_type(b, {"e"})
    assert (alpha_key(a) == alpha_key(b)) == want
    assert alpha_equiv(a, b) == alpha_equiv(b, a) == want


def test_alpha_equiv_on_types_agrees_with_alpha_key():
    rng = random.Random(7)
    gen = termgen.RandomTerms(13)
    pairs = []
    for _ in range(400):
        pairs.append((gen.type(3), gen.type(3)))
        a = _poly_type(rng, 4)
        pairs += [(a, _poly_type(rng, 4)), (a, _rename_type(a, rng))]
    renamed = 0
    for a, b in pairs:
        same = alpha_key(a) == alpha_key(b)
        assert alpha_equiv(a, b) == alpha_equiv(b, a) == same, \
            (render_type(a), render_type(b))
        renamed += same and a != b
    assert renamed > 50


def test_alpha_key_of_a_type_never_equals_a_term_key():
    terms = termgen.RandomTerms(3).population(200)
    term_keys = {alpha_key(t) for t in terms}
    type_keys = {alpha_key(type_of(t)) for t in terms}
    type_keys |= {alpha_key(x) for x in (TypeVar("a"), E, PROP)}
    assert alpha_key(TypeVar("a")) != alpha_key(Var("a", TypeVar("a")))
    assert not term_keys & type_keys


# ---------------------------------------------------------------------------
# a term that shares its parts is walked as a graph

DUP = """\
sorts: e
pred c : e
pred pair : e -> e -> e
pred ok : e -> t
word c : e = #c
word ok : e -> t = #ok
word dup : e -> e = lam x:e. (#pair x) x
"""


def _nodes(t) -> int:
    """The distinct term nodes of `t`."""
    seen, todo = set(), [t]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            todo += [getattr(x, f) for f in ("fun", "arg", "body")
                     if is_term(getattr(x, f, None))]
    return len(seen)


def test_free_vars_walks_a_shared_node_once(monkeypatch):
    # `(ok (dup (dup ... c)))` reads as a term of 2^n leaves over 2n + 4
    # distinct nodes; walked as a tree, judging it never ends
    walk, visits = kernel._free_vars, [0]

    def counted(*args):
        visits[0] += 1
        if visits[0] > 100_000:
            raise AssertionError("free_vars walks a shared term as a tree")
        return walk(*args)

    monkeypatch.setattr(kernel, "_free_vars", counted)
    n = 30
    tree = "(ok " + "(dup " * n + "c" + ")" * (n + 1)
    [r] = felicity(parse_tree(tree), load_lexicon(DUP)).readings
    visits[0] = 0
    assert free_vars(r.term) == {}
    assert visits[0] <= 3 * _nodes(r.term)
