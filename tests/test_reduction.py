import gc
import random

import pytest

from lexsem import (Abs, App, Arrow, Const, Context, FuelExhausted, PROP,
                    SortRef, TyAbs, TyApp, TypeVar, TypingError, Var,
                    alpha_equiv, find_redexes, free_vars, normal_form,
                    normalize, parse_term, reduce_at, reduce_step,
                    render_term, render_trace, type_of)
from lexsem.kernel import _apply
from lexsem.reduction import _Meter

import termgen

E = SortRef("e")
ID_E = Abs("x", E, Var("x", E))
K = Const("k", E)
POLY_ID = TyAbs("a", Abs("x", TypeVar("a"), Var("x", TypeVar("a"))))


def test_find_redexes_empty_on_normal_form():
    assert find_redexes(K) == []
    assert find_redexes(ID_E) == []
    pred = Const("p", Arrow(type_of(ID_E), PROP))
    assert find_redexes(App(pred, ID_E)) == []


def test_find_redexes_leftmost_outermost_first():
    # ((lam x. x) k) applied twice: the outer redex comes first
    inner = App(ID_E, K)
    t = App(Abs("y", E, inner), K)
    redexes = find_redexes(t)
    assert redexes[0] == ((), "beta")
    assert ((0, 0), "beta") in redexes


def test_find_redexes_type_beta():
    t = TyApp(POLY_ID, E)
    assert find_redexes(t) == [((), "type-beta")]


def test_reduce_at_beta():
    t = App(ID_E, K)
    assert reduce_at(t, ()) == K


def test_reduce_at_nested_path():
    t = Abs("y", E, App(ID_E, Var("y", E)))
    out = reduce_at(t, (0,))
    assert out == Abs("y", E, Var("y", E))


def test_reduce_at_bad_path():
    with pytest.raises(Exception):
        reduce_at(K, (0,))


def test_reduce_step_none_on_normal():
    assert reduce_step(K) is None


def test_reduce_step_returns_rule_and_path():
    t = App(TyApp(POLY_ID, E), K)
    t2, path, rule = reduce_step(t)
    assert rule == "type-beta"
    assert path == (0,)
    assert t2 == App(Abs("x", E, Var("x", E)), K)


def test_free_vars_and_find_redexes_leave_no_reference_cycles():
    # a walker written as a closure that calls itself is a cycle, left
    # to the cyclic collector after every call
    t = App(Abs("y", E, App(ID_E, Var("y", E))), Var("z", E))
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            free_vars(t)
            find_redexes(t)
            reduce_step(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_normal_order_finds_the_first_of_find_redexes():
    for t in POPULATION:
        redexes, step = find_redexes(t), reduce_step(t)
        first = redexes[0] if redexes else None
        assert (step[1:] if step else None) == first


def test_normalize_simple():
    nf, trace = normalize(App(ID_E, K))
    assert nf == K
    assert len(trace) == 1


def test_normalize_type_beta_then_beta():
    nf, trace = normalize(App(TyApp(POLY_ID, E), K))
    assert nf == K
    assert [s.rule for s in trace.steps] == ["type-beta", "beta"]


def test_normalize_preserves_normal_input():
    nf, trace = normalize(ID_E)
    assert nf == ID_E
    assert len(trace) == 0


def test_normalize_fuel_validation():
    with pytest.raises(ValueError):
        normalize(K, fuel=0)
    with pytest.raises(ValueError):
        normalize(K, strategy="innermost")
    with pytest.raises(ValueError):
        normalize(K, strategy="random")


def test_normalize_fuel_exhaustion():
    t = App(Abs("y", E, App(ID_E, Var("y", E))), App(ID_E, K))
    with pytest.raises(FuelExhausted):
        normalize(t, fuel=1)


def test_trace_rendering_format():
    t = App(Abs("y", E, App(ID_E, Var("y", E))), K)
    _, trace = normalize(t)
    lines = render_trace(trace).splitlines()
    assert lines[0] == f"1 beta at ε ⇒ {render_term(App(ID_E, K))}"
    assert lines[1] == "2 beta at ε ⇒ #k"


def test_trace_paths_are_dotted():
    # the redex sits under fun.fun of an application spine
    p = Const("p", type_of(ID_E))
    t = App(p, App(Abs("y", E, Var("y", E)), K))
    _, trace = normalize(t)
    assert "at 1 ⇒" in render_trace(trace)
    deep = Abs("z", E, App(p, App(ID_E, Var("z", E))))
    _, trace2 = normalize(deep)
    assert "at 0.1 ⇒" in render_trace(trace2)


def test_random_strategy_agrees():
    g = termgen.RandomTerms(3)
    for t in g.population(80):
        left, _ = normalize(t)
        rand, _ = normalize(t, strategy="random", rng=random.Random(99))
        assert alpha_equiv(left, rand)


def test_subject_reduction_sample():
    g = termgen.RandomTerms(17)
    for t in g.population(120):
        before = type_of(t, g.ctx)
        nf, _ = normalize(t)
        assert alpha_equiv(type_of(nf), before)


def test_reduction_inside_binders():
    t = parse_term("lam y:e. (lam x:e. x) y",
                   termgen.base_context())
    nf, trace = normalize(t)
    assert alpha_equiv(nf, ID_E)
    assert trace.steps[0].path == (0,)


# ---------------------------------------------------------------------------
# the one-pass normalizer against the stepper

def _outcome(fn, term, fuel):
    try:
        return fn(term, fuel)
    except FuelExhausted as err:
        return FuelExhausted, str(err)


def _stepped(term, fuel):
    return normalize(term, fuel=fuel)[0]


POPULATION = termgen.RandomTerms(11).population(1000)


def test_normal_form_is_the_steppers_result():
    for t in POPULATION:
        assert normal_form(t) == normalize(t)[0], render_term(t)


def test_normal_form_spends_fuel_like_the_stepper():
    exhausted = 0
    for t in POPULATION:
        steps = len(normalize(t)[1])
        assert normal_form(t, fuel=max(steps, 1)) == normalize(t)[0]
        if steps > 1:
            want = _outcome(_stepped, t, steps - 1)
            assert _outcome(normal_form, t, steps - 1) == want
            exhausted += want[0] is FuelExhausted
    assert exhausted > 0


def test_normal_form_under_binders_and_type_applications():
    t = App(Abs("y", E, App(ID_E, Var("y", E))), App(TyApp(POLY_ID, E), K))
    assert normal_form(t) == normalize(t)[0] == K
    stuck = Abs("z", E, App(Const("p", type_of(ID_E)), App(ID_E, Var("z", E))))
    assert normal_form(stuck) == normalize(stuck)[0]


def test_hereditary_application_reaches_the_normal_form():
    # `_apply` takes normal parts and contracts only the redexes the
    # application makes, yet lands on normal order's normal form
    gen = termgen.RandomTerms(12)
    applied = 0
    for f in POPULATION:
        ty = type_of(f)
        if isinstance(ty, Arrow):
            a = gen.term(ty.domain, 3, [])
            out = _apply(normal_form(f), normal_form(a), _Meter(10**6))
            assert out == normal_form(App(f, a)), render_term(App(f, a))
            applied += 1
    assert applied > 100


def test_hereditary_application_contracts_the_redexes_it_makes():
    # F lands at the head of F (lam x:e. #p x), which then puts #k under
    # #p: three contractions, each made where the one before it landed
    ctx = Context(sorts={"e"}, constants={"p": Arrow(E, PROP), "k": E})
    f = parse_term("lam F:(e -> t) -> t. F (lam x:e. #p x)", ctx)
    a = parse_term("lam Q:e -> t. Q #k", ctx)
    meter = _Meter(3)
    assert _apply(f, a, meter) == normal_form(App(f, a)) == \
        parse_term("#p #k", ctx)
    assert meter.spent == 3 == len(normalize(App(f, a))[1])
    with pytest.raises(FuelExhausted):
        _apply(f, a, _Meter(2))


def test_normal_form_fuel_validation():
    with pytest.raises(ValueError):
        normal_form(K, fuel=0)
    with pytest.raises(FuelExhausted, match="after 1 steps"):
        normal_form(App(Abs("y", E, App(ID_E, Var("y", E))), K), fuel=1)


# ---------------------------------------------------------------------------
# the entry check: the one type check reduction makes

R = Const("r", PROP)
ILL_TYPED = [
    # an ill-typed argument that normal order discards
    App(Abs("y", E, K), App(K, K)),
    # a well-typed argument at the wrong type, also discarded
    App(Abs("y", E, K), R),
    # an ill-typed redex under a binder
    Abs("z", E, App(ID_E, R)),
    # an ill-typed type application, with no redex at all
    TyApp(K, E),
]


@pytest.mark.parametrize("term", ILL_TYPED, ids=render_term)
def test_entry_check_rejects_ill_typed_input(term):
    with pytest.raises(TypingError) as stepped:
        normalize(term)
    with pytest.raises(TypingError) as one_pass:
        normal_form(term)
    assert str(stepped.value) == str(one_pass.value)
    # the check comes before the fuel is spent or even validated
    with pytest.raises(TypingError):
        normalize(term, fuel=0)
    with pytest.raises(TypingError):
        normal_form(term, fuel=0)


def test_reduce_at_trusts_its_input():
    # no step re-checks types: the entry check above is the only one
    assert reduce_at(App(Abs("y", E, K), R), ()) == K


# ---------------------------------------------------------------------------
# redexes under redexes

def test_find_redexes_and_reduce_at_on_nested_redexes():
    ee = Arrow(E, E)
    # (lam f. lam y. f y) (lam x. x) k: the head redex sits at 0, and its
    # function holds no redex of its own
    t = App(App(Abs("f", ee, Abs("y", E, App(Var("f", ee), Var("y", E)))),
                ID_E), K)
    assert find_redexes(t) == [((0,), "beta")]
    with pytest.raises(Exception, match="no redex"):
        reduce_at(t, ())
    once = reduce_at(t, (0,))
    assert once == App(Abs("y", E, App(ID_E, Var("y", E))), K)
    assert find_redexes(once) == [((), "beta"), ((0, 0), "beta")]
    assert reduce_at(once, (0, 0)) == App(Abs("y", E, Var("y", E)), K)
    assert reduce_at(once, ()) == App(ID_E, K)
    # Lam a. Lam b. lam x:a. x, applied to two types: type-beta at 0 first
    poly = TyAbs("a", TyAbs("b", Abs("x", TypeVar("a"),
                                     Var("x", TypeVar("a")))))
    tt = App(TyApp(TyApp(poly, E), PROP), K)
    assert find_redexes(tt) == [((0, 0), "type-beta")]
    with pytest.raises(Exception, match="no redex"):
        reduce_at(tt, (0,))
    step = reduce_at(tt, (0, 0))
    assert step == App(TyApp(TyAbs("b", ID_E), PROP), K)
    assert find_redexes(step) == [((0,), "type-beta")]
    assert reduce_at(step, (0,)) == App(ID_E, K)
    # a type application of a redex, and a redex in a type abstraction
    inner = TyAbs("a", App(ID_E, K))
    assert find_redexes(TyApp(inner, E)) == [((), "type-beta"),
                                             ((0, 0), "beta")]
    assert reduce_at(TyApp(inner, E), (0, 0)) == TyApp(TyAbs("a", K), E)
    assert reduce_at(TyApp(inner, E), ()) == App(ID_E, K)
