"""The record contract shared by the package's immutable values: terms,
types, formulae and composition results."""

import pytest

from lexsem import (And, App, Arrow, Atom, Const, ConstRef, LexEntry, Or,
                    PROP, Quant, RESOURCE_LIMIT, Reading, SortRef, TypeVar,
                    Var, VarRef, Verdict)
from lexsem.logic import AND_NAME

E = SortRef("e")
F = Const("f", Arrow(E, PROP))
X = Var("x", E)


def test_records_of_different_classes_are_never_equal():
    assert SortRef("t") != TypeVar("t")
    assert Var("x", E) != Const("x", E)
    assert ConstRef("a") != VarRef("a")
    a = Atom(ConstRef("p"), ())
    assert And(a, a) != Or(a, a)
    assert not (And(a, a) == Or(a, a))


def test_equal_records_hash_alike():
    pairs = [
        (App(F, X), App(Const("f", Arrow(E, PROP)), Var("x", E))),
        (Quant("exists", "x", E, Atom(VarRef("x"), ())),
         Quant("exists", "x", E, Atom(VarRef("x"), ()))),
        (Reading(App(F, X), None), Reading(App(F, X), None, (), (), None)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
    assert len({App(F, X), App(F, X), App(F, Var("y", E))}) == 2
    assert App(F, X) != App(F, Var("y", E))


def test_fields_are_read_only():
    for value, field in [(App(F, X), "fun"), (E, "name"),
                         (And(Atom(ConstRef("p"), ()), Atom(ConstRef("q"), ())),
                          "left"),
                         (Verdict(RESOURCE_LIMIT), "status")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_construction_by_keyword_and_default():
    assert App(arg=X, fun=F) == App(F, X)
    v = Verdict(RESOURCE_LIMIT, error="no normal form after 1 steps")
    assert (v.status, v.readings, v.rejection_log, v.notes, v.error) == \
        (RESOURCE_LIMIT, (), (), (), "no normal form after 1 steps")
    entry = LexEntry("Liverpool", Const("lpl", E), E)
    assert entry.morphisms == ()
    assert Reading(X, None).source is None
    with pytest.raises(TypeError):
        App(F)
    with pytest.raises(TypeError):
        App(F, X, X)
    with pytest.raises(TypeError):
        App(F, arg=X, body=X)


def test_positional_match():
    match App(F, X):
        case App(Const(name, Arrow(dom, _)), Var(x, _)):
            got = (name, dom, x)
    assert got == ("f", E, "x")
    match Atom(ConstRef(AND_NAME), (X,)):
        case Atom(ConstRef(n), args):
            assert (n, args) == (AND_NAME, (X,))
    assert App.__match_args__ == ("fun", "arg")


def test_repr_names_every_field():
    assert repr(App(F, X)) == (
        "App(fun=Const(name='f', type=Arrow(domain=SortRef(name='e'),"
        " codomain=SortRef(name='t'))), arg=Var(name='x',"
        " type=SortRef(name='e')))")
    # str stays the concrete syntax
    assert str(App(F, X)) == "#f x"
