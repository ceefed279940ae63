"""The record contract, checked on every record class of the package:
each class is found by scanning the modules, and built with placeholder
fields."""

import copy
import importlib
import pickle
import pkgutil
import weakref

import pytest

import lexsem
from lexsem import (And, App, Arrow, Atom, Const, ConstRef, LexEntry,
                    SortRef, Var, VarRef, alpha_key, candidates,
                    render_formula, render_term)
from lexsem import kernel, lexicon, logic
from lexsem.kernel import record


def _record_classes():
    found = {}
    for info in pkgutil.iter_modules(lexsem.__path__):
        module = importlib.import_module(f"lexsem.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "__match_args__" in vars(value)):
                found[f"{info.name}.{value.__qualname__}"] = value
    return found


RECORDS = _record_classes()


def test_the_scan_finds_records_in_every_module():
    assert {"kernel.App", "logic.Quant", "lexicon.LexEntry",
            "reduction.TraceStep", "composition._Alt",
            "cli.CliConfig"} <= set(RECORDS)
    assert len(RECORDS) >= 33


def _fields(cls, tag):
    # equal but distinct values, one per field
    return [tuple([tag, i]) for i in range(len(cls.__match_args__))]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls = RECORDS[name]
    names = cls.__match_args__
    values = _fields(cls, "v")
    value = cls(*values)

    assert repr(value) == f"{cls.__qualname__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert [getattr(value, n) for n in names] == values

    # a class with the same name and fields is still another class
    twin = record(type(cls.__name__, (),
                       {"__annotations__": dict.fromkeys(names, "object")}))
    assert twin(*values) == twin(*values)
    assert value != twin(*values) and not value == twin(*values)
    assert value != tuple(values) and value != values[0]

    same = cls(*_fields(cls, "v"))
    assert same is not value and same == value
    assert hash(same) == hash(value)
    assert len({value, same}) == 1
    for i in range(len(names)):
        other = list(values)
        other[i] = ("w", i)
        assert cls(*other) != value

    for n in names:
        with pytest.raises(AttributeError):
            setattr(value, n, None)
        with pytest.raises(AttributeError):
            delattr(value, n)
    assert [getattr(value, n) for n in names] == values

    for copied in (copy.copy(value), copy.deepcopy(value),
                   pickle.loads(pickle.dumps(value))):
        assert copied.__class__ is cls and copied == value
    assert weakref.ref(value)() is value


# records whose nodes keep data in an instance dict: those under the node
# bases of `kernel` and `logic`, and `LexEntry`
KEEPING = {"lexicon.LexEntry"} | {
    name for name, cls in RECORDS.items() if cls.__base__ is not object}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_live_in_slots(name):
    cls = RECORDS[name]
    names = cls.__match_args__
    assert cls.__slots__[:len(names)] == names
    assert set(cls.__slots__[len(names):]) <= {"__weakref__", "__dict__"}
    value = cls(*_fields(cls, "v"))
    assert hasattr(value, "__dict__") == (name in KEEPING)
    assert not set(names) & set(getattr(value, "__dict__", {}))


def test_a_record_on_object_has_a_dict_only_if_it_keeps_data():
    def made(**attrs):
        cls = record(type("R", (), {"__annotations__": {"a": "object"},
                                    "a": 0, **attrs}))
        return cls()

    assert not hasattr(made(), "__dict__")
    assert not hasattr(made(label="text"), "__dict__")
    keeper = made(_kept=None)
    object.__setattr__(keeper, "_kept", {})
    assert vars(keeper) == {"_kept": {}} and keeper.a == 0
    for value in made(), keeper:
        assert weakref.ref(value)() is value


def _counted(monkeypatch, module, walker):
    """The nodes `module.walker` is called on, recursive calls included."""
    calls = []
    walk = getattr(module, walker)

    def counted(x, *args):
        calls.append(x)
        return walk(x, *args)
    monkeypatch.setattr(module, walker, counted)
    return calls


E = SortRef("e")
P = Const("p", Arrow(E, Arrow(E, E)))
A = Const("a", E)
TERM = App(App(P, A), Var("x", E))
FORMULA = And(Atom(ConstRef("p"), (ConstRef("a"),)), Atom(VarRef("x"), ()))


@pytest.mark.parametrize("walk, module, walker, node, kept", [
    (alpha_key, kernel, "_key", TERM, "_key"),
    (render_term, kernel, "_rt", TERM, "_ascii"),
    (render_formula, logic, "_render", FORMULA, "_ascii"),
])
def test_kept_data_lands_on_a_slotted_node_and_is_reused(
        monkeypatch, walk, module, walker, node, kept):
    node = copy.copy(node)  # a node that keeps nothing yet
    calls = _counted(monkeypatch, module, walker)
    first = walk(node)
    assert len(calls) > 1 and vars(node)[kept] is first
    del calls[:]
    assert walk(node) is first
    assert calls == [node]


def test_a_kept_entry_result_lands_in_its_dict_and_is_reused(monkeypatch):
    entry = LexEntry("w", A, E)
    calls = _counted(monkeypatch, lexicon, "_candidates")
    first = candidates(entry, E, E)
    assert len(calls) == 1 and "_kept" in vars(entry)
    assert candidates(entry, E, E) == first
    assert len(calls) == 1
