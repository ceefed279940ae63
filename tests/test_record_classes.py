"""The record contract, checked on every record class of the package:
each class is found by scanning the modules, and built with placeholder
fields."""

import importlib
import pkgutil

import pytest

import lexsem
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
