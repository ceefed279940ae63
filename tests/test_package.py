import types

import lexsem


def test_all_lists_resolvable_public_names():
    assert len(lexsem.__all__) == len(set(lexsem.__all__))
    for name in lexsem.__all__:
        assert not name.startswith("_"), name
        value = getattr(lexsem, name)
        assert not isinstance(value, types.ModuleType), name
