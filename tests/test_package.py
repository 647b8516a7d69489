import importlib

import wavecirc as w


def test_every_export_resolves_to_its_module():
    # a name left in the table after its function went fails here, not
    # only when someone touches it
    for module, names in w._EXPORTS.items():
        mod = importlib.import_module(f"wavecirc.{module}")
        for name in names:
            assert getattr(w, name) is getattr(mod, name)
    assert sorted(w.__all__) == sorted(
        name for names in w._EXPORTS.values() for name in names)
    assert set(w.__all__) <= set(dir(w))
