"""The package's export list."""

import types

import tilecast


def test_all_matches_public_names():
    # every name in __all__ resolves, and every public name the package
    # binds (submodules aside) is listed: a deleted function left in
    # __all__, or a new import left out of it, fails here
    for name in tilecast.__all__:
        assert hasattr(tilecast, name), name
    public = {name for name, value in vars(tilecast).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(tilecast.__all__) == public | {"__version__"}
    assert len(tilecast.__all__) == len(set(tilecast.__all__))
