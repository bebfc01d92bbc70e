import importlib
import types

import mvmodal

SUBMODULES = ("algebras", "formulas", "kripke", "decision", "pcp", "bridges",
              "necessitation")


def test_package_all_is_the_compatibility_boundary():
    names = mvmodal.__all__
    assert len(names) == len(set(names))
    # exactly the names the package imports: every other public attribute
    # is a submodule
    public = {name for name, value in vars(mvmodal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
    namespace: dict = {}
    exec("from mvmodal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    # each name resolves to the object its home submodule exports
    homes = [importlib.import_module(f"mvmodal.{m}") for m in SUBMODULES]
    for name in names:
        owners = [m for m in homes if name in m.__all__]
        assert owners, name
        assert all(getattr(m, name) is getattr(mvmodal, name) for m in owners)
