"""The public surface: each module's ``__all__`` alone declares what ``lfvdw`` exports."""

from __future__ import annotations

import lfvdw

# the modules lfvdw/__init__.py star-imports
MODULES = (lfvdw.cavity, lfvdw.config, lfvdw.errors, lfvdw.green, lfvdw.oracle,
           lfvdw.potentials, lfvdw.quadrature, lfvdw.response)


def test_each_exported_name_comes_from_one_module():
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            # a later star-import would silently shadow the earlier one
            assert name not in owner, f"{name} in {owner[name].__name__} and {module.__name__}"
            owner[name] = module
    assert len(lfvdw.__all__) == len(set(lfvdw.__all__))
    assert sorted(lfvdw.__all__) == sorted(["__version__", *owner])
    for name, module in owner.items():
        assert getattr(lfvdw, name) is getattr(module, name)
