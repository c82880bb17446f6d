"""Every name that a `sparsemm` module lists in `__all__` is defined in it.

A name left in `__all__` after its definition is gone breaks
`from sparsemm.<module> import *` and misleads a reader, and no other test
would notice.
"""

import importlib
import pkgutil

import pytest

import sparsemm

MODULES = ["sparsemm"] + [
    f"sparsemm.{info.name}" for info in pkgutil.iter_modules(sparsemm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", ())
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []
