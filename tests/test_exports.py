"""Export integrity: every name a package promises in ``__all__`` exists.

A deletion that leaves its name in some ``__all__`` breaks
``from repro.x import *`` and the documented import paths for users;
this fast-tier check fails first. It walks ``repro`` and every module
under it (``__main__`` excepted: importing it runs the CLI).
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", _module_names())
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
