"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import rankbench

MODULES = sorted(
    f"rankbench.{info.name}"
    for info in pkgutil.iter_modules(rankbench.__path__)
    if info.name != "__main__"  # importing it runs the command line
)


@pytest.mark.parametrize("name", ["rankbench", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from rankbench import *", namespace)
    assert set(rankbench.__all__) <= set(namespace)
