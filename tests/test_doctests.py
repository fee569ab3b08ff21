"""Every example in the package's docstrings runs and holds."""

import doctest
import importlib
import pkgutil

import monobrick


def test_every_module_passes_its_doctests():
    names = ["monobrick"] + [
        m.name for m in pkgutil.iter_modules(monobrick.__path__, "monobrick.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    # socle_series and submodule_arcs carry examples; none may go unrun.
    assert attempted >= 3
