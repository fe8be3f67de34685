import importlib

import pytest

import hdqda

_MODULES = ("discriminant", "errors", "estimation", "gestim", "ingestion", "model", "pipeline", "rmt")


def _exports() -> dict[str, list[str]]:
    return {name: list(importlib.import_module("hdqda." + name).__all__) for name in _MODULES}


def test_the_package_exports_exactly_its_modules_exports():
    union = set().union(*_exports().values())
    assert set(hdqda.__all__) == union
    assert len(hdqda.__all__) == len(union)


def test_no_name_is_exported_by_two_modules():
    """A later star import would silently shadow an earlier module's name."""
    owners: dict[str, str] = {}
    for module, names in _exports().items():
        assert len(names) == len(set(names)), module
        for name in names:
            assert name not in owners, "%s exported by %s and %s" % (name, owners[name], module)
            owners[name] = module


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves_to_its_modules_object(module):
    source = importlib.import_module("hdqda." + module)
    for name in source.__all__:
        assert getattr(hdqda, name) is getattr(source, name)
