"""The package's public surface: every module's exports, each once, as the module's own objects."""

from __future__ import annotations

import nmesc
from nmesc import affinity, diarization, nme, numerics, testbench

MODULES = (affinity, diarization, nme, numerics, testbench)


def test_all_is_the_version_plus_every_module_export_once() -> None:
    assert len(set(nmesc.__all__)) == len(nmesc.__all__) == 58
    assert set(nmesc.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))


def test_each_export_is_its_modules_object() -> None:
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nmesc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all() -> None:
    namespace: dict = {}
    exec("from nmesc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nmesc.__all__)
