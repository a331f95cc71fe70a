"""The package's public surface: every module's exports, each once, as the module's own objects,
and the README's library quickstart, run as written."""

from __future__ import annotations

import re
from pathlib import Path

import nmesc
from nmesc import affinity, diarization, nme, numerics, testbench

MODULES = (affinity, diarization, nme, numerics, testbench)


def test_all_is_the_version_plus_every_module_export_once() -> None:
    assert len(set(nmesc.__all__)) == len(nmesc.__all__) == 55
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


def test_readme_quickstart_runs_as_written(capsys) -> None:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    exec(block, {})
    thresholds, accuracy = capsys.readouterr().out.splitlines()
    _, k_hat = thresholds.split()
    assert (k_hat, accuracy) == ("4", "1.0")
