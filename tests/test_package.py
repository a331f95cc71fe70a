"""The package's public surface: every module's exports, each once, as the module's own objects,
and the README's library quickstart, run as written."""

from __future__ import annotations

import re
from pathlib import Path

import nmesc
from nmesc import affinity, cli, diarization, nme, numerics, testbench

MODULES = (affinity, diarization, nme, numerics, testbench)


def test_all_is_the_version_plus_every_module_export_once() -> None:
    assert len(set(nmesc.__all__)) == len(nmesc.__all__) == 40
    assert set(nmesc.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))


def test_each_export_is_its_modules_object() -> None:
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nmesc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_cli_reports_every_exported_error(monkeypatch, capsys) -> None:
    # cli.main turns ValueError and NoConvergenceError into exit 1; an exported error outside both fails here.
    exports = map(vars(nmesc).get, nmesc.__all__)
    errors = [obj for obj in exports if isinstance(obj, type) and issubclass(obj, Exception)]
    assert errors
    for error in errors:
        assert issubclass(error, (ValueError, nmesc.NoConvergenceError)), error.__name__

        def fail(path):
            raise error("bad input")

        monkeypatch.setattr(cli, "load_embeddings", fail)
        assert cli.main(["cluster", "--embeddings", "in.jsonl", "--out", "out.rttm"]) == 1
        assert capsys.readouterr().err == "error: bad input\n"


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
