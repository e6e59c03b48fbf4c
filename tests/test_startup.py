"""What a command loads: `import mfmkit` loads no submodule, and each
command imports only the modules it runs.

Each check runs in a fresh interpreter, since the test process itself has
imported every module already.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfmkit
from mfmkit import cli
from mfmkit import consistency as cc
from mfmkit import mapping

SRC = str(Path(mfmkit.__file__).resolve().parents[1])

#: Modules that only some commands run.
ON_USE = ("mfmkit.behavior", "mfmkit.sfc", "mfmkit.exchange", "mfmkit.fixture",
          "mfmkit.mapping")

_NAMESPACE = """
import importlib, json, sys
import mfmkit
loaded = sorted(m for m in sys.modules if m.startswith("mfmkit."))
homes = {}
for name in mfmkit.__all__:
    value = getattr(mfmkit, name)
    home = importlib.import_module(value.__module__)
    homes[name] = getattr(home, name) is value
listed = sorted(set(mfmkit.__all__) - set(dir(mfmkit)))
try:
    mfmkit.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
star = {}
exec("from mfmkit import *", star)
print(json.dumps({"loaded": loaded, "homes": homes, "unlisted": listed,
                  "unknown": unknown, "star": sorted(set(mfmkit.__all__) - set(star))}))
"""

_COMMAND = """
import contextlib, io, json, sys
from mfmkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in sys.modules if m.startswith("mfmkit."))}))
"""

_COMPILES = """
import json, sys
compiled = []
def hook(event, args):
    if event == "compile" and not str(args[1]).endswith(".py"):
        frame = sys._getframe(1)
        while frame.f_code.co_name != "<module>":
            frame = frame.f_back
        compiled.append(frame.f_globals["__name__"])
sys.addaudithook(hook)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({"mfmkit": sum(name.startswith("mfmkit.") for name in compiled)}))
"""


def _fresh(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH", "")])))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("startup") / "demo"
    assert cli.main(["init-example", str(target)]) == 0
    return target


def test_import_mfmkit_loads_no_submodule_and_resolves_every_name():
    found = _fresh(_NAMESPACE)
    assert found["loaded"] == []
    assert found["homes"] == {name: True for name in mfmkit.__all__}
    assert found["unlisted"] == []
    assert found["unknown"] == "AttributeError"
    assert found["star"] == []


@pytest.mark.parametrize("argv, skipped", [
    (("link-check", "model.aml"), ON_USE),
    (("complete-check", "model.aml", "--stage", "control_hmi_eng"), ON_USE),
    (("report", "model.aml"), ON_USE),
    (("validate", "model.aml"), ON_USE[:4]),
], ids=["link-check", "complete-check", "report", "validate"])
def test_command_loads_only_what_it_runs(demo, argv, skipped):
    found = _fresh(_COMMAND, *(str(demo / a) if a.endswith(".aml") else a for a in argv))
    assert found["code"] == 0
    assert sorted(set(skipped) & set(found["loaded"])) == []


def test_cli_keeps_its_module_attributes():
    assert cli.mapping is mapping
    assert cli.cc is cc
    assert cli.mapping.default_table() == mapping.default_table()
    with pytest.raises(AttributeError):
        cli.no_such_module


# The code compiled while a module body of mfmkit runs, other than the source
# files: one __init__ per record class (records.record), one __new__ per
# NamedTuple and, where a module's annotations are strings (model's are),
# one typing.ForwardRef per NamedTuple field. From Python 3.13 on,
# dataclass() compiles one more unit per class even when asked for no
# method: one per record, and one for caex_io.ExternalInterface on the
# command path.
#   mfmkit.cli: 30 records (model 25, consistency 4, xmlio 1); 7 NamedTuples
#     (caex_io 6, whose fields are types, and model's _Located, whose 5 are
#     strings): 30 + 7 + 5 = 42.
#   mfmkit.behavior, mfmkit.sfc: 37 records (model 25, behavior 7, sfc 4,
#     xmlio 1); _Located: 37 + 1 + 5 = 43.
@pytest.mark.parametrize("modules, compiled, dataclasses", [
    (("mfmkit.cli",), 42, 31),
    (("mfmkit.behavior", "mfmkit.sfc"), 43, 37),
], ids=["cli", "behavior+sfc"])
def test_import_compiles_one_function_per_record_class(modules, compiled, dataclasses):
    extra = dataclasses if sys.version_info >= (3, 13) else 0
    assert _fresh(_COMPILES, *modules) == {"mfmkit": compiled + extra}
