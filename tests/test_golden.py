"""Byte-level regression pins: canonical files, tables and structured CLI output.

The committed digests in `data/golden_digests.json` are the sha256 of
serialize(from_model(m)), export_table(m) and export_table(m,
missing_only=True) for the T-junction fixture and for random models of seeds
0-19, plus the structured stdout of validate, link-check, complete-check and
report on the init-example demo set. Any change to those bytes is a format
change and must be deliberate. The `parse` digests pin the reader: the
sha256 of repr(parse(data)) for the files of the same models and of one
3200-component sized_model. The `import` digests pin the table merge: the
sha256 of the merged model's file plus its violations, for seeded random
tables over the fixture, random models of seeds 0-19 and sized_model(40).
The tables mix element, entry, parameter, list, cross-reference, missing and
malformed paths, valid and invalid values, new, existing and unusable
document ids, and unmapped components. Regenerate the file with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from generators import random_model, sized_model  # noqa: E402

import mfmkit  # noqa: E402
from mfmkit import caex_io, exchange, fixture  # noqa: E402
from mfmkit import model as mm  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"

SEEDS = range(20)
SIZED = 3200
IMPORT_SIZED = 40
IMPORT_TABLES = 4  # tables per fixture and sized model; one per random model

CLI_COMMANDS = {
    "validate": ("validate", "model.aml"),
    "link-check": ("link-check", "model.aml"),
    "complete-check": ("complete-check", "model.aml", "--stage", "control_hmi_eng"),
    "report": ("report", "model.aml"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digests(m) -> dict[str, str]:
    return {
        "serialize": _sha(caex_io.serialize(caex_io.from_model(m))),
        "export_table": _sha(exchange.export_table(m)),
        "export_table_missing": _sha(exchange.export_table(m, missing_only=True)),
    }


def parse_digest(m) -> str:
    return _sha(repr(caex_io.parse(caex_io.serialize(caex_io.from_model(m)))).encode("utf-8"))


def parse_digests() -> dict[str, str]:
    digests = {"tjunction": parse_digest(fixture.tjunction_model())}
    for seed in SEEDS:
        digests[f"random-{seed}"] = parse_digest(random_model(seed))
    digests[f"sized-{SIZED}"] = parse_digest(sized_model(SIZED))
    return digests


_VALUES = ("", "", "", "plain", "(1,2,3)", "(0,1,1)", "(-5,2,9)", "(1,2)", "sensor", "actuator",
           "waiting", "out", "output", "bogus", "0.25", "-1", "1_0", "7", "07", "%I4.4",
           "%Q1.0", 'a,b\n"c"', "bad\x01", "SFC", "BOOL")
_PARAMETERS = ("logical_address", "component_path", "position", "kind", "latency",
               "direction", "priority", "category", "colour", "name", "id", "",
               "main_dimensions", "min_corner", "data_type", "variable_name",
               "controller_type", "server_path")


def _import_row(rng: random.Random, m, elements: list[str]) -> tuple[str, ...]:
    mid = m.id
    kind = rng.choices(
        ("element", "parameter", "list", "cross_ref", "missing", "malformed"),
        (12, 1, 1, 1, 2, 1))[0]
    if kind == "element":
        path = rng.choice(elements)
    elif kind == "parameter":
        path = f"{rng.choice(elements)}/{rng.choice(_PARAMETERS) or 'x'}"
    elif kind == "list":
        path = f"{mid}/{rng.choice(('components', 'control/io_mapping', 'documents'))}"
    elif kind == "cross_ref":
        path = f"{mid}/cross_refs/{rng.randint(0, 2)}"
    elif kind == "missing":
        path = rng.choice((
            f"{mid}/components/ghost{rng.randint(0, 2)}",
            f"{mid}/control/io_mapping/{len(m.control.io_mapping) + rng.randint(0, 2)}",
            f"{mid}/control/variables/i_ghost", f"{mid}/documents/new-{rng.randint(0, 3)}",
            "elsewhere/components/c0"))
    else:
        path = rng.choice(("", f"{mid}//x", f"{mid}/components/a b", f"{mid}/io_mapping/00"))
    found = mm.resolve(m, path) if kind == "element" else None
    own = [name for name, _value, _unit in mm.param_rows(mm.spec_of(found), found)] if found else []
    if isinstance(found, mm.Component) and rng.random() < 0.4:
        parameter = "logical_address"
    elif own and rng.random() < 0.6:
        parameter = rng.choice(own)
    else:
        parameter = rng.choice(_PARAMETERS)
    if parameter == "component_path" and rng.random() < 0.7:
        value = rng.choice([f"{mid}/components/{c.name}" for c in m.components] + [f"{mid}/ghost"])
    else:
        value = rng.choice(_VALUES)
    doc = rng.choice(("",) * 6 + tuple(d.id for d in m.documents)
                     + tuple(f"new-{k}" for k in range(4)) + ("bad id", "x/y", ".."))
    doc_path = rng.choice(("", "", f"//srv/{rng.randint(0, 2)}"))
    return path, parameter, value, "", doc, doc_path


def import_table_for(m, seed: int) -> bytes:
    """A seeded random table over `m` (see the module docstring)."""
    rng = random.Random(f"import-{m.id}-{seed}")
    elements = [path for _spec, path, _node in mm.walk(m)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(exchange.HEADER)
    writer.writerows(_import_row(rng, m, elements) for _ in range(rng.randint(40, 120)))
    return buffer.getvalue().encode("utf-8")


def import_digest(m, seed: int) -> str:
    merged, violations = exchange.import_table(m, import_table_for(m, seed))
    found = json.dumps([dataclasses.astuple(v) for v in violations], ensure_ascii=False)
    return _sha(caex_io.serialize(caex_io.from_model(merged)) + found.encode("utf-8"))


def import_digests() -> dict[str, str]:
    digests = {}
    for name, m, tables in (("tjunction", fixture.tjunction_model(), IMPORT_TABLES),
                            (f"sized-{IMPORT_SIZED}", sized_model(IMPORT_SIZED), IMPORT_TABLES),
                            *((f"random-{s}", random_model(s), 1) for s in SEEDS)):
        for seed in range(tables):
            digests[f"{name}/{seed}"] = import_digest(m, seed)
    return digests


def _mfmkit(*args: str, cwd: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "MFMKIT_RULES_DIR"}
    # the commands run inside the demo directory, so a relative PYTHONPATH won't do
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mfmkit.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "mfmkit", *args],
                          capture_output=True, cwd=cwd, env=env)


def cli_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as root:
        result = _mfmkit("init-example", "demo", cwd=root)
        assert result.returncode == 0, result.stderr
        demo = os.path.join(root, "demo")
        for name, args in CLI_COMMANDS.items():
            result = _mfmkit(*args, "--format", "structured", cwd=demo)
            assert b"Traceback" not in result.stderr, result.stderr
            out[name] = _sha(result.stdout)
    return out


def compute() -> dict:
    models = {"tjunction": model_digests(fixture.tjunction_model())}
    for seed in SEEDS:
        models[f"random-{seed}"] = model_digests(random_model(seed))
    return {"models": models, "cli": cli_digests(), "parse": parse_digests(),
            "import": import_digests()}


def test_model_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["models"]
    assert set(golden) == {"tjunction", *(f"random-{s}" for s in SEEDS)}
    assert model_digests(fixture.tjunction_model()) == golden["tjunction"]
    for seed in SEEDS:
        assert model_digests(random_model(seed)) == golden[f"random-{seed}"], seed


def test_parse_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["parse"]
    assert parse_digests() == golden


def test_import_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["import"]
    assert import_digests() == golden


def test_cli_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["cli"]
    assert cli_digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}")
