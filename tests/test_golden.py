"""Byte-level regression pins: canonical files, tables and structured CLI output.

The committed digests in `data/golden_digests.json` are the sha256 of
serialize(from_model(m)), export_table(m) and export_table(m,
missing_only=True) for the T-junction fixture and for random models of seeds
0-19, plus the structured stdout of validate, link-check, complete-check and
report on the init-example demo set. Any change to those bytes is a format
change and must be deliberate. The `parse` digests pin the reader: the
sha256 of repr(parse(data)) for the files of the same models and of one
3200-component sized_model. Regenerate the file with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from generators import random_model, sized_model  # noqa: E402

import mfmkit  # noqa: E402
from mfmkit import caex_io, exchange, fixture  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"

SEEDS = range(20)
SIZED = 3200

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
    return {"models": models, "cli": cli_digests(), "parse": parse_digests()}


def test_model_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["models"]
    assert set(golden) == {"tjunction", *(f"random-{s}" for s in SEEDS)}
    assert model_digests(fixture.tjunction_model()) == golden["tjunction"]
    for seed in SEEDS:
        assert model_digests(random_model(seed)) == golden[f"random-{seed}"], seed


def test_parse_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["parse"]
    assert parse_digests() == golden


def test_cli_digests_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))["cli"]
    assert cli_digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}")
