"""Seeded byte mutations of the demo set through the commands, in process.

Each input file of the init-example demo (the model, the behavior graph,
both traces and an exported request table) is mutated a fixed number of
times: a span is flipped bit-wise, deleted, duplicated or the file is
truncated there. Every command that reads the file runs on each mutant,
twice. Whatever the bytes, a command exits 0, 1 or 2, raises nothing but
SystemExit, writes no traceback, and prints the same stdout both times.
"""
from __future__ import annotations

import contextlib
import io
import random
import traceback
from pathlib import Path

import pytest

from mfmkit import cli

#: Mutants per input file.
MUTANTS = {"model.aml": 14, "behavior.bhv": 10, "traces/route-1.trace": 5,
           "traces/route-2.trace": 5, "request.csv": 10}


def mutate(data: bytes, rng: random.Random) -> bytes:
    start = rng.randrange(len(data))
    end = min(len(data), start + rng.randint(1, 24))
    kind = rng.choice(("flip", "delete", "duplicate", "truncate"))
    if kind == "flip":
        flipped = bytes(b ^ (1 << rng.randrange(8)) for b in data[start:end])
        return data[:start] + flipped + data[end:]
    if kind == "delete":
        return data[:start] + data[end:]
    if kind == "duplicate":
        return data[:end] + data[start:end] + data[end:]
    return data[:start]


def commands(name: str, file: str, demo: Path, out: Path) -> list[list[str]]:
    """The command lines that read `file` in place of the demo's `name`."""
    model, bhv = str(demo / "model.aml"), str(demo / "behavior.bhv")
    trace, table = str(demo / "traces/route-1.trace"), str(demo / "request.csv")
    if name == "model.aml":
        return [["validate", file], ["link-check", file],
                ["complete-check", file, "--stage", "control_hmi_eng"],
                ["report", file], ["report", file, "--format", "structured"],
                ["export-table", file, "--missing-only"],
                ["simulate", file, bhv, trace], ["gen-plcopen", file, bhv, "-o", str(out)],
                ["import-table", file, table, "-o", str(out)]]
    if name == "behavior.bhv":
        return [["gen-plcopen", model, file, "-o", str(out)],
                ["simulate", model, file, trace, "--format", "structured"]]
    if name.startswith("traces/"):
        return [["simulate", model, bhv, file]]
    return [["import-table", model, file, "-o", str(out)]]


def run(argv: list[str]) -> tuple[int, bytes, str]:
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as error:
            code = error.code
        except Exception:
            pytest.fail(f"{argv} raised:\n{traceback.format_exc()}")
        stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("fuzz") / "demo"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["init-example", str(target)]) == 0
        assert cli.main(["export-table", str(target / "model.aml"), "--missing-only",
                         "-o", str(target / "request.csv")]) == 0
    return target


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutated_inputs_end_in_an_exit_code(demo, tmp_path, name):
    data = (demo / name).read_bytes()
    file, out = tmp_path / Path(name).name, tmp_path / "out"
    for index in range(MUTANTS[name]):
        file.write_bytes(mutate(data, random.Random(f"{name}-{index}")))
        for argv in commands(name, str(file), demo, out):
            first, second = run(argv), run(argv)
            code, stdout, stderr = first
            assert code in (0, 1, 2), (argv, first)
            assert "Traceback" not in stderr, (argv, stderr)
            assert second[1] == stdout, argv
