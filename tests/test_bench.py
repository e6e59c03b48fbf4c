"""What `bench/run.py --trace 1` runs beyond the untraced run: the child that
runs one command with the spans of bench/tracer.py installed, the counters
on the traced simulators, the traced commands of the gate, and the start-up
probe that loads the default configurations."""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from mfmkit import behavior
from mfmkit import model as mm

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
bench_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tracer)

#: Each command of the gate, `{out}` a new directory, and the spans of the
#: gate's per-layer metrics that its traced run must record.
GATE = {
    "validate model.aml": {
        "caex_io.to_model", "mapping.validate_assignments", "consistency.check_links"},
    "link-check model.aml": {"caex_io.to_model", "consistency.check_links"},
    "complete-check model.aml --stage control_hmi_eng": {
        "caex_io.to_model", "consistency.check_completeness"},
    "report model.aml": {"caex_io.to_model", "consistency.dependency_report"},
    "init-example {out}": {"model.builders"},
}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    place = tmp_path_factory.mktemp("gate") / "demo"
    subprocess.run([sys.executable, "-m", "mfmkit", "init-example", str(place)],
                   check=True, capture_output=True)
    return place


def test_a_traced_simulate_records_both_simulators_and_counts_their_events(tmp_path):
    demo = tmp_path / "demo"
    subprocess.run([sys.executable, "-m", "mfmkit", "init-example", str(demo)],
                   check=True, capture_output=True)
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(spans),
         "simulate", "model.aml", "behavior.bhv", "traces/route-2.trace"],
        cwd=demo, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    recorded = json.loads(spans.read_text("utf-8"))
    assert {"behavior.simulate", "sfc.simulate_sfc"} <= {row[0] for row in recorded["spans"]}
    events = len(behavior.parse_trace((demo / "traces" / "route-2.trace").read_text("utf-8")))
    assert events == 3
    assert recorded["counts"] == {
        "behavior.simulate.events": events, "sfc.simulate_sfc.events": events}
    assert done.stdout.splitlines()[:3] == ["activate Conv1", "activate Conv2", "activate Switch"]


@pytest.mark.parametrize("command", GATE)
def test_a_traced_gate_command_exits_as_the_untraced_one_and_records_its_layers(
        demo, tmp_path, command):
    # this checkout's package, also where the working directory is the demo
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "mfmkit", *command.format(out=tmp_path / "plain").split()],
        cwd=demo, env=env, capture_output=True, text=True)
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(spans),
         *command.format(out=tmp_path / "traced").split()],
        cwd=demo, capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == plain.returncode, traced.stderr
    recorded = json.loads(spans.read_text("utf-8"))
    assert GATE[command] <= {row[0] for row in recorded["spans"]}


def test_every_traced_builder_is_a_function_of_the_model_module():
    for name in bench_tracer.BUILDERS:
        builder = getattr(mm, name)
        assert callable(builder) and builder.__module__ == mm.__name__, name


def test_the_start_up_probe_loads_the_default_configurations():
    with mock.patch.object(bench_run, "PROBE_REPEATS", 1):
        probes = bench_run._cli_probes()
    assert set(probes) == {"cli.interpreter_start_s", "cli.import_s", "cli.config_load_s"}
    assert all(seconds > 0 for seconds in probes.values())
