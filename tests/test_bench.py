"""What `bench/run.py --trace 1` runs beyond the untraced run: the child that
runs one command with the spans of bench/tracer.py installed, the counters
on the traced simulators, and the start-up probe that loads the default
configurations."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

from mfmkit import behavior

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


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


def test_the_start_up_probe_loads_the_default_configurations():
    with mock.patch.object(bench_run, "PROBE_REPEATS", 1):
        probes = bench_run._cli_probes()
    assert set(probes) == {"cli.interpreter_start_s", "cli.import_s", "cli.config_load_s"}
    assert all(seconds > 0 for seconds in probes.values())
