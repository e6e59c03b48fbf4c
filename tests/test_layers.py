"""The layer harness, tools/layers.py: its arithmetic on fixed numbers, and
one round of its worker protocol with this checkout on both sides."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
_spec = importlib.util.spec_from_file_location("layers", TOOL)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_times_keep_the_median_the_quartiles_and_the_best():
    assert layers.times([3.0, 1.0, 2.0]) == {
        "median_s": 2.0, "q1_s": 1.5, "q3_s": 2.5, "best_s": 1.0}
    assert layers.times([0.25]) == {"median_s": 0.25, "q1_s": 0.25, "q3_s": 0.25, "best_s": 0.25}


def test_the_ratio_is_taken_per_round_and_a_tie_is_no_win():
    # per-round ratios 0.5, 1.0, 0.5, 1.5, 0.8; the medians of the sides give 1.0
    parent = [1.0, 2.0, 4.0, 1.0, 5.0]
    change = [0.5, 2.0, 2.0, 1.5, 4.0]
    assert layers.ratio(parent, change) == {"median": 0.8, "q1": 0.5, "q3": 1.0, "wins": 3}
    assert layers.ratio([2.0], [1.0]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "wins": 1}


def test_the_exponent_comes_from_the_median_of_the_per_round_size_ratios():
    # per-round ratios 2, 4, 2 give 4^0.5; the sides' medians (2 and 8) would give 4^1
    assert layers.exponent([1.0, 2.0, 4.0], [2.0, 8.0, 8.0], 800, 3200) == 0.5
    assert layers.exponent([0.1, 0.2], [0.4, 0.8], 800, 3200) == 1.0
    assert layers.exponent([1.0], [16.0], 800, 3200) == 2.0


def test_one_round_of_one_layer_on_this_checkout_as_both_sides(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    layers.main([str(TOOL.parents[1]), str(out), "1", "to_iml"])
    record = json.loads(out.read_text("utf-8"))
    assert record["input"]["rounds"] == 1
    assert list(record["layers"]) == ["to_iml"]
    (n, row), = record["layers"]["to_iml"].items()
    assert n == str(layers.BRANCHES)
    assert row["equal"] is True
    assert set(row["parent"]) == set(row["change"]) == {"median_s", "q1_s", "q3_s", "best_s"}
    assert row["change/parent"]["wins"] in (0, 1)
    assert (record["exponents"], record["to_model_calls"], record["importtime_self_us"]) == (
        {}, {}, {})
    assert "to_iml" in capsys.readouterr().out


def test_the_gate_command_layers_run_the_cli_on_the_written_model_files(monkeypatch):
    import mfmkit
    monkeypatch.syspath_prepend(str(TOOL.parents[1] / "bench"))
    inputs = layers._model_files(mfmkit)
    assert list(inputs) == list(layers.SIZES)
    code, out, err = layers.LAYERS["cli export-table"][1](mfmkit, inputs[800])
    assert (code, err) == (0, "")
    assert out.startswith(b"element_path,parameter_name,")
    code, out, err = layers.LAYERS["cli complete-check"][1](mfmkit, inputs[800])
    assert (code, err) == (1, "")
    assert out.startswith(b"model-800.aml: ERROR missing-parameter ")
