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


def test_the_models_are_timed_at_five_sizes_with_an_exponent_between_neighbours():
    assert layers.SIZES == (100, 400, 800, 1600, 3200)
    # per-round ratios 4, 4, 8 (median 4^1) and 4, 4, 1 (median 2^2): a knee at 400
    by_n = {100: [1.0, 1.0, 1.0], 400: [4.0, 4.0, 8.0], 800: [16.0, 16.0, 8.0]}
    assert layers.step_exponents(by_n) == {"100-400": 1.0, "400-800": 2.0}
    assert layers.step_exponents({800: [1.0]}) == {}


def test_the_table_prints_the_largest_step_exponent_on_the_last_line_of_a_layer():
    row = {"parent": {"median_s": 0.001}, "change": {"median_s": 0.002}, "equal": True,
           "change/parent": {"median": 2.0, "q1": 1.5, "q3": 2.5, "wins": 0}}
    record = {"layers": {"sized_model": {100: row, 400: row, 800: row}},
              "exponents": {"sized_model": {"parent": 1.5, "change": 1.25}},
              "step_exponents": {"sized_model": {
                  "parent": {"100-400": 1.0, "400-800": 2.0},
                  "change": {"100-400": 1.75, "400-800": 0.5}}}}
    lines = layers.report(record).splitlines()[1:]
    assert [line.endswith("  1.500/1.250  2.000/1.750") for line in lines] == [
        False, False, True]


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
    assert (record["exponents"], record["step_exponents"], record["to_model_calls"],
            record["importtime_self_us"]) == ({}, {}, {}, {})
    assert "to_iml" in capsys.readouterr().out


def test_the_contract_checks_count_a_file_that_does_not_read_back_unchanged():
    import mfmkit
    data = mfmkit.caex_io.serialize(mfmkit.caex_io.from_model(mfmkit.fixture.tjunction_model()))
    assert layers.contract(mfmkit, data) == {
        "bytes read": len(data), "bytes written": len(data),
        "checks": {"round trip": True, "double write": True}, "failed": 0}
    spaced = data.replace(b"<CAEXFile>", b"<CAEXFile >")
    assert layers.contract(mfmkit, spaced)["checks"] == {"round trip": False, "double write": True}
    assert layers.contract(mfmkit, spaced)["failed"] == 1
    record = {"contract": {"seed": 1, "n": 3200, "parent": layers.contract(mfmkit, data),
                           "change": layers.contract(mfmkit, spaced)}, "layers": {}}
    assert layers.report(record).splitlines()[-1] == (
        f"contract, seed 1, n 3200, change: {len(spaced)} bytes read, {len(data)} written; "
        "round trip FAILED, double write ok")


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


def test_the_reader_errors_layer_gives_each_defect_s_message_as_its_result(monkeypatch):
    # `equal` compares the digests of the sides' results: here the message,
    # with its line and column
    import mfmkit
    monkeypatch.syspath_prepend(str(TOOL.parents[1] / "bench"))
    build, call = layers.LAYERS["reader errors"]
    results = {name: call(mfmkit, given) for name, given in build(mfmkit).items()}
    assert results == {
        "early attribute":
            "unsupported attribute 'Bogus' on <InternalElement> (line 11, column 5)",
        "late element": "unsupported element <Bogus> in CAEXFile (line 128452, column 1)",
        "late text": "unexpected text inside <CAEXFile> (line 128452, column 1)"}
    assert call(mfmkit, {"data": mfmkit.caex_io.serialize(mfmkit.caex_io.CaexDocument())}) == (
        "no error")
