"""Time the behavior readers, the two simulators, the SFC generation, the
model layers in process, and the start-up of whole commands, into a
BENCH_*.json file.

    python3 tools/layers.py LABEL OUT.json

The replay input is one `bench/gen.py` model (seed 1, 200 components) with a
looped 12-arm behavior graph, and one trace per length in PASSES (the
transport units of the behavior-replay workload, 10^3 to 10^5 trace
events). Each of `behavior.parse_trace` (on the trace's text),
`behavior.simulate` and `sfc.simulate_sfc` runs RUNS times per trace under
`perf_counter`; the median and quartiles are kept. A walk that raises
SimulationError is recorded as its message, not as a time. The graph itself
goes through `behavior.parse_behavior` (on its text), `behavior.to_iml` and
`sfc.iml_to_sfc` RUNS times each, with the same statistics.

The model layers run on `bench/gen.py` models (seed 1, a quarter of the
cells withheld) of each size in SIZES, MODEL_RUNS times each, keeping the
best time as well: `caex_io.parse` on the file's bytes, `caex_io.to_model`
on the parsed file, `caex_io.from_model` on its model and
`caex_io.serialize` on that document, `consistency.check_links` and
`consistency.dependency_report` with the default ownership map,
`consistency.check_completeness` at the final stage and both forms of
`exchange.export_table` (the dump and the `missing_only` request) with the
default matrix, `mapping.validate_assignments` and `mapping.uncovered_classes`
with the default rule table, `exchange.import_table` on the filled request
of the table-merge workload, and `exchange.import_table` on a table that
gives every component a new type and a new document. The builder chain
`tests/generators.sized_model` runs at the same sizes (n components, one
public builder call after another). `caex_io.to_model.calls` is the
cProfile count of function calls of one `to_model` run.

The start-up section runs commands as fresh processes on the init-example
demo set. `python -X importtime` gives each mfmkit module's self time (the
median over STARTUP_RUNS runs, in microseconds, compiling included) for
`-c "import mfmkit.cli"` and for `-m mfmkit validate model.aml`; the wall
time of whole processes (median and quartiles over STARTUP_RUNS rounds, the
commands alternating within a round) is taken for bare `python3 -c pass`,
`-m mfmkit --help` and the validate, report, export-table and simulate
commands.

Each invocation also times `reference_loop` of `bench/run.py` (imported
as is, the benchmark's fixed pure-Python loop) REFERENCE_RUNS times at its
start and again at its end, and records the median and quartiles of each
under `reference_loop`. Two invocations, such as the `parent` and the
`change` side of one file, run minutes apart, and the machine's speed can
drift in between; the loop's times show how fast each side's machine ran,
so their figures can be set against that speed rather than taken as is.

mfmkit is imported from the `src/` next to this script, so running the
copy in another checkout measures that checkout. The figures are merged
into OUT.json under LABEL (for example `parent` and `change`), so one file
holds both sides measured on one machine. Only the standard library is used.
"""
from __future__ import annotations

import cProfile
import csv
import io
import json
import os
import pstats
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import gen  # noqa: E402  (bench/gen.py, read as is)
import generators  # noqa: E402  (tests/generators.py)
from run import reference_loop  # noqa: E402  (bench/run.py, read as is)
from mfmkit import behavior, caex_io, consistency, exchange, mapping, sfc  # noqa: E402

SEED = 1
COMPONENTS = 200
BRANCHES = 12
PASSES = (170, 425, 1070, 2690, 6760, 17000)
RUNS = 5
SIZES = (800, 3200)
MODEL_RUNS = 7
STARTUP_RUNS = 11
REFERENCE_RUNS = 25
#: Start-up command lines, run in the demo directory; None is bare `python3 -c pass`.
STARTUP_COMMANDS = {
    "python3 -c pass": None,
    "mfmkit --help": ["--help"],
    "mfmkit validate": ["validate", "model.aml"],
    "mfmkit report": ["report", "model.aml"],
    "mfmkit export-table": ["export-table", "model.aml"],
    "mfmkit simulate": ["simulate", "model.aml", "behavior.bhv", "traces/route-1.trace"],
}


def _inputs():
    planted = gen.build_model(SEED, COMPONENTS, gen.Faults(), tag="layers")
    model, _warnings = caex_io.to_model(caex_io.parse(planted.data))
    rng = random.Random(f"layers-{SEED}")
    spec = gen.build_behavior(planted, rng, BRANCHES)
    graph = behavior.parse_behavior(spec.text)
    program = sfc.iml_to_sfc(behavior.to_iml(graph), model)
    traces = {}
    for passes in PASSES:
        text, _expected, events = gen.build_trace(spec, rng, passes)
        traces[passes] = (events, text, behavior.parse_trace(text))
    return model, spec.text, graph, program, traces


def _graph_layers(model, text: str, graph) -> dict:
    iml = behavior.to_iml(graph)
    layers = {
        "behavior.parse_behavior": lambda: behavior.parse_behavior(text),
        "behavior.to_iml": lambda: behavior.to_iml(graph),
        "sfc.iml_to_sfc": lambda: sfc.iml_to_sfc(iml, model),
    }
    for call in layers.values():  # warm-up, untimed
        call()
    return {name: _time(call) for name, call in layers.items()}


def _new_document_table(model) -> bytes:
    """One row per component: a new type, filed under a new document."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(exchange.HEADER)
    writer.writerows((f"{model.id}/components/{c.name}", "component_type", f"T{i}", "",
                      f"new-{i}", "") for i, c in enumerate(model.components))
    return buffer.getvalue().encode("utf-8")


def _model_layers() -> dict:
    figures: dict[str, list] = {}
    table = mapping.default_table()
    ownership = consistency.default_ownership()
    for n in SIZES:
        planted = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers")
        doc = caex_io.parse(planted.data)
        model, _warnings = caex_io.to_model(doc)
        rendered = caex_io.from_model(model)
        filled, _params, _broken = gen.fill_request(planted, random.Random(f"layers-{n}"), 0)
        new_documents = _new_document_table(model)
        for name, call in (
                ("caex_io.parse", lambda: caex_io.parse(planted.data)),
                ("caex_io.to_model", lambda: caex_io.to_model(doc)),
                ("caex_io.from_model", lambda: caex_io.from_model(model)),
                ("caex_io.serialize", lambda: caex_io.serialize(rendered)),
                ("consistency.check_links", lambda: consistency.check_links(model)),
                ("consistency.dependency_report",
                 lambda: consistency.dependency_report(model, ownership)),
                ("consistency.check_completeness final stage",
                 lambda: consistency.check_completeness(model, "control_hmi_eng")),
                ("exchange.export_table dump", lambda: exchange.export_table(model)),
                ("exchange.export_table missing_only",
                 lambda: exchange.export_table(model, missing_only=True)),
                ("mapping.validate_assignments",
                 lambda: mapping.validate_assignments(model, table)),
                ("mapping.uncovered_classes", lambda: mapping.uncovered_classes(model, table)),
                ("tests/generators.sized_model", lambda: generators.sized_model(n)),
                ("exchange.import_table filled request",
                 lambda: exchange.import_table(model, filled)),
                ("exchange.import_table new document per row",
                 lambda: exchange.import_table(model, new_documents))):
            figures.setdefault(name, []).append({"n": n, **_time(call, MODEL_RUNS)})
        profile = cProfile.Profile()
        profile.runcall(caex_io.to_model, doc)
        figures.setdefault("caex_io.to_model.calls", []).append(
            {"n": n, "calls": pstats.Stats(profile).total_calls})
    return figures


def _startup() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(args: list, cwd, stderr=subprocess.DEVNULL) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                              stdout=subprocess.DEVNULL, stderr=stderr, text=True)

    def module_self_us(args: list, cwd) -> dict:
        runs: dict[str, list] = {}
        for _ in range(STARTUP_RUNS):
            report = run(["-X", "importtime", *args], cwd, subprocess.PIPE).stderr
            for line in report.splitlines():  # "import time: SELF | CUMULATIVE | NAME"
                self_us, _cumulative, name = line.removeprefix("import time:").split("|")
                name = name.strip()
                if name.startswith("mfmkit") and self_us.strip().isdigit():
                    runs.setdefault(name, []).append(int(self_us))
        return {name: statistics.median(times) for name, times in sorted(runs.items())}

    with tempfile.TemporaryDirectory() as scratch:
        demo = Path(scratch) / "demo"
        run(["-m", "mfmkit", "init-example", str(demo)], scratch)
        walls: dict[str, list] = {name: [] for name in STARTUP_COMMANDS}
        for _ in range(STARTUP_RUNS):
            for name, argv in STARTUP_COMMANDS.items():
                start = perf_counter()
                run(["-c", "pass"] if argv is None else ["-m", "mfmkit", *argv], demo)
                walls[name].append(perf_counter() - start)
        figures = {
            "importtime_self_us": {
                "import mfmkit.cli": module_self_us(["-c", "import mfmkit.cli"], demo),
                "mfmkit validate": module_self_us(
                    ["-m", "mfmkit", "validate", "model.aml"], demo)},
            "wall": {name: _quartiles(times) for name, times in walls.items()}}
    return figures


def _quartiles(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(median, 6), "q1_s": round(q1, 6), "q3_s": round(q3, 6),
            "best_s": round(min(times), 6)}


def _time(call, runs: int = RUNS) -> dict:
    times = []
    for _ in range(runs):
        start = perf_counter()
        try:
            call()
        except behavior.SimulationError as error:
            return {"error": str(error)}
        times.append(perf_counter() - start)
    return _quartiles(times)


def _reference() -> dict:
    return _quartiles([reference_loop() for _ in range(REFERENCE_RUNS)])


def main(label: str, out: Path) -> None:
    reference = {"start": _reference()}
    startup = _startup()
    model, behavior_text, graph, program, traces = _inputs()
    layers = {
        "behavior.parse_trace": lambda text, trace: behavior.parse_trace(text),
        "behavior.simulate": lambda text, trace: behavior.simulate(graph, trace),
        "sfc.simulate_sfc": lambda text, trace: sfc.simulate_sfc(program, trace, model),
    }
    for run in layers.values():  # warm-up, untimed
        run(*traces[PASSES[0]][1:])
    figures = {
        name: [{"passes": passes, "events": events, **_time(lambda: run(text, trace))}
               for passes, (events, text, trace) in traces.items()]
        for name, run in layers.items()}
    figures.update(_graph_layers(model, behavior_text, graph))
    figures.update(_model_layers())
    figures["startup"] = startup
    reference["end"] = _reference()
    figures["reference_loop"] = reference
    data = json.loads(out.read_text("utf-8")) if out.exists() else {}
    data["input"] = {
        "model": f"bench/gen.py seed {SEED}, {COMPONENTS} components, {BRANCHES} arms",
        "passes": list(PASSES), "runs": RUNS,
        "sizes": list(SIZES), "model_runs": MODEL_RUNS, "startup_runs": STARTUP_RUNS,
        "reference_runs": REFERENCE_RUNS,
        "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}
    data[label] = figures
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1], Path(sys.argv[2]))
