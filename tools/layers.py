"""Time the trace reader and the two simulators in process, into a BENCH_*.json file.

    python3 tools/layers.py LABEL OUT.json

The input is one `bench/gen.py` model (seed 1, 200 components) with a
looped 12-arm behavior graph, and one trace per length in PASSES (the
transport units of the behavior-replay workload, 10^3 to 10^5 trace
events). Each of `behavior.parse_trace` (on the trace's text),
`behavior.simulate` and `sfc.simulate_sfc` runs RUNS times per trace under
`perf_counter`; the median and quartiles are kept. A walk that raises
SimulationError is recorded as its message, not as a time.

mfmkit is imported from the `src/` next to this script, so running the
copy in another checkout measures that checkout. The figures are merged
into OUT.json under LABEL (for example `parent` and `change`), so one file
holds both sides measured on one machine. Only the standard library is used.
"""
from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (bench/gen.py, read as is)
from mfmkit import behavior, caex_io, sfc  # noqa: E402

SEED = 1
COMPONENTS = 200
BRANCHES = 12
PASSES = (170, 425, 1070, 2690, 6760, 17000)
RUNS = 5


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
    return model, graph, program, traces


def _time(call) -> dict:
    times = []
    for _ in range(RUNS):
        start = perf_counter()
        try:
            call()
        except behavior.SimulationError as error:
            return {"error": str(error)}
        times.append(perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(median, 6), "q1_s": round(q1, 6), "q3_s": round(q3, 6)}


def main(label: str, out: Path) -> None:
    model, graph, program, traces = _inputs()
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
    data = json.loads(out.read_text("utf-8")) if out.exists() else {}
    data["input"] = {
        "model": f"bench/gen.py seed {SEED}, {COMPONENTS} components, {BRANCHES} arms",
        "passes": list(PASSES), "runs": RUNS,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}
    data[label] = figures
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1], Path(sys.argv[2]))
