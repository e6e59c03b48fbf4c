"""Compare layers of two mfmkit trees on the same inputs, interleaved.

    python3 tools/interleave.py PARENT_CHECKOUT [ROUNDS] [LAYER ...]

PARENT_CHECKOUT is another checkout of this repository (for example a
`git archive` of the parent commit); the change is the checkout holding
this script. Each side runs in its own worker process that imports
`mfmkit` from its own `src/`, so each package also reads its own data files
(`resources.files("mfmkit")`). Both workers build the same inputs with this
checkout's `bench/gen.py`, each set on its first use:

- the model layers: seed 1, a quarter of the cells withheld, at each size
  in SIZES (n in the report);
- the replay layers: the behavior-replay input of `tools/layers.py`, one
  seed 1 model of 200 components with a looped 12-arm graph, and one trace
  per number of transport units in PASSES (10^3 to 10^5 trace events; the
  passes are n in the report);
- three adversarial replays of the token walk, each at one size n:
  `unread noise` is the 10^5-event trace with a toggle of one of 200
  sensors that no guard reads after every event (n: the events of the
  trace; `behavior.simulate` only, the sensors are bound to nothing);
  `new states` is a graph `idle -> go`, `go` guarded by 20 sensors on, over
  n random toggles of the first 19, so almost every update reaches a state
  not seen before; `shared-pass arcs` is a graph whose entry has 16 arcs,
  each guarded by its own two sensors on, so the arcs share no key and
  every update they read is tested against all of them, over n random
  toggles of the first sensor of each pair (the second never turns on, so
  no arc is ever enabled and the states outnumber the walk's memo).

A round times every named layer (default: all of LAYERS) at every size on
both sides, one side right after the other, and alternates which side goes
first from round to round (ROUNDS, default 21). One timing is the best of
REPEATS calls, after a garbage collection. Timing both sides seconds apart,
in alternating order, keeps the drift of the machine's speed out of the
ratios; two separate runs minutes apart can differ by far more than the
change being measured.

For each layer and size the report gives the median, first and third
quartile of the per-round change/parent ratios, the number of rounds in
which the change was faster, each side's median time in milliseconds, and
whether both sides returned equal results (compared by a digest of the
result's repr). Only the standard library is used.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SIZES = (800, 3200)
COMPONENTS = 200
BRANCHES = 12
PASSES = (170, 425, 1070, 2690, 6760, 17000)
ADVERSARIAL_UPDATES = 200_000
REPEATS = 3
ROUNDS = 21


class _Package:
    """The mfmkit modules one worker times."""

    def __init__(self) -> None:
        from mfmkit import behavior, caex_io, consistency, exchange, sfc
        self.caex_io, self.consistency, self.exchange = caex_io, consistency, exchange
        self.behavior, self.sfc = behavior, sfc


def _model_inputs(package: _Package) -> dict:
    import gen  # bench/gen.py of the checkout running the comparison
    inputs = {}
    for n in SIZES:
        planted = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers")
        doc = package.caex_io.parse(planted.data)
        model, _warnings = package.caex_io.to_model(doc)
        filled, _params, _broken = gen.fill_request(planted, random.Random(f"layers-{n}"), 0)
        inputs[n] = {"data": planted.data, "doc": doc, "model": model, "filled": filled}
    return inputs


def _replay_model(package: _Package):
    import gen
    planted = gen.build_model(SEED, COMPONENTS, gen.Faults(), tag="layers")
    model, _warnings = package.caex_io.to_model(package.caex_io.parse(planted.data))
    return gen, planted, model


def _bound(package: _Package, model, text: str) -> dict:
    graph = package.behavior.parse_behavior(text)
    return {"model": model, "graph": graph,
            "program": package.sfc.iml_to_sfc(package.behavior.to_iml(graph), model)}


def _replay_inputs(package: _Package) -> dict:
    """The inputs of tools/layers.py: one graph, one trace per entry of PASSES."""
    gen, planted, model = _replay_model(package)
    rng = random.Random(f"layers-{SEED}")
    spec = gen.build_behavior(planted, rng, BRANCHES)
    bound = _bound(package, model, spec.text)
    inputs = {}
    for passes in PASSES:
        text, _expected, _events = gen.build_trace(spec, rng, passes)
        inputs[passes] = {**bound, "trace": package.behavior.parse_trace(text)}
    return inputs


def _noise_inputs(package: _Package) -> dict:
    replay = _replay_inputs(package)[PASSES[-1]]
    rng = random.Random(f"noise-{SEED}")
    levels = [False] * 200
    trace = []
    for event in replay["trace"]:
        k = rng.randrange(200)
        levels[k] = not levels[k]
        trace += [event, package.behavior.TraceEvent("sensor", f"noise{k}", levels[k])]
    return {len(trace): {**replay, "trace": trace}}


def _toggles(sensors: list, seed: str) -> str:
    rng = random.Random(seed)
    levels = dict.fromkeys(sensors, False)
    lines = []
    for _ in range(ADVERSARIAL_UPDATES):
        sensor = rng.choice(sensors)
        levels[sensor] = not levels[sensor]
        lines.append(f"sensor {sensor} {'on' if levels[sensor] else 'off'}")
    return "\n".join(lines) + "\n"


def _new_state_inputs(package: _Package) -> dict:
    _gen, planted, model = _replay_model(package)
    sensors = planted.sensors[:20]
    text = ('step idle "idle"\nstep go "go" when '
            + ", ".join(f"{s} on" for s in sensors) + "\nedge idle -> go\n")
    trace = package.behavior.parse_trace(_toggles(sensors[:19], f"new-states-{SEED}"))
    return {len(trace): {**_bound(package, model, text), "trace": trace}}


def _shared_pass_inputs(package: _Package) -> dict:
    _gen, planted, model = _replay_model(package)
    pairs = [planted.sensors[2 * k:2 * k + 2] for k in range(16)]
    lines = ['step idle "idle"']
    for k, (first, second) in enumerate(pairs):
        lines += [f'step arm{k} "arm {k}" when {first} on, {second} on', f"edge idle -> arm{k}"]
    trace = package.behavior.parse_trace(
        _toggles([first for first, _second in pairs], f"shared-pass-{SEED}"))
    return {len(trace): {**_bound(package, model, "\n".join(lines) + "\n"), "trace": trace}}


def _simulate(m, i):
    return m.behavior.simulate(i["graph"], i["trace"])


def _simulate_sfc(m, i):
    return m.sfc.simulate_sfc(i["program"], i["trace"], i["model"])


#: Each layer: the function that builds its inputs by size, and its call
#: given the inputs of one size.
LAYERS = {
    "parse": (_model_inputs, lambda m, i: m.caex_io.parse(i["data"])),
    "to_model": (_model_inputs, lambda m, i: m.caex_io.to_model(i["doc"])),
    "parse+to_model": (
        _model_inputs, lambda m, i: m.caex_io.to_model(m.caex_io.parse(i["data"]))),
    "from_model": (_model_inputs, lambda m, i: m.caex_io.from_model(i["model"])),
    "check_links": (_model_inputs, lambda m, i: m.consistency.check_links(i["model"])),
    "check_completeness": (_model_inputs, lambda m, i: m.consistency.check_completeness(
        i["model"], "control_hmi_eng")),
    "dependency_report": (
        _model_inputs, lambda m, i: m.consistency.dependency_report(i["model"])),
    "export_table dump": (_model_inputs, lambda m, i: m.exchange.export_table(i["model"])),
    "export_table request": (
        _model_inputs, lambda m, i: m.exchange.export_table(i["model"], missing_only=True)),
    "import_table filled request": (
        _model_inputs, lambda m, i: m.exchange.import_table(i["model"], i["filled"])),
    "behavior.simulate": (_replay_inputs, _simulate),
    "sfc.simulate_sfc": (_replay_inputs, _simulate_sfc),
    "simulate unread noise": (_noise_inputs, _simulate),
    "simulate new states": (_new_state_inputs, _simulate),
    "simulate_sfc new states": (_new_state_inputs, _simulate_sfc),
    "simulate shared-pass arcs": (_shared_pass_inputs, _simulate),
    "simulate_sfc shared-pass arcs": (_shared_pass_inputs, _simulate_sfc),
}


def worker(src: str) -> None:
    """Serve requests on stdin, one JSON line each: ["sizes", layer] for the
    layer's sizes, or [layer, n] for a timing."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    package = _Package()
    inputs: dict = {}
    for line in sys.stdin:
        request = json.loads(line)
        build, call = LAYERS[request[-1] if request[0] == "sizes" else request[0]]
        if build not in inputs:
            inputs[build] = build(package)
        if request[0] == "sizes":
            print(json.dumps(list(inputs[build])), flush=True)
            continue
        layer, n = request
        best = float("inf")
        for _ in range(REPEATS):
            gc.collect()
            start = perf_counter()
            result = call(package, inputs[build][n])
            best = min(best, perf_counter() - start)
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        del result
        print(json.dumps([best, digest]), flush=True)


class _Side:
    def __init__(self, checkout: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-B", __file__, "worker", str(checkout / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, request: list):
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {request!r} stopped")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: Path, rounds: int, layers: list) -> None:
    sides = {"parent": _Side(parent), "change": _Side(ROOT)}
    times: dict[tuple, list] = {}
    digests: dict[tuple, set] = {}
    try:
        sizes = {layer: sides["change"].ask(["sizes", layer]) for layer in layers}
        for number in range(rounds):
            order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
            for layer in layers:
                for n in sizes[layer]:
                    for side in order:
                        best, digest = sides[side].ask([layer, n])
                        times.setdefault((layer, n, side), []).append(best)
                        digests.setdefault((layer, n), set()).add(digest)
            print(f"round {number + 1} of {rounds} done", file=sys.stderr, flush=True)
    finally:
        for side in sides.values():
            side.close()
    print(f"{'layer':30} {'n':>6} {'ratio':>6} {'q1':>6} {'q3':>6} {'wins':>7} "
          f"{'parent ms':>10} {'change ms':>10}  results")
    for layer in layers:
        for n in sizes[layer]:
            before, after = times[layer, n, "parent"], times[layer, n, "change"]
            ratios = [b / a for a, b in zip(before, after)]
            q1, median, q3 = _quartiles(ratios)
            wins = sum(ratio < 1 for ratio in ratios)
            same = "equal" if len(digests[layer, n]) == 1 else "DIFFERENT"
            print(f"{layer:30} {n:>6} {median:6.3f} {q1:6.3f} {q3:6.3f} {wins:>3}/{rounds:<3} "
                  f"{statistics.median(before) * 1e3:10.1f} "
                  f"{statistics.median(after) * 1e3:10.1f}  {same}")


def main(argv: list) -> None:
    if argv[:1] == ["worker"]:
        worker(argv[1])
        return
    if not argv or argv[0] in ("-h", "--help"):
        raise SystemExit(__doc__)
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "mfmkit").is_dir():
        raise SystemExit(f"{parent} holds no src/mfmkit")
    rounds = int(argv[1]) if len(argv) > 1 else ROUNDS
    layers = argv[2:] or list(LAYERS)
    unknown = [layer for layer in layers if layer not in LAYERS]
    if unknown:
        raise SystemExit(f"unknown layers: {', '.join(unknown)}; known: {', '.join(LAYERS)}")
    compare(parent, rounds, layers)


if __name__ == "__main__":
    main(sys.argv[1:])
