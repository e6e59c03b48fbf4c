"""Time the layers of two mfmkit checkouts side by side into a BENCH_*.json file.

    python3 tools/layers.py PARENT_CHECKOUT OUT.json [ROUNDS] [LAYER ...]

The change is the checkout holding this script; PARENT_CHECKOUT is another
one, such as a `git archive` of the parent commit (pass this checkout to
time it alone). Each side is a worker process that imports `mfmkit`, and so
its data files, from its own `src/`. Both build each set of inputs on its
first use with this checkout's `bench/gen.py` and `tests/generators.py`.
LAYERS gives each layer with the builder of its inputs by n: seed 1 models
of n components with a quarter of the cells withheld, and the same with
n // 8 cross references dangling; a looped 12-arm graph on a 200-component
model (n: the arms) and its traces (n: the events);
three adversarial replays of the token walk and the longest trace as
fresh, equal event objects; the builder chain of the T-junction demo model
(n: its components); whole start-up processes in an `init-example` demo
(n: the command); whole gate commands run in process through
`mfmkit.cli.main` on the seed 1 model files, their output captured; the
read of the largest seed 1 model with one defect early or late in the file,
whose result is the error message with its line and column.

A round times every named layer (default: all), every n of a layer back to
back, both sides one right after the other, and alternates which side goes
first (ROUNDS, default 21). One timing is the best of REPEATS calls, each
after a garbage collection. Sides timed seconds apart in alternating order
keep the machine's drift out of the ratios; runs minutes apart can differ by
more than the change being measured.

OUT.json keeps, for each layer and n, each side's median, quartiles and best
time, the change/parent ratio (median and quartiles of the per-round ratios,
and the rounds the change won) and whether both sides' results were equal
(by a digest of their repr); per side, the exponent k of time ~ n^k from a
layer's smallest to its largest n and between each pair of neighbouring n,
so that a knee shows, each from the median of the per-round size ratios
(1.0 is linear); with `startup`, the `-X importtime` self times of
the mfmkit modules (median over the rounds, in us); with `to_model`, its
cProfile count of function calls; with `parse`, each side's contract checks
on the seed 1 model of the largest n: the file reads and writes back to the
same bytes, and reading it into a model and writing that model out, done
twice, gives the same bytes both times. The ratio table, with the largest
neighbouring-n exponent of each layer, and the contract checks are printed;
the exit status is 1 when a contract check fails on either side.
"""
from __future__ import annotations

import atexit
import contextlib
import cProfile
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SIZES = (100, 400, 800, 1600, 3200)
COMPONENTS = 200
BRANCHES = 12
PASSES = (170, 425, 1070, 2690, 6760, 17000)
ADVERSARIAL_UPDATES = 200_000
REPEATS = 3
ROUNDS = 21
SIDES = ("parent", "change")
#: The start-up commands, run in the demo directory.
STARTUP = {"python3 -c pass": ["-c", "pass"]} | {
    f"mfmkit {c.split()[0]}": ["-m", "mfmkit", *c.split()] for c in (
        "--help", "validate model.aml", "report model.aml", "export-table model.aml",
        "simulate model.aml behavior.bhv traces/route-1.trace")}
IMPORTTIME = {"import mfmkit.cli": ["-c", "import mfmkit.cli"],
              "mfmkit validate": STARTUP["mfmkit validate"]}


# Each input builder takes the worker's `mfmkit` package and returns the
# inputs of its layers by n.

def _models(m) -> dict:
    import gen  # bench/gen.py
    import generators  # tests/generators.py
    inputs = {}
    for n in SIZES:
        planted = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers")
        doc = m.caex_io.parse(planted.data)
        model, _warnings = m.caex_io.to_model(doc)
        filled, _params, _broken = gen.fill_request(planted, random.Random(f"layers-{n}"), 0)
        # every component gets a new type, filed under a new document
        renamed = [",".join(m.exchange.HEADER)] + [
            f"{model.id}/components/{c.name},component_type,T{i},,new-{i},"
            for i, c in enumerate(model.components)]
        inputs[n] = {"n": n, "data": planted.data, "doc": doc, "model": model,
                     "rendered": m.caex_io.from_model(model), "filled": filled,
                     "renamed": "\n".join(renamed + [""]).encode(),
                     "table": m.mapping.default_table(),
                     "ownership": m.consistency.default_ownership(),
                     "sized_model": generators.sized_model}
    return inputs


def _dangling(m) -> dict:
    """The seed 1 models of `_models` with n // 8 cross references dangling."""
    import gen
    planted = {n: gen.build_model(SEED, n, gen.Faults(withheld=n // 4, dangling=n // 8),
                                  tag="layers") for n in SIZES}
    return {n: {"model": m.caex_io.to_model(m.caex_io.parse(p.data))[0]}
            for n, p in planted.items()}


def _replay_model(m):
    import gen
    planted = gen.build_model(SEED, COMPONENTS, gen.Faults(), tag="layers")
    return gen, planted, m.caex_io.to_model(m.caex_io.parse(planted.data))[0]


def _bound(m, model, text: str) -> dict:
    graph = m.behavior.parse_behavior(text)
    iml = m.behavior.to_iml(graph)
    return {"model": model, "text": text, "graph": graph, "iml": iml,
            "program": m.sfc.iml_to_sfc(iml, model)}


def _traces(m) -> dict:
    gen, planted, model = _replay_model(m)
    rng = random.Random(f"layers-{SEED}")
    spec = gen.build_behavior(planted, rng, BRANCHES)
    bound = _bound(m, model, spec.text)
    inputs = {}
    for passes in PASSES:
        text, _expected, events = gen.build_trace(spec, rng, passes)
        inputs[events] = {**bound, "trace text": text, "trace": m.behavior.parse_trace(text)}
    return inputs


def _graph(m) -> dict:
    return {BRANCHES: next(iter(_traces(m).values()))}


def _noise(m) -> dict:
    """The 10^5 trace, each event followed by a toggle of one of 200 sensors no guard reads."""
    replay = _traces(m)
    replay = replay[max(replay)]
    rng = random.Random(f"noise-{SEED}")
    levels = [False] * 200
    trace = []
    for event in replay["trace"]:
        k = rng.randrange(200)
        levels[k] = not levels[k]
        trace += [event, m.behavior.TraceEvent("sensor", f"noise{k}", levels[k])]
    return {len(trace): {**replay, "trace": trace}}


def _copied(m) -> dict:
    """The 10^5 trace with every event rebuilt as a fresh, equal TraceEvent,
    which parse_trace, sharing one object per distinct line, never gives."""
    replay = _traces(m)
    replay = replay[max(replay)]
    trace = [m.behavior.TraceEvent(e.kind, e.subject, e.value) for e in replay["trace"]]
    return {len(trace): {**replay, "trace": trace}}


def _toggled(m, bound: dict, sensors: list, seed: str) -> dict:
    rng = random.Random(seed)
    levels = dict.fromkeys(sensors, False)
    lines = []
    for _ in range(ADVERSARIAL_UPDATES):
        sensor = rng.choice(sensors)
        levels[sensor] = not levels[sensor]
        lines.append(f"sensor {sensor} {'on' if levels[sensor] else 'off'}")
    trace = m.behavior.parse_trace("\n".join(lines) + "\n")
    return {len(trace): {**bound, "trace": trace}}


def _new_states(m) -> dict:
    """`go` guarded by 20 sensors, 19 toggled at random: almost every update is a new state."""
    _gen, planted, model = _replay_model(m)
    sensors = planted.sensors[:20]
    text = ('step idle "idle"\nstep go "go" when '
            + ", ".join(f"{s} on" for s in sensors) + "\nedge idle -> go\n")
    return _toggled(m, _bound(m, model, text), sensors[:19], f"new-states-{SEED}")


def _shared_pass(m) -> dict:
    """16 arcs from the entry, each guarded by two sensors of its own, only the
    first of each toggled: no arc is ever enabled, the states outnumber the memo."""
    _gen, planted, model = _replay_model(m)
    pairs = [planted.sensors[2 * k:2 * k + 2] for k in range(16)]
    lines = ['step idle "idle"']
    for k, (first, second) in enumerate(pairs):
        lines += [f'step arm{k} "arm {k}" when {first} on, {second} on', f"edge idle -> arm{k}"]
    return _toggled(m, _bound(m, model, "\n".join(lines) + "\n"), [p[0] for p in pairs],
                    f"shared-pass-{SEED}")


def _tjunction(m) -> dict:
    return {len(m.fixture.tjunction_model().components): {}}


def _demo(m) -> dict:
    scratch = tempfile.TemporaryDirectory()
    atexit.register(scratch.cleanup)  # removed when the process exits
    place = {"cwd": Path(scratch.name) / "demo", "scratch": scratch,
             "env": dict(os.environ, PYTHONPATH=str(Path(m.__file__).parents[1]))}
    subprocess.run([sys.executable, "-m", "mfmkit", "init-example", str(place["cwd"])],
                   env=place["env"], check=True, capture_output=True)
    return {name: {**place, "argv": argv} for name, argv in STARTUP.items()}


def _model_files(m) -> dict:
    """The seed 1 models of `_models` written once, as files in one directory."""
    import gen
    scratch = tempfile.TemporaryDirectory()
    atexit.register(scratch.cleanup)  # removed when the process exits
    inputs = {}
    for n in SIZES:
        name = f"model-{n}.aml"
        planted = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers")
        (Path(scratch.name) / name).write_bytes(planted.data)
        inputs[n] = {"cwd": scratch.name, "file": name, "scratch": scratch}
    return inputs


def _reader_errors(m) -> dict:
    """The seed 1 model of the largest n with one defect each: an unsupported
    attribute on its first element, and an unsupported element or stray text
    just before the root's end."""
    import gen
    n = SIZES[-1]
    data = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers").data
    first, end = data.index(b"<InternalElement "), data.rindex(b"</CAEXFile>")
    edits = {"early attribute": (first + len(b"<InternalElement "), b'Bogus="1" '),
             "late element": (end, b"<Bogus/>\n"), "late text": (end, b"x\n")}
    return {name: {"data": data[:at] + text + data[at:]} for name, (at, text) in edits.items()}


def _reader_error(m, i) -> str:
    """The message, with its line and column, of the XmlError the read raises."""
    try:
        m.caex_io.parse(i["data"])
    except m.xmlio.XmlError as error:
        return str(error)
    return "no error"


def _command(command: str, *flags: str):
    """A layer's call: `mfmkit <command> <model file> <flags>` through
    `mfmkit.cli.main` in the files' directory; its exit code, stdout (bytes:
    export-table writes to sys.stdout.buffer) and stderr."""
    def call(m, i):
        out, err = io.TextIOWrapper(io.BytesIO(), "utf-8"), io.StringIO()
        home = os.getcwd()
        os.chdir(i["cwd"])  # both sides' output names the file alike
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = m.cli.main([command, i["file"], *flags])
        finally:
            os.chdir(home)
        out.flush()
        return code, out.buffer.getvalue(), err.getvalue()
    return call


def _run(place: dict, argv: list) -> tuple[int, str, str]:
    done = subprocess.run([sys.executable, *argv], cwd=place["cwd"], env=place["env"],
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _simulate(m, i):
    return m.behavior.simulate(i["graph"], i["trace"])


def _simulate_sfc(m, i):
    return m.sfc.simulate_sfc(i["program"], i["trace"], i["model"])


#: Each layer: the builder of its inputs by n, and its call given the
#: worker's `mfmkit` package and the inputs of one n.
LAYERS = {
    "parse": (_models, lambda m, i: m.caex_io.parse(i["data"])),
    "to_model": (_models, lambda m, i: m.caex_io.to_model(i["doc"])),
    "parse+to_model": (_models, lambda m, i: m.caex_io.to_model(m.caex_io.parse(i["data"]))),
    "from_model": (_models, lambda m, i: m.caex_io.from_model(i["model"])),
    "serialize": (_models, lambda m, i: m.caex_io.serialize(i["rendered"])),
    "check_links": (_models, lambda m, i: m.consistency.check_links(i["model"])),
    "check_links dangling": (_dangling, lambda m, i: m.consistency.check_links(i["model"])),
    "check_completeness": (
        _models, lambda m, i: m.consistency.check_completeness(i["model"], "control_hmi_eng")),
    "dependency_report": (
        _models, lambda m, i: m.consistency.dependency_report(i["model"], i["ownership"])),
    "validate_assignments": (
        _models, lambda m, i: m.mapping.validate_assignments(i["model"], i["table"])),
    "uncovered_classes": (
        _models, lambda m, i: m.mapping.uncovered_classes(i["model"], i["table"])),
    "export_table dump": (_models, lambda m, i: m.exchange.export_table(i["model"])),
    "export_table request": (
        _models, lambda m, i: m.exchange.export_table(i["model"], missing_only=True)),
    "import_table filled request": (
        _models, lambda m, i: m.exchange.import_table(i["model"], i["filled"])),
    "import_table new documents": (
        _models, lambda m, i: m.exchange.import_table(i["model"], i["renamed"])),
    "sized_model": (_models, lambda m, i: i["sized_model"](i["n"])),
    "parse_trace": (_traces, lambda m, i: m.behavior.parse_trace(i["trace text"])),
    "simulate": (_traces, _simulate),
    "simulate_sfc": (_traces, _simulate_sfc),
    "parse_behavior": (_graph, lambda m, i: m.behavior.parse_behavior(i["text"])),
    "to_iml": (_graph, lambda m, i: m.behavior.to_iml(i["graph"])),
    "iml_to_sfc": (_graph, lambda m, i: m.sfc.iml_to_sfc(i["iml"], i["model"])),
    "simulate unread noise": (_noise, _simulate),
    "simulate new states": (_new_states, _simulate),
    "simulate_sfc new states": (_new_states, _simulate_sfc),
    "simulate shared-pass arcs": (_shared_pass, _simulate),
    "simulate_sfc shared-pass arcs": (_shared_pass, _simulate_sfc),
    "simulate copied events": (_copied, _simulate),
    "simulate_sfc copied events": (_copied, _simulate_sfc),
    "tjunction_model": (_tjunction, lambda m, i: m.fixture.tjunction_model()),
    "startup": (_demo, lambda m, i: _run(i, i["argv"])),
    "reader errors": (_reader_errors, _reader_error),
    "cli validate": (_model_files, _command("validate")),
    "cli link-check": (_model_files, _command("link-check")),
    "cli complete-check": (
        _model_files, _command("complete-check", "--stage", "control_hmi_eng")),
    "cli report": (_model_files, _command("report")),
    "cli export-table": (_model_files, _command("export-table")),
}


def contract(m, data: bytes) -> dict:
    """The contract checks on one model file, with their sizes: it reads and
    writes back to the same bytes, and writing the model read from it gives
    the same bytes twice."""
    caex = m.caex_io
    written = [caex.serialize(caex.from_model(caex.to_model(caex.parse(data))[0]))
               for _ in range(2)]
    checks = {"round trip": caex.serialize(caex.parse(data)) == data,
              "double write": written[0] == written[1]}
    return {"bytes read": len(data), "bytes written": len(written[0]), "checks": checks,
            "failed": sum(not ok for ok in checks.values())}


def worker(src: str) -> None:
    """Serve requests on stdin, one JSON line each: ["sizes", layer] for the
    layer's n, [layer, n] for a timing and the digest of its result,
    ["importtime"], ["calls", n] and ["contract"] for the records beside the
    timings."""
    sys.path[:0] = [src, str(ROOT / "bench"), str(ROOT / "tests")]
    import mfmkit as m
    built = functools.cache(lambda build: build(m))  # each input set, built on first use

    for line in sys.stdin:
        kind, *args = json.loads(line)
        if kind == "sizes":
            answer = list(built(LAYERS[args[0]][0]))
        elif kind == "importtime":  # {command: {module: self time in us}}
            answer = {}
            for name, argv in IMPORTTIME.items():
                report = _run(built(_demo)["python3 -c pass"], ["-X", "importtime", *argv])[2]
                answer[name] = {}
                for row in report.splitlines():  # "import time: SELF | CUMULATIVE | NAME"
                    own, _cumulative, module = row.removeprefix("import time:").split("|")
                    if module.strip().startswith("mfmkit") and own.strip().isdigit():
                        answer[name][module.strip()] = int(own)
        elif kind == "contract":
            answer = contract(m, built(_models)[SIZES[-1]]["data"])
        elif kind == "calls":
            profile = cProfile.Profile()
            profile.runcall(m.caex_io.to_model, built(_models)[args[0]]["doc"])
            answer = pstats.Stats(profile).total_calls
        else:
            build, call = LAYERS[kind]
            given = built(build)[args[0]]
            best = math.inf
            for _ in range(REPEATS):
                gc.collect()
                start = perf_counter()
                result = call(m, given)
                best = min(best, perf_counter() - start)
            answer = [best, hashlib.sha256(repr(result).encode()).hexdigest()]
            del result
        print(json.dumps(answer), flush=True)


def _ask(process: subprocess.Popen, request: list):
    process.stdin.write(json.dumps(request) + "\n")
    process.stdin.flush()
    line = process.stdout.readline()
    if not line:
        raise SystemExit(f"worker for {request!r} stopped")
    return json.loads(line)


def quartiles(values: list) -> list:
    """First quartile, median and third quartile (inclusive method)."""
    return statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3


def times(seconds: list) -> dict:
    q1, median, q3 = quartiles(seconds)
    return {"median_s": round(median, 6), "q1_s": round(q1, 6), "q3_s": round(q3, 6),
            "best_s": round(min(seconds), 6)}


def ratio(parent: list, change: list) -> dict:
    """The per-round change/parent ratios: median, quartiles and the rounds the change won."""
    ratios = [after / before for before, after in zip(parent, change)]
    q1, median, q3 = quartiles(ratios)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "wins": sum(r < 1 for r in ratios)}


def exponent(small: list, large: list, n_small: int, n_large: int) -> float:
    """k in time ~ n^k, from the median of the per-round ratios large/small."""
    middle = statistics.median(b / a for a, b in zip(small, large))
    return round(math.log(middle) / math.log(n_large / n_small), 3)


def step_exponents(by_n: dict) -> dict:
    """{"a-b": k} between each pair of neighbouring n of one side's per-round times by n."""
    ns = list(by_n)
    return {f"{a}-{b}": exponent(by_n[a], by_n[b], a, b) for a, b in zip(ns, ns[1:])}


def measure(parent: Path, rounds: int, layers: list) -> dict:
    """Run the rounds; returns the record OUT.json holds."""
    sides = {side: subprocess.Popen(
        [sys.executable, "-B", __file__, "worker", str(checkout / "src")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, checkout in zip(SIDES, (parent, ROOT))}
    timed: dict[tuple, list] = {}
    digests: dict[tuple, set] = {}
    imports: dict[str, list] = {side: [] for side in SIDES}
    try:
        sizes = {layer: _ask(sides["change"], ["sizes", layer]) for layer in layers}
        for number in range(rounds):
            order = SIDES if number % 2 == 0 else SIDES[::-1]
            for layer in layers:
                for n in sizes[layer]:
                    for side in order:
                        best, digest = _ask(sides[side], [layer, n])
                        timed.setdefault((layer, n, side), []).append(best)
                        digests.setdefault((layer, n), set()).add(digest)
            for side in order if "startup" in layers else ():
                imports[side].append(_ask(sides[side], ["importtime"]))
            print(f"round {number + 1} of {rounds} done", file=sys.stderr, flush=True)
        calls = {side: {n: _ask(sides[side], ["calls", n]) for n in SIZES}
                 for side in SIDES} if "to_model" in layers else {}
        checked = {side: _ask(sides[side], ["contract"])
                   for side in SIDES} if "parse" in layers else {}
    finally:
        for process in sides.values():
            process.stdin.close()
            process.wait()
            process.stdout.close()
    record = {
        "input": {"seed": SEED, "sizes": SIZES, "components": COMPONENTS, "arms": BRANCHES,
                  "passes": PASSES, "adversarial_updates": ADVERSARIAL_UPDATES,
                  "repeats": REPEATS, "rounds": rounds, "python": platform.python_version(),
                  "cpus": os.cpu_count(), "machine": platform.machine(),
                  "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "layers": {}, "exponents": {}, "step_exponents": {}, "to_model_calls": calls,
        "contract": {"seed": SEED, "n": SIZES[-1], **checked} if checked else {},
        "importtime_self_us": {side: {
            command: {module: statistics.median(run[command][module] for run in runs)
                      for module in sorted(runs[0][command])}
            for command in IMPORTTIME} for side, runs in imports.items() if runs}}
    for layer in layers:
        ns = sizes[layer]
        record["layers"][layer] = {n: {
            "parent": times(timed[layer, n, "parent"]),
            "change": times(timed[layer, n, "change"]),
            "change/parent": ratio(timed[layer, n, "parent"], timed[layer, n, "change"]),
            "equal": len(digests[layer, n]) == 1} for n in ns}
        if len(ns) > 1 and isinstance(ns[0], int):
            record["exponents"][layer] = {side: exponent(
                timed[layer, ns[0], side], timed[layer, ns[-1], side], ns[0], ns[-1])
                for side in SIDES}
            record["step_exponents"][layer] = {side: step_exponents(
                {n: timed[layer, n, side] for n in ns}) for side in SIDES}
    return record


def report(record: dict) -> str:
    """The ratio table: one line per layer and n; on the line of a layer's
    last n, its exponents and its largest neighbouring-n exponents."""
    lines = ["layer, n: change/parent ratio [q1, q3], wins, parent and change ms, results, "
             "exponent (parent/change), largest step exponent (parent/change)"]
    for layer, by_n in record["layers"].items():
        k = record["exponents"].get(layer)
        top = {side: max(steps.values())
               for side, steps in record["step_exponents"].get(layer, {}).items()}
        for n, row in by_n.items():
            r, same = row["change/parent"], "equal" if row["equal"] else "DIFFERENT"
            lines.append(
                f"{layer:30} {n!s:>15} {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}] "
                f"{r['wins']:>3} {row['parent']['median_s'] * 1e3:9.1f} "
                f"{row['change']['median_s'] * 1e3:9.1f}  {same}"
                + (f"  {k['parent']:.3f}/{k['change']:.3f}  {top['parent']:.3f}/"
                   f"{top['change']:.3f}" if k and n == list(by_n)[-1] else ""))
    for side in SIDES if record.get("contract") else ():
        checked = record["contract"][side]
        lines.append(f"contract, seed {record['contract']['seed']}, n {record['contract']['n']}, "
                     f"{side}: {checked['bytes read']} bytes read, {checked['bytes written']} "
                     f"written; " + ", ".join(
                         f"{name} {'ok' if ok else 'FAILED'}"
                         for name, ok in checked["checks"].items()))
    return "\n".join(lines)


def main(argv: list) -> None:
    if argv[:1] == ["worker"]:
        worker(argv[1])
        return
    if len(argv) < 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "mfmkit").is_dir():
        raise SystemExit(f"{parent} holds no src/mfmkit")
    rounds = int(argv[2]) if len(argv) > 2 else ROUNDS
    layers = argv[3:] or list(LAYERS)
    unknown = [layer for layer in layers if layer not in LAYERS]
    if unknown:
        raise SystemExit(f"unknown layers: {', '.join(unknown)}; known: {', '.join(LAYERS)}")
    record = measure(parent, rounds, layers)
    Path(argv[1]).write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    print(report(record))
    if any(record["contract"][side]["failed"] for side in SIDES if record["contract"]):
        raise SystemExit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
