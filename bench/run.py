"""The mfmkit benchmark: one workload, one seed, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload gate-large --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next `mfmkit` command
starts when the previous one has finished. With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it runs the same operations with
layer spans recorded and reports the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it name the
sample counts and every failed operation by the disagreement it showed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Reference seconds. On a host that shares its cores with other machines,
# the speed a process gets can swing by a third from one second to the next.
# A small fixed pure-Python loop, timed right before, during and right after
# an operation, measures that speed; the operation's wall time is scaled by
# REFERENCE_S over the loop's mean time. The drift cancels, while a change
# in the program's own work shows in full.
SAMPLE_ROUNDS = 6_000
# The loop's time on the reference machine (2-vCPU Xeon VM, Python 3.11).
REFERENCE_S = 0.0025
# Loop samples before and after each operation, and the interval between
# the samples taken during it (a timer signal interrupts the operation).
BRACKET_SAMPLES = 8
SAMPLE_EVERY_S = 0.05


def reference_loop() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    start = perf_counter()
    table: dict = {}
    for i in range(SAMPLE_ROUNDS):
        key = f"k{i & 511}"
        table[key] = table.get(key, 0) + i * i % 7
    return perf_counter() - start


class Clock:
    """Times intervals in wall seconds and in reference seconds."""

    def __init__(self):
        self.samples: list = []
        self.inside = 0.0
        self.loops: list = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        took = reference_loop()
        self.samples.append(took)
        self.inside += took

    def start(self, during: bool) -> None:
        """Sample before the interval, and during it unless `during` is false."""
        self.samples = [reference_loop() for _ in range(BRACKET_SAMPLES)]
        self.inside = 0.0
        if during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, wall: float) -> tuple[float, float]:
        """Wall seconds of the interval, samples taken out, and reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self.inside
        self.samples += [reference_loop() for _ in range(BRACKET_SAMPLES)]
        self.loops += self.samples
        return wall, wall * REFERENCE_S / statistics.fmean(self.samples)


def _percentile(samples: list, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Runner:
    """Executes operations in-process or as processes, optionally traced."""

    def __init__(self, workload, tracer=None, clock=None):
        self.workload = workload
        self.tracer = tracer
        self.clock = clock

    def execute(self, op, traced: bool = False):
        """Run one operation; returns its wall and reference seconds and failure label.

        Reference seconds are None unless the runner has a clock.
        """
        op.clear_outputs()
        gc.collect()    # each operation starts on a clean heap, as a fresh command would
        timed = self.clock is not None
        if timed:
            # A command process shares the core with this one, so a sample
            # taken while it runs would time the sharing, not the core.
            self.clock.start(during=self.workload.in_process)
        if self.workload.in_process:
            result, seconds = self._in_process(op, traced)
        else:
            result, seconds = self._process(op, traced)
        reference = None
        if timed:
            seconds, reference = self.clock.stop(seconds)
        try:
            label = op.check(result)
        except Exception as error:  # an unreadable output is a failed operation
            label = f"{op.kind}: output not checkable ({type(error).__name__}: {error})"
        return seconds, reference, label

    def _in_process(self, op, traced: bool):
        from mfmkit import cli
        from workloads import Result

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            root = self.tracer.begin_op(op, start) if traced else None
            try:
                code = cli.main(op.argv)
            except SystemExit as error:
                code = error.code if isinstance(error.code, int) else 2
            except Exception:
                code = -1
                traceback.print_exc()
            end = perf_counter()
            if traced:
                self.tracer.close(root, end)
        return Result(code, out.getvalue(), err.getvalue()), end - start

    def _process(self, op, traced: bool):
        from workloads import Result

        env = dict(os.environ, PYTHONPATH=str(SRC))
        spans = self.workload.work / "spans.json"
        if traced:
            command = [sys.executable, str(BENCH / "child.py"), str(spans), *op.argv]
        else:
            command = [sys.executable, "-m", "mfmkit", *op.argv]
        start = perf_counter()
        root = self.tracer.begin_op(op, start) if traced else None
        proc = subprocess.run(command, capture_output=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        end = perf_counter()
        if traced:
            recorded = json.loads(spans.read_text("utf-8"))
            self.tracer.adopt(recorded["spans"], recorded["counts"])
            self.tracer.close(root, end)
        return Result(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                      proc.stderr.decode("utf-8", "replace")), end - start


def setup(cls, seed: int, roundtrip):
    """Generate the inputs and warm up, repeatedly; returns the median time.

    At least SETUP_REPEATS times and SETUP_MIN_S seconds, so that a set-up
    of a fraction of a second still gets a steady median. Times are in
    reference seconds (see Clock).
    """
    clock = Clock()
    times = []
    workload = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        clock.start(during=cls.in_process)
        start = perf_counter()
        workload = cls(seed, WORK / f"{cls.__name__}-{seed}", roundtrip)
        runner = Runner(workload)
        for op in workload.warmup:
            runner.execute(op)
        times.append(clock.stop(perf_counter() - start)[1])
    return workload, statistics.median(times)


def measure(workload, seconds: float, traced: bool, tracer=None):
    """Run whole cycles, every unit once in order, for about `seconds`.

    Another cycle starts while it would end nearer to `seconds` than
    stopping now; at least one runs. So every run holds the same mix of
    operations.

    Returns one record per operation: (op, reference seconds, failure label,
    wall seconds), and the reference loop's times. Traced, every operation
    runs with spans recorded and no clock, so no sample lands inside a span
    and reference seconds are None. The first operation of each command also
    runs untraced just before: those pairs give the tracing overhead.
    """
    clock = Clock()
    runner = Runner(workload, tracer, None if traced else clock)
    cycle = [op for unit in workload.units for op in unit]
    records: list = []
    untraced_total = traced_total = 0.0
    paired: set = set()
    start = perf_counter()
    lap = 0.0
    while not records or perf_counter() - start + lap / 2 <= seconds:
        began = perf_counter()
        for op in cycle:
            pair = traced and op.kind not in paired
            if pair:
                untraced_total += runner.execute(op)[0]
            wall, reference, label = runner.execute(op, traced)
            if pair:
                paired.add(op.kind)
                traced_total += wall
            records.append((op, reference, label, wall))
        lap = perf_counter() - began
    overhead = traced_total / untraced_total if traced else 0.0
    return records, overhead, clock.loops


def end_to_end(records: list, setup_s: float, in_process: bool) -> dict:
    durations = [seconds for _op, seconds, _label, _wall in records]
    timed = sum(durations)
    verified = [op for op, _seconds, label, _wall in records if label is None]
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(verified) / timed, "1/s"),
        "op_p50_ms": (_percentile(durations, 50) * 1000, "ms"),
        "op_p95_ms": (_percentile(durations, 95) * 1000, "ms"),
        "components_per_s": (sum(op.n for op in verified) / timed, "1/s"),
        "events_per_s": (sum(op.events for op in verified) / timed, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "verified_share": (len(verified) / len(records), "ratio"),
    }


# Per-layer metrics: self time per operation, with a fitted exponent against
# model size for the layers whose cost grows with n.
SELF_LAYERS = (
    "xmlio.parse_tree", "caex_io.parse", "caex_io.to_model", "model.builders",
    "consistency.check_completeness", "consistency.check_links", "model.resolve",
    "consistency.dependency_report", "mapping.validate_assignments",
    "exchange.export_table", "exchange.import_table", "model.set_parameter",
    "caex_io.from_model", "caex_io.serialize", "behavior.parse_behavior",
    "behavior.parse_trace", "behavior.simulate", "sfc.iml_to_sfc", "sfc.emit_plcopen",
    "sfc.simulate_sfc",
)
EXP_LAYERS = (
    "xmlio.parse_tree", "caex_io.parse", "caex_io.to_model", "model.builders",
    "consistency.check_completeness", "consistency.check_links",
    "exchange.export_table", "exchange.import_table",
)
CALL_LAYERS = ("model.builders", "model.resolve", "model.set_parameter")
COUNTS = ("exchange.export_table.rows", "exchange.import_table.rows",
          "caex_io.serialize.bytes", "behavior.simulate.events", "sfc.simulate_sfc.events")


def _expat_seconds(path: Path, cache: dict) -> float:
    from xml.parsers import expat

    if path not in cache:
        data = path.read_bytes()
        times = []
        for _ in range(3):
            parser = expat.ParserCreate()
            start = perf_counter()
            parser.Parse(data, True)
            times.append(perf_counter() - start)
        cache[path] = statistics.median(times)
    return cache[path]


def _cli_probes() -> dict:
    """Interpreter start, `import mfmkit.cli` and default config load, fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import time; t = time.perf_counter(); import mfmkit.cli as c; "
             "u = time.perf_counter(); c.mapping.default_table(); c.cc.default_matrix(); "
             "c.cc.default_ownership(); print(u - t, time.perf_counter() - u)")
    starts, imports, configs = [], [], []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        starts.append(perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", probe], check=True, cwd=ROOT, env=env,
                             capture_output=True, text=True).stdout.split()
        imports.append(float(out[0]))
        configs.append(float(out[1]))
    return {"cli.interpreter_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(imports),
            "cli.config_load_s": statistics.median(configs)}


def per_layer(tracer, overhead: float) -> dict:
    import tracer as tr

    self_times, calls = tracer.by_operation()
    ops = tracer.ops
    count = len(ops)
    expat_cache: dict = {}
    metrics: dict = {}

    def mean(values) -> float:
        return sum(values) / count

    by_n = defaultdict(list)
    for root, op in ops:
        by_n[op.n].append(root)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (mean(self_times[(r, layer)] for r, _op in ops), "s")
    for layer in EXP_LAYERS:
        points = {n: sum(self_times[(r, layer)] for r in roots) / len(roots)
                  for n, roots in by_n.items()}
        metrics[f"{layer}.exp"] = (tr.exponent(points), "exponent")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (mean(calls[(r, layer)] for r, _op in ops), "count")
    for key in COUNTS:
        metrics[key] = (mean(tracer.counts[(r, key)] + op.counts.get(key, 0)
                             for r, op in ops), "count")
    metrics["cli.emit.self_s"] = (mean(self_times[(r, "cli.main")] for r, _op in ops), "s")
    metrics["expat.parse_s"] = (mean(
        sum(_expat_seconds(path, expat_cache) for path in op.models)
        for _r, op in ops), "s")
    for name, value in _cli_probes().items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfmkit" / "cli.py").is_file():
        print(f"bench: no mfmkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tracer as tr
    import workloads
    from mfmkit import caex_io

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    parse, serialize = caex_io.parse, caex_io.serialize

    def roundtrip(data: bytes) -> bytes:
        return serialize(parse(data))

    if not cls.in_process:
        # The command and the reference loop share one core, so the loop
        # measures the speed of the core the command runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans = tr.Tracer()
    if args.trace:
        tr.install(spans)
    try:
        workload, setup_s = setup(cls, args.seed, roundtrip)
        records, overhead, loops = measure(workload, args.seconds, bool(args.trace), spans)
        if args.trace:
            metrics = per_layer(spans, overhead)
            spans.write(WORK / f"spans-{args.workload}-{args.seed}.csv.gz")
        else:
            metrics = end_to_end(records, setup_s, workload.in_process)
    finally:
        shutil.rmtree(WORK / f"{cls.__name__}-{args.seed}", ignore_errors=True)

    failures = Counter(label for _op, _s, label, _wall in records if label is not None)
    known = {workloads.DEFECT_REPORT_DANGLING, workloads.DEFECT_IMPORT_INVALID,
             workloads.DEFECT_MOVE_BUDGET}
    by_kind = Counter(op.kind for op, _s, _label, _wall in records)
    print(f"bench: {args.workload} seed {args.seed}: {len(records)} operations "
          f"({', '.join(f'{k} {v}' for k, v in sorted(by_kind.items()))})")
    if loops:
        walls = [wall for _op, _s, _label, wall in records]
        print(f"bench: wall time: op p50 {_percentile(walls, 50) * 1000:.1f} ms, "
              f"{sum(walls):.2f} s in all; reference loop median "
              f"{statistics.median(loops) * 1000:.3f} ms, nominal {REFERENCE_S * 1000:.3f} ms")
    for label, number in sorted(failures.items()):
        tag = "defect" if label in known else "unexpected"
        print(f"bench: {tag}: {label}: {number} failed operations")
    print(json.dumps({
        "correct": not (set(failures) - known),
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
