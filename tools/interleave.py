"""Compare layers of two mfmkit trees on the same inputs, interleaved.

    python3 tools/interleave.py PARENT_CHECKOUT [ROUNDS] [LAYER ...]

PARENT_CHECKOUT is another checkout of this repository (for example a
`git archive` of the parent commit); the change is the checkout holding
this script. Each side runs in its own worker process that imports
`mfmkit` from its own `src/`, so each package also reads its own data files
(`resources.files("mfmkit")`). Both workers build the same inputs with this
checkout's `bench/gen.py`: seed 1, a quarter of the cells withheld, at each
size in SIZES.

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
REPEATS = 3
ROUNDS = 21

#: Each layer's call, given the inputs of one size (see _inputs).
LAYERS = {
    "parse": lambda m, i: m.caex_io.parse(i["data"]),
    "to_model": lambda m, i: m.caex_io.to_model(i["doc"]),
    "parse+to_model": lambda m, i: m.caex_io.to_model(m.caex_io.parse(i["data"])),
    "from_model": lambda m, i: m.caex_io.from_model(i["model"]),
    "check_links": lambda m, i: m.consistency.check_links(i["model"]),
    "check_completeness": lambda m, i: m.consistency.check_completeness(
        i["model"], "control_hmi_eng"),
    "dependency_report": lambda m, i: m.consistency.dependency_report(i["model"]),
    "export_table dump": lambda m, i: m.exchange.export_table(i["model"]),
    "export_table request": lambda m, i: m.exchange.export_table(i["model"], missing_only=True),
    "import_table filled request": lambda m, i: m.exchange.import_table(i["model"], i["filled"]),
}


class _Package:
    """The mfmkit modules one worker times."""

    def __init__(self) -> None:
        from mfmkit import caex_io, consistency, exchange
        self.caex_io, self.consistency, self.exchange = caex_io, consistency, exchange


def _inputs(package: _Package, n: int) -> dict:
    import gen  # bench/gen.py of the checkout running the comparison
    planted = gen.build_model(SEED, n, gen.Faults(withheld=n // 4), tag="layers")
    doc = package.caex_io.parse(planted.data)
    model, _warnings = package.caex_io.to_model(doc)
    filled, _params, _broken = gen.fill_request(planted, random.Random(f"layers-{n}"), 0)
    return {"data": planted.data, "doc": doc, "model": model, "filled": filled}


def worker(src: str) -> None:
    """Serve timing requests on stdin, one JSON line each: [layer, n]."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    package = _Package()
    inputs = {n: _inputs(package, n) for n in SIZES}
    for line in sys.stdin:
        layer, n = json.loads(line)
        call = LAYERS[layer]
        best = float("inf")
        for _ in range(REPEATS):
            gc.collect()
            start = perf_counter()
            result = call(package, inputs[n])
            best = min(best, perf_counter() - start)
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        del result
        print(json.dumps([best, digest]), flush=True)


class _Side:
    def __init__(self, checkout: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-B", __file__, "worker", str(checkout / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, layer: str, n: int) -> tuple[float, str]:
        self.process.stdin.write(json.dumps([layer, n]) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {layer!r} stopped")
        best, digest = json.loads(line)
        return best, digest

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
    times = {(layer, n, side): [] for layer in layers for n in SIZES for side in sides}
    digests: dict[tuple, set] = {}
    try:
        for number in range(rounds):
            order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
            for layer in layers:
                for n in SIZES:
                    for side in order:
                        best, digest = sides[side].time(layer, n)
                        times[layer, n, side].append(best)
                        digests.setdefault((layer, n), set()).add(digest)
            print(f"round {number + 1} of {rounds} done", file=sys.stderr, flush=True)
    finally:
        for side in sides.values():
            side.close()
    print(f"{'layer':28} {'n':>5} {'ratio':>6} {'q1':>6} {'q3':>6} {'wins':>7} "
          f"{'parent ms':>10} {'change ms':>10}  results")
    for layer in layers:
        for n in SIZES:
            before, after = times[layer, n, "parent"], times[layer, n, "change"]
            ratios = [b / a for a, b in zip(before, after)]
            q1, median, q3 = _quartiles(ratios)
            wins = sum(ratio < 1 for ratio in ratios)
            same = "equal" if len(digests[layer, n]) == 1 else "DIFFERENT"
            print(f"{layer:28} {n:>5} {median:6.3f} {q1:6.3f} {q3:6.3f} {wins:>3}/{rounds:<3} "
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
