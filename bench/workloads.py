"""The four workloads: their inputs, their operations and each operation's oracle.

An operation is one `mfmkit` command. Every operation carries a check that
compares what the command did with what the generator planted and returns
None when they agree, or a one-line label naming the disagreement. A failed
operation is counted, never raised or skipped.
"""
from __future__ import annotations

import json
import random
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import gen

STAGE = "control_hmi_eng"

# Labels for the disagreements the program is known to produce; any other
# disagreement is labeled by command and detail.
DEFECT_REPORT_DANGLING = "report exits 0 on dangling endpoints"
DEFECT_IMPORT_INVALID = "import-table drops an unreadable position without a warning"
DEFECT_MOVE_BUDGET = "simulate move budget is counted over the whole trace, not per cascade"

# The documented events of the init-example demo traces (docs/behavior.md).
DEMO_EVENTS = {
    "route-1": ["activate Conv1", "deactivate Conv1"],
    "route-2": ["activate Conv1", "activate Conv2", "activate Switch",
                "deactivate Conv1", "deactivate Conv2", "deactivate Switch"],
}
DEMO_FILES = ("model.aml", "behavior.bhv", "traces/route-1.trace", "traces/route-2.trace",
              "rules.txt", "coverage_matrix.txt", "ownership.txt")


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """One command, what it reads, and how its output is judged."""

    kind: str
    argv: list
    check: object                     # Callable[[Result], str | None]
    n: int = 0                        # components of the model it reads
    events: int = 0                   # trace events it must replay
    models: list = field(default_factory=list)   # model files it reads
    outputs: list = field(default_factory=list)  # files or directories it writes
    counts: dict = field(default_factory=dict)   # per-layer work counts

    def clear_outputs(self) -> None:
        """Remove what an earlier run wrote, so a check never reads stale output."""
        for path in self.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


# ---------------------------------------------------------------------------
# Output readers
# ---------------------------------------------------------------------------

def records(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def rule_counts(recs: list, severity: str = "error") -> dict:
    counts: dict = {}
    for rec in recs:
        if rec.get("record") == "violation" and rec.get("severity") == severity:
            counts[rec["rule"]] = counts.get(rec["rule"], 0) + 1
    return counts


def warned(result: Result, rule: str, path: str) -> bool:
    """Whether the command warned its user about `rule` at `path`, in any format."""
    if any(r.get("rule") == rule and r.get("path") == path and r.get("severity") == "warning"
           for r in records(result.out)):
        return True
    return any(f"WARNING {rule} {path}:" in line
               for line in (result.out + result.err).splitlines())


def read_params(data: bytes) -> dict:
    """Non-empty parameters of a module file, read with ElementTree alone."""
    root = ET.fromstring(data)
    module = root.find("InstanceHierarchy/InternalElement")
    mid = module.get("Name")
    params: dict = {}

    def walk(element, path: str) -> None:
        for attribute in element.findall("Attribute"):
            value = attribute.findtext("Value") or ""
            if value:
                params[(path, attribute.get("Name"))] = (value, attribute.get("Unit", ""))
        for child in element.findall("InternalElement"):
            walk(child, f"{path}/{child.get('Name')}")

    for child in module.findall("InternalElement"):
        if child.get("Name") != "documents":
            walk(child, f"{mid}/{child.get('Name')}")
    return params


def _expect(result: Result, code: int, counts: dict, what: str) -> str | None:
    if result.err and "Traceback" in result.err:
        return f"{what}: traceback: {result.err.strip().splitlines()[-1]}"
    if result.code != code:
        return f"{what}: exit {result.code}, expected {code}"
    found = rule_counts(records(result.out))
    if found != counts:
        return f"{what}: findings {found}, expected {counts}"
    return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_validate(planted: gen.Planted):
    code, counts = planted.validate_expect()
    notes = 3 if planted.sensors or planted.actuators else 2
    warnings = {"invalid-value": len(planted.unreadable)} if planted.unreadable else {}

    def check(result: Result) -> str | None:
        bad = _expect(result, code, counts, "validate")
        if bad:
            return bad
        found = rule_counts(records(result.out), "warning")
        if found != warnings:
            return f"validate: warnings {found}, expected {warnings}"
        found = sum(1 for r in records(result.out) if r.get("record") == "note")
        return None if found == notes else f"validate: {found} notes, expected {notes}"
    return check


def check_links(planted: gen.Planted):
    code, counts = planted.link_expect()
    return lambda result: _expect(result, code, counts, "link-check")


def check_complete(planted: gen.Planted):
    code, counts = planted.complete_expect()
    return lambda result: _expect(result, code, counts, "complete-check")


def check_report(planted: gen.Planted):
    code, counts = planted.report_expect()
    cells = planted.dependency_cells()
    work = planted.workload()

    def check(result: Result) -> str | None:
        if code == 1 and result.code == 0:
            return DEFECT_REPORT_DANGLING
        bad = _expect(result, code, counts, "report")
        if bad or code:
            return bad
        recs = records(result.out)
        found_cells = {(r["source"], r["target"]): r["refs"]
                       for r in recs if r["record"] == "dependency"}
        found_work = {r["discipline"]: r["parameters"]
                      for r in recs if r["record"] == "workload"}
        if found_cells != cells:
            return "report: dependency cells differ from the planted cross references"
        if found_work != work:
            return "report: workload counts differ from the planted parameters"
        return None
    return check


def check_table(path: Path, expected: list, op: Op, what: str):
    def check(result: Result) -> str | None:
        if result.code != 0:
            return f"{what}: exit {result.code}, expected 0"
        rows = gen.table_rows(path.read_bytes())
        op.counts["exchange.export_table.rows"] = len(rows)
        if rows != expected:
            return f"{what}: {len(rows)} rows differ from the {len(expected)} planted"
        return None
    return check


def check_import(planted: gen.Planted, merged: Path, params: dict, malformed: int,
                 roundtrip):
    counts = {"invalid-value": malformed} if malformed else {}

    def check(result: Result) -> str | None:
        bad = _expect(result, 1 if malformed else 0, counts, "import-table")
        if bad:
            return bad
        # docs/rules.md: the tolerant reader drops what it cannot keep and reports it.
        for path, _name, _value, _unit in planted.unreadable:
            if not warned(result, "invalid-value", path):
                return DEFECT_IMPORT_INVALID
        data = merged.read_bytes()
        if read_params(data) != params:
            return "import-table: merged parameters differ from the filled table"
        if roundtrip(data) != data:
            return "import-table: serialize(parse(merged)) differs from the merged file"
        return None
    return check


def check_simulate(expected: list):
    def check(result: Result) -> str | None:
        if result.code == 1 and "does not terminate" in result.out:
            # Every planted pass ends with the token back at the entry step,
            # waiting for the next unit, so no single cascade runs away.
            return DEFECT_MOVE_BUDGET
        if result.code != 0:
            return f"simulate: exit {result.code}, expected 0"
        if result.out.splitlines() != expected:
            return "simulate: events differ from the planted walk"
        return None
    return check


def check_plcopen(out: Path, behavior: gen.Behavior):
    def check(result: Result) -> str | None:
        if result.code != 0:
            return f"gen-plcopen: exit {result.code}, expected 0"
        recs = [r for r in records(result.out) if r.get("record") == "plcopen"]
        want = {"steps": behavior.steps, "transitions": behavior.transitions,
                "divergences": [["idle", behavior.branches]]}
        if len(recs) != 1 or {k: recs[0].get(k) for k in want} != want:
            return "gen-plcopen: structure differs from the planted graph"
        root = ET.fromstring(out.read_bytes())
        if len(root.findall(".//step")) != behavior.steps:
            return "gen-plcopen: written skeleton has the wrong number of steps"
        return None
    return check


def check_demo_simulate(route: str):
    def check(result: Result) -> str | None:
        if result.code != 0:
            return f"simulate demo {route}: exit {result.code}, expected 0"
        if result.out.splitlines() != DEMO_EVENTS[route]:
            return f"simulate demo {route}: events differ from the documented walk"
        return None
    return check


def check_clean(what: str):
    return lambda result: (None if result.code == 0
                           else f"{what}: exit {result.code}, expected 0")


def check_init(directory: Path):
    def check(result: Result) -> str | None:
        if result.code != 0:
            return f"init-example: exit {result.code}, expected 0"
        missing = [name for name in DEMO_FILES if not (directory / name).is_file()]
        wrote = sum(1 for line in result.out.splitlines() if line.startswith("wrote "))
        if missing or wrote != len(DEMO_FILES):
            return f"init-example: missing {missing}, {wrote} wrote lines"
        return None
    return check


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------

def _write(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


def gate_ops(planted: gen.Planted, model: Path) -> list:
    m = str(model)
    fmt = ["--format", "structured"]
    common = {"n": planted.n, "models": [model]}
    return [
        Op("validate", ["validate", m, *fmt], check_validate(planted), **common),
        Op("link-check", ["link-check", m, *fmt], check_links(planted), **common),
        Op("complete-check", ["complete-check", m, "--stage", STAGE, *fmt],
           check_complete(planted), **common),
        Op("report", ["report", m, *fmt], check_report(planted), **common),
    ]


def simulate_op(planted, model: Path, bhv: Path, trace: Path, expected: list,
                events: int) -> Op:
    return Op("simulate", ["simulate", str(model), str(bhv), str(trace)],
              check_simulate(expected), n=planted.n, events=events, models=[model])


def plcopen_op(planted, model: Path, bhv: Path, behavior: gen.Behavior, out: Path) -> Op:
    return Op("gen-plcopen", ["gen-plcopen", str(model), str(bhv), "-o", str(out),
                              "--format", "structured"],
              check_plcopen(out, behavior), n=planted.n, models=[model], outputs=[out])


def table_ops(planted: gen.Planted, model: Path, work: Path, rng: random.Random,
              malformed: int, roundtrip) -> tuple[list, Path]:
    """export dump, export request, import filled request; returns the merged path."""
    dump, request = work / "dump.csv", work / "request.csv"
    filled_data, merged_params, broken = gen.fill_request(planted, rng, malformed)
    filled = _write(work / "filled.csv", filled_data)
    merged = work / "merged.aml"
    common = {"n": planted.n, "models": [model]}
    export = Op("export-table", ["export-table", str(model), "-o", str(dump)], None,
                outputs=[dump], **common)
    export.check = check_table(dump, gen.expected_dump(planted), export, "export-table")
    ask = Op("export-table --missing-only",
             ["export-table", str(model), "--missing-only", "-o", str(request)], None,
             outputs=[request], **common)
    ask.check = check_table(request, gen.expected_request(planted), ask,
                            "export-table --missing-only")
    merge = Op("import-table",
               ["import-table", str(model), str(filled), "-o", str(merged),
                "--format", "structured"],
               check_import(planted, merged, merged_params, broken, roundtrip),
               outputs=[merged],
               counts={"exchange.import_table.rows": len(planted.open_cells)}, **common)
    return [export, ask, merge], merged


def _behavior_files(planted, work: Path, rng: random.Random, branches: int, passes: int):
    behavior = gen.build_behavior(planted, rng, branches)
    bhv = _write(work / "behavior.bhv", behavior.text)
    text, expected, events = gen.build_trace(behavior, rng, passes)
    trace = _write(work / "reference.trace", text)
    return behavior, bhv, trace, expected, events


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Three 800-component models give op_p50_ms enough samples in one cycle.
LARGE_SIZES = (800, 800, 800, 3200)
# The seed picks which of the equal-sized models carries the faults, so every
# seed verifies the same number of components.
FAULTY_CHOICES = (0, 1, 2)
# Transport units in the short reference trace that gate-large, table-merge and
# cli-small replay per model, so that every workload measures events_per_s.
# The large workloads replay it on their 800-component models only: on 3200
# components the replay would time the read path once more, for 5 s a cycle.
REFERENCE_PASSES = 40
REFERENCE_MAX_N = 800
# Transport units per behavior-replay trace: 10^3 to 10^5 trace events.
REPLAY_PASSES = (170, 425, 1070, 2690, 6760, 17000)
REPLAY_MODELS = 3
REPLAY_BRANCHES = 12
# (components, carries faults) per cli-small model. The seed decides the
# contents and where the faults sit, so every seed runs the same command mix.
SMALL_MODELS = ((0, False), (12, False), (24, True), (40, False))


class Workload:
    """Inputs for one seed: a list of units, each a list of operations.

    A cycle runs every unit once, in order. `in_process` workloads call
    `mfmkit.cli.main` directly; the others start one `mfmkit` process per
    operation.
    """

    in_process = True

    def __init__(self, seed: int, work: Path, roundtrip):
        self.seed = seed
        self.work = work
        self.roundtrip = roundtrip
        self.rng = random.Random(f"{type(self).__name__}-{seed}")
        self.units: list = []
        self.warmup: list = []

    def model(self, planted: gen.Planted, name: str) -> Path:
        return _write(self.work / name / "model.aml", planted.data)


class GateLarge(Workload):
    """validate, link-check, complete-check, report and simulate per model file."""

    def __init__(self, seed, work, roundtrip):
        super().__init__(seed, work, roundtrip)
        faulty = self.rng.choice(FAULTY_CHOICES)
        ops = []
        for i, n in enumerate(LARGE_SIZES):
            faults = gen.Faults()
            if i == faulty:
                faults = gen.Faults(illegal_roles=self.rng.randint(1, 2),
                                    dangling=self.rng.randint(1, 2),
                                    withheld=self.rng.randint(1, 3), unreadable=1)
            ops += self._model_ops(gen.build_model(seed, n, faults, tag=f"g{i}x"), f"m{i}")
        self.units = [ops]
        self.warmup = self._model_ops(gen.build_model(seed, 40, gen.Faults(), tag="gw"), "warm")

    def _model_ops(self, planted, name):
        model = self.model(planted, name)
        ops = gate_ops(planted, model)
        if planted.n <= REFERENCE_MAX_N:
            _behavior, bhv, trace, expected, events = _behavior_files(
                planted, self.work / name, self.rng, 4, REFERENCE_PASSES)
            ops.append(simulate_op(planted, model, bhv, trace, expected, events))
        return ops


class TableMerge(Workload):
    """export dump and request, import the filled request, re-read the merged file."""

    def __init__(self, seed, work, roundtrip):
        super().__init__(seed, work, roundtrip)
        faulty = self.rng.choice(FAULTY_CHOICES)
        ops = []
        for i, n in enumerate(LARGE_SIZES):
            faults = gen.Faults(withheld=n // 4, unreadable=1 if i == faulty else 0)
            planted = gen.build_model(seed, n, faults, tag=f"t{i}x")
            ops += self._model_ops(planted, f"m{i}", 1 if i == faulty else 0)
        self.units = [ops]
        planted = gen.build_model(seed, 40, gen.Faults(withheld=5), tag="tw")
        self.warmup = self._model_ops(planted, "warm", 0)

    def _model_ops(self, planted, name, malformed):
        model = self.model(planted, name)
        ops, merged = table_ops(planted, model, self.work / name, self.rng,
                                malformed, self.roundtrip)
        if planted.n <= REFERENCE_MAX_N:
            _behavior, bhv, trace, expected, events = _behavior_files(
                planted, self.work / name, self.rng, 4, REFERENCE_PASSES)
            ops.append(simulate_op(planted, merged, bhv, trace, expected, events))
        return ops


class BehaviorReplay(Workload):
    """gen-plcopen once and simulate over a ladder of trace lengths per graph."""

    def __init__(self, seed, work, roundtrip):
        super().__init__(seed, work, roundtrip)
        self.units = [self._model_ops(i, REPLAY_PASSES) for i in range(REPLAY_MODELS)]
        self.warmup = self._model_ops("w", (20,))

    def _model_ops(self, i, ladder):
        planted = gen.build_model(self.seed, 200, gen.Faults(), tag=f"b{i}x")
        name = f"m{i}"
        model = self.model(planted, name)
        behavior = gen.build_behavior(planted, self.rng, REPLAY_BRANCHES)
        bhv = _write(self.work / name / "behavior.bhv", behavior.text)
        ops = [plcopen_op(planted, model, bhv, behavior, self.work / name / "skeleton.xml")]
        for passes in ladder:
            text, expected, events = gen.build_trace(behavior, self.rng, passes)
            trace = _write(self.work / name / f"p{passes}.trace", text)
            ops.append(simulate_op(planted, model, bhv, trace, expected, events))
        return ops


class CliSmall(Workload):
    """Every subcommand as its own process over small models and the demo set."""

    in_process = False

    def __init__(self, seed, work, roundtrip):
        super().__init__(seed, work, roundtrip)
        ops = self._demo_ops()
        for i, (n, faulty) in enumerate(SMALL_MODELS):
            ops += self._model_ops(i, n, faulty)
        # One unit: a run ends on a whole cycle, so every run has the same
        # share of simulations and of faulty models.
        self.units = [ops]
        self.warmup = self._model_ops("w", 12, False)[:1]

    def _demo_ops(self):
        demo = self.work / "demo"
        model, bhv = demo / "model.aml", demo / "behavior.bhv"
        fmt = ["--format", "structured"]
        ops = [Op("init-example", ["init-example", str(demo)], check_init(demo),
                  outputs=[demo]),
               Op("validate", ["validate", str(model)], check_clean("validate demo"),
                  n=10, models=[model]),
               Op("complete-check", ["complete-check", str(model), "--stage", STAGE, *fmt],
                  check_clean("complete-check demo"), n=10, models=[model])]
        for route in DEMO_EVENTS:
            trace = demo / "traces" / f"{route}.trace"
            ops.append(Op("simulate", ["simulate", str(model), str(bhv), str(trace)],
                          check_demo_simulate(route), n=10, models=[model],
                          events=len(trace_lines(route))))
        return ops

    def _model_ops(self, i, n, faulty):
        withheld = max(1, n // 8)
        faults = gen.Faults(withheld=withheld)
        if faulty:
            faults = gen.Faults(illegal_roles=1, dangling=1, withheld=withheld, unreadable=1)
        planted = gen.build_model(self.seed, n, faults, tag=f"s{i}x")
        name = f"m{i}"
        model = self.model(planted, name)
        ops = gate_ops(planted, model)
        table, _merged = table_ops(
            planted, model, self.work / name, self.rng,
            1 if faulty else 0, self.roundtrip)
        ops += table
        if n >= 20:               # enough sensors and actuators for a routing graph
            behavior, bhv, trace, expected, events = _behavior_files(
                planted, self.work / name, self.rng, 2, REFERENCE_PASSES)
            ops.append(plcopen_op(planted, model, bhv, behavior,
                                  self.work / name / "skeleton.xml"))
            ops.append(simulate_op(planted, model, bhv, trace, expected, events))
        return ops


def trace_lines(route: str) -> list:
    """Event lines of a shipped demo trace (the demo set's stimulus)."""
    from importlib import resources
    text = resources.files("mfmkit").joinpath(f"data/traces/{route}.trace").read_text("utf-8")
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


WORKLOADS = {
    "gate-large": GateLarge,
    "table-merge": TableMerge,
    "cli-small": CliSmall,
    "behavior-replay": BehaviorReplay,
}
