"""Self-test of the benchmark, outside the tier-1 suite.

Usage (from the repository root):  python3 bench/selftest.py

Checks that one seed gives byte-identical inputs, that clean generated
models are canonical and pass the gate commands with no findings, that the
oracle flags deliberately corrupted outputs, and that span self times add
up to the operation's wall time.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from mfmkit import caex_io, cli  # noqa: E402

SCRATCH = ROOT / ".bench_work" / "selftest"
FAILURES: list = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def roundtrip(data: bytes) -> bytes:
    return caex_io.serialize(caex_io.parse(data))


def tree(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def run_op(op) -> workloads.Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return workloads.Result(code, out.getvalue(), err.getvalue())


def test_inputs_are_seeded() -> None:
    for name, cls in workloads.WORKLOADS.items():
        first = cls(7, SCRATCH / "a", roundtrip)
        second = cls(7, SCRATCH / "b", roundtrip)
        other = cls(8, SCRATCH / "c", roundtrip)
        same = tree(first.work) == tree(second.work)
        expect(same, f"{name}: seed 7 twice gives byte-identical inputs")
        expect(tree(first.work) != tree(other.work), f"{name}: seed 8 gives other inputs")
        for directory in ("a", "b", "c"):
            shutil.rmtree(SCRATCH / directory)


def test_clean_models_validate_clean() -> None:
    for seed, n in ((1, 0), (2, 7), (3, 40), (4, 400)):
        planted = gen.build_model(seed, n, gen.Faults())
        expect(roundtrip(planted.data) == planted.data,
               f"n={n}: generated file is canonical (serialize(parse(x)) == x)")
        model = SCRATCH / f"clean{n}.aml"
        model.parent.mkdir(parents=True, exist_ok=True)
        model.write_bytes(planted.data)
        for op in workloads.gate_ops(planted, model):
            result = run_op(op)
            expect(result.code == 0 and op.check(result) is None,
                   f"n={n}: {op.kind} exits 0 and matches the oracle")
            expect(workloads.rule_counts(workloads.records(result.out)) == {},
                   f"n={n}: {op.kind} reports no findings")


def test_oracle_flags_corruption() -> None:
    planted = gen.build_model(5, 60, gen.Faults(withheld=4))
    work = SCRATCH / "corrupt"
    model = work / "model.aml"
    model.parent.mkdir(parents=True, exist_ok=True)
    model.write_bytes(planted.data)
    table, merged = workloads.table_ops(
        planted, model, work, gen.random.Random(1), 0, roundtrip)
    export, ask, merge = table
    for op in table:
        expect(op.check(run_op(op)) is None, f"{op.kind}: clean output passes")

    dump = work / "dump.csv"
    rows = gen.table_rows(dump.read_bytes())
    path, name, value, *rest = rows[len(rows) // 2]
    rows[len(rows) // 2] = (path, name, value + "x", *rest)
    dump.write_bytes(gen.write_table(rows))
    expect(export.check(workloads.Result(0, "", "")) is not None,
           "export-table: one changed cell is flagged")

    data = merged.read_bytes()
    merged.write_bytes(data.replace(b"<Value>(", b"<Value>(1", 1))
    expect(merge.check(workloads.Result(0, "", "")) is not None,
           "import-table: a changed value in the merged file is flagged")
    merged.write_bytes(data.replace(b"  <", b"<", 1))
    expect(merge.check(workloads.Result(0, "", "")) is not None,
           "import-table: a non-canonical merged file is flagged")

    faulty = gen.build_model(6, 60, gen.Faults(illegal_roles=1, dangling=1))
    model.write_bytes(faulty.data)
    validate, links, _complete, report = workloads.gate_ops(faulty, model)
    result = run_op(validate)
    expect(validate.check(result) is None, "validate: planted faults are found")
    dropped = "\n".join(result.out.splitlines()[1:])
    expect(validate.check(workloads.Result(1, dropped, "")) is not None,
           "validate: a missing finding is flagged")
    expect(links.check(workloads.Result(0, "", "")) is not None,
           "link-check: exit 0 on a dangling reference is flagged")
    expect(report.check(workloads.Result(0, "", "")) == workloads.DEFECT_REPORT_DANGLING,
           "report: exit 0 on a dangling endpoint is named as the known defect")

    behavior = gen.build_behavior(faulty, gen.random.Random(2), 3)
    _text, events, _count = gen.build_trace(behavior, gen.random.Random(3), 5)
    check = workloads.check_simulate(events)
    expect(check(workloads.Result(0, "\n".join(events) + "\n", "")) is None,
           "simulate: the planted events pass")
    expect(check(workloads.Result(0, "\n".join(events[1:]) + "\n", "")) is not None,
           "simulate: a lost event is flagged")


def test_self_times_add_up() -> None:
    workload = workloads.GateLarge.__new__(workloads.GateLarge)
    planted = gen.build_model(9, 200, gen.Faults())
    model = SCRATCH / "traced.aml"
    model.write_bytes(planted.data)
    spans = tr.Tracer()
    tr.install(spans)
    workload.in_process = True
    runner = run.Runner(workload, spans)
    for op in workloads.gate_ops(planted, model):
        _seconds, _reference, label = runner.execute(op, traced=True)
        expect(label is None, f"traced {op.kind} still matches the oracle")
    total = sum(spans.end[root] - spans.start[root] for root, _op in spans.ops)
    summed = sum(spans.by_operation()[0].values())
    expect(abs(total - summed) < 1e-6 * max(1.0, total),
           f"self times add up to operation wall time ({summed:.6f} s of {total:.6f} s)")
    names = {spans.names[i] for i in spans.name}
    expect({"xmlio.parse_tree", "caex_io.to_model", "model.builders",
            "consistency.check_links", "consistency.check_completeness"} <= names,
           "the read path and the checks are traced")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    start = perf_counter()
    try:
        test_inputs_are_seeded()
        test_clean_models_validate_clean()
        test_oracle_flags_corruption()
        test_self_times_add_up()          # last: it leaves the layers wrapped
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(FAILURES)} failed checks, {perf_counter() - start:.1f} s")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
