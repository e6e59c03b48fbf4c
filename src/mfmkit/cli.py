"""Command line wiring the toolkit into the engineering workflow.

Subcommands:

  validate        structure, role/interface assignments, link integrity
  complete-check  stage completeness gate
  link-check      reference integrity only
  gen-plcopen     behavior graph to bound SFC skeleton
  simulate        token walk of a behavior over a trace, cross-checked
                  against the generated SFC
  export-table    parameter table export (dump or request form)
  import-table    merge a filled table back into a model file
  report          discipline dependency matrix and workload shares
  init-example    write the T-junction example set

Exit codes, stable across commands: 0 = clean, 1 = an error-severity
finding was reported (warnings and notes never set it), 2 = operational
failure (unreadable or unparsable file, bad flag or stage name). Output is
deterministic for identical inputs; `--format structured` switches the
human-readable lines to JSON records, one per line.

Rule table, coverage matrix, and ownership map resolve in this order: an
explicit flag path, then the matching file inside $MFMKIT_RULES_DIR (when
the variable is set and the file exists), then the embedded default.

Each command imports the modules it runs when it runs: reading and checking
a model loads `caex_io`, `consistency` and `model`, while `mapping`,
`exchange`, `behavior`, `sfc` and `fixture` are imported inside the
commands that use them. They stay attributes of this module (`cli.mapping`),
loaded on first access, because code outside the package reads them there:
the start-up probe of `bench/run.py` times the configuration load through
`cli.mapping` and `cli.cc`.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from importlib import resources
from pathlib import Path

from . import caex_io
from . import consistency as cc
from . import model as mm
from .caex_io import StructureError
from .xmlio import XmlError

#: Submodules that only some commands run: imported inside those commands,
#: and on first access as attributes of this module.
_ON_USE = frozenset({"behavior", "exchange", "fixture", "mapping", "sfc"})


def __getattr__(name: str):
    if name in _ON_USE:
        return getattr(sys.modules[__package__], name)  # the package imports it
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


RULES_DIR_ENV = "MFMKIT_RULES_DIR"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FAILURE = 2

FORMAT_TEXT = "text"
FORMAT_STRUCTURED = "structured"


class _CliFailure(Exception):
    """Operational failure: message for stderr, exit code 2."""


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------

def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise _CliFailure(f"cannot read {path}: {error.strerror or error}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise _CliFailure(f"cannot read {path}: {error}") from None


def _data_text(filename: str) -> str:
    return resources.files("mfmkit").joinpath(f"data/{filename}").read_text("utf-8")


#: Each config file by its flag's name: its file name (in $MFMKIT_RULES_DIR
#: and in the embedded data), the module holding its loader, the loader and
#: its error, and the error label. The module is imported when the file is
#: loaded.
_CONFIGS = {
    "rules": ("rules.txt", "mapping", "load_table", "RuleTableError", "bad rule table"),
    "matrix": ("coverage_matrix.txt", "consistency", "load_matrix", "MatrixError",
               "bad coverage matrix"),
    "ownership": ("ownership.txt", "consistency", "load_ownership", "OwnershipError",
                  "bad ownership map"),
}


def _config(args: argparse.Namespace, kind: str):
    """Load one config file: the flag's path, else the file inside
    $MFMKIT_RULES_DIR when the variable is set and the file exists, else the
    embedded default."""
    filename, home, loader, error_name, label = _CONFIGS[kind]
    module = getattr(sys.modules[__package__], home)
    load, error_type = getattr(module, loader), getattr(module, error_name)
    path = getattr(args, kind, None)
    rules_dir = os.environ.get(RULES_DIR_ENV)
    if not path and rules_dir and (Path(rules_dir) / filename).is_file():
        path = str(Path(rules_dir) / filename)
    text = _read_text(path) if path else _data_text(filename)
    try:
        return load(text)
    except error_type as error:
        raise _CliFailure(f"{label}: {error}") from None


def _write_bytes(path: Path, data: bytes) -> None:
    """Replace `path` by `data` in one step: write a temp file in the same
    directory, then rename it over `path`, whose permission bits it keeps.
    On failure the temp file is removed and the OSError raised; `path` is
    left as it was."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = open(temp, "xb")
    try:
        with out:
            out.write(data)
        if path.is_file():
            os.chmod(temp, stat.S_IMODE(path.stat().st_mode))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_output(path: str, data: bytes) -> None:
    try:
        _write_bytes(Path(path), data)
    except OSError as error:
        raise _CliFailure(f"cannot write {path}: {error.strerror or error}") from None


def _load_model(path: str, out: _Output, stream=None) -> mm.ModuleModel:
    """Read a model file and report the reader's warnings (to stdout unless
    `stream` names another stream)."""
    data = _read_bytes(path)
    try:
        model, warnings = caex_io.to_model(caex_io.parse(data))
    except (XmlError, StructureError) as error:
        raise _CliFailure(f"{path}: {error}") from None
    for warning in warnings:
        out.violation(path, warning, stream)
    return model


def _load_behavior(path: str, parse):
    """A behavior graph or a trace: the text file at `path` read by `parse`
    (behavior.parse_behavior or behavior.parse_trace)."""
    from . import behavior

    text = _read_text(path)
    try:
        return parse(text)
    except (behavior.BehaviorParseError, behavior.BehaviorGraphError) as error:
        raise _CliFailure(f"{path}: {error}") from None


def _load_program(args: argparse.Namespace, out: _Output, stream=None):
    """The model, behavior graph and trace (None without a `trace`
    argument) that `args` names, and the SFC program of the graph bound to
    the model: None after reporting a graph that does not bind."""
    from . import behavior, sfc

    model = _load_model(args.model, out, stream)
    graph = _load_behavior(args.behavior, behavior.parse_behavior)
    trace = _load_behavior(args.trace, behavior.parse_trace) if "trace" in args else None
    try:
        program = sfc.iml_to_sfc(behavior.to_iml(graph), model)
    except sfc.SfcError as error:
        out.violation(args.behavior, cc.Violation(
            cc.RULE_UNBOUND_SUBJECT, cc.SEVERITY_ERROR, model.id, str(error)))
        program = None
    return model, graph, trace, program


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


class _Output:
    """Where one command reports: each finding or result record is printed
    as a text line, or as a JSON record under `--format structured`, and the
    error-severity findings among them are counted. main reads the exit code
    from that count, so warnings and notes never set it."""

    def __init__(self, fmt: str):
        self.structured = fmt == FORMAT_STRUCTURED
        self.errors = 0

    def emit(self, record: dict, text: str, stream=None) -> None:
        """Print `record`, or `text` in the text format, to `stream` (stdout
        unless given)."""
        if record.get("severity") == cc.SEVERITY_ERROR:
            self.errors += 1
        print(_json(record) if self.structured else text, file=stream)

    def violation(self, file: str, violation: cc.Violation, stream=None, **fields) -> None:
        """A violation of `file`; `fields` stand in for its record's stage
        and parameter."""
        self.emit({
            "record": "violation", "file": file, "rule": violation.rule_id,
            "severity": violation.severity, "path": violation.element_path,
            "message": violation.message,
            **(fields or {"stage": violation.stage, "parameter": violation.parameter}),
        }, f"{file}: {cc.format_violation(violation)}", stream)

    def assignment(self, file: str, violation: mapping.AssignmentViolation) -> None:
        from . import mapping

        permitted = ", ".join(violation.permitted) or "none"
        if violation.kind == mapping.KIND_MISSING_ROLE:
            message = f"no role assigned; permitted: {permitted}"
        else:
            what = "role" if violation.kind == mapping.KIND_ILLEGAL_ROLE else "interface"
            message = (f"{what} '{violation.found_identifier}' not permitted; "
                       f"permitted: {permitted}")
        self.violation(file, cc.Violation(
            violation.kind, cc.SEVERITY_ERROR, violation.element_path, message),
            found=violation.found_identifier, permitted=list(violation.permitted))

    def note(self, file: str, rule: str, message: str) -> None:
        self.emit({"record": "note", "file": file, "rule": rule, "message": message},
                  f"{file}: INFO {rule}: {message}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
# Each command reports through `out` and returns nothing; a _CliFailure is
# an operational failure.

def _cmd_validate(args: argparse.Namespace, out: _Output) -> None:
    from . import mapping

    table = _config(args, "rules")
    for file in args.files:
        model = _load_model(file, out)
        for assignment in mapping.validate_assignments(model, table):
            out.assignment(file, assignment)
        for violation in cc.check_links(model):
            out.violation(file, violation)
        for cls in mapping.uncovered_classes(model, table):
            out.note(file, cc.RULE_UNCOVERED_CLASS,
                     f"class {cls} is not covered by the rule table")


def _cmd_complete_check(args: argparse.Namespace, out: _Output) -> None:
    if args.stage not in mm.STAGES:
        raise _CliFailure(
            f"unknown stage {args.stage!r}; expected one of {', '.join(mm.STAGES)}")
    matrix = _config(args, "matrix")
    model = _load_model(args.file, out)
    for violation in cc.check_completeness(model, args.stage, matrix):
        out.violation(args.file, violation)


def _cmd_link_check(args: argparse.Namespace, out: _Output) -> None:
    for file in args.files:
        for violation in cc.check_links(_load_model(file, out)):
            out.violation(file, violation)


def _cmd_gen_plcopen(args: argparse.Namespace, out: _Output) -> None:
    from . import sfc

    program = _load_program(args, out)[-1]
    if program is None:
        return
    _write_output(args.out, sfc.emit_plcopen(program))
    out.emit({
        "record": "plcopen",
        "out": args.out,
        "steps": len(program.steps),
        "transitions": len(program.transitions),
        "divergences": [[step, count] for step, count in sfc.divergences(program)],
    }, f"{args.out}: {len(program.steps)} steps, {len(program.transitions)} transitions")


def _cmd_simulate(args: argparse.Namespace, out: _Output) -> None:
    from . import behavior, sfc

    # stdout carries the event list, so the reader's warnings go to stderr
    model, graph, trace, program = _load_program(args, out, sys.stderr)
    if program is None:
        return
    try:
        events = behavior.simulate(graph, trace)
        replayed = sfc.simulate_sfc(program, trace, model)
    except behavior.SimulationError as error:
        out.violation(args.trace, cc.Violation(
            cc.RULE_AMBIGUOUS_BRANCH, cc.SEVERITY_ERROR, graph.id or model.id, str(error)))
        return
    except sfc.BindingError as error:
        out.violation(args.trace, cc.Violation(
            cc.RULE_UNBOUND_SUBJECT, cc.SEVERITY_ERROR, model.id, str(error)))
        return
    if events != replayed:
        out.violation(args.behavior, cc.Violation(
            cc.RULE_PIPELINE_MISMATCH, cc.SEVERITY_ERROR, graph.id or model.id,
            "graph walk and generated program emit different event sequences"))
        return
    # Both simulators emit one Action object per (kind, subject), so the
    # comparison above meets identical objects, and each is rendered once.
    if out.structured:
        def render(e: behavior.Action) -> str:
            return _json({"record": "event", "kind": e.kind, "subject": e.subject})
    else:
        render = behavior.format_event
    distinct = dict(zip(map(id, events), events))
    lines = {key: f"{render(event)}\n" for key, event in distinct.items()}
    sys.stdout.write("".join(map(lines.__getitem__, map(id, events))))


def _cmd_export_table(args: argparse.Namespace, out: _Output) -> None:
    from . import exchange

    # stdout may carry the table, so the reader's warnings go to stderr
    model = _load_model(args.file, out, sys.stderr)
    matrix = _config(args, "matrix")
    try:
        data = exchange.export_table(
            model, stage=args.stage, cls=args.cls,
            missing_only=args.missing_only, matrix=matrix)
    except exchange.ExchangeError as error:
        raise _CliFailure(str(error)) from None
    if args.out:
        _write_output(args.out, data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_import_table(args: argparse.Namespace, out: _Output) -> None:
    from . import exchange

    model = _load_model(args.file, out)
    table = _read_bytes(args.table)
    ownership = _config(args, "ownership")
    try:
        updated, violations = exchange.import_table(model, table, ownership=ownership)
    except exchange.ExchangeError as error:
        raise _CliFailure(f"{args.table}: {error}") from None
    for violation in violations:
        out.violation(args.table, violation)
    _write_output(args.out, caex_io.serialize(caex_io.from_model(updated)))


def _cmd_report(args: argparse.Namespace, out: _Output) -> None:
    model = _load_model(args.file, out)
    ownership = _config(args, "ownership")
    try:
        report = cc.dependency_report(model, ownership)
    except cc.OwnershipError as error:
        out.violation(args.file, cc.Violation(
            cc.RULE_UNOWNABLE_ENDPOINT, cc.SEVERITY_ERROR, model.id, str(error)))
        return
    text = not out.structured
    if text:
        print("dependencies (cross-references between disciplines):")
        if report.total_refs == 0:
            print("  no references")
    for source, target, count, share in report.ref_shares():
        out.emit({"record": "dependency", "source": source, "target": target,
                  "refs": count, "share": round(share, 6)},
                 f"  {source} -> {target}: {count} ({share:.3f})")
    if text:
        print(f"  total: {report.total_refs}")
        print("workload (populated parameters per discipline):")
    for discipline, count, share in report.workload_shares():
        out.emit({"record": "workload", "discipline": discipline,
                  "parameters": count, "share": round(share, 6)},
                 f"  {discipline}: {count} ({share:.3f})")
    out.emit({"record": "summary", "total_refs": report.total_refs,
              "total_params": report.total_params}, f"  total: {report.total_params}")


def _cmd_init_example(args: argparse.Namespace, out: _Output) -> None:
    from . import fixture, mapping

    target = Path(args.dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        if any(target.iterdir()) and not args.force:
            raise _CliFailure(f"{args.dir} is not empty (use --force to overwrite)")
        files = {
            "model.aml": caex_io.serialize(caex_io.from_model(fixture.tjunction_model())),
            "behavior.bhv": fixture.behavior_text().encode("utf-8"),
            "traces/route-1.trace": fixture.trace_text("route-1").encode("utf-8"),
            "traces/route-2.trace": fixture.trace_text("route-2").encode("utf-8"),
            "rules.txt": mapping.save_table(mapping.default_table()).encode("utf-8"),
            "coverage_matrix.txt": _data_text("coverage_matrix.txt").encode("utf-8"),
            "ownership.txt": _data_text("ownership.txt").encode("utf-8"),
        }
        for name, data in files.items():
            path = target / name
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_bytes(path, data)
            print(f"wrote {path}")
    except OSError as error:
        raise _CliFailure(
            f"cannot write into {args.dir}: {error.strerror or error}") from None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=(FORMAT_TEXT, FORMAT_STRUCTURED),
                        default=FORMAT_TEXT, help="output style (default: text)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfmkit",
        description="Validate, exchange, and generate control code for "
                    "material flow module models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structure, assignments, and link integrity")
    p.add_argument("files", nargs="+", metavar="model.aml")
    p.add_argument("--rules", help="rule table file (default: embedded)")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("complete-check", help="stage completeness gate")
    p.add_argument("file", metavar="model.aml")
    p.add_argument("--stage", required=True, help="stage to gate on")
    p.add_argument("--matrix", help="coverage matrix file (default: embedded)")
    _add_format(p)
    p.set_defaults(func=_cmd_complete_check)

    p = sub.add_parser("link-check", help="cross-reference integrity only")
    p.add_argument("files", nargs="+", metavar="model.aml")
    _add_format(p)
    p.set_defaults(func=_cmd_link_check)

    p = sub.add_parser("gen-plcopen", help="generate the bound SFC skeleton")
    p.add_argument("model", metavar="model.aml")
    p.add_argument("behavior", metavar="behavior.bhv")
    p.add_argument("-o", "--out", required=True, metavar="skeleton.xml")
    _add_format(p)
    p.set_defaults(func=_cmd_gen_plcopen)

    p = sub.add_parser("simulate", help="replay a trace through graph and SFC")
    p.add_argument("model", metavar="model.aml")
    p.add_argument("behavior", metavar="behavior.bhv")
    p.add_argument("trace", metavar="events.trace")
    _add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export-table", help="export a parameter table")
    p.add_argument("file", metavar="model.aml")
    p.add_argument("--stage", default="", help="limit to one stage's cells")
    p.add_argument("--cls", default="", help="limit to one sub-tree")
    p.add_argument("--missing-only", action="store_true",
                   help="request form: only unfilled cells")
    p.add_argument("--matrix", help="coverage matrix file (default: embedded)")
    p.add_argument("-o", "--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export_table, format=FORMAT_TEXT)

    p = sub.add_parser("import-table", help="merge a filled table into a model")
    p.add_argument("file", metavar="model.aml")
    p.add_argument("table", metavar="table.csv")
    p.add_argument("-o", "--out", required=True, metavar="merged.aml")
    p.add_argument("--ownership", help="ownership map file (default: embedded)")
    _add_format(p)
    p.set_defaults(func=_cmd_import_table)

    p = sub.add_parser("report", help="dependency matrix and workload shares")
    p.add_argument("file", metavar="model.aml")
    p.add_argument("--ownership", help="ownership map file (default: embedded)")
    _add_format(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("init-example", help="write the T-junction example set")
    p.add_argument("dir", metavar="directory")
    p.add_argument("--force", action="store_true", help="overwrite existing files")
    p.set_defaults(func=_cmd_init_example, format=FORMAT_TEXT)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Output(args.format)
    try:
        args.func(args, out)
    except _CliFailure as failure:
        print(f"mfmkit: {failure}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_FINDINGS if out.errors else EXIT_CLEAN


if __name__ == "__main__":
    raise SystemExit(main())
