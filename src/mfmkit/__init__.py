"""Meta model, exchange format, and control-code toolkit for material flow modules.

The package splits along the workflow:

- model: the module meta model (general/status/function/interface/control)
  and its pure builder functions
- caex_io: the CAEX-subset XML exchange format (parse/serialize/to_model/
  from_model) plus external-document connectors
- mapping: permitted role and interface identifiers per meta-model class
- consistency: link integrity, stage completeness, discipline ownership,
  and the dependency report
- behavior: logistic behavior graphs, their flattened guard/action form,
  and token simulation
- sfc: binding behavior to module i/o, PLCopen-style emission, and program
  simulation
- exchange: the six-column parameter table round trip
- fixture: the T-junction example module
- cli: the `mfmkit` command

`import mfmkit` loads none of them. Each submodule is loaded on first use:
`mfmkit.parse`, `mfmkit.caex_io` and `from mfmkit import caex_io` import
`caex_io` then (PEP 562), so a command pays at start-up only for the
modules it runs. Every name in `__all__` is the object of its home module.
"""
from __future__ import annotations

import sys

#: The public names, by home module.
_EXPORTS = {
    "behavior": (
        "BehaviorGraph", "BehaviorGraphError", "BehaviorParseError", "ImlDocument",
        "SimulationError", "TraceEvent", "parse_behavior", "parse_trace", "simulate", "to_iml"),
    "caex_io": ("StructureError", "from_model", "parse", "serialize", "to_model"),
    "consistency": (
        "DependencyReport", "OwnershipError", "Violation", "check_completeness", "check_links",
        "dependency_report", "format_violation"),
    "exchange": ("ExchangeError", "export_table", "import_table"),
    "fixture": ("tjunction_model",),
    "mapping": (
        "AssignmentViolation", "MappingRuleTable", "class_path_of", "default_table",
        "validate_assignments"),
    "model": ("ModelError", "ModuleModel"),
    "sfc": (
        "BindingError", "SfcProgram", "emit_plcopen", "iml_to_sfc", "parse_plcopen",
        "simulate_sfc"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "paths", "xmlio"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home}"
    __import__(module)  # the import statement's own path, which -X importtime reports
    value = sys.modules[module] if home == name else getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
