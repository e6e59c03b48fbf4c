"""The contract of every frozen record class in `mfmkit`: what a frozen,
slotted dataclass gives it (fields, replace, astuple, equality, hashing,
repr, frozen attributes, pickling, copying, pattern matching) and the
signatures of the builders made from the model's records.

The classes are found by scanning the package's modules. Runs under pytest
and as a plain script (`PYTHONPATH=src python tests/test_records.py`), for
interpreters without pytest.
"""
from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import MISSING, FrozenInstanceError, astuple, fields, is_dataclass, replace

import mfmkit
from mfmkit import behavior, consistency, mapping, sfc, xmlio
from mfmkit import model as mm

#: Every frozen record class by module, with its fields in order.
RECORDS = {
    "mfmkit.behavior": {
        "Condition": "kind subject",
        "Action": "kind subject",
        "BehaviorStep": "id description guards actions",
        "BehaviorGraph": "id steps edges loop_edges",
        "TraceEvent": "kind subject value",
        "ImlEntry": "step_id description guard_expr guards actions predecessors",
        "ImlDocument": "entries source_graph_id loop_edges",
    },
    "mfmkit.consistency": {
        "Violation": "rule_id severity element_path message stage parameter",
        "StageCoverageMatrix": "rows",
        "OwnershipMap": "rules",
        "DependencyReport": "cells total_refs workload total_params",
    },
    "mfmkit.mapping": {
        "RuleEntry": "class_path permitted_interfaces permitted_roles",
        "MappingRuleTable": "entries",
        "AssignmentViolation": "element_path found_identifier permitted kind",
    },
    "mfmkit.model": {
        "Parameter": "name value unit",
        "ExternalRef": "name interface_class ref_uri",
        "Annotation": "roles external_refs",
        "Element": "annotation",
        "Identification": "annotation name identifier module_type",
        "GeneralDescription": "annotation identification main_dimensions static_attributes",
        "RuntimeVariable": "annotation name data_type unit description",
        "StatusDescription": "annotation runtime_variables",
        "LogisticFunction": "annotation name category behavior_ref",
        "Route": "annotation from_port to_port priority",
        "FunctionDescription": "annotation logistic_functions routes",
        "Port": "annotation name direction position",
        "InteractionSpace": "annotation name min_corner max_corner",
        "InterfaceDescription": "annotation ports interaction_spaces",
        "ControlFunction": "annotation name language_tag body_ref",
        "Variable": "annotation name data_type scope",
        "IoMapEntry": "annotation component_path logical_address variable_name data_type "
                      "direction",
        "Platform": "annotation controller_type bus_coupler_type",
        "ControlDescription": "annotation control_functions variables io_mapping platform",
        "Component": "annotation name kind component_type position main_dimensions latency",
        "DocumentReference": "annotation id discipline stage name server_path "
                             "assigned_element",
        "CrossReference": "source target kind",
        "ModuleModel": "annotation id name general status function interface control "
                       "components documents cross_refs",
        "Param": "name unit default check",
        "ElementSpec": "path key node_type cls surface extra invariant params required "
                       "label names",
    },
    "mfmkit.sfc": {
        "SfcVariable": "name data_type kind",
        "SfcStep": "name initial actions",
        "SfcTransition": "source target condition",
        "SfcProgram": "name steps transitions variables",
    },
    "mfmkit.xmlio": {
        "Tag": "required optional children build split text key folded attrs allowed "
               "needed child_tags",
    },
}

#: The builders made from the model's records, by their signatures.
BUILDERS = {
    "add_runtime_variable": "(model: 'ModuleModel', name: 'str', data_type: 'str' = '', "
                            "unit: 'str' = '', description: 'str' = '', *, annotation: "
                            "'Annotation' = Annotation(roles=(), external_refs=())) -> "
                            "'ModuleModel'",
    "add_logistic_function": "(model: 'ModuleModel', name: 'str', category: 'str' = "
                             "'material_flow', behavior_ref: 'str' = '', *, annotation: "
                             "'Annotation' = Annotation(roles=(), external_refs=())) -> "
                             "'ModuleModel'",
    "add_route": "(model: 'ModuleModel', from_port: 'str', to_port: 'str', priority: 'int' "
                 "= 0, *, annotation: 'Annotation' = Annotation(roles=(), external_refs=())) "
                 "-> 'ModuleModel'",
    "add_port": "(model: 'ModuleModel', name: 'str', direction: 'str' = 'in', position: "
                "'str' = '', *, annotation: 'Annotation' = Annotation(roles=(), "
                "external_refs=())) -> 'ModuleModel'",
    "add_interaction_space": "(model: 'ModuleModel', name: 'str', min_corner: 'str' = '', "
                             "max_corner: 'str' = '', *, annotation: 'Annotation' = "
                             "Annotation(roles=(), external_refs=())) -> 'ModuleModel'",
    "add_control_function": "(model: 'ModuleModel', name: 'str', language_tag: 'str' = '', "
                            "body_ref: 'str' = '', *, annotation: 'Annotation' = "
                            "Annotation(roles=(), external_refs=())) -> 'ModuleModel'",
    "add_variable": "(model: 'ModuleModel', name: 'str', data_type: 'str' = '', scope: 'str' "
                    "= '', *, annotation: 'Annotation' = Annotation(roles=(), "
                    "external_refs=())) -> 'ModuleModel'",
    "add_io_entry": "(model: 'ModuleModel', component_path: 'str', logical_address: 'str' = "
                    "'', variable_name: 'str' = '', data_type: 'str' = '', direction: 'str' "
                    "= 'input', *, annotation: 'Annotation' = Annotation(roles=(), "
                    "external_refs=())) -> 'ModuleModel'",
}


def _records() -> list[type]:
    """Every frozen record class defined in an `mfmkit` module: a slotted
    dataclass whose attributes cannot be set."""
    found = []
    for info in pkgutil.iter_modules(mfmkit.__path__):
        module = importlib.import_module(f"mfmkit.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and is_dataclass(value) and "__slots__" in vars(value)
                    and value.__setattr__ is not object.__setattr__):
                found.append(value)
    return found


def _value(cls: type, annotation: str, variant: int):
    """A value of the field type `annotation` (a string, as the modules
    declare them); the variants differ."""
    if annotation == "str":
        return f"v{variant}"
    if annotation == "int":
        return 10 + variant
    if annotation == "bool":
        return bool(variant % 2)
    if annotation == "type":
        return (mm.Identification, mm.Route)[variant % 2]
    if annotation.startswith("tuple"):
        return (f"t{variant}",)
    if annotation.startswith("Callable"):
        return (None, len)[variant % 2]
    return _sample(getattr(importlib.import_module(cls.__module__), annotation), variant)


def _sample(cls: type, variant: int = 0):
    """An instance of `cls`: its required fields from _value, and, in a
    variant other than 0, every other init field too (but a Tag with
    attributes is not folded)."""
    values = {f.name: _value(cls, f.type, variant) for f in fields(cls)
              if f.init and (variant or (f.default is MISSING and f.default_factory is MISSING))}
    if cls is xmlio.Tag:
        values["folded"] = False
    return cls(**values)


def _raises(error, call, *args, match: str = ""):
    try:
        call(*args)
    except error as raised:
        assert match in str(raised), (str(raised), match)
        return
    raise AssertionError(f"{call} did not raise {error}")


def test_the_scan_finds_every_record_class_with_its_fields():
    found = {}
    for cls in _records():
        found.setdefault(cls.__module__, {})[cls.__qualname__] = " ".join(
            f.name for f in fields(cls))
    assert found == RECORDS


def test_fields_keep_their_defaults_and_metadata():
    assert fields(mm.Route)[3].metadata["param"] == ("", "0", mm._integer)
    assert fields(mm.Component)[6].metadata["param"][:2] == ("s", "")
    assert fields(mm.IoMapEntry)[1].default is MISSING
    assert fields(mm.IoMapEntry)[1].metadata["param"][:2] == ("", "")
    annotation = fields(mm.Port)[0]
    assert (annotation.default, annotation.repr, annotation.kw_only) == (mm.Annotation(), False,
                                                                         True)
    assert fields(mm.ModuleModel)[3].default_factory is mm.GeneralDescription
    assert [(f.name, f.init, f.repr, f.compare) for f in fields(mm.ElementSpec)[7:]] == [
        ("params", False, True, True), ("required", False, False, False),
        ("label", False, False, False), ("names", False, False, False)]
    declared = [(cls, f) for cls in _records() for f in fields(cls) if "param" in f.metadata]
    assert len(declared) == 38
    for cls, f in declared:
        unit, text, _check = f.metadata["param"]
        assert text == ("" if f.default is MISSING else str(f.default)), (cls, f.name)


def test_init_takes_the_fields_in_order_with_their_defaults():
    for cls in _records():
        shown, keywords = [], []
        for f in fields(cls):
            if not f.init:
                continue
            text = f"{f.name}: {f.type!r}"
            if f.default is not MISSING:
                text += f" = {f.default!r}"
            elif f.default_factory is not MISSING:
                text += " = <factory>"
            (keywords if f.kw_only else shown).append(text)
        if keywords:
            shown += ["*", *keywords]
        assert str(inspect.signature(cls)) == f"({', '.join(shown)}) -> None", cls
        assert cls.__match_args__ == tuple(
            f.name for f in fields(cls) if f.init and not f.kw_only), cls
    assert mm.GeneralDescription().identification == mm.Identification()
    assert mm.ModuleModel("m").general is not mm.ModuleModel("m").general
    assert mm.Port("p", annotation=mm.Annotation(("R",))).annotation.roles == ("R",)
    _raises(TypeError, mm.Port, "p", "in", "", mm.Annotation())
    _raises(TypeError, mm.Route, "a")
    spec = mm.ElementSpec(("interface", "ports"), "name", mm.Port, "Interface.Port")
    assert (spec.label, spec.required, list(spec.names)) == ("port", (), ["direction",
                                                                          "position"])
    _raises(ValueError, lambda: xmlio.Tag(("a",), (), (), None, None, folded=True),
            match="a folded element takes no attributes")


def test_builders_keep_their_signatures():
    for name, signature in BUILDERS.items():
        assert str(inspect.signature(getattr(mm, name))) == signature, name


def test_replace_and_astuple():
    for cls in _records():
        first, second = _sample(cls), _sample(cls, 1)
        assert replace(first) == first and type(replace(first)) is cls
        changed = {f.name: getattr(second, f.name) for f in fields(cls) if f.init}
        assert replace(first, **changed) == second, cls
        assert astuple(first) == astuple(copy.deepcopy(first))
    assert astuple(mm.Parameter("a", "1", "mm")) == ("a", "1", "mm")
    assert astuple(mm.Port("p")) == (((), ()), "p", "in", "")
    assert dataclasses.asdict(mm.CrossReference("a", "b")) == {
        "source": "a", "target": "b", "kind": ""}


def test_equality_and_hash_read_the_compared_fields():
    for cls in _records():
        first, twin, second = _sample(cls), _sample(cls), _sample(cls, 1)
        assert first == twin and not first != twin and first is not twin
        assert first != second and not first == second, cls
        compared = tuple(getattr(first, f.name) for f in fields(cls) if f.compare)
        assert hash(first) == hash(twin) == hash(compared), cls
        for f in fields(cls):
            if f.init and f.compare and getattr(first, f.name) != getattr(second, f.name):
                other = replace(first, **{f.name: getattr(second, f.name)})
                assert first != other, (cls, f.name)

        class Sub(cls):
            __slots__ = ()

        values = {f.name: getattr(first, f.name) for f in fields(cls) if f.init}
        assert first != Sub(**values) and Sub(**values) != first
        assert first.__eq__(object()) is NotImplemented
    assert behavior.Condition("a", "b") != behavior.Action("a", "b")
    assert mm.Element() != mm.Platform()


def test_fields_out_of_comparison_are_ignored():
    spec = mm.CHILDREN[("interface",)]["ports"]
    twin = copy.copy(spec)
    for name, value in [("required", ()), ("label", "other"), ("names", {})]:
        object.__setattr__(twin, name, value)
    assert twin == spec and hash(twin) == hash(spec)
    assert {twin: 1}[spec] == 1


def test_repr_shows_the_shown_fields():
    for cls in _records():
        for variant in (0, 1):
            item = _sample(cls, variant)
            shown = ", ".join(f"{f.name}={getattr(item, f.name)!r}"
                              for f in fields(cls) if f.repr)
            assert repr(item) == f"{cls.__qualname__}({shown})", cls
    assert repr(mm.Port("p")) == "Port(name='p', direction='in', position='')"
    assert repr(mm.new_module("m", "Demo")) == (
        "ModuleModel(id='m', name='Demo', general=GeneralDescription(identification="
        "Identification(name='', identifier='', module_type=''), main_dimensions='', "
        "static_attributes=()), status=StatusDescription(runtime_variables=()), function="
        "FunctionDescription(logistic_functions=(), routes=()), interface="
        "InterfaceDescription(ports=(), interaction_spaces=()), control=ControlDescription("
        "control_functions=(), variables=(), io_mapping=(), platform=Platform("
        "controller_type='', bus_coupler_type='')), components=(), documents=(), "
        "cross_refs=())")
    assert repr(consistency.OwnershipMap((("general", "mechanical"),))) == (
        "OwnershipMap(rules=(('general', 'mechanical'),))")


def test_records_are_frozen_and_have_no_dict():
    for cls in _records():
        item = _sample(cls)
        assert not hasattr(item, "__dict__"), cls
        for name in [f.name for f in fields(cls)]:
            _raises(FrozenInstanceError, setattr, item, name, "x",
                    match=f"cannot assign to field {name!r}")
            _raises(FrozenInstanceError, delattr, item, name,
                    match=f"cannot delete field {name!r}")
        _raises((AttributeError, TypeError), setattr, item, "no_such_field", "x")
        assert item == _sample(cls)


def test_pickle_and_copy_round_trips():
    for cls in _records():
        for variant in (0, 1):
            item = _sample(cls, variant)
            state = [getattr(item, f.name) for f in fields(cls)]
            assert item.__reduce_ex__(4)[1:3] == ((cls,), state), cls
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(item, protocol))
                assert type(back) is cls and back == item, (cls, protocol)
            for made in (copy.copy(item), copy.deepcopy(item)):
                assert type(made) is cls and made == item and made is not item, cls
    assert pickle.dumps(mm.Port("p"), 4) == (
        b"\x80\x04\x95H\x00\x00\x00\x00\x00\x00\x00\x8c\x0cmfmkit.model\x94\x8c\x04Port\x94"
        b"\x93\x94)\x81\x94]\x94(h\x00\x8c\nAnnotation\x94\x93\x94)\x81\x94]\x94())eb\x8c\x01p"
        b"\x94\x8c\x02in\x94\x8c\x00\x94eb.")
    spec = pickle.loads(pickle.dumps(mm.CHILDREN[("general",)]["identification"]))
    assert spec.label == "identification" and spec.names["identifier"].unit == ""


def test_records_match_by_position_and_keyword():
    match mm.Port("p", "out"):
        case mm.Port(name, "out", position=""):
            assert name == "p"
        case _:
            raise AssertionError("no match")
    match sfc.SfcStep("s", True):
        case sfc.SfcStep(_, initial):
            assert initial is True
    assert mapping.RuleEntry.__match_args__ == (
        "class_path", "permitted_interfaces", "permitted_roles")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
