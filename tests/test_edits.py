"""A stateful property test of the edit API.

A hypothesis state machine edits one model through every builder,
set_parameter, remove_element, replace_document, assign_document and the
import of a one-row table, with the awkward values of the seeded
generators. A ModelError or PathError is an allowed outcome of an edit and
leaves the model as it was; any other exception fails. After every step:

- the file round trip gives the same model and no warning, and writing the
  model twice gives the same bytes;
- importing the model's full table export gives the same model and no
  violation;
- check_links reports what a reference built on resolve() finds.
"""
from __future__ import annotations

import csv
import io

from generators import _NASTY_VALUES, _UNITS, random_model, removable_paths
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mfmkit import caex_io, exchange
from mfmkit import consistency as cc
from mfmkit import model as mm
from mfmkit.paths import PathError

NAMES = ("a", "b", "c1", "x.y", "0", "S-1", "bad name", "")
VALUES = _NASTY_VALUES + ("07", "bad\rvalue", "nul\x00")
UNITS = _UNITS + ("s", "bad\runit")
ROLES = ("ControlEquipment", "Resource", "bad role")
TRIPLES = ("(1,2,3)", "(5,6,7)", "(-1,0,4)", "(0,0,0)", "")


def mixed(*valid: str):
    """A value valid for a checked field three times in four, else an awkward one."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(valid if i else VALUES))


def _choice(data, options):
    return data.draw(st.sampled_from(list(options)))


def _link_reference(m: mm.ModuleModel) -> list[tuple[str, str]]:
    """(rule, anchor) of each broken stored reference, in check_links' order,
    found by resolve() on each endpoint (a malformed one does not resolve)."""
    def found(path: str):
        try:
            return mm.resolve(m, path)
        except PathError:
            return None

    def entry(where: str, key: str, node_type: type) -> bool:
        return type(found(f"{m.id}/{where}/{key}")) is node_type

    out = []
    for i, ref in enumerate(m.cross_refs):
        for rule, endpoint in ((cc.RULE_DANGLING_SOURCE, ref.source),
                               (cc.RULE_DANGLING_TARGET, ref.target)):
            if found(endpoint) is None:
                out.append((rule, f"{m.id}/cross_refs/{i}"))
    for doc in m.documents:
        if doc.assigned_element and found(doc.assigned_element) is None:
            out.append((cc.RULE_DANGLING_ASSIGNMENT, f"{m.id}/documents/{doc.id}"))
    for i, io_entry in enumerate(m.control.io_mapping):
        anchor = f"{m.id}/control/io_mapping/{i}"
        component = found(io_entry.component_path) if io_entry.component_path else None
        if type(component) is not mm.Component:
            out.append((cc.RULE_IO_UNKNOWN_COMPONENT, anchor))
        elif mm.SIGNAL_DIRECTIONS.get(component.kind) != io_entry.direction:
            out.append((cc.RULE_IO_DIRECTION, anchor))
        if io_entry.variable_name and not entry(
                "control/variables", io_entry.variable_name, mm.Variable):
            out.append((cc.RULE_IO_UNKNOWN_VARIABLE, anchor))
    for i, route in enumerate(m.function.routes):
        for port in (route.from_port, route.to_port):
            if not entry("interface/ports", port, mm.Port):
                out.append((cc.RULE_ROUTE_UNKNOWN_PORT, f"{m.id}/function/routes/{i}"))
    for where, functions, field, rule in (
            ("function/logistic_functions", m.function.logistic_functions, "behavior_ref",
             cc.RULE_DANGLING_BEHAVIOR_REF),
            ("control/control_functions", m.control.control_functions, "body_ref",
             cc.RULE_DANGLING_BODY_REF)):
        for function in functions:
            ref = getattr(function, field)
            if ref and not entry("documents", ref, mm.DocumentReference):
                out.append((rule, f"{m.id}/{where}/{function.name}"))
    return out


def _one_row(*cells: str) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerows((exchange.HEADER, cells))
    return buffer.getvalue().encode("utf-8")


class EditWalk(RuleBasedStateMachine):
    """One model under edit; each rule is one edit drawn from awkward values."""

    @initialize(seed=st.integers(0, 40))
    def start(self, seed):
        """A seeded random model, or an empty one whose id has three segments."""
        self.model = random_model(seed) if seed > 7 else mm.new_module("plant/line-2/m", "")

    def edit(self, build, *args):
        try:
            self.model = build(self.model, *args)
        except (mm.ModelError, PathError):
            pass

    # -- paths of the current model, and some that miss -------------------

    def elements(self) -> list[str]:
        return [path for _spec, path, _node in mm.walk(self.model)] + [
            f"{self.model.id}/components/none", "other/general", f"{self.model.id}//x"]

    def endpoints(self) -> list[str]:
        return self.elements() + [f"{path}/{name}" for path, name, _value, _unit
                                  in mm.iter_parameters(self.model)][:20]

    def cells(self) -> list[tuple[str, str]]:
        """(element path, parameter name) of every parameter, a new attribute,
        a component's address and some names that miss."""
        paths = self.elements()
        return [(path, name) for path, name, _value, _unit in mm.iter_parameters(self.model)] + [
            (f"{self.model.id}/general", "colour"), (paths[0], "name"), (paths[-1], "position"),
            *((path, "logical_address") for path in mm.component_paths(self.model))]

    def doc_ids(self) -> list[str]:
        return [doc.id for doc in self.model.documents] + ["none"]

    def keys(self, entries, field: str) -> list[str]:
        return [getattr(e, field) for e in entries] + list(NAMES)

    # -- builders ----------------------------------------------------------

    @rule(name=st.sampled_from(VALUES), identifier=st.sampled_from(VALUES),
          module_type=st.sampled_from(VALUES + (None,)))
    def set_identification(self, name, identifier, module_type):
        self.edit(mm.set_identification, name, identifier, module_type)

    @rule(dims=mixed(*TRIPLES))
    def set_main_dimensions(self, dims):
        self.edit(mm.set_main_dimensions, dims)

    @rule(name=st.sampled_from(NAMES + ("main_dimensions",)), value=st.sampled_from(VALUES),
          unit=st.sampled_from(UNITS))
    def add_static_attribute(self, name, value, unit):
        self.edit(mm.add_static_attribute, name, value, unit)

    @rule(name=st.sampled_from(NAMES), data_type=st.sampled_from(VALUES),
          unit=st.sampled_from(UNITS), description=st.sampled_from(VALUES))
    def add_runtime_variable(self, name, data_type, unit, description):
        self.edit(mm.add_runtime_variable, name, data_type, unit, description)

    @rule(name=st.sampled_from(NAMES), category=mixed(*mm.FUNCTION_CATEGORIES), data=st.data())
    def add_logistic_function(self, name, category, data):
        ref = _choice(data, self.keys(self.model.documents, "id"))
        self.edit(mm.add_logistic_function, name, category, ref)

    @rule(priority=st.sampled_from((0, 3, -1, True, 2.0, "7", "07")), data=st.data())
    def add_route(self, priority, data):
        ports = self.keys(self.model.interface.ports, "name")
        self.edit(mm.add_route, _choice(data, ports), _choice(data, ports), priority)

    @rule(name=st.sampled_from(NAMES), direction=mixed(*mm.PORT_DIRECTIONS),
          position=mixed(*TRIPLES))
    def add_port(self, name, direction, position):
        self.edit(mm.add_port, name, direction, position)

    @rule(name=st.sampled_from(NAMES), low=mixed(*TRIPLES), high=mixed(*TRIPLES))
    def add_interaction_space(self, name, low, high):
        self.edit(mm.add_interaction_space, name, low, high)

    @rule(name=st.sampled_from(NAMES), language=st.sampled_from(VALUES), data=st.data())
    def add_control_function(self, name, language, data):
        ref = _choice(data, self.keys(self.model.documents, "id"))
        self.edit(mm.add_control_function, name, language, ref)

    @rule(name=st.sampled_from(NAMES), data_type=st.sampled_from(VALUES),
          scope=st.sampled_from(VALUES))
    def add_variable(self, name, data_type, scope):
        self.edit(mm.add_variable, name, data_type, scope)

    @rule(address=mixed("%I0.1", "%Q0.1"), direction=mixed(*mm.IO_DIRECTIONS), data=st.data())
    def add_io_entry(self, address, direction, data):
        component = _choice(data, list(mm.component_paths(self.model)) + self.endpoints())
        variable = _choice(data, self.keys(self.model.control.variables, "name"))
        self.edit(mm.add_io_entry, component, address, variable, "BOOL", direction)

    @rule(controller=st.sampled_from(VALUES), coupler=st.sampled_from(VALUES))
    def set_platform(self, controller, coupler):
        self.edit(mm.set_platform, controller, coupler)

    @rule(name=st.sampled_from(NAMES), kind=mixed(*mm.COMPONENT_KINDS),
          position=mixed(*TRIPLES), latency=mixed("", "0", "0.25"))
    def add_component(self, name, kind, position, latency):
        self.edit(mm.add_component, mm.Component(
            name, kind, "T", position, "(1,1,1)", latency))

    @rule(doc_id=st.sampled_from(NAMES), discipline=mixed(*mm.DISCIPLINES),
          stage=mixed(*mm.STAGES), server_path=st.sampled_from(VALUES), data=st.data())
    def add_document(self, doc_id, discipline, stage, server_path, data):
        self.edit(mm.add_document, mm.DocumentReference(
            doc_id, discipline, stage, "Doc", server_path, _choice(data, self.endpoints())))

    @rule(stage=mixed(*mm.STAGES), server_path=st.sampled_from(VALUES), data=st.data())
    def replace_document(self, stage, server_path, data):
        doc_id = _choice(data, self.doc_ids())
        self.edit(mm.replace_document, mm.DocumentReference(
            doc_id, "software", stage, "Doc", server_path, _choice(data, self.endpoints())))

    @rule(kind=st.sampled_from(VALUES), data=st.data())
    def add_cross_ref(self, kind, data):
        endpoints = self.endpoints()
        self.edit(mm.add_cross_ref, _choice(data, endpoints), _choice(data, endpoints), kind)

    @rule(role=st.sampled_from(ROLES), data=st.data())
    def with_roles(self, role, data):
        self.edit(mm.with_roles, _choice(data, self.endpoints()), role)

    @rule(name=st.sampled_from(NAMES), uri=st.sampled_from(VALUES), data=st.data())
    def with_external_ref(self, name, uri, data):
        ref = mm.ExternalRef(name, "AttachmentInterface", uri)
        self.edit(mm.with_external_ref, _choice(data, self.endpoints()), ref)

    # -- generic edits -----------------------------------------------------

    @rule(value=mixed(*TRIPLES, *mm.COMPONENT_KINDS, "0.5", "7"), data=st.data())
    def set_parameter(self, value, data):
        self.edit(mm.set_parameter, *_choice(data, self.cells()), value)

    @rule(data=st.data())
    def remove_element(self, data):
        paths = removable_paths(self.model) + self.elements()[:3]
        self.edit(mm.remove_element, _choice(data, paths))

    @rule(data=st.data())
    def assign_document(self, data):
        doc_id = _choice(data, self.doc_ids())
        self.edit(lambda m, *args: cc.assign_document(m, *args)[0],
                  doc_id, _choice(data, self.endpoints()))

    @rule(value=mixed(*TRIPLES, "0.5", "7", "%I1.0"), unit=mixed("", "mm"),
          doc_path=st.sampled_from(("", "srv://docs/x")), data=st.data())
    def import_row(self, value, unit, doc_path, data):
        doc_name = _choice(data, self.keys(self.model.documents, "id") + [""] * 8)
        table = _one_row(*_choice(data, self.cells()), value, unit, doc_name, doc_path)
        merged, violations = exchange.import_table(self.model, table)
        assert len(violations) <= 1
        self.model = merged

    # -- after every step ---------------------------------------------------

    @invariant()
    def the_file_round_trip_is_exact(self):
        data = caex_io.serialize(caex_io.from_model(self.model))
        assert caex_io.serialize(caex_io.from_model(self.model)) == data
        read, warnings = caex_io.to_model(caex_io.parse(data))
        assert warnings == []
        assert read == self.model

    @invariant()
    def the_full_table_imports_as_a_no_op(self):
        merged, violations = exchange.import_table(self.model, exchange.export_table(self.model))
        assert violations == []
        assert merged == self.model

    @invariant()
    def check_links_finds_what_resolve_finds(self):
        found = [(v.rule_id, v.element_path) for v in cc.check_links(self.model)]
        assert found == _link_reference(self.model)


EditWalk.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60, stateful_step_count=25)
TestEditWalk = EditWalk.TestCase
