"""Meta-model construction, resolution, and removal."""
from __future__ import annotations

import itertools
import math
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from mfmkit import caex_io, exchange
from mfmkit import consistency as cc
from mfmkit import model as mm
from mfmkit.paths import PathError, is_name, split_path


def test_new_module_has_five_empty_subclasses():
    m = mm.new_module("tjunction-01", "T-Junction")
    assert m.general == mm.GeneralDescription()
    assert m.status == mm.StatusDescription()
    assert m.function == mm.FunctionDescription()
    assert m.interface == mm.InterfaceDescription()
    assert m.control == mm.ControlDescription()
    assert m.components == ()
    assert m.documents == ()
    assert m.cross_refs == ()


def test_new_module_rejects_empty_id():
    with pytest.raises(mm.ModelError):
        mm.new_module("", "x")


def test_new_module_accepts_hierarchical_id():
    m = mm.new_module("a/b", "nested")
    assert m.id == "a/b"
    assert mm.resolve(m, "a/b") is m


def test_root_carries_base_role():
    m = mm.new_module("m", "x")
    assert mm.annotation_at(m, "m").roles == (mm.BASE_ROLE,)


def test_add_component_conv1_example():
    m = mm.new_module("m", "x")
    conv1 = mm.Component(
        name="Conv1",
        kind="conveyor",
        component_type="P100",
        position="(0,10,0)",
        main_dimensions="(50,150,800)",
        latency="0.1",
    )
    m = mm.add_component(m, conv1)
    got = mm.resolve(m, "m/components/Conv1")
    assert got == conv1
    assert mm.resolve(m, "m/components/Conv1/latency") == "0.1"
    assert mm.resolve(m, "m/components/Conv1/component_type") == "P100"


def test_add_component_duplicate_names_collision():
    m = mm.new_module("m", "x")
    m = mm.add_component(m, mm.Component(name="Conv1", kind="conveyor"))
    with pytest.raises(mm.ModelError, match="Conv1"):
        mm.add_component(m, mm.Component(name="Conv1", kind="sensor"))


def test_add_component_rejects_bad_kind_and_latency():
    m = mm.new_module("m", "x")
    with pytest.raises(mm.ModelError):
        mm.add_component(m, mm.Component(name="c", kind="robot"))
    with pytest.raises(mm.ModelError):
        mm.add_component(m, mm.Component(name="c", kind="sensor", latency="-1"))
    with pytest.raises(mm.ModelError):
        mm.add_component(m, mm.Component(name="c", kind="sensor", latency="fast"))


def test_resolve_not_found_is_none():
    m = mm.new_module("tjunction-01", "T-Junction")
    assert mm.resolve(m, "tjunction-01/components/NoSuch") is None
    assert mm.resolve(m, "other-module/components/X") is None


def test_resolve_malformed_path_raises():
    m = mm.new_module("m", "x")
    with pytest.raises(PathError):
        mm.resolve(m, "m//components")
    with pytest.raises(PathError):
        mm.resolve(m, "m/comp onents")
    with pytest.raises(PathError):
        mm.resolve(m, "")


_SEGMENT_CHARS = set(string.ascii_letters + string.digits + "_.-")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="aZ09_.-é \n+", max_size=3), min_size=1, max_size=4))
def test_split_path_accepts_exactly_the_paths_whose_every_segment_is_valid(segments):
    # split_path settles a path with one match over the whole path; the
    # segment grammar, checked here segment by segment, is what it must mean
    path = "/".join(segments)
    bad = [seg for seg in segments if not seg or not set(seg) <= _SEGMENT_CHARS]
    if not bad:
        assert split_path(path) == tuple(segments)
        return
    with pytest.raises(PathError) as error:
        split_path(path)
    assert str(error.value) == (
        "empty path" if not path else f"malformed path segment {bad[0]!r} in {path!r}")


def test_split_path_names_the_first_bad_segment():
    with pytest.raises(PathError, match="^malformed path segment '' in 'm//x'$"):
        split_path("m//x")
    with pytest.raises(PathError, match="^malformed path segment 'a b' in 'm/a b/c d'$"):
        split_path("m/a b/c d")


def test_no_printable_character_is_one_a_model_value_may_not_hold():
    # _require_clean passes a printable string without its full checks; the
    # Unicode tables behind str.isprintable() differ between Python versions
    printable = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isprintable()]
    assert [f"U+{ord(ch):04X}" for ch in printable if ch == "\r" or mm.non_xml_char(ch)] == []


@pytest.mark.parametrize("value, message", [
    ("a\rb", "x must not contain carriage returns"),
    ("a\x00", "x must not contain the character U+0000, which XML cannot carry"),
    ("\ud800", "x must not contain the character U+D800, which XML cannot carry"),
    ("\uffff", "x must not contain the character U+FFFF, which XML cannot carry"),
    (b"a", "x must be a string, not bytes"),
])
def test_require_clean_words_each_unclean_value(value, message):
    with pytest.raises(mm.ModelError) as error:
        mm._require_clean(value, "x")
    assert str(error.value) == message


@pytest.mark.parametrize("value", ["", "a b", "tab\there", "line\nfeed", "\x85\u00a0\u2028"])
def test_require_clean_passes_what_xml_can_carry(value):
    mm._require_clean(value, "x")


@pytest.mark.parametrize("build", [
    lambda m: mm.new_module(5, "x"),
    lambda m: mm.with_roles(m, 5, "R"),
    lambda m: mm.with_external_ref(m, 5, mm.ExternalRef("doc", "AttachmentInterface")),
    lambda m: mm.add_cross_ref(m, 5, "m/general", "k"),
    lambda m: mm.add_cross_ref(m, "m/general", 5, "k"),
    lambda m: mm.set_parameter(m, 5, "name", "x"),
    lambda m: mm.remove_element(m, 5),
    lambda m: mm.resolve(m, 5),
], ids=["new_module", "with_roles", "with_external_ref", "add_cross_ref source",
        "add_cross_ref target", "set_parameter", "remove_element", "resolve"])
def test_a_path_that_is_no_str_is_named_by_its_type(build):
    with pytest.raises(PathError, match="^path must be a str, not int$"):
        build(mm.new_module("m", "M"))


def test_resolve_io_entry_by_index():
    m = mm.new_module("m", "x")
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "i_s1", "BOOL", "input")
    entry = mm.resolve(m, "m/control/io_mapping/0")
    assert isinstance(entry, mm.IoMapEntry)
    assert entry.logical_address == "%I0.0"
    assert mm.resolve(m, "m/control/io_mapping/1") is None


def test_resolve_platform_and_params():
    m = mm.new_module("m", "x")
    m = mm.set_platform(m, "S7-1500", "ET200SP")
    assert mm.resolve(m, "m/control/platform/controller_type") == "S7-1500"
    assert isinstance(mm.resolve(m, "m/control/platform"), mm.Platform)


def test_add_cross_ref_idempotent():
    m = mm.new_module("m", "x")
    m = mm.add_cross_ref(m, "m/components/LB_in/position", "m/control/control_functions/route", "guard-uses")
    m2 = mm.add_cross_ref(m, "m/components/LB_in/position", "m/control/control_functions/route", "guard-uses")
    assert len(m2.cross_refs) == 1
    assert m2 == m


def test_add_cross_ref_rejects_self_reference():
    m = mm.new_module("m", "x")
    with pytest.raises(mm.ModelError):
        mm.add_cross_ref(m, "m/components/X", "m/components/X", "k")


def test_path_round_trip_for_all_elements():
    m = _populated()
    for _spec, path, node in mm.walk(m):
        assert mm.resolve(m, path) == node


def test_set_parameter_round_trip():
    m = _populated()
    m2 = mm.set_parameter(m, "m/components/S1", "position", "(1,2,3)")
    assert mm.resolve(m2, "m/components/S1/position") == "(1,2,3)"
    m3 = mm.set_parameter(m2, "m/general/identification", "name", "Junction")
    assert m3.general.identification.name == "Junction"


def test_set_parameter_creates_static_attribute_on_general():
    m = mm.new_module("m", "x")
    m = mm.set_parameter(m, "m/general", "weight", "42.5")
    assert mm.resolve(m, "m/general/weight") == "42.5"


def test_set_parameter_unknown_parameter_rejected():
    m = _populated()
    with pytest.raises(mm.ModelError):
        mm.set_parameter(m, "m/components/S1", "color", "red")
    with pytest.raises(mm.ModelError):
        mm.set_parameter(m, "m/nowhere", "x", "1")


def test_roles_idempotent_and_element_only():
    m = mm.new_module("m", "x")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.with_roles(m, "m/components/S1", "SomeRole")
    m2 = mm.with_roles(m, "m/components/S1", "SomeRole")
    assert mm.annotation_at(m2, "m/components/S1").roles == ("SomeRole",)
    with pytest.raises(mm.ModelError):
        mm.with_roles(m, "m/components/S1/position", "R")


def test_remove_component_drops_annotations_below():
    m = mm.new_module("m", "x")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.with_roles(m, "m/components/S1", "SomeRole")
    m2 = mm.remove_element(m, "m/components/S1")
    assert mm.resolve(m2, "m/components/S1") is None
    assert mm.annotation_at(m2, "m/components/S1").roles == ()
    # references survive removal (they become dangling, caught by check_links)
    with pytest.raises(mm.ModelError):
        mm.remove_element(m2, "m/components/S1")


def test_remove_io_entry_moves_the_roles_of_later_entries_down():
    m = _populated()
    m = mm.with_roles(m, "m/control/io_mapping/1", "SignalRole")
    m = mm.remove_element(m, "m/control/io_mapping/0")
    assert mm.annotation_at(m, "m/control/io_mapping/0").roles == ("SignalRole",)
    assert mm.annotation_at(m, "m/control/io_mapping/1").roles == ()
    reread, warnings = caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))
    assert warnings == []
    assert mm.annotation_at(reread, "m/control/io_mapping/0").roles == ("SignalRole",)
    assert reread == m


def test_remove_route_keeps_annotations_sorted_past_nine():
    m = mm.new_module("m", "x")
    m = mm.add_port(m, "p", "in")
    for _ in range(12):
        m = mm.add_route(m, "p", "p")
    for index in (8, 9, 10, 11):
        m = mm.with_roles(m, f"m/function/routes/{index}", f"R{index}")
    m = mm.remove_element(m, "m/function/routes/3")
    assert [mm.annotation_at(m, f"m/function/routes/{i}").roles for i in (7, 8, 9, 10)] == [
        ("R8",), ("R9",), ("R10",), ("R11",)]


#: Elements that _annotated() gives a role and an external reference.
ANNOTATED = ("m", "m/general", "m/general/identification", "m/control/platform",
             "m/documents/doc-1", "m/components/A1", "m/control/io_mapping/1")


def _annotated() -> mm.ModuleModel:
    m = _populated()
    for path in ANNOTATED:
        m = mm.with_roles(m, path, "KeptRole")
        m = mm.with_external_ref(m, path, mm.ExternalRef("kept", "AttachmentInterface", "f.pdf"))
    return m


_A1_TYPE_ROW = ",".join(exchange.HEADER) + "\nm/components/A1,component_type,M2,,,\n"


@pytest.mark.parametrize("edit", [
    lambda m: mm.set_identification(m, name="Other"),
    lambda m: mm.set_main_dimensions(m, "(1,2,3)"),
    lambda m: mm.add_static_attribute(m, "color", "red"),
    lambda m: mm.set_platform(m, "S7-300", "ET200M"),
    lambda m: mm.replace_document(m, mm.DocumentReference(
        id="doc-1", discipline="mechanical", stage="mechanical_eng", name="plan")),
    lambda m: cc.assign_document(m, "doc-1", "m/components/S1")[0],
    lambda m: mm.set_parameter(m, "m/components/A1", "latency", "0.5"),
    lambda m: mm.set_parameter(m, "m/control/io_mapping/1", "logical_address", "%Q1.0"),
    lambda m: exchange.import_table(m, _A1_TYPE_ROW.encode())[0],
    lambda m: mm.remove_element(m, "m/components/S1"),
], ids=["set_identification", "set_main_dimensions", "add_static_attribute", "set_platform",
        "replace_document", "assign_document", "set_parameter", "set_parameter io entry",
        "import row", "remove earlier sibling"])
def test_an_edit_keeps_the_roles_and_external_refs_of_every_element(edit):
    m = _annotated()
    edited = edit(m)
    assert edited != m
    for path in ANNOTATED:
        assert mm.annotation_at(edited, path) == mm.annotation_at(m, path), path
        assert "KeptRole" in mm.annotation_at(edited, path).roles


@pytest.mark.parametrize("ann", [
    mm.Annotation(roles=("a b",)),
    mm.Annotation(external_refs=(mm.ExternalRef("x", "bad class"),)),
    mm.Annotation(external_refs=(mm.ExternalRef("x", "I"), mm.ExternalRef("x", "I"))),
    mm.Annotation(external_refs=(mm.ExternalRef("x", "I", "a\rb"),)),
], ids=["role", "interface class", "duplicate reference", "refURI"])
def test_an_invalid_annotation_given_to_a_constructor_is_rejected(ann):
    m = _populated()
    with pytest.raises(mm.ModelError):
        mm.add_component(m, mm.Component("x", annotation=ann))
    with pytest.raises(mm.ModelError):
        mm.set_element(m, replace(m.control.platform, annotation=ann))
    with pytest.raises(mm.ModelError):
        mm.add_document(m, mm.DocumentReference("doc-2", annotation=ann))


def test_a_constructor_annotation_is_stored_as_the_builders_store_it():
    ann = mm.Annotation(roles=("R", "R", "S"), external_refs=(mm.ExternalRef("x", "I"),))
    m = mm.add_component(_populated(), mm.Component("x", annotation=ann))
    assert m.components[-1].annotation == mm.Annotation(
        roles=("R", "S"), external_refs=(mm.ExternalRef("x", "I"),))
    assert repr(m.components[-1]) == repr(mm.Component("x"))
    reread, warnings = caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))
    assert warnings == [] and reread == m


@pytest.mark.parametrize("segment", ["00", "01", "+1", "\u0661", "1\n"])
def test_index_segment_must_be_a_canonical_decimal(segment):
    m = _populated()
    path = f"m/control/io_mapping/{segment}"
    try:
        assert mm.resolve(m, path) is None
    except PathError:
        pass  # outside the segment grammar altogether
    for attach in (lambda: mm.with_roles(m, path, "R"),
                   lambda: mm.with_external_ref(m, path, mm.ExternalRef("x", "AttachmentInterface"))):
        with pytest.raises((mm.ModelError, PathError)):
            attach()
    if segment == "01":
        with pytest.raises(mm.ModelError, match="does not resolve"):
            mm.with_roles(m, path, "R")
    assert mm.resolve(m, "m/control/io_mapping/1") == m.control.io_mapping[1]


def _lookup_paths(m: mm.ModuleModel) -> list[str]:
    """Every entry and parameter path of `m`, list paths, and paths that miss."""
    entries = [path for spec, path, _node in mm.walk(m) if spec.key]
    parameters = [f"{path}/{name}" for path, name, _value, _unit in mm.iter_parameters(m)]
    return entries + parameters + [
        "m/components", "m/control/io_mapping", "m/control/variables/none",
        "m/control/io_mapping/9", "m/documents/doc-1/name", "other/general"]


def test_an_unedited_resolver_agrees_with_resolve_and_returns_its_model():
    m = _populated()
    find = mm.Resolver(m)
    paths = _lookup_paths(m) + [path for _spec, path, _node in mm.walk(m)]
    assert [find(path) for path in paths] == [mm.resolve(m, path) for path in paths]
    assert find.model() is m
    general = find.locate("m/general")
    assert general.is_element and general.index is None
    assert not find.locate("m/components").is_element


def test_resolver_follows_models_derived_by_writes_and_appends():
    m = _populated()
    find = mm.Resolver(m)
    expected = m
    for path, name, value in [("m/components/S1", "position", "(9,9,9)"),
                              ("m/control/io_mapping/1", "logical_address", "%Q1.1"),
                              ("m/general/identification", "name", "Renamed"),
                              ("m/general", "colour", "red")]:
        expected = mm.set_parameter(expected, path, name, value)
        found = find.locate(path)
        assert found.is_element
        spec, index, node = found[:3]
        find.put(spec, index, mm.write_parameter(spec, node, name, value))
        assert find(f"{path}/{name}") == mm.resolve(expected, f"{path}/{name}") == value
    assert find("m/control/variables/extra") is None  # the list's index is built now
    extra = mm.Variable("extra", "BOOL")
    for entry in (extra, mm.IoMapEntry("m/components/A1", "%Q2.0")):
        spec = mm.spec_of(entry)
        find.append(spec, entry)
        expected = mm.add_entry(expected, entry)
        assert find.part(spec)[-1] == mm.get(expected, spec)[-1] == entry
    position = len(expected.control.variables) - 1
    assert find("m/control/variables/extra") == extra
    found = find.locate("m/control/variables/extra")
    assert found.is_element and found[:3] == (mm.spec_of(extra), position, extra)
    assert find.keys(mm.spec_of(extra))["extra"] == position
    paths = _lookup_paths(expected)
    assert [find(path) for path in paths] == [mm.resolve(expected, path) for path in paths]
    general = find.locate("m/general")
    assert general.is_element and general.index is None
    assert not find.locate("m/components").is_element


def test_store_copies_each_list_once_and_agrees_with_set_parameter():
    m = _populated()
    find = mm.Resolver(m)
    writes = [("m/components/S1", "position", "(9,9,9)"),
              ("m/control/io_mapping/1", "logical_address", "%Q1.1"),
              ("m/control/io_mapping/0", "logical_address", "%I7.7"),
              ("m/general", "colour", "red")]
    expected, copies = m, {}
    for path, name, value in writes:
        expected = mm.set_parameter(expected, path, name, value)
        found = find.locate(path)
        assert found.is_element
        spec, index, node = found[:3]
        find.put(spec, index, mm.write_parameter(spec, node, name, value))
        if index is not None:
            part = find.part(spec)
            assert part is not mm.get(m, spec)
            assert copies.setdefault(spec.path, part) is part  # one copy per list
    assert find.model() == expected
    assert m == _populated()  # the given model is left as it was
    with pytest.raises(mm.ModelError, match="must be strictly positive"):
        mm.write_parameter(mm.spec_of(m.general), m.general, "main_dimensions", "(0,1,1)")


def _batch_edits():
    """(builder edit, the same edit on a Resolver) pairs: elements at three
    depths and entries, each on a part of its own."""
    variables = mm.CHILDREN[("control",)]["variables"]

    def entry(find, path, name, value):
        spec, index, node = find.locate(path)[:3]
        find.put(spec, index, mm.write_parameter(spec, node, name, value))

    def element(find, spec, **values):
        find.put(spec, None, replace(find.part(spec), **values))

    return [
        (lambda m: mm.set_element(m, replace(m, name="Renamed")),
         lambda find: element(find, mm.ROOT, name="Renamed")),
        (lambda m: mm.set_main_dimensions(m, "(7,8,9)"),
         lambda find: element(find, mm.CHILDREN[()]["general"], main_dimensions="(7,8,9)")),
        (lambda m: mm.set_platform(m, "CX", "EK"),
         lambda find: element(find, mm.CHILDREN[("control",)]["platform"],
                              controller_type="CX", bus_coupler_type="EK")),
        (lambda m: mm.set_parameter(m, "m/control/io_mapping/1", "logical_address", "%Q1.1"),
         lambda find: entry(find, "m/control/io_mapping/1", "logical_address", "%Q1.1")),
        (lambda m: mm.add_variable(m, "extra", "BOOL"),
         lambda find: find.append(variables, mm.Variable("extra", "BOOL"))),
    ]


def test_a_batch_in_any_order_stores_what_the_builders_store_one_by_one():
    m = _populated()
    edits = _batch_edits()
    expected = m
    for build, _batch in edits:
        expected = build(expected)
    for order in itertools.permutations(range(len(edits))):
        find = mm.Resolver(m)
        for k in order:
            edits[k][1](find)
        assert find.model() == expected, order
    assert m == _populated()


def test_a_container_lookup_sees_the_edits_of_its_child_elements_and_lists():
    m = mm.add_variable(mm.new_module("m", "Demo"), "a")
    find = mm.Resolver(m)
    identification = mm.Identification("Renamed")
    find.put(mm.CHILDREN[("general",)]["identification"], None, identification)
    assert find.locate("m/general").node.identification is identification
    find.append(mm.CHILDREN[("control",)]["variables"], mm.Variable("b"))
    assert [v.name for v in find("m/control").variables] == ["a", "b"]
    assert find.model() == mm.add_variable(mm.set_identification(m, name="Renamed"), "b")


@pytest.mark.parametrize("edit", [
    lambda m: mm.set_element(m, mm.Port("p")),
    lambda m: mm.set_element(m, mm.CrossReference("m/general", "m/status")),
    lambda m: mm.set_element(
        m, replace(m.control, variables=(mm.Variable("x"), mm.Variable("x")))),
    lambda m: mm.set_element(m, replace(m.general, identification=mm.Identification("N"))),
    lambda m: mm.set_element(m, replace(m, components=(mm.Component("c", kind="bogus"),))),
    lambda m: mm.set_element(m, replace(m, id="")),
    lambda m: mm.set_element(m, replace(m, cross_refs=(mm.CrossReference("m/a", "m/a"),))),
    lambda m: mm.add_entry(m, mm.CrossReference("m/general", "m/status")),
    lambda m: mm.add_entry(m, mm.Platform()),
    lambda m: mm.add_entry(m, m),
    lambda m: mm.add_entry(m, "x"),
    lambda m: mm.set_element(m, "x"),
], ids=["entry", "cross reference", "entry list", "child element", "root list", "root id",
        "root cross references", "add cross reference", "add element", "add root",
        "add str", "set str"])
def test_a_builder_given_the_wrong_kind_of_node_raises_a_model_error(edit):
    m = mm.new_module("m", "M")
    with pytest.raises(mm.ModelError):
        edit(m)


@pytest.mark.parametrize("edit, message", [
    (lambda m: mm.replace_document(m, mm.Component("x")),
     "document must be of type DocumentReference, not Component"),
    (lambda m: mm.with_external_ref(m, "m/general", "x"),
     "external reference must be of type ExternalRef, not str"),
    (lambda m: mm.set_element(m, replace(m.general, static_attributes=("x",))),
     "attribute must be of type Parameter, not str"),
    (lambda m: mm.add_component(m, mm.Component("y", annotation="r")),
     "annotation must be of type Annotation, not str"),
    (lambda m: mm.add_component(m, mm.Component("y", annotation=mm.Annotation(
        external_refs=("r",)))), "external reference must be of type ExternalRef, not str"),
], ids=["replaced document", "external reference", "open attribute", "annotation",
        "annotated reference"])
def test_a_node_field_of_the_wrong_type_raises_a_model_error(edit, message):
    m = mm.add_component(mm.new_module("m", "M"), mm.Component("x"))
    with pytest.raises(mm.ModelError, match=message):
        edit(m)


def test_replace_document_refuses_an_unknown_id():
    m = mm.add_document(mm.new_module("m", "M"), mm.DocumentReference("doc-1", name="plan"))
    with pytest.raises(mm.ModelError) as caught:
        mm.replace_document(m, mm.DocumentReference("doc-2", name="plan"))
    assert str(caught.value) == "unknown document id 'doc-2'"


def test_add_entry_names_add_cross_ref_and_set_element_names_the_fields_it_keeps():
    m = mm.new_module("m", "M")
    with pytest.raises(mm.ModelError, match="added with add_cross_ref"):
        mm.add_entry(m, mm.CrossReference("m/general", "m/status"))
    with pytest.raises(mm.ModelError, match="its id, cross_refs must be the model's"):
        mm.set_element(m, replace(m, id="n", cross_refs=(mm.CrossReference("m/a", "m/b"),)))
    assert mm.set_element(m, replace(m, name="N")) == replace(m, name="N")


@pytest.mark.parametrize("attributes, message", [
    ((mm.Parameter("w", "1"), mm.Parameter("w", "2")), "duplicate static attribute 'w'"),
    ((mm.Parameter("main_dimensions", "x"),), "built-in parameter"),
    ((mm.Parameter("a b", "1"),), "invalid attribute name"),
    ((mm.Parameter("w", "1\r2"),), "carriage returns"),
], ids=["duplicate", "built-in", "bad name", "carriage return"])
def test_set_element_checks_the_open_attribute_set(attributes, message):
    m = mm.new_module("m", "M")
    with pytest.raises(mm.ModelError, match=message):
        mm.set_element(m, replace(m.general, static_attributes=attributes))
    given = (mm.Parameter("w", "1", "kg"), mm.Parameter("v", "2"))
    set_ = mm.set_element(m, replace(m.general, static_attributes=given))
    assert set_ == mm.add_static_attribute(mm.add_static_attribute(m, "w", "1", "kg"), "v", "2")


def test_remove_structural_container_rejected():
    m = mm.new_module("m", "x")
    with pytest.raises(mm.ModelError):
        mm.remove_element(m, "m/general")
    with pytest.raises(mm.ModelError):
        mm.remove_element(m, "m/control/platform")


def test_construction_determinism():
    assert _populated() == _populated()


def _populated() -> mm.ModuleModel:
    m = mm.new_module("m", "Demo")
    m = mm.set_identification(m, name="Demo", identifier="D-1", module_type="junction")
    m = mm.set_main_dimensions(m, "(100,200,300)")
    m = mm.add_static_attribute(m, "weight", "42.5", "kg")
    m = mm.add_runtime_variable(m, "mode", "INT", "", "operating mode")
    m = mm.add_port(m, "input", "in", "(0,0,0)")
    m = mm.add_port(m, "output_1", "out", "(10,0,0)")
    m = mm.add_interaction_space(m, "zone", "(0,0,0)", "(5,5,5)")
    m = mm.add_logistic_function(m, "route-1", "material_flow", "")
    m = mm.add_route(m, "input", "output_1", 1)
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor", component_type="LB", position="(0,0,1)"))
    m = mm.add_component(m, mm.Component(name="A1", kind="actuator", component_type="M", position="(1,0,1)"))
    m = mm.add_variable(m, "i_s1", "BOOL", "input")
    m = mm.add_variable(m, "q_a1", "BOOL", "output")
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "i_s1", "BOOL", "input")
    m = mm.add_io_entry(m, "m/components/A1", "%Q0.0", "q_a1", "BOOL", "output")
    m = mm.set_platform(m, "S7-1500", "ET200SP")
    m = mm.add_control_function(m, "main", "SFC", "")
    m = mm.add_document(m, mm.DocumentReference(
        id="doc-1", discipline="mechanical", stage="mechanical_eng",
        name="layout", server_path="srv://x", assigned_element="m/general"))
    m = mm.add_cross_ref(m, "m/components/S1/position", "m/control/control_functions/main", "guard-uses")
    return m


@pytest.mark.parametrize("name", ["S1\n", "S1\r\n", "\nS1", "S 1", ""])
def test_a_name_must_match_the_segment_grammar_whole(name):
    assert not is_name(name)
    with pytest.raises(PathError):
        split_path(f"m/components/{name}")
    with pytest.raises(mm.ModelError, match="invalid component name"):
        mm.add_component(mm.new_module("m", "M"), mm.Component(name))


def test_the_reader_reports_and_drops_an_entry_whose_name_ends_in_a_newline():
    m = mm.add_component(mm.new_module("m", "M"), mm.Component("S1"))
    m = mm.add_component(m, mm.Component("S2"))
    data = caex_io.serialize(caex_io.from_model(m)).replace(
        b'InternalElement Name="S1"', b'InternalElement Name="S1&#10;"')
    read, warnings = caex_io.to_model(caex_io.parse(data))
    assert [c.name for c in read.components] == ["S2"]
    assert [(w.rule_id, w.element_path, w.message) for w in warnings] == [
        ("invalid-value", "m/components/S1\n", "invalid component name 'S1\\n'")]


def _routed() -> mm.ModuleModel:
    m = mm.new_module("m", "M")
    m = mm.add_port(m, "a", "in", "")
    m = mm.add_port(m, "b", "out", "")
    return mm.add_route(m, "a", "b", 3)


NON_CANONICAL_PRIORITIES = ["1_0", " 7", "+4", "٥", "007"]


@pytest.mark.parametrize("text", NON_CANONICAL_PRIORITIES)
def test_a_route_priority_read_from_a_file_must_be_a_canonical_decimal(text):
    data = caex_io.serialize(caex_io.from_model(_routed())).replace(
        b"<Value>3</Value>", f"<Value>{text}</Value>".encode())
    read, warnings = caex_io.to_model(caex_io.parse(data))
    assert read.function.routes[0].priority == 0
    assert [(w.rule_id, w.element_path) for w in warnings] == [
        ("invalid-value", "m/function/routes/0")]
    assert text in warnings[0].message


@pytest.mark.parametrize("text", NON_CANONICAL_PRIORITIES)
def test_set_parameter_rejects_a_non_canonical_route_priority(text):
    with pytest.raises(mm.ModelError, match="not a canonical decimal integer"):
        mm.set_parameter(_routed(), "m/function/routes/0", "priority", text)


def test_route_priorities_keep_their_int_and_canonical_forms():
    m = mm.set_parameter(_routed(), "m/function/routes/0", "priority", "-12")
    assert m.function.routes[0].priority == -12
    assert mm.add_route(m, "b", "a", 7).function.routes[1].priority == 7


def _with_component() -> mm.ModuleModel:
    return mm.add_component(mm.new_module("m", "M"), mm.Component("c"))


@pytest.mark.parametrize("call, named", [
    (lambda m: mm.set_identification(m, name=5), "identification name"),
    (lambda m: mm.add_runtime_variable(m, "v", "INT", 5), "runtime variable unit"),
    (lambda m: mm.add_io_entry(m, "m/components/c", None), "io map entry logical_address"),
    (lambda m: mm.set_platform(m, None, "x"), "platform controller_type"),
    (lambda m: mm.add_document(m, mm.DocumentReference("d", name=7)), "document reference name"),
    (lambda m: mm.add_port(m, "p", "in", None), "port position"),
    (lambda m: mm.add_route(m, "a", "b", 2.7), "route priority"),
    (lambda m: mm.add_route(m, "a", "b", True), "route priority"),
    (lambda m: mm.add_static_attribute(m, "w", None), "attribute value"),
    (lambda m: mm.set_parameter(m, "m/components/c", "component_type", None), "parameter value"),
    (lambda m: mm.with_roles(m, "m", 5), "role identifier"),
    (lambda m: mm.new_module("m", None), "module name"),
    (lambda m: mm.add_cross_ref(m, "m/components/c", "m/general", None), "cross reference kind"),
    (lambda m: mm.set_main_dimensions(m, 5), "main_dimensions"),
    (lambda m: mm.add_io_entry(m, 5), "io map entry component_path"),
], ids=["identification", "runtime-variable", "io-entry", "platform", "document", "port",
        "float-priority", "bool-priority", "static-attribute", "set-parameter", "roles",
        "module-name", "cross-ref", "main-dimensions", "io-component-path"])
def test_a_builder_rejects_a_value_a_file_cannot_carry_back(call, named):
    with pytest.raises(mm.ModelError, match=named):
        call(_with_component())


@pytest.mark.parametrize("text", ["1_0", "٥", "1٥", " 1_0 ", "0.1_5"])
def test_a_latency_must_be_a_plain_ascii_number(text):
    with pytest.raises(mm.ModelError, match="component latency is not a number"):
        mm.add_component(mm.new_module("m", "M"), mm.Component("A1", "actuator", latency=text))


@pytest.mark.parametrize("text", ["(1_0,0,0)", "(0,٥,0)", "(1_0,٥,0)", "(0, 0, ٥ )"])
def test_a_triple_must_hold_plain_ascii_numbers(text):
    with pytest.raises(mm.ModelError, match="not a triple"):
        mm.add_component(mm.new_module("m", "M"), mm.Component("A1", "actuator", position=text))


TRIPLE_CHARS = "0123456789+-.eE_,() \u2009\u3000\u0665"
TRIPLE_PARTS = st.one_of(st.text(TRIPLE_CHARS.replace(",", ""), max_size=10),
                         st.floats().map(repr), st.integers(-10**25, 10**25).map(str))


@settings(max_examples=1500, deadline=None)
@given(st.one_of(st.text(TRIPLE_CHARS, max_size=30),
                 st.builds("{}({},{},{}){}".format, st.text(" \t", max_size=2), TRIPLE_PARTS,
                           TRIPLE_PARTS, TRIPLE_PARTS, st.text(" \u2009\u3000", max_size=2))))
def test_the_one_call_triple_match_is_a_triple_parse_triple_accepts(text):
    def refusal(check):
        try:
            check(text)
        except mm.ModelError as error:
            return str(error)
        return None
    if mm._PLAIN_TRIPLE.fullmatch(text):
        assert all(map(math.isfinite, mm.parse_triple(text)))
    # the validator, which tries the match first, keeps parse_triple's verdict and message
    assert refusal(lambda t: mm._triple(t, "x")) == (refusal(mm.parse_triple) if text else None)


@pytest.mark.parametrize("text, message", [
    ("(1e400,0,0)", "not a triple of finite numbers: '(1e400,0,0)'"),
    ("(" + "9" * 400 + ",0,0)", "not a triple of finite numbers: '(" + "9" * 400 + ",0,0)'"),
    ("(0,٥,0)", "not a triple: '(0,٥,0)'"),
    ("( 1 , 2,3)", None),
])
def test_a_triple_keeps_its_verdict_and_message(text, message):
    module, component = mm.new_module("m", "M"), mm.Component("A1", "actuator", position=text)
    if message is None:
        assert mm.add_component(module, component).components[0].position == text
        return
    with pytest.raises(mm.ModelError) as error:
        mm.add_component(module, component)
    assert str(error.value) == message


def test_whitespace_around_a_number_stays_allowed():
    m = mm.add_component(mm.new_module("m", "M"), mm.Component(
        "A1", "actuator", position="( 1 ,\t2, 3 )", latency="\u2003 0.5 "))
    assert (m.components[0].position, m.components[0].latency) == ("( 1 ,\t2, 3 )", "\u2003 0.5 ")


@pytest.mark.parametrize("old, new, message", [
    ("<Value>0.125</Value>", "<Value>1_0</Value>", "component latency is not a number: '1_0'"),
    ("<Value>0.125</Value>", "<Value>٥</Value>", "component latency is not a number: '٥'"),
    ("<Value>(1,2,3)</Value>", "<Value>(1_0,٥,0)</Value>", "not a triple: '(1_0,٥,0)'"),
])
def test_the_reader_drops_a_number_with_underscores_or_non_ascii_digits(old, new, message):
    m = mm.add_component(mm.new_module("m", "M"), mm.Component(
        "A1", "actuator", position="(1,2,3)", latency="0.125"))
    data = caex_io.serialize(caex_io.from_model(m)).replace(old.encode(), new.encode())
    read, warnings = caex_io.to_model(caex_io.parse(data))
    kept = {"position": "(1,2,3)", "latency": "0.125"}
    kept["position" if "(" in old else "latency"] = ""
    assert (read.components[0].position, read.components[0].latency) == (
        kept["position"], kept["latency"])
    assert [(w.rule_id, w.element_path, w.message) for w in warnings] == [
        ("invalid-value", "m/components/A1", message)]


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ud800", "￾", "￿"])
def test_a_value_xml_cannot_carry_is_rejected(char):
    m = mm.new_module("m", "M")
    with pytest.raises(mm.ModelError, match="which XML cannot carry"):
        mm.set_parameter(m, "m/general/identification", "name", f"bad{char}value")
    with pytest.raises(mm.ModelError, match="which XML cannot carry"):
        mm.new_module("n", f"bad{char}value")
    with pytest.raises(mm.ModelError, match="which XML cannot carry"):
        mm.add_component(m, mm.Component("S1", component_type=f"bad{char}value"))


def test_tab_and_line_feed_are_still_values():
    m = mm.set_parameter(mm.new_module("m", "M"), "m/general/identification", "name", "a\tb\nc")
    read, warnings = caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))
    assert (read, warnings) == (m, [])


@pytest.mark.parametrize("unit", ["k\x01g", "k\rg"])
def test_a_static_attribute_unit_must_be_clean(unit):
    with pytest.raises(mm.ModelError, match="attribute unit"):
        mm.add_static_attribute(mm.new_module("m1", "x"), "w", "5", unit)


def test_the_reader_reports_and_drops_an_attribute_whose_unit_holds_a_carriage_return():
    m = mm.add_static_attribute(mm.new_module("m", "M"), "w", "5", "kg")
    m = mm.add_static_attribute(m, "h", "2", "m")
    data = caex_io.serialize(caex_io.from_model(m)).replace(b'Unit="kg"', b'Unit="k&#13;g"')
    read, warnings = caex_io.to_model(caex_io.parse(data))
    assert [p.name for p in read.general.static_attributes] == ["h"]
    assert [(w.rule_id, w.element_path) for w in warnings] == [("invalid-value", "m/general")]


NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity"]


@pytest.mark.parametrize("text", NON_FINITE)
def test_a_latency_must_be_a_finite_number(text):
    with pytest.raises(mm.ModelError, match="finite"):
        mm.add_component(mm.new_module("m", "M"), mm.Component("A1", "actuator", latency=text))


@pytest.mark.parametrize("text", NON_FINITE)
def test_a_triple_must_hold_finite_numbers(text):
    with pytest.raises(mm.ModelError, match="finite"):
        mm.parse_triple(f"({text},0,0)")
    with pytest.raises(mm.ModelError, match="finite"):
        mm.add_port(mm.new_module("m", "M"), "p", "in", f"(0,{text},0)")
    with pytest.raises(mm.ModelError, match="finite"):
        mm.add_interaction_space(mm.new_module("m", "M"), "s", "(0,0,0)", f"({text},{text},{text})")


def test_whitespace_around_a_number_is_still_accepted():
    assert mm.parse_triple(" (0.10, 0.00, 0.80) ") == (0.1, 0.0, 0.8)
    m = mm.add_component(mm.new_module("m", "M"), mm.Component("A1", "actuator", latency=" 0.5"))
    assert m.components[0].latency == " 0.5"


def test_the_reader_defaults_a_non_finite_latency():
    m = mm.add_component(mm.new_module("m", "M"), mm.Component("A1", "actuator", latency="0.5"))
    data = caex_io.serialize(caex_io.from_model(m)).replace(b"<Value>0.5</Value>", b"<Value>nan</Value>")
    read, warnings = caex_io.to_model(caex_io.parse(data))
    assert read.components[0].latency == ""
    assert [(w.rule_id, w.element_path) for w in warnings] == [("invalid-value", "m/components/A1")]
