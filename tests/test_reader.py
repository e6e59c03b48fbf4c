"""The CAEX reader's errors: message, line and column for malformed input.

Every case below holds one defect, except the precedence cases, which pin
which of two defects is reported. The expected texts were recorded from the
tree-based reader this one replaced; the byte-level rules (xmlio) and the
CAEX structure rules (caex_io) must keep producing them unchanged.
"""
from __future__ import annotations

import pytest

from mfmkit import caex_io, fixture
from mfmkit import model as mm
from mfmkit.xmlio import MAX_DEPTH, Tag, XmlError, parse_tree

DECL = b'<?xml version="1.0" encoding="utf-8"?>\n'


def _doc(body: bytes) -> bytes:
    """A file whose instance hierarchy `h` holds `body`, from line 4 on."""
    return (DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n' + body
            + b"  </InstanceHierarchy>\n</CAEXFile>\n")


def _elem(body: bytes) -> bytes:
    """A file whose element `e` holds `body`, from line 5 on."""
    return _doc(b'    <InternalElement Name="e">\n' + body + b"    </InternalElement>\n")


def _nested(levels: int) -> bytes:
    return (b'<InstanceHierarchy Name="h">' + b'<InternalElement Name="e">' * levels
            + b"</InternalElement>" * levels + b"</InstanceHierarchy>")


STRUCTURAL = {
    "unknown-root": (
        DECL + b"<Project/>\n",
        "unsupported root element <Project>", 2, 1),
    "unknown-root-attribute": (
        DECL + b'<CAEXFile Version="3"/>\n',
        "unsupported attribute 'Version' on <CAEXFile>", 2, 1),
    "unknown-attribute": (
        DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h" Version="1"/>\n</CAEXFile>\n',
        "unsupported attribute 'Version' on <InstanceHierarchy>", 3, 3),
    "unknown-before-missing-attribute": (
        _doc(b'    <InternalElement Kind="x"/>\n'),
        "unsupported attribute 'Kind' on <InternalElement>", 4, 5),
    "missing-hierarchy-name": (
        DECL + b"<CAEXFile>\n  <InstanceHierarchy/>\n</CAEXFile>\n",
        "missing attribute 'Name' on <InstanceHierarchy>", 3, 3),
    "missing-element-name": (
        _doc(b'    <InternalElement ID="1"/>\n'),
        "missing attribute 'Name' on <InternalElement>", 4, 5),
    "missing-attribute-name": (
        _elem(b'      <Attribute Unit="mm"/>\n'),
        "missing attribute 'Name' on <Attribute>", 5, 7),
    "missing-role-path": (
        _elem(b"      <RoleRequirements/>\n"),
        "missing attribute 'RefBaseRoleClassPath' on <RoleRequirements>", 5, 7),
    "missing-link-side": (
        DECL + b'<CAEXFile>\n  <InternalLink Name="l" RefPartnerSideA="a"/>\n</CAEXFile>\n',
        "missing attribute 'RefPartnerSideB' on <InternalLink>", 3, 3),
    "missing-library-name": (
        DECL + b"<CAEXFile>\n  <RoleClassLibRef/>\n</CAEXFile>\n",
        "missing attribute 'Name' on <RoleClassLibRef>", 3, 3),
    "unknown-value-attribute": (
        _elem(b'      <Attribute Name="p"><Value Lang="en">1</Value></Attribute>\n'),
        "unsupported attribute 'Lang' on <Value>", 5, 27),
    "unknown-interface-attribute": (
        _elem(b'      <ExternalInterface Name="i" ID="x"/>\n'),
        "unsupported attribute 'ID' on <ExternalInterface>", 5, 7),
    "child-in-caexfile": (
        DECL + b'<CAEXFile>\n  <SystemUnitClassLib Name="s"/>\n</CAEXFile>\n',
        "unsupported element <SystemUnitClassLib> in CAEXFile", 3, 3),
    "child-in-hierarchy": (
        _doc(b'    <Attribute Name="p"/>\n'),
        "unsupported element <Attribute> in InstanceHierarchy", 4, 5),
    "child-in-element": (
        _elem(b'      <SupportedRoleClass RefRoleClassPath="r"/>\n'),
        "unsupported element <SupportedRoleClass> in InternalElement", 5, 7),
    "child-in-attribute": (
        _elem(b'      <Attribute Name="p"><DefaultValue/></Attribute>\n'),
        "unsupported element <DefaultValue> in Attribute", 5, 27),
    "child-in-interface": (
        _elem(b'      <ExternalInterface Name="i">'
              b'<RoleRequirements RefBaseRoleClassPath="r"/></ExternalInterface>\n'),
        "unsupported element <RoleRequirements> in ExternalInterface", 5, 35),
    "two-values": (
        _elem(b'      <Attribute Name="p"><Value>1</Value><Value>2</Value></Attribute>\n'),
        "multiple <Value> children", 5, 43),
    "duplicate-in-hierarchy": (
        _doc(b'    <InternalElement Name="a"/>\n    <InternalElement Name="a"/>\n'),
        "duplicate InternalElement name 'a'", 5, 5),
    "duplicate-in-element": (
        _elem(b'      <InternalElement Name="a"/>\n      <InternalElement Name="b"/>\n'
              b'      <InternalElement Name="a"/>\n'),
        "duplicate InternalElement name 'a'", 7, 7),
}

BYTE_LEVEL = {
    "text-outside-value": (
        DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h">stray</InstanceHierarchy>\n'
               b"</CAEXFile>\n",
        "unexpected text inside <InstanceHierarchy>", 3, 31),
    "text-on-a-later-line": (
        _doc(b'    <InternalElement Name="e">\n\n      \n   stray text\n'
             b"    </InternalElement>\n"),
        "unexpected text inside <InternalElement>", 7, 1),
    "text-after-references": (
        _doc(b'    <InternalElement Name="e">  &#32;&amp;x</InternalElement>\n'),
        "unexpected text inside <InternalElement>", 4, 38),
    "text-after-a-comment": (
        _doc(b'    <InternalElement Name="e">  <!-- c -->  x\n    </InternalElement>\n'),
        "unexpected text inside <InternalElement>", 4, 43),
    "text-in-the-root": (
        DECL + b"<CAEXFile>\n  x\n</CAEXFile>\n",
        "unexpected text inside <CAEXFile>", 3, 1),
    "text-in-cdata": (
        _doc(b'    <InternalElement Name="e"><![CDATA[x]]></InternalElement>\n'),
        "unexpected text inside <InternalElement>", 4, 40),
    "text-in-an-attribute": (
        _elem(b'      <Attribute Name="p">\n        loose\n      </Attribute>\n'),
        "unexpected text inside <Attribute>", 6, 1),
    "text-after-multibyte-characters": (
        _doc('    <InternalElement Name="éé">é x</InternalElement>\n'.encode()),
        "unexpected text inside <InternalElement>", 4, 32),
    "mixed-content": (
        _elem(b'      <Attribute Name="p"><Value>1<b/></Value></Attribute>\n'),
        "element <Value> mixes text and child elements", 5, 27),
    "mixed-content-whitespace": (
        _elem(b'      <Attribute Name="p"><Value>\n  <b/>\n</Value></Attribute>\n'),
        "element <Value> mixes text and child elements", 5, 27),
    "doctype": (
        DECL + b"<!DOCTYPE CAEXFile>\n<CAEXFile/>\n",
        "DOCTYPE declarations are not supported", 2, 19),
    "processing-instruction": (
        DECL + b"<CAEXFile>\n  <?app data?>\n</CAEXFile>\n",
        "processing instruction <?app?> is not supported", 3, 3),
    "encoding": (
        b'<?xml version="1.0" encoding="iso-8859-1"?>\n<CAEXFile/>\n',
        "unsupported encoding 'iso-8859-1'; files must be UTF-8", 1, 1),
    "depth-257": (
        DECL + b"<CAEXFile>" + _nested(MAX_DEPTH - 1) + b"</CAEXFile>\n",
        f"elements nested deeper than {MAX_DEPTH} levels", 2, 6643),
    "truncated": (
        DECL + b"<CAEXFile>\n  <InstanceHierarchy",
        "unclosed token", 3, 3),
    "truncated-in-a-value": (
        DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n    <InternalElement Name="e">\n'
               b'      <Attribute Name="p"><Value>abc',
        "no element found", 5, 37),
    "empty": (b"", "no element found", 1, 1),
    "whitespace-only": (b"  \n", "no element found", 2, 1),
    "mismatched-tag": (
        _doc(b'    <InternalElement Name="e"></InternalEl>\n'),
        "mismatched tag", 4, 33),
    "invalid-utf8": (
        _doc(b'    <InternalElement Name="\xff"/>\n'),
        "not well-formed (invalid token)", 4, 28),
}

PRECEDENCE = {
    "subtree-error-before-duplicate": (
        _doc(b'    <InternalElement Name="a"/>\n    <InternalElement Name="a">\n'
             b'      <Attribute Name="p" Bad="1"/>\n    </InternalElement>\n'),
        "unsupported attribute 'Bad' on <Attribute>", 6, 7),
    "structural-error-before-truncation": (
        _doc(b'    <InternalElement Name="e" Bad="1"/>\n')[:-30],
        "unclosed token", 5, 3),
    "structural-error-before-text": (
        _doc(b'    <InternalElement Name="e" Bad="1"/>\n'
             b'    <InternalElement Name="f">x</InternalElement>\n'),
        "unexpected text inside <InternalElement>", 5, 31),
    "structural-error-before-depth": (
        DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n    <Foo/>\n'
               b"  </InstanceHierarchy>\n" + _nested(MAX_DEPTH - 1) + b"</CAEXFile>\n",
        f"elements nested deeper than {MAX_DEPTH} levels", 6, 6633),
    "text-before-malformed-markup": (
        _doc(b'    <InternalElement Name="e">stray & more</InternalElement>\n'),
        "unexpected text inside <InternalElement>", 4, 31),
    "text-before-processing-instruction": (
        _doc(b'    <InternalElement Name="e">x<?app data?></InternalElement>\n'),
        "unexpected text inside <InternalElement>", 4, 31),
}

MALFORMED = {**STRUCTURAL, **BYTE_LEVEL, **PRECEDENCE}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gets_its_message_and_position(case):
    data, message, line, column = MALFORMED[case]
    with pytest.raises(XmlError) as err:
        caex_io.parse(data)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("case", sorted(BYTE_LEVEL))
def test_parse_tree_applies_the_same_byte_level_rules(case):
    data, message, line, column = BYTE_LEVEL[case]
    with pytest.raises(XmlError) as err:
        parse_tree(data, "CAEXFile", caex_io.TAGS)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_unicode_whitespace_outside_value_is_whitespace():
    data = _doc('    <InternalElement Name="e"> </InternalElement>\n'.encode())
    assert caex_io.parse(data).instance_hierarchies[0].elements[0].name == "e"


LOST = b'<Attribute Name="lost"><Value>v</Value></Attribute>'

LEAF_CHILDREN = {
    "Value": (
        _elem(b'      <Attribute Name="p"><Value>' + LOST + b"</Value></Attribute>\n"),
        5, 34),
    "RoleRequirements": (
        _elem(b'      <RoleRequirements RefBaseRoleClassPath="r">' + LOST
              + b"</RoleRequirements>\n"),
        5, 50),
    "RoleClassLibRef": (
        DECL + b'<CAEXFile>\n  <RoleClassLibRef Name="r">\n    ' + LOST
        + b"\n  </RoleClassLibRef>\n</CAEXFile>\n",
        4, 5),
    "InterfaceClassLibRef": (
        DECL + b'<CAEXFile>\n  <InterfaceClassLibRef Name="i">' + LOST
        + b"</InterfaceClassLibRef>\n</CAEXFile>\n",
        3, 34),
    "InternalLink": (
        DECL + b'<CAEXFile>\n  <InternalLink Name="l" RefPartnerSideA="a" RefPartnerSideB="b">\n'
        b"    " + LOST + b"\n  </InternalLink>\n</CAEXFile>\n",
        4, 5),
}


@pytest.mark.parametrize("leaf", sorted(LEAF_CHILDREN))
def test_a_child_of_a_leaf_element_is_an_error_at_the_child(leaf):
    data, line, column = LEAF_CHILDREN[leaf]
    with pytest.raises(XmlError) as err:
        caex_io.parse(data)
    assert str(err.value) == (
        f"unsupported element <Attribute> in {leaf} (line {line}, column {column})")


def test_a_structural_error_stops_building_but_not_the_byte_level_checks():
    data = _elem(b'      <RoleRequirements RefBaseRoleClassPath="r"><X/></RoleRequirements>\n'
                 b'      <Attribute Name="p"><Value>1</Value><Value>2</Value></Attribute>\n'
                 b"      <InternalElement Name=\"f\">loose</InternalElement>\n")
    with pytest.raises(XmlError, match=r"unexpected text inside <InternalElement> \(line 7,"):
        caex_io.parse(data)
    with pytest.raises(XmlError, match=r"unsupported element <X> in RoleRequirements \(line 5,"):
        caex_io.parse(data.replace(b"loose", b""))


#: 200 valid elements, 600 lines, before a defect: the reader places an
#: error first seen at an element's end by reading the file a second time.
PADDING = b"".join(b'    <InternalElement Name="p%d">\n      <Attribute Name="a" DataType="s">'
                   b"<Value>%d</Value></Attribute>\n    </InternalElement>\n" % (i, i)
                   for i in range(200))
DUPLICATE = b'    <InternalElement Name="a"/>\n    <InternalElement Name="a"/>\n'
MIXED = (b'    <InternalElement Name="m">\n'
         b'      <Attribute Name="p"><Value>1<b/></Value></Attribute>\n    </InternalElement>\n')
STRAY = b'    <InternalElement Name="z">stray</InternalElement>\n'

AT_AN_END = {
    "duplicate": (_doc(PADDING + DUPLICATE), "duplicate InternalElement name 'a'", 605, 5),
    "mixed": (_doc(PADDING + MIXED), "element <Value> mixes text and child elements", 605, 27),
    "duplicate-then-text": (
        _doc(PADDING + DUPLICATE + STRAY), "unexpected text inside <InternalElement>", 606, 31),
    "mixed-then-text": (
        _doc(PADDING + MIXED + STRAY), "element <Value> mixes text and child elements", 605, 27),
    "duplicate-then-truncation": (
        _doc(PADDING + DUPLICATE)[:-30], "unclosed token", 606, 3),
}


@pytest.mark.parametrize("case", sorted(AT_AN_END))
def test_an_error_seen_at_an_element_end_keeps_its_position_and_precedence(case):
    data, message, line, column = AT_AN_END[case]
    with pytest.raises(XmlError) as err:
        caex_io.parse(data)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert caex_io.parse(_doc(PADDING)).instance_hierarchies[0].elements[199].name == "p199"


def test_a_text_element_with_a_child_is_read_as_the_format_allows():
    # no format in mfmkit declares one; the reader gives it to its placing pass
    tags = {"r": Tag((), (), ("t",), lambda attrs, kids, text: kids["t"], None),
            "t": Tag((), (), ("x",), lambda attrs, kids, text: (text, len(kids.get("x", ()))),
                     None, text=True),
            "x": Tag((), (), (), lambda attrs, kids, text: "x", None)}
    assert parse_tree(b"<r><t>ab</t><t><x/></t></r>", "r", tags) == [("ab", 0), ("", 1)]
    with pytest.raises(XmlError, match=r"element <t> mixes text and child elements \(line 1, "
                                       r"column 4\)"):
        parse_tree(b"<r><t>ab<x/></t></r>", "r", tags)
    with pytest.raises(ValueError, match="a folded element takes no attributes"):
        Tag((), ("a",), (), None, None, text=True, folded=True)


def test_the_reader_takes_bytes_only():
    with pytest.raises(TypeError) as caught:
        parse_tree("<CAEXFile/>", "CAEXFile", caex_io.TAGS)
    assert str(caught.value) == "expected bytes"


#: One code point at each end of every range that model._NOT_XML matches.
NOT_XML = (0x0, 0x1, 0x8, 0xB, 0xC, 0xE, 0x1F, 0xD800, 0xDFFF, 0xFFFE, 0xFFFF)


def _tjunction_name(inserted: bytes) -> bytes:
    """The T-junction file with `inserted` inside its module name's Value."""
    data = caex_io.serialize(caex_io.from_model(fixture.tjunction_model()))
    return data.replace(b"<Value>T-Junction<", b"<Value>T-" + inserted + b"Junction<", 1)


@pytest.mark.parametrize("code", NOT_XML, ids=lambda code: f"U+{code:04X}")
def test_no_character_the_model_refuses_reaches_a_value_through_parse(code):
    # a raw surrogate is its UTF-8 form, ED A0 80 for U+D800
    assert mm._NOT_XML.fullmatch(chr(code))
    for inserted, message in (
            (chr(code).encode("utf-8", "surrogatepass"), "not well-formed (invalid token)"),
            (b"&#%d;" % code, "reference to invalid character number")):
        with pytest.raises(XmlError) as err:
            caex_io.parse(_tjunction_name(inserted))
        assert str(err.value) == f"{message} (line 14, column 18)"


def test_a_carriage_return_reference_reaches_to_model_which_reports_it():
    model, warnings = caex_io.to_model(caex_io.parse(_tjunction_name(b"&#13;")))
    assert model.name == ""
    assert [(v.rule_id, v.element_path, v.message) for v in warnings] == [
        ("invalid-value", "tjunction-01", "module model name must not contain carriage returns")]


def test_to_model_reports_a_character_xml_cannot_carry_in_a_document_built_in_code():
    # expat never sees such a document, so the reader's own value check must stay
    doc = caex_io.from_model(fixture.tjunction_model())
    hierarchy = doc.instance_hierarchies[0]
    root = hierarchy.elements[0]
    general = root.children[0]
    assert general.attributes[0].name == "main_dimensions"
    general = general._replace(attributes=(
        general.attributes[0]._replace(value="(1,2,\x013)"),) + general.attributes[1:])
    root = root._replace(children=(general,) + root.children[1:])
    model, warnings = caex_io.to_model(
        doc._replace(instance_hierarchies=(hierarchy._replace(elements=(root,)),)))
    assert model.general.main_dimensions == ""
    assert [(v.rule_id, v.element_path, v.message) for v in warnings] == [
        ("invalid-value", "tjunction-01/general", "general description main_dimensions must "
         "not contain the character U+0001, which XML cannot carry")]
