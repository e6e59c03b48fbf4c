"""The PLCopen reader's errors: message, line and column for malformed input.

Every case holds one defect. The expected texts of PINNED were recorded
from the tree-walking reader this one replaced and must hold unchanged;
REJECTED lists what that reader accepted silently although docs/format.md
rejects it. The round-trip properties of emit_plcopen/parse_plcopen close
the file.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmkit import sfc
from mfmkit.sfc import SfcProgram, SfcStep, SfcTransition, SfcVariable
from mfmkit.xmlio import XmlError

BASE = b"""<?xml version="1.0" encoding="utf-8"?>
<project name="p">
  <pou name="p" pouType="program">
    <interface>
      <variable name="v" dataType="BOOL" kind="input"/>
    </interface>
    <body>
      <sfc>
        <step name="a" initial="true"/>
        <step name="b">
          <action>v := TRUE</action>
        </step>
        <transition source="a" target="b" condition="v"/>
      </sfc>
    </body>
  </pou>
</project>
"""


def _between(first: bytes, last: bytes) -> bytes:
    return BASE[BASE.index(first):BASE.index(last)]


POU = _between(b"  <pou", b"</project>")
INTERFACE = _between(b"    <interface>", b"    <body>")
BODY = _between(b"    <body>", b"  </pou>")
SFC = _between(b"      <sfc>", b"    </body>")


def _sub(old: bytes, new: bytes) -> bytes:
    assert BASE.count(old) == 1, old
    return BASE.replace(old, new)


def test_the_base_file_is_canonical():
    program = sfc.parse_plcopen(BASE)
    assert program == SfcProgram(
        "p", (SfcStep("a", True), SfcStep("b", False, ("v := TRUE",))),
        (SfcTransition("a", "b", "v"),), (SfcVariable("v", "BOOL", "input"),))
    assert sfc.emit_plcopen(program) == BASE


PINNED = {
    "wrong-root": (
        BASE.replace(b"project", b"plant"), "unsupported root element <plant>", 2, 1),
    "pou-type": (
        _sub(b'pouType="program"', b'pouType="functionBlock"'),
        "unsupported pouType 'functionBlock'", 3, 3),
    "initial-flag": (
        _sub(b'initial="true"', b'initial="yes"'), "bad initial flag 'yes'", 9, 9),
    "empty-initial-flag": (
        _sub(b'initial="true"', b'initial=""'), "bad initial flag ''", 9, 9),
    "missing-project-name": (
        _sub(b'<project name="p">', b"<project>"), "missing attribute 'name' on <project>", 2, 1),
    "missing-pou-name": (
        _sub(b'<pou name="p" ', b"<pou "), "missing attribute 'name' on <pou>", 3, 3),
    "missing-pou-type": (
        _sub(b' pouType="program"', b""), "missing attribute 'pouType' on <pou>", 3, 3),
    "missing-variable-name": (
        _sub(b'<variable name="v" ', b"<variable "),
        "missing attribute 'name' on <variable>", 5, 7),
    "missing-variable-type": (
        _sub(b' dataType="BOOL"', b""), "missing attribute 'dataType' on <variable>", 5, 7),
    "missing-variable-kind": (
        _sub(b' kind="input"', b""), "missing attribute 'kind' on <variable>", 5, 7),
    "missing-step-name": (
        _sub(b'<step name="b">', b"<step>"), "missing attribute 'name' on <step>", 10, 9),
    "missing-transition-source": (
        _sub(b' source="a"', b""), "missing attribute 'source' on <transition>", 13, 9),
    "missing-transition-target": (
        _sub(b' target="b"', b""), "missing attribute 'target' on <transition>", 13, 9),
    "missing-transition-condition": (
        _sub(b' condition="v"', b""), "missing attribute 'condition' on <transition>", 13, 9),
    "unknown-project-attribute": (
        _sub(b'<project name="p"', b'<project name="p" version="2"'),
        "unsupported attribute 'version' on <project>", 2, 1),
    "unknown-pou-attribute": (
        _sub(b'pouType="program"', b'pouType="program" lang="st"'),
        "unsupported attribute 'lang' on <pou>", 3, 3),
    "unknown-variable-attribute": (
        _sub(b'kind="input"', b'kind="input" init="0"'),
        "unsupported attribute 'init' on <variable>", 5, 7),
    "unknown-step-attribute": (
        _sub(b'<step name="b"', b'<step name="b" priority="1"'),
        "unsupported attribute 'priority' on <step>", 10, 9),
    "unknown-transition-attribute": (
        _sub(b'condition="v"', b'condition="v" delay="1"'),
        "unsupported attribute 'delay' on <transition>", 13, 9),
    "child-in-interface": (
        _sub(b"    </interface>", b'      <constant name="c"/>\n    </interface>'),
        "unsupported element <constant> in interface", 6, 7),
    "child-in-sfc": (
        _sub(b"      </sfc>", b"        <jump/>\n      </sfc>"),
        "unsupported element <jump> in sfc", 14, 9),
    "child-in-step": (
        _sub(b"          <action>", b"          <note/>\n          <action>"),
        "unsupported element <note> in step", 11, 11),
    "no-pou": (BASE.replace(POU, b""), "expected one <pou> in <project>", 2, 1),
    "two-pous": (BASE.replace(POU, POU + POU), "expected one <pou> in <project>", 2, 1),
    "no-interface": (BASE.replace(INTERFACE, b""), "expected one <interface> in <pou>", 3, 3),
    "two-interfaces": (
        BASE.replace(INTERFACE, INTERFACE * 2), "expected one <interface> in <pou>", 3, 3),
    "no-body": (BASE.replace(BODY, b""), "expected one <body> in <pou>", 3, 3),
    "two-bodies": (BASE.replace(BODY, BODY * 2), "expected one <body> in <pou>", 3, 3),
    "no-sfc": (BASE.replace(SFC, b""), "expected one <sfc> in <body>", 7, 5),
    "two-sfcs": (BASE.replace(SFC, SFC * 2), "expected one <sfc> in <body>", 7, 5),
    "text-in-sfc": (_sub(b"<sfc>\n", b"<sfc>x\n"), "unexpected text inside <sfc>", 8, 12),
    "text-in-step": (
        _sub(b'<step name="b">\n', b'<step name="b">\n          loose\n'),
        "unexpected text inside <step>", 11, 1),
    "text-in-project": (
        _sub(b'<project name="p">\n', b'<project name="p">\n  x\n'),
        "unexpected text inside <project>", 3, 1),
    "mixed-content-in-action": (
        _sub(b"v := TRUE</action>", b"v := TRUE<b/></action>"),
        "element <action> mixes text and child elements", 11, 11),
}

REJECTED = {
    "interface-attribute": (
        _sub(b"<interface>", b'<interface color="red">'),
        "unsupported attribute 'color' on <interface>", 4, 5),
    "body-attribute": (
        _sub(b"<body>", b'<body x="1">'), "unsupported attribute 'x' on <body>", 7, 5),
    "sfc-attribute": (
        _sub(b"<sfc>", b'<sfc y="2">'), "unsupported attribute 'y' on <sfc>", 8, 7),
    "action-attribute": (
        _sub(b"<action>", b'<action lang="st">'),
        "unsupported attribute 'lang' on <action>", 11, 11),
    "child-in-body": (
        _sub(b"    </body>", b"      <junk/>\n    </body>"),
        "unsupported element <junk> in body", 15, 7),
    "child-in-pou": (
        _sub(b"  </pou>", b"    <extra/>\n  </pou>"),
        "unsupported element <extra> in pou", 16, 5),
    "child-in-project": (
        _sub(b"</project>", b"  <more/>\n</project>"),
        "unsupported element <more> in project", 17, 3),
    "child-in-action": (
        _sub(b"<action>v := TRUE</action>", b"<action><b/></action>"),
        "unsupported element <b> in action", 11, 19),
    "child-in-variable": (
        _sub(b'kind="input"/>', b'kind="input"><x/></variable>'),
        "unsupported element <x> in variable", 5, 55),
    "child-in-transition": (
        _sub(b'condition="v"/>', b'condition="v"><x/></transition>'),
        "unsupported element <x> in transition", 13, 57),
}

MALFORMED = {**PINNED, **REJECTED}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gets_its_message_and_position(case):
    data, message, line, column = MALFORMED[case]
    with pytest.raises(XmlError) as err:
        sfc.parse_plcopen(data)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


#: 150 valid steps, 450 lines, before the first step: the reader places an
#: error first seen at an element's end by reading the file a second time.
STEPS = b"".join(b'        <step name="s%d">\n          <action>x := %d</action>\n'
                 b"        </step>\n" % (i, i) for i in range(150))


@pytest.mark.parametrize("tail, message, line, column", [
    (b"", "bad initial flag 'yes'", 459, 9),
    (b"      x\n", "unexpected text inside <sfc>", 464, 1),
    (b"      <?pi?>\n", "processing instruction <?pi?> is not supported", 464, 7),
], ids=["build error", "then text", "then processing instruction"])
def test_a_build_error_after_many_elements_keeps_its_position_and_precedence(
        tail, message, line, column):
    data = _sub(b'        <step name="a" initial="true"/>\n',
                STEPS + b'        <step name="a" initial="yes"/>\n')
    data = data.replace(b"      </sfc>", tail + b"      </sfc>")
    with pytest.raises(XmlError) as err:
        sfc.parse_plcopen(data)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_the_first_error_met_is_reported():
    # an element's tag and attributes are met at its start, its value (here
    # the initial flag and the single interface) at its end
    data = BASE.replace(INTERFACE, INTERFACE * 2).replace(b'initial="true"', b'initial="yes"')
    with pytest.raises(XmlError, match=r"bad initial flag 'yes' \(line 12, column 9\)"):
        sfc.parse_plcopen(data)
    with pytest.raises(XmlError, match=r"'y' on <sfc> \(line 11, column 7\)"):
        sfc.parse_plcopen(data.replace(b"<sfc>", b'<sfc y="2">'))


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

# Strings the writer must escape or keep literally: quotes, markup, tab,
# line feed and carriage return, besides plain and non-ASCII letters.
_TEXT = st.text(alphabet=st.sampled_from('ab Z9é"\'&<>\t\n\r;:='), max_size=12)

_PROGRAMS = st.builds(
    SfcProgram,
    name=_TEXT,
    steps=st.lists(st.builds(
        SfcStep, name=_TEXT, initial=st.booleans(),
        actions=st.lists(_TEXT, max_size=3).map(tuple)), max_size=4).map(tuple),
    transitions=st.lists(st.builds(
        SfcTransition, source=_TEXT, target=_TEXT, condition=_TEXT), max_size=4).map(tuple),
    variables=st.lists(st.builds(
        SfcVariable, name=_TEXT, data_type=_TEXT, kind=_TEXT), max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(_PROGRAMS)
def test_emit_and_parse_are_inverse(program):
    data = sfc.emit_plcopen(program)
    assert sfc.parse_plcopen(data) == program
    assert sfc.emit_plcopen(sfc.parse_plcopen(data)) == data
