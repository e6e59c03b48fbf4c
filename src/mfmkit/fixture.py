"""A fully populated demonstration module: a T-junction conveyor.

One transport unit enters at the input port and leaves through output 1
(straight ahead, conveyor 1) or output 2 (diverted by the pneumatic switch
onto conveyor 2). Five light-barrier/position sensors and three actuators
are wired through io_mapping; the routing behavior lives in
data/tjunction.bhv with two recorded traces next to it.

The model is complete for every engineering stage, all references resolve,
and every role/interface assignment is legal, so it doubles as the clean
baseline for tamper tests and as the `init-example` scaffold.
"""
from __future__ import annotations

from . import _data_text
from . import model as mm
from .caex_io import attach_external_document

FIXTURE_ID = "tjunction-01"

_SENSORS = (
    # name, type, position, dimensions
    ("LB_in", "LG5", "(0,0,400)", "(20,20,60)"),
    ("LB_out1", "LG5", "(2000,0,400)", "(20,20,60)"),
    ("LB_out2", "LG5", "(1000,1500,400)", "(20,20,60)"),
    ("SwitchPos1", "IN5", "(950,700,150)", "(10,10,30)"),
    ("SwitchPos2", "IN5", "(1050,800,150)", "(10,10,30)"),
)

_ACTUATORS = (
    # name, type, position, dimensions, latency
    ("Conv1", "P100", "(0,10,0)", "(50,150,800)", "0.1"),
    ("Conv2", "P100", "(1000,760,0)", "(50,150,800)", "0.15"),
    ("Switch", "W20", "(1000,750,100)", "(300,300,200)", "0.3"),
)

_CONVEYORS = (
    ("Belt1", "B300", "(0,0,0)", "(2000,400,350)"),
    ("Belt2", "B300", "(1000,750,0)", "(400,1500,350)"),
)

#: component -> (logical address, variable, direction), in io_mapping order.
_IO_TABLE = (
    ("LB_in", "%I0.0", "i_lb_in", "input"),
    ("LB_out1", "%I0.1", "i_lb_out1", "input"),
    ("LB_out2", "%I0.2", "i_lb_out2", "input"),
    ("SwitchPos1", "%I0.3", "i_switch_pos1", "input"),
    ("SwitchPos2", "%I0.4", "i_switch_pos2", "input"),
    ("Conv1", "%Q0.0", "q_conv1", "output"),
    ("Conv2", "%Q0.1", "q_conv2", "output"),
    ("Switch", "%Q0.2", "q_switch", "output"),
)


def behavior_text() -> str:
    """The routing behavior shipped with the fixture."""
    return _data_text("tjunction.bhv")


def trace_text(name: str) -> str:
    """A recorded trace; `name` is `route-1` or `route-2`."""
    return _data_text(f"traces/{name}.trace")


def tjunction_model() -> mm.ModuleModel:
    """Build the T-junction module model."""
    mid = FIXTURE_ID
    m = mm.new_module(mid, "T-Junction")
    m = mm.set_identification(m, name="T-Junction", identifier="TJ-01", module_type="junction")
    m = mm.set_main_dimensions(m, "(2000,1500,900)")
    m = mm.add_static_attribute(m, "manufacturer", "ACME Intralogistics")
    m = mm.add_static_attribute(m, "weight", "42.5", "kg")

    m = mm.add_runtime_variable(m, "operating_mode", "INT", "", "current operating mode")
    m = mm.add_runtime_variable(m, "energy_consumption", "REAL", "kW",
                                "momentary electrical power draw")
    m = mm.add_runtime_variable(m, "throughput", "REAL", "1/h", "transport units per hour")

    m = mm.add_logistic_function(m, "route-to-output_1", "material_flow", "behavior-spec")
    m = mm.add_logistic_function(m, "route-to-output_2", "material_flow", "behavior-spec")

    m = mm.add_port(m, "input", "in", "(0,0,400)")
    m = mm.add_port(m, "output_1", "out", "(2000,0,400)")
    m = mm.add_port(m, "output_2", "out", "(1000,1500,400)")
    m = mm.add_interaction_space(m, "transfer-zone", "(0,0,0)", "(2000,1500,900)")

    m = mm.add_control_function(m, "route", "SFC", "control-skeleton")
    for name, _addr, variable, direction in _IO_TABLE:
        del name
        m = mm.add_variable(m, variable, "BOOL", direction)
    m = mm.add_variable(m, "order_output_1", "BOOL", "input")
    m = mm.add_variable(m, "order_output_2", "BOOL", "input")

    for name, ctype, position, dims in _SENSORS:
        m = mm.add_component(m, mm.Component(
            name=name, kind="sensor", component_type=ctype,
            position=position, main_dimensions=dims))
    for name, ctype, position, dims, latency in _ACTUATORS:
        m = mm.add_component(m, mm.Component(
            name=name, kind="actuator", component_type=ctype,
            position=position, main_dimensions=dims, latency=latency))
    for name, ctype, position, dims in _CONVEYORS:
        m = mm.add_component(m, mm.Component(
            name=name, kind="conveyor", component_type=ctype,
            position=position, main_dimensions=dims))

    for name, address, variable, direction in _IO_TABLE:
        m = mm.add_io_entry(
            m, f"{mid}/components/{name}", address, variable, "BOOL", direction)
    m = mm.set_platform(m, "S7-1500", "ET200SP")

    m = mm.add_document(m, mm.DocumentReference(
        id="layout-3d", discipline="mechanical", stage="mechanical_eng",
        name="3D layout", server_path="srv://docs/layout/tjunction.dae",
        assigned_element=f"{mid}/general"))
    m = mm.add_document(m, mm.DocumentReference(
        id="behavior-spec", discipline="logistics", stage="logistics_planning",
        name="Routing behavior", server_path="srv://docs/behavior/tjunction.bhv",
        assigned_element=f"{mid}/function/logistic_functions/route-to-output_1"))
    m = mm.add_document(m, mm.DocumentReference(
        id="wiring-plan", discipline="electrical", stage="electrical_eng",
        name="Wiring plan", server_path="srv://docs/wiring/tjunction.pdf",
        assigned_element=f"{mid}/control"))
    m = mm.add_document(m, mm.DocumentReference(
        id="control-skeleton", discipline="software", stage="control_hmi_eng",
        name="Control skeleton", server_path="srv://docs/control/tjunction.plcopen.xml",
        assigned_element=f"{mid}/control/control_functions/route"))

    # Wiring: each i/o entry to its declared variable.
    for i, (_name, _addr, variable, _direction) in enumerate(_IO_TABLE):
        m = mm.add_cross_ref(
            m, f"{mid}/control/io_mapping/{i}", f"{mid}/control/variables/{variable}",
            "signal-of")
    # The control skeleton guards on the three light-barrier positions.
    for sensor in ("LB_in", "LB_out1", "LB_out2"):
        m = mm.add_cross_ref(
            m, f"{mid}/components/{sensor}/position",
            f"{mid}/control/control_functions/route", "guard-uses")
    # Both routing functions are realized by the same control function.
    for function in ("route-to-output_1", "route-to-output_2"):
        m = mm.add_cross_ref(
            m, f"{mid}/function/logistic_functions/{function}",
            f"{mid}/control/control_functions/route", "realized-by")
    # Ports are observed by their light barriers.
    for port, sensor in (("input", "LB_in"), ("output_1", "LB_out1"), ("output_2", "LB_out2")):
        m = mm.add_cross_ref(
            m, f"{mid}/interface/ports/{port}", f"{mid}/components/{sensor}", "sensed-by")
    # Routing functions drive the actuators.
    for function, actuator in (
        ("route-to-output_1", "Conv1"), ("route-to-output_2", "Conv2"),
        ("route-to-output_2", "Switch"),
    ):
        m = mm.add_cross_ref(
            m, f"{mid}/function/logistic_functions/{function}",
            f"{mid}/components/{actuator}", "actuates")
    # The two position sensors report the switch state.
    for sensor in ("SwitchPos1", "SwitchPos2"):
        m = mm.add_cross_ref(
            m, f"{mid}/components/{sensor}", f"{mid}/components/Switch", "position-of")
    m = mm.add_cross_ref(
        m, f"{mid}/control/control_functions/route", f"{mid}/control/platform", "deployed-on")
    # Actuators are wired as their i/o entries.
    for actuator, index in (("Conv1", 5), ("Conv2", 6), ("Switch", 7)):
        m = mm.add_cross_ref(
            m, f"{mid}/components/{actuator}", f"{mid}/control/io_mapping/{index}", "wired-as")

    ident = f"{mid}/general/identification"
    m = mm.with_roles(m, ident, "DiscManufacturingEquipment")
    m = mm.with_external_ref(m, ident, mm.ExternalRef(
        "comm", "CommunicationInterfaceClassLib", f"profinet://{mid}"))
    m = attach_external_document(
        m, f"{mid}/general", "COLLADAInterface", "srv://docs/layout/tjunction.dae")
    for function in ("route-to-output_1", "route-to-output_2"):
        m = mm.with_roles(m, f"{mid}/function/logistic_functions/{function}",
                          "AutomationMLExtendedRoleClassLib")
    m = attach_external_document(
        m, f"{mid}/function/logistic_functions/route-to-output_1",
        "AttachmentInterface", "srv://docs/behavior/tjunction.bhv")
    route = f"{mid}/control/control_functions/route"
    m = mm.with_roles(m, route, "ControlEquipment")
    m = attach_external_document(
        m, route, "PLCopenXMLInterface", "srv://docs/control/tjunction.plcopen.xml")
    return m
