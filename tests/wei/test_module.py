"""Tests for the WEI module abstraction."""

import pytest

from repro.hardware.pf400 import Pf400Device
from repro.hardware.sciclops import SciclopsDevice
from repro.wei.module import Module, ModuleActionError
from repro.wei.workcell import Workcell, build_color_picker_workcell

#: The actions each device type implements as ``submit_<action>``.
DEVICE_ACTIONS = {
    "sciclops": ["get_plate", "status"],
    "pf400": ["move_home", "transfer"],
    "camera": ["take_picture"],
    "ot2": ["replace_tips", "run_protocol"],
    "barty": ["drain_colors", "fill_colors", "refill_colors"],
}

WORKCELL_YAML = """
name: yaml_cell
modules:
  - type: sciclops
  - type: pf400
  - type: ot2
  - type: ot2
  - type: barty
  - type: camera
"""

WORKCELL_BUILDERS = {
    "factory": lambda: build_color_picker_workcell(n_ot2=2, seed=0),
    "yaml": lambda: Workcell.from_yaml(WORKCELL_YAML, seed=0),
}


@pytest.fixture
def sciclops_module(deck, clock):
    device = SciclopsDevice(deck, clock=clock)
    return Module("sciclops", device)


class TestInvoke:
    def test_invoke_returns_value_and_records(self, sciclops_module, deck):
        invocation = sciclops_module.invoke("get_plate")
        assert invocation.module == "sciclops"
        assert invocation.commands == 1
        assert invocation.duration > 0
        assert deck.plate_at("sciclops.exchange") is invocation.return_value

    def test_unknown_action_rejected(self, sciclops_module):
        with pytest.raises(ModuleActionError, match="has no action"):
            sciclops_module.invoke("fly")

    def test_invoke_with_kwargs(self, deck, clock):
        sciclops = SciclopsDevice(deck, clock=clock)
        pf400 = Pf400Device(deck, clock=clock)
        module = Module("pf400", pf400)
        sciclops.get_plate()
        invocation = module.invoke("transfer", source="sciclops.exchange", target="camera.stage")
        assert invocation.commands == 1
        assert deck.is_occupied("camera.stage")

    def test_records_are_scoped_to_invocation(self, sciclops_module):
        first = sciclops_module.invoke("status")
        second = sciclops_module.invoke("status")
        assert len(first.records) == 1
        assert len(second.records) == 1
        assert second.records[0].start_time >= first.records[0].end_time


class TestIntrospection:
    def test_action_names_sorted(self, sciclops_module):
        assert sciclops_module.action_names() == ["get_plate", "status"]

    def test_has_action(self, sciclops_module):
        assert sciclops_module.has_action("get_plate")
        assert not sciclops_module.has_action("transfer")

    def test_describe(self, sciclops_module):
        description = sciclops_module.describe()
        assert description["name"] == "sciclops"
        assert description["type"] == "sciclops"
        assert "get_plate" in description["actions"]

    def test_describe_reports_two_phase_actions_and_driver(self, sciclops_module):
        description = sciclops_module.describe()
        # No transport is bound by default.
        assert description["driver"] is None

        class NamedDriver:
            name = "fake-transport"

        sciclops_module.bind_driver(NamedDriver())
        assert sciclops_module.describe()["driver"] == "fake-transport"
        assert sciclops_module.driver_name == "fake-transport"
        sciclops_module.bind_driver(None)
        assert sciclops_module.driver_name is None

    def test_auto_discovery_of_actions(self, deck, clock):
        device = Pf400Device(deck, clock=clock)
        module = Module("pf400", device)
        assert module.has_action("transfer")
        assert module.has_action("move_home")
        # Base-class bookkeeping must not be exposed as device actions.
        assert not module.has_action("reset_log")
        assert not module.has_action("describe")


@pytest.mark.parametrize(
    "builder, module_name",
    [
        (builder, name)
        for builder in sorted(WORKCELL_BUILDERS)
        for name in WORKCELL_BUILDERS[builder]().modules
    ],
)
def test_built_modules_expose_exactly_their_device_submits(builder, module_name):
    module = WORKCELL_BUILDERS[builder]().module(module_name)
    submits = sorted(
        attr[len("submit_") :] for attr in dir(module.device) if attr.startswith("submit_")
    )
    assert module.action_names() == submits == DEVICE_ACTIONS[module.module_type]
    with pytest.raises(ModuleActionError, match="has no action"):
        module.submit("fly")
    assert module.device.action_log == []
