"""The WEI module abstraction.

"Each module is represented by a software abstraction that exposes a single
device and, via interface methods, the actions that the device can perform"
(paper Section 2.2).  :class:`Module` wraps a simulated device, exposes its
``submit_<action>`` methods as named actions, and records the
:class:`~repro.hardware.base.ActionRecord` each invocation produced so the
engine can attribute time and command counts to workflow steps.

Actions follow the two-phase lifecycle of the hardware layer:
:meth:`Module.submit` accepts the command (validating, sampling its duration
and logging its record) and returns an :class:`ActionSubmission` whose
:meth:`~ActionSubmission.complete` applies the state mutations and produces
the :class:`ActionInvocation`.  :meth:`Module.invoke` is submit-then-complete
in one call, the synchronous API for direct callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hardware.base import ActionHandle, ActionRecord, SimulatedDevice

__all__ = ["ModuleActionError", "ActionInvocation", "ActionSubmission", "Module"]


class ModuleActionError(RuntimeError):
    """Raised when an unknown action is requested or an action is misused."""


@dataclass
class ActionInvocation:
    """The outcome of invoking one module action."""

    module: str
    action: str
    return_value: Any = None
    records: List[ActionRecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total device time attributed to this invocation (seconds)."""
        return sum(record.duration for record in self.records)

    @property
    def commands(self) -> int:
        """Number of successful device commands issued by this invocation."""
        return sum(1 for record in self.records if record.success)

    @property
    def robotic_commands(self) -> int:
        """Number of successful robotic commands (the ones CCWH counts)."""
        return sum(1 for record in self.records if record.success and record.robotic)


@dataclass
class ActionSubmission:
    """A module action accepted for execution but not yet completed.

    ``records`` are the device commands logged by this (successful)
    submission; failed earlier attempts were separate submissions and stay in
    the device's ``action_log`` only.  The action's state mutations are
    deferred until :meth:`complete`.
    """

    module: str
    action: str
    handle: ActionHandle
    records: List[ActionRecord] = field(default_factory=list)

    @property
    def start_time(self) -> float:
        """When the command was accepted."""
        return self.handle.start_time

    @property
    def end_time(self) -> float:
        """When the action will (or did) finish."""
        return self.handle.end_time

    @property
    def completed(self) -> bool:
        """True once :meth:`complete` has applied the action's mutations."""
        return self.handle.completed

    def complete(self) -> ActionInvocation:
        """Apply the action's state mutations and return the invocation outcome."""
        value = self.handle.complete()
        return ActionInvocation(
            module=self.module,
            action=self.action,
            return_value=value,
            records=list(self.records),
        )


class Module:
    """A named module exposing a device's actions.

    The actions are exactly the device's two-phase ``submit_<action>``
    methods, exposed under their ``<action>`` names.

    Parameters
    ----------
    name:
        The module's name within the workcell (e.g. ``"ot2"``, ``"pf400"``).
    device:
        The simulated device instance this module fronts.
    """

    def __init__(self, name: str, device: SimulatedDevice):
        self.name = name
        self.device = device
        #: The transport driver backing this module, if any (bound by a
        #: :class:`~repro.wei.drivers.registry.DriverRegistry`); ``None``
        #: means actions complete in pure simulation.
        self.driver: Optional[Any] = None
        self.actions: List[str] = sorted(
            attr[len("submit_") :] for attr in dir(device) if attr.startswith("submit_")
        )

    @property
    def module_type(self) -> str:
        """The underlying device's module type (used for duration lookup)."""
        return self.device.module_type

    def has_action(self, action: str) -> bool:
        """True if ``action`` is exposed by this module."""
        return action in self.actions

    def action_names(self) -> List[str]:
        """Sorted list of exposed action names."""
        return list(self.actions)

    def bind_driver(self, driver: Optional[Any]) -> None:
        """Record the transport driver backing this module (``None`` unbinds)."""
        self.driver = driver

    @property
    def driver_name(self) -> Optional[str]:
        """Name of the bound transport driver (``None`` in pure simulation)."""
        return getattr(self.driver, "name", None) if self.driver is not None else None

    def submit(self, action: str, **kwargs: Any) -> ActionSubmission:
        """Submit ``action`` (phase one) and return its :class:`ActionSubmission`.

        Every device submit logs exactly one record, which the eventual
        invocation reports as the command it caused.
        """
        if action not in self.actions:
            raise ModuleActionError(
                f"module {self.name!r} has no action {action!r}; available: {self.action_names()}"
            )
        handle = self.device.submit(action, **kwargs)
        return ActionSubmission(
            module=self.name,
            action=action,
            handle=handle,
            records=[handle.record],
        )

    def invoke(self, action: str, **kwargs: Any) -> ActionInvocation:
        """Invoke ``action`` with keyword arguments and return its outcome.

        Submit-then-complete in one call: the synchronous path for direct
        callers.
        """
        return self.submit(action, **kwargs).complete()

    def describe(self) -> Dict[str, Any]:
        """Static description used in workcell specifications and run records.

        ``driver`` names the bound transport (``None`` = pure simulation) --
        the field ``fleet-status`` and the docs use to show transport
        bindings.
        """
        return {
            "name": self.name,
            "type": self.module_type,
            "actions": self.action_names(),
            "driver": self.driver_name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Module(name={self.name!r}, type={self.module_type!r})"
