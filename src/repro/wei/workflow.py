"""Declarative workflow specifications.

Workflows in WEI are declarative lists of actions on modules ("Users can
specify, again using a declarative notation, workflows that perform sets of
actions on modules", paper Section 2.2).  A :class:`WorkflowSpec` can be
constructed programmatically or loaded from / saved to the YAML-like format
used by the original platform.  Argument values may reference the runtime
payload with ``"$payload.<key>"`` placeholders, which the engine resolves when
the workflow runs -- this is how the colour-picker passes the generated OT-2
protocol into its mixing workflow.

A workflow's execution is recorded as a :class:`WorkflowRunResult` of
:class:`StepResult` entries with start/end times and durations -- the same
information the paper saves to a per-run file.  Unrecoverable command
failures abort the workflow with a :class:`WorkflowError`, which is what
requires human intervention on the real workcell and therefore ends the
time-without-humans (TWH) clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.utils import yamlite

__all__ = [
    "WorkflowStep",
    "WorkflowSpec",
    "WorkflowError",
    "StepResult",
    "WorkflowRunResult",
    "resolve_payload_references",
]


@dataclass(frozen=True)
class WorkflowStep:
    """One step of a workflow: a named action on a named module."""

    module: str
    action: str
    args: Dict[str, Any] = field(default_factory=dict)
    comment: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the YAML round-trip."""
        data: Dict[str, Any] = {"module": self.module, "action": self.action}
        if self.args:
            data["args"] = dict(self.args)
        if self.comment:
            data["comment"] = self.comment
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowStep":
        """Build a step from its dict form, validating required keys."""
        missing = [key for key in ("module", "action") if key not in data]
        if missing:
            raise ValueError(f"workflow step missing required keys {missing}: {dict(data)!r}")
        return cls(
            module=str(data["module"]),
            action=str(data["action"]),
            args=dict(data.get("args") or {}),
            comment=str(data.get("comment", "")),
        )


@dataclass
class WorkflowSpec:
    """A named, ordered list of workflow steps with free-form metadata."""

    name: str
    steps: List[WorkflowStep] = field(default_factory=list)
    description: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("workflow name must be non-empty")

    @property
    def n_steps(self) -> int:
        """Number of steps in the workflow."""
        return len(self.steps)

    def modules_used(self) -> List[str]:
        """Sorted list of distinct module names referenced by the steps."""
        return sorted({step.module for step in self.steps})

    def add_step(self, module: str, action: str, comment: str = "", **args: Any) -> "WorkflowSpec":
        """Append a step and return ``self`` (fluent builder style)."""
        self.steps.append(WorkflowStep(module=module, action=action, args=args, comment=comment))
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form mirroring the WEI workflow YAML layout."""
        return {
            "name": self.name,
            "description": self.description,
            "metadata": dict(self.metadata),
            "flowdef": [step.to_dict() for step in self.steps],
        }

    def to_yaml(self) -> str:
        """Serialise to the YAML-like text format."""
        return yamlite.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowSpec":
        """Build a spec from its dict form."""
        if "name" not in data:
            raise ValueError("workflow specification requires a 'name'")
        steps_data = data.get("flowdef") or data.get("steps") or []
        steps = [WorkflowStep.from_dict(step) for step in steps_data]
        return cls(
            name=str(data["name"]),
            steps=steps,
            description=str(data.get("description", "")),
            metadata=dict(data.get("metadata") or {}),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "WorkflowSpec":
        """Parse a workflow from its YAML-like text form."""
        data = yamlite.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError("workflow document must be a mapping")
        return cls.from_dict(data)


class WorkflowError(RuntimeError):
    """Raised when a workflow cannot be completed (after retries).

    ``run_result`` carries the partial :class:`WorkflowRunResult` (including
    the successful steps executed before the failure) when the error came out
    of an engine, so callers can still account the work that *did* happen.
    """

    def __init__(self, message: str, step: Optional[WorkflowStep] = None):
        super().__init__(message)
        self.step = step
        self.run_result: Optional["WorkflowRunResult"] = None


@dataclass
class StepResult:
    """Timing and outcome of one executed workflow step."""

    step_name: str
    module: str
    action: str
    start_time: float
    end_time: float
    success: bool
    retries: int = 0
    return_value: Any = None
    error: Optional[str] = None
    commands: int = 0
    robotic_commands: int = 0

    @property
    def duration(self) -> float:
        """Elapsed seconds spent on this step (including retries)."""
        return self.end_time - self.start_time

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (return values are reduced to their repr type)."""
        return {
            "step_name": self.step_name,
            "module": self.module,
            "action": self.action,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "success": self.success,
            "retries": self.retries,
            "commands": self.commands,
            "robotic_commands": self.robotic_commands,
            "error": self.error,
        }


@dataclass
class WorkflowRunResult:
    """The outcome of one workflow run (one entry in the paper's run files)."""

    workflow_name: str
    start_time: float
    end_time: float
    steps: List[StepResult] = field(default_factory=list)
    success: bool = True
    payload_keys: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total elapsed time of the workflow run (seconds)."""
        return self.end_time - self.start_time

    @property
    def commands(self) -> int:
        """Successful device commands issued across all steps."""
        return sum(step.commands for step in self.steps)

    def step_values(self) -> Dict[str, Any]:
        """Mapping of ``"<module>.<action>"`` keys to step return values.

        Keying is deterministic for repeated actions: every occurrence of a
        ``<module>.<action>`` pair gets an explicit ``#<k>`` suffix counting
        from ``#1`` in execution order, and the bare ``<module>.<action>`` key
        always refers to the **last** occurrence.  Consumers that read the
        bare key therefore see the freshest value (previously it silently
        returned the first, stale one), while ``#1``..``#n`` expose the full
        history.
        """
        values: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        for step in self.steps:
            key = f"{step.module}.{step.action}"
            counts[key] = counts.get(key, 0) + 1
            values[f"{key}#{counts[key]}"] = step.return_value
            values[key] = step.return_value
        return values

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form stored by the run logger."""
        return {
            "workflow_name": self.workflow_name,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "success": self.success,
            "payload_keys": list(self.payload_keys),
            "steps": [step.to_dict() for step in self.steps],
        }


def resolve_payload_references(value: Any, payload: Mapping[str, Any]) -> Any:
    """Recursively replace ``"$payload.<key>"`` strings with payload values.

    Dotted paths traverse nested mappings (``"$payload.protocol.name"``).
    Unknown keys raise :class:`KeyError` so typos in workflow files fail
    loudly instead of silently passing the placeholder string to a device.
    """
    if isinstance(value, str) and value.startswith("$payload."):
        path = value[len("$payload.") :].split(".")
        current: Any = payload
        for part in path:
            if not isinstance(current, Mapping) or part not in current:
                raise KeyError(f"payload reference {value!r} not found in workflow payload")
            current = current[part]
        return current
    if isinstance(value, Mapping):
        return {key: resolve_payload_references(item, payload) for key, item in value.items()}
    if isinstance(value, list):
        return [resolve_payload_references(item, payload) for item in value]
    return value
