"""Per-workflow-run timing records.

"For each workflow that is run, a file is created that details the step names
run, their start time, end time and total duration.  These files are saved
locally to the machine running the workflow manager" (paper Section 2.3).
:class:`RunLogger` keeps those records in memory and optionally writes one
JSON file per run to a directory, mirroring the paper's behaviour.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.wei.workflow import WorkflowRunResult

__all__ = ["RunLogger"]


class RunLogger:
    """Collects :class:`~repro.wei.workflow.WorkflowRunResult` records.

    Parameters
    ----------
    directory:
        When given, each recorded run is also written to
        ``<directory>/<index>_<workflow_name>.json``.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.runs: List["WorkflowRunResult"] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_run(self, run: "WorkflowRunResult") -> None:
        """Store one workflow run (and write its JSON file when configured).

        The log keeps the run's timing record, not its step return values:
        plates and camera frames belong to the caller, and a long-lived
        engine's log would otherwise hold every frame it ever captured.
        """
        run = replace(run, steps=[replace(step, return_value=None) for step in run.steps])
        self.runs.append(run)
        if self.directory is not None:
            path = self.directory / f"{len(self.runs):05d}_{run.workflow_name}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(run.to_dict(), handle, indent=2, default=str)

    # ------------------------------------------------------------------
    # Queries used by the metrics module
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Number of workflow runs recorded."""
        return len(self.runs)

    def runs_for(self, workflow_name: str) -> List["WorkflowRunResult"]:
        """All recorded runs of the named workflow."""
        return [run for run in self.runs if run.workflow_name == workflow_name]

    def total_duration(self) -> float:
        """Sum of all workflow run durations (seconds)."""
        return sum(run.duration for run in self.runs)

    def workflow_counts(self) -> Dict[str, int]:
        """Mapping of workflow name to the number of times it ran."""
        counts: Dict[str, int] = {}
        for run in self.runs:
            counts[run.workflow_name] = counts.get(run.workflow_name, 0) + 1
        return counts

    def module_busy_time(self) -> Dict[str, float]:
        """Total step time attributed to each module across all runs."""
        busy: Dict[str, float] = {}
        for run in self.runs:
            for step in run.steps:
                busy[step.module] = busy.get(step.module, 0.0) + step.duration
        return busy

    def to_dicts(self) -> List[Dict]:
        """All runs in JSON-serialisable form."""
        return [run.to_dict() for run in self.runs]

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every recorded run to a single JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dicts(), handle, indent=2, default=str)

    @staticmethod
    def load_dicts(path) -> List[Dict]:
        """Read back a file written by :meth:`dump` (as plain dicts)."""
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
