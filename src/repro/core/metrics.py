"""SDL benchmark metrics (the paper's Table 1).

The paper proposes three headline metrics for comparing self-driving labs
(Section 4):

* **TWH** -- time without humans: the longest stretch an experiment ran with
  no human intervention (for a fault-free simulated run, the whole experiment).
* **CCWH** -- commands completed without humans: successful robotic commands
  executed over that stretch.
* **time per colour** -- total run time divided by the number of samples,

plus the synthesis / transfer split that localises the bottleneck (the OT-2
accounted for 63 % of the paper's B = 1 run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Optional, Sequence, Tuple

from repro.utils.units import format_duration
from repro.wei.workcell import Workcell
from repro.wei.workflow import StepResult

__all__ = ["SdlMetrics", "compute_metrics", "metrics_from_step_results", "PAPER_TABLE1"]


#: The paper's reported Table 1 values (for the B = 1, N = 128 run), in the
#: same units as :class:`SdlMetrics`, used by the benchmark harness to print
#: paper-vs-measured comparisons.
PAPER_TABLE1: Dict[str, float] = {
    "time_without_humans_s": 8 * 3600 + 12 * 60,
    "commands_completed": 387,
    "synthesis_time_s": 5 * 3600 + 10 * 60,
    "transfer_time_s": 3 * 3600 + 2 * 60,
    "total_colors": 128,
    "time_per_color_s": 4 * 60,
}


@dataclass
class SdlMetrics:
    """The proposed SDL metrics for one experiment run."""

    time_without_humans_s: float
    commands_completed: int
    synthesis_time_s: float
    transfer_time_s: float
    total_colors: int
    interventions: int = 0

    @property
    def time_per_color_s(self) -> float:
        """Total run time divided by the number of colours produced."""
        if self.total_colors == 0:
            return float("inf")
        return self.time_without_humans_s / self.total_colors

    @property
    def synthesis_fraction(self) -> float:
        """Fraction of the run spent mixing (the paper reports 63 % for B = 1)."""
        if self.time_without_humans_s <= 0:
            return 0.0
        return self.synthesis_time_s / self.time_without_humans_s

    def to_dict(self) -> Dict[str, float]:
        """JSON-serialisable form."""
        return {
            "time_without_humans_s": self.time_without_humans_s,
            "commands_completed": self.commands_completed,
            "synthesis_time_s": self.synthesis_time_s,
            "transfer_time_s": self.transfer_time_s,
            "total_colors": self.total_colors,
            "time_per_color_s": self.time_per_color_s,
            "synthesis_fraction": self.synthesis_fraction,
            "interventions": self.interventions,
        }

    def as_table(self) -> str:
        """Render the metrics in the format of the paper's Table 1."""
        rows = [
            ("Time without humans", format_duration(self.time_without_humans_s)),
            ("Completed commands without humans", str(self.commands_completed)),
            ("Synthesis time", format_duration(self.synthesis_time_s)),
            ("Transfer time", format_duration(self.transfer_time_s)),
            ("Total colors mixed", str(self.total_colors)),
            ("Time per color", format_duration(self.time_per_color_s)),
        ]
        width = max(len(label) for label, _ in rows)
        lines = [f"{label.ljust(width)}  {value}" for label, value in rows]
        return "\n".join(lines)


def compute_metrics(
    workcell: Workcell,
    *,
    total_colors: int,
    start_time: float,
    end_time: float,
    intervention_times: Optional[Sequence[float]] = None,
) -> SdlMetrics:
    """Compute the Table 1 metrics from a workcell's action records.

    ``synthesis_time`` is the total OT-2 busy time within the scored window;
    ``transfer_time`` is everything else (the paper's two categories partition
    the whole run: 5 h 10 m + 3 h 02 m = 8 h 12 m).  CCWH counts successful
    robotic commands (camera imaging and computational steps are excluded, as
    in the paper's count of "distinct robotic actions").

    When ``intervention_times`` is given (timestamps at which a human had to
    step in), TWH follows the paper's definition -- "the longest time that an
    experiment ran without human intervention" -- so the scored window becomes
    the longest segment between consecutive interventions, and CCWH /
    synthesis are counted within that segment only.
    """
    window_start, window_end, n_interventions = _scoring_window(
        start_time, end_time, intervention_times
    )
    elapsed = window_end - window_start

    synthesis = 0.0
    commands = 0
    for module in workcell.modules.values():
        device = module.device
        for record in device.action_log:
            if record.start_time < window_start or record.end_time > window_end + 1e-9:
                continue
            if record.success and record.robotic:
                commands += 1
            if device.module_type == "ot2" and record.success:
                synthesis += record.duration

    transfer = max(elapsed - synthesis, 0.0)
    return SdlMetrics(
        time_without_humans_s=elapsed,
        commands_completed=commands,
        synthesis_time_s=synthesis,
        transfer_time_s=transfer,
        total_colors=total_colors,
        interventions=n_interventions,
    )


def _scoring_window(
    start_time: float,
    end_time: float,
    intervention_times: Optional[Sequence[float]],
) -> Tuple[float, float, int]:
    """The longest stretch between interventions (the paper's TWH window)."""
    if end_time < start_time:
        raise ValueError("end_time must not precede start_time")
    interventions = sorted(t for t in (intervention_times or []) if start_time <= t <= end_time)
    if not interventions:
        return start_time, end_time, 0
    boundaries = [start_time] + interventions + [end_time]
    segments = list(zip(boundaries[:-1], boundaries[1:]))
    window_start, window_end = max(segments, key=lambda seg: seg[1] - seg[0])
    return window_start, window_end, len(interventions)


def metrics_from_step_results(
    steps: Iterable[StepResult],
    *,
    ot2_modules: Collection[str],
    total_colors: int,
    start_time: float,
    end_time: float,
    intervention_times: Optional[Sequence[float]] = None,
) -> SdlMetrics:
    """Compute the Table 1 metrics from one run's own executed steps.

    :func:`compute_metrics` reads the workcell's device logs, which is correct
    when one experiment had the workcell to itself but over-counts when
    several experiments run *concurrently* on shared devices.  This variant
    attributes commands and synthesis time from the
    :class:`~repro.wei.workflow.StepResult` records a single run actually
    executed, so each concurrent lane reports only its own work.
    ``ot2_modules`` names the module(s) whose busy time counts as synthesis
    (the lane's liquid handler).
    """
    window_start, window_end, n_interventions = _scoring_window(
        start_time, end_time, intervention_times
    )
    elapsed = window_end - window_start

    synthesis = 0.0
    commands = 0
    for step in steps:
        if step.start_time < window_start or step.end_time > window_end + 1e-9:
            continue
        if not step.success:
            continue
        commands += step.robotic_commands
        if step.module in ot2_modules:
            synthesis += step.duration

    transfer = max(elapsed - synthesis, 0.0)
    return SdlMetrics(
        time_without_humans_s=elapsed,
        commands_completed=commands,
        synthesis_time_s=synthesis,
        transfer_time_s=transfer,
        total_colors=total_colors,
        interventions=n_interventions,
    )
