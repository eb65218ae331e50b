"""Event-driven workflow execution: the one executor.

:class:`ConcurrentWorkflowEngine` executes every device action in the repo.
A single experiment (:meth:`ColorPickerApp.run
<repro.core.app.ColorPickerApp.run>`) is one program on an engine; sweeps
and campaigns are lanes of programs distributed by the
:class:`~repro.wei.coordinator.MultiWorkcellCoordinator`.  The paper's
Section 4 ablation ("integrating additional OT2s in our workflow, so that
multiple plates of colors could be mixed at once") needs many workflow runs
interleaved over shared devices, which the engine provides:

* every in-flight workflow (or application *program*) is a cooperative task;
* each step is an exclusive reservation of its module, recorded on a
  :class:`~repro.sim.ResourceTimeline` (one per module) and serialised by a
  FIFO queue when several tasks want the same device;
* the shared clock is driven by an :class:`~repro.sim.EventScheduler` through
  the two-phase action lifecycle: a step is *submitted* at its start event on
  a private clock (the device validates, consults the fault injector and
  samples its stochastic duration, so records are timestamped correctly) and
  the returned :class:`~repro.wei.module.ActionSubmission` is *completed* at
  a scheduled event at the sampled end time -- deck and labware mutations
  land at completion, so admission control sees plates where they physically
  are, not where an accepted command will eventually put them;
* deck *locations* are guarded: a pf400 transfer whose target slot is still
  occupied by another task's plate, or a sciclops ``get_plate`` while a plate
  sits at the exchange, is parked until a later completion frees the slot
  (the physical workcell has single-plate nests, so two concurrent plates
  must take turns at the camera stage and the exchange);
* per-step retries of recoverable command failures happen in phase one, at
  the start event (the paper observes that "most failures occur during
  reception and processing of commands").

Applications participate through *programs*: generators that yield requests

``("workflow", spec, payload)``
    run a workflow concurrently; the generator resumes with the
    :class:`~repro.wei.workflow.WorkflowRunResult` (or has the
    :class:`~repro.wei.workflow.WorkflowError` thrown into it on failure),
``("action", module_name, action, kwargs)``
    one exclusive module action; resumes with the
    :class:`~repro.wei.module.ActionInvocation`,
``("sleep", seconds)``
    non-device time (solver/computation/publication overhead); resumes after
    the simulated delay.

:meth:`ColorPickerApp.program <repro.core.app.ColorPickerApp.program>` emits
exactly this protocol, which is how a whole closed-loop experiment (not just
one workflow) runs concurrently with others on a shared workcell.

Transport-backed (real-time) execution
--------------------------------------

With a :class:`~repro.wei.drivers.registry.DriverRegistry` the engine runs in
*transport mode*: phase one still submits on the simulated clock (identical
validation, fault draws and sampled durations, so the science is bit-for-bit
the same as pure simulation), but the action is also handed to the module's
:class:`~repro.wei.drivers.base.DeviceDriver`, and the scheduled end event
**blocks on the registry's completion bridge** -- draining the queue the
driver's callback threads fill -- instead of letting the simulated clock
free-run.  Deck mutations still land on the engine thread at the completion
event; only the *pace* is set by the transport (e.g. a
:class:`~repro.wei.drivers.mock.PacedMockTransport` sleeping each duration /
speedup).  A silent transport fails the run with
:class:`~repro.wei.drivers.base.CompletionTimeout` after
``completion_timeout_s`` real seconds rather than hanging the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Deque, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

from repro.obs import tracer as obs_tracer
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import CommandFailure
from repro.sim.resources import ResourceTimeline
from repro.wei.drivers.base import TransportTicket
from repro.wei.drivers.registry import DriverRegistry
from repro.wei.module import ActionSubmission, Module
from repro.wei.runlog import RunLogger
from repro.wei.workcell import Workcell
from repro.wei.workflow import (
    StepResult,
    WorkflowError,
    WorkflowRunResult,
    WorkflowSpec,
    WorkflowStep,
    resolve_payload_references,
)

__all__ = [
    "ConcurrencyError",
    "ConcurrentRun",
    "ProgramHandle",
    "ConcurrentWorkflowEngine",
    "TransportRetryStats",
    "RunSpanHooks",
    "claim_jobs",
]


@dataclass(frozen=True)
class TransportRetryStats:
    """Wire-level recovery counters summed over one engine's drivers.

    A typed snapshot, taken under each driver's own lock via its ``stats()``
    view; :meth:`to_dict` gives the JSON form.
    """

    retries: int = 0
    resyncs: int = 0
    crc_errors: int = 0
    duplicates_dropped: int = 0
    completions_retransmitted: int = 0

    @classmethod
    def total(cls, snapshots: Sequence[Any]) -> "TransportRetryStats":
        """Sum these counters over ``snapshots`` (``WireStats`` or ``TransportRetryStats``)."""
        return cls(
            **{f.name: sum(getattr(snapshot, f.name) for snapshot in snapshots) for f in fields(cls)}
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON-serialisable form."""
        return asdict(self)


def claim_jobs(
    queue: Deque[tuple],
    results: List[Any],
    run_job: Callable[[Any], Generator],
    on_claim: Optional[Callable[[int, Any], None]] = None,
    *,
    should_stop: Optional[Callable[[], bool]] = None,
    on_done: Optional[Callable[[int, Any, Any], None]] = None,
    select: Optional[Callable[[Deque[tuple]], Any]] = None,
) -> Generator:
    """One lane's dispatcher program: drain ``queue``, one claimed job at a time.

    ``queue`` holds ``(index, job)`` pairs shared (work stealing) or private
    (static pinning) to this lane; each claim is announced via ``on_claim``,
    executed by delegating to ``run_job(job)``'s program, and its return
    value stored at ``results[index]``.  ``on_done(index, job, result)``
    fires the moment a claimed job's program returns -- this is the hook the
    coordinator uses to stream run records as shards complete them -- and
    ``should_stop()`` is consulted before every claim, so a lane told to
    drain finishes its in-flight job (the claim already made) but takes
    nothing new.

    ``select(queue)``, when given, replaces the FIFO pop as the claim rule:
    it must either *remove and return* one ``(index, job)`` pair from the
    queue (any position), or return a positive number of simulated seconds
    meaning "defer" -- the dispatcher sleeps that long on the engine clock
    and re-evaluates (``should_stop`` and queue emptiness are re-checked
    first, so a deferring lane still drains and still terminates when other
    lanes empty the queue).  This is the hook behind the coordinator's
    ``assignment="lookahead"`` re-ranking policy.

    Every lane of the :class:`~repro.wei.coordinator.MultiWorkcellCoordinator`
    is this one dispatcher, so the claim/record protocol lives in exactly
    one place.  Returns the number of jobs this lane ran.
    """
    claimed = 0
    while queue:
        if should_stop is not None and should_stop():
            break
        if select is not None:
            choice = select(queue)
            if isinstance(choice, (int, float)):
                yield ("sleep", max(float(choice), 0.0))
                continue
            index, job = choice
        else:
            index, job = queue.popleft()
        if on_claim is not None:
            on_claim(index, job)
        results[index] = yield from run_job(job)
        claimed += 1
        if on_done is not None:
            on_done(index, job, results[index])
    return claimed


class RunSpanHooks:
    """Per-claimed-job ``"run"`` spans for a lane dispatcher program.

    ``claimed``/``done`` slot straight into :func:`claim_jobs`'s
    ``on_claim``/``on_done`` hooks.  A claim allocates the run span's id up
    front (:meth:`Tracer.new_id`) and names it as the owning program's
    current span on the engine, so every activity the job requests parents
    to it; ``done`` records the finished span
    (:meth:`Tracer.record_complete`), parented to the bound ``"campaign"``
    span when one is active.  All of it is a no-op while tracing is off.
    """

    def __init__(self, engine: "ConcurrentWorkflowEngine", program_name: str) -> None:
        self.engine = engine
        self.program_name = program_name
        self._open: Dict[int, Tuple[int, float, float]] = {}

    def claimed(self, index: int, job: Any) -> None:
        tracer = obs_tracer.active()
        if tracer is None:
            return
        span_id = tracer.new_id()
        self._open[index] = (span_id, time.monotonic(), self.engine.clock.now())
        self.engine.bind_program_span(self.program_name, span_id)

    def done(self, index: int, job: Any, result: Any) -> None:
        tracer = obs_tracer.active()
        entry = self._open.pop(index, None)
        if entry is None:
            return
        self.engine.unbind_program_span(self.program_name)
        if tracer is None:
            return
        span_id, start_wall, start_sim = entry
        tracer.record_complete(
            "run",
            span_id=span_id,
            parent_id=obs_tracer.bound("campaign"),
            start_wall=start_wall,
            start_sim=start_sim,
            end_sim=self.engine.clock.now(),
            job_index=index,
            program=self.program_name,
        )


class ConcurrencyError(RuntimeError):
    """Raised when concurrent execution can no longer make progress."""


@dataclass
class _ActivityOutcome:
    """What happened when one module activity executed (incl. retries)."""

    invocation: Optional[Any]
    retries: int
    error: Optional[str]
    start_time: float
    end_time: float

    @property
    def success(self) -> bool:
        return self.invocation is not None


@dataclass
class _Activity:
    """One pending exclusive use of a module by some task."""

    module: Module
    action: str
    args: Dict[str, Any]
    max_retries: int
    continuation: Callable[[_ActivityOutcome], None]
    label: str = ""
    #: Tracing state for the two-phase ``"action"`` span: the id is
    #: pre-allocated at the start event (so submit/deliver children can
    #: parent to it) and the span is recorded whole at the completion event.
    span_id: Optional[int] = None
    parent_span_id: Optional[int] = None
    span_start_wall: float = 0.0
    span_start_sim: float = 0.0


@dataclass
class ConcurrentRun:
    """Handle for one workflow submitted to the concurrent engine."""

    spec: WorkflowSpec
    payload: Dict[str, Any]
    result: Optional[WorkflowRunResult] = None
    error: Optional[WorkflowError] = None
    done: bool = False
    #: Name of the program this workflow was requested by, if any.  Errors
    #: of program-owned workflows are delivered to (and handled by) the
    #: program, so ``run_until_complete`` does not re-raise them itself.
    owner: Optional[str] = None
    #: Tracing state for the ``"workflow"`` span (submit -> finish): the id
    #: is pre-allocated at submit so step activities can parent to it.
    span_id: Optional[int] = None
    span_start_wall: float = 0.0
    span_start_sim: float = 0.0

    @property
    def success(self) -> bool:
        """True once the run finished with every step successful."""
        return self.done and self.error is None


@dataclass
class _WorkflowTask:
    handle: ConcurrentRun
    index: int = 0
    on_complete: Optional[Callable[[ConcurrentRun], None]] = None


@dataclass
class ProgramHandle:
    """Handle for one application program driven by the concurrent engine."""

    name: str
    result: Any = None
    error: Optional[BaseException] = None
    done: bool = False

    @property
    def success(self) -> bool:
        """True once the program ran to completion without an error."""
        return self.done and self.error is None


class ConcurrentWorkflowEngine:
    """Interleaves many workflow runs / programs over one shared workcell.

    The engine is deterministic: given the same workcell seed and the same
    submission order, event ordering (and therefore every sampled duration
    and fault draw) is reproducible.
    """

    def __init__(
        self,
        workcell: Workcell,
        *,
        max_retries: int = 2,
        run_logger: Optional[RunLogger] = None,
        drivers: Optional[DriverRegistry] = None,
        completion_timeout_s: float = 60.0,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if completion_timeout_s <= 0:
            raise ValueError(f"completion_timeout_s must be > 0, got {completion_timeout_s}")
        if not hasattr(workcell.clock, "advance_to"):
            raise TypeError(
                "ConcurrentWorkflowEngine needs a clock with advance_to() "
                f"(got {type(workcell.clock).__name__})"
            )
        self.workcell = workcell
        self.max_retries = max_retries
        #: Transport bindings; ``None`` completes every action in pure
        #: simulation exactly as before.
        self.drivers = drivers
        #: Real-time deadline for one transport completion (seconds).
        self.completion_timeout_s = completion_timeout_s
        #: Thread driving the event loop, recorded at each completion event
        #: so transport audits can prove completions were posted elsewhere.
        self.engine_thread_id: Optional[int] = None
        if drivers is not None:
            # Record the bindings on the modules so describe()/fleet views
            # show which actions ride a transport.
            drivers.attach(workcell)
        self.run_logger = run_logger if run_logger is not None else RunLogger()
        self.scheduler = EventScheduler(clock=workcell.clock)
        #: Busy intervals per module, for utilisation analysis and benchmarks.
        self.timelines: Dict[str, ResourceTimeline] = {}
        self.runs_completed = 0
        self.runs_failed = 0
        self._queues: Dict[str, Deque[_Activity]] = {}
        self._busy: Dict[str, bool] = {}
        self._parked: Deque[_Activity] = deque()
        #: Deck locations that in-flight actions will fill at completion.
        #: With completion-time mutations the deck alone cannot show them,
        #: so admission control counts these reservations as occupancy.
        self._incoming: Dict[str, int] = {}
        self._workflows: List[ConcurrentRun] = []
        self._programs: List[ProgramHandle] = []
        self._generators: Dict[int, Generator] = {}
        #: Program name -> current "run" span id (see :class:`RunSpanHooks`);
        #: activities requested by that program parent to it while tracing.
        self._program_spans: Dict[str, int] = {}
        self._origin = workcell.clock.now()
        # Register every module up front so utilisation() reports 0.0 for
        # idle modules (and for an engine that never ran a step) instead of
        # omitting them.
        for name in workcell.modules:
            self._module_state(name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The shared clock the engine drives."""
        return self.workcell.clock

    @property
    def makespan(self) -> float:
        """Simulated time elapsed since the engine was created."""
        return self.clock.now() - self._origin

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction of each module over the makespan so far.

        Defined (as 0.0 per module) even for an engine that never ran a
        step: a zero makespan must not divide, and every workcell module is
        present whether or not it was ever reserved.
        """
        horizon = self.makespan
        if horizon <= 0:
            return {name: 0.0 for name in self.timelines}
        return {name: timeline.busy_time / horizon for name, timeline in self.timelines.items()}

    def overall_utilisation(self) -> float:
        """Mean busy fraction across all modules (0.0 when nothing ever ran)."""
        per_module = self.utilisation()
        if not per_module:
            return 0.0
        return sum(per_module.values()) / len(per_module)

    @property
    def transport_name(self) -> str:
        """Display name of the execution mode: ``"sim"`` or the driver names."""
        if self.drivers is None:
            return "sim"
        names = sorted({driver.name for driver in self.drivers.drivers()})
        return "+".join(names) if names else "sim"

    def transport_idle(self) -> bool:
        """True when no transport completion is still owed to this engine.

        Always True in pure simulation; drain/retirement logic uses this so
        a workcell never retires while its hardware still has an action in
        flight.
        """
        if self.drivers is None:
            return True
        return self.drivers.bridge.outstanding() == 0

    def transport_stats(self):
        """The completion bridge's counters (``None`` in pure simulation)."""
        if self.drivers is None:
            return None
        return self.drivers.bridge.stats()

    def transport_retry_stats(self) -> TransportRetryStats:
        """Wire-level recovery counters summed over this engine's drivers.

        Drivers that speak a real protocol (the
        :class:`~repro.wei.drivers.protocol.WireProtocolTransport`) expose a
        ``stats()`` snapshot with retry/resync accounting; drivers without
        one (the paced mock, pure simulation) contribute zeros.  The fields
        are always present, so fleet views can show the columns
        unconditionally: ``retries`` (command retransmissions), ``resyncs``
        (reconnect handshakes), ``crc_errors`` (frames discarded as
        corrupt), ``duplicates_dropped`` (repeat completions deduplicated on
        the wire) and ``completions_retransmitted`` (device-side re-sends).
        Returns a typed :class:`TransportRetryStats` snapshot (each driver's
        counters are read atomically under that driver's own lock by its
        ``stats()``).
        """
        if self.drivers is None:
            return TransportRetryStats()
        return TransportRetryStats.total(
            [driver.stats() for driver in self.drivers.drivers() if hasattr(driver, "stats")]
        )

    def completion_latencies(self) -> List[float]:
        """Real posted->consumed latencies of delivered completions (seconds)."""
        if self.drivers is None:
            return []
        return self.drivers.bridge.delivery_latencies()

    def bind_program_span(self, name: str, span_id: int) -> None:
        """Name ``span_id`` as program ``name``'s current run span: every
        activity the program requests parents to it (see :class:`RunSpanHooks`)."""
        self._program_spans[name] = span_id

    def unbind_program_span(self, name: str) -> None:
        """Drop program ``name``'s run-span binding (the run finished)."""
        self._program_spans.pop(name, None)

    def submit(
        self,
        spec: WorkflowSpec,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        on_complete: Optional[Callable[[ConcurrentRun], None]] = None,
    ) -> ConcurrentRun:
        """Add a workflow to the in-flight set; returns its handle.

        The first step starts immediately (at the current simulated time);
        call :meth:`run_until_complete` to drive everything to completion.
        """
        handle = self._start_workflow(spec, payload, on_complete, owner=None)
        self._workflows.append(handle)
        return handle

    def _start_workflow(
        self,
        spec: WorkflowSpec,
        payload: Optional[Mapping[str, Any]],
        on_complete: Optional[Callable[[ConcurrentRun], None]],
        owner: Optional[str],
    ) -> ConcurrentRun:
        """Create a workflow's handle and start its first step.

        Only :meth:`submit` keeps the handle: a program-owned workflow's
        outcome is delivered to its program, so the engine holds nothing of
        it (or its camera frames) once it finishes.
        """
        payload = dict(payload or {})
        now = self.clock.now()
        handle = ConcurrentRun(
            spec=spec,
            payload=payload,
            owner=owner,
            result=WorkflowRunResult(
                workflow_name=spec.name,
                start_time=now,
                end_time=now,
                payload_keys=sorted(payload),
            ),
        )
        tracer = obs_tracer.active()
        if tracer is not None:
            # The "workflow" span is recorded whole in _finish_workflow; its
            # id is allocated now so step activities can parent to it.
            handle.span_id = tracer.new_id()
            handle.span_start_wall = time.monotonic()
            handle.span_start_sim = now
        self._next_step(_WorkflowTask(handle=handle, on_complete=on_complete))
        return handle

    def submit_program(self, program: Generator, *, name: str = "program") -> ProgramHandle:
        """Drive a request-yielding generator (see the module docstring)."""
        handle = ProgramHandle(name=name)
        self._programs.append(handle)
        self._generators[id(handle)] = program
        self._resume_program(handle, value=None)
        return handle

    def run_all(
        self,
        specs: Sequence[WorkflowSpec],
        payloads: Optional[Sequence[Optional[Mapping[str, Any]]]] = None,
    ) -> List[WorkflowRunResult]:
        """Submit every spec, run to completion, return results in order."""
        if payloads is None:
            payloads = [None] * len(specs)
        if len(payloads) != len(specs):
            raise ValueError("payloads must match specs one-to-one")
        handles = [self.submit(spec, payload) for spec, payload in zip(specs, payloads)]
        self.run_until_complete()
        return [handle.result for handle in handles]

    def run_until_complete(self, *, raise_errors: bool = True) -> "ConcurrentWorkflowEngine":
        """Process events until every submitted workflow / program finishes.

        Raises :class:`ConcurrencyError` when the event queue drains while
        work is still blocked (e.g. a deck location that is never freed).
        With ``raise_errors`` (the default), the first stored workflow or
        program error is re-raised; pass ``False`` to inspect handles instead.
        """
        self.engine_thread_id = threading.get_ident()
        while self.scheduler.step() is not None:
            pass
        blocked = [activity.label for activity in self._parked]
        blocked += [activity.label for queue in self._queues.values() for activity in queue]
        if blocked:
            raise ConcurrencyError(
                f"concurrent execution stalled with blocked activities: {blocked}"
            )
        unfinished = [handle.name for handle in self._programs if not handle.done]
        unfinished += [handle.spec.name for handle in self._workflows if not handle.done]
        if unfinished:
            raise ConcurrencyError(f"tasks never completed: {unfinished}")
        if raise_errors:
            for program in self._programs:
                if program.error is not None:
                    raise program.error
            for workflow in self._workflows:
                if workflow.error is not None:
                    raise workflow.error
        return self

    # ------------------------------------------------------------------
    # Workflow task state machine
    # ------------------------------------------------------------------
    def _next_step(self, task: _WorkflowTask) -> None:
        spec = task.handle.spec
        if task.index >= len(spec.steps):
            self._finish_workflow(task, error=None)
            return
        step = spec.steps[task.index]
        module = self.workcell.module(step.module)
        try:
            args = resolve_payload_references(dict(step.args), task.handle.payload)
        except KeyError as exc:
            task.handle.result.success = False
            self._finish_workflow(
                task,
                error=WorkflowError(f"workflow {spec.name!r} step {task.index}: {exc}", step=step),
            )
            return
        self._request(
            _Activity(
                module=module,
                action=step.action,
                args=args,
                max_retries=self.max_retries,
                continuation=lambda outcome, t=task, s=step: self._step_finished(t, s, outcome),
                label=f"{spec.name}.{task.index}:{step.module}.{step.action}",
                parent_span_id=task.handle.span_id,
            )
        )

    def _step_finished(self, task: _WorkflowTask, step: WorkflowStep, outcome: _ActivityOutcome) -> None:
        spec = task.handle.spec
        invocation = outcome.invocation
        if invocation is None:
            task.handle.result.steps.append(
                StepResult(
                    step_name=f"{spec.name}.{task.index}",
                    module=step.module,
                    action=step.action,
                    start_time=outcome.start_time,
                    end_time=outcome.end_time,
                    success=False,
                    retries=outcome.retries,
                    error=outcome.error or "command failed",
                )
            )
            task.handle.result.success = False
            self._finish_workflow(
                task,
                error=WorkflowError(
                    f"workflow {spec.name!r} failed at step {task.index} "
                    f"({step.module}.{step.action}): {outcome.error}",
                    step=step,
                ),
            )
            return
        task.handle.result.steps.append(
            StepResult(
                step_name=f"{spec.name}.{task.index}",
                module=step.module,
                action=step.action,
                start_time=outcome.start_time,
                end_time=outcome.end_time,
                success=True,
                retries=outcome.retries,
                return_value=invocation.return_value,
                commands=invocation.commands,
                robotic_commands=invocation.robotic_commands,
            )
        )
        task.index += 1
        self._next_step(task)

    def _finish_workflow(self, task: _WorkflowTask, error: Optional[WorkflowError]) -> None:
        handle = task.handle
        handle.result.end_time = self.clock.now()
        if error is not None:
            error.run_result = handle.result
        handle.error = error
        handle.done = True
        tracer = obs_tracer.active()
        if tracer is not None and handle.span_id is not None:
            parent = self._program_spans.get(handle.owner) if handle.owner else None
            tracer.record_complete(
                "workflow",
                span_id=handle.span_id,
                parent_id=parent,
                start_wall=handle.span_start_wall,
                start_sim=handle.span_start_sim,
                end_sim=handle.result.end_time,
                status="ok" if error is None else "error",
                workflow=handle.spec.name,
            )
            handle.span_id = None
        self.run_logger.record_run(handle.result)
        if error is None and handle.result.success:
            self.runs_completed += 1
        else:
            self.runs_failed += 1
        if task.on_complete is not None:
            task.on_complete(handle)

    # ------------------------------------------------------------------
    # Program driving
    # ------------------------------------------------------------------
    def _resume_program(
        self,
        handle: ProgramHandle,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        program = self._generators[id(handle)]
        try:
            request = program.throw(error) if error is not None else program.send(value)
        except StopIteration as stop:
            handle.done = True
            handle.result = stop.value
            del self._generators[id(handle)]
            return
        except BaseException as exc:
            handle.done = True
            handle.error = exc
            del self._generators[id(handle)]
            return
        self._handle_request(handle, request)

    def _handle_request(self, handle: ProgramHandle, request: Any) -> None:
        if not isinstance(request, tuple) or not request:
            self._resume_program(
                handle, error=ValueError(f"malformed program request: {request!r}")
            )
            return
        kind = request[0]
        if kind == "workflow":
            spec = request[1]
            payload = request[2] if len(request) > 2 else None

            def workflow_done(run: ConcurrentRun) -> None:
                if run.error is not None:
                    self._resume_program(handle, error=run.error)
                else:
                    self._resume_program(handle, value=run.result)

            self._start_workflow(spec, payload, workflow_done, owner=handle.name)
        elif kind == "action":
            if len(request) != 4:
                self._resume_program(
                    handle,
                    error=ValueError(
                        f"'action' request must be (kind, module, action, kwargs), got {request!r}"
                    ),
                )
                return
            _, module_name, action, kwargs = request
            module = self.workcell.module(module_name)

            def action_done(outcome: _ActivityOutcome) -> None:
                if outcome.invocation is None:
                    self._resume_program(
                        handle,
                        error=WorkflowError(
                            f"action {module_name}.{action} failed: {outcome.error}"
                        ),
                    )
                else:
                    self._resume_program(handle, value=outcome.invocation)

            self._request(
                _Activity(
                    module=module,
                    action=action,
                    args=dict(kwargs or {}),
                    max_retries=0,
                    continuation=action_done,
                    label=f"{handle.name}:{module_name}.{action}",
                    parent_span_id=self._program_spans.get(handle.name),
                )
            )
        elif kind == "sleep":
            seconds = float(request[1])
            self.scheduler.schedule_after(
                seconds,
                lambda: self._resume_program(handle, value=None),
                label=f"{handle.name}:sleep",
            )
        else:
            self._resume_program(
                handle, error=ValueError(f"unknown program request kind {kind!r}")
            )

    # ------------------------------------------------------------------
    # Module scheduling: queues, guards, invocation
    # ------------------------------------------------------------------
    def _module_state(self, name: str) -> None:
        if name not in self._queues:
            self._queues[name] = deque()
            self._busy[name] = False
            self.timelines[name] = ResourceTimeline(name)

    def _request(self, activity: _Activity) -> None:
        name = activity.module.name
        self._module_state(name)
        self._queues[name].append(activity)
        self._dispatch(name)

    def _dispatch(self, name: str) -> None:
        if self._busy[name]:
            return
        queue = self._queues[name]
        while queue:
            activity = queue[0]
            if self._blocked_by_location(activity):
                queue.popleft()
                self._parked.append(activity)
                continue
            queue.popleft()
            self._start(activity)
            return

    def _location_unavailable(self, location: str) -> bool:
        """A slot is unavailable while occupied *or* promised to an in-flight fill."""
        return self.workcell.deck.is_occupied(location) or self._incoming.get(location, 0) > 0

    def _fill_locations(self, activity: _Activity) -> List[str]:
        """Deck locations ``activity`` will fill when it completes."""
        module = activity.module
        if module.module_type == "pf400" and activity.action == "transfer":
            target = activity.args.get("target")
            deck = self.workcell.deck
            if isinstance(target, str) and deck.has_location(target) and target != deck.trash_location:
                return [target]
        if module.module_type == "sciclops" and activity.action == "get_plate":
            exchange = getattr(module.device, "exchange_location", None)
            if exchange is not None:
                return [exchange]
        return []

    def _blocked_by_location(self, activity: _Activity) -> bool:
        """Physical admission control for single-plate deck locations.

        A transfer cannot start while another task's plate occupies the
        target nest -- or is on its way there from an in-flight action -- and
        the sciclops cannot stage a plate onto an occupied (or promised)
        exchange.  The locations an activity would fill come from
        :meth:`_fill_locations`, the same source the in-flight reservation
        counter uses, so admission and reservation can never diverge.
        Blocked activities are parked (without holding their module) and
        re-admitted when a completion frees the slot.
        """
        module = activity.module
        if any(self._location_unavailable(location) for location in self._fill_locations(activity)):
            return True
        if module.module_type == "ot2" and activity.action == "run_protocol":
            deck_location = getattr(module.device, "deck_location", None)
            if deck_location is not None and not self.workcell.deck.is_occupied(deck_location):
                return True
        return False

    def _start(self, activity: _Activity) -> None:
        """Phase one: submit the action at its start event.

        The device runs on a private clock seeded at the current time so its
        duration sampling and record timestamps are correct while the shared
        clock stays put.  Only the *submission* happens here -- validation,
        fault draws and retries -- and the deck/labware mutations stay
        pending until the completion event fires at the sampled end time.

        In transport mode the action is also dispatched to the module's
        driver, which will post its completion out-of-band; the scheduled
        end event then waits for that ticket before applying the mutations.
        The simulated timestamps (and therefore every downstream sample and
        score) are identical either way -- the transport only decides how
        much *real* time passes before the completion is consumed.
        """
        name = activity.module.name
        self._busy[name] = True
        start = self.clock.now()
        tracer = obs_tracer.active()
        if tracer is not None:
            # The two-phase "action" span: its id exists from here so the
            # submit phase, the driver threads (via the ticket binding) and
            # the bridge delivery can all parent to it; the span itself is
            # recorded whole at the completion event (_record_action_span).
            activity.span_id = tracer.new_id()
            activity.span_start_wall = time.monotonic()
            activity.span_start_sim = start
        device = activity.module.device
        local = SimClock(start=start)
        saved_clock = device.clock
        with obs_tracer.span(
            "action.submit",
            parent_id=activity.span_id,
            sim_time=start,
            module=name,
            action=activity.action,
        ) as submit_span:
            device.clock = local
            submission: Optional[ActionSubmission] = None
            retries = 0
            last_error: Optional[str] = None
            try:
                # Command faults fire at submission, so the whole retry loop
                # is phase one; a submission that stays None failed for good.
                while True:
                    try:
                        submission = activity.module.submit(activity.action, **activity.args)
                        break
                    except CommandFailure as failure:
                        last_error = str(failure)
                        if not failure.recoverable or retries == activity.max_retries:
                            break
                        retries += 1
            finally:
                device.clock = saved_clock
            end = local.now()
            self.timelines[name].reserve(start, end - start)
            if submission is not None:
                for location in self._fill_locations(activity):
                    self._incoming[location] = self._incoming.get(location, 0) + 1
            ticket: Optional[TransportTicket] = None
            driver = self.drivers.driver_for(activity.module) if self.drivers is not None else None
            if driver is not None:
                # Failed submissions are dispatched too: the device spent real
                # time rejecting the command, and the transport reports that
                # outcome just like a success.
                ticket = driver.submit(
                    activity.action,
                    module=name,
                    duration_s=end - start,
                    sim_start=start,
                    sim_end=end,
                )
                self.drivers.bridge.register(ticket)
                obs_tracer.bind(ticket.ticket_id, activity.span_id)
                submit_span.set(ticket_id=ticket.ticket_id)
            submit_span.set_sim(end=end)
        self.scheduler.schedule_at(
            end,
            lambda: self._complete(activity, submission, retries, last_error, start, end, ticket),
            label=activity.label,
        )

    def _complete(
        self,
        activity: _Activity,
        submission: Optional[ActionSubmission],
        retries: int,
        last_error: Optional[str],
        start: float,
        end: float,
        ticket: Optional[TransportTicket] = None,
    ) -> None:
        """Phase two: the action's end event.

        In transport mode this first **blocks on the completion bridge**
        until the driver's callback thread has posted the ticket's
        completion (raising
        :class:`~repro.wei.drivers.base.CompletionTimeout` if the transport
        goes silent).  State mutations are applied *now*, on the engine
        thread -- before parked activities are re-examined, so a slot freed
        by this completion admits its waiters -- and only then does the
        owning task continue.
        """
        self.engine_thread_id = threading.get_ident()
        reserved = submission is not None
        if ticket is not None:
            try:
                completion = self.drivers.bridge.wait_for(ticket, self.completion_timeout_s)
            except Exception:
                self._record_action_span(activity, ticket, end, status="error")
                raise
            if completion.error is not None and submission is not None:
                # The transport reported a delivery failure the simulated
                # device did not: surface it like any unrecoverable command
                # failure instead of mutating state on bad information.
                submission = None
                last_error = f"transport error: {completion.error}"
        self._busy[activity.module.name] = False
        if reserved:
            # Release the fill reservations just before the mutation lands:
            # from here the deck itself shows the occupancy.
            for location in self._fill_locations(activity):
                self._incoming[location] -= 1
        invocation = submission.complete() if submission is not None else None
        outcome = _ActivityOutcome(
            invocation=invocation,
            retries=retries,
            error=last_error,
            start_time=start,
            end_time=end,
        )
        self._record_action_span(
            activity, ticket, end, status="ok" if invocation is not None else "error"
        )
        self._unpark()
        activity.continuation(outcome)
        for name in sorted(self._queues):
            self._dispatch(name)

    def _record_action_span(
        self,
        activity: _Activity,
        ticket: Optional[TransportTicket],
        end_sim: float,
        *,
        status: str,
    ) -> None:
        """Close the two-phase "action" span allocated in :meth:`_start`."""
        if activity.span_id is None:
            return
        if ticket is not None:
            obs_tracer.unbind(ticket.ticket_id)
        tracer = obs_tracer.active()
        if tracer is None:
            return
        tracer.record_complete(
            "action",
            span_id=activity.span_id,
            parent_id=activity.parent_span_id,
            start_wall=activity.span_start_wall,
            start_sim=activity.span_start_sim,
            end_sim=end_sim,
            status=status,
            module=activity.module.name,
            action=activity.action,
            label=activity.label,
        )
        activity.span_id = None

    def _unpark(self) -> None:
        if not self._parked:
            return
        still_blocked: Deque[_Activity] = deque()
        for activity in self._parked:
            if self._blocked_by_location(activity):
                still_blocked.append(activity)
            else:
                self._module_state(activity.module.name)
                self._queues[activity.module.name].append(activity)
        self._parked = still_blocked
