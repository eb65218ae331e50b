"""Per-layer timing from outside the program.

:class:`SpanRecorder` wraps the public functions of each layer of ``repro``
-- where they are defined and at every module-level binding that imported
them -- so a call through either name records a span.  Nothing inside
``src/`` is instrumented: the wrappers are installed by the benchmark
process, only record while :class:`Stopwatch` says a measured region is
open, and are removed again by :meth:`SpanRecorder.uninstall`.

A span's *self time* is its duration minus the time its child spans cover.
Every span name maps to exactly one self-time metric, so the self times of
all layers plus ``residual_s`` (the part of the measured wall no span
covers) add up to the measured wall; :func:`layer_metrics` checks that.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Self-time metric of every span name (each span name appears once).
SELF_TIME_METRICS: Dict[str, str] = {
    "core.app": "core.app.self_s",
    "wei.coordinator": "wei.coordinator.self_s",
    "wei.concurrent": "wei.concurrent.self_s",
    "hardware.complete": "hardware.complete_self_s",
    "hardware.labware.plate_init": "hardware.labware.plate_init_s",
    "vision.render": "vision.render.busy_s",
    "vision.extraction": "vision.extraction.self_s",
    "vision.hough": "vision.hough.busy_s",
    "vision.fiducial": "vision.fiducial.busy_s",
    "solvers.propose": "solvers.propose_s",
    "solvers.observe": "solvers.observe_s",
    "solvers.gp.fit": "solvers.gp.fit_s",
    "solvers.gp.predict": "solvers.gp.predict_s",
    "color.mix": "color.mix_s",
    "color.score": "color.score_s",
    "publish.portal.ingest": "publish.portal.ingest_s",
}

#: Call-count metrics: metric name -> span name whose calls it counts.
CALL_COUNT_METRICS: Dict[str, str] = {
    "vision.render.frames": "vision.render",
    "sim.events.steps": "wei.concurrent",
    "hardware.actions": "hardware.complete",
    "hardware.labware.plates": "hardware.labware.plate_init",
    "vision.extraction.calls": "vision.extraction",
    "solvers.proposals": "solvers.propose",
    "solvers.gp.fits": "solvers.gp.fit",
    "publish.portal.ingests": "publish.portal.ingest",
}

#: Every per-layer metric the traced run reports, with its unit.  The
#: workload adds the ones that are not span aggregates (campaign science,
#: trace overhead).
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "count" for name in CALL_COUNT_METRICS},
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    "vision.render.frames_read_ratio": "ratio",
    "wei.coordinator.next_time_calls_per_step": "calls/step",
    "core.campaign.makespan_h": "h",
    "core.campaign.best_score_mean": "rgb",
    "trace.wall_s": "s",
    "residual_s": "s",
    "trace_overhead_pct": "%",
}


class SpanRecorder:
    """Records spans around calls into the layers while a region is open.

    Single-threaded by design: the workloads run on the ``"sim"``
    transport, where every layer is entered from the one engine thread, so
    the open spans form a stack.
    """

    def __init__(self) -> None:
        self.recording = False
        #: ``(span_id, parent_id, name, start, end, run_id)`` per finished span.
        self.spans: List[Tuple[int, int, str, float, float, Optional[str]]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Count-only probes (no span): ``next_time`` polls, published frames.
        self.counters: Dict[str, int] = defaultdict(int)
        #: Summed duration of spans with no parent span.
        self.top_level_s = 0.0
        #: Run id of the colour-picker program whose code is running, if any.
        self.run_id: Optional[str] = None
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = stack[-1][0] if stack else 0
        # [span id, child time]
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level_s += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append((span_id, parent_id, name, start, end, self.run_id))

    # -- installation ------------------------------------------------------
    def install(self) -> "SpanRecorder":
        """Wrap every layer entry point (see :func:`_targets`)."""
        if self._patches:
            raise RuntimeError("span recorder already installed")
        for name, owner, attr in _targets():
            self._wrap_attribute(name, owner, attr)
        for name, function in _module_functions():
            self._wrap_function_bindings(name, function)
        self._wrap_program()
        self._wrap_counter()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # Keep the raw class attribute, not a bound method, for restore.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            return recorder.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_attribute(self, name: str, owner: type, attr: str) -> None:
        self._patch(owner, attr, self._spanned(name, owner.__dict__[attr]))

    def _wrap_function_bindings(self, name: str, function: Callable) -> None:
        """Wrap ``function`` in its defining module and wherever it was imported."""
        wrapper = self._spanned(name, function)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attr, wrapper)

    def _wrap_program(self) -> None:
        """Time each resumption of a colour-picker program as ``core.app``."""
        from repro.core.app import ColorPickerApp

        recorder = self
        original = ColorPickerApp.__dict__["program"]

        @functools.wraps(original)
        def program(app, *args, **kwargs):
            generator = original(app, *args, **kwargs)
            if not recorder.recording:
                return generator
            return _TracedProgram(recorder, generator, app.config.run_id)

        self._patch(ColorPickerApp, "program", program)

    def _wrap_counter(self) -> None:
        from repro.publish.flows import PublicationFlow
        from repro.sim.events import EventScheduler

        recorder = self
        next_time = EventScheduler.__dict__["next_time"]
        publish = PublicationFlow.__dict__["publish"]

        @functools.wraps(next_time)
        def counted_next_time(scheduler):
            if recorder.recording:
                recorder.counters["next_time"] += 1
            return next_time(scheduler)

        @functools.wraps(publish)
        def counted_publish(flow, record, image=None):
            if recorder.recording and image is not None:
                recorder.counters["frames_published"] += 1
            return publish(flow, record, image=image)

        self._patch(EventScheduler, "next_time", counted_next_time)
        self._patch(PublicationFlow, "publish", counted_publish)

    # -- output ------------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """Write every recorded span as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end, run_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "run_id": run_id,
                        }
                    )
                    + "\n"
                )


class _TracedProgram:
    """Generator proxy: each ``send``/``throw`` into the program is a span.

    Works under ``yield from`` (the coordinator's lane dispatcher delegates
    to the program), which forwards ``send`` and ``throw`` to any iterator
    that has them.
    """

    def __init__(self, recorder: SpanRecorder, generator, run_id: Optional[str]) -> None:
        self._recorder = recorder
        self._generator = generator
        self._run_id = run_id

    def __iter__(self) -> "_TracedProgram":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _resume(self, method: Callable, args: tuple) -> Any:
        recorder = self._recorder
        outer = recorder.run_id
        recorder.run_id = self._run_id
        try:
            if not recorder.recording:
                return method(*args)
            return recorder.call("core.app", method, args, {})
        finally:
            recorder.run_id = outer

    def send(self, value: Any) -> Any:
        return self._resume(self._generator.send, (value,))

    def throw(self, *args: Any) -> Any:
        return self._resume(self._generator.throw, args)

    def close(self) -> None:
        self._generator.close()


def _targets() -> List[Tuple[str, type, str]]:
    """``(span name, class, attribute)`` for every wrapped method."""
    from repro.color.mixing import MixingModel
    from repro.core.app import ColorPickerApp
    from repro.hardware.base import ActionHandle
    from repro.hardware.labware import Plate
    from repro.publish.portal import DataPortal
    from repro.sim.events import EventScheduler
    from repro.solvers.base import SOLVER_REGISTRY, ColorSolver
    from repro.solvers.gp import GaussianProcess
    from repro.vision.extraction import WellColorExtractor
    from repro.wei.coordinator import MultiWorkcellCoordinator

    targets = [
        ("core.app", ColorPickerApp, "__init__"),
        ("wei.coordinator", MultiWorkcellCoordinator, "run_jobs"),
        ("wei.concurrent", EventScheduler, "step"),
        ("hardware.complete", ActionHandle, "complete"),
        ("hardware.labware.plate_init", Plate, "__init__"),
        ("vision.extraction", WellColorExtractor, "extract"),
        ("solvers.gp.fit", GaussianProcess, "fit"),
        ("solvers.gp.predict", GaussianProcess, "predict"),
        ("publish.portal.ingest", DataPortal, "ingest"),
    ]
    solver_classes = {ColorSolver, *SOLVER_REGISTRY.values()}
    for cls in sorted(solver_classes, key=lambda cls: cls.__qualname__):
        for attr, span in (("propose", "solvers.propose"), ("observe", "solvers.observe")):
            if attr in cls.__dict__:
                targets.append((span, cls, attr))
    for cls in [MixingModel, *_subclasses(MixingModel)]:
        if "mix" in cls.__dict__:
            targets.append(("color.mix", cls, "mix"))
    return targets


def _module_functions() -> List[Tuple[str, Callable]]:
    """``(span name, function)`` for every wrapped module-level function."""
    from repro.color.distance import score_colors
    from repro.vision.fiducial import detect_fiducial
    from repro.vision.hough import hough_circles
    from repro.vision.render import render_plate_image

    return [
        ("vision.render", render_plate_image),
        ("vision.hough", hough_circles),
        ("vision.fiducial", detect_fiducial),
        ("color.score", score_colors),
    ]


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def layer_metrics(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Aggregate the recorded spans into the span-derived per-layer metrics.

    ``wall_s`` is the measured wall of the regions the recorder was active
    in.  ``residual_s`` is computed independently of the self times (wall
    minus the top-level spans), so the identity ``sum(self times) +
    residual_s == wall`` checks the self-time bookkeeping; a violation
    raises.
    """
    metrics: Dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = recorder.self_s.get(span, 0.0)
    for metric, span in CALL_COUNT_METRICS.items():
        metrics[metric] = recorder.calls.get(span, 0)
    frames = recorder.calls.get("vision.render", 0)
    read = recorder.calls.get("vision.extraction", 0) + recorder.counters.get("frames_published", 0)
    metrics["vision.render.frames_read_ratio"] = read / frames if frames else 0.0
    steps = recorder.calls.get("wei.concurrent", 0)
    metrics["wei.coordinator.next_time_calls_per_step"] = (
        recorder.counters.get("next_time", 0) / steps if steps else 0.0
    )
    metrics["trace.wall_s"] = wall_s
    metrics["residual_s"] = wall_s - recorder.top_level_s
    covered = sum(metrics[metric] for metric in SELF_TIME_METRICS.values())
    if abs(covered + metrics["residual_s"] - wall_s) > 1e-6 * max(wall_s, 1.0):
        raise AssertionError(
            f"layer self times ({covered:.6f} s) + residual ({metrics['residual_s']:.6f} s) "
            f"!= traced wall ({wall_s:.6f} s)"
        )
    return metrics


class Stopwatch:
    """Sums the wall time of measured calls and opens recording around them."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder
        self.total_s = 0.0
        #: ``time.monotonic()`` at the first measured call (ends set-up).
        self.first_at: Optional[float] = None

    def timed(self, fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        """Call ``fn`` inside a measured region; returns ``(result, seconds)``."""
        recorder = self.recorder
        if self.first_at is None:
            self.first_at = time.monotonic()
        if recorder is not None:
            recorder.recording = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.recording = False
            self.total_s += elapsed
        return result, elapsed
