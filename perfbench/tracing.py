"""In-memory span tracer for the traced benchmark run.

:func:`install` wraps the public entry point of each measured layer with a
timing wrapper and returns the function that removes the wrappers again.
Nothing here is imported into the program: the untraced run never calls
:func:`install`, so it executes the program's own functions untouched.

A span records its name, start, end, parent span and the id of the tick,
frame batch or burst event it belongs to. Spans are held in memory and
written out once, at the end, as Chrome trace-event JSON
(:func:`chrome_trace`) plus a table of self times per stage
(:func:`stage_table`).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

__all__ = ["Span", "Tracer", "install", "self_times", "stage_table", "chrome_trace"]


def now_ms() -> float:
    return time.perf_counter() * 1e3


class Span:
    """One timed call: ``[start, end]`` in perf-counter milliseconds."""

    __slots__ = ("name", "start", "end", "parent", "trace_id", "thread", "attrs")

    def __init__(self, name, start, parent, trace_id, thread, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.thread = thread
        self.attrs = attrs

    @property
    def ms(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack.

    ``trace_id`` is the id a root span gets when its caller names none (the
    workload loop sets it per tick or batch). ``labels`` maps ``id(obj)``
    of a pipeline to its session name, so spans on a pipeline's worker
    thread can be tied back to the burst event they serve.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.submits: list[tuple[str, int, float]] = []
        self.labels: dict[int, str] = {}
        self.trace_id = None
        self.enabled = True
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, *, trace_id=None, attrs=None, nested=True) -> Span:
        """Open a span; ``nested=False`` for spans ended on another thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.trace_id
        span = Span(
            name, now_ms(), parent, trace_id, threading.get_ident(), attrs or {}
        )
        self.spans.append(span)
        if nested:
            stack.append(span)
        return span

    def end(self, span: Span, *, nested=True) -> None:
        span.end = now_ms()
        if nested:
            self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, **kwargs):
        span = self.begin(name, **kwargs)
        try:
            yield span
        finally:
            self.end(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (output checks run here)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


def install(tracer: Tracer):
    """Wrap the measured entry points of every layer; returns ``uninstall``.

    Functions a module imported by name are replaced in that module's
    namespace too, because that is the name its callers resolve.
    """
    from repro.core import pipeline as core_pipeline
    from repro.graphkit.service import ComputeService
    from repro.md import distances
    from repro.rin import construction, scanning
    from repro.rin.dynamic import DynamicRIN
    from repro.rin.measures import GraphMeasure
    from repro.vizbridge.figure import FigureWidget

    originals: list[tuple[object, str, object]] = []

    def replace(owner, attr, make) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        originals.append((owner, attr, original))

    def timed(name, *, attrs_of=None, result_attrs=None, trace_id_of=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                span = tracer.begin(
                    name,
                    trace_id=trace_id_of(args, kwargs) if trace_id_of else None,
                    attrs=attrs_of(args, kwargs) if attrs_of else None,
                )
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.attrs["raised"] = True
                    raise
                finally:
                    tracer.end(span)
                if result_attrs is not None:
                    span.attrs.update(result_attrs(result))
                return result

            return wrapper

        return make

    for module in (distances, construction, scanning):
        replace(module, "residue_distance_matrix", timed("md.distance"))
    replace(construction.RINBuilder, "edges", timed("rin.edges"))
    replace(
        DynamicRIN,
        "set_state",
        timed("rin.set_state", result_attrs=lambda r: {"edges_changed": r.total}),
    )
    replace(
        DynamicRIN,
        "measures",
        lambda prop: property(timed("rin.measures")(prop.fget), doc=prop.__doc__),
    )
    replace(core_pipeline, "maxent_stress_layout", timed("layout.solve"))
    replace(
        GraphMeasure,
        "__call__",
        timed("measure.compute", attrs_of=lambda a, k: {"measure": a[0].name}),
    )
    replace(scanning, "trajectory_cutoff_scan", timed("scan"))
    replace(core_pipeline, "graph_traces", timed("viz.graph_traces"))
    for method in ("add_traces", "replace_trace", "move_points", "restyle_colors"):
        replace(FigureWidget, method, timed("viz.figure"))

    def apply_event_trace_id(args, kwargs):
        label = tracer.labels.get(id(args[0]))
        return None if label is None else (label, kwargs.get("generation", -1))

    replace(
        core_pipeline.UpdatePipeline,
        "apply_event",
        timed(
            "pipeline.apply_event",
            attrs_of=lambda a, k: {"generation": k.get("generation", -1)},
            trace_id_of=apply_event_trace_id,
        ),
    )

    def make_submit(fn):
        @functools.wraps(fn)
        def submit(self, **event):
            start = now_ms()
            generation = fn(self, **event)
            if tracer.enabled:
                tracer.submits.append(
                    (tracer.labels.get(id(self), "?"), generation, start)
                )
            return generation

        return submit

    replace(core_pipeline.AsyncUpdatePipeline, "submit", make_submit)

    def make_submit_job(fn):
        # A service job is timed from submit until its future is done; it
        # ends on the thread that resolves the future, so it is not pushed
        # on the submitting thread's stack. Layout solves shipped to the
        # pool are the process engine's layout stage.
        @functools.wraps(fn)
        def submit_job(self, job_fn, *args, **kwargs):
            if not tracer.enabled:
                return fn(self, job_fn, *args, **kwargs)
            is_layout = job_fn is core_pipeline._maxent_solve_shard
            span = tracer.begin(
                "layout.solve" if is_layout else "service.job",
                attrs={"job": True, "pending": self.pending_jobs},
                nested=False,
            )
            future = fn(self, job_fn, *args, **kwargs)
            future.add_done_callback(lambda _f: tracer.end(span, nested=False))
            return future

        return submit_job

    replace(ComputeService, "submit_job", make_submit_job)

    def uninstall() -> None:
        while originals:
            owner, attr, original = originals.pop()
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Child spans keyed by ``id(parent)``."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (``id(span)`` → ms): its duration minus the part
    of that interval its children cover (overlapping children counted once)."""
    children = children_of(spans)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(id(span), ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(span)] = span.ms - covered
    return out


def descendants(span: Span, children: dict[int, list[Span]]):
    """Every span below ``span`` (depth-first)."""
    stack = list(children.get(id(span), ()))
    while stack:
        child = stack.pop()
        yield child
        stack.extend(children.get(id(child), ()))


def stage_table(spans: list[Span], roots: list[Span]) -> list[dict]:
    """Self time per stage name, summed over the trees under ``roots``.

    ``share`` is the stage's fraction of the roots' summed wall time; for
    serial trees the shares add up to 1 because self times partition each
    root's interval.
    """
    children = children_of(spans)
    selfs = self_times(spans)
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    wall = 0.0
    for root in roots:
        wall += root.ms
        for span in (root, *descendants(root, children)):
            row = totals[span.name]
            row[0] += 1
            row[1] += selfs[id(span)]
    return [
        {
            "stage": name,
            "calls": calls,
            "self_ms": self_ms,
            "self_ms_per_root": self_ms / max(1, len(roots)),
            "share": self_ms / wall if wall else 0.0,
        }
        for name, (calls, self_ms) in sorted(totals.items(), key=lambda kv: -kv[1][1])
    ]


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events, microseconds)."""
    index = {id(span): i for i, span in enumerate(spans)}
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in spans))}
    origin = min((s.start for s in spans), default=0.0)
    events = []
    for i, span in enumerate(spans):
        args = dict(span.attrs)
        args["id"] = i
        args["parent"] = index.get(id(span.parent), -1)
        args["trace_id"] = str(span.trace_id)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e3,
                "dur": span.ms * 1e3,
                "pid": 1,
                "tid": threads[span.thread],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
