"""The three benchmark workloads: scrub, burst and feature_scan.

Each workload builds every input from its seed in ``__init__`` (that is the
set-up the benchmark times, warm-up included), then :meth:`run` drives the
program through its public API for a number of seconds and returns a
:class:`Phase` with the timed samples, the output-check failures and the
counters the program itself exposes. A tracer, when given, only brackets
the workload's own unit of work with a root span; the layer spans come
from :func:`perfbench.tracing.install`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import protein_trajectory
from repro.core.client import ClientSimulator
from repro.core.pipeline import AsyncUpdatePipeline, UpdatePipeline
from repro.graphkit.service import configure_compute_service, shutdown_compute_service
from repro.rin import DynamicRIN, scanning
from repro.rin.measures import get_measure, measure_names

from .checks import FEATURE_CUTOFF, check_burst_session, check_feature_row, check_tick

__all__ = ["Phase", "Scrub", "Burst", "FeatureScan", "WORKLOADS", "SLIDER_GRID"]

#: The cut-off slider's positions: 0.05 Å steps over 3-10 Å.
SLIDER_GRID = np.round(np.arange(3.0, 10.0 + 1e-9, 0.05), 2)

#: Frames ``RINBuilder`` keeps distance matrices for (its default cache).
BUILDER_CACHE_FRAMES = 8

#: Cut-off of every workload's initial RIN (the widget's default, Å).
INITIAL_CUTOFF = 4.5

#: One shuffled block of the scrub script: 40% frame ticks (80% of them
#: ±1-2 frame playback steps, 20% jumps past the distance cache), 40%
#: cut-off ticks and 20% measure ticks. Shares fixed per block, and
#: measures drawn in shuffled rounds of all ten, keep the tick mix of
#: every run and seed the same; only the values are random.
SCRUB_BLOCK = ("step",) * 8 + ("jump",) * 2 + ("cutoff",) * 10 + ("measure",) * 5


def _int_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _root(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _service_counters(before: dict, after: dict) -> dict[str, float]:
    """Growth of ``ComputeService.stats`` over a phase."""
    keys = {
        "service_jobs": "jobs_submitted",
        "service_resubmissions": "resubmissions",
        "service_worker_crashes": "worker_crashes",
    }
    return {name: float(after[key] - before[key]) for name, key in keys.items()}


class _PublishLog:
    """Modelled client time and figure mutations of each published result."""

    def __init__(self) -> None:
        self.client_ms: list[float] = []
        self.rebuilt: list[int] = []
        self.restyled: list[int] = []

    def record(self, timing, client) -> None:
        stats = client.collected_stats()
        self.client_ms.append(timing.client_ms)
        self.rebuilt.append(stats.elements_rebuilt)
        self.restyled.append(stats.nodes_restyled)

    @staticmethod
    def counters(logs: list["_PublishLog"]) -> dict[str, float]:
        def merged(name):
            return [v for log in logs for v in getattr(log, name)]

        client_ms, rebuilt, restyled = (
            merged(n) for n in ("client_ms", "rebuilt", "restyled")
        )
        return {
            "client_modelled_p50_ms": float(np.median(client_ms)) if client_ms else 0.0,
            "elements_rebuilt": float(np.mean(rebuilt)) if rebuilt else 0.0,
            "nodes_restyled": float(np.mean(restyled)) if restyled else 0.0,
        }


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    samples_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Program-exposed counters and derived values (per-layer inputs).
    counters: dict[str, float] = field(default_factory=dict)
    #: Per-operation wall times seen by the loop (traced runs compare
    #: these with the root spans' durations).
    walls_ms: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Samples per session, where a workload runs several (burst).
    by_session: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.failures.extend(messages[: max(0, 20 - len(self.failures))])


class Scrub:
    """Closed loop, one client, no think time: slider ticks on A3D.

    About 40% frame ticks (mostly ±1-2 frame playback steps, some jumps
    more than the builder's 8-frame distance cache away), 40% cut-off
    ticks on the slider grid and 20% measure ticks over every registered
    measure. Each tick is one synchronous ``UpdatePipeline.apply_event``.
    """

    name = "scrub"
    tail_pct = 95
    protein = "A3D"
    n_frames = 24
    check_fraction = 0.1

    def __init__(self, seed: int):
        seq_traj, seq_script, seq_check = np.random.SeedSequence(seed).spawn(3)
        self.rng = np.random.default_rng(seq_script)
        self.check_rng = np.random.default_rng(seq_check)
        self.measures = measure_names()
        traj = protein_trajectory(self.protein, self.n_frames, seed=_int_seed(seq_traj))
        self.frame = int(self.rng.integers(self.n_frames))
        self.cutoff = INITIAL_CUTOFF
        self.measure = "Closeness Centrality"
        self._kinds: list[str] = []
        self._measure_queue: list[str] = []
        self.pipe = UpdatePipeline(
            DynamicRIN(traj, frame=self.frame, cutoff=self.cutoff),
            measure=self.measure,
            client=ClientSimulator(),
        )
        # Warm-up: every measure once, then a few script ticks, so lazy
        # imports and first-call costs land in set-up, not in a tick.
        for name in self.measures:
            self.measure = name
            self.pipe.apply_event(measure=name)
        for _ in range(8):
            self.pipe.apply_event(**self.next_event())

    def next_event(self) -> dict:
        """Draw the next tick and advance the commanded slider state."""
        if not self._kinds:
            self._kinds = [str(k) for k in self.rng.permutation(SCRUB_BLOCK)]
        kind = self._kinds.pop()
        if kind == "step":
            step = int(self.rng.choice((-2, -1, 1, 2)))
            frame = self.frame + step
            self.frame = frame if 0 <= frame < self.n_frames else self.frame - step
            return {"frame": self.frame}
        if kind == "jump":
            far = [
                f for f in range(self.n_frames)
                if abs(f - self.frame) > BUILDER_CACHE_FRAMES
            ]
            self.frame = int(self.rng.choice(far))
            return {"frame": self.frame}
        if kind == "cutoff":
            self.cutoff = float(self.rng.choice(SLIDER_GRID))
            return {"cutoff": self.cutoff}
        if not self._measure_queue:
            self._measure_queue = [str(m) for m in self.rng.permutation(self.measures)]
        self.measure = self._measure_queue.pop()
        return {"measure": self.measure}

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        log = _PublishLog()
        deadline = time.perf_counter() + seconds
        tick = 0
        while time.perf_counter() < deadline:
            event = self.next_event()
            phase.attempted += 1
            if tracer is not None:
                tracer.trace_id = tick
            t0 = time.perf_counter()
            try:
                with _root(tracer, "tick"):
                    timing = self.pipe.apply_event(**event)
            except Exception as exc:  # a tick that raises is a failed operation
                phase.fail([f"tick {tick} {event}: {exc!r}"])
                tick += 1
                continue
            t1 = time.perf_counter()
            phase.samples_ms.append((t1 - t0) * 1e3)
            log.record(timing, self.pipe.client)
            if self.check_rng.random() < self.check_fraction:
                with _paused(tracer):
                    failures = check_tick(
                        self.pipe, self.frame, self.cutoff, self.measure
                    )
                if failures:
                    phase.fail(failures)
            tick += 1
        phase.counters.update(_PublishLog.counters([log]))
        phase.walls_ms = list(phase.samples_ms)
        return phase

    def close(self) -> None:
        self.pipe.close()


class _Session:
    """One async widget session of the burst workload."""

    def __init__(self, protein: str, offset_s: float, traj, service):
        self.protein = protein
        self.offset_s = offset_s
        self.frame = 0
        self.cutoff = INITIAL_CUTOFF
        self.done: dict[int, float] = {}
        self.log = _PublishLog()
        self.pipe = AsyncUpdatePipeline(
            DynamicRIN(traj, frame=self.frame, cutoff=self.cutoff),
            engine="process",
            compute_session=service.session(protein),
        )
        self.pipe.add_result_callback(self.on_result)

    def on_result(self, generation: int, timing) -> None:
        # Runs on the pipeline's worker thread right after a publish, so
        # the figure stats are those of this result.
        self.done[generation] = time.perf_counter()
        self.log.record(timing, self.pipe.client)

    def submit(self, event: dict) -> int:
        generation = self.pipe.submit(**event)
        self.frame = event.get("frame", self.frame)
        self.cutoff = event.get("cutoff", self.cutoff)
        return generation


class Burst:
    """Open loop, one generator thread, two async sessions on one service.

    Every 0.6 s each session receives a burst of 8 slider events at 30 Hz,
    each a random frame or cut-off (four of each per burst). The NTL9
    session's bursts start half a period after the A3D session's: each
    burst's trailing solves still share the pool with the other session's
    first events, while bursts overlapping from start to end made settle
    times twice as noisy from seed to seed. A burst settles when the
    result of its last event is published; settle time runs from that
    event's scheduled send time, so a late generator counts against the
    program.
    """

    name = "burst"
    tail_pct = 90
    sessions_spec = (("A3D", 0.0), ("NTL9", 0.3))
    n_frames = 24
    period_s = 0.6
    events_per_burst = 8
    event_gap_s = 1.0 / 30.0

    def __init__(self, seed: int):
        seqs = np.random.SeedSequence(seed).spawn(1 + len(self.sessions_spec))
        self.rng = np.random.default_rng(seqs[0])
        self.service = configure_compute_service(workers=os.cpu_count()).start()
        self.sessions = [
            _Session(
                protein, offset,
                protein_trajectory(protein, self.n_frames, seed=_int_seed(seq)),
                self.service,
            )
            for (protein, offset), seq in zip(self.sessions_spec, seqs[1:])
        ]
        # Warm-up: a frame and a cut-off solve per session through the pool.
        for session in self.sessions:
            for event in (self._event("frame"), self._event("cutoff")):
                session.submit(event)
                session.pipe.flush()

    def _event(self, kind: str) -> dict:
        if kind == "frame":
            return {"frame": int(self.rng.integers(self.n_frames))}
        return {"cutoff": float(self.rng.choice(SLIDER_GRID))}

    def _burst(self, k: int) -> list[dict]:
        """Half frame, half cut-off moves in seeded order. The last move's
        kind alternates burst by burst, so every run settles on the same
        mix of frame and cut-off solves."""
        last = ("frame", "cutoff")[k % 2]
        kinds = ["frame", "cutoff"] * (self.events_per_burst // 2)
        kinds.remove(last)
        self.rng.shuffle(kinds)
        return [self._event(kind) for kind in kinds + [last]]

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        if tracer is not None:
            for s in self.sessions:
                tracer.labels[id(s.pipe)] = tracer.labels[id(s.pipe.engine)] = s.protein
        before = [dataclasses.replace(s.pipe.stats) for s in self.sessions]
        service_before = self.service.stats.snapshot()
        for s in self.sessions:
            s.log = _PublishLog()
        n_bursts = max(1, int(seconds / self.period_s + 1e-9))
        start = time.perf_counter() + 0.05
        schedule = []
        for k in range(n_bursts):
            for si, s in enumerate(self.sessions):
                base = start + k * self.period_s + s.offset_s
                for j, event in enumerate(self._burst(k)):
                    schedule.append((base + j * self.event_gap_s, si, k, j, event))
        schedule.sort(key=lambda item: item[0])

        last: dict[tuple[int, int], tuple[int, float]] = {}
        broken: dict[tuple[int, int], list[str]] = {}
        burst_of: dict[tuple[str, int], str] = {}
        late_max = 0.0
        for due, si, k, j, event in schedule:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_max = max(late_max, time.perf_counter() - due)
            session = self.sessions[si]
            try:
                generation = session.submit(event)
            except Exception as exc:  # a refused submit fails its burst
                broken.setdefault((si, k), []).append(repr(exc))
                continue
            burst_of[(session.protein, generation)] = f"{session.protein}/burst{k}"
            if j == self.events_per_burst - 1:
                last[(si, k)] = (generation, due)
        for s in self.sessions:
            s.pipe.flush(timeout=60.0)

        # The final-state check belongs to each session's last burst.
        for si, s in enumerate(self.sessions):
            with _paused(tracer):
                failures = check_burst_session(
                    s.pipe, s.pipe.generation, s.frame, s.cutoff
                )
            if failures:
                broken.setdefault((si, n_bursts - 1), []).extend(failures)
        for k in range(n_bursts):
            for si, s in enumerate(self.sessions):
                phase.attempted += 1
                generation, due = last.get((si, k), (None, 0.0))
                done_at = s.done.get(generation)
                if done_at is None:
                    broken.setdefault((si, k), []).append("last event never published")
                if (si, k) in broken:
                    phase.fail([f"{s.protein} burst {k}: {m}" for m in broken[(si, k)]])
                else:
                    settle_ms = (done_at - due) * 1e3
                    phase.samples_ms.append(settle_ms)
                    phase.by_session.setdefault(s.protein, []).append(settle_ms)

        def grown(stat: str) -> int:
            return sum(
                getattr(s.pipe.stats, stat) - getattr(b, stat)
                for s, b in zip(self.sessions, before)
            )

        submitted, published = grown("submitted"), grown("published")
        phase.counters.update(_PublishLog.counters([s.log for s in self.sessions]))
        phase.counters.update(
            publish_frac=published / submitted if submitted else 0.0,
            solves_cancelled=float(grown("solves_cancelled")),
            **_service_counters(service_before, self.service.stats.snapshot()),
            late_max_ms=late_max * 1e3,
        )
        phase.extra["burst_of"] = burst_of
        return phase

    def close(self) -> None:
        try:
            for s in self.sessions:
                s.pipe.close()
        finally:
            shutdown_compute_service()


class _Series:
    """One protein's trajectory, its 4.5 Å RIN, a service lease, its rows."""

    def __init__(self, protein: str, traj, service):
        self.protein = protein
        self.traj = traj
        self.rin = DynamicRIN(traj, frame=0, cutoff=FEATURE_CUTOFF)
        self.lease = service.lease()
        self.rows: list[np.ndarray] = []


class FeatureScan:
    """Batch, one caller: trajectory frames → feature rows (the ML pipeline).

    Per frame of A3D, NTL9 and 2JOF (48-frame trajectories): a cut-off ×
    frame descriptor scan over 3-10 Å on a lease from the shared service,
    and a measure vector at 4.5 Å (closeness, betweenness, weighted
    closeness, PLM) plus the RIN's maintained component count and maximum
    coreness. Frames go in batches of four (two per worker), the proteins
    taking turns batch by batch so any run length sees the same mix.
    """

    name = "feature_scan"
    tail_pct = 90
    proteins = ("A3D", "NTL9", "2JOF")
    n_frames = 48
    batch_frames = 4
    check_fraction = 0.125
    cutoffs = np.round(np.arange(3.0, 10.0 + 1e-9, 0.25), 2)
    measure_set = (
        "Closeness Centrality",
        "Betweenness Centrality",
        "Weighted Closeness Centrality",
        "PLM Community Detection",
    )
    descriptors = (
        "edges", "components", "hubs", "mean_degree", "max_coreness", "mean_clustering"
    )

    def __init__(self, seed: int):
        seqs = np.random.SeedSequence(seed).spawn(1 + len(self.proteins))
        self.check_rng = np.random.default_rng(seqs[0])
        self.measures = {name: get_measure(name) for name in self.measure_set}
        self.service = configure_compute_service(workers=os.cpu_count()).start()
        self.series = [
            _Series(
                p,
                protein_trajectory(p, self.n_frames, seed=_int_seed(seq)),
                self.service,
            )
            for p, seq in zip(self.proteins, seqs[1:])
        ]
        starts = range(0, self.n_frames, self.batch_frames)
        self.order = itertools.cycle([(s, lo) for lo in starts for s in self.series])
        # Warm-up: one batch per protein forks the pool and fills the
        # first CSR buffers before anything is timed.
        for s in self.series:
            self._batch(s, list(range(self.batch_frames)))
            s.rows.clear()

    def _batch(self, s: _Series, frames: list[int]):
        scan = scanning.trajectory_cutoff_scan(
            s.traj, self.cutoffs, frames=frames, executor=s.lease
        )
        vectors = []
        for i, frame in enumerate(frames):
            s.rin.set_state(frame=frame)
            csr = s.rin.csr
            vec = {name: measure(csr) for name, measure in self.measures.items()}
            maintained = s.rin.measures
            s.rows.append(np.concatenate([
                *(getattr(scan, d)[i] for d in self.descriptors),
                *vec.values(),
                [maintained.component_count, maintained.max_core_number()],
            ]))
            vectors.append(vec)
        return scan, vectors

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        service_before = self.service.stats.snapshot()
        for s in self.series:
            s.rows.clear()
        timed_ms = 0.0
        frames_done = 0
        deadline = time.perf_counter() + seconds
        batch = 0
        while time.perf_counter() < deadline:
            s, lo = next(self.order)
            frames = list(range(lo, min(lo + self.batch_frames, self.n_frames)))
            phase.attempted += len(frames)
            if tracer is not None:
                tracer.trace_id = f"{s.protein}/batch{batch}"
            t0 = time.perf_counter()
            try:
                with _root(tracer, "batch"):
                    scan, vectors = self._batch(s, frames)
            except Exception as exc:  # every frame of a raising batch failed
                phase.failed += len(frames)
                phase.failures.append(f"{s.protein} frames {frames}: {exc!r}")
                batch += 1
                continue
            wall_ms = (time.perf_counter() - t0) * 1e3
            timed_ms += wall_ms
            frames_done += len(frames)
            phase.walls_ms.append(wall_ms)
            phase.samples_ms.append(wall_ms / len(frames))
            if self.check_rng.random() < self.check_fraction:
                i = int(self.check_rng.integers(len(frames)))
                descriptors = {d: getattr(scan, d)[i] for d in self.descriptors}
                with _paused(tracer):
                    failures = check_feature_row(
                        s.traj, frames[i], self.cutoffs,
                        descriptors, vectors[i], self.measures,
                    )
                if failures:
                    phase.fail(failures)
            batch += 1
        phase.counters.update(
            frames_per_s=1e3 * frames_done / timed_ms if timed_ms else 0.0,
            **_service_counters(service_before, self.service.stats.snapshot()),
        )
        phase.extra["feature_matrices"] = {
            s.protein: list(np.vstack(s.rows).shape) for s in self.series if s.rows
        }
        return phase

    def close(self) -> None:
        try:
            for s in self.series:
                s.lease.close()
        finally:
            shutdown_compute_service()


WORKLOADS = {cls.name: cls for cls in (Scrub, Burst, FeatureScan)}
