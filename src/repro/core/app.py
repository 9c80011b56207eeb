"""RINExplorer — one-call entry point (protein name → live widget).

The convenience layer a notebook user on the cloud deployment sees:
pick a benchmark protein, get a trajectory and an interactive widget.
Also provides scripted session replay for benchmarks and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..md import generate_trajectory, proteins
from ..md.trajectory import Trajectory
from .client import ClientCostModel
from .events import EventKind, UpdateTiming
from .widget import RINWidget

__all__ = ["RINExplorer", "SessionScript"]


@dataclass(frozen=True)
class SessionScript:
    """A scripted sequence of widget interactions for replay.

    Each step is ``(action, value)`` with action one of ``'frame'``,
    ``'cutoff'``, ``'measure'``, ``'recompute'``.
    """

    steps: tuple[tuple[str, object], ...]

    @classmethod
    def sweep_cutoffs(cls, cutoffs) -> "SessionScript":
        """Cut-off slider sweep (the Figure 7 interaction pattern)."""
        return cls(tuple(("cutoff", float(c)) for c in cutoffs))

    @classmethod
    def sweep_frames(cls, frames) -> "SessionScript":
        """Trajectory sweep (the Figure 8 interaction pattern)."""
        return cls(tuple(("frame", int(f)) for f in frames))

    @classmethod
    def sweep_measures(cls, measures) -> "SessionScript":
        """Measure sweep (the Figure 6 interaction pattern)."""
        return cls(tuple(("measure", str(m)) for m in measures))


class RINExplorer:
    """Top-level application object.

    Examples
    --------
    >>> app = RINExplorer("2JOF", n_frames=5, seed=1)
    >>> widget = app.widget
    >>> widget.cutoff_slider.value = 6.0   # interact
    >>> widget.last_timing().kind.value
    'cutoff'
    """

    def __init__(
        self,
        protein: str = "A3D",
        *,
        n_frames: int = 25,
        cutoff: float = 4.5,
        measure: str = "Closeness Centrality",
        seed: int = 7,
        trajectory: Trajectory | None = None,
        cost_model: ClientCostModel | None = None,
        unfold_events: int = 1,
        async_updates: bool = False,
        debounce_ms: float = 0.0,
        engine: str = "thread",
        compute_session=None,
    ):
        if trajectory is None:
            topo, native = proteins.build(protein)
            trajectory = generate_trajectory(
                topo,
                native,
                n_frames,
                seed=seed,
                unfold_events=unfold_events,
            )
        self.trajectory = trajectory
        self.widget = RINWidget(
            trajectory,
            cutoff=cutoff,
            measure=measure,
            cost_model=cost_model,
            async_updates=async_updates,
            debounce_ms=debounce_ms,
            engine=engine,
            compute_session=compute_session,
        )

    def replay(self, script: SessionScript) -> list[UpdateTiming]:
        """Run a scripted session; returns the per-step timings."""
        start = len(self.widget.log)
        for action, value in script.steps:
            if action == "frame":
                self.widget.frame_slider.value = int(value)
            elif action == "cutoff":
                self.widget.cutoff_slider.value = float(value)
            elif action == "measure":
                self.widget.measure_slider.value = str(value)
            elif action == "recompute":
                self.widget.recompute_button.click()
            else:
                raise ValueError(f"unknown action {action!r}")
        # Async widgets publish via completion callbacks: drain the queue
        # so the returned slice covers everything this script produced
        # (coalesced bursts yield fewer timings than steps).
        self.widget.flush()
        return self.widget.log.entries[start:]

    def close(self, *, raise_errors: bool = True) -> None:
        """Release widget resources (stops the async worker, if any)."""
        self.widget.close(raise_errors=raise_errors)

    def summary(self) -> dict[str, float]:
        """Mean perceived latency (ms) per event kind so far."""
        return {
            kind.value: self.widget.log.mean_total_ms(kind)
            for kind in EventKind
            if self.widget.log.of_kind(kind)
        }
