"""Every output check can fail, and a failure is counted into fail_frac."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import protein_trajectory
from repro.core.pipeline import UpdatePipeline
from repro.rin import DynamicRIN
from repro.rin.measures import get_measure
from repro.rin.scanning import trajectory_cutoff_scan

from perfbench.checks import check_feature_row, check_tick
from perfbench.workloads import Burst, FeatureScan, Scrub

STEP = 0.05  # one slider step


@pytest.fixture(scope="module")
def traj():
    return protein_trajectory("2JOF", 8, seed=5)


@pytest.fixture
def pipe(traj):
    pipe = UpdatePipeline(
        DynamicRIN(traj, frame=2, cutoff=5.0), measure="Degree Centrality"
    )
    pipe.apply_event(cutoff=6.0)
    return pipe


class TestTickCheck:
    def test_passes_on_the_commanded_state(self, pipe):
        assert check_tick(pipe, 2, 6.0, "Degree Centrality") == []

    @pytest.mark.parametrize(
        "frame, cutoff, measure",
        [(2, 6.0 + STEP, "Degree Centrality"), (3, 6.0, "Degree Centrality"),
         (2, 6.0, "Closeness Centrality")],
    )
    def test_fails_on_a_wrong_state(self, pipe, frame, cutoff, measure):
        assert check_tick(pipe, frame, cutoff, measure)

    def test_fails_on_a_stale_edge_trace(self, pipe, traj):
        stale = UpdatePipeline(DynamicRIN(traj, frame=2, cutoff=4.0))
        pipe.maxent_figure.replace_trace(1, stale.maxent_figure.trace(1))
        failures = check_tick(pipe, 2, 6.0, "Degree Centrality")
        assert any("maxent plot" in msg for msg in failures)

    def test_fails_on_stale_scores(self, pipe):
        pipe._scores = pipe.scores + 1.0
        failures = check_tick(pipe, 2, 6.0, "Degree Centrality")
        assert any("scores" in msg for msg in failures)


class TestFeatureRowCheck:
    cutoffs = np.round(np.arange(3.0, 10.0 + 1e-9, 0.5), 2)

    def _row(self, traj, frame):
        scan = trajectory_cutoff_scan(traj, self.cutoffs, frames=[frame], workers=0)
        descriptors = {d: getattr(scan, d)[0] for d in FeatureScan.descriptors}
        rin = DynamicRIN(traj, frame=frame, cutoff=4.5)
        measures = {n: get_measure(n) for n in FeatureScan.measure_set}
        vectors = {n: m(rin.csr) for n, m in measures.items()}
        return descriptors, vectors, measures

    def test_passes_on_a_correct_row(self, traj):
        descriptors, vectors, measures = self._row(traj, 3)
        failures = check_feature_row(
            traj, 3, self.cutoffs, descriptors, vectors, measures
        )
        assert failures == []

    def test_fails_on_another_frames_row(self, traj):
        descriptors, vectors, measures = self._row(traj, 4)
        failures = check_feature_row(
            traj, 3, self.cutoffs, descriptors, vectors, measures
        )
        assert any("scan" in msg for msg in failures)
        assert any("differs from its reference" in msg for msg in failures)


def _shifted(apply, n_frames):
    """Wrap an event sink so every event lands one frame and one step off."""

    def shifted(**event):
        if "frame" in event:
            event["frame"] = (event["frame"] + 1) % n_frames
        if "cutoff" in event:
            event["cutoff"] = round(event["cutoff"] + STEP, 2)
        return apply(**event)

    return shifted


class TestFailuresAreCounted:
    def test_scrub(self):
        scrub = Scrub(seed=3)
        try:
            scrub.check_fraction = 1.0
            assert scrub.run(0.5).failed == 0
            scrub.pipe.apply_event = _shifted(scrub.pipe.apply_event, scrub.n_frames)
            phase = scrub.run(1.0)
        finally:
            scrub.close()
        assert phase.failed >= 1
        assert any("commanded" in msg for msg in phase.failures)

    def test_burst(self):
        burst = Burst(seed=3)
        try:
            session = burst.sessions[0]
            session.pipe.submit = _shifted(session.pipe.submit, burst.n_frames)
            phase = burst.run(1.2)
        finally:
            burst.close()
        assert phase.failed == 1  # the tampered session's last burst
        assert any("commanded" in msg for msg in phase.failures)

    def test_feature_scan(self):
        scan = FeatureScan(seed=3)
        try:
            scan.check_fraction = 1.0
            for series in scan.series:
                set_state = series.rin.set_state
                series.rin.set_state = lambda frame, _s=set_state: _s(
                    frame=(frame + 1) % scan.n_frames
                )
            phase = scan.run(1.0)
        finally:
            scan.close()
        assert phase.failed >= 1
        assert any("differs from its reference" in msg for msg in phase.failures)
