"""Shard-determinism tests for the process-pool scanning engine.

The contract under test: ``cutoff_scan(workers=k)`` is **bit-identical**
to the serial in-process run (``workers=0``) for any worker count,
because every descriptor is a pure function of the cut-off's edge set and
shard boundaries never leak into results. Exercised on the benchmark
protein, a random coordinate soup, and a deliberately disconnected
two-cluster system.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphkit import service as service_mod
from repro.graphkit.service import (
    ComputeService,
    configure_compute_service,
    get_compute_service,
    shutdown_compute_service,
)
from repro.md.topology import Topology
from repro.md.trajectory import Trajectory
from repro.rin import (
    DynamicRIN,
    cutoff_scan,
    measure_over_trajectory,
    topology_over_trajectory,
    trajectory_cutoff_scan,
)

DESCRIPTORS = (
    "edges",
    "components",
    "hubs",
    "mean_degree",
    "max_coreness",
    "mean_clustering",
)

CUTOFFS = [2.5 + 0.5 * i for i in range(12)]


def random_system(seed: int, n_res: int = 24) -> tuple[Topology, np.ndarray]:
    """A random coordinate soup (no native structure at all)."""
    rng = np.random.default_rng(seed)
    topo = Topology.from_sequence("".join(rng.choice(list("ACDEFGHIKL"), n_res)))
    coords = rng.normal(scale=6.0, size=(topo.n_atoms, 3))
    return topo, coords


def disconnected_system(seed: int = 3) -> tuple[Topology, np.ndarray]:
    """Two residue clusters 500 Å apart: the RIN can never connect."""
    rng = np.random.default_rng(seed)
    topo = Topology.from_sequence("AAAAAGGGGG")
    coords = rng.normal(scale=3.0, size=(topo.n_atoms, 3))
    owner = topo.atom_residue_map()
    coords[owner >= 5] += 500.0
    return topo, coords


def assert_scans_identical(fast, slow):
    for name in DESCRIPTORS:
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), f"{name} differs: {a} vs {b}"


class TestCutoffScanShardDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_protein_bit_identical(self, a3d_traj, workers):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        serial = cutoff_scan(topo, coords, CUTOFFS, workers=0)
        sharded = cutoff_scan(topo, coords, CUTOFFS, workers=workers)
        assert_scans_identical(sharded, serial)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_system_bit_identical(self, workers, seed):
        topo, coords = random_system(seed)
        serial = cutoff_scan(topo, coords, CUTOFFS, workers=0)
        sharded = cutoff_scan(topo, coords, CUTOFFS, workers=workers)
        assert_scans_identical(sharded, serial)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_disconnected_system_bit_identical(self, workers):
        topo, coords = disconnected_system()
        serial = cutoff_scan(topo, coords, CUTOFFS, workers=0)
        sharded = cutoff_scan(topo, coords, CUTOFFS, workers=workers)
        assert_scans_identical(sharded, serial)
        # Two far-apart clusters: never a single component.
        assert serial.components.min() >= 2
        assert np.isnan(serial.percolation_cutoff())

    def test_more_workers_than_cutoffs(self, a3d_traj):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        serial = cutoff_scan(topo, coords, [4.5, 6.0], workers=0)
        sharded = cutoff_scan(topo, coords, [4.5, 6.0], workers=8)
        assert_scans_identical(sharded, serial)

    def test_reference_rejects_workers(self, a3d_traj):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        with pytest.raises(ValueError):
            cutoff_scan(topo, coords, [4.5], impl="reference", workers=2)

    def test_shared_executor_reuse(self, a3d_traj):
        """One warm pool across many scans (the service steady state)."""
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        serial = cutoff_scan(topo, coords, CUTOFFS, workers=0)
        with ComputeService(workers=2) as svc, svc.lease() as ex:
            for _ in range(3):
                assert_scans_identical(
                    cutoff_scan(topo, coords, CUTOFFS, executor=ex), serial
                )
            assert svc.stats.pools_started == 1

    def test_negative_workers_rejected(self, a3d_traj):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        with pytest.raises(ValueError, match="workers"):
            cutoff_scan(topo, coords, [4.0, 5.0], workers=-2)


class TestScanServiceReuse:
    """Regression: scans must never spawn a pool per invocation again."""

    @pytest.fixture(autouse=True)
    def _fresh_service(self):
        shutdown_compute_service()
        yield
        shutdown_compute_service()

    def test_repeated_scans_spawn_no_new_pool(self, a3d_traj):
        svc = configure_compute_service(workers=2)
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        serial = cutoff_scan(topo, coords, CUTOFFS, workers=0)
        for _ in range(3):
            assert_scans_identical(
                cutoff_scan(topo, coords, CUTOFFS, workers=2), serial
            )
        trajectory_cutoff_scan(a3d_traj, CUTOFFS, frames=range(4), workers=2)
        assert get_compute_service() is svc
        assert svc.stats.pools_started == 1  # one warm pool for everything
        assert svc.stats.jobs_completed >= 4

    def test_serial_scan_never_creates_a_service(self, a3d_traj):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        cutoff_scan(topo, coords, CUTOFFS, workers=0)
        assert service_mod._GLOBAL is None

    def test_explicit_executor_bypasses_service(self, a3d_traj):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        with ComputeService(workers=2) as svc, svc.lease() as ex:
            cutoff_scan(topo, coords, CUTOFFS, executor=ex)
            assert svc.stats.jobs_completed >= 1
        assert service_mod._GLOBAL is None


class TestTrajectoryScanShardDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_frames_fan_out_bit_identical(self, a3d_traj, workers):
        serial = trajectory_cutoff_scan(
            a3d_traj, CUTOFFS, frames=range(6), workers=0
        )
        sharded = trajectory_cutoff_scan(
            a3d_traj, CUTOFFS, frames=range(6), workers=workers
        )
        assert_scans_identical(sharded, serial)
        assert serial.edges.shape == (6, len(CUTOFFS))

    def test_rows_match_single_frame_scans(self, a3d_traj):
        scan = trajectory_cutoff_scan(a3d_traj, CUTOFFS, frames=[0, 3], workers=2)
        for row, f in enumerate([0, 3]):
            single = cutoff_scan(
                a3d_traj.topology, a3d_traj.frame(f), CUTOFFS, workers=0
            )
            assert_scans_identical(scan.frame_scan(row), single)

    def test_disconnected_trajectory(self):
        topo, coords = disconnected_system()
        traj = Trajectory(topo, np.stack([coords, coords + 0.1, coords - 0.1]))
        serial = trajectory_cutoff_scan(traj, CUTOFFS, workers=0)
        sharded = trajectory_cutoff_scan(traj, CUTOFFS, workers=2)
        assert_scans_identical(sharded, serial)
        assert np.isnan(serial.percolation_series()).all()

    def test_frame_validation(self, a3d_traj):
        with pytest.raises(IndexError):
            trajectory_cutoff_scan(a3d_traj, CUTOFFS, frames=[99])
        with pytest.raises(ValueError):
            trajectory_cutoff_scan(a3d_traj, CUTOFFS, frames=[])

    def test_negative_workers_rejected(self, a3d_traj):
        with pytest.raises(ValueError, match="workers"):
            trajectory_cutoff_scan(a3d_traj, CUTOFFS, frames=[0], workers=-1)


class TestDynamicRINScan:
    def test_matches_cutoff_scan(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=2, cutoff=4.5)
        scan = rin.scan(CUTOFFS)
        direct = cutoff_scan(a3d_traj.topology, a3d_traj.frame(2), CUTOFFS)
        assert_scans_identical(scan, direct)
        assert scan.criterion == direct.criterion

    @pytest.mark.parametrize("workers", [2, 8])
    def test_sharded_matches_serial(self, a3d_traj, workers):
        rin = DynamicRIN(a3d_traj, frame=1, cutoff=4.5)
        assert_scans_identical(rin.scan(CUTOFFS, workers=workers), rin.scan(CUTOFFS))


class TestTimeseriesShardDeterminism:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_topology_series_bit_identical(self, a3d_traj, workers):
        serial = topology_over_trajectory(a3d_traj, 4.5, workers=0)
        sharded = topology_over_trajectory(a3d_traj, 4.5, workers=workers)
        for key, arr in serial.items():
            assert np.array_equal(arr, sharded[key]), key

    def test_measure_series_bit_identical(self, a3d_traj):
        serial = measure_over_trajectory(
            a3d_traj, "Degree Centrality", 4.5, frames=np.arange(6)
        )
        sharded = measure_over_trajectory(
            a3d_traj, "Degree Centrality", 4.5, frames=np.arange(6), workers=2
        )
        assert np.array_equal(serial.values, sharded.values)

    def test_measure_name_validated_before_fanout(self, a3d_traj):
        with pytest.raises(KeyError):
            measure_over_trajectory(a3d_traj, "No Such Measure", 4.5, workers=2)
