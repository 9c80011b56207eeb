"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. warm-start vs cold Maxent-Stress layout (the widget's frame-switch
   optimization);
2. incremental edge diffs (DynamicRIN) vs rebuilding the RIN from
   scratch (the paper's add/remove-edges routine vs naive);
3. the source-block budget of the unpacked Brandes sweep: the 2M-entry
   memory cap vs the cache budget;
4. sampled vs exact betweenness (NetworKit's approximation strategy,
   §II: "approximation is often the only feasible technique");
5. the Maxent-Stress entropy term at protein scale: exact dense sweeps
   vs the sampled arc-list estimator.
"""

import numpy as np
import pytest

from repro.bench import protein_trajectory
from repro.graphkit import kernels
from repro.graphkit.centrality import Betweenness, EstimateBetweenness
from repro.graphkit.kernels import DENSE_BLOCK_ENTRIES
from repro.graphkit.generators import random_geometric
from repro.graphkit.layout import maxent_stress_layout, maxent_stress_value
from repro.rin import DynamicRIN, build_rin


@pytest.fixture(scope="module")
def a3d_traj():
    return protein_trajectory("A3D")


class TestLayoutWarmStart:
    def test_warm_layout(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=10.0)
        cold = maxent_stress_layout(rin.graph, dim=3, seed=1)

        def warm():
            return maxent_stress_layout(
                rin.graph, dim=3, seed=1, initial=cold, alpha=0.25
            )

        coords = benchmark(warm)
        assert np.isfinite(coords).all()

    def test_cold_layout(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=10.0)
        coords = benchmark(
            lambda: maxent_stress_layout(rin.graph, dim=3, seed=1)
        )
        assert np.isfinite(coords).all()


class TestIncrementalVsRebuild:
    def test_incremental_update(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        state = {"flip": False}

        def update():
            state["flip"] = not state["flip"]
            return rin.set_cutoff(5.0 if state["flip"] else 4.5)

        benchmark(update)

    def test_full_rebuild(self, benchmark, a3d_traj):
        topo = a3d_traj.topology
        frame = a3d_traj.frame(0)
        state = {"flip": False}

        def rebuild():
            state["flip"] = not state["flip"]
            return build_rin(topo, frame, 5.0 if state["flip"] else 4.5)

        benchmark(rebuild)

    def test_shape_small_diffs_cheaper_than_rebuild(self, a3d_traj):
        """A 0.1 Å nudge touches few edges; the diff must beat a rebuild
        in touched-edge count (the quantity that scales DOM work)."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        diff = rin.set_cutoff(4.6)
        assert diff.total < rin.graph.number_of_edges() / 4


class TestBetweennessBlockBudget:
    """Unpacked Brandes sweeps at the old 2M-entry blocks vs the cache budget."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return random_geometric(400, 0.09, seed=2)

    def test_dense_budget(self, benchmark, big_graph, monkeypatch):
        monkeypatch.setattr(kernels, "CACHE_BLOCK_ENTRIES", DENSE_BLOCK_ENTRIES)
        benchmark(lambda: Betweenness(big_graph).run())

    def test_cache_budget(self, benchmark, big_graph):
        benchmark(lambda: Betweenness(big_graph).run())

    def test_shape_results_identical(self, big_graph, monkeypatch):
        cached = Betweenness(big_graph).run().scores_array()
        monkeypatch.setattr(kernels, "CACHE_BLOCK_ENTRIES", DENSE_BLOCK_ENTRIES)
        dense = Betweenness(big_graph).run().scores_array()
        assert np.allclose(cached, dense, atol=1e-12)


class TestApproximationTradeoff:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_geometric(500, 0.08, seed=4)

    def test_exact_betweenness(self, benchmark, graph):
        benchmark(lambda: Betweenness(graph).run())

    def test_sampled_betweenness(self, benchmark, graph):
        benchmark(lambda: EstimateBetweenness(graph, nsamples=50, seed=1).run())

    def test_shape_estimator_converges_with_samples(self, graph):
        """More pivots → better agreement with exact scores, reaching
        exactness at full sampling (the approximation trade-off knob)."""
        exact = Betweenness(graph).run().scores_array()

        def corr(nsamples):
            est = EstimateBetweenness(
                graph, nsamples=nsamples, seed=1
            ).run().scores_array()
            return float(np.corrcoef(exact, est)[0, 1])

        c50, c150 = corr(50), corr(150)
        assert c150 > c50
        assert c150 > 0.8
        full = EstimateBetweenness(
            graph, nsamples=graph.number_of_nodes(), seed=1
        ).run().scores_array()
        assert np.allclose(full, exact)


class TestLayoutRepulsionEngine:
    """A warm A3D solve (the frame-switch layout) on both entropy engines."""

    @pytest.fixture(scope="class")
    def warm_case(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        cold = maxent_stress_layout(rin.graph, dim=3, seed=1)
        rin.set_state(frame=1)
        return rin.csr, cold

    @staticmethod
    def _solve(case, impl):
        csr, cold = case
        return maxent_stress_layout(csr, dim=3, seed=1, initial=cold, impl=impl)

    def test_exact_repulsion(self, benchmark, warm_case):
        coords = benchmark(lambda: self._solve(warm_case, "exact"))
        assert np.isfinite(coords).all()

    def test_sampled_repulsion(self, benchmark, warm_case):
        coords = benchmark(lambda: self._solve(warm_case, "sampled"))
        assert np.isfinite(coords).all()

    def test_shape_exact_stress_within_ten_percent(self, warm_case):
        """Summing the entropy term exactly must not cost layout quality."""
        csr = warm_case[0]
        exact, sampled = (
            maxent_stress_value(csr, self._solve(warm_case, impl))
            for impl in ("exact", "sampled")
        )
        assert exact <= 1.10 * sampled
