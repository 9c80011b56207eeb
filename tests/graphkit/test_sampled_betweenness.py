"""Seeded-determinism and error-bound tests for the sampled weighted
betweenness estimator (``Betweenness(weighted=True, impl="sampled")``).

The estimator's contract has three legs, each pinned here:

* **determinism** — the pivot set is a pure function of ``seed`` and the
  estimate is one weighted-kernel call over it, so the same seed gives
  bit-identical scores, whether solved inline or in compute-service pool
  workers of any width;
* **convergence** — the Hoeffding bound shrinks monotonically with the
  sample count, observed errors stay inside it, and sampling every
  source reproduces the exact engine;
* **rejection** — the estimator is weighted-only and validates its
  sampling parameters loudly.
"""

import numpy as np
import pytest

from repro.graphkit.centrality import (
    Betweenness,
    sampled_betweenness_error_bound,
)
from repro.graphkit.kernels import batched_weighted_dependencies
from repro.graphkit.service import ComputeService
from tests.helpers import random_weighted


@pytest.fixture(scope="module")
def weighted_graph():
    return random_weighted(80, 0.08, 5)


def _sampled(g, nsamples, *, seed=42, normalized=False):
    return (
        Betweenness(
            g,
            weighted=True,
            impl="sampled",
            nsamples=nsamples,
            seed=seed,
            normalized=normalized,
        )
        .run()
        .scores_array()
    )


def _sampled_job(payload, arrays):
    g, nsamples, seed = payload
    return _sampled(g, nsamples, seed=seed)


class TestSeededDeterminism:
    def test_same_seed_bit_identical(self, weighted_graph):
        a = _sampled(weighted_graph, 24, seed=7)
        b = _sampled(weighted_graph, 24, seed=7)
        assert np.array_equal(a, b)
        assert np.array_equal(np.argsort(a), np.argsort(b))

    def test_different_seeds_differ(self, weighted_graph):
        a = _sampled(weighted_graph, 12, seed=1)
        b = _sampled(weighted_graph, 12, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, 8])
    def test_worker_count_bit_identity(self, weighted_graph, workers):
        # The estimate is a pure function of graph and seed: solving it
        # in pool workers of any width must not change a single bit, and
        # the results come back in payload order.
        seeds = [42, 7, 3]
        serial = [_sampled(weighted_graph, 40, seed=s) for s in seeds]
        with ComputeService(workers=workers) as svc, svc.lease() as ex:
            pooled = ex.run(
                _sampled_job, [(weighted_graph, 40, s) for s in seeds]
            )
            assert svc.pool_started
        assert len(pooled) == len(serial)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a, b)

    def test_estimate_is_one_kernel_call(self, weighted_graph):
        # The estimate is the weighted kernel over the seeded pivots,
        # scaled by n / k and halved — bit for bit.
        n, k = weighted_graph.number_of_nodes(), 40
        pivots = np.random.default_rng(42).choice(n, size=k, replace=False)
        direct = batched_weighted_dependencies(
            weighted_graph.csr(), pivots.astype(np.int64)
        )
        direct *= n / k
        direct /= 2.0
        assert np.array_equal(_sampled(weighted_graph, k), direct)


class TestConvergence:
    def test_full_sampling_reproduces_exact(self, weighted_graph):
        exact = (
            Betweenness(weighted_graph, weighted=True).run().scores_array()
        )
        n = weighted_graph.number_of_nodes()
        full = _sampled(weighted_graph, n)
        assert np.allclose(full, exact, atol=1e-8)

    def test_bound_monotone_and_honest(self, weighted_graph):
        exact = (
            Betweenness(weighted_graph, weighted=True).run().scores_array()
        )
        n = weighted_graph.number_of_nodes()
        ladder = [8, 24, 60]
        bounds = [sampled_betweenness_error_bound(n, k) for k in ladder]
        assert bounds == sorted(bounds, reverse=True)
        assert all(b > 0 for b in bounds)
        for k, bound in zip(ladder, bounds):
            err = np.abs(_sampled(weighted_graph, k) - exact).max()
            assert err <= bound
        # The estimator actually converges, not just its bound: full
        # sampling beats the smallest pivot budget.
        err_small = np.abs(_sampled(weighted_graph, 8) - exact).max()
        err_full = np.abs(_sampled(weighted_graph, n) - exact).max()
        assert err_full < err_small

    def test_bound_edge_cases(self):
        assert sampled_betweenness_error_bound(2, 1) == 0.0
        assert sampled_betweenness_error_bound(50, 50) == 0.0
        assert sampled_betweenness_error_bound(50, 500) == 0.0

    def test_error_bound_method_scaling(self, weighted_graph):
        n = weighted_graph.number_of_nodes()
        raw = Betweenness(
            weighted_graph, weighted=True, impl="sampled", nsamples=16
        )
        norm = Betweenness(
            weighted_graph,
            weighted=True,
            impl="sampled",
            nsamples=16,
            normalized=True,
        )
        expected = sampled_betweenness_error_bound(n, 16)
        assert raw.error_bound() == pytest.approx(expected)
        assert norm.error_bound() == pytest.approx(
            expected * 2.0 / ((n - 1) * (n - 2))
        )

    def test_normalized_scores_scale(self, weighted_graph):
        n = weighted_graph.number_of_nodes()
        raw = _sampled(weighted_graph, 16)
        norm = _sampled(weighted_graph, 16, normalized=True)
        assert np.allclose(norm, raw * 2.0 / ((n - 1) * (n - 2)))


class TestRejection:
    def test_sampled_requires_weighted(self, weighted_graph):
        with pytest.raises(ValueError, match="EstimateBetweenness"):
            Betweenness(weighted_graph, impl="sampled")

    def test_nsamples_validated(self, weighted_graph):
        with pytest.raises(ValueError):
            Betweenness(
                weighted_graph, weighted=True, impl="sampled", nsamples=0
            )

    def test_error_bound_requires_sampled_impl(self, weighted_graph):
        with pytest.raises(RuntimeError):
            Betweenness(weighted_graph, weighted=True).error_bound()

    def test_bound_function_validates_inputs(self):
        with pytest.raises(ValueError):
            sampled_betweenness_error_bound(50, 10, confidence=1.5)
        with pytest.raises(ValueError):
            sampled_betweenness_error_bound(50, 0)
