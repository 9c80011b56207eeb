"""Unit tests for layout algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphkit import Graph
from repro.graphkit.csr import CSRGraph
from repro.graphkit.layout import (
    FruchtermanReingold,
    MaxentStress,
    exact_repulsion,
    fruchterman_reingold_layout,
    maxent_stress_layout,
    maxent_stress_value,
    spectral_layout,
)
from repro.graphkit.generators import grid_2d, random_geometric
from repro.graphkit.layout.maxent_stress import _EPS, _known_pairs, _resolve_impl
from repro.rin import build_rin


def layout_stress(g, coords):
    """Mean squared deviation from unit target distance over edges."""
    err = 0.0
    m = 0
    for u, v in g.iter_edges():
        d = np.linalg.norm(coords[u] - coords[v])
        err += (d - 1.0) ** 2
        m += 1
    return err / max(m, 1)


class TestMaxentStress:
    def test_shape_and_finite(self, karate):
        coords = maxent_stress_layout(karate, dim=3, k=2, seed=1)
        assert coords.shape == (karate.number_of_nodes(), 3)
        assert np.isfinite(coords).all()

    def test_improves_over_random(self, karate):
        rng = np.random.default_rng(0)
        random_coords = rng.standard_normal((karate.number_of_nodes(), 3))
        optimized = maxent_stress_layout(karate, dim=3, k=2, seed=1)
        assert layout_stress(karate, optimized) < layout_stress(
            karate, random_coords
        )

    def test_deterministic(self, karate):
        a = maxent_stress_layout(karate, dim=3, seed=5)
        b = maxent_stress_layout(karate, dim=3, seed=5)
        assert np.array_equal(a, b)

    def test_warm_start_converges_faster(self, karate):
        cold = maxent_stress_layout(karate, dim=3, seed=1)
        warm = maxent_stress_layout(karate, dim=3, seed=2, initial=cold)
        # Warm start must not blow up the layout scale.
        assert np.isfinite(warm).all()
        assert layout_stress(karate, warm) < 2 * layout_stress(karate, cold) + 1.0

    def test_separates_non_adjacent(self):
        # Two disjoint edges: entropy term must keep the pairs apart.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        coords = maxent_stress_layout(g, dim=3, seed=3)
        assert np.linalg.norm(coords[0] - coords[2]) > 0.05

    def test_grid_geometry_recovered(self):
        # On a 2D grid, corner-to-corner distance should clearly exceed
        # the unit edge length (layout reflects graph geometry).
        g = grid_2d(5, 5)
        coords = maxent_stress_layout(g, dim=2, k=2, seed=1)
        edge_len = np.mean(
            [np.linalg.norm(coords[u] - coords[v]) for u, v in g.iter_edges()]
        )
        corner = np.linalg.norm(coords[0] - coords[24])
        assert corner > 2.5 * edge_len

    def test_runner_api_matches_listing1(self, karate):
        # Paper Listing 1: nk.viz.MaxentStress(G, 3, 3).run().getCoordinates()
        layout = MaxentStress(karate, 3, 3)
        layout.run()
        coords = layout.getCoordinates()
        assert coords.shape == (karate.number_of_nodes(), 3)

    def test_runner_requires_run(self, karate):
        with pytest.raises(RuntimeError):
            MaxentStress(karate, 3, 1).getCoordinates()

    def test_empty_graph(self):
        assert maxent_stress_layout(Graph(0), dim=3).shape == (0, 3)

    def test_edgeless_graph(self):
        coords = maxent_stress_layout(Graph(5), dim=2, seed=1)
        assert coords.shape == (5, 2)
        assert np.isfinite(coords).all()

    def test_invalid_dim(self, triangle):
        with pytest.raises(ValueError):
            maxent_stress_layout(triangle, dim=0)

    def test_bad_initial_shape(self, triangle):
        with pytest.raises(ValueError):
            maxent_stress_layout(triangle, dim=3, initial=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_rejected(self, path4, bad):
        # One NaN in the warm start used to poison every coordinate.
        initial = np.zeros((4, 2))
        initial[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            maxent_stress_layout(path4, dim=2, initial=initial)

    def test_no_repulsion_mode(self, karate):
        coords = maxent_stress_layout(karate, dim=3, repulsion_samples=0, seed=1)
        assert np.isfinite(coords).all()


class TestBarnesHutTrustRegion:
    """Pair-free nodes divide by a rho floored to _EPS, so the entropy
    term hands them a ~1/_EPS kick; the Barnes-Hut engine caps per-sweep
    displacement at 100 layout scales so one sweep cannot teleport them
    out of the embedding (and collapse the octree's cell structure)."""

    @staticmethod
    def _ring_with_isolated(n_ring=32, n_iso=32):
        edges = [(i, (i + 1) % n_ring) for i in range(n_ring)]
        return Graph.from_edges(n_ring + n_iso, edges)

    def test_single_sweep_displacement_capped(self):
        g = self._ring_with_isolated()
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((g.number_of_nodes(), 3))
        x1 = maxent_stress_layout(
            g, 3, initial=x0, impl="barnes_hut",
            alpha=0.008, alpha_min=0.008, iterations_per_alpha=1, tol=0.0,
        )
        step = np.linalg.norm(x1 - x0, axis=1)
        # scale == mean target distance == 1 on an unweighted graph.
        assert step.max() <= 100.0 * (1.0 + 1e-9)
        # The cap must actually bind for the isolated tail: uncapped,
        # the rho ~ _EPS denominator kicks those nodes ~1e7 scales out
        # in this single sweep, so a capped step sits exactly at the
        # trust-region boundary.
        assert step[32:].max() > 99.0

    def test_isolated_nodes_stay_bounded_and_finite(self):
        g = self._ring_with_isolated()
        x = maxent_stress_layout(
            g, 3, impl="barnes_hut", alpha=0.008,
            iterations_per_alpha=3, seed=0, tol=0.0,
        )
        assert np.isfinite(x).all()
        assert np.abs(x).max() < 500.0

    def test_cap_inactive_on_well_behaved_graphs(self, karate):
        # Every karate node has known pairs, so no step approaches the
        # trust region: a Barnes-Hut polish sweep from a stress-only
        # warm start moves nodes by a small fraction of the cap.
        x0 = maxent_stress_layout(karate, dim=3, seed=5, repulsion_samples=0)
        x1 = maxent_stress_layout(
            karate, 3, initial=x0, impl="barnes_hut",
            alpha=0.008, alpha_min=0.008, iterations_per_alpha=1, tol=0.0,
        )
        assert np.linalg.norm(x1 - x0, axis=1).max() < 100.0


def one_sweep_oracle(g, x, k, alpha):
    """One local-iteration sweep from ``x`` with the exact entropy term.

    The arc-list attraction plus the all-pairs ``exact_repulsion`` minus
    the known-arc terms: the update the dense engine must reproduce.
    """
    csr = g.csr() if isinstance(g, Graph) else g
    n = csr.n
    tails, heads, d = _known_pairs(csr, k, 24)
    w = 1.0 / np.maximum(d, _EPS) ** 2
    rho = np.maximum(np.bincount(tails, weights=w, minlength=n), _EPS)
    diff = x[tails] - x[heads]
    dist = np.maximum(np.linalg.norm(diff, axis=1), _EPS)
    attract = w[:, None] * x[heads] + (w * d / dist)[:, None] * diff
    known = diff / (dist * dist)[:, None]
    agg = np.zeros_like(x)
    rep = exact_repulsion(x)
    np.add.at(agg, tails, attract)
    np.add.at(rep, tails, -known)
    return (agg + alpha * rep) / rho[:, None]


def one_sweep(g, x, k, alpha):
    return maxent_stress_layout(
        g, x.shape[1], k, initial=x, impl="exact", alpha=alpha,
        alpha_min=alpha, iterations_per_alpha=1, tol=0.0,
    )


@st.composite
def small_graphs(draw):
    """Weighted graphs of 2..40 nodes, often with isolated nodes."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    p = draw(st.sampled_from([0.05, 0.15, 0.4]))
    iu, ju = np.triu_indices(n, 1)
    pick = rng.random(len(iu)) < p
    if not pick.any():
        pick[0] = True
    weights = rng.uniform(0.5, 3.0, int(pick.sum()))
    edges = [
        (int(u), int(v), float(wt))
        for u, v, wt in zip(iu[pick], ju[pick], weights)
    ]
    return Graph.from_weighted_edges(n, edges), seed


class TestExactEngine:
    """``impl="exact"``: dense sweeps, entropy term over every unknown pair."""

    def test_auto_picks_exact_within_the_cache_budget(self):
        assert _resolve_impl("auto", 73) == "exact"
        assert _resolve_impl("auto", 181) == "exact"
        assert _resolve_impl("auto", 182) == "sampled"
        assert _resolve_impl("auto", 4096) == "barnes_hut"

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_sweep_matches_oracle(self, karate, k):
        x0 = np.random.default_rng(0).standard_normal((34, 3))
        for alpha in (1.0, 0.008):
            assert np.allclose(
                one_sweep(karate, x0, k, alpha),
                one_sweep_oracle(karate, x0, k, alpha),
                rtol=0.0, atol=1e-10,
            )

    def test_one_sweep_matches_oracle_on_a3d(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        x0 = maxent_stress_layout(g, 3, seed=2, impl="sampled")
        assert np.allclose(
            one_sweep(g, x0, 1, 0.25), one_sweep_oracle(g, x0, 1, 0.25),
            rtol=0.0, atol=1e-10,
        )

    def test_self_loops(self):
        # Hand-built CSR (the Graph builder keeps simple graphs): a loop
        # arc adds weight to rho but no pull, and is no unknown pair.
        indptr = np.array([0, 2, 4, 7, 8])
        indices = np.array([0, 1, 0, 2, 1, 2, 3, 2])
        weights = np.array([0.7, 1.2, 1.2, 0.9, 0.9, 1.6, 0.5, 0.5])
        csr = CSRGraph(indptr, indices, weights)
        x0 = np.random.default_rng(3).standard_normal((4, 2))
        assert np.allclose(
            one_sweep(csr, x0, 1, 0.5), one_sweep_oracle(csr, x0, 1, 0.5),
            rtol=0.0, atol=1e-10,
        )
        exact, sampled = (
            maxent_stress_layout(csr, 2, seed=1, repulsion_samples=0, impl=impl)
            for impl in ("exact", "sampled")
        )
        assert np.allclose(exact, sampled, rtol=0.0, atol=1e-9)

    def test_draws_nothing_from_the_rng_during_sweeps(self, karate):
        # Same initial coordinates, different seeds: the same layout.
        x0 = maxent_stress_layout(karate, 3, seed=1, impl="sampled")
        a = maxent_stress_layout(karate, 3, seed=2, initial=x0, impl="exact")
        b = maxent_stress_layout(karate, 3, seed=3, initial=x0, impl="exact")
        assert np.array_equal(a, b)

    def test_cancel_mid_solve_returns_partial(self, karate):
        polls = {"n": 0}

        def cancel_after_three():
            polls["n"] += 1
            return polls["n"] > 3

        partial = maxent_stress_layout(
            karate, 3, seed=1, impl="exact", tol=0.0, cancel=cancel_after_three
        )
        # Exactly three sweeps of the first annealing stage ran.
        three = maxent_stress_layout(
            karate, 3, seed=1, impl="exact", tol=0.0,
            iterations_per_alpha=3, alpha_min=1.0,
        )
        assert polls["n"] == 4
        assert np.array_equal(partial, three)

    def test_close_to_sampled_layout_quality(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        exact = maxent_stress_value(g, maxent_stress_layout(g, 3, impl="exact"))
        sampled = maxent_stress_value(
            g, maxent_stress_layout(g, 3, impl="sampled")
        )
        assert exact <= 1.10 * sampled

    @given(small_graphs(), st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, case, k):
        g, seed = case
        x = maxent_stress_layout(g, 3, k, seed=seed, impl="exact")
        assert x.shape == (g.number_of_nodes(), 3)
        assert np.isfinite(x).all()
        x0 = np.random.default_rng(seed).standard_normal(x.shape)
        # Pair-free nodes divide by rho floored to _EPS, so their
        # coordinates reach ~1/_EPS: compare relative to magnitude there.
        assert np.allclose(
            one_sweep(g, x0, k, 0.5), one_sweep_oracle(g, x0, k, 0.5),
            rtol=1e-9, atol=1e-10,
        )


class TestFruchtermanReingold:
    def test_shape(self, karate):
        coords = fruchterman_reingold_layout(karate, dim=2, seed=1)
        assert coords.shape == (karate.number_of_nodes(), 2)
        assert np.isfinite(coords).all()

    def test_adjacent_closer_than_random_pairs(self, karate):
        coords = fruchterman_reingold_layout(karate, dim=2, seed=1, iterations=80)
        edge_d = np.mean(
            [np.linalg.norm(coords[u] - coords[v]) for u, v in karate.iter_edges()]
        )
        rng = np.random.default_rng(0)
        pair_d = np.mean(
            [
                np.linalg.norm(coords[u] - coords[v])
                for u, v in rng.integers(0, len(coords), size=(300, 2))
                if u != v and not karate.has_edge(int(u), int(v))
            ]
        )
        assert edge_d < pair_d

    def test_sampled_mode_for_large_graph(self):
        g = random_geometric(300, 0.12, seed=1)
        coords = fruchterman_reingold_layout(
            g, dim=3, seed=1, exact_threshold=100, iterations=10
        )
        assert coords.shape == (300, 3)
        assert np.isfinite(coords).all()

    def test_runner(self, triangle):
        coords = FruchtermanReingold(triangle, 3).run().getCoordinates()
        assert coords.shape == (3, 3)

    def test_single_node(self):
        assert fruchterman_reingold_layout(Graph(1), dim=2).shape == (1, 2)


class TestSpectral:
    def test_shape(self, karate):
        coords = spectral_layout(karate, dim=2)
        assert coords.shape == (karate.number_of_nodes(), 2)
        assert np.isfinite(coords).all()

    def test_path_orders_nodes(self):
        g = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
        coords = spectral_layout(g, dim=1)
        x = coords[:, 0]
        # Fiedler vector of a path is monotone along the path.
        assert np.all(np.diff(x) > 0) or np.all(np.diff(x) < 0)

    def test_tiny_graph_fallback(self):
        coords = spectral_layout(Graph.from_edges(2, [(0, 1)]), dim=3)
        assert coords.shape == (2, 3)

    def test_invalid_dim(self, triangle):
        with pytest.raises(ValueError):
            spectral_layout(triangle, dim=0)
