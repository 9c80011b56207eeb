"""Unit tests for the widget measure registry."""

import numpy as np
import pytest

from repro.rin import (
    MEASURES,
    PAPER_MEASURES,
    build_rin,
    get_measure,
    measure_names,
    register_measure,
)


@pytest.fixture
def rin(a3d_traj):
    return build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)


class TestRegistry:
    def test_paper_measures_present(self):
        # Exactly the seven measures of Figure 6.
        assert len(PAPER_MEASURES) == 7
        for name in PAPER_MEASURES:
            assert name in MEASURES

    def test_measure_names_order(self):
        names = measure_names()
        assert names[: len(PAPER_MEASURES)] == list(PAPER_MEASURES)

    def test_unknown_measure(self):
        with pytest.raises(KeyError):
            get_measure("Bogus Centrality")

    def test_kinds(self):
        assert get_measure("PLM Community Detection").kind == "community"
        assert get_measure("Betweenness Centrality").kind == "centrality"

    def test_register_custom(self, rin):
        try:
            m = register_measure(
                "Inverse Degree", lambda g: 1.0 / (1.0 + g.degrees())
            )
            scores = m(rin)
            assert scores.shape == (73,)
            assert "Inverse Degree" in measure_names()
        finally:
            MEASURES.pop("Inverse Degree", None)

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_measure("Degree Centrality", lambda g: g.degrees())

    def test_register_overwrite_allowed(self, rin):
        original = MEASURES["Degree Centrality"]
        try:
            register_measure(
                "Degree Centrality",
                lambda g: np.zeros(g.number_of_nodes()),
                overwrite=True,
            )
            assert get_measure("Degree Centrality")(rin).sum() == 0
        finally:
            MEASURES["Degree Centrality"] = original

    def test_register_bad_kind(self):
        with pytest.raises(ValueError):
            register_measure("X", lambda g: g.degrees(), kind="typo")

    def test_bad_shape_detected(self, rin):
        try:
            m = register_measure("Broken", lambda g: np.zeros(3))
            with pytest.raises(AssertionError):
                m(rin)
        finally:
            MEASURES.pop("Broken", None)


class TestAllMeasuresOnRIN:
    @pytest.mark.parametrize("name", PAPER_MEASURES)
    def test_shape_and_finite(self, rin, name):
        scores = get_measure(name)(rin)
        assert scores.shape == (rin.number_of_nodes(),)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("name", PAPER_MEASURES)
    def test_deterministic(self, rin, name):
        a = get_measure(name)(rin)
        b = get_measure(name)(rin)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "name",
        [n for n in PAPER_MEASURES if "Community" not in n],
    )
    def test_centralities_nonnegative(self, rin, name):
        assert (get_measure(name)(rin) >= -1e-12).all()

    @pytest.mark.parametrize(
        "name", ["PLM Community Detection", "PLP Community Detection"]
    )
    def test_community_labels_integral(self, rin, name):
        scores = get_measure(name)(rin)
        assert np.allclose(scores, np.round(scores))
        assert scores.min() == 0

    def test_measures_work_on_fragmented_low_cutoff_rin(self, a3d_traj):
        # At 3 Å some RINs fragment; every measure must still run.
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 3.0)
        for name in PAPER_MEASURES:
            scores = get_measure(name)(g)
            assert np.isfinite(scores).all()


class TestWeightedExtras:
    """The registry's weighted measures (compiled Dijkstra distances)."""

    WEIGHTED = ("Weighted Betweenness Centrality", "Weighted Closeness Centrality")

    def test_registered_after_paper_measures(self):
        names = measure_names()
        for name in self.WEIGHTED:
            assert name in names
            assert names.index(name) >= len(PAPER_MEASURES)

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_runs_on_rin(self, rin, name):
        scores = get_measure(name)(rin)
        assert scores.shape == (rin.number_of_nodes(),)
        assert np.isfinite(scores).all()

    def test_unit_weight_rin_matches_hop_measure(self, rin):
        # RINs are unweighted (all weights 1.0), so the weighted measures
        # must coincide with their hop-based Figure 6 counterparts.
        for weighted_name, hop_name in (
            ("Weighted Closeness Centrality", "Closeness Centrality"),
            ("Weighted Betweenness Centrality", "Betweenness Centrality"),
        ):
            assert np.allclose(
                get_measure(weighted_name)(rin),
                get_measure(hop_name)(rin),
                atol=1e-8,
            )

    def test_weighted_measure_on_csr_snapshot(self, a3d_traj):
        # The interactive pipeline hands measures an immutable CSRGraph.
        from repro.rin import DynamicRIN

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        scores = get_measure("Weighted Closeness Centrality")(rin.csr)
        assert scores.shape == (rin.csr.number_of_nodes(),)
