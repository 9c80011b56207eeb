"""Unit tests for geometry and the structure builder."""

import numpy as np
import pytest

from repro.md import SegmentPlacement, Topology, proteins
from repro.md.builder import build_ca_trace, build_structure
from repro.md.geometry import (
    helix_ca_trace,
    loop_ca_trace,
    orthonormal_frame,
    rotation_about_axis,
    strand_ca_trace,
)


class TestGeometry:
    def test_orthonormal_frame(self):
        t, u, v = orthonormal_frame(np.array([0.0, 0.0, 2.0]))
        for a in (t, u, v):
            assert np.linalg.norm(a) == pytest.approx(1.0)
        assert abs(t @ u) < 1e-12
        assert abs(t @ v) < 1e-12
        assert abs(u @ v) < 1e-12

    def test_orthonormal_frame_zero_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_frame(np.zeros(3))

    def test_rotation_preserves_norm(self):
        rot = rotation_about_axis(np.array([1.0, 1.0, 0.0]), 0.7)
        x = np.array([1.0, 2.0, 3.0])
        assert np.linalg.norm(rot @ x) == pytest.approx(np.linalg.norm(x))
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_helix_rise(self):
        pts = helix_ca_trace(11, np.zeros(3), np.array([0, 0, 1.0]))
        # 1.5 Å rise per residue along the axis.
        assert pts[10, 2] - pts[0, 2] == pytest.approx(15.0)

    def test_helix_starts_at_anchor(self):
        start = np.array([3.0, -2.0, 1.0])
        pts = helix_ca_trace(5, start, np.array([0, 0, 1.0]))
        assert np.allclose(pts[0], start)

    def test_helix_ca_spacing_realistic(self):
        pts = helix_ca_trace(12, np.zeros(3), np.array([0, 0, 1.0]))
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        # Ideal helix consecutive CA distance is ~3.8 Å.
        assert np.all((gaps > 3.2) & (gaps < 4.4))

    def test_helix_turn_period(self):
        pts = helix_ca_trace(8, np.zeros(3), np.array([0, 0, 1.0]))
        # i and i+7 are nearly two turns apart laterally close (3.6/turn).
        lateral = pts[:, :2]
        d_07 = np.linalg.norm(lateral[7] - lateral[0])
        d_04 = np.linalg.norm(lateral[4] - lateral[0])
        assert d_07 < d_04

    def test_strand_extended(self):
        pts = strand_ca_trace(10, np.zeros(3), np.array([0, 0, 1.0]))
        assert pts[9, 2] - pts[0, 2] == pytest.approx(9 * 3.3)

    def test_strand_pleats_alternate(self):
        pts = strand_ca_trace(
            6, np.zeros(3), np.array([0, 0, 1.0]), pleat_dir=np.array([1.0, 0, 0])
        )
        x = pts[:, 0]
        assert np.all(np.sign(x[::2]) != np.sign(x[1::2]))

    def test_loop_connects(self):
        start = np.zeros(3)
        end = np.array([10.0, 0, 0])
        pts = loop_ca_trace(4, start, end, rng=np.random.default_rng(0))
        assert pts.shape == (4, 3)
        # Loop points stay in a sane envelope around the anchors.
        assert np.linalg.norm(pts - (start + end) / 2, axis=1).max() < 25

    def test_loop_zero_length(self):
        assert loop_ca_trace(0, np.zeros(3), np.ones(3)).shape == (0, 3)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            helix_ca_trace(0, np.zeros(3), np.array([0, 0, 1.0]))
        with pytest.raises(ValueError):
            loop_ca_trace(-1, np.zeros(3), np.ones(3))


class TestBuilder:
    def test_ca_trace_shape(self):
        topo = Topology.from_sequence("A" * 12, secondary="CHHHHHHHHHHC")
        ca = build_ca_trace(topo, [SegmentPlacement(lateral=(0, 0))])
        assert ca.shape == (12, 3)
        assert np.isfinite(ca).all()

    def test_placement_count_mismatch(self):
        topo = Topology.from_sequence("A" * 6, secondary="HHHEEE")
        with pytest.raises(ValueError):
            build_ca_trace(topo, [SegmentPlacement(lateral=(0, 0))])

    def test_chain_spacing_sane(self):
        topo, coords = proteins.build("A3D")
        ca = coords[topo.ca_indices()]
        gaps = np.linalg.norm(np.diff(ca, axis=0), axis=1)
        # Consecutive C-alphas must stay within loose bond-ish range.
        assert gaps.min() > 1.5
        assert gaps.max() < 8.0

    def test_full_structure_atom_count(self):
        topo, coords = proteins.build("2JOF")
        assert coords.shape == (topo.n_atoms, 3)

    def test_ca_atoms_match_trace(self):
        topo = Topology.from_sequence("AAAA", secondary="HHHH")
        ca = build_ca_trace(topo, [SegmentPlacement(lateral=(0, 0))], seed=1)
        coords = build_structure(topo, ca, seed=1)
        assert np.allclose(coords[topo.ca_indices()], ca)

    def test_bad_trace_shape_rejected(self):
        topo = Topology.from_sequence("AA")
        with pytest.raises(ValueError):
            build_structure(topo, np.zeros((3, 3)))

    def test_deterministic(self):
        a = proteins.build("NTL9", seed=5)[1]
        b = proteins.build("NTL9", seed=5)[1]
        assert np.array_equal(a, b)

    def test_sidechain_near_ca(self):
        topo, coords = proteins.build("2JOF")
        for res in topo.residues:
            ca = coords[res.atom_start + 1]
            for a in range(res.atom_start, res.atom_start + res.atom_count):
                assert np.linalg.norm(coords[a] - ca) < 12.0


class TestProteins:
    def test_names(self):
        assert set(proteins.names()) == {"A3D", "2JOF", "NTL9"}

    def test_residue_counts_match_paper(self):
        # Figure 5 shows A3D with 73 nodes; 2JOF and NTL9 are 20/39 aa.
        assert proteins.spec("A3D").n_residues == 73
        assert proteins.spec("2JOF").n_residues == 20
        assert proteins.spec("NTL9").n_residues == 39

    def test_a3d_three_helices(self):
        topo = proteins.spec("A3D").topology()
        helices = [s for s in topo.segments() if s[0] == "H"]
        assert len(helices) == 3

    def test_ntl9_mixed_alpha_beta(self):
        topo = proteins.spec("NTL9").topology()
        codes = {s[0] for s in topo.segments()}
        assert "H" in codes and "E" in codes

    def test_unknown_protein(self):
        with pytest.raises(KeyError):
            proteins.spec("XYZ")

    def test_structures_compact(self):
        # Folded proteins should have Rg well below extended-chain length.
        from repro.md import Trajectory

        for name in proteins.names():
            topo, coords = proteins.build(name)
            rg = Trajectory(topo, coords).radius_of_gyration()[0]
            extended = topo.n_residues * 3.8
            assert rg < extended / 4
