"""Property-based tests (hypothesis) for the MD substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import (
    Topology,
    contact_pairs,
    generate_trajectory,
    min_distance_matrix,
    residue_distance_matrix,
)
from repro.md.builder import SegmentPlacement, build_ca_trace, build_structure
from repro.md.geometry import helix_ca_trace, orthonormal_frame

AA = "ACDEFGHIKLMNPQRSTVWY"


@st.composite
def sequences(draw, min_size=2, max_size=16):
    return "".join(
        draw(
            st.lists(
                st.sampled_from(AA), min_size=min_size, max_size=max_size
            )
        )
    )


@st.composite
def structured_topologies(draw):
    """Topology with one H/E segment embedded in coils."""
    pre = draw(st.integers(0, 3))
    seg = draw(st.integers(3, 10))
    post = draw(st.integers(0, 3))
    kind = draw(st.sampled_from("HE"))
    n = pre + seg + post
    seq = "".join(draw(st.lists(st.sampled_from(AA), min_size=n, max_size=n)))
    ss = "C" * pre + kind * seg + "C" * post
    return Topology.from_sequence(seq, secondary=ss)


class TestTopologyProperties:
    @given(sequences())
    @settings(max_examples=30, deadline=None)
    def test_atom_count_consistent(self, seq):
        topo = Topology.from_sequence(seq)
        assert topo.n_atoms == sum(
            4 + len(__import__("repro.md.topology", fromlist=["AMINO_ACIDS"])
                    .AMINO_ACIDS[c].sidechain_atoms)
            for c in seq
        )

    @given(sequences())
    @settings(max_examples=30, deadline=None)
    def test_slices_partition_atoms(self, seq):
        topo = Topology.from_sequence(seq)
        covered = set()
        for start, stop in topo.residue_atom_slices():
            span = set(range(start, stop))
            assert not span & covered
            covered |= span
        assert covered == set(range(topo.n_atoms))

    @given(structured_topologies())
    @settings(max_examples=30, deadline=None)
    def test_segments_reconstruct_secondary(self, topo):
        rebuilt = "".join(
            code * (stop - start) for code, start, stop in topo.segments()
        )
        assert rebuilt == topo.secondary


class TestGeometryProperties:
    @given(
        st.integers(2, 30),
        st.tuples(
            st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_helix_spacing_invariant_to_axis(self, n, axis):
        pts = helix_ca_trace(n, np.zeros(3), np.asarray(axis))
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(gaps, gaps[0], atol=1e-9)

    @given(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2)))
    @settings(max_examples=30, deadline=None)
    def test_frames_always_orthonormal(self, axis):
        t, u, v = orthonormal_frame(np.asarray(axis))
        gram = np.array([t, u, v]) @ np.array([t, u, v]).T
        assert np.allclose(gram, np.eye(3), atol=1e-9)


class TestStructureProperties:
    @given(structured_topologies(), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_structure_finite_and_complete(self, topo, seed):
        ca = build_ca_trace(
            topo, [SegmentPlacement(lateral=(0.0, 0.0))], seed=seed
        )
        coords = build_structure(topo, ca, seed=seed)
        assert coords.shape == (topo.n_atoms, 3)
        assert np.isfinite(coords).all()

    @given(structured_topologies(), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_distance_matrix_metric_properties(self, topo, seed):
        ca = build_ca_trace(
            topo, [SegmentPlacement(lateral=(0.0, 0.0))], seed=seed
        )
        coords = build_structure(topo, ca, seed=seed)
        dm = min_distance_matrix(topo, coords)
        assert np.allclose(dm, dm.T)
        assert (dm >= 0).all()
        assert np.allclose(np.diag(dm), 0.0)


class TestTrajectoryProperties:
    @given(st.integers(2, 12), st.floats(0.05, 1.0), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_trajectory_shape_and_rmsd(self, frames, sigma, seed):
        topo = Topology.from_sequence("MKVIFLK", secondary="CHHHHHC")
        ca = build_ca_trace(topo, [SegmentPlacement(lateral=(0.0, 0.0))])
        native = build_structure(topo, ca)
        traj = generate_trajectory(
            topo, native, frames, sigma=sigma, seed=seed, breathing=0.0
        )
        assert traj.n_frames == frames
        rmsd = traj.rmsd(0)
        assert rmsd[0] < 1e-9
        assert (rmsd >= 0).all()
        assert np.isfinite(traj.coordinates).all()

    @given(st.floats(1.5, 12.0), st.floats(1.5, 12.0))
    @settings(max_examples=20, deadline=None)
    def test_contact_monotonicity(self, c1, c2):
        from repro.md import proteins

        topo, native = proteins.build("2JOF")
        dm = residue_distance_matrix(topo, native)
        lo, hi = sorted((c1, c2))
        assert len(contact_pairs(dm, lo)) <= len(contact_pairs(dm, hi))
