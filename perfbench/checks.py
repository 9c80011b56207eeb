"""Output checks. Each returns a list of failure messages (empty = correct).

They run outside the timed region. Every reference value is rebuilt from
scratch (a fresh :class:`RINBuilder`, a fresh synchronous pipeline, the
serial scan, the textbook centrality twins), so a stale cache, a lost edge
diff or a figure left behind by a tick shows up as a failure.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import UpdatePipeline
from repro.graphkit import Graph
from repro.graphkit.centrality import Betweenness, Closeness
from repro.rin import DynamicRIN
from repro.rin.construction import RINBuilder
from repro.rin.scanning import trajectory_cutoff_scan
from repro.vizbridge.palettes import labels_to_colors, scores_to_colors

__all__ = [
    "check_figure",
    "check_tick",
    "check_burst_session",
    "check_feature_row",
    "REFERENCE_TWINS",
    "FEATURE_CUTOFF",
]

#: Cut-off of the feature-scan measure vectors (Å).
FEATURE_CUTOFF = 4.5


def fresh_edges(rin: DynamicRIN, frame: int, cutoff: float) -> np.ndarray:
    """Contact pairs of ``(frame, cutoff)`` from a builder with empty caches."""
    builder = RINBuilder(
        rin.trajectory,
        criterion=rin.builder.criterion,
        min_sequence_separation=rin.builder.min_sequence_separation,
    )
    return builder.edges(frame, cutoff)


def _segments(x, y, z) -> np.ndarray:
    """Published line trace → ``(m, 6)`` endpoint rows, sorted."""
    pts = np.asarray(
        [(a, b, c) for a, b, c in zip(x, y, z) if a is not None], dtype=float
    ).reshape(-1, 6)
    return pts[np.lexsort(pts.T[::-1])] if len(pts) else pts


def check_figure(
    fig,
    edges: np.ndarray,
    scores: np.ndarray,
    kind: str,
    label: str,
    node_coords: np.ndarray | None = None,
) -> list[str]:
    """One published plot against an edge list and its node scores.

    The node trace must sit at ``node_coords`` (when given), carry the
    colors of ``scores``, and the edge trace must draw exactly one segment
    per edge between the published node positions.
    """
    failures = []
    nodes, lines = fig.trace(0), fig.trace(1)
    coords = np.column_stack([nodes.x, nodes.y, nodes.z]).astype(float)
    if node_coords is not None and not np.array_equal(coords, node_coords):
        failures.append(f"{label}: node positions differ from the expected frame")
    if kind == "community":
        colors = labels_to_colors(scores)
    else:
        colors = scores_to_colors(scores)
    if list(nodes.marker.color) != list(colors):
        failures.append(f"{label}: node colors do not match the scores")
    published = _segments(lines.x, lines.y, lines.z)
    expected = np.hstack([coords[edges[:, 0]], coords[edges[:, 1]]]).reshape(-1, 6)
    expected = expected[np.lexsort(expected.T[::-1])] if len(expected) else expected
    if published.shape != expected.shape or not np.array_equal(published, expected):
        failures.append(
            f"{label}: edge trace has {len(published)} segments, "
            f"expected the {len(edges)} fresh edges"
        )
    return failures


def check_tick(pipe, frame: int, cutoff: float, measure: str) -> list[str]:
    """A synchronous pipeline after a tick that commanded ``(frame, cutoff, measure)``.

    The RIN must be at that state, hold exactly the fresh edge list, the
    published edge traces must draw it, and the scores must equal the
    measure recomputed on ``rin.csr``.
    """
    failures = []
    rin = pipe.rin
    if rin.frame != frame or rin.cutoff != cutoff or pipe.measure.name != measure:
        failures.append(
            f"state is (frame {rin.frame}, cutoff {rin.cutoff}, {pipe.measure.name}), "
            f"commanded (frame {frame}, cutoff {cutoff}, {measure})"
        )
    edges = fresh_edges(rin, frame, cutoff)
    if rin.n_edges != len(edges):
        failures.append(f"rin.n_edges {rin.n_edges} != fresh edge count {len(edges)}")
    if rin.csr.edge_set() != {(int(u), int(v)) for u, v in edges}:
        failures.append("rin.csr edge set differs from the fresh edge list")
    scores = pipe.scores
    if not np.array_equal(scores, pipe.measure(rin.csr)):
        failures.append(f"scores differ from {pipe.measure.name} recomputed on rin.csr")
    kind = pipe.measure.kind
    failures += check_figure(
        pipe.protein_figure, edges, scores, kind, "protein plot",
        node_coords=rin.trajectory.ca_coordinates(frame),
    )
    failures += check_figure(pipe.maxent_figure, edges, scores, kind, "maxent plot")
    return failures


def check_burst_session(
    apipe, last_generation: int, frame: int, cutoff: float
) -> list[str]:
    """A flushed async session against a synchronous replay of its final state.

    The last submitted generation must be the published one. Scores, the
    protein plot and the maxent plot's edges and colors must equal a fresh
    :class:`UpdatePipeline` at the final frame, cut-off and measure. The
    maxent node positions are compared only through the edges drawn
    between them: the async layout warm-starts from its own history.
    """
    failures = []
    rin = apipe.rin
    if rin.frame != frame or rin.cutoff != cutoff:
        failures.append(
            f"state is (frame {rin.frame}, cutoff {rin.cutoff}), "
            f"commanded (frame {frame}, cutoff {cutoff})"
        )
    if apipe.published_generation != last_generation:
        failures.append(
            f"published generation {apipe.published_generation}, "
            f"last submitted {last_generation}"
        )
    replay = UpdatePipeline(
        DynamicRIN(rin.trajectory, frame=frame, cutoff=cutoff),
        measure=apipe.measure.name,
    )
    if not np.array_equal(apipe.scores, replay.scores):
        failures.append("scores differ from the synchronous replay")
    edges = fresh_edges(replay.rin, frame, cutoff)
    kind = replay.measure.kind
    failures += check_figure(
        apipe.protein_figure, edges, replay.scores, kind, "protein plot",
        node_coords=replay.rin.positions(),
    )
    failures += check_figure(
        apipe.maxent_figure, edges, replay.scores, kind, "maxent plot"
    )
    return failures


#: Measure → its textbook twin from ``graphkit/centrality/reference.py``.
#: PLM has no twin there; it is pinned to a rerun on the freshly built graph.
REFERENCE_TWINS = {
    "Closeness Centrality": lambda g: Closeness(g, normalized=True, impl="reference"),
    "Betweenness Centrality": lambda g: Betweenness(
        g, normalized=True, impl="reference"
    ),
    "Weighted Closeness Centrality": lambda g: Closeness(
        g, normalized=True, weighted=True, impl="reference"
    ),
}


def check_feature_row(
    traj,
    frame: int,
    cutoffs: np.ndarray,
    descriptors: dict[str, np.ndarray],
    vectors: dict[str, np.ndarray],
    measures: dict,
) -> list[str]:
    """One frame's feature row: scan descriptors and measure vectors.

    ``descriptors`` (the frame's row of each pooled scan array, by
    descriptor name) must equal the ``workers=0`` scan bit for bit; each
    measure vector must match its reference twin, computed on a graph
    rebuilt from a fresh builder.
    """
    failures = []
    serial = trajectory_cutoff_scan(traj, cutoffs, frames=[frame], workers=0)
    for name, got in descriptors.items():
        if not np.array_equal(got, getattr(serial, name)[0]):
            failures.append(
                f"frame {frame}: scan {name} differs from the workers=0 scan"
            )
    graph = Graph.from_edges(
        traj.topology.n_residues, RINBuilder(traj).edges(frame, FEATURE_CUTOFF)
    )
    for name, got in vectors.items():
        twin = REFERENCE_TWINS.get(name)
        if twin is not None:
            want = twin(graph).run().scores_array()
            ok = np.allclose(got, want, rtol=1e-9, atol=1e-12)
        else:
            want = measures[name](graph)
            ok = np.array_equal(got, want)
        if not ok:
            failures.append(f"frame {frame}: {name} differs from its reference")
    return failures

