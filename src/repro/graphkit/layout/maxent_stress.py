"""Maxent-Stress graph layout (Gansner-Hu-North 2012; Wegner et al. 2017).

This is the layout the paper's widget recomputes on every cut-off or frame
switch (Listing 1: ``nk.viz.MaxentStress(G, 3, 3)``). The model minimizes

.. math::

    H(x) = \\sum_{\\{i,j\\} \\in S} w_{ij}\\,(\\lVert x_i - x_j\\rVert - d_{ij})^2
           \\; - \\; \\alpha \\sum_{\\{i,j\\} \\notin S} \\ln \\lVert x_i - x_j \\rVert

where ``S`` contains node pairs with known target distances (graph
neighbourhoods up to ``k`` hops) and the entropy term keeps unknown pairs
apart. We use the local iteration of Gansner et al. with geometric
α-annealing. The entropy gradient has three engines:

- exact: each sweep runs in dense ``(n, n)`` form and sums the entropy
  term over *all* unknown pairs — a dozen whole-matrix calls per sweep,
  the cheapest engine at protein scale, where the arc-list sweeps are
  bound by interpreter overhead rather than FLOPs;
- sampled: O(n·q) arc-list sweeps that estimate the entropy term from
  ``q`` random pairs per node;
- Barnes-Hut: arc-list sweeps with an octree
  (:mod:`~repro.graphkit.layout.bhtree`, O(n log n) per sweep over all
  unknown pairs — the analog of NetworKit's well-separated pair
  decomposition).

``impl="auto"`` picks exact while ``n * n`` fits the cache budget
:data:`~repro.graphkit.kernels.CACHE_BLOCK_ENTRIES`, sampled below
:data:`BARNES_HUT_THRESHOLD` nodes, and the tree from there up.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from ..kernels import CACHE_BLOCK_ENTRIES, batched_bfs_distances, source_blocks
from .bhtree import BarnesHutTree

__all__ = [
    "MaxentStress",
    "maxent_stress_layout",
    "maxent_stress_value",
    "BARNES_HUT_THRESHOLD",
]

_EPS = 1e-9
#: ``impl="auto"`` switches from the sampled estimator to Barnes-Hut at
#: this node count: below it the O(n·q) sampled sweep is cheaper than a
#: tree build + evaluation; above it the O(n²)-equivalent variance of
#: sampling (and the cost of raising q to compensate) loses to the
#: O(n log n) tree.
BARNES_HUT_THRESHOLD = 4096
#: ``"sampled"`` is the canonical name of the vectorized sampled-repulsion
#: engine; ``"vectorized"`` is its historical alias (same code path,
#: bit-identical). ``"barnes_hut"`` replaces sampling with theta-gated
#: tree-approximated repulsion over *all* unknown pairs; ``"exact"`` sums
#: that repulsion exactly in dense ``(n, n)`` sweeps. ``"auto"`` picks by
#: node count: exact while ``n * n <= CACHE_BLOCK_ENTRIES``, then sampled,
#: then Barnes-Hut from :data:`BARNES_HUT_THRESHOLD` up.
_IMPLEMENTATIONS = (
    "auto", "exact", "barnes_hut", "sampled", "vectorized", "reference",
)

# Per-sweep displacement cap for the Barnes-Hut engine, in units of the
# layout scale (mean target distance). Large enough that legitimate
# majorization moves are never touched; small enough to stop the
# singular-gradient teleports described at the use site.
_BH_STEP_SCALES = 100.0


def _resolve_impl(impl: str, n: int) -> str:
    if impl not in _IMPLEMENTATIONS:
        raise ValueError(f"impl must be one of {_IMPLEMENTATIONS}, got {impl!r}")
    if impl == "auto":
        if n * n <= CACHE_BLOCK_ENTRIES:
            return "exact"
        return "barnes_hut" if n >= BARNES_HUT_THRESHOLD else "sampled"
    if impl == "vectorized":
        return "sampled"
    return impl


def _khop_pairs_reference(
    csr: CSRGraph, k: int, max_pairs_per_node: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar truncated-BFS discovery of the 2..k-hop pairs (per node)."""
    n = csr.n
    extra_t: list[int] = []
    extra_h: list[int] = []
    extra_d: list[float] = []
    for u in range(n):
        # Truncated BFS: stop at depth k.
        seen = {u: 0}
        frontier = [u]
        depth = 0
        budget = max_pairs_per_node
        while frontier and depth < k and budget > 0:
            depth += 1
            nxt = []
            for x in frontier:
                for v in csr.neighbors(x):
                    v = int(v)
                    if v not in seen:
                        seen[v] = depth
                        nxt.append(v)
                        if depth >= 2 and budget > 0:
                            extra_t.append(u)
                            extra_h.append(v)
                            extra_d.append(float(depth))
                            budget -= 1
            frontier = nxt
    return (
        np.asarray(extra_t, dtype=np.int64),
        np.asarray(extra_h, dtype=np.int64),
        np.asarray(extra_d, dtype=np.float64),
    )


def _khop_pairs_vectorized(
    csr: CSRGraph, k: int, max_pairs_per_node: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched depth-capped BFS discovery of the 2..k-hop pairs.

    Multi-source BFS truncated at depth ``k``, processed in source blocks
    so peak memory stays O(block × n) rather than a dense (n, n) matrix;
    a node's pairs live entirely within its block, so the per-node budget
    (keep the lowest (depth, head) pairs, mirroring the reference
    heuristic's breadth-first preference) applies per block.
    """
    n = csr.n
    out_t: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    for lo, hi in source_blocks(csr):
        dist = batched_bfs_distances(csr, np.arange(lo, hi), max_depth=k)
        t, h = np.nonzero((dist >= 2) & (dist <= k))
        if len(t) == 0:
            continue
        d = dist[t, h].astype(np.float64)
        # Per-tail budget: keep the lowest (depth, head) pairs of each node.
        order = np.lexsort((h, d, t))
        t, h, d = t[order], h[order], d[order]
        starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
        run_lengths = np.diff(np.concatenate([starts, [len(t)]]))
        # Rank within each tail's run: position minus the run's start.
        rank = np.arange(len(t)) - np.repeat(starts, run_lengths)
        keep = rank < max_pairs_per_node
        out_t.append(t[keep].astype(np.int64) + lo)
        out_h.append(h[keep].astype(np.int64))
        out_d.append(d[keep])
    if not out_t:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return np.concatenate(out_t), np.concatenate(out_h), np.concatenate(out_d)


def _known_pairs(
    csr: CSRGraph, k: int, max_pairs_per_node: int, *, impl: str = "vectorized"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc list (tails, heads, target distance) for the ≤ k-hop pairs.

    k=1 returns the plain (symmetric) edge arcs with d = edge weight; for
    k>1 each node additionally pins up to ``max_pairs_per_node`` nodes at
    hop distance ≤ k (breadth-first truncated), with d = hop count.  The
    arc list contains both directions of every pair so per-node reductions
    are single bincount calls.

    The two engines agree exactly whenever the per-node budget does not
    bind. When it does bind, they intentionally truncate differently —
    reference keeps BFS discovery order, vectorized keeps the lowest
    (depth, head) pairs — so differential layout tests must use graphs
    whose 2..k-hop neighbourhoods stay within the budget.
    """
    n = csr.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    tails = [rows]
    heads = [csr.indices.astype(np.int64)]
    dists = [np.maximum(csr.weights, _EPS)]
    if k > 1:
        khop = (
            _khop_pairs_reference if impl == "reference" else _khop_pairs_vectorized
        )
        extra_t, extra_h, extra_d = khop(csr, k, max_pairs_per_node)
        if len(extra_t):
            tails.append(extra_t)
            heads.append(extra_h)
            dists.append(extra_d)
    return np.concatenate(tails), np.concatenate(heads), np.concatenate(dists)


def _dense_sweep(
    n: int,
    tails: np.ndarray,
    heads: np.ndarray,
    w: np.ndarray,
    d_target: np.ndarray,
    rho: np.ndarray,
    repulsion: bool,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """The ``"exact"`` engine: one local-iteration sweep in dense form.

    The arc list folds into ``(n, n)`` matrices once per solve: ``W``
    (arc weights), ``WD`` (weight × target distance) and ``U`` (the
    unknown-pair mask: one minus the arc count, zero diagonal). With
    ``C = WD / r + a·U / r²`` the arc-list update
    ``ρ_i x_i ← Σ_j W_ij x_j + Σ_j C_ij (x_i - x_j)`` becomes
    ``(rowsum(C)·x - (C - W) @ x) / ρ`` — the same update the arc-list
    engines make, with the entropy term summed over every unknown pair
    instead of sampled. Squared distances come from the Gram identity,
    clamped at ``_EPS²`` like the arc-list distances are at ``_EPS``.
    Nothing is drawn from an rng.
    """
    flat = tails * n + heads
    W = np.bincount(flat, weights=w, minlength=n * n).reshape(n, n)
    # Self-loop arcs pull nothing (x_i - x_i = 0); zeroing their diagonal
    # keeps a clamped 1/r from entering the row sums.
    WD = np.bincount(flat, weights=w * d_target, minlength=n * n).reshape(n, n)
    np.fill_diagonal(WD, 0.0)
    if repulsion:
        U = 1.0 - np.bincount(flat, minlength=n * n).reshape(n, n)
        np.fill_diagonal(U, 0.0)
    inv_rho = (1.0 / rho)[:, None]

    def sweep(x: np.ndarray, a: float) -> np.ndarray:
        sq = np.einsum("ij,ij->i", x, x)
        r2 = x @ x.T
        r2 *= -2.0
        r2 += sq[:, None]
        r2 += sq
        np.maximum(r2, _EPS * _EPS, out=r2)
        C = WD / np.sqrt(r2)
        if repulsion and a > 0.0:
            C += np.divide(U, r2, out=r2) * a
        rs = C.sum(axis=1)
        C -= W
        return (rs[:, None] * x - C @ x) * inv_rho

    return sweep


def maxent_stress_layout(
    g: Graph | CSRGraph,
    dim: int = 3,
    k: int = 1,
    *,
    alpha: float = 1.0,
    alpha_min: float = 0.008,
    alpha_decay: float = 0.5,
    iterations_per_alpha: int = 12,
    repulsion_samples: int = 8,
    repulsion_theta: float = 0.8,
    tol: float = 1e-4,
    seed: int | None = 42,
    initial: np.ndarray | None = None,
    impl: str = "auto",
    cancel: Callable[[], bool] | None = None,
) -> np.ndarray:
    """Compute an ``(n, dim)`` Maxent-Stress embedding.

    Parameters
    ----------
    g:
        Undirected graph.
    dim:
        Embedding dimension (3 for the RIN widget).
    k:
        Neighbourhood radius for known-distance pairs.
    alpha / alpha_min / alpha_decay:
        Entropy weight annealing schedule (matches NetworKit defaults in
        spirit: α halves until 0.008).
    iterations_per_alpha:
        Local-iteration sweeps per annealing stage.
    repulsion_samples:
        Sampled far-pairs per node per sweep (q), used by the sampled
        engine only. 0 disables the entropy term (classic sparse stress)
        in *every* engine, exact and Barnes-Hut included.
    repulsion_theta:
        Barnes-Hut opening angle (``impl="barnes_hut"`` only): smaller is
        more accurate and more expensive; the approximation error is
        bounded by :func:`~repro.graphkit.layout.bhtree.force_error_bound`.
    tol:
        Early stop when mean displacement per sweep falls below
        ``tol × layout scale``.
    initial:
        Warm-start coordinates, e.g. the previous frame's layout — this is
        what makes widget frame switches cheaper than cold layouts.
    impl:
        ``"auto"`` (default) picks ``"exact"`` while ``n * n`` fits
        :data:`~repro.graphkit.kernels.CACHE_BLOCK_ENTRIES` (n ≤ 181),
        ``"sampled"`` below :data:`BARNES_HUT_THRESHOLD` nodes and
        ``"barnes_hut"`` from there up. ``"exact"`` runs each sweep on
        dense ``(n, n)`` matrices and sums the entropy gradient over
        every unknown pair — no sampling, no rng draw per sweep, the
        same local-iteration update as the arc-list engines.
        ``"sampled"`` (alias ``"vectorized"``, the historical name) uses
        batched BFS for pair discovery, bincount scatter-adds, and the
        sampled repulsion estimator; ``"barnes_hut"`` shares those sweep
        kernels but evaluates the entropy gradient over *all* unknown
        pairs through a theta-gated octree — deterministic (no sampling
        noise) and bounded-error rather than bit-identical to the exact
        sum. ``"reference"`` uses per-node BFS and ``np.add.at`` — same
        model, naive kernels.
    cancel:
        Optional zero-argument callable polled once per local-iteration
        sweep (solver-iteration granularity). When it returns True the
        solve stops early and the *partial* coordinates are returned —
        the async update pipeline uses this to abandon a stale slider
        event while keeping the partial embedding as the next warm start.
    """
    csr = g.csr() if isinstance(g, Graph) else g
    n = csr.n
    impl = _resolve_impl(impl, n)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n == 0:
        return np.zeros((0, dim))
    rng = np.random.default_rng(seed)
    if initial is not None:
        x = np.array(initial, dtype=np.float64, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"initial layout must be ({n}, {dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("initial layout must be finite (NaN/inf found)")
    else:
        x = rng.standard_normal((n, dim))
    if csr.nnz == 0:
        return x  # nothing to optimize against

    tails, heads, d_target = _known_pairs(
        csr, max(1, k), max_pairs_per_node=24, impl=impl
    )
    w = 1.0 / np.maximum(d_target, _EPS) ** 2
    rho = np.bincount(tails, weights=w, minlength=n)
    rho = np.maximum(rho, _EPS)
    degrees = csr.degrees()

    if impl != "reference":
        # Segment scatter: one bincount per coordinate axis (compiled
        # accumulation) instead of the element-at-a-time np.add.at ufunc.
        def scatter_add(agg: np.ndarray, contrib: np.ndarray) -> None:
            for axis in range(agg.shape[1]):
                agg[:, axis] += np.bincount(
                    tails, weights=contrib[:, axis], minlength=n
                )
    else:
        def scatter_add(agg: np.ndarray, contrib: np.ndarray) -> None:
            np.add.at(agg, tails, contrib)

    if impl == "exact":
        sweep = _dense_sweep(
            n, tails, heads, w, d_target, rho, repulsion_samples > 0 and n > 1
        )

    a = float(alpha)
    scale = float(np.mean(d_target))
    while True:
        for _ in range(iterations_per_alpha):
            if cancel is not None and cancel():
                return x
            if impl == "exact":
                x_new = sweep(x, a)
            else:
                diff = x[tails] - x[heads]  # (nnz, dim)
                dist = np.linalg.norm(diff, axis=1)
                np.maximum(dist, _EPS, out=dist)
                # Attraction toward the target sphere around each neighbour.
                coeff = (w * d_target / dist)[:, None]
                contrib = w[:, None] * x[heads] + coeff * diff
                agg = np.zeros_like(x)
                scatter_add(agg, contrib)

                if repulsion_samples > 0 and a > 0.0 and n > 1:
                    if impl == "barnes_hut":
                        # All-pairs repulsion through the theta-gated tree,
                        # minus the exact contribution of the known (stress)
                        # arcs so the entropy gradient covers precisely the
                        # unknown pairs. Deterministic: no rng draw here, so
                        # warm-started re-solves are reproducible.
                        rep = BarnesHutTree(x).repulsion(repulsion_theta)
                        known = diff / np.maximum(dist * dist, _EPS)[:, None]
                        krep = np.zeros_like(x)
                        scatter_add(krep, known)
                        rep -= krep
                    else:
                        q = min(repulsion_samples, n - 1)
                        far = rng.integers(0, n, size=(n, q))
                        rdiff = x[:, None, :] - x[far]  # (n, q, dim)
                        rdist2 = np.einsum("ijk,ijk->ij", rdiff, rdiff)
                        np.maximum(rdist2, _EPS, out=rdist2)
                        rep = (rdiff / rdist2[:, :, None]).sum(axis=1)
                        # Scale sample mean to the (n - 1 - deg) unknown pairs.
                        unknown = np.maximum(n - 1 - degrees, 0)[:, None]
                        rep *= unknown / q
                    x_new = agg / rho[:, None] + (a / rho)[:, None] * rep
                    if impl == "barnes_hut":
                        # Trust region. The entropy gradient is unbounded for
                        # pair-free nodes (rho floored to _EPS turns the
                        # repulsion term into a ~1/_EPS kick) and near-singular
                        # at coincident points, both of which stress-majorized
                        # warm starts produce in bulk: one uncapped sweep can
                        # teleport such nodes nine orders of magnitude out,
                        # wrecking the embedding and collapsing the octree to a
                        # handful of cells (its O(n log n) evaluation degrades
                        # to O(n²)). The cap is deterministic, so warm-started
                        # re-solves stay bit-identical.
                        step = x_new - x
                        norm = np.linalg.norm(step, axis=1)
                        limit = _BH_STEP_SCALES * max(scale, _EPS)
                        hot = norm > limit
                        if hot.any():
                            shrink = np.where(hot, limit / np.maximum(norm, _EPS), 1.0)
                            x_new = x + step * shrink[:, None]
                else:
                    x_new = agg / rho[:, None]

            move = float(np.linalg.norm(x_new - x, axis=1).mean())
            x = x_new
            if move < tol * max(scale, _EPS):
                break
        if a <= alpha_min or repulsion_samples == 0:
            break
        a = max(a * alpha_decay, alpha_min)
    return x


def maxent_stress_value(
    g: Graph | CSRGraph, coords: np.ndarray, k: int = 1
) -> float:
    """The stress term of the maxent objective at ``coords``.

    ``Σ w_ij (‖x_i - x_j‖ - d_ij)²`` over the known-pair arc list (both
    directions of every pair, so each pair counts twice — only ratios
    between layouts of the same graph are meaningful). This is the
    quality metric the layout benchmarks compare engines at: two layouts
    are "matched" when their stress values agree within tolerance.
    """
    csr = g.csr() if isinstance(g, Graph) else g
    x = np.asarray(coords, dtype=np.float64)
    if x.shape[0] != csr.n:
        raise ValueError(f"coords must have {csr.n} rows, got {x.shape[0]}")
    if csr.nnz == 0:
        return 0.0
    tails, heads, d_target = _known_pairs(csr, max(1, k), max_pairs_per_node=24)
    w = 1.0 / np.maximum(d_target, _EPS) ** 2
    dist = np.linalg.norm(x[tails] - x[heads], axis=1)
    return float((w * (dist - d_target) ** 2).sum())


class MaxentStress:
    """NetworKit-style runner: ``MaxentStress(G, 3, 3).run().getCoordinates()``.

    Parameters mirror :func:`maxent_stress_layout`; ``dim`` and ``k`` are
    positional to match the paper's Listing 1 call signature.
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        dim: int = 3,
        k: int = 1,
        *,
        seed: int | None = 42,
        initial: np.ndarray | None = None,
        impl: str = "auto",
        **kwargs,
    ):
        self._g = g
        self._dim = dim
        self._k = k
        self._seed = seed
        self._initial = initial
        self._kwargs = dict(kwargs, impl=impl)
        self._coords: np.ndarray | None = None

    def run(self) -> "MaxentStress":
        """Compute the embedding."""
        self._coords = maxent_stress_layout(
            self._g,
            self._dim,
            self._k,
            seed=self._seed,
            initial=self._initial,
            **self._kwargs,
        )
        return self

    def getCoordinates(self) -> np.ndarray:  # noqa: N802 - NetworKit naming
        """The ``(n, dim)`` coordinates; requires :meth:`run`."""
        if self._coords is None:
            raise RuntimeError("call run() first")
        return self._coords

    def get_coordinates(self) -> np.ndarray:
        """PEP8 alias of :meth:`getCoordinates`."""
        return self.getCoordinates()
