"""Betweenness centrality — batched Brandes + sampling approximation.

The default engine batches *sources*: sigma/delta accumulation runs as
dense ``(sources, nodes)`` matrix ops per BFS level
(:func:`~repro.graphkit.kernels.batched_brandes_dependencies`), processing
sources in cache-sized blocks, one after another — one SpMM per level
for a whole block rather than one sweep per source. With
``weighted=True`` distances come from scipy's compiled multi-source
Dijkstra and dependencies accumulate in distance rank order
(:func:`~repro.graphkit.kernels.batched_weighted_dependencies`).

``directed=True`` switches to the directed batched kernel
(:func:`~repro.graphkit.kernels.batched_brandes_dependencies_directed`):
forward sweeps over out-arcs, backward sweeps over the transposed
pattern, each ordered pair counted once (no halving).

Two slower engines remain selectable for benchmarking and differential
testing: ``impl="persource"`` is the superseded level-vectorized
one-sweep-per-source loop (unweighted only), ``impl="reference"`` the
textbook scalar Brandes. With ``weighted=True`` a third engine,
``impl="sampled"``, runs the seeded source-sampling estimator over the
weighted kernel with a Hoeffding absolute-error bound
(:func:`sampled_betweenness_error_bound`): one weighted kernel call over
the seeded pivot list.
``docs/KERNELS.md`` documents the block math and the selection rules.

:class:`EstimateBetweenness` implements the classic *unweighted*
source-sampling estimator (Brandes & Pich): the batched kernel over
``nsamples`` random pivots, scaled by ``n / nsamples``.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..kernels import (
    batched_brandes_dependencies,
    batched_brandes_dependencies_directed,
    batched_weighted_dependencies,
    expand_arcs,
)
from . import reference
from .base import Centrality

__all__ = [
    "Betweenness",
    "EstimateBetweenness",
    "sampled_betweenness_error_bound",
]

def sampled_betweenness_error_bound(
    n: int, nsamples: int, *, confidence: float = 0.95
) -> float:
    """Hoeffding absolute-error bound of the sampled estimator.

    Each pivot contributes ``(n/2)·dep_s(v) ∈ [0, n(n-2)/2]`` to the
    (unnormalized) estimate, whose mean over ``nsamples`` i.i.d. pivots
    is unbiased for the exact score. Hoeffding's inequality with a union
    bound over the ``n`` nodes then gives, with probability at least
    ``confidence``, for every node simultaneously::

        |estimate(v) - exact(v)| <= (n(n-2)/2) · sqrt(ln(2n/δ) / (2k))

    with ``δ = 1 - confidence`` and ``k = nsamples``. The bound shrinks
    monotonically in ``k`` and is reported in unnormalized score units;
    sampling all ``n`` sources (without replacement) is exact, so the
    bound collapses to 0 there.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    if n < 3 or nsamples >= n:
        return 0.0
    span = n * (n - 2) / 2.0
    delta = 1.0 - confidence
    return float(span * np.sqrt(np.log(2.0 * n / delta) / (2.0 * nsamples)))


def _brandes_source(
    csr: CSRGraph, s: int, dependency: np.ndarray
) -> None:
    """Accumulate Brandes dependencies of source ``s`` into ``dependency``.

    The superseded per-source engine (``impl="persource"``): unweighted
    shortest paths, one level-vectorized forward/backward sweep per
    source via the shared :func:`~repro.graphkit.kernels.expand_arcs`
    gather. Kept as the benchmark baseline the batched kernel is measured
    against.
    """
    n = csr.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[s] = 0
    sigma[s] = 1.0
    levels: list[np.ndarray] = [np.asarray([s], dtype=np.int64)]

    # Forward phase: level-synchronous BFS counting shortest paths.
    frontier = levels[0]
    depth = 0
    while len(frontier):
        depth += 1
        tails, heads = expand_arcs(csr, frontier)
        if len(heads) == 0:
            break
        undiscovered = dist[heads] == -1
        new_nodes = np.unique(heads[undiscovered])
        if len(new_nodes):
            dist[new_nodes] = depth
        # Arcs that lie on shortest paths into the next level.
        on_sp = dist[heads] == depth
        if on_sp.any():
            sigma += np.bincount(
                heads[on_sp], weights=sigma[tails[on_sp]], minlength=n
            )
        if len(new_nodes) == 0:
            break
        frontier = new_nodes
        levels.append(new_nodes)

    # Backward phase: accumulate dependencies level by level.
    delta = np.zeros(n, dtype=np.float64)
    for level_nodes in reversed(levels[1:]):
        # For each node w at this level, push delta to predecessors v with
        # dist[v] = dist[w] - 1 along arcs (w -> v) in the (symmetric) CSR.
        ws, nbrs = expand_arcs(csr, level_nodes)
        if len(nbrs) == 0:
            continue
        preds = dist[nbrs] == dist[ws] - 1
        if not preds.any():
            continue
        v = nbrs[preds]
        w = ws[preds]
        contrib = (sigma[v] / sigma[w]) * (1.0 + delta[w])
        delta += np.bincount(v, weights=contrib, minlength=n)
    delta[s] = 0.0
    dependency += delta


class Betweenness(Centrality):
    """Exact betweenness centrality (Brandes 2001).

    Parameters
    ----------
    g:
        The graph (undirected by default; each pair counted once).
    normalized:
        Scale scores by ``2 / ((n-1)(n-2))`` (undirected) or
        ``1 / ((n-1)(n-2))`` (directed).
    weighted:
        Use edge weights as distances (strictly positive weights
        required). The vectorized engine then runs compiled Dijkstra +
        rank-ordered accumulation; ``impl="persource"`` is unavailable.
    directed:
        Directed shortest-path semantics via the directed batched kernel
        (unweighted only; each *ordered* pair counted once). Accepts a
        directed CSR, or a symmetric one — where every unordered pair is
        seen in both directions, so scores are exactly twice the
        undirected ones.
    impl:
        ``"vectorized"`` (batched Brandes, default), ``"persource"``
        (superseded per-source level sweep, unweighted only),
        ``"sampled"`` (seeded pivot-sampling estimator, weighted only —
        see :func:`sampled_betweenness_error_bound`) or ``"reference"``
        (textbook scalar Brandes).
    nsamples:
        Pivot count for ``impl="sampled"`` (default 64).
    seed:
        Pivot-sampling seed for ``impl="sampled"`` (deterministic).
    packed:
        Frontier representation of the unweighted kernels: ``None``
        (default) auto-selects bit-packed frontiers above
        :data:`~repro.graphkit.kernels.BITPACK_THRESHOLD` nodes,
        ``True``/``False`` force the choice.
    """

    name = "betweenness"
    extra_impls = ("persource", "sampled")

    def __init__(
        self,
        g,
        *,
        normalized: bool = False,
        weighted: bool = False,
        directed: bool = False,
        impl: str = "vectorized",
        nsamples: int = 64,
        seed: int | None = 42,
        packed: bool | None = None,
    ):
        super().__init__(g, normalized=normalized, impl=impl)
        self._weighted = bool(weighted)
        self._directed = bool(directed)
        self._nsamples = int(nsamples)
        self._seed = seed
        self._packed = packed
        if self._weighted and impl == "persource":
            raise ValueError(
                "impl='persource' is the superseded unweighted sweep; "
                "weighted betweenness has only 'vectorized', 'sampled' "
                "and 'reference'"
            )
        if impl == "sampled" and not self._weighted:
            raise ValueError(
                "impl='sampled' is the weighted pivot estimator; for "
                "unweighted sampling use EstimateBetweenness"
            )
        if impl == "sampled" and self._nsamples < 1:
            raise ValueError("nsamples must be >= 1")
        if self._directed and self._weighted:
            raise NotImplementedError(
                "directed betweenness is unweighted-only"
            )
        if self._directed and impl in ("persource", "sampled"):
            raise ValueError(
                f"impl={impl!r} is undirected-only; directed betweenness "
                "has 'vectorized' and 'reference'"
            )

    def _check_semantics(self, csr: CSRGraph) -> None:
        if csr.directed and not self._directed:
            raise NotImplementedError(
                "this CSR is directed; pass Betweenness(directed=True) "
                "for directed shortest-path semantics"
            )

    def error_bound(self, confidence: float = 0.95) -> float:
        """Absolute-error bound of ``impl="sampled"`` at this sample count.

        Hoeffding bound per :func:`sampled_betweenness_error_bound`,
        scaled to the same units as :meth:`scores` (i.e. divided by the
        normalization constant when ``normalized=True``).
        """
        if self._impl != "sampled":
            raise RuntimeError("error_bound() applies to impl='sampled'")
        n = self._csr().n
        bound = sampled_betweenness_error_bound(
            n, min(self._nsamples, max(n, 1)), confidence=confidence
        )
        if self._normalized and n >= 3:
            bound *= 2.0 / ((n - 1) * (n - 2))
        return bound

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        self._check_semantics(csr)
        if self._directed:
            return reference.directed_betweenness_scores(csr)
        if self._weighted:
            return reference.weighted_betweenness_scores(csr)
        return reference.betweenness_scores(csr)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        self._check_semantics(csr)
        sources = np.arange(csr.n)
        # One kernel call over every source: the kernel walks its source
        # blocks in order, so the float sums are the same on every run.
        if self._directed:
            return batched_brandes_dependencies_directed(csr, sources)
        if self._weighted:
            dependency = batched_weighted_dependencies(csr, sources)
        else:
            dependency = batched_brandes_dependencies(
                csr, sources, packed=self._packed
            )
        return dependency / 2.0  # each unordered pair contributed twice

    def _compute_sampled(self, csr: CSRGraph) -> np.ndarray:
        self._check_semantics(csr)
        n = csr.n
        if n == 0:
            return np.zeros(0)
        rng = np.random.default_rng(self._seed)
        k = min(self._nsamples, n)
        pivots = rng.choice(n, size=k, replace=False).astype(np.int64)
        dependency = batched_weighted_dependencies(csr, pivots)
        dependency *= n / k
        dependency /= 2.0
        return dependency

    def _compute_persource(self, csr: CSRGraph) -> np.ndarray:
        self._check_semantics(csr)
        dependency = np.zeros(csr.n, dtype=np.float64)
        for s in range(csr.n):
            _brandes_source(csr, s, dependency)
        return dependency / 2.0

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n < 3:
            return scores
        pair_count = 1.0 if self._directed else 2.0
        scale = pair_count / ((n - 1) * (n - 2))
        return scores * scale


class EstimateBetweenness(Centrality):
    """Sampled betweenness (Brandes & Pich pivots).

    Runs the batched Brandes kernel from ``nsamples`` uniformly sampled
    sources (one multi-source block sweep) and scales by
    ``n / nsamples`` — an unbiased estimator of exact scores.

    Parameters
    ----------
    g:
        The graph.
    nsamples:
        Number of source pivots.
    normalized:
        Scale like the exact variant.
    seed:
        Sampling seed (deterministic pivots).
    packed:
        Frontier representation of the batched kernel (``None`` =
        auto-select above the bit-packing threshold).
    """

    name = "betweenness-estimate"

    def __init__(
        self,
        g,
        nsamples: int = 64,
        *,
        normalized: bool = False,
        seed: int | None = 42,
        impl: str = "vectorized",
        packed: bool | None = None,
    ):
        if nsamples < 1:
            raise ValueError("nsamples must be >= 1")
        super().__init__(g, normalized=normalized, impl=impl)
        self._nsamples = nsamples
        self._seed = seed
        self._packed = packed

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        if csr.directed:
            raise NotImplementedError(
                "EstimateBetweenness is implemented for undirected graphs"
            )
        n = csr.n
        if n == 0:
            return np.zeros(0)
        rng = np.random.default_rng(self._seed)
        k = min(self._nsamples, n)
        pivots = rng.choice(n, size=k, replace=False)
        scores = batched_brandes_dependencies(csr, pivots, packed=self._packed)
        scores *= n / k
        scores /= 2.0
        return scores

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n < 3:
            return scores
        return scores * (2.0 / ((n - 1) * (n - 2)))
