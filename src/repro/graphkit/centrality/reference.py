"""Naive per-node reference implementations of the centralities.

These are the textbook scalar algorithms — Python loops over adjacency
views, no batched kernels — kept as the ``impl="reference"`` path of every
:class:`~repro.graphkit.centrality.base.Centrality`. They exist for
*differential testing*: the vectorized kernels must reproduce these
results bit-for-bit (up to float tolerance) on every fixture, so any
regression in the fast path is caught by comparing against code simple
enough to audit by eye.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..csr import CSRGraph
from ..distance import dijkstra
from ..kernels import SP_TOL

__all__ = [
    "degree_scores",
    "closeness_scores",
    "harmonic_scores",
    "betweenness_scores",
    "directed_betweenness_scores",
    "weighted_closeness_scores",
    "weighted_harmonic_scores",
    "weighted_betweenness_scores",
    "pagerank_scores",
    "katz_series_scores",
]


def _bfs(csr: CSRGraph, s: int) -> np.ndarray:
    """Textbook queue BFS returning hop distances (-1 unreachable)."""
    dist = np.full(csr.n, -1, dtype=np.int64)
    dist[s] = 0
    queue: deque[int] = deque([s])
    while queue:
        u = queue.popleft()
        for v in csr.neighbors(u):
            v = int(v)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def degree_scores(csr: CSRGraph, *, weighted: bool = False) -> np.ndarray:
    """Per-node (weighted) degree by explicit iteration."""
    out = np.zeros(csr.n, dtype=np.float64)
    for u in range(csr.n):
        if weighted:
            out[u] = float(csr.neighbor_weights(u).sum())
        else:
            out[u] = float(len(csr.neighbors(u)))
    return out


def closeness_scores(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Generalized closeness: ``(raw, reach)`` with one queue BFS per node."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    reach = np.zeros(n, dtype=np.int64)
    for s in range(n):
        d = _bfs(csr, s)
        reached = d > 0
        total = float(d[reached].sum())
        r = int(reached.sum()) + 1
        reach[s] = r
        raw[s] = (r - 1) / total if total > 0 else 0.0
    return raw, reach


def harmonic_scores(csr: CSRGraph) -> np.ndarray:
    """Harmonic centrality with one queue BFS per node."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    for s in range(n):
        d = _bfs(csr, s)
        for x in d:
            if x > 0:
                raw[s] += 1.0 / float(x)
    return raw


def betweenness_scores(csr: CSRGraph) -> np.ndarray:
    """Textbook Brandes (2001) with explicit stacks and predecessor lists.

    Returns the undirected convention (each unordered pair counted once).
    """
    n = csr.n
    dependency = np.zeros(n, dtype=np.float64)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n, dtype=np.float64)
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            stack.append(u)
            for v in csr.neighbors(u):
                v = int(v)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n, dtype=np.float64)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                dependency[w] += delta[w]
    return dependency / 2.0


def directed_betweenness_scores(csr: CSRGraph) -> np.ndarray:
    """Textbook *directed* Brandes: BFS over out-arcs, no halving.

    Each ordered pair ``(s, t)`` is counted exactly once, so on a
    symmetric CSR the result is twice :func:`betweenness_scores`.
    """
    n = csr.n
    dependency = np.zeros(n, dtype=np.float64)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n, dtype=np.float64)
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            stack.append(u)
            for v in csr.neighbors(u):  # CSR rows = out-adjacency
                v = int(v)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n, dtype=np.float64)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                dependency[w] += delta[w]
    return dependency


def weighted_closeness_scores(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Generalized *weighted* closeness: ``(raw, reach)``, one heap
    Dijkstra per node (the scalar twin of ``dijkstra_distances``)."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    reach = np.zeros(n, dtype=np.int64)
    for s in range(n):
        d = dijkstra(csr, s)
        reached = np.isfinite(d) & (d > 0)
        total = float(d[reached].sum())
        r = int(reached.sum()) + 1
        reach[s] = r
        raw[s] = (r - 1) / total if total > 0 else 0.0
    return raw, reach


def weighted_harmonic_scores(csr: CSRGraph) -> np.ndarray:
    """Weighted harmonic centrality with one heap Dijkstra per node."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    for s in range(n):
        d = dijkstra(csr, s)
        for x in d:
            if np.isfinite(x) and x > 0:
                raw[s] += 1.0 / float(x)
    return raw


def weighted_betweenness_scores(csr: CSRGraph) -> np.ndarray:
    """Textbook weighted Brandes: Dijkstra settle order + predecessor
    lists, tight arcs detected with the shared ``SP_TOL`` tolerance
    (undirected convention: each unordered pair counted once)."""
    n = csr.n
    dependency = np.zeros(n, dtype=np.float64)
    for s in range(n):
        dist = np.full(n, np.inf)
        sigma = np.zeros(n, dtype=np.float64)
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        done = np.zeros(n, dtype=bool)
        settle_order: list[int] = []
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            settle_order.append(u)
            for v, w in zip(csr.neighbors(u), csr.neighbor_weights(u)):
                v = int(v)
                nd = d + w
                if not np.isfinite(dist[v]):
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                    continue
                tol = SP_TOL * max(1.0, dist[v])
                if nd < dist[v] - tol:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif abs(nd - dist[v]) <= tol and not done[v]:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n, dtype=np.float64)
        for w_node in reversed(settle_order):
            for v in preds[w_node]:
                delta[v] += (sigma[v] / sigma[w_node]) * (1.0 + delta[w_node])
            if w_node != s:
                dependency[w_node] += delta[w_node]
    return dependency / 2.0


def pagerank_scores(
    csr: CSRGraph, damp: float, *, tol: float = 1e-10, max_iterations: int = 500
) -> tuple[np.ndarray, int]:
    """Scalar power iteration (pull along in-arcs); returns (scores, iters)."""
    n = csr.n
    if n == 0:
        return np.zeros(0), 0
    out_strength = np.zeros(n, dtype=np.float64)
    for u in range(n):
        out_strength[u] = float(csr.neighbor_weights(u).sum())
    x = np.full(n, 1.0 / n)
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        y = np.zeros(n, dtype=np.float64)
        dangling_mass = 0.0
        for u in range(n):
            if out_strength[u] == 0.0:
                dangling_mass += x[u]
                continue
            share = x[u] / out_strength[u]
            for v, w in zip(csr.neighbors(u), csr.neighbor_weights(u)):
                y[int(v)] += w * share
        y = damp * y + (damp * dangling_mass + (1.0 - damp)) / n
        if float(np.abs(y - x).sum()) < tol:
            x = y
            break
        x = y
    return x, iterations


def katz_series_scores(
    csr: CSRGraph,
    alpha: float,
    beta: float,
    *,
    max_terms: int = 1000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Truncated Katz power series with a scalar in-arc accumulation."""
    n = csr.n
    x = np.zeros(n, dtype=np.float64)
    term = np.full(n, beta, dtype=np.float64)
    for _ in range(max_terms):
        nxt = np.zeros(n, dtype=np.float64)
        for u in range(n):
            for v, w in zip(csr.neighbors(u), csr.neighbor_weights(u)):
                nxt[int(v)] += w * term[u]
        term = alpha * nxt
        x += term
        if float(np.abs(term).sum()) < tol:
            break
    return x
