"""Turn measured phases and traces into the benchmark's named metrics."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.rin.measures import measure_names

from .common import percentile
from .tracing import children_of, descendants, self_times, stage_table

__all__ = [
    "latency_p50", "end_to_end", "workload_view", "per_layer", "measure_slug",
    "ROOT_SPAN",
]

#: The span that brackets one unit of work of each workload.
ROOT_SPAN = {"scrub": "tick", "burst": "pipeline.apply_event", "feature_scan": "batch"}


def measure_slug(name: str) -> str:
    """'Weighted Closeness Centrality' → 'weighted_closeness'."""
    for suffix in (" Centrality", " Community Detection"):
        name = name.removesuffix(suffix)
    return name.lower().replace(" ", "_")


def latency_p50(phase) -> float:
    """Median latency of a phase.

    Where a workload runs several sessions, the median is taken per session
    and averaged: burst's A3D and NTL9 settles form two separate modes, and
    a median pooled over both falls in the gap between them, where a
    handful of samples moves it.
    """
    if phase.by_session:
        return float(np.mean([percentile(v, 50) for v in phase.by_session.values()]))
    return percentile(phase.samples_ms, 50)


def end_to_end(workload, phase, setup_s: float, rss_mb: float) -> dict[str, float]:
    """The gated metrics, named alike on every workload.

    ``latency_*`` is the workload's unit of work: a tick on scrub, a
    settle on burst, the batch-amortised time per frame on feature_scan.
    The tail is p95 on scrub and p90 elsewhere (each keeps at least ten
    samples beyond it in a full-length run).
    """
    return {
        "setup_s": setup_s,
        "latency_p50_ms": latency_p50(phase),
        "latency_tail_ms": percentile(phase.samples_ms, workload.tail_pct),
        "peak_rss_mb": rss_mb,
    }


def workload_view(
    workload, phase, e2e: dict[str, float]
) -> list[tuple[str, float, str]]:
    """The same run under each workload's own metric names, for the table."""
    n = len(phase.samples_ms)
    fail_frac = phase.failed / phase.attempted if phase.attempted else 0.0
    if workload.name == "scrub":
        rows = [
            ("tick_p50_ms", e2e["latency_p50_ms"], "ms"),
            ("tick_p95_ms", e2e["latency_tail_ms"], "ms"),
            (
                "client_modelled_p50_ms",
                phase.counters["client_modelled_p50_ms"],
                "ms(modelled)",
            ),
            ("ticks", n, "count"),
        ]
    elif workload.name == "burst":
        rows = [
            ("settle_p50_ms", e2e["latency_p50_ms"], "ms"),
            ("settle_p90_ms", e2e["latency_tail_ms"], "ms"),
            *((f"settle_p50_ms.{name}", percentile(v, 50), "ms")
              for name, v in phase.by_session.items()),
            ("settles", n, "count"),
            ("gen.late_max_ms", phase.counters["late_max_ms"], "ms"),
        ]
    else:
        rows = [
            ("frames_per_s", phase.counters["frames_per_s"], "frames/s"),
            ("frame_p50_ms", e2e["latency_p50_ms"], "ms"),
            ("frame_p90_ms", e2e["latency_tail_ms"], "ms"),
            ("batches", n, "count"),
        ]
    return rows + [
        ("fail_frac", fail_frac, "ratio"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("setup_s", e2e["setup_s"], "s"),
    ]


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _queue_waits(tracer, apply_spans) -> list[float]:
    """Submit → start of the first ``apply_event`` serving that generation."""
    starts = defaultdict(list)
    for span in apply_spans:
        if isinstance(span.trace_id, tuple):
            starts[span.trace_id[0]].append((span.start, span.attrs["generation"]))
    waits = []
    for label, generation, submitted in tracer.submits:
        served = [
            s for s, g in sorted(starts[label]) if g >= generation and s >= submitted
        ]
        if served:
            waits.append(served[0] - submitted)
    return waits


def per_layer(
    workload, untraced, traced, tracer
) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of the traced phase, and its self-time table."""
    spans = list(tracer.spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    children = children_of(spans)
    selfs = self_times(spans)
    roots = [s for s in by_name[ROOT_SPAN[workload.name]] if s.parent is None]

    # The builder reaches distance_matrix only when its per-frame cache
    # misses, so the cache is observed one level up, at RINBuilder.edges.
    lookups = by_name["rin.edges"]
    hits = sum(
        1 for s in lookups if not any(c.name == "md.distance" for c in children[id(s)])
    )
    jobs = [s for s in spans if s.attrs.get("job")]
    apply_spans = by_name["pipeline.apply_event"]
    published = [s for s in apply_spans if not s.attrs.get("raised")]
    counters = traced.counters
    m = {
        "md.distance_ms": _mean(s.ms for s in by_name["md.distance"]),
        "md.distance_calls": float(len(by_name["md.distance"])),
        "rin.cache_hit_frac": hits / len(lookups) if lookups else 0.0,
        "rin.diff_ms": _mean(selfs[id(s)] for s in by_name["rin.set_state"]),
        "rin.edges_changed": _mean(
            s.attrs["edges_changed"]
            for s in by_name["rin.set_state"]
            if "edges_changed" in s.attrs
        ),
        "rin.measures_sync_ms": _mean(s.ms for s in by_name["rin.measures"]),
        "layout.solve_ms": _mean(s.ms for s in by_name["layout.solve"]),
        "layout.solves": float(len(by_name["layout.solve"])),
        "measure.compute_ms": _mean(s.ms for s in by_name["measure.compute"]),
        "scan.ms": _mean(s.ms for s in by_name["scan"]),
        "service.job_ms": _mean(s.ms for s in jobs),
        "service.jobs": counters.get("service_jobs", 0.0),
        "service.resubmissions": counters.get("service_resubmissions", 0.0),
        "service.worker_crashes": counters.get("service_worker_crashes", 0.0),
        "service.pending_max": float(
            max((s.attrs["pending"] for s in jobs), default=0)
        ),
        "pipeline.publish_frac": counters.get("publish_frac", 0.0),
        "pipeline.solves_cancelled": counters.get("solves_cancelled", 0.0),
        "pipeline.queue_wait_ms": percentile(_queue_waits(tracer, apply_spans), 50)
        if tracer.submits else 0.0,
        "viz.publish_ms": _mean(
            sum(d.ms for d in descendants(s, children) if d.name.startswith("viz."))
            for s in published
        ),
        "viz.elements_rebuilt": counters.get("elements_rebuilt", 0.0),
        "viz.nodes_restyled": counters.get("nodes_restyled", 0.0),
        "client.modelled_p50_ms": counters.get("client_modelled_p50_ms", 0.0),
        "gen.late_max_ms": counters.get("late_max_ms", 0.0),
        "trace.overhead_ms": latency_p50(traced) - latency_p50(untraced),
    }
    for name in measure_names():
        m[f"measure.compute_ms.{measure_slug(name)}"] = _mean(
            s.ms for s in by_name["measure.compute"] if s.attrs["measure"] == name
        )
    # Self times partition each root's interval, so their sum is the
    # roots' wall time; compare it with the wall the loop measured outside
    # the root span (burst roots are the program's own calls: no outside
    # wall, so they are compared with themselves).
    table = stage_table(spans, roots)
    stage_sum = sum(row["self_ms"] for row in table)
    walls = sum(traced.walls_ms) if traced.walls_ms else sum(r.ms for r in roots)
    m["trace.stage_sum_err_pct"] = (
        100.0 * abs(stage_sum - walls) / walls if walls else 0.0
    )
    return m, table
