"""Tiny runs of the benchmark command: every metric is printed with its unit."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.tracing import Span, Tracer, install, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

#: The workload's own metric names (printed in the table) and their units.
TABLE_METRICS = {
    "scrub": [("tick_p50_ms", "ms"), ("tick_p95_ms", "ms"),
              ("client_modelled_p50_ms", "ms(modelled)")],
    "burst": [
        ("settle_p50_ms", "ms"), ("settle_p90_ms", "ms"), ("gen.late_max_ms", "ms")
    ],
    "feature_scan": [("frames_per_s", "frames/s")],
}
COMMON_TABLE_METRICS = [("fail_frac", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    table = [line.split() for line in lines[:-1]]
    for name, unit in TABLE_METRICS[workload] + COMMON_TABLE_METRICS:
        assert any(row[0] == name and row[-1] == unit for row in table if row), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench("scrub", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _session_members(sid: int) -> list[int]:
    """Live or zombie processes of session ``sid``, from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_leaves_no_process_behind():
    # burst starts the most processes: pool workers, set-up probes and,
    # through shared memory, multiprocessing's resource tracker.
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "burst", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr
    assert _session_members(proc.pid) == []


def test_self_times_partition_a_serial_tree():
    root = Span("root", 0.0, None, 1, 0, {})
    root.end = 10.0
    a = Span("a", 1.0, root, 1, 0, {})
    a.end = 4.0
    b = Span("b", 2.0, a, 1, 0, {})
    b.end = 3.0
    c = Span("c", 5.0, root, 1, 0, {})
    c.end = 9.0
    selfs = self_times([root, a, b, c])
    assert selfs[id(root)] == pytest.approx(3.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(root.ms)


def test_uninstall_restores_every_entry_point():
    from repro.core import pipeline
    from repro.graphkit.service import ComputeService
    from repro.rin import construction
    from repro.rin.dynamic import DynamicRIN
    from repro.rin.measures import GraphMeasure

    owners = [
        (pipeline, "maxent_stress_layout"), (pipeline, "graph_traces"),
        (pipeline.UpdatePipeline, "apply_event"), (ComputeService, "submit_job"),
        (construction, "residue_distance_matrix"), (DynamicRIN, "measures"),
        (GraphMeasure, "__call__"),
    ]
    before = [vars(owner)[attr] for owner, attr in owners]
    uninstall = install(Tracer())
    assert all(vars(owner)[attr] is not b for (owner, attr), b in zip(owners, before))
    uninstall()
    assert [vars(owner)[attr] for owner, attr in owners] == before
