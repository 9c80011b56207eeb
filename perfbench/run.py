"""Slider-tick benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scrub --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the workload's inputs from the seed,
drives the program for ``--seconds`` seconds, checks its outputs, prints a
table of the workload's metrics and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, taken from a traced second half of
the run (the first half runs untraced, to report the tracing overhead).
Records, traces and self-time tables go to ``perfbench/out/``.
"""

import time

_PROCESS_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The first shared-memory segment starts the tracker as a helper process
    that otherwise outlives the benchmark until it notices the exit.
    Registered before the program is imported, so it runs after every
    other exit hook (those may still unlink segments, which talks to the
    tracker and would start a new one).
    """
    resource_tracker._resource_tracker._stop()


atexit.register(_stop_resource_tracker)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run: this process plus fresh-process probes. The median is
#: reported: single set-ups of the same code vary by about ±20%.
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit (a set-up probe)",
    )
    return parser.parse_args(argv)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.common import cpu_ticks, host_fingerprint, peak_rss_mb, steal_pct
    from perfbench.report import end_to_end, per_layer, workload_view
    from perfbench.tracing import Tracer, chrome_trace, install
    from perfbench.workloads import WORKLOADS

    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setups = [time.perf_counter() - _PROCESS_START]
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    tracer = None
    ticks_before = cpu_ticks()
    try:
        if args.trace:
            untraced = workload.run(args.seconds / 2)
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                traced = workload.run(args.seconds / 2, tracer)
            finally:
                uninstall()
            phases = [untraced, traced]
        else:
            phases = [workload.run(args.seconds)]
        rss_mb = peak_rss_mb()
        steal = steal_pct(ticks_before, cpu_ticks())
    finally:
        workload.close()
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setups)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    e2e = end_to_end(workload, phases[0], setup_s, rss_mb)
    fingerprint = host_fingerprint(ROOT)
    fingerprint["cpu_steal_pct"] = steal
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(fingerprint))
    for name, value, unit in workload_view(workload, phases[0], e2e):
        print(f"  {name:<28} {value:>12.4f} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": fingerprint, "setup_samples_s": setups,
        "end_to_end": e2e, "attempted": attempted, "failed": failed,
        "failures": [msg for p in phases for msg in p.failures],
        "samples_ms": phases[0].samples_ms, "by_session": phases[0].by_session,
        "extra": {k: v for k, v in phases[0].extra.items() if k != "burst_of"},
    }

    if args.trace:
        traced_e2e = end_to_end(workload, phases[1], setup_s, rss_mb)
        layers, table = per_layer(workload, phases[0], phases[1], tracer)
        print("  tracing overhead (traced half minus untraced half):")
        for name in ("latency_p50_ms", "latency_tail_ms"):
            print(f"    {name:<26} {traced_e2e[name] - e2e[name]:>+12.4f} ms "
                  f"({e2e[name]:.4f} -> {traced_e2e[name]:.4f})")
        print("  self time per stage (traced half):")
        print(f"    {'stage':<24} {'calls':>7} {'self_ms/op':>11} {'share':>7}")
        for row in table:
            print(f"    {row['stage']:<24} {row['calls']:>7} "
                  f"{row['self_ms_per_root']:>11.4f} {row['share']:>7.3f}")
        print("  per-layer (traced half):")
        for spec in bench["per_layer"]:
            value = layers[spec["name"]]
            print(f"    {spec['name']:<44} {value:>12.4f} {spec['unit']}")
        record.update(traced_end_to_end=traced_e2e, per_layer=layers, stages=table)
        metrics_src, specs = layers, bench["per_layer"]
        burst_of = phases[1].extra.get("burst_of", {})
        for span in tracer.spans:
            if isinstance(span.trace_id, tuple):
                span.trace_id = burst_of.get(span.trace_id, "%s/g%d" % span.trace_id)
    else:
        metrics_src, specs = e2e, bench["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        with open(stem + ".trace.json", "w") as fh:
            json.dump(chrome_trace(tracer.spans), fh, default=str)
    for msg in record["failures"][:10]:
        print(f"  FAILED: {msg}")

    metrics = {
        spec["name"]: {"value": float(metrics_src[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
