"""Repository benchmark: Table-2 cells and single-row inference.

Usage, from the root of a checkout:

    python3 kmlbench/run.py --workload readrandom-nvme --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json`` at the
root.  Human-readable notes go to standard output first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output checked out.
See ``kmlbench/METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("readrandom-nvme", "mixgraph-ssd", "infer-agent")
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Write-path spans whose set-up self time is reported as ``setup.*``.
SETUP_SPANS = (
    "minikv.put",
    "minikv.wal.append",
    "minikv.flush",
    "os_sim.page_cache.write_page",
    "os_sim.vfs.write",
    "os_sim.device.submit",
    "os_sim.tracepoints.emit",
)


def layer_metrics(result) -> dict:
    """Span metrics per timed op, set-up metrics per set-up, and extras."""
    tracer, ops = result["tracer"], result["ops"]
    calls, self_ns, untraced_ns = tracer.totals(result["timed"])
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_us"] = self_ns[name] / 1e3 / ops
    out["bench.untraced_us"] = untraced_ns / 1e3 / ops
    _, setup_ns, setup_untraced_ns = tracer.totals([result["setup"]])
    for name in SETUP_SPANS:
        out[f"setup.{name}.self_ms"] = setup_ns[name] / 1e6
    out["setup.untraced_ms"] = setup_untraced_ns / 1e6
    out.update(result["extra"])
    return out


def run(args, spec):
    """The traced or untraced run; returns (result, metrics)."""
    import common
    import infer
    import kv
    from tracer import Tracer

    if args.trace:
        if args.workload == "infer-agent":
            result = infer.trace(args.seed, Tracer)
        else:
            result = kv.trace(args.workload, args.seed, Tracer)
        computed = layer_metrics(result)
        spans_path = os.path.join(
            common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"
        )
        result["tracer"].save(spans_path)
        result["notes"].append(f"spans written to {spans_path}")
        metrics = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            # infer-agent runs no simulation: its KV counters are 0.
            value = (computed.get(name, 0.0) if args.workload == "infer-agent"
                     else computed[name])
            metrics[name] = {"value": float(value), "unit": entry["unit"]}
    else:
        if args.workload == "infer-agent":
            result = infer.measure(args.seed, args.seconds)
        else:
            result = kv.measure(args.workload, args.seed, args.seconds)
        result["values"]["peak_rss_mb"] = common.peak_rss_mb()
        metrics = {
            entry["name"]: {"value": float(result["values"][entry["name"]]),
                            "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    return result, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(BENCH_JSON) as f:
            spec = json.load(f)
        import common
    except (OSError, ImportError, ValueError) as exc:
        print(f"kmlbench: cannot start: {exc}", file=sys.stderr)
        return 2
    os.makedirs(common.OUT_DIR, exist_ok=True)
    host_before = common.host_loop_rate()
    try:
        result, metrics = run(args, spec)
    except common.SetupError as exc:
        print(f"kmlbench: set-up refused: {exc}", file=sys.stderr)
        return 2
    host_after = common.host_loop_rate()
    for note in result["notes"]:
        print(note)
    print(f"host loop rate (Mit/s, diagnostic only): "
          f"before={host_before:.2f} after={host_after:.2f}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
