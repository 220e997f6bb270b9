"""The ``infer-agent`` workload: the agent's single-row inference call.

Back-to-back synchronous ``InferenceEngine.predict`` calls in
pass-through mode (``num_workers=0``), one row each, replaying the
stored feature windows in a seed-determined order through the deployed
5-input readahead network.  This is the call the readahead agent makes
once per window when it routes through the engine; the workload never
touches ``os_sim`` or ``minikv``.

Every response is checked after the timed loop: its output row must be
bit-identical to ``Sequential.infer`` on the same row, and its argmax
must equal the class the agent's local path (``predict_classes``)
picks.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
from array import array
from time import perf_counter_ns
from typing import List

import numpy as np

from common import (
    DTYPE,
    OUT_DIR,
    fit_classifier,
    load_fit_record,
    load_windows,
    Schedule,
    host_factor,
    host_reference_ns,
    percentile_us,
    timed_set_up,
)
from repro.kml import load_model, save_model
from repro.kml.matrix import Matrix
from repro.serve import InferenceEngine, ModelRegistry, ServeConfig

#: A unit of fixed work is UNIT_WINDOWS windows of WINDOW_PREDICTS
#: predicts, each window replaying the same rows; a run repeats units.
#: A window's p90 has 200 samples beyond it, its p99 20.
WINDOW_PREDICTS = 2000
UNIT_WINDOWS = 10


def set_up(workdir: str):
    """Fit, publish, activate, start.

    Returns (engine, local model, window), the window being the
    set-up's (start, end) in ``perf_counter_ns`` time.
    """
    x, y = load_windows()
    record = load_fit_record()
    t0 = perf_counter_ns()
    clf = fit_classifier(x, y, record)
    path = os.path.join(workdir, "readahead_nn.kml")
    save_model(clf.to_deployable(), path)
    registry = ModelRegistry(tempfile.mkdtemp(dir=workdir))
    registry.activate(registry.publish(path))
    engine = InferenceEngine(registry, ServeConfig(num_workers=0)).start()
    window = (t0, perf_counter_ns())
    return engine, load_model(path), window


class Replay:
    """The seed's row order plus the expected answer for each row."""

    def __init__(self, seed: int, local_model):
        x, _ = load_windows()
        self.rows = x
        order = np.random.default_rng([seed, 2]).permutation(len(x))
        self.order = [int(i) for i in np.resize(order, WINDOW_PREDICTS)]
        self.expected = [
            local_model.infer(Matrix(row.reshape(1, -1), dtype=DTYPE))
            .to_numpy()[0].tobytes()
            for row in x
        ]
        self.local_class = [
            int(c) for c in local_model.predict_classes(x, dtype=DTYPE)
        ]

    def run_unit(self, engine, host_ref: bool = False):
        """One unit of back-to-back predicts.

        Returns the unit's (start, end) in ``perf_counter_ns`` time, the
        wall ns, the host factor and the per-predict latencies of each
        window, and the output rows.  With ``host_ref`` the reference
        kernel is timed before the first window and after each one,
        outside the windows' wall time; without it every factor is 1.
        """
        rows, order = self.rows, self.order
        window_ns, latencies, outputs = [], [], []
        refs = []
        measure_host = host_reference_ns if host_ref else (lambda: 0)
        predict = engine.predict
        gc.collect()
        t_start = perf_counter_ns()
        refs.append(measure_host())
        for _ in range(UNIT_WINDOWS):
            latency = array("q")
            w0 = perf_counter_ns()
            for i in order:
                t0 = perf_counter_ns()
                result = predict(rows[i])
                latency.append(perf_counter_ns() - t0)
                outputs.append(result.output)
            window_ns.append(perf_counter_ns() - w0)
            latencies.append(latency)
            refs.append(measure_host())
        factors = [
            host_factor(a, b) if host_ref else 1.0 for a, b in zip(refs, refs[1:])
        ]
        return ((t_start, perf_counter_ns()), window_ns, factors, latencies,
                outputs)

    def failures(self, outputs) -> int:
        failed = 0
        for i, out in zip(self.order * UNIT_WINDOWS, outputs):
            if (out.tobytes() != self.expected[i]
                    or int(np.argmax(out)) != self.local_class[i]):
                failed += 1
        return failed


def measure(seed: int, seconds: float) -> dict:
    schedule = Schedule(seconds)
    setup_wall: List[float] = []
    setup_times: List[float] = []
    units = []
    failed = attempted = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        engine = None

        def fresh_set_up():
            if engine is not None:
                engine.stop()
            gc.collect()
            (started, model, _), wall_s, ref_s = timed_set_up(set_up, workdir)
            setup_wall.append(wall_s)
            setup_times.append(ref_s)
            schedule.setups += 1
            return started, model

        while schedule.more():
            if schedule.setup_due():
                engine, model = fresh_set_up()
                replay = Replay(seed, model)
            _, window_ns, factors, latencies, outputs = replay.run_unit(
                engine, host_ref=True)
            units.append((window_ns, factors, latencies))
            schedule.units += 1
            attempted += len(outputs)
            failed += replay.failures(outputs)
        while schedule.setup_due(done=True):
            engine, _ = fresh_set_up()
        engine.stop()
    # As for the key-value cells: every window is the same work in every
    # repeat, so each window's wall time, put in reference-host time, is
    # represented by its median over the repeats.
    windows = range(UNIT_WINDOWS)
    ref_ns = sum(statistics.median(u[0][k] * u[1][k] for u in units) for k in windows)
    raw_ns = sum(statistics.median(u[0][k] for u in units) for k in windows)

    def latency_us(q, scaled=True):
        return statistics.mean(
            statistics.median(
                percentile_us(u[2][k], q) * (u[1][k] if scaled else 1.0)
                for u in units)
            for k in windows
        )

    factors = [f for u in units for f in u[1]]
    predicts = UNIT_WINDOWS * WINDOW_PREDICTS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": predicts / (ref_ns / 1e9),
            "req_p50_us": latency_us(50),
        },
        "notes": [
            f"units={len(units)} windows/unit={UNIT_WINDOWS} "
            f"predicts/window={WINDOW_PREDICTS} predicts={attempted}; "
            f"p90 (not gated)={latency_us(90):.2f}us "
            f"p99 (not gated)={latency_us(99):.2f}us",
            f"setup_s runs={[round(t, 4) for t in setup_times]} "
            f"(wall {[round(t, 4) for t in setup_wall]})",
            f"host factor per window: min={min(factors):.3f} "
            f"median={statistics.median(factors):.3f} max={max(factors):.3f}",
            f"wall (not gated): ops_per_s={predicts / (raw_ns / 1e9):.1f} "
            f"req_p50_us={latency_us(50, scaled=False):.2f}",
        ],
    }


def trace(seed: int, tracer_cls) -> dict:
    """Per-layer metrics from one traced set-up plus one traced unit."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        engine, model, _ = set_up(workdir)
        replay = Replay(seed, model)
        (p0, p1), _, _, _, plain_out = replay.run_unit(engine)
        engine.stop()
        tracer = tracer_cls().install()
        try:
            engine, model, setup_window = set_up(workdir)
            window, _, _, _, outputs = replay.run_unit(engine)
            engine.stop()
        finally:
            tracer.uninstall()
    wall = window[1] - window[0]
    problems = tracer.check([setup_window, window])
    failed = replay.failures(plain_out) + replay.failures(outputs)
    ops = len(outputs)
    return {
        "correct": not problems and failed == 0,
        "attempted": len(plain_out) + ops,
        "failed": failed,
        "tracer": tracer,
        "timed": [window],
        "setup": setup_window,
        "ops": ops,
        "extra": {"bench.trace_overhead": wall / (p1 - p0)},
        "notes": [f"accounting: {p}" for p in problems],
    }
