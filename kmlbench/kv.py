"""The two key-value workloads: one Table-2 cell each, run as fixed work.

A cell is a vanilla half (readahead fixed at the Linux default of 128
pages) followed by a half with the KML readahead agent in the loop
(0.1-s windows, smoothing 3).  Both halves start from identical deep
copies of one populated store and use the same op seed, and each runs
for one *simulated* second, so every run of every commit executes the
same simulation.  A run repeats a round of cells, one per op stream
drawn from the seed; each repeat of a stream's cell must reproduce the
first one's fingerprint exactly.

Every get and scan is checked, outside its timed call, against a
reference built from the generated populate set plus the puts the
workload applied.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import statistics
import tempfile
from array import array
from time import perf_counter_ns
from typing import Dict, List

import numpy as np

from common import (
    OUT_DIR,
    Schedule,
    deploy,
    fit_classifier,
    host_factor,
    host_reference_ns,
    load_fit_record,
    load_tuning,
    load_windows,
    percentile_us,
    timed_set_up,
)
from repro.minikv import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.readahead import WORKLOAD_CLASSES, ReadaheadAgent
from repro.workloads import make_key, run_workload, workload_by_name

#: workload name -> (device model, db_bench workload)
CELLS = {
    "readrandom-nvme": ("nvme", "readrandom"),
    "mixgraph-ssd": ("ssd", "mixgraph"),
}
NUM_KEYS = 60_000
VALUE_SIZE = 400
CACHE_PAGES = 512          # the 60k x 400 B store is ~13x larger
MEMTABLE_BYTES = 8 << 20   # populate ends in 4 L0 tables
VANILLA_RA = 128
WINDOW_S = 0.1
SMOOTHING = 3
HALF_SIM_S = 1.0
#: Gets a window needs before its percentiles are used.
MIN_WINDOW_GETS = 1000
#: Request latency is taken from the whole vanilla half and from this
#: point of the agent half on.  The agent's first decisions depend on
#: the op stream's cold start (some seeds run ra=32 for a few windows,
#: others ra=8 throughout), which would make the latency a property of
#: the seed; from 0.5 s on the agent has settled.
STEADY_FROM_S = 0.5


#: Op streams per round of an untraced run.  The agent's cold start
#: differs between op streams (about four seeds in ten start at ra=32),
#: and that moves a cell's wall time by about 5%; a round of cells on
#: several op streams from the same seed averages it within the run.
CELLS_PER_ROUND = 2


def make_inputs(seed: int):
    """Populate values and the op seed, both derived from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    values = rng.integers(65, 91, size=(NUM_KEYS, VALUE_SIZE), dtype=np.uint8)
    op_seed = op_seeds(seed, 1)[0]
    reference = {make_key(i): values[i].tobytes() for i in range(NUM_KEYS)}
    return values, op_seed, reference


def op_seeds(seed: int, count: int) -> List[int]:
    """The first ``count`` op seeds of ``seed``; the first is the traced one."""
    keys = [[seed, 1]] + [[seed, 1, j] for j in range(1, count)]
    return [int(np.random.default_rng(k).integers(0, 2**31)) for k in keys]


def populate(device: str, values: np.ndarray):
    """Load the generated set through the write path; cold cache after."""
    stack = make_stack(device, ra_pages=VANILLA_RA, cache_pages=CACHE_PAGES)
    db = MiniKV(stack, DBOptions(memtable_bytes=MEMTABLE_BYTES))
    for i in range(len(values)):
        db.put(make_key(i), values[i].tobytes())
    db.close()
    stack.set_readahead(VANILLA_RA)
    stack.drop_caches()
    return stack, db


def set_up(device: str, values, workdir: str):
    """Populate plus fit/deploy.

    Returns ((stack, db), model, window), the window being the set-up's
    (start, end) in ``perf_counter_ns`` time.
    """
    x, y = load_windows()
    record = load_fit_record()
    t0 = perf_counter_ns()
    base = populate(device, values)
    model = deploy(fit_classifier(x, y, record), workdir)
    return base, model, (t0, perf_counter_ns())


class Probe:
    """Times and checks the store calls one half makes.

    Installs instance attributes over ``db.get/put/scan``; latencies
    are taken around the real call only, the check runs after it.
    """

    def __init__(self, db: MiniKV, reference: Dict[bytes, bytes], wrap=None):
        self.reference = reference
        self.get_ns = array("q")
        self.put_ns = array("q")
        self.scan_ns = array("q")
        self.attempted = 0
        self.failed = 0
        real_get, real_put, real_scan = db.get, db.put, db.scan
        probe = self

        def get(key):
            t0 = perf_counter_ns()
            value = real_get(key)
            probe.get_ns.append(perf_counter_ns() - t0)
            probe.attempted += 1
            if value != reference.get(key):
                probe.failed += 1
            return value

        def put(key, value):
            t0 = perf_counter_ns()
            real_put(key, value)
            probe.put_ns.append(perf_counter_ns() - t0)
            probe.attempted += 1
            reference[key] = bytes(value)

        def scan(start_key=None):
            t0 = perf_counter_ns()
            it = real_scan(start_key)
            probe.scan_ns.append(perf_counter_ns() - t0)
            probe.attempted += 1
            first = 0 if start_key is None else int(start_key[4:])
            return CheckedScan(probe, it, first)

        self.resume = _resume
        if wrap is not None:
            # Traced runs: the probe's own work is a span of its own, so
            # it is not charged to workloads.step as self time.
            get, put, scan, self.resume = (
                wrap(f, "bench.probe") for f in (get, put, scan, _resume)
            )
        db.get, db.put, db.scan = get, put, scan


class CheckedScan:
    """Times each resumption of a scan and checks the record it yields.

    Every key exists from populate on and puts only overwrite, so a
    scan from key index ``i`` must yield exactly indices i, i+1, ...
    """

    __slots__ = ("probe", "it", "next_index", "bad")

    def __init__(self, probe: Probe, it, first_index: int):
        self.probe = probe
        self.it = it
        self.next_index = first_index
        self.bad = False

    def __iter__(self):
        return self

    def __next__(self):
        return self.probe.resume(self)


def _resume(scan: CheckedScan):
    probe = scan.probe
    t0 = perf_counter_ns()
    try:
        key, value = next(scan.it)
    except StopIteration:
        probe.scan_ns[-1] += perf_counter_ns() - t0
        if scan.next_index != NUM_KEYS:
            _fail_scan(scan)
        raise
    probe.scan_ns[-1] += perf_counter_ns() - t0
    if key != make_key(scan.next_index) or value != probe.reference.get(key):
        _fail_scan(scan)
    scan.next_index += 1
    return key, value


def _fail_scan(scan: CheckedScan) -> None:
    if not scan.bad:
        scan.bad = True
        scan.probe.failed += 1


@dataclasses.dataclass
class Half:
    ops: int
    throughput: float      # ops per simulated second
    window: tuple          # (start, end) perf_counter_ns
    tick_ns: list          # wall ns of each simulated 0.1-s window
    tick_factor: list      # host_factor around each window (1.0 untimed)
    tick_gets: list        # (first, end) index into probe.get_ns per window
    probe: Probe
    state: dict            # simulated outcome, for the fingerprint
    counts: dict           # per-layer counters over the half
    predictions: dict


@dataclasses.dataclass
class Cell:
    vanilla: Half
    agent: Half

    @property
    def ops(self) -> int:
        return self.vanilla.ops + self.agent.ops

    @property
    def wall_ns(self) -> int:
        return sum(h.window[1] - h.window[0] for h in (self.vanilla, self.agent))

    @property
    def kml_gain(self) -> float:
        return self.agent.throughput / self.vanilla.throughput

    @property
    def fingerprint(self) -> str:
        blob = json.dumps([self.vanilla.state, self.agent.state], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _counts(stack, before) -> dict:
    cache, device = stack.cache.stats, stack.device.stats
    return {
        "inserted": cache.inserted - before["inserted"],
        "hits": cache.hits - before["hits"],
        "misses": cache.misses - before["misses"],
        "prefetch_inserted": cache.prefetch_inserted - before["prefetch_inserted"],
        "prefetch_wasted": cache.prefetch_wasted - before["prefetch_wasted"],
        "pages_read": device.pages_read - before["pages_read"],
        "pages_written": device.pages_written - before["pages_written"],
    }


def run_half(base, model, tuning, name: str, op_seed: int, reference,
             use_agent: bool, wrap=None, host_ref: bool = False) -> Half:
    """One half of a cell.

    With ``host_ref`` the reference kernel is timed before the half and
    after each simulated window, outside the windows' wall time.
    """
    device, workload_name = CELLS[name]
    stack, db = copy.deepcopy(base)
    probe = Probe(db, dict(reference), wrap)
    agent = (
        ReadaheadAgent(stack, model, tuning, device, smoothing=SMOOTHING)
        if use_agent else None
    )
    workload = workload_by_name(workload_name, NUM_KEYS, VALUE_SIZE)
    before = {**dataclasses.asdict(stack.cache.stats),
              **dataclasses.asdict(stack.device.stats)}
    measure_host = host_reference_ns if host_ref else (lambda: 0)
    # One (start, end, first get, reference before) per window.
    windows: List[list] = []
    refs: List[int] = []

    def on_tick(sim_time, rate):
        windows[-1][1] = perf_counter_ns()
        refs.append(measure_host())
        windows.append([perf_counter_ns(), 0, len(probe.get_ns)])
        if agent is not None:
            agent.on_tick(sim_time, rate)

    gc.collect()
    refs.append(measure_host())
    t0 = perf_counter_ns()
    windows.append([t0, 0, 0])
    result = run_workload(
        stack, db, workload, n_ops=10**9, rng=np.random.default_rng(op_seed),
        tick_interval=WINDOW_S, on_tick=on_tick, max_sim_seconds=HALF_SIM_S,
    )
    t1 = perf_counter_ns()
    windows[-1][1] = t1
    refs.append(measure_host())
    tick_ns = [end - start for start, end, _ in windows]
    tick_factor = [
        host_factor(a, b) if host_ref else 1.0 for a, b in zip(refs, refs[1:])
    ]
    gets = [w[2] for w in windows] + [len(probe.get_ns)]
    tick_gets = list(zip(gets, gets[1:]))
    state = {
        "clock": stack.clock.now,
        "ops": result.ops,
        "cache": dataclasses.asdict(stack.cache.stats),
        "device": dataclasses.asdict(stack.device.stats),
        "db": dataclasses.asdict(db.stats),
        "decisions": [
            (d.sim_time, d.predicted_class, d.ra_pages) for d in agent.history
        ] if agent else [],
    }
    predictions = agent.predicted_class_counts() if agent else {}
    if agent:
        agent.detach()
    if probe.attempted != result.ops:
        probe.failed += abs(result.ops - probe.attempted)
    # The checks are done; a run keeps every half's latencies, and its
    # peak memory must not grow with the number of rounds it makes.
    probe.reference = None
    return Half(result.ops, result.throughput, (t0, t1), tick_ns, tick_factor,
                tick_gets, probe, state, _counts(stack, before), predictions)


def run_cell(base, model, tuning, name, op_seed, reference, wrap=None,
             host_ref=False) -> Cell:
    return Cell(
        run_half(base, model, tuning, name, op_seed, reference, False, wrap,
                 host_ref),
        run_half(base, model, tuning, name, op_seed, reference, True, wrap,
                 host_ref),
    )


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over repeated rounds of cells."""
    device, _ = CELLS[name]
    values, _, reference = make_inputs(seed)
    streams = op_seeds(seed, CELLS_PER_ROUND)
    tuning = load_tuning()
    schedule = Schedule(seconds)
    setup_wall: List[float] = []
    setup_times: List[float] = []
    rounds: List[List[Cell]] = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:

        def fresh_set_up():
            gc.collect()
            (base, model, _), wall_s, ref_s = timed_set_up(
                set_up, device, values, workdir)
            setup_wall.append(wall_s)
            setup_times.append(ref_s)
            schedule.setups += 1
            return base, model

        while schedule.more():
            if schedule.setup_due():
                base = model = None
                base, model = fresh_set_up()
            rounds.append([
                run_cell(base, model, tuning, name, op_seed, reference,
                         host_ref=True)
                for op_seed in streams
            ])
            schedule.units += 1
        base = model = None
        while schedule.setup_due(done=True):
            fresh_set_up()
    cells = [c for r in rounds for c in r]
    attempted = sum(c.vanilla.probe.attempted + c.agent.probe.attempted for c in cells)
    failed = sum(c.vanilla.probe.failed + c.agent.probe.failed for c in cells)
    stats = [_stream_stats([r[j] for r in rounds]) for j in range(len(streams))]
    consistent = all(st["consistent"] for st in stats)
    ops = sum(st["ops"] for st in stats)
    weight = sum(st["gets"] for st in stats)

    def total(key):
        return sum(st[key] for st in stats)

    factors = [f for c in cells for h in (c.vanilla, c.agent) for f in h.tick_factor]
    notes = [
        f"rounds={len(rounds)} of {len(streams)} cells (one per op stream); "
        f"ops/cell={[st['first'].ops for st in stats]}",
    ]
    for j, st in enumerate(stats):
        first = st["first"]
        notes.append(
            f"stream {j}: sim_ops_per_s={first.agent.throughput!r} "
            f"vanilla_sim_ops_per_s={first.vanilla.throughput!r} "
            f"kml_gain={first.kml_gain!r} fingerprint={first.fingerprint} "
            f"repeats_identical={st['consistent']}"
        )
    notes += [
        f"setup_s runs={[round(t, 4) for t in setup_times]} "
        f"(wall {[round(t, 4) for t in setup_wall]})",
        f"cell wall s={[round(c.wall_ns / 1e9, 3) for c in cells]}",
        f"host factor per window: min={min(factors):.3f} "
        f"median={statistics.median(factors):.3f} max={max(factors):.3f}",
        f"wall (not gated): ops_per_s={ops / (total('raw_ns') / 1e9):.1f} "
        f"req_p50_us={total('raw_p50') / weight:.2f}",
        f"get latency: {weight} gets per round (vanilla half, and agent "
        f"half from {STEADY_FROM_S} s on), {len(rounds)} rounds; "
        f"p90 (not gated)={total('p90') / weight:.2f}us "
        f"p99 (not gated)={total('p99') / weight:.2f}us",
    ]
    for op in ("get", "put", "scan"):
        samples = array("q")
        for cell in cells:
            samples.extend(getattr(cell.agent.probe, f"{op}_ns"))
        if samples:
            notes.append(
                f"agent-half {op} (pooled wall): n={len(samples)} "
                f"p50={percentile_us(samples, 50):.2f}us "
                f"p99={percentile_us(samples, 99):.2f}us"
            )
    return {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops / (total("ref_ns") / 1e9),
            "req_p50_us": total("p50") / weight,
        },
        "notes": notes,
    }


def _stream_stats(cells: List[Cell]) -> dict:
    """Time and latency sums over the repeats of one op stream's cell."""
    first = cells[0]
    consistent = all(c.fingerprint == first.fingerprint for c in cells)
    cells = [c for c in cells if c.fingerprint == first.fingerprint]
    # Every repeat runs the same simulation, so the k-th simulated
    # window of a half is the same work in every cell.  Each window's
    # wall time is put in reference-host time by the reference kernel
    # timed around it, and represented by its median over the repeats.
    halves = [[getattr(c, half) for c in cells] for half in ("vanilla", "agent")]
    ref_ns = sum(
        statistics.median(h.tick_ns[k] * h.tick_factor[k] for h in repeats)
        for repeats in halves
        for k in range(len(repeats[0].tick_ns))
    )
    raw_ns = sum(
        statistics.median(h.tick_ns[k] for h in repeats)
        for repeats in halves
        for k in range(len(repeats[0].tick_ns))
    )
    # Per window with at least MIN_WINDOW_GETS gets (agent-half windows
    # from STEADY_FROM_S on): each percentile of its gets in each
    # repeat, in reference-host time, the median over the repeats, then
    # the sum over windows weighted by their gets.
    out = {"p50": 0.0, "p90": 0.0, "p99": 0.0, "raw_p50": 0.0}
    weight = 0
    for repeats, skip in zip(halves, (0, round(STEADY_FROM_S / WINDOW_S))):
        for k, (lo, hi) in enumerate(repeats[0].tick_gets):
            if k < skip or hi - lo < MIN_WINDOW_GETS:
                continue
            for q in (50, 90, 99):
                out[f"p{q}"] += (hi - lo) * statistics.median(
                    percentile_us(h.probe.get_ns[lo:hi], q) * h.tick_factor[k]
                    for h in repeats)
            out["raw_p50"] += (hi - lo) * statistics.median(
                percentile_us(h.probe.get_ns[lo:hi], 50) for h in repeats)
            weight += hi - lo
    return {
        "first": first,
        "consistent": consistent,
        "ops": first.ops,
        "ref_ns": ref_ns,
        "raw_ns": raw_ns,
        "gets": weight,
        **out,
    }


def trace(name: str, seed: int, tracer_cls) -> dict:
    """The traced run: per-layer metrics from one traced set-up + cell.

    An untraced cell runs first, for the trace overhead and to check
    that tracing leaves the simulation unchanged.
    """
    device, _ = CELLS[name]
    values, op_seed, reference = make_inputs(seed)
    tuning = load_tuning()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        base, model, _ = set_up(device, values, workdir)
        plain = run_cell(base, model, tuning, name, op_seed, reference)
        base = model = None
        gc.collect()
        tracer = tracer_cls().install()
        try:
            base, model, setup_window = set_up(device, values, workdir)
            cell = run_cell(base, model, tuning, name, op_seed, reference,
                            wrap=tracer.wrap)
        finally:
            tracer.uninstall()
    timed = [cell.vanilla.window, cell.agent.window]
    problems = tracer.check([setup_window] + timed)
    if cell.fingerprint != plain.fingerprint:
        problems.append("the traced cell simulated differently from the untraced one")
    counts = {
        key: cell.vanilla.counts[key] + cell.agent.counts[key]
        for key in cell.vanilla.counts
    }
    halves = (plain.vanilla, plain.agent, cell.vanilla, cell.agent)
    attempted = sum(h.probe.attempted for h in halves)
    failed = sum(h.probe.failed for h in halves)
    ops = cell.ops
    accesses = counts["hits"] + counts["misses"]
    extra = {
        "os_sim.page_cache.inserted": counts["inserted"] / ops,
        "os_sim.page_cache.hit_ratio": counts["hits"] / accesses,
        "os_sim.page_cache.prefetch_waste_ratio": (
            counts["prefetch_wasted"] / counts["prefetch_inserted"]
        ),
        "os_sim.device.pages_read": counts["pages_read"] / ops,
        "os_sim.device.pages_written": counts["pages_written"] / ops,
        "minikv.bloom.negative_ratio": tracer.bloom_negatives / tracer.bloom_probes,
        "readahead.agent.sim_ops_per_s": cell.agent.throughput,
        "readahead.agent.kml_gain": cell.kml_gain,
        "bench.trace_overhead": cell.wall_ns / plain.wall_ns,
    }
    for cls in WORKLOAD_CLASSES:
        extra[f"readahead.agent.predictions.{cls}"] = cell.agent.predictions.get(cls, 0)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
        "timed": timed,
        "setup": setup_window,
        "ops": ops,
        "extra": extra,
        "notes": [f"fingerprint={cell.fingerprint}"]
        + [f"accounting: {p}" for p in problems],
    }

