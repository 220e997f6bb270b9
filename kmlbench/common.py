"""Inputs, model set-up and small statistics shared by the workloads.

The stored inputs (``inputs/``) are produced by ``make_inputs.py``.
Set-up fits the readahead classifier from the stored windows with the
recorded seed, refuses to continue below the recorded training
accuracy, and deploys the network through a KML model-file round trip,
the way the paper moves a user-space-trained model into the kernel.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Dict, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
INPUT_DIR = os.path.join(BENCH_DIR, "inputs")
#: Scratch space for model files, registries and span dumps.
OUT_DIR = os.path.join(BENCH_DIR, "_out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise ImportError(f"the repro package is not at {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro.kml import load_model, save_model  # noqa: E402
from repro.kml.network import Sequential  # noqa: E402
from repro.readahead import ReadaheadClassifier, TuningTable  # noqa: E402

#: Network input dtype, as the agent runs it.
DTYPE = "float32"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest repeats of the unit of work in an untraced run, however slow
#: the host.
MIN_REPEATS = 3
#: Iterations of the two loops of the host-speed reference kernel, and
#: the kernel's wall time on the reference host (a 2-vCPU Intel Xeon
#: guest at 2.1 GHz, in one of its fast phases).
REF_NUMPY_ITERS = 3000
REF_OBJECT_ITERS = 15000
REF_NOMINAL_NS = 13_000_000


class SetupError(RuntimeError):
    """The stored inputs cannot produce the recorded model."""


def load_windows():
    blob = np.load(os.path.join(INPUT_DIR, "windows.npz"), allow_pickle=False)
    return blob["x"], blob["y"]


def load_tuning() -> TuningTable:
    return TuningTable.load(os.path.join(INPUT_DIR, "tuning.json"))


def load_fit_record() -> Dict[str, float]:
    with open(os.path.join(INPUT_DIR, "fit.json")) as f:
        return json.load(f)


def fit_classifier(x, y, record) -> ReadaheadClassifier:
    """Fit with the recorded seed; refuse a fit below the recorded accuracy."""
    clf = ReadaheadClassifier(rng=np.random.default_rng(record["fit_seed"]))
    clf.fit(x, y)
    accuracy = clf.accuracy(x, y)
    if accuracy < record["train_accuracy"]:
        raise SetupError(
            f"fit reached train accuracy {accuracy:.4f}, "
            f"below the recorded {record['train_accuracy']:.4f}"
        )
    return clf


def deploy(clf: ReadaheadClassifier, workdir: str) -> Sequential:
    """Save the deployable network as a KML file and load it back."""
    path = os.path.join(workdir, "readahead_nn.kml")
    save_model(clf.to_deployable(), path)
    return load_model(path)


class Schedule:
    """Repeats a fixed unit of work for ``seconds`` of wall time.

    Each unit is the same work in every repeat and in every run; only
    the number of repeats depends on how fast the host is.  A run
    always makes MIN_REPEATS units.  The SETUP_REPEATS set-ups are
    spread evenly over the run, so that their median samples the host
    across the whole run, not only at its start; the ones not yet due
    when the last unit ends are made after it.
    """

    def __init__(self, seconds: float):
        self.budget_ns = int(seconds * 1e9)
        self.start = time.perf_counter_ns()
        self.units = 0
        self.setups = 0

    def more(self) -> bool:
        elapsed = time.perf_counter_ns() - self.start
        return elapsed < self.budget_ns or self.units < MIN_REPEATS

    def setup_due(self, done: bool = False) -> bool:
        """Whether to set up now; ``done`` once the last unit has run."""
        if self.setups >= SETUP_REPEATS:
            return False
        elapsed = time.perf_counter_ns() - self.start
        return done or elapsed >= self.setups * self.budget_ns // SETUP_REPEATS


_REF_VECTOR = np.arange(64.0)


class _RefRecord:
    __slots__ = ("number", "text")

    def __init__(self, number, text):
        self.number = number
        self.text = text


def host_reference_ns() -> int:
    """Wall ns of a fixed reference kernel.

    Two loops: small numpy calls, and small objects built from ints
    and strings, the two kinds of work the program's hot paths do.  The
    untraced runs time it between pieces of measured work.  The host's
    speed drifts by tens of percent over minutes (slow phases often
    outlast a whole run), and this kernel, timed beside the work, slows
    down by a similar share as the program does (``METRICS.md`` gives
    how far each workload's scaled metrics still lean with the host).
    """
    a = _REF_VECTOR
    acc = 0.0
    t0 = time.perf_counter_ns()
    for _ in range(REF_NUMPY_ITERS):
        acc += float((a * 1.5 + 2.0).sum())
    for i in range(REF_OBJECT_ITERS):
        record = _RefRecord(i, str(i))
        acc += len(record.text) + record.number
    return time.perf_counter_ns() - t0


def host_factor(ref_before: int, ref_after: int) -> float:
    """Reference-host ns per wall ns around a piece of work.

    Wall time times this factor is the time the work would have taken
    on the reference host: the reference kernel's nominal time over
    its mean time just before and just after the work.
    """
    return 2 * REF_NOMINAL_NS / (ref_before + ref_after)


def timed_set_up(set_up, *args):
    """Run ``set_up(*args)`` between two reference measurements.

    ``set_up`` returns a tuple whose last item is its (start, end)
    ``perf_counter_ns`` window.  Returns that tuple, the set-up's wall
    seconds and its reference-host seconds.
    """
    ref_before = host_reference_ns()
    result = set_up(*args)
    ref_after = host_reference_ns()
    t0, t1 = result[-1]
    wall_s = (t1 - t0) / 1e9
    return result, wall_s, wall_s * host_factor(ref_before, ref_after)


def percentile_us(samples_ns: Sequence[int], q: float) -> float:
    """The ``q``-th percentile of nanosecond samples, in microseconds."""
    return float(np.percentile(np.asarray(samples_ns, dtype=np.int64), q)) / 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_loop_rate() -> float:
    """Iterations per microsecond of a fixed pure-Python loop.

    A host-speed diagnostic printed beside the metrics, never used to
    scale them (that is what :func:`host_reference_ns`, timed beside
    the work, is for): it tells a slow host apart from a regression.
    """
    n = 1_000_000
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    elapsed = time.perf_counter() - t0
    return n / elapsed / 1e6
