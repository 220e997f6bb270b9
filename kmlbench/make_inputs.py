"""Regenerate the benchmark's stored inputs under ``kmlbench/inputs/``.

The inputs are what the Table-2 pipeline produces before any cell runs,
stored so that the benchmark's set-up does not repeat a half-minute of
collection and sweeping:

- ``windows.npz``: labelled feature windows from the four training
  workloads on the NVMe model at 0.1-s windows (the collection
  configuration of ``benchmarks/conftest.py``);
- ``tuning.json``: the workload -> best-readahead table from the quick
  sweep over ra in (8, 32, 128, 512) on both devices;
- ``fit.json``: the seed the classifier is fitted with and the training
  accuracy that fit reaches; set-up refuses to run below it.

Run from the repository root:

    python3 kmlbench/make_inputs.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from repro.readahead import (  # noqa: E402
    CollectionConfig,
    ReadaheadClassifier,
    TuningTable,
    collect_training_data,
    sweep_best_readahead,
)

INPUT_DIR = os.path.join(HERE, "inputs")
RA_VALUES = (8, 32, 128, 512)
FIT_SEED = 0


def main() -> int:
    os.makedirs(INPUT_DIR, exist_ok=True)
    dataset = collect_training_data(
        CollectionConfig(
            num_keys=60_000,
            value_size=400,
            cache_pages=512,
            ra_values=RA_VALUES,
            windows_per_value=3,
            ra_passes=2,
        )
    )
    np.savez(os.path.join(INPUT_DIR, "windows.npz"), x=dataset.x, y=dataset.y)

    table = TuningTable()
    for device in ("nvme", "ssd"):
        partial, _ = sweep_best_readahead(
            device,
            ("readseq", "readrandom", "readreverse", "readrandomwriterandom"),
            ra_values=RA_VALUES,
            num_keys=60_000,
            value_size=400,
            cache_pages=512,
            ops_per_point=3000,
        )
        for workload, ra in partial.table[device].items():
            table.set(device, workload, ra)
    table.save(os.path.join(INPUT_DIR, "tuning.json"))

    clf = ReadaheadClassifier(rng=np.random.default_rng(FIT_SEED))
    clf.fit(dataset.x, dataset.y)
    accuracy = clf.accuracy(dataset.x, dataset.y)
    with open(os.path.join(INPUT_DIR, "fit.json"), "w") as f:
        json.dump({"fit_seed": FIT_SEED, "train_accuracy": accuracy}, f, indent=2)
        f.write("\n")
    print(f"{len(dataset)} windows, train accuracy {accuracy:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
