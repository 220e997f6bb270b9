"""Determinism self-test for the two key-value cells.

The fingerprint of a cell hashes its simulated outcome: final simulated
clock, ``CacheStats``, ``DeviceStats``, ``DBStats`` and the agent's
decisions, for both halves.  For each key-value workload this checks
that the fingerprint

- is equal across a repeat of the cell in one process;
- is equal across two processes with different ``PYTHONHASHSEED``;
- differs at the next seed;

and that ``sim_ops_per_s`` and ``kml_gain`` come from that same
simulation (the child processes report the parent's values exactly).

Run from the root of a checkout (about a minute):

    python3 kmlbench/selftest.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import common
import kv


def cell_outcome(name: str, seed: int, repeats: int = 1):
    device, _ = kv.CELLS[name]
    values, op_seed, reference = kv.make_inputs(seed)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as workdir:
        base, model, _ = kv.set_up(device, values, workdir)
    tuning = common.load_tuning()
    cells = [kv.run_cell(base, model, tuning, name, op_seed, reference)
             for _ in range(repeats)]
    return [
        {"fingerprint": c.fingerprint, "sim_ops_per_s": c.agent.throughput,
         "kml_gain": c.kml_gain,
         "failed": c.vanilla.probe.failed + c.agent.probe.failed}
        for c in cells
    ]


def child(name: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name,
         "--seed", str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", choices=tuple(kv.CELLS))
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(cell_outcome(args.child, args.seed)[0]))
        return 0
    ok = True
    for name in kv.CELLS:
        first, repeat = cell_outcome(name, args.seed, repeats=2)
        hashed = [child(name, args.seed, h) for h in ("1", "2")]
        following = child(name, args.seed + 1, "1")
        checks = {
            "repeat in one process": repeat == first,
            "PYTHONHASHSEED=1 and =2 agree with the parent":
                all(h == first for h in hashed),
            "the next seed simulates differently":
                following["fingerprint"] != first["fingerprint"],
            "no failed operations": first["failed"] == 0,
        }
        print(f"{name}: fingerprint {first['fingerprint'][:16]} "
              f"sim_ops_per_s={first['sim_ops_per_s']!r} "
              f"kml_gain={first['kml_gain']!r}")
        for label, passed in checks.items():
            print(f"  {'ok  ' if passed else 'FAIL'} {label}")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
