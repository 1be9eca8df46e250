"""Record the benchmark's baseline ledger.

Runs every workload of ``BENCHMARK.json`` on seeds 1..SEEDS (untraced)
in SETS sets (the sets' medians must agree within each metric's bound),
one traced run per workload, and a determinism probe on PROBE_SEED, a
seed the benchmark was not tuned on; writes ``perfbench/ledger.json``
with the
medians, quartiles and spreads of every end-to-end metric, the
per-layer figures, the layer-metric -> end-to-end-metric -> workload
map, the sim digests, and the mesh storm's health-sweep cost against
its per-session cost.  Runs one process at a time.

Usage (from the repository root)::

    python3 perfbench/ledger.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = HERE / "ledger.json"
SEEDS = 10
SETS = 2
PROBE_SEED = 9001


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, *spec["command"][1:], "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    out = json.loads(lines[-1])
    out["lines"] = lines[:-1]
    for line in lines:
        if line.startswith("sim_digest="):
            out["digest"] = line.split("=", 1)[1]
        if line.startswith("sim_round_digests="):
            out["round_digests"] = line.split("=", 1)[1].split(",")
        if line.startswith("health_sweeps="):
            out["health"] = dict(field.split("=") for field in line.split())
    print(f"{workload} seed={seed} trace={trace} correct={out['correct']}", flush=True)
    return out


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from run import PER_LAYER

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ledger = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
                       for m in spec["end_to_end"]},
        "layer_map": {},
        "baseline": {}, "per_layer": {}, "sim_digests": {}, "sim_digests_repeat": {},
        "determinism": {},
    }
    for m in spec["per_layer"]:
        metric, _, on = PER_LAYER[m["name"]][0].partition("@")
        ledger["layer_map"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                          "moves": metric,
                                          "on": on.split(",") if on else []}
    for workload in ledger["workloads"]:
        sets = [[run_once(spec, workload, seed, 0) for seed in range(1, SEEDS + 1)]
                for _ in range(SETS)]
        runs = sets[0]
        stats = {}
        for name in bounds:
            per_set = [spread([r["metrics"][name]["value"] for r in set_runs])
                       for set_runs in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            change = (last - first) / first
            stats[name] = {
                "sets": per_set,
                "spreads_within_third_of_bound": all(
                    s["spread"] < bounds[name] / 3 for s in per_set),
                "last_median_change": change,
                "medians_agree_within_bound": abs(change) <= bounds[name],
            }
        ledger["baseline"][workload] = stats
        ledger["sim_digests"][workload] = {str(seed): r["digest"]
                                          for seed, r in enumerate(runs, start=1)}
        ledger["sim_digests_repeat"][workload] = all(
            a["digest"] == b["digest"] for a, b in zip(sets[0], sets[-1]))
        if all("health" in r for r in runs):
            ledger["health_sweep_split"] = {
                "sessions": int(runs[0]["health"].get("sessions", 0)) or None,
                "sweeps_per_run": int(runs[0]["health"]["health_sweeps"]),
                "sweep_wall_s": spread([float(r["health"]["sweep_wall_s"]) for r in runs]),
                "per_session_wall_ms": spread(
                    [float(r["health"]["per_session_wall_ms"]) for r in runs]),
            }
        traced = run_once(spec, workload, 1, 1)
        ledger["per_layer"][workload] = {name: m["value"]
                                         for name, m in traced["metrics"].items()}
        # A traced run covers the first round of its untraced twin.
        probe = [run_once(spec, workload, PROBE_SEED, trace) for trace in (0, 0, 1)]
        ledger["determinism"][workload] = {
            "seed": PROBE_SEED,
            "digests": [r["digest"] for r in probe[:2]],
            "first_round_digests": [r["round_digests"][0] for r in probe],
            "equal": (probe[0]["digest"] == probe[1]["digest"]
                      and len({r["round_digests"][0] for r in probe}) == 1),
            "traced_equals_untraced_seed_1":
                traced["round_digests"][0] == runs[0]["round_digests"][0],
        }
    OUTPUT.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
