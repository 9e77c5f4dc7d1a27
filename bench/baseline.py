"""Run every workload over two sets of seeds and record the baseline.

    python3 bench/baseline.py [--out FILE]

Each run is a fresh `bench/run.py` process, one at a time.  Every
workload in BENCHMARK.json runs on SETS sets of SEEDS seeds each.  For
every workload and end-to-end metric this prints and records each set's
median, quartiles and their distance as a share of the median (the
spread held against the metric's bound in BENCHMARK.json), and the
second set's median against the first's.  TRACED runs of seed 0 give
the per-layer table, whose counts must repeat exactly, and the tracing
overhead (traced over untraced time, less one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS, SETS, TRACED = 10, 2, 2
KNOWN_DEFECTS = [
    "The default-grid `drwave transform` (lambda_max 256, s_max 12) does not finish on "
    "an 8 GB host: its phi kernel alone is 7,824 x 31,296 doubles (2.0 GB). It is not "
    "run here. spherical.phi_matrix.cells in spectral's traced table counts the timed "
    "kernels' size exactly, and their lambda grid follows the same pi/8 rule. "
    "peak_rss_mb does not watch ordinary kernel growth: the timed pass's six phi kernels "
    "hold about 0.5 M cells (4 MB of doubles) in all, while set-up's calibration sets "
    "the peak at about 220 MB, so only a kernel of some 22 MB (2.8 M cells) or more "
    "moves peak_rss_mb past its 0.1 bound.",
]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((ln[len("# host: "):] for ln in lines if ln.startswith("# host: ")), "{}")
    result["host"] = json.loads(host)
    raw = next(ln[len("# raw: "):] for ln in lines if ln.startswith("# raw: "))
    result["raw"] = json.loads(raw)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    layer_units = tracing.metric_units()
    doc = {"run_seconds": SPEC["run_seconds"], "workloads": {},
           "layer_targets": {layer.name: layer.targets for layer in tracing.LAYERS},
           "known_defects": KNOWN_DEFECTS}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        entry = doc["workloads"].setdefault(name, {"sets": []})
        for k in range(SETS):
            seeds = list(range(k * SEEDS, (k + 1) * SEEDS))
            runs = []
            for seed in seeds:
                res = run_once(name, seed, 0)
                doc.setdefault("host", res["host"])
                runs.append({"seed": seed, "attempted": res["attempted"],
                             "failed": res["failed"], "raw": res["raw"],
                             **{m: v["value"] for m, v in res["metrics"].items()}})
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.4f}" for m, v in res["metrics"].items())
                    + f", failed {res['failed']}/{res['attempted']}", flush=True)
                ok &= res["failed"] == 0
            stats = {m: {**summary([r[m] for r in runs]), "unit": bounds[m]["unit"],
                         "bound": bounds[m]["bound"]} for m in bounds}
            stats_raw = {m: summary([r["raw"][m] for r in runs]) for m in runs[0]["raw"]}
            entry["sets"].append({"seeds": seeds, "runs": runs, "summary": stats,
                                  "summary_raw_seconds": stats_raw})
        first = entry["sets"][0]["summary"]
        for m, st in first.items():
            line = f"{name:12s} {m:12s} (bound {st['bound']})"
            for later in entry["sets"]:
                now = later["summary"][m]
                drift = now["median"] / st["median"] - 1.0
                ok &= now["spread"] <= st["bound"]
                ok &= drift <= st["bound"]
                line += (f" | median {now['median']:.4f} {st['unit']}, q1 {now['q1']:.4f}, "
                         f"q3 {now['q3']:.4f}, spread {now['spread']:.4f}, "
                         f"against the first set {drift:+.4f}")
            print(line, flush=True)

        traced = [run_once(name, 0, 1) for _ in range(TRACED)]
        values = [{m: v["value"] for m, v in t["metrics"].items()} for t in traced]
        counts = [{m: v for m, v in val.items() if layer_units[m] == "count"}
                  for val in values]
        repeat = all(c == counts[0] for c in counts)
        ok &= repeat
        layer = {m: {"value": statistics.median(v[m] for v in values),
                     "unit": layer_units[m]} for m in layer_units}
        untraced = entry["sets"][0]["summary"]
        entry["per_layer"] = layer
        entry["counts_repeat_exactly"] = repeat
        entry["tracing_overhead"] = {
            "wall_s": layer["trace.wall_s"]["value"] / untraced["wall_s"]["median"] - 1.0,
            "setup_s": layer["trace.setup_s"]["value"] / untraced["setup_s"]["median"]
            - 1.0}
        for m, v in layer.items():
            print(f"{name:12s} {m} = {v['value']:.6g} {v['unit']}")
        print(f"{name:12s} counts repeat exactly: {repeat}; tracing overhead "
              f"{entry['tracing_overhead']['wall_s']:+.1%} of wall_s, "
              f"{entry['tracing_overhead']['setup_s']:+.1%} of setup_s", flush=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"baseline written to {args.out}; {'all checks hold' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
