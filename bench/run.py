"""Benchmark drwave end to end through its CLI entry `drwave.cli.run`.

    python3 bench/run.py --workload spectral --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`.  One run is one process: it imports drwave, makes the workload's
warm-up calls (set-up), then repeats the workload's job list for about
--seconds, timing every job and checking its outputs.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs run, "failed": jobs failed, "metrics": {...}}

With --trace 0 the metrics are wall_s, the time of one pass of the job
list, setup_s and peak_rss_mb; both times are in nominal seconds (see
`measure`), and the raw times are printed on the `# raw:` line.  With
--trace 1 every drwave layer listed in tracing.LAYERS is wrapped, one
pass runs, and the metrics are the per-layer table.
Artifacts go to a temporary directory under .bench_work/ in the
checkout, removed at exit.  Workloads run one at a time, one process per
run, with BLAS pinned to BLAS_THREADS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# The yardstick's time on the 2-core Xeon host this benchmark was built
# on, at full speed (the fastest of many timings).
YARDSTICK_NOMINAL_S = 0.035
# The yardstick is the fastest of this many timings, so that a brief
# preemption of the process does not read as a slow host.
YARDSTICK_REPEATS = 3


class Runner:
    """Runs CLI jobs one at a time and checks each one's outputs."""

    def __init__(self, cli, work: Path, reference: dict | None, keep: bool):
        import outputs  # not at the top: it loads numpy, whose import is set-up

        self.cli, self.work, self.reference, self.keep = cli, work, reference, keep
        self.outputs = outputs
        self.attempted = 0
        self.problems: list[str] = []
        self.kept: dict[str, dict] = {}

    def run(self, job) -> float:
        """Run one job; returns the seconds spent inside drwave.cli.run."""
        out_root = self.work / job.id
        os.environ["DRWAVE_OUT_ROOT"] = str(out_root)
        buf = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                status = self.cli.run(list(job.argv))
        except Exception:  # a job that raises is a failed job, not a crashed run
            status = None
            buf.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        files = self.outputs.read_artifacts(out_root)
        ref = (self.reference or {}).get(job.id)
        found = self.outputs.check_job(job, status, buf.getvalue(), files, ref)
        if found:
            self.problems.append(f"{job.id}: " + "; ".join(found)
                                 + f"\n  output: {buf.getvalue().strip()[-400:]}")
        if self.keep and job.id not in self.kept:
            self.kept[job.id] = {"argv": list(job.argv), "files": files}
        shutil.rmtree(out_root, ignore_errors=True)
        return elapsed

    @property
    def failed(self) -> int:
        return len(self.problems)


def host_info(workload) -> dict:
    """Where and on what a result was measured."""
    import hashlib

    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "drwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_rev": rev,
        "src_sha256": src.hexdigest()[:16],
        "seed": workload.seed,
        "seed_use": workload.seed_use,
    }


def yardstick_s() -> float:
    """Seconds taken by a fixed computation that does not touch drwave.

    It mixes interpreted loops, small-array numpy calls and a small
    matrix product, as drwave's hot paths do, and gauges how fast the
    host runs.  Returns the fastest of YARDSTICK_REPEATS timings.
    """
    import numpy as np

    x = np.linspace(0.1, 2.0, 64)
    m = np.random.default_rng(0).random((48, 48))
    best = float("inf")
    for _ in range(YARDSTICK_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(3000):
            acc += float(np.tanh(x * (0.5 + 1e-4 * k)) @ x)
            acc += float((m @ m)[0, 0])
            for j in range(40):
                acc += (k * j) % 7
        best = min(best, time.perf_counter() - t0)
    return best


def measure(workload, seconds: float, traced: bool, work: Path, write_reference: bool):
    """Set up, run the timed passes and return (runner, metrics, raw times).

    On a shared host the speed of every process changes by up to 2x for
    seconds to minutes at a time, with no steal time reported, so raw
    times vary by 30 to 50% between runs.  The yardstick is therefore
    timed after the import and after every drwave call, and each part of
    a reported time is scaled by YARDSTICK_NOMINAL_S over the speed
    around it: the import by the yardstick after it, each call by the
    mean of the yardsticks before and after it.  The times read in seconds on the
    host the benchmark was built on, running at full speed, and a faster
    drwave lowers them in proportion.  The raw times are returned beside
    them.
    """
    t0 = time.perf_counter()
    import drwave.cli

    import_raw = time.perf_counter() - t0
    if Path(drwave.cli.__file__).resolve().parents[2] != ROOT:
        raise RuntimeError(f"drwave was imported from {drwave.cli.__file__}, "
                           f"not from {ROOT / 'src'}")
    import tracing

    sticks = [yardstick_s()]
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    reference = None
    if not write_reference:
        ref_file = REFERENCE / f"{workload.name}.json"
        reference = json.loads(ref_file.read_text(encoding="utf-8"))["jobs"]
    runner = Runner(drwave.cli, work, reference, keep=write_reference)

    def timed(job) -> tuple[float, float]:
        """Run one job: its raw time and its time scaled by the yardsticks around it."""
        before = sticks[-1]
        elapsed = runner.run(job)
        sticks.append(yardstick_s())
        return elapsed, elapsed * YARDSTICK_NOMINAL_S * 2.0 / (before + sticks[-1])

    setup = [(import_raw, import_raw * YARDSTICK_NOMINAL_S / sticks[0])]
    setup += [timed(job) for job in workload.warmup]
    if tracer:
        setup_table = tracer.table()
        setup_table["transform.calibrate_inversion_constant.total_s"] = tracer.total(
            "transform.calibrate_inversion_constant")
        tracer.reset()

    # Repeat the job list until --seconds is spent; the pass time sums
    # each job's median time.
    times: dict[str, list[tuple[float, float]]] = {job.id: [] for job in workload.jobs}
    passes = 0
    start = time.perf_counter()
    while True:
        for job in workload.jobs:
            times[job.id].append(timed(job))
        passes += 1
        spent = time.perf_counter() - start
        if traced or spent * (passes + 1) / passes > seconds:
            break
    raw = {"setup_s": sum(t for t, _ in setup),
           "wall_s": sum(statistics.median(t for t, _ in ts) for ts in times.values())}
    setup_s = sum(t for _, t in setup)
    wall_s = sum(statistics.median(t for _, t in ts) for ts in times.values())

    if write_reference:
        payload = {"seed": workload.seed, "jobs": runner.kept}
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{workload.name}.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer:
        metrics = tracer.table()
        metrics.update({f"setup.{name}": setup_table[name] for name, _ in tracing.SETUP_METRICS})
        metrics.update({"trace.setup_s": setup_s, "trace.wall_s": wall_s,
                        "trace.spans": tracer.spans_before + len(tracer.t0)})
        units = tracing.metric_units()
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(f"# passes: {passes}; yardstick " + ", ".join(f"{x:.4f}" for x in sticks))
    for job_id, ts in [("set-up", setup), *times.items()]:
        print(f"# {job_id} raw, scaled: " + ", ".join(f"{r:.4f} {n:.4f}" for r, n in ts))
    return runner, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's artifacts as the workload's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drwave").is_dir():
        print(f"error: no drwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        runner, metrics, raw = measure(workload, args.seconds, bool(args.trace), work,
                                       args.write_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("# host: " + json.dumps(host_info(workload), sort_keys=True))
    print("# raw: " + json.dumps(raw))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
