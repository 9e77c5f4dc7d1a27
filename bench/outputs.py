"""Output checks behind the benchmark's `failed` count.

A job fails when it raises, when its exit status or verdict differs from
the expected one, when a transform roundtrip misses the oracle bound,
when an artifact holds NaN, or when its artifacts differ from the stored
reference.  References were generated with the default seed; a job is
compared against one only when its argument list is the reference's, so
seed-independent jobs are compared on every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["read_artifacts", "check_job", "roundtrip_error", "REL_TOL", "ROUNDTRIP_MAX"]

REL_TOL = 1e-6          # of each column's largest magnitude (criterion 01's bound)
ROUNDTRIP_MAX = 1e-3    # relative L2(A ds) error of transform's roundtrip
_UNHASHED_KEYS = ("timestamp", "config_hash")


def read_artifacts(out_root: Path) -> dict[str, str]:
    """Name -> text of every artifact a CLI call wrote under out_root."""
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(out_root.glob("*/*")) if p.is_file()}


def _csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _numeric(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _density(m_v: int, m_z: int, s: np.ndarray) -> np.ndarray:
    k = m_v + m_z
    return 2.0**k * np.sinh(s / 2.0) ** k * np.cosh(s / 2.0) ** m_z


def roundtrip_error(text: str, m_v: int, m_z: int) -> float:
    """Relative L2(A ds) distance of roundtrip.csv's inverse from its reference."""
    header, rows = _csv_table(text)
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    s, w = cols["s"], _density(m_v, m_z, cols["s"])
    err2 = (cols["re"] - cols["reference"]) ** 2 + cols["im"] ** 2
    return float(np.sqrt(np.trapezoid(err2 * w, s) / np.trapezoid(cols["reference"] ** 2 * w, s)))


def _compare_csv(name: str, got: str, ref: str) -> list[str]:
    g_head, g_rows = _csv_table(got)
    r_head, r_rows = _csv_table(ref)
    if g_head != r_head or len(g_rows) != len(r_rows):
        return [f"{name}: header or row count differs from the reference"]
    problems = []
    for j, col in enumerate(r_head):
        r_col = [row[j] for row in r_rows]
        g_col = [row[j] for row in g_rows]
        r_num, g_num = _numeric(r_col), _numeric(g_col)
        if r_num is None or g_num is None:
            if r_col != g_col:
                problems.append(f"{name}:{col}: text differs from the reference")
            continue
        scale = max((abs(v) for v in r_num if math.isfinite(v)), default=0.0)
        worst = max(_distance(a, b) for a, b in zip(g_num, r_num))
        if worst > REL_TOL * scale:
            problems.append(f"{name}:{col}: off the reference by {worst:.3g} "
                            f"(tolerance {REL_TOL * scale:.3g})")
    return problems


def _has_nan(text: str) -> bool:
    for row in _csv_table(text)[1]:
        for cell in row:
            try:
                if math.isnan(float(cell)):
                    return True
            except ValueError:
                pass
    return False


def _distance(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def _compare_json(path: str, got, ref) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ from the reference"]
        return [p for k in sorted(ref) if k not in _UNHASHED_KEYS
                for p in _compare_json(f"{path}.{k}", got[k], ref[k])]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in _compare_json(f"{path}[{i}]", g, r)]
    if isinstance(ref, float) and isinstance(got, (int, float)):
        d = _distance(float(got), ref)
        return [] if d <= REL_TOL * abs(ref) else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def _verdict(job, stdout: str, files: dict[str, str]) -> str | None:
    if job.argv[0] == "experiment":
        report = files.get(f"{job.argv[1]}.json")
        return json.loads(report)["verdict"] if report else None
    # oscillatory-claim ends its summary line with "-> <verdict>"
    return stdout.strip().rpartition("-> ")[2] or None


def check_job(job, status: int, stdout: str, files: dict[str, str],
              reference: dict | None) -> list[str]:
    """Every problem found with one finished job; empty when it passed."""
    problems = []
    if status != job.status:
        problems.append(f"exit status {status}, expected {job.status}")
    if job.verdict is not None and _verdict(job, stdout, files) != job.verdict:
        problems.append(f"verdict {_verdict(job, stdout, files)!r}, expected {job.verdict!r}")
    if job.roundtrip is not None:
        rel = roundtrip_error(files["roundtrip.csv"], *job.roundtrip) \
            if "roundtrip.csv" in files else math.inf
        if not rel < ROUNDTRIP_MAX:
            problems.append(f"roundtrip error {rel:.3g} >= {ROUNDTRIP_MAX}")
    for name, text in files.items():
        if name.endswith(".csv") and _has_nan(text):
            problems.append(f"{name}: NaN in the artifact")
    if reference is None:
        return problems
    if sorted(files) != sorted(reference["files"]):
        problems.append(f"artifacts {sorted(files)}, expected {sorted(reference['files'])}")
    elif reference["argv"] == list(job.argv):
        for name, ref_text in reference["files"].items():
            if name.endswith(".csv"):
                problems += _compare_csv(name, files[name], ref_text)
            else:
                problems += _compare_json(name, json.loads(files[name]), json.loads(ref_text))
    return problems
