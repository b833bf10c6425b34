"""Seeded job lists and artifact checks for the three benchmark workloads.

A job is one argument list for ``mchwave.cli.dispatch`` (without
``--out-dir``, which ``run.py`` appends).  Each workload turns a seed into
a fixed list of jobs; the program under test only ever sees those lists.

(k, L) points are drawn as in acceptance criterion 6: k ~ U(0.1, 0.75),
L ~ U(3.2 pi, 10 pi), with draws that fail ``mchwave.validity`` skipped.
A point is never re-drawn because its job later fails: failures are
counted, never filtered.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Criterion-5 windows (k_min, k_max, L_min, L_max); scan sub-windows have
# half their width and height.
SCAN_WINDOWS = ((0.01, 0.2, 3.0 * math.pi, 6.0 * math.pi),
                (0.05, 0.8, 6.0 * math.pi, 10.0 * math.pi))
SPECTRA_SIZES = (256, 512, 1024)
ORBIT_T_END = 10.0
ORBIT_DELTA = 1e-3

# Artifact tolerances.
SIGN_FLOOR = 1e-10          # |pairing| at or below this counts as zero
ORBIT_RHO_LIMIT = 20.0      # criterion 8: sup rho < 20 delta

# Jobs per second of --seconds, calibrated when the benchmark was added so
# that a run lasted about --seconds then.  The job count is fixed by (seed, seconds),
# never by elapsed time, so fail_ratio repeats exactly for a seed.
JOBS_PER_SECOND = {"scan": 1.9, "spectra": 3.0, "orbit": 3.5}
# Every workload cycles with period 1, 2 or 3; 36 jobs put the spectra
# tail percentile (10 jobs beyond it) inside the n=1024 third.
MIN_JOBS = 36

WORK_UNIT = {"scan": "cells", "spectra": "spectra", "orbit": "time units"}

# One fixed, seed-independent job per workload, timed as part of set-up.
WARMUP = {
    "scan": ["scan", "--k-min", "0.3", "--k-max", "0.675", "--L-min", "6pi",
             "--L-max", "8pi", "--nk", "10", "--nL", "10"],
    "spectra": ["spectrum", "--k", "0.5", "--L", "6pi", "--n", "256"],
    "orbit": ["orbit", "--k", "0.5", "--L", "6pi", "--n", "256", "--delta", "1e-3",
              "--t-end", "10", "--monitor-every", "25", "--seed", "0"],
}

WORKLOADS = tuple(WARMUP)

# The reference computation each workload's latencies are divided by (see
# run.py): the kind of work that dominates its traced time split.  scan
# and orbit spend most of their time in interpreter work and small numpy
# calls.  spectra spends about 70% in dense symmetric eigensolves, whose
# speed drifts much less with the host than interpreter work does, so an
# interpreter reference would add the host's drift to it instead of
# removing it.
REFERENCE = {"scan": "interpreter", "spectra": "eigensolver", "orbit": "interpreter"}


def job_count(workload: str, seconds: int) -> int:
    n = max(MIN_JOBS, round(JOBS_PER_SECOND[workload] * seconds))
    return n + (-n % 6)  # whole cycles of both the 2-window and 3-size patterns


def _stratified(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """``count`` points of the unit square, one in each of ``count`` equal
    slices along either axis (a Latin hypercube), in random order.

    Every point is still uniform on the square, but every seed covers both
    axes evenly.  Whether a spectrum job passes depended almost only on k
    when the benchmark was added, so this keeps the share of failing jobs,
    and with it work_per_s, from swinging with the seed.
    """
    rows, cols = list(range(count)), list(range(count))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [((r + rng.random()) / count, (c + rng.random()) / count)
            for r, c in zip(rows, cols)]


def _valid_points(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """``count`` valid (k, L) draws, stratified over k ~ U(0.1, 0.75) and
    L ~ U(3.2 pi, 10 pi).  An invalid draw is redrawn inside its stratum,
    and after 100 invalid tries anywhere in the window."""
    from mchwave import validity
    k_lo, k_hi, l_lo, l_hi = 0.1, 0.75, 3.2 * math.pi, 10.0 * math.pi
    points = []
    for u, v in _stratified(rng, count):
        for attempt in range(10_000):
            k, big_l = k_lo + u * (k_hi - k_lo), l_lo + v * (l_hi - l_lo)
            if validity(k, big_l).all_ok:
                break
            width = 1.0 / count if attempt < 100 else 1.0
            u = u - u % width + width * rng.random()
            v = v - v % width + width * rng.random()
        else:
            raise RuntimeError("no valid (k, L) found in the sampling window")
        points.append((k, big_l))
    return points


def _scan_jobs(rng: random.Random, count: int) -> list[list[str]]:
    offsets = [_stratified(rng, count // 2), _stratified(rng, count - count // 2)]
    jobs = []
    for i in range(count):
        k_lo, k_hi, l_lo, l_hi = SCAN_WINDOWS[i % 2]
        width, height = 0.5 * (k_hi - k_lo), 0.5 * (l_hi - l_lo)
        u, v = offsets[i % 2][i // 2]
        k0, l0 = k_lo + u * width, l_lo + v * height
        jobs.append(["scan", "--k-min", repr(k0), "--k-max", repr(k0 + width),
                     "--L-min", repr(l0), "--L-max", repr(l0 + height),
                     "--nk", "10", "--nL", "10"])
    return jobs


def _spectra_jobs(rng: random.Random, count: int) -> list[list[str]]:
    # Each grid size gets its own stratified set of points.
    groups = [_valid_points(rng, len(range(i, count, 3))) for i in range(3)]
    return [["spectrum", "--k", repr(k), "--L", repr(big_l),
             "--n", str(SPECTRA_SIZES[i % 3])]
            for i, (k, big_l) in ((i, groups[i % 3][i // 3]) for i in range(count))]


def _orbit_jobs(rng: random.Random, count: int) -> list[list[str]]:
    return [["orbit", "--k", repr(k), "--L", repr(big_l), "--n", "256",
             "--delta", repr(ORBIT_DELTA), "--t-end", repr(ORBIT_T_END),
             "--monitor-every", "25", "--seed", str(rng.randrange(2**31))]
            for k, big_l in _valid_points(rng, count)]


_GENERATORS = {"scan": _scan_jobs, "spectra": _spectra_jobs, "orbit": _orbit_jobs}


def job_list(workload: str, seed: int, count: int) -> list[list[str]]:
    """The seed's argument lists; the same (workload, seed, count), the same lists."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, count)


@dataclass
class Verdict:
    """Outcome of one job: pass/fail, the reason, the work done, scan cell counts."""

    passed: bool
    reason: str
    work: float
    cells: int = 0
    finite_cells: int = 0


def strip_timestamp(text: str) -> str:
    """Artifact body without its timestamp line (as tests/test_cli.py compares)."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp") and '"timestamp"' not in line)


class ArtifactError(Exception):
    """An artifact that an exit-0 job must write is missing or unreadable."""


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path.name}: {exc}") from exc


def _load_csv(path: Path) -> list[dict]:
    try:
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    except OSError as exc:
        raise ArtifactError(f"{path.name}: {exc}") from exc
    return list(csv.DictReader(lines))


def _check_scan(out: Path) -> Verdict:
    summary = _load_json(out / "scan_summary.json")
    rows = _load_csv(out / "scan.csv")
    valid_i = [float(r["I"]) for r in rows if r["valid"] == "1"]
    finite = sum(1 for r in rows if math.isfinite(float(r["I"])))
    verdict = Verdict(False, "", 0.0, cells=len(rows), finite_cells=finite)
    if summary["count_cells"] != 100 or len(rows) != 100:
        verdict.reason = f"count_cells={summary['count_cells']}, rows={len(rows)}"
    elif summary["count_positive"] != 0:
        verdict.reason = f"count_positive={summary['count_positive']}"
    elif valid_i and not (max(valid_i) < 0.0 and summary["max_I"] == max(valid_i)):
        verdict.reason = f"max_I={summary['max_I']!r}, max over valid rows={max(valid_i)!r}"
    else:
        verdict.passed, verdict.work = True, float(len(rows))
    return verdict


def _counts(spec: dict) -> tuple[int, int]:
    """(n_neg, z_dim) recounted from the eigenvalues and tolerance in the artifact."""
    tol = spec["tol"]
    vals = spec["eigenvalues"]
    return sum(1 for v in vals if v < -tol), sum(1 for v in vals if abs(v) <= tol)


def _check_spectra(out: Path) -> Verdict:
    body = _load_json(out / "spectrum.json")
    full, restr = body["spectrum"], body["restricted_spectrum"]
    for name, spec in (("spectrum", full), ("restricted_spectrum", restr)):
        if _counts(spec) != (spec["n_neg"], spec["z_dim"]):
            return Verdict(False, f"{name} counts {spec['n_neg']}/{spec['z_dim']} "
                                  f"disagree with its eigenvalues", 0.0)
    if (full["n_neg"], full["z_dim"]) != (1, 1):
        return Verdict(False, f"n(L)={full['n_neg']} z(L)={full['z_dim']}", 0.0)
    if "pairing" not in body:
        return Verdict(False, f"no pairing: {body.get('pairing_error', '?')}", 0.0)
    pairing = body["pairing"]["value"]
    n_pair, z_pair = (0, 1) if abs(pairing) <= SIGN_FLOOR else ((1, 0) if pairing < 0 else (0, 0))
    n_pred = full["n_neg"] - n_pair - z_pair
    z_pred = full["z_dim"] + z_pair
    if (restr["n_neg"], restr["z_dim"]) != (n_pred, z_pred):
        return Verdict(False, f"Morse identities: n(L|Y0)={restr['n_neg']} vs {n_pred}, "
                              f"z(L|Y0)={restr['z_dim']} vs {z_pred}", 0.0)
    return Verdict(True, "", 1.0)


def _check_orbit(out: Path) -> Verdict:
    summary = _load_json(out / "orbit_summary.json")
    rows = _load_csv(out / "orbit.csv")
    if summary["terminated"] != "completed":
        return Verdict(False, f"terminated={summary['terminated']}", 0.0)
    ratio = summary["sup_rho_over_delta"]
    if not ratio < ORBIT_RHO_LIMIT:
        return Verdict(False, f"sup_rho_over_delta={ratio!r}", 0.0)
    sup_csv = max(float(r["rho"]) for r in rows)
    if sup_csv != summary["sup_rho"]:
        return Verdict(False, f"sup rho {summary['sup_rho']!r} vs csv {sup_csv!r}", 0.0)
    return Verdict(True, "", ORBIT_T_END)


_CHECKS = {"scan": _check_scan, "spectra": _check_spectra, "orbit": _check_orbit}


def check_job(workload: str, exit_code: int, out: Path) -> Verdict:
    """Judge one job from its exit code and the artifacts it wrote.

    Raises:
        ArtifactError: an exit-0 job left a required artifact missing or
            unreadable (a harness-level fault, not a counted failure).
    """
    if exit_code != 0:
        return Verdict(False, f"exit code {exit_code}", 0.0)
    return _CHECKS[workload](out)


def artifact_bodies(out: Path) -> dict[str, str]:
    """Every artifact of a job, timestamp line removed, keyed by file name."""
    return {p.name: strip_timestamp(p.read_text()) for p in sorted(out.iterdir())}
