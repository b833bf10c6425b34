"""Closed-loop benchmark of the mchwave command line.

One client, one process: each job is one in-process call to
``mchwave.cli.dispatch(argv)``, and the next job starts only after the
previous one returns.  The argument lists come from the workload seed
(``workloads.py``); the harness times each job from outside, then checks
the artifacts it wrote.  Before and after each job it also times a fixed
reference computation that does not use mchwave.  The bounded latency
metrics are job times in units of that reference ("ref"), so that the
host's speed drift cancels out of them; the times in seconds are printed
beside them.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
job list a second time with every layer wrapped (``tracing.py``) and
prints the per-layer metrics.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes ``bench/results/<workload>-seed<n>-trace<t>.json`` with the
environment, the job lists and every job's latency and verdict.

Run it from the root of a checkout: the program is imported from
``src/``, and nothing else is.  See bench/README.md for the metrics.
"""

import os

# The BLAS thread count must be fixed before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NoReturn  # noqa: E402

# Neither module imports numpy at import time.
from tracing import Tracer, layer_metrics, time_split, unit_of  # noqa: E402
from workloads import (REFERENCE, WARMUP, WORK_UNIT, WORKLOADS,  # noqa: E402
                       ArtifactError, artifact_bodies, check_job, job_count, job_list)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_SAMPLES = 5  # one before the jobs, one after each quarter of them
HELD_OUT_SEED = 90001  # never used while developing a change; see README

# The reference computations (see REFERENCE in workloads.py).  Each runs
# before and after every job, and the job's reference time is the mean of
# the two: the host's speed on both sides of the job.  On the 2-vCPU VM of
# bench/README.md the interpreter reference took 25-50 ms as the host's
# speed drifted, and the eigensolver reference about 40 ms.
REF_ROUNDS = 3000   # interpreter: rounds of small numpy calls and a Python sum
REF_EIG_N = 512     # eigensolver: order of the symmetric matrix
REF_EIG_ROUNDS = 2  # eigensolver: eigvalsh calls

# A fresh interpreter that imports mchwave and runs the warm-up job;
# prints the elapsed seconds.  argv: src dir, out dir, job arguments.
_SETUP_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import mchwave.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mchwave.cli.dispatch(sys.argv[3:] + ["--out-dir", sys.argv[2]])
print(repr(time.perf_counter() - t0))
sys.exit(code)
"""


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    if not (SRC / "mchwave" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'mchwave'} is missing "
              "(run from the root of a checkout)")
    sys.path.insert(0, str(SRC))
    import mchwave.cli
    if Path(mchwave.__file__).resolve().parent != (SRC / "mchwave").resolve():
        _fail(f"imported mchwave from {mchwave.__file__}, not from {SRC}")
    return mchwave


def _environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(1 for path in sorted((SRC / "mchwave").rglob("*.py"))
                for line in path.read_text().splitlines() if line.strip())
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "src_mchwave_nonblank_lines": lines,
    }


def _setup_time(workload: str, scratch: Path, index: int) -> float:
    """Import plus one warm-up job in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC),
                           str(scratch / f"setup-{index}"), *WARMUP[workload]],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"set-up job failed with exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _reference_for(workload: str) -> Callable[[], float]:
    """The workload's reference computation, as a function that returns the
    seconds it took.  It never calls mchwave, and it binds numpy's functions
    here, before any tracing starts, so the traced pass does not count it."""
    import numpy as np
    if REFERENCE[workload] == "eigensolver":
        y = np.linspace(0.0, 1.0, REF_EIG_N)
        half = np.cos(np.add.outer(y, 2.0 * y))
        sym, eigvalsh = half + half.T, np.linalg.eigvalsh

        def run() -> float:
            t0 = time.perf_counter()
            for _ in range(REF_EIG_ROUNDS):
                eigvalsh(sym)
            return time.perf_counter() - t0
    else:
        x, sin, total = np.linspace(0.0, 1.0, 256), np.sin, np.sum

        def run() -> float:
            t0 = time.perf_counter()
            for i in range(REF_ROUNDS):
                total(sin(x * i))
                sum(j * j for j in range(20))
            return time.perf_counter() - t0
    return run


def _run_jobs(cli, jobs: list[list[str]], out_root: Path, reference: Callable[[], float],
              tracer=None, first: int = 0) -> list[dict]:
    """Run the jobs one after another, numbering them from ``first``, and time
    the reference computation before and after each job."""
    records = []
    before = reference()
    for i, argv in enumerate(jobs, start=first):
        out = out_root / f"{i:03d}"
        sink_out, sink_err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        code, crash = None, None
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            t0 = time.perf_counter()
            try:
                code = cli.dispatch(argv + ["--out-dir", str(out)])
            except Exception:  # a crash is recorded against the job, the run goes on
                crash = traceback.format_exc()
            latency = time.perf_counter() - t0
        after = reference()
        records.append({"argv": argv, "exit_code": code, "latency_s": latency,
                        "ref_s": (before + after) / 2.0,
                        "stderr": sink_err.getvalue()[-2000:], "crash": crash, "out": out})
        before = after
    return records


def _judge(workload: str, records: list[dict], problems: list[str]) -> None:
    for i, rec in enumerate(records):
        if rec["crash"] is not None:
            problems.append(f"job {i} raised out of dispatch")
            rec["verdict"] = {"passed": False, "reason": "crash", "work": 0.0}
            continue
        try:
            v = check_job(workload, rec["exit_code"], rec["out"])
        except (ArtifactError, KeyError, ValueError) as exc:
            problems.append(f"job {i}: unreadable artifacts ({exc!r})")
            rec["verdict"] = {"passed": False, "reason": f"artifacts: {exc!r}", "work": 0.0}
            continue
        rec["verdict"] = vars(v)


def _compare_bodies(plain: list[dict], traced: list[dict], problems: list[str]) -> int:
    """Compare the traced jobs' artifacts with the bodies the untraced jobs wrote;
    returns the number of jobs compared."""
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a["exit_code"] != b["exit_code"] or a["bodies"] != artifact_bodies(b["out"]):
            problems.append(f"job {i}: traced and untraced outputs differ")
    return len(traced)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    j = max(len(ordered) - 11, 0)
    return ordered[j], 100.0 * (j + 1) / len(ordered), len(ordered) - 1 - j


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    mchwave = _import_program()
    cli = mchwave.cli
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = RESULTS / f"jobs-{workload}-{os.getpid()}"
    problems: list[str] = []
    reference = _reference_for(workload)
    try:
        setup = [_setup_time(workload, scratch, 0)]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.dispatch(WARMUP[workload] + ["--out-dir", str(scratch / "warmup")])

        count = job_count(workload, seconds)
        jobs = job_list(workload, seed, count)
        if job_list(workload, seed, count) != jobs:
            problems.append("the same seed gave different job lists")
        if job_list(workload, seed + 1, count) == jobs:
            problems.append("a different seed gave the same job list")

        # Set-up samples are spread over the run, so that their median, like
        # the jobs, is not taken at one moment of the host's speed drift.
        records = []
        parts = SETUP_SAMPLES - 1
        for part in range(parts):
            lo, hi = part * count // parts, (part + 1) * count // parts
            records += _run_jobs(cli, jobs[lo:hi], scratch, reference, first=lo)
            setup.append(_setup_time(workload, scratch, part + 1))
        _judge(workload, records, problems)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = Tracer()
        # The traced pass writes into the same directories, so the artifact
        # bodies (which record --out-dir) must match byte for byte.
        traced_jobs = jobs if trace else jobs[:1]
        for rec in records[:len(traced_jobs)]:
            rec["bodies"] = artifact_bodies(rec["out"])
        with tracer.installed():
            traced = _run_jobs(cli, traced_jobs, scratch, reference, tracer)
        compared = _compare_bodies(records, traced, problems)

        latencies = [r["latency_s"] for r in records]
        units = [r["latency_s"] / r["ref_s"] for r in records]
        failed = sum(1 for r in records if not r["verdict"]["passed"])
        tail, tail_pct, beyond = _tail(units)
        work = sum(r["verdict"]["work"] for r in records)
        metrics = {
            "job_p50_ref": (statistics.median(units), "ref"),
            "job_tail_ref": (tail, "ref"),
            "work_per_ref": (work / sum(units), "work/ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        seconds_view = {
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": _tail(latencies)[0],
            "work_per_s": work / sum(latencies),
            "ref_p50_s": statistics.median(r["ref_s"] for r in records),
        }
        layers, split = {}, {}
        if trace:
            sizes = {i: int(a[a.index("--n") + 1]) for i, a in enumerate(jobs) if "--n" in a}
            cells = sum(r["verdict"].get("cells", 0) for r in records)
            finite = sum(r["verdict"].get("finite_cells", 0) for r in records)
            layers = layer_metrics(tracer.spans, sizes, cells, finite)
            layers["trace.overhead_ratio"] = (sum(r["latency_s"] / r["ref_s"] for r in traced)
                                              / sum(units) - 1.0)
            split = time_split(tracer.spans)
            tracer.write(RESULTS / f"{workload}-seed{seed}-trace1-spans.tsv.gz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "workload": workload,
        "environment": _environment(seed),
        "seconds": seconds,
        "client": "closed loop, 1 client, in-process",
        "wall_s": sum(latencies),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "work_unit": WORK_UNIT[workload],
        "work": work,
        "tail_percentile": tail_pct,
        "jobs_beyond_tail": beyond,
        "setup_samples_s": setup,
        "traced_compared_jobs": compared,
        "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "seconds_view": seconds_view,
        "per_layer": layers,
        "traced_time_split_s": split,
        "job_records": [{k: v for k, v in r.items() if k not in ("out", "bodies")}
                        for r in records],
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def _report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics by name and unit; return the JSON metrics."""
    w = result["workload"]
    env = result["environment"]
    print(f"[{w}] seed {env['seed']}, {result['attempted']} jobs in {result['wall_s']:.2f} s, "
          f"{result['failed']} failed (fail_ratio {result['fail_ratio']:.4f}), "
          f"numpy {env['numpy']}, {env['blas']}, {env['blas_threads']} BLAS threads, "
          f"nproc {env['nproc']}, src/mchwave {env['src_mchwave_nonblank_lines']} lines")
    for p in result["problems"]:
        print(f"[{w}] PROBLEM: {p}")
    if not trace:
        for name, m in result["end_to_end"].items():
            extra = ""
            if name == "job_tail_ref":
                extra = (f"  (p{result['tail_percentile']:.1f}, "
                         f"{result['jobs_beyond_tail']} of {result['attempted']} jobs beyond)")
            elif name == "work_per_ref":
                extra = f"  ({result['work_unit']} per ref)"
            print(f"[{w}] {name:<14} {m['value']:.6g} {m['unit']}{extra}")
        for name, value in result["seconds_view"].items():
            print(f"[{w}] {name:<14} {value:.6g} {'work/s' if name == 'work_per_s' else 's'}"
                  "  (not bounded: drifts with the host)")
        return result["end_to_end"]
    total = sum(result["traced_time_split_s"].values()) or 1.0
    for layer, secs in sorted(result["traced_time_split_s"].items(), key=lambda kv: -kv[1]):
        print(f"[{w}] time in {layer:<10} {secs:9.4f} s  {100.0 * secs / total:5.1f}%")
    out = {}
    for name, value in result["per_layer"].items():
        unit = unit_of(name)
        print(f"[{w}] {name:<34} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def _run_all(args) -> None:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {w} failed: {proc.stderr[-2000:]}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        _run_all(args)
        return
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = _report(result, bool(args.trace))
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
