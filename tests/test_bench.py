"""The benchmark's tracer reads the package by name: those names must resolve,
and a metric that reads 0 on every workload must be known to."""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from mchwave import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# Tables of bench/tracing.py that are read by a traced name.
TABLES = {"calls", "self_by_name", "info_sum", "errors"}
# The traced names that no longer resolve: the functions were renamed or
# folded into others, so their per-layer metrics read 0 (ROADMAP item 1b).
STALE = {"wave.wave_params", "wave.fd_dk", "linop.fourier_diff_matrix", "evolve._rk4_step"}
# Jobs per workload in the traced pass: spectra's three take n = 256, 512, 1024.
TRACED_JOBS = {"scan": 2, "spectra": 3, "orbit": 2}
# The per-layer metrics that read 0 on every workload, and why.
ZERO_METRICS = {
    "elliptic.jacobi.calls": "profile reads sn, cn and dn through _k_e_jacobi",
    "elliptic.jacobi.points": "profile reads sn, cn and dn through _k_e_jacobi",
    "elliptic.jacobi.self_s": "profile reads sn, cn and dn through _k_e_jacobi",
    "evolve.rk4_steps": "it counts _rk4_step, which is deleted",
    "evolve.fft_per_step": "it divides by the calls of the deleted _rk4_step",
    "field.functionals.calls": "run uses _functionals",
    "indices.stability_index.calls": "scan goes through _index_cells",
    "indices.profile_per_cell": "scan samples no profile",
    "linop.fourier_diff_matrix.self_s": "fourier_diff_matrix is deleted",
    "linop.rank_errors": "inv_one_pairing raises no RankError",
    "wave.fd_dk.calls": "the finite-difference path is deleted",
    "wave.fd_gate_failures": "the finite-difference path is deleted",
    "wave.validity.calls": "jobs call wave_at",
    "wave.wave_params.calls": "wave_params is deleted",
}


def bench_module(name: str):
    """bench/<name>.py, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def traced_names() -> set[str]:
    """Every literal name ``layer.attr[.attr]`` that bench/tracing.py looks up
    in its tables or keys ``_INFO`` with, but the numpy kernels."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        keys = []
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in TABLES:
            key = node.slice
            keys = [key.elts[0] if isinstance(key, ast.Tuple) else key]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and any(getattr(t, "id", None) == "_INFO" for t in node.targets):
            keys = node.value.keys
        names.update(key.value for key in keys
                     if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return {name for name in names if not name.startswith("kernel.")}


def resolves(name: str) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"mchwave.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_traced_names_resolve():
    names = traced_names()
    assert {"elliptic.complete_k_e", "wave.profile", "wave.validity",
            "evolve._RhsOperator.__call__", "cli.write_json"} <= names
    assert {name for name in names if not resolves(name)} == STALE


def traced_metrics(tracing, workloads, workload: str, out_root: Path) -> dict:
    """The per-layer metrics of a short traced pass of the seed-1 jobs, built
    as bench/run.py builds them."""
    jobs = workloads.job_list(workload, 1, TRACED_JOBS[workload])
    tracer, verdicts = tracing.Tracer(), []
    with tracer.installed():
        for i, argv in enumerate(jobs):
            tracer.job = i
            out = out_root / f"{workload}-{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(argv + ["--out-dir", str(out)])
            verdicts.append(workloads.check_job(workload, code, out))
    assert all(v.passed for v in verdicts), [v.reason for v in verdicts]
    sizes = {i: int(a[a.index("--n") + 1]) for i, a in enumerate(jobs) if "--n" in a}
    return tracing.layer_metrics(tracer.spans, sizes, sum(v.cells for v in verdicts),
                                 sum(v.finite_cells for v in verdicts))


def test_metrics_that_read_zero(tmp_path):
    tracing, workloads = bench_module("tracing"), bench_module("workloads")
    metrics = {w: traced_metrics(tracing, workloads, w, tmp_path) for w in TRACED_JOBS}
    assert {len(m) for m in metrics.values()} == {len(metrics["scan"])}
    zero = {name for name in metrics["scan"] if all(m[name] == 0 for m in metrics.values())}
    assert zero == set(ZERO_METRICS)
