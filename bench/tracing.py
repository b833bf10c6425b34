"""Span tracing of the mchwave layers, installed from outside the package.

``Tracer.installed()`` wraps every function defined in the layer modules
(plus the non-dunder methods and ``__call__`` of their classes) and
numpy's eigensolver and FFT entry points.  A wrapper is put on every
``mchwave`` module namespace that binds the function (``indices`` binds
``assemble_l``, ``evolve`` binds ``_orbit_distance``, the package binds
most public names), and every patch is undone when the block exits.

Each wrapped call appends one span ``[name, job, parent, start, end, info,
error]`` to an in-memory list; ``info`` holds a per-call size where one is
measured (points for ``jacobi``, n for an eigensolve, bytes for an
artifact write) and ``error`` the exception class name if the call raised.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("elliptic", "wave", "field", "linop", "indices", "evolve", "cli")
EIGEN = ("eigh", "eigvalsh", "eigvals", "eig")
FFT = ("fft", "ifft", "rfft", "irfft")

NAME, JOB, PARENT, START, END, INFO, ERROR = range(7)


def _size(args, kwargs):
    import numpy as np
    return int(np.size(args[0])) if args else 0


def _dim(args, kwargs):
    return int(args[0].shape[0]) if args else 0


def _written(args, kwargs):
    return Path(args[0]).stat().st_size


# Per-call sizes recorded in a span's INFO field (evaluated after the call).
_INFO = {"elliptic.jacobi": _size, "cli.write_json": _written, "cli.write_csv": _written}
_INFO.update({f"kernel.{name}": _dim for name in EIGEN})


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.job, stack[-1] if stack else -1, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, kwargs)
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        import numpy as np
        patches: list[tuple[object, str, object]] = []
        wrappers: dict[int, object] = {}
        try:
            for layer in LAYERS:
                mod = importlib.import_module(f"mchwave.{layer}")
                for attr, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    elif inspect.isclass(obj):
                        for meth, fn in list(vars(obj).items()):
                            if inspect.isfunction(fn) and (meth == "__call__"
                                                           or not meth.startswith("__")):
                                patches.append((obj, meth, fn))
                                setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mchwave" or mod_name.startswith("mchwave.")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None and wrapper.__wrapped__ is obj:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
            for owner, names in ((np.linalg, EIGEN), (np.fft, FFT)):
                for attr in names:
                    fn = getattr(owner, attr)
                    patches.append((owner, attr, fn))
                    setattr(owner, attr, self.wrap(f"kernel.{attr}", fn))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, one per span in start
        order.  ``parent`` is the 0-based line number of the parent span (-1
        for none); times are nanoseconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tjob\tparent\tstart_ns\tend_ns\tinfo\terror\n")
            fh.writelines(
                f"{s[NAME]}\t{s[JOB]}\t{s[PARENT]}\t{round((s[START] - t0) * 1e9)}"
                f"\t{round((s[END] - t0) * 1e9)}\t{'' if s[INFO] is None else s[INFO]}"
                f"\t{s[ERROR] or ''}\n" for s in self.spans)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def owning_layer(spans: list[list]) -> list[str]:
    """For each span, the nearest enclosing mchwave layer (its own for layer spans)."""
    owner: list[str] = []
    for s in spans:  # parents always precede children
        layer = s[NAME].split(".", 1)[0]
        if layer in LAYERS:
            owner.append(layer)
        else:
            owner.append(owner[s[PARENT]] if s[PARENT] >= 0 else "")
    return owner


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], job_sizes: dict[int, int], cells: int,
                  finite_cells: int) -> dict[str, float]:
    """Per-layer counts, sizes and self times (seconds) of one traced pass.

    ``job_sizes`` maps a job id to its grid size n (spectra jobs) for the
    per-n split of linop self time; ``cells`` and ``finite_cells`` come
    from the scan artifacts.
    """
    own = self_times(spans)
    owner = owning_layer(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    info_sum: dict[str, float] = defaultdict(float)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    fft_by_owner: dict[str, int] = defaultdict(int)
    fft_s_by_owner: dict[str, float] = defaultdict(float)
    fft_in_orbit_distance = 0
    linop_by_n: dict[int, float] = defaultdict(float)
    eig_n3 = 0.0

    in_orbit_distance = [False] * len(spans)
    for i, s in enumerate(spans):
        name = s[NAME]
        parent = s[PARENT]
        in_orbit_distance[i] = name == "field._orbit_distance" or (
            parent >= 0 and in_orbit_distance[parent])
        calls[name] += 1
        self_by_name[name] += own[i]
        self_by_layer[name.split(".", 1)[0]] += own[i]
        if s[INFO] is not None:
            info_sum[name] += s[INFO]
        if s[ERROR]:
            errors[(name, s[ERROR])] += 1
        if name.split(".", 1)[0] == "linop":
            linop_by_n[job_sizes.get(s[JOB], 0)] += own[i]
        if name.startswith("kernel.") and name[7:] in FFT:
            fft_by_owner[owner[i]] += 1
            fft_s_by_owner[owner[i]] += own[i]
            fft_in_orbit_distance += in_orbit_distance[i]
        if name.startswith("kernel.") and name[7:] in EIGEN:
            eig_n3 += (s[INFO] or 0) ** 3 / 1e9

    eig_calls = sum(calls[f"kernel.{e}"] for e in EIGEN)
    fft_calls = sum(calls[f"kernel.{f}"] for f in FFT)
    rk4 = calls["evolve._rk4_step"]
    n_od = calls["field._orbit_distance"]
    return {
        "elliptic.jacobi.calls": calls["elliptic.jacobi"],
        "elliptic.jacobi.points": info_sum["elliptic.jacobi"],
        "elliptic.jacobi.self_s": self_by_name["elliptic.jacobi"],
        "elliptic.k_e.calls": calls["elliptic.complete_k_e"],
        "elliptic.self_s": self_by_layer["elliptic"],
        "wave.wave_params.calls": calls["wave.wave_params"],
        "wave.profile.calls": calls["wave.profile"],
        "wave.validity.calls": calls["wave.validity"],
        "wave.fd_dk.calls": calls["wave.fd_dk"],
        "wave.fd_gate_failures": errors[("wave.fd_dk", "AccuracyError")],
        "wave.self_s": self_by_layer["wave"],
        "indices.stability_index.calls": calls["indices.stability_index"],
        "indices.profile_per_cell": _ratio(calls["wave.profile"], cells),
        "indices.valid_cell_ratio": _ratio(finite_cells, cells),
        "indices.self_s": self_by_layer["indices"],
        "linop.assemble_l.calls": calls["linop.assemble_l"],
        "linop.assemble_l.self_s": self_by_name["linop.assemble_l"],
        "linop.fourier_diff_matrix.self_s": self_by_name["linop.fourier_diff_matrix"],
        "linop.restricted_spectrum.self_s": self_by_name["linop.restricted_spectrum"],
        "linop.inv_one_pairing.self_s": self_by_name["linop.inv_one_pairing"],
        "linop.eig.calls": eig_calls,
        "linop.eig_per_operator": _ratio(eig_calls, calls["linop.assemble_l"]),
        "linop.eig_s": sum(self_by_name[f"kernel.{e}"] for e in EIGEN),
        "linop.eig_n3_g": eig_n3,
        "linop.fft_s": fft_s_by_owner["linop"],
        "linop.rank_errors": errors[("linop.inv_one_pairing", "RankError")],
        "linop.self_s.n256": linop_by_n[256],
        "linop.self_s.n512": linop_by_n[512],
        "linop.self_s.n1024": linop_by_n[1024],
        "linop.self_s": self_by_layer["linop"],
        "field.functionals.calls": calls["field.functionals"],
        "field.orbit_distance.calls": n_od,
        "field.orbit_distance.fft_per_call": _ratio(fft_in_orbit_distance, n_od),
        "field.self_s": self_by_layer["field"],
        "evolve.rhs.calls": calls["evolve._RhsOperator.__call__"],
        "evolve.rhs.self_s": self_by_name["evolve._RhsOperator.__call__"],
        "evolve.rk4_steps": rk4,
        "evolve.fft_per_step": _ratio(fft_by_owner["evolve"], rk4),
        "evolve.self_s": self_by_layer["evolve"],
        "cli.write.self_s": self_by_name["cli.write_json"] + self_by_name["cli.write_csv"],
        "cli.bytes_written": info_sum["cli.write_json"] + info_sum["cli.write_csv"],
        "cli.self_s": self_by_layer["cli"],
        "kernel.fft.calls": fft_calls,
        "kernel.fft_s": sum(self_by_name[f"kernel.{f}"] for f in FFT),
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith("_ratio") or "_per_" in name:
        return "1"
    return {"linop.eig_n3_g": "Gn3", "cli.bytes_written": "B"}.get(name, "count")


def time_split(spans: list[list]) -> dict[str, float]:
    """Seconds of traced job time by layer; kernel calls split into eig and fft."""
    own = self_times(spans)
    split: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        layer, _, rest = s[NAME].partition(".")
        if layer == "kernel":
            layer = "kernel.eig" if rest in EIGEN else "kernel.fft"
        split[layer] += t
    return dict(split)
