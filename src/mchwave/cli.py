"""Command-line front end.

Subcommands construct waves, reproduce the index scan, dump spectra and
Krein reports, and run evolution experiments, writing reproducible CSV
and JSON artifacts.  Every artifact starts with a provenance header
(tool version, full parameter set, timestamp); identical arguments and
seeds reproduce byte-identical bodies apart from the timestamp line.

Exit codes: 0 success, 1 domain or validation error, 2 numerical
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, evolve as evolve_mod, indices, linop, wave as wave_mod
from .errors import DomainError, NumericalError
from .field import PeriodicGrid, fractional_shift, sample_wave

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class UsageExit(SystemExit):
    def __init__(self, message: str):
        print(f"usage error: {message}", file=sys.stderr)
        super().__init__(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: an unknown option such as --h must be a usage
        # error, not an abbreviation of --help
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        raise UsageExit(message)


def parse_length(text: str) -> float:
    """Parse a length; a trailing 'pi' means multiples of pi ('6pi', 'pi')."""
    s = text.strip().lower()
    if s.endswith("pi"):
        head = s[:-2]
        factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
        return factor * math.pi
    return float(s)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _provenance(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    return {
        "tool_version": __version__,
        "command": args.command,
        "parameters": {k: (_fmt(v) if isinstance(v, float) else v) for k, v in params.items()},
    }


def _json_text(value, level: int = 0) -> str:
    """``json.dumps(value, indent=1)``, byte for byte, for a value at nesting
    ``level`` whose dict keys are all str.

    With an indent, ``json`` encodes in pure Python.  Here a list of only
    ints and floats is one C-level ``json.dumps`` split at its ", ", which
    no number's JSON text contains; everything else goes through the
    scalar encoders ``json`` itself uses, with its TypeError for a value it
    cannot encode.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        return "-Infinity" if value == -math.inf else float.__repr__(value)
    inner = "\n" + " " * (level + 1)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} <= {float, int}:
            items = json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            items = ("," + inner).join([_json_text(v, level + 1) for v in value])
        return "[" + inner + items + inner[:-1] + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(v, level + 1)
             for k, v in value.items()]) + inner[:-1] + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def write_json(path: Path, payload: dict, args: argparse.Namespace) -> None:
    body = dict(_provenance(args))
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    body.update(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # indent=1 keeps the timestamp on its own line, so byte comparisons
    # can exclude exactly that line.
    path.write_text(_json_text(body) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list], args: argparse.Namespace) -> None:
    lines = []
    prov = _provenance(args)
    lines.append(f"# tool_version: {prov['tool_version']}")
    lines.append(f"# command: {prov['command']}")
    for key, val in prov["parameters"].items():
        lines.append(f"# {key}: {val}")
    lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}")
    lines.append(",".join(header))
    if rows:
        # one % pass over every cell, with the conversion _fmt picks per cell
        template = "\n".join(",".join(["%.17g" if isinstance(v, float) else "%s" for v in row])
                             for row in rows)
        lines.append(template % tuple(v for row in rows for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _spectral_payload(rep: linop.SpectralReport) -> dict:
    if np.iscomplexobj(rep.eigenvalues):
        eig = {
            "eigenvalues_re": rep.eigenvalues.real.tolist(),
            "eigenvalues_im": rep.eigenvalues.imag.tolist(),
        }
    else:
        eig = {"eigenvalues": rep.eigenvalues.tolist()}
    return {
        **eig,
        "n_neg": rep.n_neg,
        "z_dim": rep.z_dim,
        "tol": rep.tol,
        "near_zero_gap": rep.near_zero_gap,
        "grid": {"L": rep.grid.L, "n": rep.grid.n},
    }


def cmd_wave(args: argparse.Namespace) -> int:
    p, rep = wave_mod._nonconstant_wave(args.k, args.L)
    if not rep.all_ok:
        print(f"invalid wave at (k={args.k}, L={args.L}): "
              f"ineq_i={rep.ineq_i_value!r} ineq_ii_margin={rep.ineq_ii_margin!r}")
        return EXIT_DOMAIN
    residual = wave_mod.ode_residual(p, n=max(args.n, 512))
    sn = wave_mod.snoidal_form(p)
    grid = PeriodicGrid(p.L, args.n)
    phi = sample_wave(p, grid)
    payload = {
        "wave": dataclasses.asdict(p),
        "snoidal": dataclasses.asdict(sn),
        "validity": dataclasses.asdict(rep),
        "ode_residual": residual,
        "profile": {
            "grid": {"L": grid.L, "n": grid.n},
            "x": [float(v) for v in grid.nodes],
            "values": [float(v) for v in phi.values],
        },
    }
    out = Path(args.out_dir) / "wave.json"
    write_json(out, payload, args)
    write_csv(Path(args.out_dir) / "wave_profile.csv", ["x", "value"],
              [[float(x), float(v)] for x, v in zip(grid.nodes, phi.values)], args)
    print(f"wave (k={p.k}, L={p.L}): a={p.a:.6g} b={p.b:.6g} c={p.c:.6g} A={p.A:.6g} "
          f"residual={residual:.3e} -> {out}")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    samples, summary = indices.index_scan(args.k_min, args.k_max, args.L_min, args.L_max,
                                          args.nk, args.nL)
    out_csv = Path(args.out_dir) / "scan.csv"
    write_csv(out_csv,
              ["k", "L", "I", "valid", "dA_dk", "dc_dk", "dV_dk", "dF_dk"],
              [[s.k, s.L, s.I, int(s.valid), s.dA_dk, s.dc_dk, s.dV_dk, s.dF_dk]
               for s in samples], args)
    write_json(Path(args.out_dir) / "scan_summary.json", dataclasses.asdict(summary), args)
    print(f"scan {args.nk}x{args.nL}: max I = {summary.max_I!r} "
          f"({summary.count_invalid} invalid cells) -> {out_csv}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    p, rep = indices._wave_and_validity(args.k, args.L)
    op = linop.operator_for(p, args.n)
    full = linop.spectrum(op)
    restr = linop.restricted_spectrum(op)
    payload = {
        "wave": dataclasses.asdict(p),
        "validity": dataclasses.asdict(rep),
        "operator": {"reflection_defect": op.reflection_defect},
        "spectrum": _spectral_payload(full),
        "restricted_spectrum": _spectral_payload(restr),
        "pairing": dataclasses.asdict(linop.inv_one_pairing(op)),
    }
    if args.evolution:
        payload["evolution_spectrum"] = _spectral_payload(linop.evolution_spectrum(op))
    out = Path(args.out_dir) / "spectrum.json"
    write_json(out, payload, args)
    print(f"spectrum (k={args.k}, L={args.L}, n={args.n}): n(L)={full.n_neg} "
          f"z(L)={full.z_dim} n(L|Y0)={restr.n_neg} z(L|Y0)={restr.z_dim} -> {out}")
    return EXIT_OK


def cmd_krein(args: argparse.Namespace) -> int:
    rep = indices.krein_index(args.k, n=args.n)
    payload = {"krein": dataclasses.asdict(rep)}
    out = Path(args.out_dir) / "krein.json"
    write_json(out, payload, args)
    print(f"krein (k={args.k}): classification={rep.classification} "
          f"K_Ham={rep.K_Ham} L*={rep.L_star!r} -> {out}")
    return EXIT_OK


def _run_report_rows(report) -> list[list]:
    rows = []
    for i, t in enumerate(report.times):
        rho = report.rho[i] if report.rho is not None else math.nan
        rows.append([float(t), float(rho), float(report.drift_E[i]),
                     float(report.drift_F[i]), float(report.drift_V[i])])
    return rows


def _run_setup(args: argparse.Namespace) -> tuple:
    """The wave of ``evolve`` and ``orbit``, its samples on n nodes, and the
    run config, whose dt defaults to :func:`mchwave.evolve.suggested_dt`."""
    p = wave_mod.wave_params(args.k, args.L)
    u0 = sample_wave(p, PeriodicGrid(p.L, args.n))
    dt = args.dt if args.dt is not None else evolve_mod.suggested_dt(u0, speed=p.c)
    return p, u0, evolve_mod.EvolutionConfig(dt=dt, t_end=args.t_end,
                                             monitor_every=args.monitor_every)


def cmd_evolve(args: argparse.Namespace) -> int:
    p, u0, cfg = _run_setup(args)
    traj, report = evolve_mod.run(u0, cfg, reference=p)
    prop_err = 0.0
    for t, fld in zip(traj.times, traj.fields):
        exact = fractional_shift(u0, -p.c * t)
        prop_err = max(prop_err, float(np.max(np.abs(fld.values - exact.values))))
    out_csv = Path(args.out_dir) / "evolve.csv"
    write_csv(out_csv, ["t", "rho", "drift_E", "drift_F", "drift_V"],
              _run_report_rows(report), args)
    summary = {
        "terminated": report.terminated,
        "dt": cfg.dt,
        "max_propagation_error": prop_err,
        "max_drift_E": float(np.max(np.abs(report.drift_E))),
        "max_drift_F": float(np.max(np.abs(report.drift_F))),
        "max_drift_V": float(np.max(np.abs(report.drift_V))),
    }
    write_json(Path(args.out_dir) / "evolve_summary.json", summary, args)
    print(f"evolve (k={args.k}, L={args.L}, n={args.n}, t_end={args.t_end}): "
          f"{report.terminated}, propagation error {prop_err:.3e} -> {out_csv}")
    return EXIT_OK if report.terminated == evolve_mod.TERMINATED_COMPLETED else EXIT_NUMERICAL


def cmd_orbit(args: argparse.Namespace) -> int:
    p, _, cfg = _run_setup(args)
    report = evolve_mod.orbital_experiment(p, args.delta, args.seed, cfg, n=args.n,
                                           rho_factor=args.rho_factor)
    out_csv = Path(args.out_dir) / "orbit.csv"
    write_csv(out_csv, ["t", "rho", "drift_E", "drift_F", "drift_V"],
              _run_report_rows(report), args)
    sup_rho = float(np.max(report.rho)) if report.rho is not None and report.rho.size else math.nan
    summary = {
        "terminated": report.terminated,
        "dt": cfg.dt,
        "delta": args.delta,
        "seed": args.seed,
        "sup_rho": sup_rho,
        "sup_rho_over_delta": sup_rho / args.delta if args.delta > 0 else math.nan,
    }
    write_json(Path(args.out_dir) / "orbit_summary.json", summary, args)
    print(f"orbit (k={args.k}, L={args.L}, delta={args.delta}, seed={args.seed}): "
          f"{report.terminated}, sup rho = {sup_rho:.6e} -> {out_csv}")
    return EXIT_OK if report.terminated == evolve_mod.TERMINATED_COMPLETED else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mchwave", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out-dir", default=".", help="artifact directory")

    sp = sub.add_parser("wave", help="construct one wave and report residual/validity")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--L", type=parse_length, required=True)
    sp.add_argument("--n", type=int, default=256)
    add_common(sp)
    sp.set_defaults(func=cmd_wave)

    sp = sub.add_parser("scan", help="stability-index grid scan")
    sp.add_argument("--k-min", type=float, required=True)
    sp.add_argument("--k-max", type=float, required=True)
    sp.add_argument("--L-min", type=parse_length, required=True)
    sp.add_argument("--L-max", type=parse_length, required=True)
    sp.add_argument("--nk", type=int, default=20)
    sp.add_argument("--nL", type=int, default=20)
    add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("spectrum", help="linearized-operator spectra and counts")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--L", type=parse_length, required=True)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--evolution", action="store_true",
                    help="also dump the complex spectrum of J L, J = dx (1 - dx^2)^-1, on Y0")
    add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("krein", help="zero-mean branch, d''(c) and Krein index")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--n", type=int, default=256)
    add_common(sp)
    sp.set_defaults(func=cmd_krein)

    sp = sub.add_parser("evolve", help="propagate the exact wave; conservation check")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--L", type=parse_length, required=True)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=5.0)
    sp.add_argument("--monitor-every", type=int, default=20)
    add_common(sp)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("orbit", help="orbital-stability experiment")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--L", type=parse_length, required=True)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--delta", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=50.0)
    sp.add_argument("--monitor-every", type=int, default=25)
    sp.add_argument("--rho-factor", type=float, default=50.0)
    add_common(sp)
    sp.set_defaults(func=cmd_orbit)
    return parser


_PARSER: argparse.ArgumentParser | None = None


def dispatch(argv: list[str]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except UsageExit:
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
