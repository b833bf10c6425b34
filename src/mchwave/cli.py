"""Command-line front end.

Subcommands construct waves, reproduce the index scan, dump spectra and
Krein reports, and run evolution experiments, writing reproducible CSV
and JSON artifacts.  Every artifact starts with a provenance header
(tool version, full parameter set, timestamp); identical arguments and
seeds reproduce byte-identical bodies apart from the timestamp line, for
one numpy and BLAS build at one BLAS thread count.  Eigenvalues from
LAPACK move in their last bits with the thread count (at n = 1024, well
inside the zero tolerance, the counts unchanged); no value is rounded to
hide that.  ``python -m mchwave`` runs :func:`main`.

Exit codes: 0 success, 1 domain or validation error, 2 numerical
failure, 64 usage error, 73 an artifact that cannot be written (an
``--out-dir`` that cannot be created, say).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evolve as evolve_mod, indices, linop, wave as wave_mod
from .errors import DomainError, NumericalError
from .field import PeriodicGrid, fractional_shift, sample_wave

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: an unknown option such as --h must be a usage
        # error, not an abbreviation of --help
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_length(text: str) -> float:
    """Parse a length; a trailing 'pi' means multiples of pi ('6pi', 'pi')."""
    s = text.strip().lower()
    if s.endswith("pi"):
        head = s[:-2]
        factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
        return factor * math.pi
    return float(s)


def _provenance(args: argparse.Namespace) -> dict:
    """The header of every artifact: tool version, command, the parameters
    by name, a float to 17 significant digits, and the UTC time."""
    return {
        "tool_version": __version__,
        "command": args.command,
        "parameters": {k: format(v, ".17g") if isinstance(v, float) else v
                       for k, v in sorted(vars(args).items()) if k not in ("func", "command")},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _nulled(value):
    """``value`` with every non-finite float as None, a tuple as a list."""
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


# one encoder for every artifact: json.dumps with an argument builds its own
_encode = json.JSONEncoder(allow_nan=False).encode


def write_json(path: Path, payload: dict, args: argparse.Namespace) -> None:
    """The provenance and ``payload`` as one JSON object, one top-level key a
    line, so byte comparisons can exclude exactly the timestamp line.  Each
    line is one C-level encoding; a non-finite float is ``null``, not the
    bare ``NaN`` or ``Infinity`` that RFC 8259 does not allow."""
    items = []
    for key, value in {**_provenance(args), **payload}.items():
        try:
            items.append(_encode({key: value})[1:-1])
        except ValueError:  # a non-finite float
            items.append(_encode({key: _nulled(value)})[1:-1])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n " + ",\n ".join(items) + "\n}\n")


def write_csv(path: Path, header: list[str], rows: list[list], args: argparse.Namespace) -> None:
    # the provenance as "# key: value" lines, its parameters flattened in place
    *head, (_, params), stamp = _provenance(args).items()
    lines = [f"# {key}: {val}" for key, val in (*head, *params.items(), stamp)]
    lines.append(",".join(header))
    if rows:
        # one % pass over every cell: a float to 17 significant digits, as in
        # the header, and str of any other cell
        template = "\n".join(",".join(["%.17g" if isinstance(v, float) else "%s" for v in row])
                             for row in rows)
        lines.append(template % tuple(v for row in rows for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _spectral_payload(rep: linop.SpectralReport) -> dict:
    payload = dataclasses.asdict(rep)
    eig = payload.pop("eigenvalues")
    if np.iscomplexobj(eig):
        return {"eigenvalues_re": eig.real.tolist(), "eigenvalues_im": eig.imag.tolist(),
                **payload}
    return {"eigenvalues": eig.tolist(), **payload}


def _refused(args: argparse.Namespace, rep: wave_mod.ValidityReport) -> bool:
    """Whether the wave of ``rep`` is invalid; if so, print its reason and two margins."""
    if not rep.all_ok:
        print(f"invalid wave at (k={args.k}, L={args.L}): reason={rep.reason} "
              f"ineq_i={rep.ineq_i_value!r} ineq_ii_margin={rep.ineq_ii_margin!r}")
    return not rep.all_ok


def cmd_wave(args: argparse.Namespace) -> int:
    p, rep = wave_mod.wave_at(args.k, args.L)
    if _refused(args, rep):
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
            "x": grid.nodes.tolist(),
            "values": phi.values.tolist(),
        },
    }
    out = Path(args.out_dir) / "wave.json"
    write_json(out, payload, args)
    write_csv(Path(args.out_dir) / "wave_profile.csv", ["x", "value"],
              np.column_stack((grid.nodes, phi.values)).tolist(), args)
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
    p, rep = wave_mod.wave_at(args.k, args.L)
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


def _run_setup(args: argparse.Namespace) -> tuple:
    """The wave of ``evolve`` and ``orbit`` and its validity report from one
    wave pass, its one sampling phi on n nodes, and the run config: fixed
    steps of ``--dt``, else adaptive with ``suggested_dt``.  k = 0, the
    constant wave, is refused."""
    if args.k == 0.0:
        raise DomainError("a run requires 0 < k < 1; k = 0 is the constant wave")
    p, rep = wave_mod.wave_at(args.k, args.L)
    phi = sample_wave(p, PeriodicGrid(p.L, args.n))
    dt = args.dt if args.dt is not None else evolve_mod.suggested_dt(phi, speed=p.c)
    return p, rep, phi, evolve_mod.EvolutionConfig(dt=dt, t_end=args.t_end,
                                                   monitor_every=args.monitor_every,
                                                   adaptive=args.dt is None)


def _write_run(args: argparse.Namespace, cfg: evolve_mod.EvolutionConfig,
               report: evolve_mod.StabilityRunReport, **fields) -> Path:
    """Write ``<command>.csv``, the records of a run with a reference, and
    ``<command>_summary.json``: the fields every run reports, then ``fields``."""
    out_csv = Path(args.out_dir) / f"{args.command}.csv"
    write_csv(out_csv, ["t", "rho", "drift_E", "drift_F", "drift_V"],
              np.column_stack((report.times, report.rho, report.drift_E, report.drift_F,
                               report.drift_V)).tolist(), args)
    summary = {"terminated": report.terminated, "dt": cfg.dt, "steps": report.steps,
               "rhs_calls": report.rhs_calls, "max_error_estimate": report.max_error_estimate,
               **fields}
    write_json(Path(args.out_dir) / f"{args.command}_summary.json", summary, args)
    return out_csv


def cmd_evolve(args: argparse.Namespace) -> int:
    p, _, u0, cfg = _run_setup(args)
    report = evolve_mod.run(u0, cfg, reference=u0)
    prop_err = max(float(np.max(np.abs(row - fractional_shift(u0, -p.c * t).values)))
                   for t, row in zip(report.times, report.values))
    out_csv = _write_run(args, cfg, report, max_propagation_error=prop_err,
                         max_drift_E=float(np.max(np.abs(report.drift_E))),
                         max_drift_F=float(np.max(np.abs(report.drift_F))),
                         max_drift_V=float(np.max(np.abs(report.drift_V))))
    print(f"evolve (k={args.k}, L={args.L}, n={args.n}, t_end={args.t_end}): "
          f"{report.terminated}, propagation error {prop_err:.3e} -> {out_csv}")
    return EXIT_OK if report.terminated == evolve_mod.TERMINATED_COMPLETED else EXIT_NUMERICAL


def cmd_orbit(args: argparse.Namespace) -> int:
    _, rep, phi, cfg = _run_setup(args)
    if _refused(args, rep):
        return EXIT_DOMAIN
    report = evolve_mod.orbital_experiment(phi, args.delta, args.seed, cfg)
    sup_rho = float(np.max(report.rho))
    out_csv = _write_run(args, cfg, report, delta=args.delta, seed=args.seed, sup_rho=sup_rho,
                         sup_rho_over_delta=sup_rho / args.delta)
    print(f"orbit (k={args.k}, L={args.L}, delta={args.delta}, seed={args.seed}): "
          f"{report.terminated}, sup rho = {sup_rho:.6e} -> {out_csv}")
    return EXIT_OK if report.terminated == evolve_mod.TERMINATED_COMPLETED else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mchwave", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    wave_options = {"--k": {"type": float, "required": True},
                    "--L": {"type": parse_length, "required": True},
                    "--n": {"type": int, "default": 256}}

    def add(name: str, func, summary: str, wave=tuple(wave_options), run=None):
        """The subcommand ``name`` running ``func``, with the wave options in
        ``wave``, and the run options if ``run`` gives the defaults of --t-end
        and --monitor-every."""
        sp = sub.add_parser(name, help=summary)
        for option in wave:
            sp.add_argument(option, **wave_options[option])
        if run:
            sp.add_argument("--dt", type=float, default=None,
                            help="fixed RK4 step; without it, error-controlled steps fill the "
                                 "intervals of --monitor-every suggested steps between records")
            sp.add_argument("--t-end", type=float, default=run[0])
            sp.add_argument("--monitor-every", type=int, default=run[1])
        sp.set_defaults(func=func)
        return sp

    add("wave", cmd_wave, "construct one wave and report residual/validity")
    sp = add("scan", cmd_scan, "stability-index grid scan", wave=())
    sp.add_argument("--k-min", type=float, required=True)
    sp.add_argument("--k-max", type=float, required=True)
    sp.add_argument("--L-min", type=parse_length, required=True)
    sp.add_argument("--L-max", type=parse_length, required=True)
    sp.add_argument("--nk", type=int, default=20)
    sp.add_argument("--nL", type=int, default=20)
    sp = add("spectrum", cmd_spectrum, "linearized-operator spectra and counts")
    sp.add_argument("--evolution", action="store_true",
                    help="also dump the complex spectrum of J L, J = dx (1 - dx^2)^-1, on Y0")
    add("krein", cmd_krein, "zero-mean branch, d''(c) and Krein index", wave=("--k", "--n"))
    add("evolve", cmd_evolve, "propagate the exact wave; conservation check", run=(5.0, 20))
    sp = add("orbit", cmd_orbit, "orbital-stability experiment", run=(50.0, 25))
    sp.add_argument("--delta", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    for sp in sub.choices.values():  # last in every usage line
        sp.add_argument("--out-dir", default=".", help="artifact directory")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def dispatch(argv: list[str]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # a usage error (64), --help or --version (0)
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
