"""Command-line interface: subcommands, artifacts, exit codes."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mchwave as mw
from mchwave import cli, linop
from mchwave.cli import (EXIT_CANTCREAT, EXIT_DOMAIN, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                         dispatch, parse_length)


def strip_timestamps(text: str) -> list[str]:
    """The lines of an artifact but its timestamp line: the timestamp key
    alone, not every line that holds the string "timestamp"."""
    return [l for l in text.splitlines() if not l.startswith(("# timestamp: ", ' "timestamp": '))]


def run_program(cwd: Path, *argv: str, module: str = "mchwave",
                **env: str) -> subprocess.CompletedProcess:
    """``python -m module *argv`` in a subprocess from ``cwd``, the package
    imported from this checkout, with ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **env}
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def strict_json(path: Path):
    """The JSON body at ``path``, refusing NaN and +-Infinity, which RFC 8259
    does not allow and ``json.loads`` would accept."""
    def refuse(name):
        raise ValueError(f"{path.name} holds the non-JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestParseLength:
    def test_plain_number(self):
        assert parse_length("3.5") == 3.5

    def test_pi_suffix(self):
        assert parse_length("6pi") == pytest.approx(6 * math.pi, rel=1e-15)
        assert parse_length("0.5pi") == pytest.approx(0.5 * math.pi, rel=1e-15)
        assert parse_length("pi") == pytest.approx(math.pi, rel=1e-15)
        assert parse_length("-2pi") == pytest.approx(-2 * math.pi, rel=1e-15)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_length("6tau")


class TestWriteCsv:
    ROWS = [[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
            [np.float64(0.1), np.float64(-1e300), 1.0 / 3.0, 1e16, 123456789.0, 1.5, -2.5],
            [0, -7, np.int64(42), True, False, np.bool_(True), np.float32(0.1)],
            ["text", "50%", "%s", None, (1, 2), 7, "x"],
            [], [0.5]]

    def test_cells_formatted_as_fmt_decides(self, tmp_path):
        args = argparse.Namespace(command="scan", x=0.1)
        path = tmp_path / "out.csv"
        cli.write_csv(path, ["a", "b"], self.ROWS, args)
        lines = path.read_text().split("\n")
        data = lines[lines.index("a,b") + 1:]
        # a float (np.float64 included) to 17 significant digits, else str
        cells = [[format(v, ".17g") if isinstance(v, float) else str(v) for v in row]
                 for row in self.ROWS]
        assert data == [",".join(row) for row in cells] + [""]

    def test_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.write_csv(path, ["a", "b"], [], argparse.Namespace(command="scan"))
        assert path.read_text().endswith("\na,b\n")


FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1e308, 1e16, 0.1, np.float64(-2.5), np.float64(math.nan)]
JSON_LEAVES = st.one_of(
    st.text(), st.text(alphabet='"\\\x00\x1f\x7f \u00e9\u2028\U0001f600,:'),
    st.integers(), st.booleans(), st.none(), st.floats(), st.floats().map(np.float64),
    st.sampled_from(FLOAT_EDGES))
JSON_KEYS = st.one_of(st.text(), st.text(alphabet='"\\\n\u00e9'))


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=6),
        # the lists the writer hands to one C-level json.dumps, and lists it
        # must not: a string with ", " among numbers
        st.lists(st.one_of(st.floats(), st.integers(), st.sampled_from(FLOAT_EDGES[:8])),
                 max_size=20),
        st.lists(st.one_of(st.floats(), st.text(alphabet=", 1")), max_size=6))


def nulled(value):
    """``value`` with every non-finite float, np.float64 included, as None:
    the JSON that the artifact writer must give."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [nulled(v) for v in value]
    if isinstance(value, dict):
        return {k: nulled(v) for k, v in value.items()}
    return value


def json_lines(text: str) -> list[dict]:
    """Each line between the braces of a written JSON artifact as the one-key
    object it holds; AssertionError if a line holds another count of keys."""
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    items = [json.loads("{" + l.removesuffix(",") + "}") for l in lines[1:-2]]
    assert all(len(item) == 1 for item in items)
    return items


PROVENANCE_KEYS = ("tool_version", "command", "parameters", "timestamp")


class TestWriteJson:
    ARGS = argparse.Namespace(command="scan", x=0.1, out_dir="out")

    def written(self, tmp_path, body):
        path = tmp_path / "body.json"
        cli.write_json(path, body, self.ARGS)
        return path

    @given(st.dictionaries(JSON_KEYS.filter(lambda k: k not in PROVENANCE_KEYS),
                           st.recursive(JSON_LEAVES, json_containers, max_leaves=40),
                           max_size=6))
    def test_matches_json_dumps(self, tmp_path_factory, body):
        # json.dumps writes a non-finite float as the bare NaN or Infinity
        # that RFC 8259 does not allow; the writer writes null
        path = self.written(tmp_path_factory.mktemp("json"), body)
        written = strict_json(path)
        assert list(written) == [*PROVENANCE_KEYS, *body]
        assert {k: written[k] for k in body} == nulled(body)
        assert written["parameters"] == {"out_dir": "out", "x": "0.10000000000000001"}
        keys = [k for item in json_lines(path.read_text()) for k in item]
        assert keys == list(written) and keys.count("timestamp") == 1

    @pytest.mark.parametrize("value", [
        [], (), {}, [[]], {"a": {}}, [1.5, 2, -0.0], (math.nan, 1), [1.0, "a, b"],
        {"": [True, None, 0.5]}, [math.inf, -math.inf, 0.5], {"a": np.float64(math.nan)},
        [10**400, math.nan], {"a\nb": "\u2028\n"}])
    def test_edge_containers(self, tmp_path, value):
        # the value's line is json.dumps of it, its non-finite floats null
        text = self.written(tmp_path, {"v": value}).read_text()
        assert text.split("\n")[-3] == ' "v": ' + json.dumps(nulled(value), allow_nan=False)

    @pytest.mark.parametrize("bad", [np.int64(3), np.zeros(2), np.float32(0.5), {1, 2},
                                     np.bool_(True), object()])
    @pytest.mark.parametrize("where", [lambda x: x, lambda x: [x], lambda x: [1.0, 2, x],
                                       lambda x: {"a": (0.5, x)}, lambda x: {"a": {"b": [x]}},
                                       lambda x: [math.nan, x]])
    def test_refuses_what_json_refuses(self, tmp_path, bad, where):
        with pytest.raises(TypeError) as ours:
            self.written(tmp_path, {"v": where(bad)})
        with pytest.raises(TypeError) as reference:
            json.dumps(where(bad))
        assert str(ours.value) == str(reference.value)
        assert not (tmp_path / "body.json").exists()


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch, count_calls):
        monkeypatch.setattr(cli, "_PARSER", None)
        builds = count_calls(cli.build_parser)
        jobs = [["wave", "--k", "0.5", "--L", "6pi", "--n", "64"],
                ["spectrum", "--k", "0.5", "--L", "6pi", "--n", "64"]]
        dirs = [tmp_path / job[0] for job in jobs]

        def bodies(d):
            return {f.name: strip_timestamps(f.read_text()) for f in sorted(d.iterdir())}

        for job, d in zip(jobs, dirs):
            assert dispatch(job + ["--out-dir", str(d)]) == EXIT_OK
        assert len(builds) == 1
        together = [bodies(d) for d in dirs]
        for job, d, seen in zip(jobs, dirs, together):
            monkeypatch.setattr(cli, "_PARSER", None)
            assert dispatch(job + ["--out-dir", str(d)]) == EXIT_OK
            assert bodies(d) == seen and seen
        assert len(builds) == 3

    @pytest.mark.parametrize("argv, expected", [
        (["wave", "--k", "0.5", "--L", "6pi"],
         {"k": 0.5, "L": 6 * math.pi, "n": 256, "func": cli.cmd_wave}),
        (["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi", "--L-max", "6"],
         {"k_min": 0.1, "k_max": 0.3, "L_min": 4 * math.pi, "L_max": 6.0, "nk": 20, "nL": 20,
          "func": cli.cmd_scan}),
        (["spectrum", "--k", "0.5", "--L", "6pi"],
         {"k": 0.5, "L": 6 * math.pi, "n": 256, "evolution": False, "func": cli.cmd_spectrum}),
        (["krein", "--k", "0.9"], {"k": 0.9, "n": 256, "func": cli.cmd_krein}),
        (["evolve", "--k", "0.5", "--L", "6pi"],
         {"k": 0.5, "L": 6 * math.pi, "n": 256, "dt": None, "t_end": 5.0, "monitor_every": 20,
          "func": cli.cmd_evolve}),
        (["orbit", "--k", "0.5", "--L", "6pi"],
         {"k": 0.5, "L": 6 * math.pi, "n": 256, "dt": None, "t_end": 50.0, "monitor_every": 25,
          "delta": 1e-3, "seed": 0, "func": cli.cmd_orbit}),
    ], ids=["wave", "scan", "spectrum", "krein", "evolve", "orbit"])
    def test_namespace_of_each_subcommand(self, capsys, argv, expected):
        # every dest and default of a minimal argument list: a default that
        # one subcommand sets must not leak into another's
        args = cli.build_parser().parse_args(argv)
        assert vars(args) == {"command": argv[0], "out_dir": ".", **expected}
        assert dispatch([argv[0], "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: mchwave {argv[0]} ")

    def test_exit_codes_on_a_reused_parser(self, capsys):
        assert dispatch(["--version"]) == EXIT_OK
        assert dispatch(["wave", "--k", "0.5"]) == EXIT_USAGE
        assert dispatch(["wave", "--help"]) == EXIT_OK
        assert dispatch(["nonsense"]) == EXIT_USAGE
        assert dispatch(["--version"]) == EXIT_OK
        assert mw.__version__ in capsys.readouterr().out


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--version"], EXIT_OK, "stdout", mw.__version__),
        (["wave", "--k", "0.5"], EXIT_USAGE, "stderr", "usage error:"),
        (["wave", "--k", "0.9", "--L", "3.14159"], EXIT_DOMAIN, "stderr", "domain error:"),
        (["wave", "--k", "0.5", "--L", "6pi", "--n", "64", "--out-dir", __file__],
         EXIT_CANTCREAT, "stderr", "i/o error:"),
    ])
    def test_module_as_a_program(self, tmp_path, argv, code, stream, text):
        # main() runs as `python -m mchwave.cli`, its exit status the code
        # dispatch returns
        done = run_program(tmp_path, *argv, module="mchwave.cli")
        assert done.returncode == code
        assert text in getattr(done, stream)
        assert not any(tmp_path.iterdir())

    def test_package_as_a_program(self, tmp_path):
        # `python -m mchwave` is `python -m mchwave.cli`
        done = run_program(tmp_path, "--version")
        assert (done.returncode, done.stdout.strip()) == (EXIT_OK, mw.__version__)

    def test_spectrum_across_blas_thread_counts(self, tmp_path):
        # bodies are byte-identical for one BLAS build and thread count only:
        # at n = 1024, 1 and 2 OpenBLAS threads move eigenvalues of L in
        # their last bits.  The counts agree, and every eigenvalue within
        # the zero tolerance of both runs.
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            done = run_program(tmp_path, "spectrum", "--k", "0.5", "--L", "6pi", "--n", "1024",
                               "--out-dir", str(out), OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == EXIT_OK, done.stderr
            runs.append(strict_json(out / "spectrum.json"))
        for key in ("spectrum", "restricted_spectrum"):
            one, two = (run[key] for run in runs)
            assert (one["n_neg"], one["z_dim"]) == (two["n_neg"], two["z_dim"])
            gap = np.abs(np.subtract(one["eigenvalues"], two["eigenvalues"]))
            assert np.all(gap <= min(one["tol"], two["tol"]))

    def test_run_across_blas_thread_counts(self, tmp_path):
        # a run's bodies do not move with the thread count: u0 crosses zero
        # here, so the run takes trials in both frames and the pair's steps,
        # and every step's textbook bits rest on b @ z summing in order
        bodies = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            done = run_program(cwd, "orbit", "--k", "0.693", "--L", "3.6pi", "--n", "256",
                               "--t-end", "10", "--out-dir", ".", OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == EXIT_OK, done.stderr
            bodies.append([strip_timestamps((cwd / name).read_text())
                           for name in ("orbit.csv", "orbit_summary.json")])
        assert bodies[0] == bodies[1]


class TestWaveCommand:
    def test_valid_wave(self, tmp_path):
        code = dispatch(["wave", "--k", "0.5", "--L", "18.8495559", "--n", "256",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "wave.json")
        assert payload["tool_version"]
        assert payload["wave"]["b"] == pytest.approx(-0.2559, rel=1e-3)
        assert payload["ode_residual"] < 1e-8
        assert payload["validity"]["all_ok"] is True
        profile_lines = (tmp_path / "wave_profile.csv").read_text().splitlines()
        assert profile_lines[0].startswith("# tool_version")
        header_idx = next(i for i, l in enumerate(profile_lines) if not l.startswith("#"))
        assert profile_lines[header_idx] == "x,value"
        assert len(profile_lines) - header_idx - 1 == 256

    def test_discriminant_failure_exit_code(self, tmp_path):
        code = dispatch(["wave", "--k", "0.9", "--L", "3.14159",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_DOMAIN

    def test_out_dir_created_when_missing(self, tmp_path):
        target = tmp_path / "fresh" / "nested"
        code = dispatch(["wave", "--k", "0.5", "--L", "6pi",
                         "--out-dir", str(target)])
        assert code == EXIT_OK
        assert (target / "wave.json").exists()

    def test_out_dir_that_cannot_be_created(self, tmp_path, capsys):
        # an existing file, and a path under it, used to end in an uncaught
        # FileExistsError or NotADirectoryError: exit 1, the domain status
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            code = dispatch(["wave", "--k", "0.5", "--L", "6pi", "--n", "64",
                             "--out-dir", str(out)])
            assert code == EXIT_CANTCREAT == 73
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]

    def test_invalid_wave_reports_margins(self, tmp_path, capsys):
        # k = 0.8 at L = 8 pi exists but fails the phi - c < 0 inequality; the
        # constant wave (k = 0 or -0.0) sits exactly on the boundary of the first
        for k, big_l, printed in (("0.8", "8pi", "reason=ineq_ii "),
                                  ("0", "2pi", "reason=ineq_i ineq_i=0.0"),
                                  ("-0.0", "2pi", "reason=ineq_i ineq_i=0.0")):
            out = tmp_path / k
            code = dispatch(["wave", "--k", k, "--L", big_l, "--out-dir", str(out)])
            assert code == EXIT_DOMAIN == 1
            assert printed in capsys.readouterr().out
            assert not (out / "wave.json").exists()

    def test_huge_period_exits_domain(self, tmp_path):
        # L**7 overflows; the closed forms once overflowed into a traceback
        assert dispatch(["wave", "--k", "0.5", "--L", "1e60",
                         "--out-dir", str(tmp_path)]) == EXIT_DOMAIN
        assert not (tmp_path / "wave.json").exists()

    def test_usage_error(self):
        assert dispatch(["wave", "--k", "0.5"]) == EXIT_USAGE
        assert dispatch(["nonsense"]) == EXIT_USAGE


class TestScanCommand:
    def test_small_scan(self, tmp_path):
        code = dispatch(["scan", "--k-min", "0.1", "--k-max", "0.3",
                         "--L-min", "4pi", "--L-max", "6pi",
                         "--nk", "3", "--nL", "3", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "k,L,I,valid,dA_dk,dc_dk,dV_dk,dF_dk"
        rows = lines[header_idx + 1:]
        assert len(rows) == 9
        # 17-significant-digit round trip
        first_i = float(rows[0].split(",")[2])
        assert first_i < 0.0
        summary = strict_json(tmp_path / "scan_summary.json")
        assert summary["max_I"] < 0.0
        assert summary["count_invalid"] == 0

    def test_scan_deterministic(self, tmp_path):
        args = ["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                "--L-max", "6pi", "--nk", "2", "--nL", "2"]
        dirs = tmp_path / "first", tmp_path / "second"
        for d in dirs:
            assert dispatch(args + ["--out-dir", str(d)]) == EXIT_OK
        first, second = ([l for l in strip_timestamps((d / "scan.csv").read_text())
                          if not l.startswith("# out_dir: ")] for d in dirs)
        assert first == second and len(first) > 5
        first, second = (strict_json(d / "scan_summary.json") for d in dirs)
        for body in first, second:
            del body["timestamp"], body["parameters"]["out_dir"]
        assert first == second and len(first["parameters"]) == 6

    def test_workers_option_is_gone(self, tmp_path):
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                         "--L-max", "6pi", "--workers", "2",
                         "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_check_command_and_fd_step_are_gone(self, tmp_path):
        # the self-check battery lives in the tests; derivatives take no step
        assert dispatch(["check", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                         "--L-max", "6pi", "--h", "1e-3",
                         "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "scan.csv").exists()

    def test_infinite_period_bound_exits_domain(self, tmp_path):
        # it used to exit 0 with NaN and inf periods in scan.csv
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                         "--L-max", "inf", "--out-dir", str(tmp_path)]) == EXIT_DOMAIN
        assert not (tmp_path / "scan.csv").exists()

    def test_huge_period_cells_are_invalid(self, tmp_path):
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                         "--L-max", "1e60", "--nk", "2", "--nL", "2",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = strict_json(tmp_path / "scan_summary.json")
        assert summary["count_invalid"] == 2 and summary["max_I"] < 0.0

    def test_summary_counts_invalid_cells_by_reason(self, tmp_path):
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.8", "--L-min", "7pi",
                         "--L-max", "1e60", "--nk", "2", "--nL", "2",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = strict_json(tmp_path / "scan_summary.json")
        assert summary["invalid_reasons"] == {"ineq_ii": 1, "overflow": 2}

    def test_window_without_a_valid_cell_writes_null(self, tmp_path):
        # the extremes of I over no valid cell are NaN, which the summary
        # used to write as a bare NaN
        assert dispatch(["scan", "--k-min", "0.9", "--k-max", "0.95", "--L-min", "1",
                         "--L-max", "2", "--nk", "2", "--nL", "2",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = strict_json(tmp_path / "scan_summary.json")
        assert summary["count_invalid"] == 4
        assert summary["min_I"] is None and summary["max_I"] is None

    def test_scan_samples_no_profile(self, count_calls, tmp_path):
        # validity margins are closed forms and derivatives exact, so no
        # cell evaluates a Jacobi function or samples a profile
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        profile_calls = count_calls(mw.wave.profile)
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.8", "--L-min", "4pi",
                         "--L-max", "8pi", "--nk", "4", "--nL", "4",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(jacobi_calls) == 0 and len(profile_calls) == 0

    def test_bad_sizes_and_ranges_exit_domain(self, tmp_path):
        base = ["scan", "--L-min", "4pi", "--L-max", "6pi", "--out-dir", str(tmp_path)]
        assert dispatch(base + ["--k-min", "0.1", "--k-max", "0.3",
                                "--nk", "0", "--nL", "2"]) == EXIT_DOMAIN
        assert dispatch(base + ["--k-min", "0.3", "--k-max", "0.1"]) == EXIT_DOMAIN
        assert not (tmp_path / "scan.csv").exists()


class TestSpectrumCommand:
    def test_wave_spectrum(self, tmp_path):
        code = dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "spectrum.json")
        spec = payload["spectrum"]
        assert spec["n_neg"] == 1 and spec["z_dim"] == 1
        assert len(spec["eigenvalues"]) == 128
        assert spec["grid"] == {"L": pytest.approx(6 * math.pi), "n": 128}
        assert spec["tol"] > 0
        assert payload["restricted_spectrum"]["n_neg"] == 1
        assert payload["pairing"]["value"] > 0

    def test_operator_defects_recorded(self, tmp_path):
        assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        payload = strict_json(tmp_path / "spectrum.json")
        op = linop.operator_for(mw.wave_at(0.5, 6 * math.pi)[0], 128)
        assert payload["operator"] == {"reflection_defect": op.reflection_defect}
        assert 0.0 <= payload["operator"]["reflection_defect"] < linop.ASYMMETRY_GATE

    @pytest.mark.parametrize("option", [["--tol", "1e-9"], ["--allow-multi-kernel"]])
    def test_zero_rule_options_are_gone(self, tmp_path, option):
        assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "64", *option,
                         "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "spectrum.json").exists()

    def test_constant_case_pairing_deflated(self, tmp_path):
        # the double kernel is deflated with no flag; provenance has no tol
        code = dispatch(["spectrum", "--k", "0", "--L", "2pi", "--n", "128",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "spectrum.json")
        assert payload["spectrum"]["z_dim"] == 2
        assert set(payload["pairing"]) == {"value", "residual"}
        assert payload["pairing"]["value"] == pytest.approx(-math.pi, abs=1e-8)
        assert "pairing_error" not in payload
        assert set(payload["parameters"]) == {"evolution", "k", "L", "n", "out_dir"}

    def test_lapack_failure_exits_numerical(self, tmp_path, capsys, monkeypatch):
        def eigvalsh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        code = dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "64",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL == 2
        assert "numerical error: eigvalsh failed" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.json").exists()

    def test_evolution_spectrum_dump(self, tmp_path):
        code = dispatch(["spectrum", "--k", "0", "--L", "2pi", "--n", "64", "--evolution",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "spectrum.json")
        ev = payload["evolution_spectrum"]
        assert len(ev["eigenvalues_re"]) == 63
        assert max(abs(v) for v in ev["eigenvalues_re"]) < 1e-8  # purely imaginary

    def test_evolution_reuses_assembled_operator(self, count_calls, monkeypatch, tmp_path):
        # J L is solved from the L already assembled for the spectrum, on its
        # coefficient spectra: one rfft of (p, q) for the job
        assembled = count_calls(linop.assemble_l)
        spectra = []

        def rfft(a, *args, _rfft=np.fft.rfft, **kwargs):
            if np.ndim(a) == 2:
                spectra.append(np.shape(a))
            return _rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft)
        assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "64", "--evolution",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(assembled) == 1 and spectra == [(2, 64)]

    def test_spectral_paths_build_no_dense_matrix(self, count_calls, monkeypatch, tmp_path):
        # counts, pairing and the J L spectrum come from the parity blocks of
        # one L: no eigensolver or linear solve sees more than the
        # (n/2 + 1)^2 even block
        assembled = count_calls(linop.assemble_l)
        shapes = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq"):
            def solve(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, solve)

        def at_most_half(n):
            largest = max(max(s) for s in shapes)
            shapes.clear()
            return largest <= n // 2 + 1

        mw.morse_check(0.5, 6 * math.pi)
        assert at_most_half(256)  # the default n of morse_check
        for n, extra in ((128, []), (64, ["--evolution"])):
            assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", str(n), *extra,
                             "--out-dir", str(tmp_path)]) == EXIT_OK
            assert at_most_half(n)
        assert len(assembled) == 3  # one L per job, J L included

    @pytest.mark.parametrize("k, big_l, extra, valid", [
        ("0.8", "8pi", [], False), ("0.5", "6pi", [], True),
        ("0", "2pi", ["--evolution"], False)])
    def test_validity_recorded(self, tmp_path, k, big_l, extra, valid):
        # an invalid wave still gets its counts and exit 0, flagged in the artifact
        code = dispatch(["spectrum", "--k", k, "--L", big_l, "--n", "64", *extra,
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "spectrum.json")
        expected = mw.validity(float(k), parse_length(big_l))
        assert payload["validity"] == dataclasses.asdict(expected)
        assert payload["validity"]["all_ok"] is valid
        assert {"wave", "operator", "spectrum", "restricted_spectrum", "pairing"} <= set(payload)
        assert ("evolution_spectrum" in payload) is bool(extra)
        if k == "0.8":
            assert payload["spectrum"]["n_neg"] == 15  # grows with n: phi - c changes sign


    @pytest.mark.parametrize("k, big_l", [("0.5", "6pi"), ("0.9", "8pi"), ("0", "2pi"),
                                          ("-0.0", "2pi")])
    def test_one_wave_pass(self, tmp_path, count_calls, k, big_l):
        # the wave and its validity come from one pass of the closed forms
        passes = count_calls(mw.wave._waves)
        assert dispatch(["spectrum", "--k", k, "--L", big_l, "--n", "64",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(passes) == 1
        payload = strict_json(tmp_path / "spectrum.json")
        k, big_l = float(k), parse_length(big_l)
        assert payload["wave"] == dataclasses.asdict(mw.wave_at(k, big_l)[0])
        # -0.0 is the constant wave, recorded as 0.0
        assert math.copysign(1.0, mw.wave_at(k, big_l)[0].k) == 1.0
        assert math.copysign(1.0, payload["wave"]["k"]) == 1.0
        assert payload["validity"] == dataclasses.asdict(mw.validity(k, big_l))
        assert payload["validity"]["all_ok"] is (k == 0.5)
        if k == 0.9:  # only phi - c < 0 fails
            assert payload["validity"]["ineq_i_value"] < 0.0 < payload["validity"]["ineq_ii_margin"]


class TestKreinCommand:
    def test_no_branch(self, tmp_path):
        code = dispatch(["krein", "--k", "0.5", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "krein.json")
        assert payload["krein"]["classification"] == "indeterminate"
        assert payload["krein"]["reason"] == "no_branch"
        # no branch has no pairing, D or L*: null, where a bare NaN used to be
        assert [payload["krein"][key] for key in ("pairing", "D", "L_star")] == [None] * 3

    @pytest.mark.parametrize("k, n, classification, reason", [
        ("0.9999999999999", "64", "indeterminate", "no_branch"),
        ("0.985", "64", "indeterminate", "k_ham_out_of_reach"),
        ("0.999", "64", "stable", ""),
    ])
    def test_reason_of_the_classification(self, tmp_path, k, n, classification, reason):
        # every indeterminate verdict names its cause, a classified one none;
        # above k = 1 - 1e-8 the branch has met the discriminant boundary, so
        # every count reads -1 there for a stated reason
        assert dispatch(["krein", "--k", k, "--n", n, "--out-dir", str(tmp_path)]) == EXIT_OK
        krein = strict_json(tmp_path / "krein.json")["krein"]
        assert (krein["classification"], krein["reason"]) == (classification, reason)
        assert (krein["K_Ham"] == -1) is (reason == "no_branch")

    def test_bad_grid_size_exits_domain(self, tmp_path):
        # the branch exists, so n reaches the operator grid, which refuses 15
        code = dispatch(["krein", "--k", "0.985", "--n", "15", "--out-dir", str(tmp_path)])
        assert code == EXIT_DOMAIN
        assert not (tmp_path / "krein.json").exists()

    @pytest.mark.parametrize("n", ["15", "-3"])
    @pytest.mark.parametrize("k", ["0.5", "0.985"])
    def test_bad_grid_size_refused_with_or_without_branch(self, tmp_path, k, n):
        # n is checked before the branch is evaluated; there is none at k = 0.5
        code = dispatch(["krein", "--k", k, "--n", n, "--out-dir", str(tmp_path)])
        assert code == EXIT_DOMAIN
        assert not (tmp_path / "krein.json").exists()

    def test_branch_values(self, tmp_path):
        code = dispatch(["krein", "--k", "0.985", "--n", "64", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = strict_json(tmp_path / "krein.json")
        assert payload["krein"]["D"] == pytest.approx(-9.598615975413358, rel=1e-10)
        assert payload["krein"]["L_star"] == pytest.approx(34.9136, rel=1e-4)

    @pytest.mark.parametrize("k", ["0", "1", "-0.5", "nan"])
    def test_modulus_outside_unit_interval_exits_domain(self, tmp_path, k):
        code = dispatch(["krein", "--k", k, "--out-dir", str(tmp_path)])
        assert code == EXIT_DOMAIN
        assert not (tmp_path / "krein.json").exists()

    def test_bracket_options_are_gone(self, tmp_path):
        # L* is computed from k, so there is no period bracket to give
        assert dispatch(["krein", "--k", "0.985", "--L-min", "12.5", "--L-max", "200",
                         "--out-dir", str(tmp_path)]) == EXIT_USAGE


class TestEvolveAndOrbit:
    def test_evolve_artifacts(self, tmp_path):
        code = dispatch(["evolve", "--k", "0.5", "--L", "6pi", "--t-end", "2",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        summary = strict_json(tmp_path / "evolve_summary.json")
        assert summary["terminated"] == "completed"
        assert summary["max_propagation_error"] < 1e-8
        assert summary["steps"] > 0 and 0.0 < summary["max_error_estimate"] <= mw.evolve.STEP_TOL
        lines = (tmp_path / "evolve.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "t,rho,drift_E,drift_F,drift_V"

    def test_evolve_blowup_exit_code(self, tmp_path):
        code = dispatch(["evolve", "--k", "0.5", "--L", "6pi", "--t-end", "50",
                         "--dt", "1.0", "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("command", ["evolve", "orbit"])
    @pytest.mark.parametrize("bad", [["--t-end", "inf"], ["--dt", "inf"], ["--t-end", "nan"],
                                     ["--dt", "1e-310", "--t-end", "1"]])
    def test_non_finite_time_exits_domain(self, tmp_path, command, bad):
        # --t-end inf, and a subnormal --dt whose t_end / dt is inf, used to end
        # in an OverflowError traceback, and --dt inf ran one step of length t_end
        args = [command, "--k", "0.5", "--L", "6pi", "--out-dir", str(tmp_path)] + bad
        assert dispatch(args) == EXIT_DOMAIN
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("k", ["0.9", "0.8"])
    def test_orbit_refuses_an_invalid_wave(self, tmp_path, capsys, k):
        # (k, 8 pi) fails the phi - c < 0 inequality; orbit used to give it a
        # stability verdict, and evolve still runs on it
        args = ["--k", k, "--L", "8pi", "--t-end", "1", "--out-dir", str(tmp_path)]
        rep = mw.validity(float(k), 8 * math.pi)
        assert not rep.all_ok
        assert dispatch(["orbit"] + args) == EXIT_DOMAIN
        assert (f"reason={rep.reason} ineq_i={rep.ineq_i_value!r} "
                f"ineq_ii_margin={rep.ineq_ii_margin!r}" in capsys.readouterr().out)
        assert not any(tmp_path.iterdir())
        assert dispatch(["evolve"] + args) == EXIT_OK

    @pytest.mark.parametrize("command", ["evolve", "orbit"])
    def test_constant_wave_exits_domain(self, tmp_path, command):
        args = [command, "--k", "0", "--L", "6pi", "--t-end", "1", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_DOMAIN
        assert not any(tmp_path.iterdir())

    def test_overflowing_initial_state_is_blowup(self, tmp_path):
        # the cube of a perturbation of 1e120 overflows in the first slope,
        # which was taken outside the run's errstate block: a RuntimeWarning,
        # an error under this suite's filter, before blow-up could be recorded.
        # At 1e308 the state is finite but its first count, from dt of phi,
        # is inf: an OverflowError traceback, where it must be blow-up too
        for delta, t_end in (("1e120", "0.5"), ("1e308", "1")):
            args = ["orbit", "--k", "0.5", "--L", "6pi", "--n", "64", "--t-end", t_end,
                    "--delta", delta, "--out-dir", str(tmp_path)]
            assert dispatch(args) == EXIT_NUMERICAL
            assert strict_json(tmp_path / "orbit_summary.json")["terminated"] == "blowup"

    @pytest.mark.parametrize("plan, bound", [
        (["--t-end", "0.5", "--dt", "1e-300"], "suggested_dt(u0) / MAX_REFINE = "),
        (["--t-end", "1e300"], "above MAX_RECORDS = 32768")], ids=["dt", "t-end"])
    def test_plan_that_cannot_finish_refused(self, tmp_path, capsys, monkeypatch, plan, bound):
        # 5e299 fixed steps, or 2.7e299 records, would never end: refused
        # before the first right side, with the bound named
        monkeypatch.setattr(mw.evolve._RhsOperator, "__call__",
                            lambda self, spec: pytest.fail("a right side was taken"))
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--n", "64", *plan,
                "--delta", "1e-3", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_DOMAIN
        assert bound in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["evolve", "orbit"])
    def test_wave_sampled_once(self, tmp_path, count_calls, command):
        # one wave pass (its AGM ladder gives K and E) and one profile call
        # (its own ladder): the run and its reference share that sampling
        profiles = count_calls(mw.wave.profile)
        ladders = count_calls(mw.elliptic._agm)
        args = [command, "--k", "0.5", "--L", "6pi", "--t-end", "1", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_OK
        assert len(profiles) == 1 and len(ladders) == 2

    def test_orbit_deterministic(self, tmp_path):
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--delta", "1e-3",
                "--seed", "3", "--t-end", "2", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_OK
        first = strip_timestamps((tmp_path / "orbit.csv").read_text())
        assert dispatch(args) == EXIT_OK
        second = strip_timestamps((tmp_path / "orbit.csv").read_text())
        assert first == second
        summary = strict_json(tmp_path / "orbit_summary.json")
        assert summary["terminated"] == "completed"
        assert summary["sup_rho"] < 20 * 1e-3

    def test_orbit_detection_exits_numerical(self, tmp_path, monkeypatch):
        # rho / delta is about 0.99 on this orbit from t = 0, so a factor of
        # 0.5 ends the run with the detection verdict and exit 2
        monkeypatch.setattr(mw.evolve, "RHO_FACTOR", 0.5)
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--delta", "1e-3", "--seed", "42",
                "--t-end", "5", "--monitor-every", "5", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_NUMERICAL
        summary = strict_json(tmp_path / "orbit_summary.json")
        rows = [l for l in (tmp_path / "orbit.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0].startswith("t,rho,")
        rho = [float(l.split(",")[1]) for l in rows[1:]]
        assert summary["terminated"] == "instability_detected"
        assert summary["sup_rho"] == max(rho) and rho[-1] > 0.5 * 1e-3
        assert summary["sup_rho_over_delta"] == summary["sup_rho"] / 1e-3

    def test_default_dt_takes_a_third_of_the_right_sides(self, tmp_path, monkeypatch):
        # a count, not a timing: the default-dt run against fixed steps of the
        # suggested dt, which spaces its monitor times
        call, calls = mw.evolve._RhsOperator.__call__, []

        def counted(self, spec):
            calls.append(None)
            return call(self, spec)

        monkeypatch.setattr(mw.evolve._RhsOperator, "__call__", counted)
        p = mw.wave_at(0.5, 6 * math.pi)[0]
        dt = mw.suggested_dt(mw.sample_wave(p, mw.PeriodicGrid(p.L, 256)), speed=p.c)
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--n", "256", "--t-end", "10",
                "--monitor-every", "25"]
        counts, summaries, times = [], [], []
        for extra, out in (([], tmp_path / "default"), (["--dt", repr(dt)], tmp_path / "fixed")):
            calls.clear()
            assert dispatch(args + extra + ["--out-dir", str(out)]) == EXIT_OK
            counts.append(len(calls))
            summaries.append(strict_json(out / "orbit_summary.json"))
            rows = strip_timestamps((out / "orbit.csv").read_text())
            times.append([l.split(",")[0] for l in rows if not l.startswith("#")])
        assert counts[0] <= counts[1] / 3
        assert times[0] == times[1] and len(times[0]) > 2
        for summary, count in zip(summaries, counts):
            # RK4 steps alone: no interval of either run takes a trial
            assert summary["dt"] == dt
            assert summary["rhs_calls"] == 4 * summary["steps"] + 1 == count
            assert 0.0 < summary["max_error_estimate"] < 1e-8
        assert summaries[0]["max_error_estimate"] <= mw.evolve.STEP_TOL

    # -0.001, not -1e-3, which argparse reads as an option
    @pytest.mark.parametrize("bad", [["--delta", "nan"], ["--delta", "inf"],
                                     ["--delta", "0"], ["--delta", "-0.001"],
                                     ["--delta", "1e-320"], ["--seed", "-1"],
                                     ["--delta", "0", "--seed", "-1"]])
    def test_orbit_bad_delta_or_rho_factor_exits_domain(self, tmp_path, bad):
        # delta <= 0 is refused too: the unperturbed run is evolve's
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--t-end", "1",
                "--out-dir", str(tmp_path)] + bad
        assert dispatch(args) == EXIT_DOMAIN
        assert not any(tmp_path.iterdir())


class TestArtifacts:
    WAVE = ["--k", "0.5", "--L", "6pi", "--n", "64"]
    RUN = WAVE + ["--t-end", "1"]

    @pytest.mark.parametrize("argv", [
        ["wave", *WAVE],
        ["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi", "--L-max", "6pi",
         "--nk", "2", "--nL", "2"],
        ["scan", "--k-min", "0.9", "--k-max", "0.95", "--L-min", "1", "--L-max", "2",
         "--nk", "2", "--nL", "2"],
        ["spectrum", *WAVE, "--evolution"],
        ["krein", "--k", "0.5", "--n", "64"],
        ["krein", "--k", "0.999", "--n", "64"],
        ["evolve", *RUN],
        ["orbit", *RUN],
        ["orbit", *RUN, "--dt", "0.01"],
    ], ids=["wave", "scan", "scan-no-valid-cell", "spectrum", "krein-no-branch", "krein",
            "evolve", "orbit", "orbit-dt"])
    def test_layout_and_bodies_reproduced(self, tmp_path, argv):
        # every JSON artifact is strict JSON, one top-level key a line, the
        # timestamp on exactly one; a second run into the same directory
        # writes every body again apart from that line
        def bodies():
            assert dispatch(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
            return {f.name: strip_timestamps(f.read_text()) for f in sorted(tmp_path.iterdir())}

        first = bodies()
        json_paths = sorted(tmp_path.glob("*.json"))
        assert json_paths
        for path in json_paths:
            body = strict_json(path)
            text = path.read_text()
            assert [k for item in json_lines(text) for k in item] == list(body)
            assert len(text.splitlines()) - len(strip_timestamps(text)) == 1
        assert bodies() == first
