"""Command-line interface: subcommands, artifacts, exit codes."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mchwave as mw
from mchwave import cli, linop
from mchwave.cli import (EXIT_DOMAIN, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                         dispatch, parse_length)


def strip_timestamps(text: str) -> list[str]:
    return [l for l in text.splitlines()
            if not l.startswith("# timestamp") and '"timestamp"' not in l]


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
        assert data == [",".join(cli._fmt(v) for v in row) for row in self.ROWS] + [""]

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


class TestWriteJson:
    @given(st.recursive(JSON_LEAVES, json_containers, max_leaves=40))
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=1)

    @pytest.mark.parametrize("value", [
        [], (), {}, [[]], {"a": {}}, [1.5, 2, -0.0], (math.nan, 1), [1.0, "a, b"],
        {"": [True, None, 0.5]}])
    def test_edge_containers(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=1)

    @pytest.mark.parametrize("bad", [np.int64(3), np.zeros(2), np.float32(0.5), {1, 2},
                                     np.bool_(True), object()])
    @pytest.mark.parametrize("where", [lambda x: x, lambda x: [x], lambda x: [1.0, 2, x],
                                       lambda x: {"a": (0.5, x)}, lambda x: {"a": {"b": [x]}}])
    def test_refuses_what_json_refuses(self, bad, where):
        with pytest.raises(TypeError) as ours:
            cli._json_text(where(bad))
        with pytest.raises(TypeError) as reference:
            json.dumps(where(bad), indent=1)
        assert str(ours.value) == str(reference.value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_keys_other_than_str_are_refused(self, key):
        # json would quote the JSON text of a scalar key; no artifact has one
        with pytest.raises(TypeError):
            cli._json_text({"a": {key: 0}})


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

    def test_exit_codes_on_a_reused_parser(self, capsys):
        assert dispatch(["--version"]) == EXIT_OK
        assert dispatch(["wave", "--k", "0.5"]) == EXIT_USAGE
        assert dispatch(["wave", "--help"]) == EXIT_OK
        assert dispatch(["nonsense"]) == EXIT_USAGE
        assert dispatch(["--version"]) == EXIT_OK
        assert mw.__version__ in capsys.readouterr().out


class TestWaveCommand:
    def test_valid_wave(self, tmp_path):
        code = dispatch(["wave", "--k", "0.5", "--L", "18.8495559", "--n", "256",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "wave.json").read_text())
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

    def test_invalid_wave_reports_margins(self, tmp_path, capsys):
        # k = 0.8 at L = 8 pi exists but fails the phi - c < 0 inequality
        code = dispatch(["wave", "--k", "0.8", "--L", "8pi", "--out-dir", str(tmp_path)])
        assert code == EXIT_DOMAIN
        assert "ineq_ii" in capsys.readouterr().out

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
        summary = json.loads((tmp_path / "scan_summary.json").read_text())
        assert summary["max_I"] < 0.0
        assert summary["count_invalid"] == 0

    def test_scan_deterministic(self, tmp_path):
        args = ["scan", "--k-min", "0.1", "--k-max", "0.3", "--L-min", "4pi",
                "--L-max", "6pi", "--nk", "2", "--nL", "2"]
        dirs = tmp_path / "first", tmp_path / "second"
        for d in dirs:
            assert dispatch(args + ["--out-dir", str(d)]) == EXIT_OK
        for name in ("scan.csv", "scan_summary.json"):
            first, second = ([l for l in strip_timestamps((d / name).read_text())
                              if "out_dir" not in l] for d in dirs)
            assert first == second and len(first) > 5

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
        summary = json.loads((tmp_path / "scan_summary.json").read_text())
        assert summary["count_invalid"] == 2 and summary["max_I"] < 0.0

    def test_summary_counts_invalid_cells_by_reason(self, tmp_path):
        assert dispatch(["scan", "--k-min", "0.1", "--k-max", "0.8", "--L-min", "7pi",
                         "--L-max", "1e60", "--nk", "2", "--nL", "2",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "scan_summary.json").read_text())
        assert summary["invalid_reasons"] == {"ineq_ii": 1, "overflow": 2}

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
        payload = json.loads((tmp_path / "spectrum.json").read_text())
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
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        op = linop.operator_for(mw.wave_params(0.5, 6 * math.pi), 128)
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
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["spectrum"]["z_dim"] == 2
        assert payload["pairing"]["kernel_dim"] == 2
        assert payload["pairing"]["value"] == pytest.approx(-math.pi, abs=1e-8)
        assert "pairing_error" not in payload
        assert set(payload["parameters"]) == {"evolution", "k", "L", "n", "out_dir"}

    def test_evolution_spectrum_dump(self, tmp_path):
        code = dispatch(["spectrum", "--k", "0", "--L", "2pi", "--n", "64", "--evolution",
                         "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "spectrum.json").read_text())
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
        # one L: no eigensolver sees more than the (n/2 + 1)^2 even block
        assembled = count_calls(linop.assemble_l)
        shapes = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
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
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        expected = mw.validity(float(k), parse_length(big_l))
        assert payload["validity"] == dataclasses.asdict(expected)
        assert payload["validity"]["all_ok"] is valid
        assert {"wave", "operator", "spectrum", "restricted_spectrum", "pairing"} <= set(payload)
        assert ("evolution_spectrum" in payload) is bool(extra)
        if k == "0.8":
            assert payload["spectrum"]["n_neg"] == 15  # grows with n: phi - c changes sign


    @pytest.mark.parametrize("k, big_l", [("0.5", "6pi"), ("0.9", "8pi"), ("0", "2pi")])
    def test_one_wave_pass(self, tmp_path, count_calls, k, big_l):
        # the wave and its validity come from one pass of the closed forms
        passes = count_calls(mw.wave._waves)
        assert dispatch(["spectrum", "--k", k, "--L", big_l, "--n", "64",
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(passes) == 1
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        k, big_l = float(k), parse_length(big_l)
        assert payload["wave"] == dataclasses.asdict(mw.indices.constant_or_wave(k, big_l))
        assert payload["validity"] == dataclasses.asdict(mw.validity(k, big_l))
        assert payload["validity"]["all_ok"] is (k == 0.5)
        if k == 0.9:  # only phi - c < 0 fails
            assert payload["validity"]["ineq_i_value"] < 0.0 < payload["validity"]["ineq_ii_margin"]


class TestKreinCommand:
    def test_no_branch(self, tmp_path):
        code = dispatch(["krein", "--k", "0.5", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "krein.json").read_text())
        assert payload["krein"]["classification"] == "indeterminate"

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
        payload = json.loads((tmp_path / "krein.json").read_text())
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
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["terminated"] == "completed"
        assert summary["max_propagation_error"] < 1e-8
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

    def test_orbit_deterministic(self, tmp_path):
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--delta", "1e-3",
                "--seed", "3", "--t-end", "2", "--out-dir", str(tmp_path)]
        assert dispatch(args) == EXIT_OK
        first = strip_timestamps((tmp_path / "orbit.csv").read_text())
        assert dispatch(args) == EXIT_OK
        second = strip_timestamps((tmp_path / "orbit.csv").read_text())
        assert first == second
        summary = json.loads((tmp_path / "orbit_summary.json").read_text())
        assert summary["sup_rho"] < 20 * 1e-3

    @pytest.mark.parametrize("bad", [["--delta", "nan"], ["--delta", "inf"],
                                     ["--rho-factor", "-1"], ["--rho-factor", "0"],
                                     ["--rho-factor", "nan"], ["--seed", "-1"],
                                     ["--delta", "0", "--seed", "-1"]])
    def test_orbit_bad_delta_or_rho_factor_exits_domain(self, tmp_path, bad):
        args = ["orbit", "--k", "0.5", "--L", "6pi", "--t-end", "1",
                "--out-dir", str(tmp_path)] + bad
        assert dispatch(args) == EXIT_DOMAIN
        assert not (tmp_path / "orbit.csv").exists()

