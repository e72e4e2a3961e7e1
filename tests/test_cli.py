import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexlab import cli, config, fitting, jumps
from vortexlab.errors import ConfigError, VortexlabError

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example.ini"


def run_python(*args: str, timeout: float | None = None,
               openblas_threads: str | None = None
               ) -> subprocess.CompletedProcess:
    """`python *args` in a child that imports this checkout, killed after
    timeout seconds if one is given; OPENBLAS_NUM_THREADS as given (unset
    for None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_cli(*argv: str, timeout: float | None = None
            ) -> subprocess.CompletedProcess:
    """`python -m vortexlab.cli` in a child that imports this checkout,
    with the test process's OPENBLAS_NUM_THREADS."""
    return run_python("-m", "vortexlab.cli", *argv, timeout=timeout,
                      openblas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))

MINI_CONFIG = """\
[device]
w_um = 3.0
t_nm = 24.0
xi_nm = 7.0
lambda_L_um = 4.0

[qrm]
f_r_GHz = 7.572
g_MHz = 92.5
gamma_GHz_per_mT = 20.0
B0_uT = 128.0
f_q0_GHz = 2.0
n_fock = 20

[jumps]
T_up_us = 570.0
T_down_us = 135.0
sigma_cloud = 1.0
separation_sigma = 6.0
spacing_us = 5.0
duration_s = 0.25
seed = 7

[sweep]
B_min_uT = 68.0
B_max_uT = 188.0
n_points = 9
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(MINI_CONFIG)
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def set_key(text: str, key: str, value: str) -> str:
    """Config text with the line of key set to `key = value`."""
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    return text.replace(line, f"{key} = {value}")


class TestConfig:
    def test_loads_example(self):
        cfg = config.load_config(CONFIG)
        dev = cfg.device()
        assert dev.w == pytest.approx(3e-6)
        params, trunc = cfg.qrm()
        assert params.g == pytest.approx(92.5e6)
        assert trunc.n_fock == 60
        sites = cfg.sites()
        assert len(sites) == 2
        assert sites[0].x_i == pytest.approx(985e-9)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[device]\nw = 3.0\n")  # missing unit suffix
        with pytest.raises(ConfigError):
            config.load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nonsense]\nx_nm = 1.0\n")
        with pytest.raises(ConfigError):
            config.load_config(bad)

    def test_incomplete_site_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[pinning]\nsite1_x_nm = 10.0\n")
        with pytest.raises(ConfigError):
            config.load_config(bad)

    @pytest.mark.parametrize("key, value, message", [
        ("site1_sigma_nm", "-5", "site1: sigma_nm must be positive and finite"),
        ("site2_V_GHz", "0", "site2: V_GHz must be positive and finite"),
        ("site1_V_GHz", "inf", "site1: V_GHz must be positive and finite"),
        ("site2_sigma_nm", "nan", "site2: sigma_nm must be positive and finite"),
        ("site2_x_nm", "nan", "site2: x_nm must be finite"),
        ("site1_y_nm", "-inf", "site1: y_nm must be finite")])
    def test_bad_site_is_config_error(self, key, value, message):
        text = CONFIG.read_text().replace(
            f"{key} = ", f"{key} = {value}  # was ")
        with pytest.raises(ConfigError, match=rf"^\[pinning\] {message}$"):
            config.parse_config(text)

    def test_seed_env_override(self, mini_config):
        cfg = config.load_config(mini_config)
        assert cfg.seed(None) == 7
        assert cfg.seed("123") == 123
        with pytest.raises(ConfigError):
            cfg.seed("not-a-number")

    def test_negative_seed_names_its_source(self, mini_config, tmp_path):
        with pytest.raises(ConfigError, match="VORTEXLAB_SEED"):
            config.load_config(mini_config).seed("-1")
        bad = tmp_path / "bad.ini"
        bad.write_text(MINI_CONFIG.replace("seed = 7", "seed = -7"))
        with pytest.raises(ConfigError, match=r"\[jumps\] seed"):
            config.load_config(bad).seed(None)
        assert config.load_config(mini_config).seed("0") == 0

    @pytest.mark.parametrize("value, ok", [
        (1, False), (2, True), (2047, True), (2048, False)])
    def test_n_fock_bounds(self, tmp_path, value, ok):
        path = tmp_path / "c.ini"
        path.write_text(f"[qrm]\nn_fock = {value}\n")
        if ok:
            assert config.load_config(path).section("qrm")["n_fock"] == value
        else:
            with pytest.raises(ConfigError, match="n_fock"):
                config.load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("grid_points", 63), ("grid_points", 4097),
        ("k_levels", 0), ("k_levels", 1), ("k_levels", 11)])
    def test_tunneling_bounds_rejected(self, tmp_path, key, value):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[tunneling]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            config.load_config(bad)

    @pytest.mark.parametrize("key, value", [
        ("grid_points", 64), ("grid_points", 4096)])
    def test_tunneling_bounds_accepted(self, tmp_path, key, value):
        ok = tmp_path / "ok.ini"
        ok.write_text(f"[tunneling]\n{key} = {value}\n")
        assert config.load_config(ok).section("tunneling")[key] == value

    def test_readme_lists_the_schema(self):
        # README's "Configuration format" block is the schema: each line
        # "key = default  # domain" matches the key's table entry, so a key
        # that reaches nothing cannot linger in the docs
        text = (ROOT / "README.md").read_text()
        block = text.split("## Configuration format", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        listed: dict[str, dict[str, tuple]] = {}
        for line in block.splitlines():
            code, _, domain = (part.strip() for part in line.partition("#"))
            if code.startswith("["):
                section = listed.setdefault(code.strip("[]"), {})
            elif code:
                key, _, default = (part.strip() for part in code.partition("="))
                section[key.removeprefix("siteN_")] = (
                    float(default) if default else None, domain)
        assert all(config._SITE_KEY.match(f"site1_{f}")
                   for f in listed["pinning"])
        assert listed == {
            name: {key: (spec.default, f"int in [{spec.domain[0]}, "
                         f"{spec.domain[1]}]" if isinstance(spec.domain, tuple)
                         else spec.domain) for key, spec in keys.items()}
            for name, keys in config._SCHEMA.items()}

    def test_example_sets_every_key(self):
        sections = config.load_config(CONFIG).sections
        for name, keys in config._SCHEMA.items():
            if name == "pinning":  # every field of both sites
                keys = [f"site{i}_{f}" for i in (1, 2) for f in keys]
            assert set(sections[name]) >= set(keys), name

    def test_tunnel_model_curvature(self):
        cfg = config.load_config(CONFIG)
        model = cfg.tunnel_model()
        site = cfg.sites()[0]
        from vortexlab.constants import CONSTANTS
        expected = 4 * site.V_i * (4e-9) ** 2 / (CONSTANTS.hbar * site.sigma_i**2)
        assert model.Omega == pytest.approx(expected, rel=1e-12, abs=0)


class TestScales:
    def test_writes_threshold(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["scales", "-c", str(mini_config), "-o", str(out)]) == 0
        header, rows = read_csv(out / "scales.csv")
        value = float(rows[0][header.index("phi_S")])
        assert value == pytest.approx(3.57, abs=0.01)

    def test_golden_bytes(self, mini_config, tmp_path):
        # the CSV byte format (repr floats, comma, LF) is a contract
        out = tmp_path / "out"
        cli.main(["scales", "-c", str(mini_config), "-o", str(out)])
        expected = (
            "Lambda_mm,eps0_J,eps0_over_h_THz,phi_S,B_S_uT\n"
            "1.333333333333333,4.0616529378496443e-22,0.612980672691738,"
            "3.570720543222817,820.4063114082786\n")
        assert (out / "scales.csv").read_text() == expected

    def test_manifest_lists_outputs_with_hashes(self, mini_config, tmp_path):
        out = tmp_path / "out"
        cli.main(["scales", "-c", str(mini_config), "-o", str(out)])
        manifest = json.loads((out / "manifest.scales.json").read_text())
        assert "scales.csv" in manifest["outputs"]
        digest = hashlib.sha256((out / "scales.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["scales.csv"] == digest
        assert manifest["seed"] == 7

    def test_commands_into_one_directory_keep_their_manifests(
            self, mini_config, tmp_path):
        out = tmp_path / "out"
        for command in ("scales", "synth-jumps"):
            assert cli.main([command, "-c", str(mini_config),
                             "-o", str(out)]) == 0
        assert sorted(p.name for p in out.glob("manifest*")) == [
            "manifest.scales.json", "manifest.synth-jumps.json"]
        for command, output in (("scales", "scales.csv"),
                                ("synth-jumps", "trajectory.csv")):
            manifest = json.loads(
                (out / f"manifest.{command}.json").read_text())
            assert manifest["command"] == command
            assert list(manifest["outputs"]) == [output]
            environment = manifest["environment"]
            assert sorted(environment) == [
                "blas", "blas_threads", "cpu_count", "numpy", "python"]
            # numpy loaded before vortexlab.cli here, so nothing pinned it
            assert environment["blas_threads"] == os.environ.get(
                "OPENBLAS_NUM_THREADS")
            assert environment["numpy"] == np.__version__
            assert environment["cpu_count"] == os.cpu_count()
            assert environment["python"] == ".".join(
                map(str, sys.version_info[:3]))
            assert sorted(environment["blas"]) == ["name", "version"]


class TestChiSweep:
    def test_chi_column_dips_at_sweet_spot(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["chi", "-c", str(mini_config), "-o", str(out)]) == 0
        header, rows = read_csv(out / "chi.csv")
        chi = np.array([float(r[header.index("chi_MHz")]) for r in rows])
        assert np.all(chi < 0)
        interior_min = int(np.argmin(chi))
        assert 0 < interior_min < chi.size - 1  # non-monotonic in field

    def test_empty_sweep_exits_one(self, tmp_path):
        conf = tmp_path / "c.ini"
        conf.write_text(MINI_CONFIG.replace("n_points = 9", "n_points = 0"))
        out = tmp_path / "out"
        assert cli.main(["chi", "-c", str(conf), "-o", str(out)]) == 1

    def test_gaps_where_sweep_field_fails(self, tmp_path):
        # f_q = f_r near B = 493 uT; labeling fails on part of this window
        from vortexlab import rabi
        conf = tmp_path / "c.ini"
        conf.write_text(MINI_CONFIG.replace("B_min_uT = 68.0", "B_min_uT = 480.0")
                        .replace("B_max_uT = 188.0", "B_max_uT = 506.0")
                        .replace("n_points = 9", "n_points = 27"))
        out = tmp_path / "out"
        assert cli.main(["chi", "-c", str(conf), "-o", str(out)]) == 0
        cfg = config.load_config(conf)
        params, trunc = cfg.qrm()
        expected = [s is None for s in
                    rabi.sweep_field(params, cfg.sweep_fields(), trunc)]
        assert any(expected) and not all(expected)
        header, rows = read_csv(out / "chi.csv")
        assert len(rows) == 27
        assert [row[1:] == [""] * 4 for row in rows] == expected
        assert all(row[0] for row in rows)
        manifest = json.loads((out / "manifest.chi.json").read_text())
        fields = cfg.sweep_fields()
        assert manifest["diagnostics"] == {
            "gaps": sum(expected), "n_fock": 20,
            "sweep_threads": rabi.sweep_threads(),
            "truncation_error": rabi.truncation_error(
                params, [params.B0, fields[0], fields[-1]], trunc)}
        assert 0.0 <= manifest["diagnostics"]["truncation_error"] < 1e-12

    def test_truncation_error_null_when_no_check_field_labels(self, tmp_path):
        # f_q = f_r at B0, and every field of the sweep is B0
        conf = tmp_path / "c.ini"
        text = set_key(MINI_CONFIG, "f_q0_GHz", "7.572")
        for key in ("B_min_uT", "B_max_uT"):
            text = set_key(text, key, "128.0")
        conf.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["chi", "-c", str(conf), "-o", str(out)]) == 0
        diagnostics = json.loads(
            (out / "manifest.chi.json").read_text())["diagnostics"]
        assert diagnostics["gaps"] == 9
        assert diagnostics["truncation_error"] is None


class TestBlasPin:
    """A CLI process runs BLAS on one thread, unless the user set a count,
    and then solves a sweep's chunks on a thread per usable core."""

    def test_importing_the_package_loads_no_numpy(self):
        proc = run_python("-c", "import sys, vortexlab\n"
                          "assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_chi_pins_blas_and_threads_its_sweep(self, tmp_path):
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        chi = {}
        for threads, blas, sweep in ((None, "1", cores), ("2", "2", 1)):
            out = tmp_path / f"out{threads}"
            proc = run_python("-m", "vortexlab.cli", "chi", "-c", str(CONFIG),
                              "-o", str(out), openblas_threads=threads)
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out / "manifest.chi.json").read_text())
            assert manifest["environment"]["blas_threads"] == blas
            assert manifest["diagnostics"]["sweep_threads"] == sweep
            chi[threads] = (out / "chi.csv").read_bytes()
        assert chi[None] == chi["2"]


class TestDeterminism:
    def test_byte_identical_outputs(self, mini_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["synth-jumps", "-c", str(mini_config),
                             "-o", str(out)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_seed_env_changes_output(self, mini_config, tmp_path,
                                     monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["synth-jumps", "-c", str(mini_config), "-o", str(out1)])
        monkeypatch.setenv("VORTEXLAB_SEED", "99")
        cli.main(["synth-jumps", "-c", str(mini_config), "-o", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()


class TestJumpsPipeline:
    def test_synth_then_analyze(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(mini_config),
                         "-o", str(out)]) == 0
        assert cli.main(["analyze-jumps", "-c", str(mini_config),
                         "-o", str(out),
                         "--data", str(out / "trajectory.csv")]) == 0
        result = json.loads((out / "jumps_analysis.json").read_text())
        assert 50 < result["T1_us"] < 200
        assert 0.1 < result["P_e"] < 0.3
        assert result["T_eff_mK"] is not None

    def test_n_sigma_reaches_dwell_statistics(self, mini_config, tmp_path,
                                              monkeypatch):
        bands = []
        real = jumps.dwell_statistics

        def spy(states, spacing, **kwargs):
            bands.append(kwargs.get("n_sigma"))
            return real(states, spacing, **kwargs)

        monkeypatch.setattr(jumps, "dwell_statistics", spy)
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(mini_config),
                         "-o", str(out)]) == 0
        assert cli.main(["analyze-jumps", "-c", str(mini_config),
                         "-o", str(out), "--n-sigma", "1.0",
                         "--data", str(out / "trajectory.csv")]) == 0
        assert bands == [1.0]

    @staticmethod
    def _short_record(tmp_path):
        """A seeded 20k-shot record (0.1 s) of the mini config."""
        conf = tmp_path / "short.ini"
        conf.write_text(MINI_CONFIG.replace("duration_s = 0.25",
                                            "duration_s = 0.1"))
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(conf), "-o", str(out)]) == 0
        return conf, out

    def test_golden_bytes(self, tmp_path):
        # the bytes the broadcast EM gave on this seeded record
        conf, out = self._short_record(tmp_path)
        assert cli.main(["analyze-jumps", "-c", str(conf), "-o", str(out),
                         "--data", str(out / "trajectory.csv")]) == 0
        expected = (
            '{\n'
            '  "P_e": 0.1866,\n'
            '  "T1_us": 110.1317713685278,\n'
            '  "T_down_us": 133.03055829388916,\n'
            '  "T_eff_mK": 65.19578164135588,\n'
            '  "T_up_us": 639.8107934190926,\n'
            '  "n_dwells_down": 129,\n'
            '  "n_dwells_up": 128\n'
            '}\n')
        assert (out / "jumps_analysis.json").read_text() == expected

    def test_manifest_diagnostics(self, tmp_path):
        conf, out = self._short_record(tmp_path)
        assert cli.main(["analyze-jumps", "-c", str(conf), "-o", str(out),
                         "--data", str(out / "trajectory.csv")]) == 0
        result = json.loads((out / "jumps_analysis.json").read_text())
        diagnostics = json.loads(
            (out / "manifest.analyze-jumps.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == [
            "em_iterations", "log_likelihood", "min_run", "n_dwells_down",
            "n_dwells_up", "samples", "spacing_us"]
        assert diagnostics["em_iterations"] >= 1
        assert math.isfinite(diagnostics["log_likelihood"])
        assert diagnostics["min_run"] == 5  # the default band, 1.5 sigma
        assert diagnostics["n_dwells_up"] == result["n_dwells_up"]
        assert diagnostics["n_dwells_down"] == result["n_dwells_down"]
        assert diagnostics["samples"] == 20000
        assert diagnostics["spacing_us"] == pytest.approx(5.0, rel=1e-9, abs=0)
        # diagnostics stay out of the data file
        assert set(result) == {"P_e", "T1_us", "T_down_us", "T_eff_mK",
                               "T_up_us", "n_dwells_down", "n_dwells_up"}

    @pytest.mark.parametrize("damage, message", [
        ("reversed", "times must be strictly ascending"),
        ("constant_t", "times must be strictly ascending"),
        ("blank_I", "IQ points must be finite"),
    ])
    def test_invalid_record_exits_two(self, tmp_path, damage, message):
        conf, out = self._short_record(tmp_path)
        header, *rows = (out / "trajectory.csv").read_text().splitlines(
            keepends=True)
        if damage == "reversed":
            rows.reverse()
        elif damage == "constant_t":
            rows = ["0.0," + row.partition(",")[2] for row in rows]
        else:
            cells = rows[10000].split(",")
            cells[header.split(",").index("I")] = ""
            rows[10000] = ",".join(cells)
        data = tmp_path / "damaged.csv"
        data.write_text(header + "".join(rows))
        bad = tmp_path / "bad"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may leak
            assert cli.main(["analyze-jumps", "-c", str(conf), "-o", str(bad),
                             "--data", str(data)]) == 2
        report = json.loads((bad / "error.json").read_text())
        assert report == {"error": "InvalidParameterError", "message": message}
        assert not (bad / "jumps_analysis.json").exists()


class TestFitCommands:
    def test_fit_decay_json(self, tmp_path):
        t = np.linspace(0, 1000, 80)  # us
        v = 0.9 * np.exp(-t / 186.0) + 0.05
        data = tmp_path / "decay.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_us", "value"])
            w.writerows(zip(t, v))
        out = tmp_path / "out"
        assert cli.main(["fit-decay", "--data", str(data),
                         "-o", str(out)]) == 0
        result = json.loads((out / "fit_decay.json").read_text())
        assert result["params"]["T_us"] == pytest.approx(
            186.0, rel=1e-4, abs=0)
        assert result["converged"]

    def test_fit_ramsey_csv_format(self, tmp_path):
        t = np.linspace(0, 2.0, 300)  # us
        v = np.exp(-t / 0.44) * (0.4 * np.cos(2 * np.pi * 5 * t)
                                 + 0.4 * np.cos(2 * np.pi * 7 * t)) + 0.5
        data = tmp_path / "ramsey.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_us", "value"])
            w.writerows(zip(t, v))
        out = tmp_path / "out"
        assert cli.main(["fit-ramsey", "--data", str(data), "-o", str(out),
                         "--format", "csv"]) == 0
        header, rows = read_csv(out / "fit_ramsey.csv")
        beat = float(rows[0][header.index("params.f_beat_MHz")])
        assert beat == pytest.approx(2.0, rel=0.02, abs=0)

    def test_fit_spectrum(self, mini_config, tmp_path):
        from vortexlab import rabi
        params = rabi.QrmParams.asymmetric(7.572e9, 92.5e6, 20e12, 128e-6,
                                           2e9)
        trunc = rabi.HilbertTruncation(20)
        qubit = tmp_path / "q.csv"
        resonator = tmp_path / "r.csv"
        with open(qubit, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["B_uT", "f_GHz", "sigma_GHz"])
            for B in np.linspace(28e-6, 228e-6, 9):
                spec = rabi.solve_qrm(params, B, trunc)
                w.writerow([B * 1e6, spec.f_q_dressed / 1e9, 1e-3])
        with open(resonator, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["B_uT", "f_GHz", "sigma_GHz"])
            for B in np.linspace(-62e-6, 328e-6, 9):
                spec = rabi.solve_qrm(params, B, trunc)
                w.writerow([B * 1e6, spec.f_r_g / 1e9, 2e-4])
        out = tmp_path / "out"
        assert cli.main(["fit-spectrum", "-c", str(mini_config),
                         "--qubit", str(qubit), "--resonator", str(resonator),
                         "-o", str(out)]) == 0
        result = json.loads((out / "fit_spectrum.json").read_text())
        assert result["params"]["g_MHz"] == pytest.approx(
            92.5, rel=1e-3, abs=0)
        assert result["params"]["B0_uT"] == pytest.approx(
            128.0, rel=1e-3, abs=0)
        diagnostics = json.loads(
            (out / "manifest.fit-spectrum.json").read_text())["diagnostics"]
        assert set(diagnostics) == {"iterations", "message",
                                    "gradient_measure", "n_penalized",
                                    "sweep_threads", "truncation_error"}
        assert diagnostics["sweep_threads"] == rabi.sweep_threads()
        assert diagnostics["iterations"] == result["iterations"]
        assert diagnostics["message"] == result["message"]
        assert diagnostics["n_penalized"] == 0
        assert diagnostics["gradient_measure"] >= 0.0
        assert 0.0 <= diagnostics["truncation_error"] < 1e-12

    def test_fit_spectrum_truncation_error(self, mini_config, tmp_path):
        # at n_fock 2 the estimate is far above rounding, so it shows which
        # fields it checks: the fitted B0 and the data's extremes
        from vortexlab import rabi
        paths = _digest_inputs(tmp_path)
        mini_config.write_text(set_key(MINI_CONFIG, "n_fock", "2"))
        out = tmp_path / "out"
        assert cli.main(["fit-spectrum", "-c", str(mini_config),
                         "--qubit", str(paths["qubit"]),
                         "--resonator", str(paths["resonator"]),
                         "-o", str(out)]) == 0
        params = json.loads((out / "fit_spectrum.json").read_text())["params"]
        fitted = rabi.QrmParams.asymmetric(*(params[name] * unit for name, unit
                                             in cli._QRM_UNITS.values()))
        error = json.loads((out / "manifest.fit-spectrum.json").read_text())[
            "diagnostics"]["truncation_error"]
        assert error > 1e-8
        assert error == pytest.approx(rabi.truncation_error(
            fitted, [fitted.B0, -62e-6, 328e-6], rabi.HilbertTruncation(2)),
            rel=1e-6, abs=0)

    def test_fit_spectrum_g_verdict_exits_zero(self, tmp_path,
                                               criterion_05_dataset):
        # criterion 05's points at noise seed 1: the coupling's pull is
        # below the noise and the fit reports g = 0 without an error bar
        ds = criterion_05_dataset(noise_seed=1)
        paths = []
        for name, pts in (("q.csv", ds.qubit_points),
                          ("r.csv", ds.resonator_points)):
            paths.append(tmp_path / name)
            paths[-1].write_text("B_uT,f_GHz,sigma_GHz\n" + "".join(
                f"{B * 1e6!r},{f / 1e9!r},{sig / 1e9!r}\n"
                for B, f, sig in pts.tolist()))
        out = tmp_path / "out"
        assert cli.main(["fit-spectrum", "--qubit", str(paths[0]),
                         "--resonator", str(paths[1]), "-o", str(out)]) == 0
        result = json.loads((out / "fit_spectrum.json").read_text())
        assert result["converged"] is True
        assert result["params"]["g_MHz"] == 0.0
        assert result["std_errors"]["g_MHz"] is None
        assert result["message"].endswith(
            "g unidentifiable: the data fit as well at g = 0")
        assert None not in (se for key, se in result["std_errors"].items()
                            if key != "g_MHz")

    @pytest.mark.parametrize("blank", ["qubit", "resonator"])
    def test_fit_spectrum_rejects_blank_field(self, tmp_path, blank):
        # a blank B_uT cell reads as NaN and must not reach the fit
        qubit = tmp_path / "q.csv"
        qubit.write_text("B_uT,f_GHz,sigma_GHz\n100.0,2.1,0.001\n"
                         "128.0,2.0,0.001\n150.0,2.1,0.001\n")
        resonator = tmp_path / "r.csv"
        resonator.write_text("B_uT,f_GHz,sigma_GHz\n0.0,7.57,0.0002\n"
                             "300.0,7.57,0.0002\n")
        bad = qubit if blank == "qubit" else resonator
        bad.write_text(bad.read_text().replace("\n300.0,", "\n,")
                       .replace("\n128.0,", "\n,"))
        out = tmp_path / "out"
        assert cli.main(["fit-spectrum", "--qubit", str(qubit),
                         "--resonator", str(resonator), "-o", str(out)]) == 2
        report = json.loads((out / "error.json").read_text())
        assert report["error"] == "InvalidParameterError"


class TestBatchFit:
    @staticmethod
    def _write_dataset(path: Path, B0_uT: float, phi_ratio: float):
        B = np.linspace(B0_uT - 100, B0_uT + 100, 15)
        f = np.sqrt(2.0**2 + (20.0 * (B - B0_uT) * 1e-3) ** 2)
        with open(path, "w", newline="") as fh:
            fh.write(f"# phi_over_phi_S = {phi_ratio}\n")
            w = csv.writer(fh)
            w.writerow(["B_uT", "f_GHz"])
            w.writerows(zip(B, f))

    def test_directory_of_datasets(self, tmp_path):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        for i in range(5):
            self._write_dataset(data_dir / f"run{i}.csv", 100.0 + 10 * i,
                                0.5 + 0.1 * i)
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 0
        header, rows = read_csv(out / "batch_fit.csv")
        assert len(rows) == 5
        for i, row in enumerate(rows):
            assert row[header.index("converged")] == "True"
            b0 = float(row[header.index("B0_uT")])
            assert b0 == pytest.approx(100.0 + 10 * i, rel=0.01, abs=0)
            gamma = float(row[header.index("gamma_GHz_per_mT")])
            assert gamma == pytest.approx(20.0, rel=0.01, abs=0)
            assert float(row[header.index("phi_over_phi_S")]) == \
                pytest.approx(0.5 + 0.1 * i)

    def test_corrupt_file_keeps_going(self, tmp_path):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        for i in range(4):
            self._write_dataset(data_dir / f"run{i}.csv", 120.0, 1.0)
        (data_dir / "broken.csv").write_text("B_uT,f_GHz\nnot,numbers\n")
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 0
        header, rows = read_csv(out / "batch_fit.csv")
        assert len(rows) == 5
        flags = [row[header.index("converged")] for row in rows]
        assert flags.count("True") == 4
        assert flags.count("False") == 1

    def test_manifest_counts(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        for i in range(3):
            self._write_dataset(data_dir / f"run{i}.csv", 120.0, 1.0)
        (data_dir / "broken.csv").write_text("B_uT,f_GHz\nnot,numbers\n")
        # the three files are alike, so each fit goes as this one does
        data = cli._read_csv_columns(data_dir / "run0.csv", 2)
        single = fitting.fit_hyperbola(np.column_stack(
            [data[:, 0] * 1e-6, data[:, 1] * 1e9, np.full(len(data), 1e6)]))
        fit = fitting.fit_hyperbolas

        def unconverged_first(datasets):  # run0.csv, after broken.csv
            results = fit(datasets)
            results[0].converged = False
            return results

        monkeypatch.setattr(fitting, "fit_hyperbolas", unconverged_first)
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.batch-fit.json").read_text())
        assert manifest["diagnostics"] == {
            "files": 4, "errors": 1, "unconverged": 1,
            "iterations": {"total": 3 * single.iterations,
                           "max": single.iterations},
            "stop_messages": {single.message: 3}}

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        self._write_dataset(data_dir / "run0.csv", 120.0, 1.0)

        def broken(datasets):
            raise TypeError("bug in the fitter")

        monkeypatch.setattr(fitting, "fit_hyperbolas", broken)
        with pytest.raises(TypeError):
            cli.main(["batch-fit", "--data-dir", str(data_dir),
                      "-o", str(tmp_path / "out")])

    def test_rows_match_single_fits(self, tmp_path):
        # 15- and 25-point files, with and without sigma, fitted in one call
        # beside files that fail: each row is, cell for cell, the dataset's
        # own fit_hyperbola, and a failing file's row holds the error that
        # fit raises
        rng = np.random.default_rng(7)
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        tables = {}
        for i, n in enumerate([15, 25, 15, 25, 25, 15]):
            B = np.linspace(0.0, 240.0, n)
            f = np.sqrt(2.0**2 + (20e-3 * (B - 100.0 - 8 * i)) ** 2) \
                + rng.normal(0.0, 0.01, n)
            tables[f"fit{i}.csv"] = [B, f] + ([np.full(n, 0.01)] if i % 2 else [])
        B, f = tables["fit1.csv"][:2]
        tables["nan_cell.csv"] = [B, np.where(np.arange(B.size) == 7, np.nan, f)]
        tables["two_points.csv"] = [B[:2], f[:2]]
        tables["flat.csv"] = [np.full(9, 120.0), f[:9]]
        for name, cols in tables.items():
            header = ["B_uT", "f_GHz", "sigma_GHz"][:len(cols)]
            lines = [",".join(header)] + [
                ",".join("" if math.isnan(v) else repr(v) for v in row)
                for row in zip(*(c.tolist() for c in cols))]
            (data_dir / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 0
        header, rows = read_csv(out / "batch_fit.csv")
        assert [row[0] for row in rows] == sorted(tables)
        errors = {}
        for row in rows:
            data = cli._read_csv_columns(data_dir / row[0], 2)
            sigma = data[:, 2] * 1e9 if data.shape[1] > 2 \
                else np.full(len(data), 1e6)
            try:
                fit = fitting.fit_hyperbola(np.column_stack(
                    [data[:, 0] * 1e-6, data[:, 1] * 1e9, sigma]))
            except VortexlabError as exc:
                expected = ["", "", "", "", "False", str(exc)]
                errors[row[0]] = str(exc)
            else:
                assert fit.converged
                expected = [cli._fmt(fit.params["f_q0"] / 1e9),
                            cli._fmt(fit.params["B0"] * 1e6),
                            cli._fmt(fit.params["gamma"] / 1e12), "", "True", ""]
            assert row[2:] == expected, row[0]
        assert errors == {
            "nan_cell.csv": "initial parameters must be finite",
            "two_points.csv": "need at least 3 (B, f) points",
            "flat.csv": "all fields identical, hyperbola unconstrained"}

    def test_blank_line_before_phi_comment(self, tmp_path):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        path = data_dir / "run0.csv"
        self._write_dataset(path, 120.0, 0.7)
        path.write_text("\n" + path.read_text())
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 0
        header, rows = read_csv(out / "batch_fit.csv")
        assert float(rows[0][header.index("phi_over_phi_S")]) == 0.7

    def test_empty_directory_exits_one(self, tmp_path):
        data_dir = tmp_path / "empty"
        data_dir.mkdir()
        out = tmp_path / "out"
        assert cli.main(["batch-fit", "--data-dir", str(data_dir),
                         "-o", str(out)]) == 1
        assert not out.exists()


class TestOtherSubcommands:
    def test_spectrum(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["spectrum", "-c", str(mini_config),
                         "-o", str(out)]) == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["B_uT", "f_q_GHz", "f_r_g_GHz", "f_r_e_GHz",
                          "chi_MHz"]
        assert len(rows) == 9

    def test_landscape(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["landscape", "-c", str(mini_config), "-o", str(out),
                         "--field-ut", "400", "--points", "64"]) == 0
        header, rows = read_csv(out / "landscape.csv")
        assert header == ["x_nm", "y_nm", "V_over_eps0", "V_GHz"]
        # strip edges carry zero baseline energy
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)

    def test_gamma_map(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["gamma-map", "-c", str(mini_config), "-o", str(out),
                         "--n-delta", "5", "--n-xbar", "5"]) == 0
        header, rows = read_csv(out / "gamma_map.csv")
        assert len(rows) == 25

    def test_pair(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["pair", "-c", str(mini_config), "-o", str(out),
                         "--x1-um", "1.5", "--y1-um", "0.0",
                         "--x2-um", "1.5", "--y2-um", "3.0"]) == 0
        result = json.loads((out / "pair.json").read_text())
        assert result["G2_over_eps0"] == pytest.approx(0.1730, abs=1e-3)

    def test_tunnel(self, tmp_path):
        conf = tmp_path / "c.ini"
        conf.write_text(MINI_CONFIG + """
[pinning]
site1_x_nm = 985.0
site1_V_GHz = 150.0
site1_sigma_nm = 8.0
site2_x_nm = 1015.0
site2_V_GHz = 150.0
site2_sigma_nm = 8.0

[tunneling]
grid_points = 256
x_min_nm = 880.0
x_max_nm = 1120.0
y_zpf_nm = 4.0
""".replace("B_min_uT = 68.0", "")
            + "")
        # narrow three-point field scan near the alignment field
        conf.write_text(conf.read_text().replace(
            "B_min_uT = 68.0", "B_min_uT = 180.0").replace(
            "B_max_uT = 188.0", "B_max_uT = 220.0").replace(
            "n_points = 9", "n_points = 3"))
        out = tmp_path / "out"
        assert cli.main(["tunnel", "-c", str(conf), "-o", str(out)]) == 0
        header, rows = read_csv(out / "tunnel.csv")
        assert header == ["B_uT", "f_q_GHz", "E0_GHz", "E1_GHz"]
        assert len(rows) == 3

    @pytest.mark.parametrize("n_points,grid_points", [(2, 1024), (1, 256)])
    def test_tunnel_manifest_reports_sweep(self, tmp_path, monkeypatch,
                                           n_points, grid_points):
        conf = tmp_path / "c.ini"
        conf.write_text(MINI_CONFIG.replace("n_points = 9",
                                            f"n_points = {n_points}") + f"""
[pinning]
site1_x_nm = 985.0
site1_V_GHz = 150.0
site1_sigma_nm = 8.0
site2_x_nm = 1015.0
site2_V_GHz = 150.0
site2_sigma_nm = 8.0

[tunneling]
grid_points = {grid_points}
x_min_nm = 880.0
x_max_nm = 1120.0
y_zpf_nm = 4.0
""")
        out = tmp_path / "out"
        assert cli.main(["tunnel", "-c", str(conf), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.tunnel.json").read_text())
        diagnostics = manifest["diagnostics"]
        assert diagnostics["fields"] == n_points
        assert diagnostics["grid_points"] == grid_points
        _, rows = read_csv(out / "tunnel.csv")
        min_f_q = min(float(row[1]) for row in rows)
        assert 0.0 <= diagnostics["max_residual_GHz"] < 1e-6 * min_f_q

        # a Run that drops its diagnostics writes the same data bytes
        monkeypatch.setattr(cli.Run, "diagnostics",
                            property(lambda run: {}, lambda run, value: None),
                            raising=False)
        bare = tmp_path / "bare"
        assert cli.main(["tunnel", "-c", str(conf), "-o", str(bare)]) == 0
        assert json.loads((bare / "manifest.tunnel.json").read_text())[
            "diagnostics"] == {}
        assert ((bare / "tunnel.csv").read_bytes()
                == (out / "tunnel.csv").read_bytes())

    @pytest.mark.parametrize("key, value, reason", [
        ("site1_sigma_nm", "1e-100", "spans 4.26e-100 grid steps"),
        ("site1_sigma_nm", "1e-30", "spans 4.26e-30 grid steps"),
        ("B_min_uT", "1e200", "level E2 lies 1.52e+192 K / dx^2 above"),
        ("y_zpf_nm", "1e30", "level E1 lies above the potential's whole"),
    ])
    def test_tunnel_refuses_an_unresolved_landscape(self, tmp_path, capsys,
                                                    key, value, reason):
        # in-domain values whose solve the grid or the landscape cannot
        # carry: exit 2 naming the keys, never a tunnel.csv of nonsense
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(set_key(CONFIG.read_text(), "n_points", "3"),
                                key, value))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["tunnel", "-c", str(conf), "-o", str(out)])
        assert code == 2, capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidParameterError"
        assert error["message"].startswith(
            "[pinning] siteN: sigma_nm, V_GHz, [tunneling] grid_points")
        assert reason in error["message"]
        assert not (out / "tunnel.csv").exists()

    def test_tunnel_eigensolver_error_names_the_keys(self, tmp_path,
                                                     monkeypatch):
        from vortexlab import tunneling
        from vortexlab.errors import EigensolverError

        def fails(d, off, k):
            raise EigensolverError("the 1D Hamiltonian is not finite")

        monkeypatch.setattr(tunneling, "_bisection_1d", fails)
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(CONFIG.read_text(), "n_points", "3"))
        out = tmp_path / "out"
        assert cli.main(["tunnel", "-c", str(conf), "-o", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "EigensolverError"
        assert error["message"].startswith(
            "[pinning] siteN: sigma_nm, V_GHz, [tunneling] grid_points")
        assert error["message"].endswith("the 1D Hamiltonian is not finite")
        assert "error.json" in json.loads(
            (out / "manifest.tunnel.json").read_text())["outputs"]
        assert not (out / "tunnel.csv").exists()

    def test_fit_echo(self, tmp_path):
        t = np.linspace(0, 6.0, 60)  # us
        v = 0.5 * np.exp(-t / 1.2) + 0.05
        data = tmp_path / "echo.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_us", "value"])
            w.writerows(zip(t, v))
        out = tmp_path / "out"
        assert cli.main(["fit-echo", "--data", str(data), "-o", str(out)]) == 0
        result = json.loads((out / "fit_echo.json").read_text())
        assert result["params"]["T_us"] == pytest.approx(1.2, rel=1e-3, abs=0)

    def test_fit_rabi(self, tmp_path):
        rows = []
        for amp_uv in (4.0, 8.0, 16.0):
            t = np.linspace(0, 2.0, 150)  # us
            v = 0.5 - 0.5 * np.cos(2 * np.pi * amp_uv * t)  # 1 MHz per uV
            rows += [[amp_uv, ti, vi] for ti, vi in zip(t, v)]
        data = tmp_path / "rabi.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["amplitude_uV", "t_us", "value"])
            w.writerows(rows)
        out = tmp_path / "out"
        assert cli.main(["fit-rabi", "--data", str(data), "-o", str(out)]) == 0
        result = json.loads((out / "fit_rabi.json").read_text())
        assert result["params"]["slope_MHz_per_uV"] == pytest.approx(
            1.0, rel=0.01, abs=0)

    @pytest.mark.parametrize("command", ["fit-decay", "fit-echo",
                                         "fit-ramsey", "fit-rabi"])
    def test_fit_manifest_diagnostics(self, tmp_path, command):
        data = tmp_path / "data.csv"
        data.write_text(_rabi_text() if command == "fit-rabi"
                        else _trace_text(command))
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(data), "-o", str(out)]) == 0
        stem = command.replace("-", "_")
        result = json.loads((out / f"{stem}.json").read_text())
        diagnostics = json.loads(
            (out / f"manifest.{command}.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == ["gradient_measure", "iterations",
                                       "message"]
        assert diagnostics["iterations"] == result["iterations"]
        assert diagnostics["message"] == result["message"]
        assert math.isfinite(diagnostics["gradient_measure"])


def _trace_text(command: str) -> str:
    """A clean t_us,value,sigma trace that the given fit command converges on."""
    if command == "fit-ramsey":
        t = np.linspace(0, 2.0, 300)  # us
        v = np.exp(-t / 0.44) * (0.4 * np.cos(2 * np.pi * 5 * t)
                                 + 0.4 * np.cos(2 * np.pi * 7 * t)) + 0.5
    else:
        t = np.linspace(0, 1000, 80)  # us
        v = 0.9 * np.exp(-t / 186.0) + 0.05
    return "t_us,value,sigma\n" + "".join(
        f"{ti!r},{vi!r},0.01\n" for ti, vi in zip(t.tolist(), v.tolist()))


TRACE_COMMANDS = ["fit-decay", "fit-echo", "fit-ramsey"]


def _rabi_text() -> str:
    """amplitude_uV,t_us,value scans at 1 MHz per uV."""
    t = np.linspace(0, 2.0, 150)  # us
    return "amplitude_uV,t_us,value\n" + "".join(
        f"{amp!r},{ti!r},{0.5 - 0.5 * math.cos(2 * math.pi * amp * ti)!r}\n"
        for amp in (4.0, 8.0) for ti in t.tolist())


BLANK_CELLS = [("fit-rabi", "amplitude_uV", "amplitude_uV must be finite"),
               ("fit-rabi", "t_us", "times must be finite"),
               ("fit-rabi", "value", "values must be finite")] + [
    (command, column, f"{name} must be finite") for command in TRACE_COMMANDS
    for column, name in (("t_us", "times"), ("value", "values"))]


class TestTraceFiles:
    """fit-decay, fit-echo and fit-ramsey read traces with the one reader."""

    @staticmethod
    def _run(tmp_path, command, text, name="trace"):
        data = tmp_path / f"{name}.csv"
        data.write_text(text)
        out = tmp_path / name
        return cli.main([command, "--data", str(data), "-o", str(out)]), data, out

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_short_row_exits_two_with_report(self, tmp_path, command):
        lines = _trace_text(command).splitlines(keepends=True)
        lines.insert(5, "2\n")
        code, data, out = self._run(tmp_path, command, "".join(lines))
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert str(data) in report["message"]

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_partial_sigma_column_rejected(self, tmp_path, command):
        lines = _trace_text(command).splitlines(keepends=True)
        lines[5] = lines[5].replace(",0.01\n", ",\n")
        code, _, out = self._run(tmp_path, command, "".join(lines))
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert report["error"] == "InvalidParameterError"

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_comment_before_header_parses(self, tmp_path, command):
        stem = command.replace("-", "_")
        code, _, plain = self._run(tmp_path, command, _trace_text(command),
                                   "plain")
        assert code == 0
        code, _, out = self._run(tmp_path, command,
                                 "# recorded 2024-05-01\n" + _trace_text(command),
                                 "commented")
        assert code == 0
        assert (out / f"{stem}.json").read_bytes() == \
            (plain / f"{stem}.json").read_bytes()

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_blank_value_exits_two(self, tmp_path, command):
        lines = _trace_text(command).splitlines(keepends=True)
        head, _, tail = lines[5].split(",")
        lines[5] = f"{head},,{tail}"
        code, _, out = self._run(tmp_path, command, "".join(lines))
        assert code == 2
        assert (out / "error.json").exists()

    @pytest.mark.parametrize("command, column, message", BLANK_CELLS)
    def test_blank_cell_named_in_report(self, tmp_path, command, column,
                                        message):
        text = _rabi_text() if command == "fit-rabi" else _trace_text(command)
        lines = text.splitlines()
        cells = lines[5].split(",")
        cells[lines[0].split(",").index(column)] = ""
        lines[5] = ",".join(cells)
        code, _, out = self._run(tmp_path, command, "\n".join(lines) + "\n")
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert report["error"] == "InvalidParameterError"
        assert message in report["message"]


class TestReader:
    @pytest.mark.parametrize("text, expected", [
        ("a,b\n1,2\n\n# note\n3,4\n\n", [[1, 2], [3, 4]]),  # blank, comment
        ("# c1\n\n# c2\na,b\n1,2\n", [[1, 2]]),  # comments before header
        ("a,b,c\n1,2,3\n,,\n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),  # empty row
        ('a,b\n"1.5",2\n3,"-4e-3"\n', [[1.5, 2], [3, -4e-3]]),  # quoted
        ("a,b\n1,2 # tail\n3,4\n", [[1, 2], [3, 4]]),  # text after '#'
        ("a,b\n1,\n 3 ,4\r\n", [[1, math.nan], [3, 4]]),  # empty cell, CRLF
        ("a,b\n1,2,3\n", [[1, 2, 3]]),  # the header's width is not checked
    ])
    def test_rules(self, tmp_path, text, expected):
        path = tmp_path / "d.csv"
        path.write_text(text)
        np.testing.assert_array_equal(cli._read_csv_columns(path, 2), expected)

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"),
        ("# only\n\n", "empty file"),
        ("a,b\n", "no data rows"),
        ("a,b\n,\n# c\n", "no data rows"),
        ("a\n1\n2\n", "need at least 2 columns, got 1"),
        ("a,b\n1,2\n3\n", "ragged rows"),
        ("a,b\n1,x\n", "could not convert"),
    ])
    def test_rejections(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may leak
            with pytest.raises(VortexlabError, match=match) as info:
                cli._read_csv_columns(path, 2)
        assert str(path) in str(info.value)
        assert "usecols" not in str(info.value)

    def test_ragged_record_in_analyze_jumps(self, mini_config, tmp_path):
        data = tmp_path / "traj.csv"
        data.write_text("t_us,I,Q\n0.0,0.1,0.2\n5.0,0.3\n10.0,0.1,0.0\n")
        out = tmp_path / "out"
        assert cli.main(["analyze-jumps", "-c", str(mini_config), "-o", str(out),
                         "--data", str(data)]) == 2
        message = json.loads((out / "error.json").read_text())["message"]
        assert str(data) in message and "ragged" in message

    def test_header_only_record_is_quiet(self, tmp_path):
        data = tmp_path / "traj.csv"
        data.write_text("t_us,I,Q\n")
        proc = run_cli("analyze-jumps", "--data", str(data),
                       "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {data}: no data rows\n"

    @staticmethod
    def _both_paths(path, monkeypatch):
        """What the reader returns or raises, as read, and with every read
        forced through the per-cell converter, plus the loadtxt calls made
        as read (True where a converter was passed)."""
        loadtxt = np.loadtxt
        calls = []

        def outcome():
            try:
                return cli._read_csv_columns(path, 1)
            except VortexlabError as exc:
                return str(exc)

        def spy(*args, **kwargs):
            calls.append("converters" in kwargs)
            return loadtxt(*args, **kwargs)

        def converter_only(*args, **kwargs):
            kwargs.setdefault("converters", cli._empty_as_nan)
            return loadtxt(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", spy)
            read = outcome()
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", converter_only)
            oracle = outcome()
        return read, oracle, calls

    @pytest.mark.parametrize("text, fast", [
        (b"a,b\n1,2\n3,4\n", True),
        (b"a,b\n1,\n,4\n5,6\n", False),  # empty cells
        (b"a,b\r\n1.5,2\r\n3,-4e-3\r\n", True),  # CRLF
        (b"a,b\r\n1,\r\n3,4\r\n", False),  # CRLF and an empty cell
        (b'a,b\n"1.5",2\n3," -4e-3"\n', True),  # quoted
        (b'a,b\n"",2\n3,4\n', False),  # a quoted empty cell
        (b"a\n1\n   \n2\n", False),  # a whitespace-only line, one column
        (b"a,b\n1,2\n \t \n3,4\n", False),  # ... and as a ragged row
        (b"a,b\n1_0,2\n", False),  # float() reads it, numpy does not
        (b"a,b\ninf,-inf\nnan,-0.0\n", True),
        (b"a,b\n1,2 # tail\n\n# note\n3,4\n", True),
        (b"a,b\n1,2\n3\n", False),  # ragged
        (b"a,b\n1,x\n", False),
        (b"a,b\n", True),  # header only
        # lines before the header and an empty cell in the last row: the
        # retry seeks back to the first data line
        (b"# note\n\n  \n# more\na,b\n1,2\n3,4\n5,\n", False),
    ])
    def test_fast_path_matches_converter_path(self, tmp_path, monkeypatch,
                                              text, fast):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        read, oracle, calls = self._both_paths(path, monkeypatch)
        if isinstance(oracle, str):
            assert read == oracle
        else:
            np.testing.assert_array_equal(read, oracle)  # NaN equals NaN
        assert calls == ([False] if fast else [False, True])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.floats(width=64) | st.sampled_from([-0.0, math.inf, -math.inf]),
        st.sampled_from(["{}", '"{}"', " {} ", "", "{}\r"])),
        min_size=3, max_size=3), min_size=1, max_size=6))
    def test_fast_path_matches_converter_path_on_any_cells(
            self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("read") / "d.csv"
        path.write_text("a,b,c\n" + "".join(
            ",".join(form.format(repr(x)) for x, form in row) + "\n"
            for row in rows), newline="")
        with pytest.MonkeyPatch.context() as monkeypatch:
            read, oracle, _ = self._both_paths(path, monkeypatch)
        if isinstance(oracle, str):
            assert read == oracle
        else:
            np.testing.assert_array_equal(read, oracle)


_TEXT = st.text(alphabet=st.sampled_from('a1 .,"\r\n#\'\x0cé-'), max_size=6)
_NUMPY_SCALARS = st.sampled_from([np.float64(2.5), np.float32(0.1),
                                  np.float64("nan"), np.float32("-inf"),
                                  np.int64(-7), np.uint8(255), np.bool_(True)])


@st.composite
def _columns(draw):
    """One to four equal-length columns of every kind the writer takes."""
    n = draw(st.integers(0, 7))
    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf,
                                            -0.0])
    kinds = {
        "float64": lambda: np.array(draw(st.lists(floats, min_size=n,
                                                  max_size=n))),
        "float32": lambda: np.array(draw(st.lists(
            st.floats(width=32) | st.sampled_from([math.nan, -0.0]),
            min_size=n, max_size=n)), dtype=np.float32),
        "int": lambda: np.array(draw(st.lists(
            st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
            dtype=np.int64),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)), dtype=bool),
        "list": lambda: draw(st.lists(
            st.none() | _TEXT | floats | st.integers() | _NUMPY_SCALARS,
            min_size=n, max_size=n)),
    }
    picked = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                           max_size=4))
    return [kinds[kind]() for kind in picked]


def _force_forks(monkeypatch) -> list[int]:
    """Let the writer fork as on a three-core machine; the pid of each fork
    is appended to the list returned.

    The threads of the Rabi pool, which an earlier chi test may have
    started, are joined first, so the writer's own thread guard holds: no
    test forks a process that runs another thread.
    """
    from vortexlab import rabi
    if rabi._pool is not None:
        rabi._pool.shutdown()
        rabi._pool = None  # the next sweep makes its own
    assert threading.active_count() == 1, threading.enumerate()
    forks: list[int] = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=_columns(), chunk=st.integers(1, 4),
           header=st.lists(_TEXT, min_size=1, max_size=4))
    @example(columns=[["a\nb", 'say "hi", then', "x\ry", None, np.int64(7)],
                      np.array([-0.0, math.inf, -math.inf, math.nan, 1e22],
                               dtype=np.float32),
                      np.array([True, False, True, False, True]),
                      np.arange(5) - 2],
             chunk=2, header=["a,b", "c", 'd"', ""])
    @example(columns=[[None, "x", math.nan]], chunk=4, header=["a"])
    @example(columns=[np.array([1.0, math.nan])], chunk=4, header=[""])
    def test_matches_csv_writer_over_fmt(self, tmp_path_factory, columns,
                                         chunk, header):
        # csv's minimal quoting for a "\r\n" terminator quotes cells that
        # hold "\r" or "\n"; each row then ends in "\n" instead
        expected = []
        rows = zip(*[
            map(cli._fmt, col.tolist() if isinstance(col, np.ndarray) else col)
            for col in columns])
        for row in [header, *rows]:
            line = io.StringIO(newline="")
            csv.writer(line, lineterminator="\r\n").writerow(row)
            assert line.getvalue().endswith("\r\n")
            expected.append(line.getvalue()[:-2] + "\n")
        path = tmp_path_factory.mktemp("write") / "w.csv"
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
            cli._write_csv(path, header, columns)
            serial = path.read_bytes()  # under _PARALLEL_ROWS rows
            # and again with the chunks spread over forked encoders
            forks = _force_forks(monkeypatch)
            monkeypatch.setattr(cli, "_PARALLEL_ROWS", 2)
            cli._write_csv(path, header, columns)
            workers = cli._encoders(len(columns[0]))
        assert serial == path.read_bytes() == "".join(expected).encode()
        assert len(forks) == workers - 1
        _assert_no_child()

    def test_carriage_return_cell_round_trips(self, tmp_path):
        path = tmp_path / "w.csv"
        cli._write_csv(path, ["error", "n"], [["x\ry", "z"], [1, 2]])
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["error", "n"], ["x\ry", "1"],
                                            ["z", "2"]]

    def test_array_cells_skip_fmt(self, mini_config, tmp_path, monkeypatch):
        calls = []
        fmt = cli._fmt

        def counting(value):
            calls.append(value)
            return fmt(value)

        monkeypatch.setattr(cli, "_fmt", counting)
        assert cli.main(["synth-jumps", "-c", str(mini_config),
                         "-o", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 1e6
        assert calls == []
        assert cli.main(["scales", "-c", str(mini_config),
                         "-o", str(tmp_path / "out")]) == 0
        assert len(calls) == 5  # list columns still go through _fmt

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "w.csv"
        cli._write_csv(path, ["a", "b", "c", "d"], [
            [None, math.nan, math.inf, -math.inf],
            np.array([0.1, 1 / 3, -2.5e-300, 1e22]),
            [np.int64(7), True, np.bool_(False), 'say "hi", then go'],
            [np.float64(2.5), np.float32(0.5), np.float64("nan"), 3],
        ])
        assert path.read_bytes() == (
            b"a,b,c,d\n"
            b",0.1,7,2.5\n"
            b",0.3333333333333333,True,0.5\n"
            b"inf,-2.5e-300,False,\n"
            b'-inf,1e+22,"say ""hi"", then go",3\n')

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "w.csv", ["a", "b"], [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 3 * 4096 + 5])
    def test_forked_rows_around_chunk_boundaries(self, tmp_path, monkeypatch,
                                                 rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
        x[rng.integers(0, rows, 40)] = [math.nan, math.inf, -math.inf,
                                        -0.0] * 10
        columns = [x, rng.integers(-2**62, 2**62, rows), x > 0,
                   [None if i % 7 == 0 else f'"{i}",r' for i in range(rows)]]
        header = ["x", "n", "positive", "text"]
        path = tmp_path / "w.csv"
        forks = _force_forks(monkeypatch)
        monkeypatch.setattr(cli, "_PARALLEL_ROWS", math.inf)
        cli._write_csv(path, header, columns)
        serial = path.read_bytes()
        line = io.StringIO(newline="")
        csv.writer(line, lineterminator="\n").writerows(
            [header, *zip(*[map(cli._fmt, c.tolist()) if hasattr(c, "tolist")
                            else map(cli._fmt, c) for c in columns])])
        assert serial == line.getvalue().encode()
        assert forks == []
        monkeypatch.setattr(cli, "_PARALLEL_ROWS", 1)
        cli._write_csv(path, header, columns)
        assert path.read_bytes() == serial
        assert len(forks) == min(2, -(-rows // cli._CHUNK_ROWS) - 1)
        _assert_no_child()

    def test_child_failure_raises_the_serial_exception(self, tmp_path,
                                                       monkeypatch):
        raised = tmp_path / "raised"
        encode = cli._encode

        def failing(col):
            # the second chunk, which a forked child encodes
            if isinstance(col, np.ndarray) and col[0] == cli._CHUNK_ROWS:
                with open(raised, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise ValueError(f"cannot encode the chunk at {col[0]}")
            return encode(col)

        monkeypatch.setattr(cli, "_encode", failing)
        columns = [np.arange(3 * cli._CHUNK_ROWS, dtype=float)]
        forks = _force_forks(monkeypatch)
        outcomes = []
        for threshold in (math.inf, cli._PARALLEL_ROWS):  # serial, forked
            monkeypatch.setattr(cli, "_PARALLEL_ROWS", threshold)
            path = tmp_path / f"w{threshold}.csv"
            with pytest.raises(ValueError) as info:
                cli._write_csv(path, ["x"], columns)
            outcomes.append((info.type, str(info.value), path.read_bytes()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == "cannot encode the chunk at 4096.0"
        assert len(forks) == 2
        pids = raised.read_text().split()
        assert pids.count(str(os.getpid())) == 2  # serial, then re-encoded
        assert len(pids) == 3  # and once in the child
        _assert_no_child()

    def test_early_stop_reaps_children_still_encoding(self, tmp_path,
                                                      monkeypatch):
        # this process fails on its first chunk while its children have
        # the other eleven to go: they fail on their next write, and the
        # writer returns under an alarm
        encode = cli._encode

        def failing(col):
            if isinstance(col, np.ndarray) and col[0] == 0:
                raise ValueError("cannot encode the first chunk")
            return encode(col)

        def timeout(signum, frame):
            for pid in forks:  # stuck children would outlive the test run
                os.kill(pid, signal.SIGKILL)
            raise TimeoutError("the writer waited past 20 s for its children")

        monkeypatch.setattr(cli, "_encode", failing)
        forks = _force_forks(monkeypatch)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            with pytest.raises(ValueError, match="first chunk"):
                cli._write_csv(tmp_path / "w.csv", ["x"],
                               [np.arange(12 * cli._CHUNK_ROWS, dtype=float)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 2
        _assert_no_child()

    def test_fork_error_falls_back_to_serial(self, tmp_path, monkeypatch):
        columns = [np.linspace(0.0, 1.0, 3 * cli._CHUNK_ROWS)]
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARALLEL_ROWS", math.inf)
            cli._write_csv(tmp_path / "serial.csv", ["x"], columns)
        calls = _force_forks(monkeypatch)

        def no_fork():
            calls.append(None)
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        cli._write_csv(tmp_path / "w.csv", ["x"], columns)
        assert calls == [None]  # tried once, then encoded every chunk here
        assert (tmp_path / "w.csv").read_bytes() == \
            (tmp_path / "serial.csv").read_bytes()
        _assert_no_child()

    def test_no_fork_below_the_threshold_or_beside_a_thread(self, tmp_path,
                                                            monkeypatch):
        forks = _force_forks(monkeypatch)
        cli._write_csv(tmp_path / "w.csv", ["x"],
                       [np.zeros(cli._PARALLEL_ROWS - 1)])
        assert forks == []
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        cli._write_csv(tmp_path / "w.csv", ["x"],
                       [np.zeros(cli._PARALLEL_ROWS)])
        assert forks == []

    def test_trajectory_round_trip(self, mini_config, tmp_path, monkeypatch):
        from vortexlab import jumps
        monkeypatch.delenv("VORTEXLAB_SEED", raising=False)
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(mini_config),
                         "-o", str(out)]) == 0
        cfg = config.load_config(mini_config)
        traj = jumps.simulate_trajectory(cfg.telegraph(), cfg.readout(),
                                         cfg.section("jumps")["duration_s"],
                                         cfg.seed(None))
        data = cli._read_csv_columns(out / "trajectory.csv", 4)
        assert data.shape == (traj.times.size, 4)
        np.testing.assert_array_equal(data[:, 0], traj.times * 1e6)
        np.testing.assert_array_equal(data[:, 1], traj.iq_points.real)
        np.testing.assert_array_equal(data[:, 2], traj.iq_points.imag)
        np.testing.assert_array_equal(data[:, 3], traj.true_states)


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert cli.main(["no-such-command"]) == 1

    def test_removed_workers_option_is_one(self, mini_config, tmp_path):
        assert cli.main(["chi", "-c", str(mini_config), "-o",
                         str(tmp_path / "out"), "--workers", "2"]) == 1

    def test_missing_config_is_one(self, tmp_path):
        assert cli.main(["scales", "-c", str(tmp_path / "missing.ini"),
                         "-o", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("command, key", [
        ("synth-jumps", "T_up_us"), ("tunnel", "y_zpf_nm")])
    def test_missing_key_is_config_error(self, tmp_path, capsys, command,
                                         key):
        conf = tmp_path / "c.ini"
        conf.write_text("".join(line for line in
                                CONFIG.read_text().splitlines(keepends=True)
                                if not line.startswith(key)))
        assert cli.main([command, "-c", str(conf),
                         "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("command, key", [
        ("synth-jumps", "T_up_us"), ("tunnel", "y_zpf_nm")])
    def test_config_error_in_handler_leaves_no_directory(self, tmp_path,
                                                         command, key):
        conf = tmp_path / "c.ini"
        conf.write_text("".join(line for line in
                                CONFIG.read_text().splitlines(keepends=True)
                                if not line.startswith(key)))
        assert cli.main([command, "-c", str(conf),
                         "-o", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, old, new, env", [
        ("synth-jumps", "seed = 7", "seed = -7", None),
        ("synth-jumps", "seed = 7", "seed = 7", "-7"),
        ("chi", "n_fock = 20", "n_fock = 1", None),
        ("chi", "n_points = 9", "n_points = 4097", None)])
    def test_config_bound_is_one(self, tmp_path, capsys, monkeypatch,
                                 command, old, new, env):
        conf = tmp_path / "c.ini"
        conf.write_text(MINI_CONFIG.replace(old, new))
        if env is not None:
            monkeypatch.setenv("VORTEXLAB_SEED", env)
        assert cli.main([command, "-c", str(conf),
                         "-o", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scales", "chi"])
    @pytest.mark.parametrize("key, value", [
        ("site1_sigma_nm", "-5"), ("site2_V_GHz", "0")])
    def test_bad_site_is_one(self, tmp_path, capsys, command, key, value):
        conf = tmp_path / "c.ini"
        conf.write_text(CONFIG.read_text().replace(
            f"{key} = ", f"{key} = {value}  # was "))
        assert cli.main([command, "-c", str(conf),
                         "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [pinning] site")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command, option", [
        ("landscape", "--points"), ("gamma-map", "--n-delta"),
        ("gamma-map", "--n-xbar"), ("analyze-jumps", "--n-sigma")])
    def test_non_positive_size_or_band_is_one(self, mini_config, tmp_path,
                                              capsys, command, option, value):
        argv = [command, "-c", str(mini_config), "-o", str(tmp_path / "out"),
                option, value]
        if command == "analyze-jumps":
            argv += ["--data", str(tmp_path / "trajectory.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert option in err and "must be positive" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "nan"])
    def test_non_positive_pair_delta_is_one(self, mini_config, tmp_path,
                                            capsys, value):
        out = tmp_path / "out"
        assert cli.main(["pair", "-c", str(mini_config), "-o", str(out),
                         "--x1-um", "1.5", "--y1-um", "0.0", "--x2-um", "1.5",
                         "--y2-um", "3.0", f"--delta-nm={value}"]) == 1
        err = capsys.readouterr().err
        assert "--delta-nm" in err and "must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_path_through_a_file_is_one(self, mini_config, tmp_path,
                                               capsys, out):
        (tmp_path / "afile").write_text("kept\n")
        assert cli.main(["scales", "-c", str(mini_config),
                         "-o", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a directory" in err
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile",
                                                               "mini.ini"]

    @pytest.mark.parametrize("section, key", [
        ("device", "length_um"), ("device", "f_r_GHz"), ("device", "Z_r_ohm"),
        ("tunneling", "k_levels"), ("jumps", "tau_m_us")])
    def test_removed_key_is_one(self, tmp_path, capsys, section, key):
        # keys that reached no result are gone from the format
        conf = tmp_path / "c.ini"
        conf.write_text(CONFIG.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key} = 3\n"))
        assert cli.main(["scales", "-c", str(conf),
                         "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"unknown key '{key}' in [{section}]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_bad_spacing_is_two(self, tmp_path, capsys, value):
        # named for the exit 2 these values had when ReadoutModel was the
        # first to check them; the domain table rejects them at load
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(MINI_CONFIG, "spacing_us", value))
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(conf), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: [jumps] spacing_us must be positive and finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("duration_s", "inf", "duration_s must be positive and finite"),
        ("duration_s", "nan", "duration_s must be positive and finite"),
        ("duration_s", "0", "duration_s must be positive and finite"),
        ("sigma_cloud", "nan", "sigma_cloud must be positive and finite"),
        ("sigma_cloud", "inf", "sigma_cloud must be positive and finite"),
        ("sigma_cloud", "0", "sigma_cloud must be positive and finite"),
        ("separation_sigma", "nan", "separation_sigma must be finite"),
        ("separation_sigma", "inf", "separation_sigma must be finite"),
        ("separation_sigma", "-inf", "separation_sigma must be finite")])
    def test_bad_jumps_key_is_two(self, tmp_path, capsys, key, value,
                                  message):
        # named for the exit 2 these values had when the models were the
        # first to check them; the domain table rejects them at load, so
        # duration_s = inf no longer reaches the jump loop
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(CONFIG.read_text(), key, value))
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(conf), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: [jumps] {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("edits,message", [
        ({"duration_s": "1e200"}, "duration_s = 1e+200 over spacing_us asks "
         "for about 2e+205 samples, more than the 10000000"),
        ({"duration_s": "50.1"}, "about 1e+07 samples"),
        ({"T_up_us": "1e-300", "T_down_us": "1e-300"},
         "duration_s = 0.25 over T_up_us + T_down_us asks for about 2.5e+305 "
         "jumps"),
        ({"duration_s": "0.05", "spacing_us": "60000"}, "duration_s = 0.05 "
         "over spacing_us = 60000 gives a record of no sample"),
        ({"spacing_us": "1e200"}, "duration_s = 0.25 over spacing_us = "
         "1e+200 gives a record of no sample")],
        ids=["1e200", "just-over", "dwell-1e-300", "no-sample",
             "spacing-1e200"])
    def test_record_over_the_sample_budget_is_two(self, tmp_path, edits,
                                                  message):
        # in-process under an alarm: such a record used to run on about
        # forever in the jump loop
        text = MINI_CONFIG
        for key, value in edits.items():
            text = set_key(text, key, value)
        conf = tmp_path / "c.ini"
        conf.write_text(text)
        out = tmp_path / "out"

        def timeout(signum, frame):
            raise TimeoutError("synth-jumps ran past 20 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            code = cli.main(["synth-jumps", "-c", str(conf), "-o", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert message in report["message"]
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("value,code,message", [
        ("1e200", 1, "[tunneling] y_zpf_nm must square to a positive finite "
         "float"),
        ("1e109", 2, "hbar Omega y_zpf^2 = inf"),
        ("inf", 1, "[tunneling] y_zpf_nm must be positive and finite"),
        ("nan", 1, "[tunneling] y_zpf_nm must be positive and finite"),
        ("0", 1, "[tunneling] y_zpf_nm must be positive and finite")],
        ids=["1e200", "1e109", "inf", "nan", "0"])
    def test_bad_y_zpf_is_two(self, tmp_path, capsys, value, code, message):
        # named for the exit 2 of tunnel_model's checks; a value outside
        # the length domain is now a config error at load (exit 1), and
        # only the kinetic term of 1e109 stays with the model
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(CONFIG.read_text(), "y_zpf_nm", value))
        out = tmp_path / "out"
        assert cli.main(["tunnel", "-c", str(conf), "-o", str(out)]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err == f"config error: {message}\n"
            assert not out.exists()
        else:
            assert message in err
            report = json.loads((out / "error.json").read_text())
            assert message in report["message"]
            assert not (out / "tunnel.csv").exists()

    @pytest.mark.parametrize("key,value,command", [
        ("w_um", "1e200", "scales"), ("w_um", "1e200", "landscape"),
        ("w_um", "1e200", "tunnel"), ("w_um", "1e200", "gamma-map"),
        ("lambda_L_um", "1e200", "scales"),
        ("lambda_L_um", "1e200", "landscape"),
        ("lambda_L_um", "1e200", "tunnel"),
        ("site1_sigma_nm", "1e200", "landscape"),
        ("site1_sigma_nm", "1e200", "tunnel"),
        ("site1_sigma_nm", "1e-300", "landscape"),
        ("site1_sigma_nm", "1e-300", "tunnel"),
        ("xi_nm", "1e-310", "scales"), ("xi_nm", "1e-310", "landscape"),
        ("t_nm", "1e-310", "scales"), ("t_nm", "1e-310", "landscape")])
    def test_square_out_of_float_range_is_two(self, tmp_path, capsys, key,
                                              value, command):
        # these squares once overflowed to a traceback or divided by zero;
        # the tiny xi and t once gave inf (or 0) scales and exit 0. Named
        # for that exit 2: a length whose own square leaves the float range
        # is now outside its domain, a config error at load (exit 1); only
        # the derived scales of xi and t stay with the model
        conf = tmp_path / "c.ini"
        conf.write_text(set_key(CONFIG.read_text(), key, value))
        out = tmp_path / "out"
        code = cli.main([command, "-c", str(conf), "-o", str(out)])
        if key not in ("xi_nm", "t_nm"):
            name = {"w_um": "[device] w_um",
                    "lambda_L_um": "[device] lambda_L_um",
                    "site1_sigma_nm": "[pinning] site1: sigma_nm"}[key]
            assert code == 1
            assert capsys.readouterr().err == (
                f"config error: {name} must square to a positive finite "
                "float\n")
            assert not out.exists()
            return
        assert code == 2
        scale = {"xi_nm": "w_um and xi_nm give phi_S",
                 "t_nm": "t_nm and lambda_L_um give Lambda"}[key]
        message = f"{scale} = inf; derived scales must be positive and finite"
        assert message in capsys.readouterr().err
        report = json.loads((out / "error.json").read_text())
        assert report == {"error": "InvalidParameterError", "message": message}
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", f"manifest.{command}.json"]

    def test_numerical_error_is_two(self, mini_config, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["analyze-jumps", "-c", str(mini_config),
                         "-o", str(out),
                         "--data", str(tmp_path / "nothing.csv")])
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert "error" in report
        manifest = json.loads((out / "manifest.analyze-jumps.json").read_text())
        assert manifest["outputs"] == {
            "error.json": hashlib.sha256(
                (out / "error.json").read_bytes()).hexdigest()}
        assert "environment" in manifest

    def test_failure_manifest_keeps_diagnostics(self, mini_config, tmp_path,
                                                monkeypatch):
        def fails_midway(args, cfg, run):
            run.csv("partial.csv", ["x"], [[1.0]])
            run.diagnostics["stage"] = "solve"
            raise VortexlabError("solve failed")

        monkeypatch.setattr(cli, "_cmd_scales", fails_midway)
        out = tmp_path / "out"
        assert cli.main(["scales", "-c", str(mini_config),
                         "-o", str(out)]) == 2
        manifest = json.loads((out / "manifest.scales.json").read_text())
        assert manifest["diagnostics"] == {"stage": "solve"}
        assert sorted(manifest["outputs"]) == ["error.json", "partial.csv"]
        assert manifest["seed"] == 7


# the fuzz grid: each key of example.ini but site2's, set to each of these
# values, runs one command that reads its section
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e200", "1e-300"]
FUZZ_COMMAND = {"device": "scales", "qrm": "chi", "pinning": "tunnel",
                "tunneling": "tunnel", "jumps": "synth-jumps", "sweep": "chi"}
IN_DOMAIN = {"finite": math.isfinite,
             "positive": lambda v: 0.0 < v < math.inf,
             "non-negative": lambda v: 0.0 <= v < math.inf,
             "length": lambda v: 0.0 < v < math.inf and 0.0 < v * v < math.inf}


def _fuzz_keys() -> list[tuple[str, str]]:
    keys, section = [], None
    for line in CONFIG.read_text().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line and not line.startswith("site2_"):
            keys.append((section, line.split(" = ")[0]))
    return keys


def _in_domain(spec, raw: str) -> bool:
    """Whether raw lies in the domain of its table entry, tested apart
    from config's own check."""
    if isinstance(spec.domain, tuple):
        try:
            value = int(raw)
        except ValueError:
            return False
        return spec.domain[0] <= value <= spec.domain[1]
    return IN_DOMAIN[spec.domain](float(raw) * spec.factor)


class TestDomainRule:
    @pytest.mark.parametrize("section,key", _fuzz_keys())
    def test_fuzz_grid(self, tmp_path, capsys, section, key):
        # a value outside its key's domain is a config error (exit 1,
        # naming the key, no directory); any other exits 0 or 2 and none
        # raises or runs past its alarm
        text = set_key(set_key(CONFIG.read_text(), "duration_s", "0.05"),
                       "n_points", "3")
        field = key.split("_", 1)[1] if section == "pinning" else key
        spec = config._SCHEMA[section][field]
        name = (f"[pinning] site1: {field}" if section == "pinning"
                else f"[{section}] {key}")

        def timeout(signum, frame):
            raise TimeoutError(f"{key} = {value} ran past 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        try:
            for i, value in enumerate(FUZZ_VALUES):
                conf = tmp_path / f"{i}.ini"
                conf.write_text(set_key(text, key, value))
                out = tmp_path / f"out{i}"
                signal.alarm(10)
                code = cli.main([FUZZ_COMMAND[section], "-c", str(conf),
                                 "-o", str(out)])
                signal.alarm(0)
                err = capsys.readouterr().err
                if _in_domain(spec, value):
                    assert code in (0, 2), (value, code, err)
                    assert code == 0 or (out / "error.json").exists(), value
                else:
                    assert code == 1, (value, code, err)
                    assert err.startswith(f"config error: {name}"), value
                    assert not out.exists(), value
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_absent_optional_keys_take_the_table_defaults(self, tmp_path):
        text = "".join(
            line for line in CONFIG.read_text().splitlines(keepends=True)
            if not line.startswith(("theta_deg", "phi_deg", "n_fock",
                                    "grid_points", "seed", "site1_y_nm")))
        cfg = config.parse_config(text)
        params, trunc = cfg.qrm()
        assert (params.theta, params.phi, trunc.n_fock) == (
            math.pi / 2, math.pi / 2, 60)
        assert cfg.section("tunneling")["grid_points"] == 1024
        assert cfg.seed() == 0 and cfg.sites()[0].y_i == 0.0
        assert config.parse_config("[device]\nw_um = 3\n").seed() == 0
        with pytest.raises(ConfigError, match=r"\[jumps\] is missing key "
                           "'T_up_us'"):
            config.parse_config("[jumps]\n").telegraph()


def test_console_entry_point(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text(MINI_CONFIG)
    out = tmp_path / "out"
    proc = run_cli("scales", "-c", str(conf), "-o", str(out))
    assert proc.returncode == 0
    assert (out / "scales.csv").exists()


def _digest_inputs(tmp_path: Path) -> dict[str, Path]:
    """The reduced example config and small seeded inputs of the fit
    commands, written under tmp_path."""
    from vortexlab import rabi
    text = set_key(set_key(CONFIG.read_text(), "n_points", "9"),
                   "duration_s", "0.1")
    paths = {"config": tmp_path / "example_small.ini"}
    paths["config"].write_text(text)
    rng = np.random.default_rng(2026)
    for name in ("decay", "ramsey"):
        paths[name] = tmp_path / f"{name}.csv"
        clean = _trace_text(f"fit-{name}").splitlines()
        paths[name].write_text(clean[0] + "\n" + "".join(
            f"{t},{float(v) + rng.normal(0, 0.01)!r},{s}\n"
            for t, v, s in (line.split(",") for line in clean[1:])))
    paths["rabi"] = tmp_path / "rabi.csv"
    paths["rabi"].write_text(_rabi_text())
    params = rabi.QrmParams.asymmetric(7.572e9, 92.5e6, 20e12, 128e-6, 2e9)
    for name, span, attr, sigma in (("qubit", (28e-6, 228e-6), "f_q_dressed",
                                     1e-3),
                                    ("resonator", (-62e-6, 328e-6), "f_r_g",
                                     2e-4)):
        sweep = rabi.sweep_field(params, np.linspace(*span, 9),
                                 rabi.HilbertTruncation(20))
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("B_uT,f_GHz,sigma_GHz\n" + "".join(
            f"{B * 1e6!r},{getattr(s, attr) / 1e9 + rng.normal(0, sigma)!r},"
            f"{sigma!r}\n" for B, s in zip(np.linspace(*span, 9).tolist(),
                                           sweep)))
    paths["sets"] = tmp_path / "sets"
    paths["sets"].mkdir()
    for i in range(3):
        B = np.linspace(0.0, 200.0, 15) + 10 * i
        f = np.sqrt(2.0**2 + (20e-3 * (B - 100.0 - 10 * i)) ** 2)
        path = paths["sets"] / f"run{i}.csv"
        path.write_text(f"# phi_over_phi_S = {0.5 + 0.1 * i}\nB_uT,f_GHz\n"
                        + "".join(f"{b!r},{v + rng.normal(0, 1e-3)!r}\n"
                                  for b, v in zip(B.tolist(), f.tolist())))
    (paths["sets"] / "run3.csv").write_text("B_uT,f_GHz\n1.0,x\n")
    return paths


# sha256 of every data file each command writes, on the inputs of
# _digest_inputs: trajectory.csv (20k rows) and gamma_map.csv (40k) are
# long enough for the writer's forked encoders. Captured with numpy 2.4.6
# on OpenBLAS 0.3.31 (x86-64): spectrum.csv, chi.csv, tunnel.csv and the
# fit-spectrum results pass through LAPACK and may move in their last
# digits on another BLAS build or CPU.
GOLDEN_DIGESTS = {
    "batch_fit.csv":
        "40719b565d76defef7a8053e941dfe6b51c8593c0264ba0f117159368accee72",
    "chi.csv":
        "d027a330b06eb4963ca1d67102aba3c939fc9977a7bf646f7bfc163f18e70e44",
    "fit_decay.json":
        "1b1d617ad0d5c6b59cb7b5004a48c5b5cd6dea46329d3ea96c9af2f9ba2be634",
    "fit_echo.csv":
        "0418669ed627e50e178eea8e12c3cf8c1b42afc04d4a348c732bb5f36515c4da",
    "fit_rabi.csv":
        "d29487bd63d904475a822f73eb3fa8d3c9fa5d81e982e701d4646a92bdfea01f",
    "fit_rabi.json":
        "fb3743ba991eb24bf303ab885474711e652d4be7efa9e03b8ba32be5b5215985",
    "fit_ramsey.csv":
        "d87f9c2112eb2350fcad31740efc43e16f6a9b138d4f39230e88f959657cdcda",
    "fit_spectrum.json":
        "5ecbb6b1da5734152600b2a2030e3b240ea1eda214f8199a123bf51d7acbc897",
    "gamma_map.csv":
        "01137a8df9f64e72ff9c0ff4920b8d3d9535e3f503639951a7778451d7f22e33",
    "jumps_analysis.json":
        "595836f173586ad220574dd03560df7d6401ded0607f6701eacb3022ab8e2cee",
    "landscape.csv":
        "439024eacf188fb2f6830cd978a80fba8cecb8a5928757b226c63f6b265adace",
    "pair.json":
        "9708b7cca37410795bfad26efb5005df4f05b3b83fedd04359c9ff0611ef046c",
    "scales.csv":
        "0adecbbe3a8287fbf8ca688915150375d6dad8f07976dbffbeace91e8c9f8f64",
    "spectrum.csv":  # the same sweep and columns as chi.csv
        "d027a330b06eb4963ca1d67102aba3c939fc9977a7bf646f7bfc163f18e70e44",
    "trajectory.csv":
        "6775ba5f0d93acc8a2551708aaf1f323936caf4b3590df1071d205a9ddaf0aa1",
    "tunnel.csv":
        "95f13ebe89cc06a46b1729544a796046dab6863d03ae1b052ce0ceae6e55276e",
    "tunnel_summary.json":
        "7e418bc2dd9846c93ba143a41d2e3c1418ac8efd8f2d5da6a6cd90524eaf74ad",
}


class TestGoldenDigests:
    def test_every_data_output(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VORTEXLAB_SEED", raising=False)
        # chi then solves its sweep on this thread (the same bits as on
        # the Rabi pool), so no pool thread stops the writer's forks
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.chdir(tmp_path)  # batch-fit's error row names its file
        forks = _force_forks(monkeypatch)
        paths = _digest_inputs(tmp_path)
        out = tmp_path / "out"
        base = ["-o", str(out)]
        conf = ["-c", str(paths["config"])]
        runs = [
            ["scales", *conf], ["spectrum", *conf], ["chi", *conf],
            ["landscape", *conf, "--field-ut", "150"], ["gamma-map", *conf],
            ["pair", *conf, "--x1-um", "1.0", "--y1-um", "0.0",
             "--x2-um", "2.0", "--y2-um", "0.5"],
            ["tunnel", *conf], ["synth-jumps", *conf],
            ["analyze-jumps", *conf, "--data", str(out / "trajectory.csv")],
            ["fit-spectrum", "--qubit", str(paths["qubit"]),
             "--resonator", str(paths["resonator"])],
            ["fit-decay", "--data", str(paths["decay"])],
            ["fit-echo", "--data", str(paths["decay"]), "--format", "csv"],
            ["fit-ramsey", "--data", str(paths["ramsey"]), "--format", "csv"],
            ["fit-rabi", "--data", str(paths["rabi"]), "--format", "csv"],
            ["batch-fit", "--data-dir", paths["sets"].name],
        ]
        for argv in runs:
            assert cli.main([*argv, *base]) == 0, argv
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())
                   if not path.name.startswith("manifest.")}
        assert digests == GOLDEN_DIGESTS
        assert len(forks) == 4  # two for each of the two long files
        _assert_no_child()
