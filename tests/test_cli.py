import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vortexlab import cli, config
from vortexlab.errors import ConfigError, VortexlabError

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example.ini"


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """`python -m vortexlab.cli` in a child that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "vortexlab.cli", *argv],
                          env=env, capture_output=True, text=True)

MINI_CONFIG = """\
[device]
w_um = 3.0
t_nm = 24.0
length_um = 400.0
xi_nm = 7.0
lambda_L_um = 4.0
f_r_GHz = 7.572
Z_r_ohm = 3000.0

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
tau_m_us = 1.2
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

    def test_seed_env_override(self, mini_config):
        cfg = config.load_config(mini_config)
        assert cfg.seed(None) == 7
        assert cfg.seed("123") == 123
        with pytest.raises(ConfigError):
            cfg.seed("not-a-number")

    @pytest.mark.parametrize("key, value", [
        ("grid_points", 63), ("grid_points", 4097),
        ("k_levels", 0), ("k_levels", 11)])
    def test_tunneling_bounds_rejected(self, tmp_path, key, value):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[tunneling]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            config.load_config(bad)

    @pytest.mark.parametrize("key, value", [
        ("grid_points", 64), ("grid_points", 4096),
        ("k_levels", 1), ("k_levels", 10)])
    def test_tunneling_bounds_accepted(self, tmp_path, key, value):
        ok = tmp_path / "ok.ini"
        ok.write_text(f"[tunneling]\n{key} = {value}\n")
        assert config.load_config(ok).section("tunneling")[key] == value

    def test_tunnel_model_curvature(self):
        cfg = config.load_config(CONFIG)
        model = cfg.tunnel_model()
        site = cfg.sites()[0]
        from vortexlab.constants import CONSTANTS
        expected = 4 * site.V_i * (4e-9) ** 2 / (CONSTANTS.hbar * site.sigma_i**2)
        assert model.Omega == pytest.approx(expected, rel=1e-12)


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
        manifest = json.loads((out / "manifest.json").read_text())
        assert "scales.csv" in manifest["outputs"]
        import hashlib
        digest = hashlib.sha256((out / "scales.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["scales.csv"] == digest
        assert manifest["seed"] == 7


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
        real = cli.jumps.dwell_statistics

        def spy(states, spacing, **kwargs):
            bands.append(kwargs.get("n_sigma"))
            return real(states, spacing, **kwargs)

        monkeypatch.setattr(cli.jumps, "dwell_statistics", spy)
        out = tmp_path / "out"
        assert cli.main(["synth-jumps", "-c", str(mini_config),
                         "-o", str(out)]) == 0
        assert cli.main(["analyze-jumps", "-c", str(mini_config),
                         "-o", str(out), "--n-sigma", "1.0",
                         "--data", str(out / "trajectory.csv")]) == 0
        assert bands == [1.0]


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
        assert result["params"]["T_us"] == pytest.approx(186.0, rel=1e-4)
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
        assert beat == pytest.approx(2.0, rel=0.02)

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
        assert result["params"]["g_MHz"] == pytest.approx(92.5, rel=1e-3)
        assert result["params"]["B0_uT"] == pytest.approx(128.0, rel=1e-3)

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
            assert b0 == pytest.approx(100.0 + 10 * i, rel=0.01)
            gamma = float(row[header.index("gamma_GHz_per_mT")])
            assert gamma == pytest.approx(20.0, rel=0.01)
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

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "sets"
        data_dir.mkdir()
        self._write_dataset(data_dir / "run0.csv", 120.0, 1.0)

        def broken(points):
            raise TypeError("bug in the fitter")

        monkeypatch.setattr(cli.fitting, "fit_hyperbola", broken)
        with pytest.raises(TypeError):
            cli.main(["batch-fit", "--data-dir", str(data_dir),
                      "-o", str(tmp_path / "out")])

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
k_levels = 3
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
        assert result["params"]["T_us"] == pytest.approx(1.2, rel=1e-3)

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
        assert result["params"]["slope_MHz_per_uV"] == pytest.approx(1.0,
                                                                     rel=0.01)


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


class TestWriter:
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

    def test_numerical_error_is_two(self, mini_config, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["analyze-jumps", "-c", str(mini_config),
                         "-o", str(out),
                         "--data", str(tmp_path / "nothing.csv")])
        assert code == 2
        report = json.loads((out / "error.json").read_text())
        assert "error" in report


def test_console_entry_point(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text(MINI_CONFIG)
    out = tmp_path / "out"
    proc = run_cli("scales", "-c", str(conf), "-o", str(out))
    assert proc.returncode == 0
    assert (out / "scales.csv").exists()
