"""Each output check rejects a deliberately corrupted output; self time on a
small span tree. Valid outputs are built from the oracles themselves, so
these tests run without the program."""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    return inputs.make_inputs("landscape-tunnel", 5, tmp_path_factory.mktemp("inputs"))


def test_tunnel_check_rejects_shifted_E1(setup, tmp_path):
    t = dict(setup["tunnel"], fields=[0.0, 128e-6, 250e-6])
    E0, E1 = oracles.tunnel_reference(t)
    rows = [[B * 1e6, (e1 - e0) / 1e9, e0 / 1e9, e1 / 1e9]
            for B, e0, e1 in zip(t["fields"], E0, E1)]
    _write_csv(tmp_path / "tunnel.csv", ["B_uT", "f_q_GHz", "E0_GHz", "E1_GHz"], rows)
    sweet = t["fields"][int(np.argmin(E1 - E0))] * 1e6
    (tmp_path / "tunnel_summary.json").write_text(json.dumps({"sweet_spot_B_uT": sweet}))
    assert oracles.check_tunnel(tmp_path, t) == []

    rows[1][3] *= 1 + 1e-7
    _write_csv(tmp_path / "tunnel.csv", ["B_uT", "f_q_GHz", "E0_GHz", "E1_GHz"], rows)
    assert any("E1" in p for p in oracles.check_tunnel(tmp_path, t))


def test_chi_check_rejects_gap_row(setup, tmp_path):
    c = dict(setup["chi"], n_fock=20)
    rows = []
    for B in c["fields"]:
        fq, frg, fre = oracles.rabi_transitions(c["params"], B, c["n_fock"])
        rows.append([B * 1e6, fq / 1e9, frg / 1e9, fre / 1e9, (fre - frg) / 1e6])
    header = ["B_uT", "f_q_GHz", "f_r_g_GHz", "f_r_e_GHz", "chi_MHz"]
    _write_csv(tmp_path / "chi.csv", header, rows)
    assert oracles.check_chi(tmp_path, c) == []

    rows[7] = [rows[7][0], "", "", "", ""]
    _write_csv(tmp_path / "chi.csv", header, rows)
    assert any("empty cells" in p for p in oracles.check_chi(tmp_path, c))


def test_fit_check_rejects_parameter_moved_5_sigma(tmp_path):
    fit = inputs.make_fit_spectrum("spectroscopy", tmp_path)
    truth = fit["truth"]
    se = {k: 1e-3 * abs(v) for k, v in truth.items()}
    params = {k: v + 0.8 * se[k] for k, v in truth.items()}

    def write():
        (tmp_path / "fit_spectrum.json").write_text(json.dumps(
            {"converged": True, "params": params, "std_errors": se}))

    write()
    assert oracles.check_fit_spectrum(tmp_path, fit) == []
    params["g_MHz"] += 5 * se["g_MHz"]
    write()
    assert any("g_MHz" in p for p in oracles.check_fit_spectrum(tmp_path, fit))


def test_trajectory_check_rejects_short_record(tmp_path):
    duration, spacing = 0.01, 5.0
    n = int(math.floor(duration / (spacing * 1e-6) + 1e-9))
    rows = [[i * spacing, 0.1, -0.2, 0] for i in range(n)]
    header = ["t_us", "I", "Q", "true_state"]
    _write_csv(tmp_path / "trajectory.csv", header, rows)
    assert oracles.check_trajectory(tmp_path, duration, spacing) == []
    _write_csv(tmp_path / "trajectory.csv", header, rows[:-1])
    assert oracles.check_trajectory(tmp_path, duration, spacing) != []


def test_self_time_subtracts_union_of_children():
    parent = [1, None, "cli.main", 0.0, 10.0, {}]
    children = [[2, 1, "a", 1.0, 3.0, {}],
                [3, 1, "b", 2.0, 5.0, {}],   # overlaps a (parallel thread)
                [4, 1, "c", 6.0, 7.0, {}],
                [5, 1, "d", 9.5, 11.0, {}]]  # clipped at the parent's end
    assert tracer.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert tracer.self_time(parent, []) == pytest.approx(10.0)


def test_summary_of_span_tree():
    spans = [
        [1, None, "cli.main", 0.0, 10.0, {}],
        [2, 1, "rabi.solve_qrm", 1.0, 2.0, {}],
        [3, 2, "rabi.build_hamiltonian", 1.0, 1.2, {}],
        [4, 2, "numpy.linalg.eigh", 1.2, 1.8, {}],
        [5, 1, "fitting.fit_joint_aqrm", 3.0, 6.0, {}],
        [6, 5, "fitting.least_squares", 3.0, 6.0,
         {"residual_evals": 7, "iterations": 3}],
        [7, 6, "rabi.solve_qrm", 3.0, 4.0, {"error": "AmbiguousLabelingError"}],
        [8, 1, "rabi.solve_qrm", 6.0, 6.5, {"error": "AmbiguousLabelingError"}],
        [9, 1, "cli.csv_write", 7.0, 8.0, {"bytes": 100}],
        [10, 1, "tunneling.lanczos_lowest", 8.0, 9.0, {"m": 96}],
    ]
    m = tracer.summarize([spans])
    assert m["rabi.solve_qrm_calls"] == 3
    assert m["rabi.eigh_s"] == pytest.approx(0.6)
    assert m["rabi.build_hamiltonian_s"] == pytest.approx(0.2)
    assert m["rabi.label_s"] == pytest.approx(0.2 + 1.0 + 0.5)
    assert m["rabi.sweep_gaps"] == 1
    assert m["fitting.residual_evals"] == 7
    assert m["fitting.iterations"] == 3
    assert m["fitting.solves_per_joint_fit"] == 1
    assert m["cli.csv_write_bytes"] == 100
    assert m["tunneling.krylov_vectors"] == 96
    assert m["cli.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 0.5 - 1.0 - 1.0)
    assert set(m) == {name for name, _ in tracer.PER_LAYER}


def test_absent_target_is_reported_not_fatal():
    t = tracer.Tracer()
    t.install([("vortexlab_missing_module", "f", "missing.f"),
               ("json", "no_such_function", "json.no_such_function")])
    assert t.absent == ["missing.f", "json.no_such_function"]
