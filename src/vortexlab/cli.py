"""Batch command-line front end.

One subcommand per analysis: derived scales, Rabi spectrum and dispersive
shift sweeps, the spectrum/coherence fitters, landscape and interaction
maps, the tunneling solver, telegraph synthesis and analysis, and batch
fitting over a directory of spectra. Every run writes its outputs plus a
manifest.<command>.json recording the config hash, the seed, the
environment and a content hash per file, so commands run into one directory
keep their own. Outputs are byte-deterministic for a fixed config and seed;
the manifest timestamp is the only varying field.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure (an
error report and the manifest are written to the output directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import sys
import threading
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

# OpenBLAS sizes its thread pool from OPENBLAS_NUM_THREADS once, when numpy
# first loads it. On the small Rabi Hamiltonians of the sweeps (50 x 50 to
# 122 x 122) its worker threads cost more than they save and keep a second
# core spinning, so a CLI process runs BLAS on one thread and solves a
# sweep's chunks on a thread per core instead (rabi.solve_fields). This
# must run before numpy loads (the package __init__ loads none); a value
# already set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .constants import CONSTANTS
from .core import derive_scales, median, usable_cores
from .errors import (ConfigError, EigensolverError, InvalidParameterError,
                     VortexlabError)
from . import energetics

# each handler imports the modules it runs (fitting, rabi, jumps,
# tunneling), so a process pays only for those of its command
if TYPE_CHECKING:
    from .fitting import FitResult, TimeTrace

_H = CONSTANTS.h


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """One CSV cell: None and NaN empty, floats as repr (so inf, -inf)."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _quote(cell: str) -> str:
    """csv QUOTE_MINIMAL: quote a cell that holds a comma, a quote, "\\n"
    or "\\r", doubling its quotes, so no reader takes a cell's "\\r" for
    a line break."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _encode(col) -> list[str]:
    """One column's cells, as csv.writer(lineterminator="\\r\\n") would
    write _fmt of each value.

    A float array is encoded in one pass (repr, "" at NaN) and an integer
    or bool array by str, whose cells never need quoting; any other
    column, such as a list that may hold None or text, goes through _fmt.
    """
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            cells = list(map(repr, col.tolist()))
            for i in np.flatnonzero(np.isnan(col)).tolist():
                cells[i] = ""
            return cells
        if col.dtype.kind in "biu":
            return list(map(str, col.tolist()))
        col = col.tolist()
    return [_quote(_fmt(value)) for value in col]


_CHUNK_ROWS = 4096  # rows encoded at a time, which bounds the text in memory
# a file of this many rows or more is encoded on a process per usable core;
# below it, forking costs more than it saves
_PARALLEL_ROWS = 2 * _CHUNK_ROWS


def _lines(cells: list[list[str]]) -> str:
    """The "\\n"-ended lines of equal-length columns of encoded cells."""
    if len(cells) == 1:  # csv quotes a row's only cell when empty
        cells = [[cell or '""' for cell in cells[0]]]
    text = "\n".join(map(",".join, zip(*cells)))
    return text + "\n" if text else text


def _encoders(rows: int) -> int:
    """Processes that encode a file of this many rows: from _PARALLEL_ROWS
    rows, one per usable core but no more than its chunks; else, and where
    fork is missing or unsafe (another Python thread is alive), this one
    alone."""
    if (rows < _PARALLEL_ROWS or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return min(usable_cores(), -(-rows // _CHUNK_ROWS))


def _receive(reader) -> bytes | None:
    """One length-prefixed chunk from a child's pipe; None if it ended."""
    head = reader.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    return data if len(data) == size else None


def _in_order(encode, count: int, workers: int):
    """encode(0), ..., encode(count - 1), yielded in order.

    Chunk i is encoded by worker i mod workers. This process is worker 0;
    each other worker is a forked child that sends its chunks down its own
    pipe, each after its length, while this one encodes its own and reads
    theirs in turn, so each process holds one chunk at a time. A child
    that cannot be forked, dies or ends early leaves its chunks to this
    process, so any exception is the one encode raises here; one worker
    is the serial loop. Closing the generator closes every pipe and reaps
    every child: a child still encoding then fails on its next write.
    """
    children: list[int] = []
    streams: dict[int, object] = {}  # worker -> reader of its pipe
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                # the child leaves by os._exit, so no atexit handler and no
                # inherited buffer runs twice; it keeps no read end, so its
                # writes fail once this process stops reading
                code = 1
                try:
                    os.close(read_fd)
                    for reader in streams.values():
                        reader.close()
                    with open(write_fd, "wb") as pipe:
                        for i in range(worker, count, workers):
                            data = encode(i)
                            pipe.write(len(data).to_bytes(8, "little"))
                            pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append(pid)
            streams[worker] = open(read_fd, "rb")
        for i in range(count):
            reader = streams.get(i % workers)
            data = _receive(reader) if reader else None
            if data is None:
                if reader:
                    streams.pop(i % workers).close()
                data = encode(i)
            yield data
    finally:
        for reader in streams.values():
            reader.close()
        for pid in children:
            os.waitpid(pid, 0)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns (numpy arrays or lists) under a header.

    Each line holds the bytes of csv.writer(lineterminator="\\r\\n") over
    _fmt of each value, ended by "\\n" in place of "\\r\\n". The rows are
    encoded _CHUNK_ROWS at a time; a file of _PARALLEL_ROWS or more has
    its chunks encoded on a process per usable core (_in_order), with the
    same bytes.
    """
    columns = list(columns)
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of unequal length under {header}")
    rows = len(columns[0]) if columns else 0
    starts = range(0, rows, _CHUNK_ROWS)

    def encode(i: int) -> bytes:
        return _lines([_encode(col[starts[i]:starts[i] + _CHUNK_ROWS])
                       for col in columns]).encode("utf-8")

    with open(path, "wb") as fh, contextlib.closing(
            _in_order(encode, len(starts), _encoders(rows))) as chunks:
        fh.write(_lines([[_quote(name)] for name in header]).encode("utf-8"))
        fh.writelines(chunks)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment() -> dict:
    """What the run ran on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _BLAS_THREADS,
        "cpu_count": os.cpu_count(),
    }


class Run:
    """Collects output files and writes the manifest at the end.

    The output directory is made with the first file written into it, so
    a run that fails before writing anything leaves no directory behind.
    diagnostics (how a solve went) and the environment go into the
    manifest only, never into a data file, so the outputs stay
    byte-deterministic.
    """

    def __init__(self, command: str, out_dir: Path, cfg: RunConfig | None,
                 seed: int | None):
        self.command = command
        self.out_dir = out_dir
        self.cfg = cfg
        self.seed = seed
        self.outputs: list[Path] = []
        self.diagnostics: dict[str, object] = {}

    def path(self, name: str) -> Path:
        """out_dir / name, making out_dir first."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def csv(self, name: str, header: list[str], columns) -> Path:
        path = self.path(name)
        _write_csv(path, header, columns)
        self.outputs.append(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.path(name)
        _write_json(path, payload)
        self.outputs.append(path)
        return path

    def table(self, stem: str, fmt: str, payload: dict) -> Path:
        """One result as result.json or a flattened single-row CSV."""
        if fmt == "json":
            return self.json(f"{stem}.json", payload)
        flat: dict[str, object] = {}
        for key, value in payload.items():
            if isinstance(value, dict):
                for sub, v in value.items():
                    flat[f"{key}.{sub}"] = v
            else:
                flat[key] = value
        keys = sorted(flat)
        return self.csv(f"{stem}.csv", keys, [[flat[k]] for k in keys])

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "version": __version__,
            "config_sha256": self.cfg.sha256 if self.cfg else None,
            "seed": self.seed,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": {p.name: _sha256_file(p) for p in self.outputs},
            "diagnostics": self.diagnostics,
            "environment": _environment(),
        }
        _write_json(self.path(f"manifest.{self.command}.json"), manifest)


def _fit_payload(result: FitResult, scale: dict[str, tuple[str, float]]
                 ) -> dict:
    """FitResult as a JSON-ready dict with display units."""
    params = {}
    errors = {}
    for key, value in result.params.items():
        name, factor = scale.get(key, (key, 1.0))
        params[name] = value / factor
        se = result.std_errors.get(key, math.nan)
        errors[name] = (se / factor) if math.isfinite(se) else None
    return {"params": params, "std_errors": errors,
            "residual_norm": result.residual_norm,
            "iterations": result.iterations,
            "converged": result.converged,
            "message": result.message}


def _fit_diagnostics(result: FitResult) -> dict:
    """How a fit went, for the manifest: iterations, stopping message and
    gradient measure."""
    return {"iterations": result.iterations, "message": result.message,
            "gradient_measure": result.gradient_measure}


def _empty_as_nan(cell: str) -> float:
    """loadtxt converter: an empty cell reads as NaN (loadtxt rejects it)."""
    return float(cell) if cell.strip() else math.nan


def _before_header(line: str) -> bool:
    """A blank (or commas-only) line or a '#' comment ahead of the header."""
    return not line.replace(",", "").strip() or line.lstrip().startswith("#")


_LOADTXT = {"delimiter": ",", "comments": "#", "ndmin": 2, "quotechar": '"'}


def _read_csv_columns(path: Path, minimum: int) -> np.ndarray:
    """Numeric rows of a CSV file as a 2D float array.

    The header is the first line that is neither blank nor a '#' comment.
    After it, blank lines and text after '#' are skipped, empty cells read
    as NaN and rows whose cells are all empty are dropped.

    numpy's own parser reads the rows from the open file, straight after
    the header; only if it fails (on an empty cell, say) does the file seek
    back to the first data line and the rows are read again with a Python
    converter per cell, which also gives every error message.
    """
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line and _before_header(line):
            line = fh.readline()
        if not line:
            raise VortexlabError(f"{path}: empty file")
        first_row = fh.tell()
        try:
            with warnings.catch_warnings():  # a header-only file is no data
                warnings.filterwarnings("ignore",
                                        "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(fh, **_LOADTXT)
                except ValueError:
                    fh.seek(first_row)
                    data = np.loadtxt(fh, converters=_empty_as_nan, **_LOADTXT)
        except ValueError as exc:
            reason = str(exc).partition("; use `usecols`")[0].replace(
                "the number of columns", "ragged rows: the number of columns")
            raise VortexlabError(f"{path}: {reason}") from exc
    data = data[~np.isnan(data).all(axis=1)]
    if not len(data):
        raise VortexlabError(f"{path}: no data rows")
    if data.shape[1] < minimum:
        raise VortexlabError(
            f"{path}: need at least {minimum} columns, got {data.shape[1]}")
    return data


def _load_trace(path: Path) -> TimeTrace:
    """CSV with columns t_us, value[, sigma]."""
    from . import fitting
    data = _read_csv_columns(path, 2)
    return fitting.TimeTrace(times=data[:, 0] * 1e-6, values=data[:, 1],
                             sigma=data[:, 2] if data.shape[1] > 2 else None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_scales(args, cfg: RunConfig, run: Run) -> int:
    device = cfg.device()
    scales = derive_scales(device)
    run.csv("scales.csv",
            ["Lambda_mm", "eps0_J", "eps0_over_h_THz", "phi_S", "B_S_uT"],
            [[scales.Lambda * 1e3], [scales.eps0], [scales.eps0 / _H / 1e12],
             [scales.phi_S], [scales.B_S * 1e6]])
    return 0


def _cmd_spectrum(args, cfg: RunConfig, run: Run) -> int:
    from . import rabi
    params, trunc = cfg.qrm()
    fields = cfg.sweep_fields()
    sweep = rabi.solve_fields(params, fields, trunc)
    # NaN, so an empty cell, where labeling failed near resonance
    t = np.where(sweep.labeled[:, None], sweep.transitions, math.nan)
    name = "chi.csv" if args.command == "chi" else "spectrum.csv"
    run.csv(name, ["B_uT", "f_q_GHz", "f_r_g_GHz", "f_r_e_GHz", "chi_MHz"],
            [fields * 1e6, t[:, 0] / 1e9, t[:, 1] / 1e9, t[:, 2] / 1e9,
             (t[:, 2] - t[:, 1]) / 1e6])
    run.diagnostics.update(
        gaps=int((~sweep.labeled).sum()), n_fock=trunc.n_fock,
        sweep_threads=rabi.sweep_threads(),
        truncation_error=rabi.truncation_error(
            params, [params.B0, fields[0], fields[-1]], trunc, sweep))
    return 0


_QRM_UNITS = {"f_r": ("f_r_GHz", 1e9), "g": ("g_MHz", 1e6),
              "gamma": ("gamma_GHz_per_mT", 1e12), "B0": ("B0_uT", 1e-6),
              "f_q0": ("f_q0_GHz", 1e9)}
# fit-spectrum's truncation when -c gives no [qrm]: the smallest n_fock
# whose transitions stay within 1e-12 relative of n_fock 80 wherever both
# label the field, over g/f_r 0.005-0.09, f_q0 1-12 GHz and |B - B0| <= 1 mT
# at f_r 7.572 GHz and gamma 20 GHz/mT (n_fock 8 reaches 1.2e-12 there, 6
# 6.9e-8). Up to g/f_r 0.3 it stays within 2e-13 of n_fock 40 where both
# label.
_FIT_N_FOCK = 10


def _cmd_fit_spectrum(args, cfg: RunConfig, run: Run) -> int:
    from . import fitting, rabi
    qubit = _read_csv_columns(Path(args.qubit), 3)
    resonator = _read_csv_columns(Path(args.resonator), 3)
    dataset = fitting.SpectrumDataset(
        qubit_points=np.column_stack([qubit[:, 0] * 1e-6, qubit[:, 1] * 1e9,
                                      qubit[:, 2] * 1e9]),
        resonator_points=np.column_stack([resonator[:, 0] * 1e-6,
                                          resonator[:, 1] * 1e9,
                                          resonator[:, 2] * 1e9]))
    init = {}
    trunc = rabi.HilbertTruncation(_FIT_N_FOCK)
    if cfg is not None and cfg.has("qrm"):
        params, trunc = cfg.qrm()
        init = {"f_r": params.f_r, "g": params.g, "gamma": params.gamma,
                "B0": params.B0, "f_q0": params.f_q0}
    result = fitting.fit_joint_aqrm(dataset, init, trunc)
    run.table("fit_spectrum", args.format, _fit_payload(result, _QRM_UNITS))
    p = result.params  # the model sees |f_r|, |g|, |gamma| and |f_q0|
    fitted = rabi.QrmParams.asymmetric(abs(p["f_r"]), abs(p["g"]),
                                       abs(p["gamma"]), p["B0"], abs(p["f_q0"]))
    fields = np.concatenate([qubit[:, 0], resonator[:, 0]]) * 1e-6
    run.diagnostics.update(
        _fit_diagnostics(result), n_penalized=result.n_penalized,
        sweep_threads=rabi.sweep_threads(),
        truncation_error=rabi.truncation_error(
            fitted, [fitted.B0, fields.min(), fields.max()], trunc))
    return 0 if result.converged else 2


def _cmd_fit_decay(args, cfg: RunConfig, run: Run) -> int:
    from . import fitting
    trace = _load_trace(Path(args.data))
    result = fitting.fit_exponential(trace)
    stem = "fit_echo" if args.command == "fit-echo" else "fit_decay"
    run.table(stem, args.format, _fit_payload(
        result, {"T": ("T_us", 1e-6), "A": ("A", 1.0), "c": ("c", 1.0)}))
    run.diagnostics.update(_fit_diagnostics(result))
    return 0 if result.converged else 2


def _cmd_fit_ramsey(args, cfg: RunConfig, run: Run) -> int:
    from . import fitting
    trace = _load_trace(Path(args.data))
    result = fitting.fit_ramsey_beat(trace)
    units = {"T2s": ("T2s_us", 1e-6), "f1": ("f1_MHz", 1e6),
             "f2": ("f2_MHz", 1e6), "f_beat": ("f_beat_MHz", 1e6),
             "a1": ("a1", 1.0), "a2": ("a2", 1.0), "phi1": ("phi1_rad", 1.0),
             "phi2": ("phi2_rad", 1.0), "c": ("c", 1.0)}
    run.table("fit_ramsey", args.format, _fit_payload(result, units))
    run.diagnostics.update(_fit_diagnostics(result))
    return 0 if result.converged else 2


def _cmd_fit_rabi(args, cfg: RunConfig, run: Run) -> int:
    from . import fitting
    data = _read_csv_columns(Path(args.data), 3)  # amplitude_uV, t_us, value
    if not np.all(np.isfinite(data[:, 0])):
        raise InvalidParameterError(
            f"{args.data}: amplitude_uV must be finite")
    # distinct amplitudes by a sort, since np.unique imports numpy.ma
    amps = np.sort(data[:, 0])
    scans = []
    for amp in amps[np.append(True, amps[1:] != amps[:-1])]:
        sel = data[data[:, 0] == amp]
        order = np.argsort(sel[:, 1])
        trace = fitting.TimeTrace(times=sel[order, 1] * 1e-6,
                                  values=sel[order, 2])
        scans.append((float(amp) * 1e-6, trace))
    fit, omegas, fit_warnings = fitting.fit_rabi_linear(scans)
    payload = _fit_payload(fit, {"slope": ("slope_MHz_per_uV", 1e12)})
    payload["Omega_MHz_per_amplitude"] = {_fmt(a * 1e6): om / 1e6
                                          for a, om in sorted(omegas.items())}
    payload["warnings"] = fit_warnings
    run.json("fit_rabi.json", payload)
    if args.format == "csv":
        amps = sorted(omegas)
        run.csv("fit_rabi.csv", ["amplitude_uV", "Omega_MHz"],
                [[a * 1e6 for a in amps], [omegas[a] / 1e6 for a in amps]])
    run.diagnostics.update(_fit_diagnostics(fit))
    return 0 if fit.converged else 2


def _cmd_landscape(args, cfg: RunConfig, run: Run) -> int:
    device = cfg.device()
    scales = derive_scales(device)
    sites = cfg.sites() if cfg.has("pinning") else []
    B = args.field_ut * 1e-6
    x = np.linspace(0.0, device.w, args.points)
    V = energetics.total_potential(x, 0.0, B, args.vortex_density, sites,
                                   scales, device)
    run.csv("landscape.csv", ["x_nm", "y_nm", "V_over_eps0", "V_GHz"],
            [x * 1e9, np.zeros_like(x), V / scales.eps0, V / _H / 1e9])
    return 0


def _cmd_gamma_map(args, cfg: RunConfig, run: Run) -> int:
    device = cfg.device()
    scales = derive_scales(device)
    deltas = np.linspace(args.delta_min_nm, args.delta_max_nm, args.n_delta) * 1e-9
    x_bars = np.linspace(deltas, device.w - deltas, args.n_xbar, axis=1).ravel()
    delta_col = np.repeat(deltas, args.n_xbar)
    gamma = energetics.gamma_from_geometry(delta_col, x_bars, scales, device)
    run.csv("gamma_map.csv", ["x_bar_um", "delta_LR_nm", "gamma_GHz_per_mT"],
            [x_bars * 1e6, delta_col * 1e9, gamma / 1e12])
    return 0


def _cmd_pair(args, cfg: RunConfig, run: Run) -> int:
    device = cfg.device()
    scales = derive_scales(device)
    r1 = (args.x1_um * 1e-6, args.y1_um * 1e-6)
    r2 = (args.x2_um * 1e-6, args.y2_um * 1e-6)
    g2 = energetics.gibbs_pair(r1, r2, scales, device)
    pair = energetics.VortexPair(R1=r1, R2=r2, delta_LR=args.delta_nm * 1e-9)
    coupling = energetics.pair_coupling(pair, scales, device)
    run.json("pair.json", {
        "G2_J": g2,
        "G2_over_eps0": g2 / scales.eps0,
        "hessian_J_per_m2": [[coupling.hessian[i, j] for j in (0, 1)]
                             for i in (0, 1)],
        "coupling_scale_J": coupling.energy_scale,
        "coupling_scale_over_h_MHz": coupling.energy_scale / _H / 1e6,
    })
    return 0


def _cmd_tunnel(args, cfg: RunConfig, run: Run) -> int:
    from . import tunneling
    device = cfg.device()
    scales = derive_scales(device)
    sites = cfg.sites()
    t = cfg.section("tunneling")
    model = cfg.tunnel_model()
    fields = cfg.sweep_fields()
    grid_points = t["grid_points"]
    try:
        sweep = tunneling.spectrum_vs_field(
            sites, (t["x_min_nm"], t["x_max_nm"]), fields, model, scales,
            device, grid_points=grid_points)
    except (InvalidParameterError, EigensolverError) as exc:
        # a combination of keys the solve refuses or fails on: exit 2
        raise type(exc)(
            f"[pinning] siteN: sigma_nm, V_GHz, [tunneling] grid_points, "
            f"x_min_nm, x_max_nm, y_zpf_nm and [sweep] B_min_uT, B_max_uT "
            f"give a landscape the 1D solve refuses: {exc}") from exc
    energies = sweep.energies[:, :2]
    run.csv("tunnel.csv", ["B_uT", "f_q_GHz", "E0_GHz", "E1_GHz"],
            [sweep.fields * 1e6, sweep.omega_q / (2 * math.pi) / 1e9,
             energies[:, 0] / _H / 1e9, energies[:, 1] / _H / 1e9])
    run.json("tunnel_summary.json", {
        "sweet_spot_B_uT": sweep.sweet_spot_B * 1e6,
        "min_f_q_GHz": float(sweep.omega_q.min() / (2 * math.pi) / 1e9),
    })
    run.diagnostics.update(max_residual_GHz=sweep.max_residual / _H / 1e9,
                           fields=int(fields.size), grid_points=grid_points)
    return 0


def _cmd_synth_jumps(args, cfg: RunConfig, run: Run) -> int:
    from . import jumps
    tg = cfg.telegraph()
    ro = cfg.readout()
    duration = cfg.section("jumps")["duration_s"]
    traj = jumps.simulate_trajectory(tg, ro, duration, run.seed)
    # the sample grid in microseconds from the indices: traj.times * 1e6
    # would write 4999.999999999999 where the grid is 5000.0
    t_us = np.arange(traj.times.size) * (ro.spacing * 1e6)
    run.csv("trajectory.csv", ["t_us", "I", "Q", "true_state"],
            [t_us, traj.iq_points.real, traj.iq_points.imag,
             traj.true_states])
    return 0


def _cmd_analyze_jumps(args, cfg: RunConfig, run: Run) -> int:
    from . import jumps
    data = _read_csv_columns(Path(args.data), 3)
    # validates the record (finite, ascending times; finite IQ) up front
    traj = jumps.Trajectory(times=data[:, 0] * 1e-6,
                            iq_points=data[:, 1] + 1j * data[:, 2])
    spacing = median(np.diff(traj.times))

    clusters = jumps.iq_cluster(traj.iq_points)
    ro = jumps.ReadoutModel(center_g=clusters.center_g,
                            center_e=clusters.center_e,
                            sigma_cloud=clusters.sigma_cloud,
                            spacing=spacing)
    assigned = jumps.latching_filter(traj, ro, n_sigma=args.n_sigma)
    stats = jumps.dwell_statistics(assigned, spacing, n_sigma=args.n_sigma)
    p_e = float(assigned.mean())

    payload = {
        "T_up_us": stats.T_up_hat * 1e6,
        "T_down_us": stats.T_down_hat * 1e6,
        "T1_us": stats.T1_hat * 1e6,
        "P_e": p_e,
        "n_dwells_up": stats.n_up,
        "n_dwells_down": stats.n_down,
    }
    f_q = None
    if args.f_q_ghz is not None:
        f_q = args.f_q_ghz * 1e9
    elif cfg is not None and cfg.has("qrm"):
        f_q = cfg.sections["qrm"].get("f_q0_GHz")
    if f_q is not None and 0.0 < p_e < 0.5:
        payload["T_eff_mK"] = jumps.effective_temperature(p_e, f_q) * 1e3
    else:
        payload["T_eff_mK"] = None
    run.table("jumps_analysis", args.format, payload)
    run.diagnostics.update(em_iterations=clusters.iterations,
                           log_likelihood=clusters.log_likelihood,
                           min_run=stats.min_run, n_dwells_up=stats.n_up,
                           n_dwells_down=stats.n_down,
                           samples=int(traj.times.size),
                           spacing_us=spacing * 1e6)
    return 0


def _cmd_batch_fit(args, cfg: RunConfig, run: Run) -> int:
    from . import fitting
    directory = Path(args.data_dir)
    files = sorted(p for p in directory.glob("*.csv"))
    if not files:
        print(f"error: no CSV datasets in {directory}", file=sys.stderr)
        return 1
    # every file is read first and the datasets are fitted in one call,
    # each on its own; a file that fails to read or fit gets an error row
    read: list = []  # each file's points, or the error reading it
    phis: list = []  # each file's phi_over_phi_S, None if absent or bad
    for path in files:
        phi = None
        try:
            phi = _phi_from_header(path)
            data = _read_csv_columns(path, 2)
        except VortexlabError as exc:
            read.append(exc)
        else:
            read.append(np.column_stack([
                data[:, 0] * 1e-6, data[:, 1] * 1e9,
                data[:, 2] * 1e9 if data.shape[1] > 2
                else np.full(len(data), 1e6)]))
        phis.append(phi)
    fits = iter(fitting.fit_hyperbolas(
        [item for item in read if not isinstance(item, VortexlabError)]))
    rows = []
    stops: dict[str, int] = {}
    iterations = []
    for path, phi_ratio, item in zip(files, phis, read):
        result = item if isinstance(item, VortexlabError) else next(fits)
        if isinstance(result, VortexlabError):
            rows.append([path.name, phi_ratio, None, None, None, None, False,
                         str(result)])
            continue
        rows.append([path.name, phi_ratio, result.params["f_q0"] / 1e9,
                     result.params["B0"] * 1e6, result.params["gamma"] / 1e12,
                     None, result.converged, ""])
        stops[result.message] = stops.get(result.message, 0) + 1
        iterations.append(result.iterations)
    run.csv("batch_fit.csv",
            ["dataset", "phi_over_phi_S", "f_q0_GHz", "B0_uT",
             "gamma_GHz_per_mT", "g_MHz", "converged", "error"],
            zip(*rows))
    # a failed file's row is unconverged and holds the error message
    errors = sum(bool(row[7]) for row in rows)
    run.diagnostics.update(
        files=len(rows), errors=errors,
        unconverged=sum(not row[6] for row in rows) - errors,
        iterations={"total": sum(iterations), "max": max(iterations, default=0)},
        stop_messages=stops)
    return 0


def _phi_from_header(path: Path) -> float | None:
    """Optional '# phi_over_phi_S = x' comment in a dataset header.

    A header whose x is not a finite number raises VortexlabError.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not _before_header(line):
                break
            if "phi_over_phi_S" in line and "=" in line:
                text = line.split("=", 1)[1].strip()
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise VortexlabError(
                        f"{path}: phi_over_phi_S must be a finite number, "
                        f"got {text!r}")
                return value
    return None


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _number(kind, positive: bool):
    """argparse type: a finite number of the given kind (int or float),
    above zero if positive."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > 0 or not positive)):
            raise argparse.ArgumentTypeError(
                f"must be {'positive and ' * positive}finite, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Vortex-qubit modeling and batch analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    finite, positive = _number(float, False), _number(float, True)
    count = _number(int, True)

    def add(name, handler, help_text, needs_config=True, needs_data=False,
            analysis=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, needs_config=needs_config)
        p.add_argument("-c", "--config", help="config file path")
        p.add_argument("-o", "--out", default="out",
                       help="output directory (default: out)")
        if needs_data:
            p.add_argument("--data", required=True, help="input data CSV")
        if analysis:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json", help="result format")
        return p

    add("scales", _cmd_scales, "derived device scales and thresholds")
    add("spectrum", _cmd_spectrum, "dressed transition spectrum versus field")
    add("chi", _cmd_spectrum, "dispersive shift versus field")

    p = add("fit-spectrum", _cmd_fit_spectrum,
            "joint qubit+resonator spectrum fit", needs_config=False,
            analysis=True)
    p.add_argument("--qubit", required=True, help="qubit points CSV "
                   "(B_uT, f_GHz, sigma_GHz)")
    p.add_argument("--resonator", required=True, help="resonator points CSV")

    add("fit-decay", _cmd_fit_decay,
        "exponential decay fit (t_us, value[, sigma])",
        needs_config=False, needs_data=True, analysis=True)
    add("fit-echo", _cmd_fit_decay, "echo decay fit (same model as fit-decay)",
        needs_config=False, needs_data=True, analysis=True)
    add("fit-ramsey", _cmd_fit_ramsey,
        "two-tone damped-cosine fit with beat extraction",
        needs_config=False, needs_data=True, analysis=True)
    add("fit-rabi", _cmd_fit_rabi, "oscillation frequency versus drive "
        "amplitude (amplitude_uV, t_us, value)",
        needs_config=False, needs_data=True, analysis=True)

    p = add("landscape", _cmd_landscape, "vortex energy along the strip width")
    p.add_argument("--field-ut", type=finite, default=0.0,
                   help="applied field in microtesla")
    p.add_argument("--points", type=count, default=512)
    p.add_argument("--vortex-density", type=finite, default=0.0,
                   help="areal density of other vortices (1/m^2)")

    p = add("gamma-map", _cmd_gamma_map,
            "field dispersion over double-well geometries")
    p.add_argument("--delta-min-nm", type=finite, default=5.0)
    p.add_argument("--delta-max-nm", type=finite, default=50.0)
    p.add_argument("--n-delta", type=count, default=200)
    p.add_argument("--n-xbar", type=count, default=200)

    p = add("pair", _cmd_pair, "two-vortex interaction at given positions")
    p.add_argument("--x1-um", type=finite, required=True)
    p.add_argument("--y1-um", type=finite, required=True)
    p.add_argument("--x2-um", type=finite, required=True)
    p.add_argument("--y2-um", type=finite, required=True)
    p.add_argument("--delta-nm", type=positive, default=10.0,
                   help="tunneling length for the coupling scale")

    add("tunnel", _cmd_tunnel, "double-well eigenfrequencies versus field")
    add("synth-jumps", _cmd_synth_jumps,
        "synthesize a telegraph readout record")

    p = add("analyze-jumps", _cmd_analyze_jumps,
            "cluster, filter and time a readout record",
            needs_config=False, needs_data=True, analysis=True)
    p.add_argument("--n-sigma", type=positive, default=1.5,
                   help="latching band half-width in cloud sigmas")
    p.add_argument("--f-q-ghz", type=positive, default=None,
                   help="qubit frequency for the effective temperature")

    p = add("batch-fit", _cmd_batch_fit,
            "hyperbola fits over a directory of spectra", needs_config=False)
    p.add_argument("--data-dir", required=True)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; argv defaults to sys.argv[1:].

    Called with no argv, as the program's entry (the __main__ block and the
    console script), it first moves every object alive after start-up
    (numpy's and vortexlab's modules, about 22,000 tracked objects) to the
    collector's permanent generation, so neither a full collection during
    the command nor the one at exit walks them. A call with an argv leaves
    the collector as it is: in a long-lived caller, cyclic garbage frozen
    there would never be freed.
    """
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract is 1
        return 0 if exc.code in (0, None) else 1
    out = Path(args.out)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        print(f"error: output path {out} is not a directory", file=sys.stderr)
        return 1

    cfg = None
    seed = None
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.needs_config:
            print(f"error: {args.command} requires --config", file=sys.stderr)
            return 1
        if cfg is not None:
            seed = cfg.seed(os.environ.get("VORTEXLAB_SEED"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    run = Run(args.command, out, cfg, seed)
    try:
        code = args.handler(args, cfg, run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (VortexlabError, ValueError, OSError) as exc:
        # the manifest of a failed run lists error.json and the diagnostics
        # filled before the failure
        run.json("error.json", {"error": type(exc).__name__, "message": str(exc)})
        run.finish()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code != 1:  # a handler's usage error, like a config error, writes nothing
        run.finish()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
