"""vortexlab benchmark: the CLI run as users run it, on seeded inputs.

    python3 perfbench/run.py --workload spectroscopy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a checkout. Every subcommand runs as a fresh process
with its default options (no --workers, no BLAS thread variables), on inputs
that perfbench/inputs.py generates from the seed. Each output is checked
against computations in perfbench/oracles.py. A run repeats whole rounds of
the same operations for about --seconds seconds (at least one round) and
reports the median of each metric over its samples, scaled by a speed probe
timed in this process (see PROBE_SECONDS).

With --trace 0 it prints the end-to-end metrics; with --trace 1 a round is
one untraced pass and one pass traced through perfbench/traced.py, and it
prints the per-layer metrics from the spans plus trace.overhead_s. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PER_ROUND = 1
# The speed probe: a fixed computation that does not touch vortexlab, a
# pure-Python loop and a LAPACK call, timed in this process before every
# process the run starts. A shared host's speed drifts by 10-20% over
# minutes; a reported time is the run's median sample scaled by
# PROBE_SECONDS / (the run's median probe time), so it reads as wall time on
# a host where the probe takes PROBE_SECONDS. Peak RSS is not scaled.
PROBE_LOOP = 200_000
PROBE_MATRIX = 128
PROBE_SECONDS = 0.022

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("tunnel_s", "s"), ("gamma_map_s", "s"), ("schrodinger_2d_s", "s"),
    ("chi_s", "s"), ("fit_spectrum_s", "s"), ("batch_fit_s", "s"),
    ("synth_jumps_s", "s"), ("analyze_jumps_s", "s"),
]

# the config whose load setup_s times, per workload
SETUP_CONFIG = {"landscape-tunnel": "tunnel.ini", "spectroscopy": "chi.ini"}


class Failed(Exception):
    """An operation exited nonzero or wrote error.json."""


class Runner:
    """Starts the program's processes and accounts for them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.peak_rss_kib = 0
        self.span_files: list[list] = []
        self.absent: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.probes: list[float] = []
        a = np.random.default_rng(0).standard_normal((PROBE_MATRIX, PROBE_MATRIX))
        self.probe_matrix = a + a.T

    def probe(self) -> None:
        """Time the speed probe once."""
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        np.linalg.eigvalsh(self.probe_matrix)
        self.probes.append(time.perf_counter() - t0)

    def process(self, argv: list[str], log: Path) -> float:
        """Run argv to completion; return its wall time in seconds.

        Peak RSS comes from this child's own rusage (os.wait4), not from
        RUSAGE_CHILDREN, which is a running maximum over all children.
        """
        self.probe()
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            raise Failed(f"exited {proc.returncode}: {tail}")
        return elapsed

    def cli(self, args: list[str], out: Path, traced: bool) -> float:
        """One vortexlab subcommand writing into out."""
        elapsed = self._traceable(["-m", "vortexlab.cli"], "cli",
                                  args + ["-o", str(out)], out, traced)
        if (out / "error.json").exists():
            raise Failed(f"{args[0]} wrote error.json")
        return elapsed

    def script(self, args: list[str], out: Path, traced: bool) -> float:
        """A Python script using vortexlab; its log goes into out."""
        return self._traceable([], "script", args, out, traced)

    def _traceable(self, plain: list[str], kind: str, args: list[str],
                   out: Path, traced: bool) -> float:
        out.mkdir(parents=True, exist_ok=True)
        spans = out / "spans.json"
        prefix = [str(HERE / "traced.py"), str(spans), kind] if traced else plain
        try:
            return self.process([sys.executable] + prefix + args, out / "log.txt")
        finally:
            if traced and spans.exists():
                self._collect(spans)

    def _collect(self, path: Path) -> None:
        data = json.loads(path.read_text())
        self.span_files.append(data["spans"])
        self.absent.update(data["absent"])

    def operation(self, name: str, body, check) -> float | None:
        """Run one operation and its check; None when it failed."""
        self.attempted += 1
        try:
            value = body()
        except Failed as exc:
            self.failed += 1
            self.problems.append(f"{name}: {exc}")
            return None
        try:
            problems = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
            return None
        return value


def measure_setup(run: Runner, setup: dict) -> list[float]:
    """Wall times of SETUP_PER_ROUND fresh interpreters, each importing
    vortexlab.cli and loading the workload's config."""
    config = SETUP_CONFIG[setup["workload"]]
    code = ("import sys, vortexlab.cli as cli; "
            "cli.load_config(sys.argv[1])")
    times = []
    for i in range(SETUP_PER_ROUND):
        t = run.operation(
            "setup",
            lambda: run.process([sys.executable, "-c", code, config],
                                run.work / f"setup{i}.log"),
            lambda: [])
        if t is not None:
            times.append(t)
    return times


def run_pass(run: Runner, setup: dict, out: Path, traced: bool) -> dict:
    """Every operation once, each checked; returns the measured times."""
    w = run.work
    t = {}

    d = out / "gamma-map"
    t["gamma_map_s"] = run.operation(
        "gamma-map",
        lambda: run.cli(["gamma-map", "-c", setup["gamma-map"]["config"]]
                        + setup["gamma-map"]["args"], d, traced),
        lambda: oracles.check_gamma_map(d, setup["gamma-map"]))

    d_tun = out / "tunnel"
    t["tunnel_s"] = run.operation(
        "tunnel",
        lambda: run.cli(["tunnel", "-c", setup["tunnel"]["config"]], d_tun, traced),
        lambda: oracles.check_tunnel(d_tun, setup["tunnel"]))

    d2 = out / "schrodinger-2d"

    def solve_2d():
        run.script([str(HERE / "solve2d.py"), str(w / "setup.json"),
                    str(d2 / "result.json")], d2, traced)
        return json.loads((d2 / "result.json").read_text())["seconds"]

    t["schrodinger_2d_s"] = run.operation(
        "schrodinger-2d", solve_2d,
        lambda: oracles.check_schrodinger_2d(
            json.loads((d2 / "result.json").read_text())["energies_hz"],
            setup["schrodinger-2d"]))

    d_chi = out / "chi"
    t["chi_s"] = run.operation(
        "chi",
        lambda: run.cli(["chi", "-c", setup["chi"]["config"]], d_chi, traced),
        lambda: oracles.check_chi(d_chi, setup["chi"]))

    fs = setup["fit-spectrum"]
    d_fit = out / "fit-spectrum"
    t["fit_spectrum_s"] = run.operation(
        "fit-spectrum",
        lambda: run.cli(["fit-spectrum", "--qubit", fs["qubit"],
                         "--resonator", fs["resonator"]], d_fit, traced),
        lambda: oracles.check_fit_spectrum(d_fit, fs))

    d_batch = out / "batch-fit"
    t["batch_fit_s"] = run.operation(
        "batch-fit",
        lambda: run.cli(["batch-fit", "--data-dir", setup["batch-fit"]["dir"]],
                        d_batch, traced),
        lambda: oracles.check_batch_fit(d_batch, setup["batch-fit"]["truths"]))

    j = setup["jumps"]
    d_syn = out / "synth-jumps"
    t["synth_jumps_s"] = run.operation(
        "synth-jumps",
        lambda: run.cli(["synth-jumps", "-c", j["config"]], d_syn, traced),
        lambda: oracles.check_trajectory(d_syn, j["duration_s"], j["spacing_us"]))

    d_ana = out / "analyze-jumps"
    if t["synth_jumps_s"] is None:
        run.attempted += 1
        run.failed += 1
        run.problems.append("analyze-jumps: no trajectory to analyze")
        t["analyze_jumps_s"] = None
    else:
        t["analyze_jumps_s"] = run.operation(
            "analyze-jumps",
            lambda: run.cli(["analyze-jumps", "--data",
                             str(d_syn / "trajectory.csv")], d_ana, traced),
            lambda: oracles.check_jumps_analysis(d_ana, j))
    return t


def environment() -> dict:
    import scipy
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "cores_available": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_vars_in_caller": {k: os.environ[k] for k in BLAS_VARS
                                       if k in os.environ},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setup = inputs.make_inputs(workload, seed, work)
        run = Runner(work)
        samples: dict[str, list] = {}
        overheads, layers = [], []
        rounds = 0
        t_start = time.perf_counter()
        while True:
            # a round is SETUP_PER_ROUND set-up measurements and one untraced
            # pass, followed by one traced pass when tracing; every operation
            # of a pass runs once, so a slow spell of the machine hits one
            # sample of several metrics rather than every sample of one
            samples.setdefault("setup_s", []).extend(measure_setup(run, setup))
            t0 = time.perf_counter()
            times = run_pass(run, setup, work / "pass", False)
            untraced = time.perf_counter() - t0
            shutil.rmtree(work / "pass")
            for key, value in times.items():
                samples.setdefault(key, []).append(value)
            if trace:
                run.span_files = []
                t0 = time.perf_counter()
                run_pass(run, setup, work / "pass", True)
                overheads.append(time.perf_counter() - t0 - untraced)
                shutil.rmtree(work / "pass")
                layers.append(tracer.summarize(run.span_files))
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    probe_s = statistics.median(run.probes)
    raw = {key: median(v) for key, v in samples.items()}
    if trace:
        units = dict(tracer.PER_LAYER)
        metrics = {name: {"value": float(median([l[name] for l in layers])),
                          "unit": units[name]} for name in units}
        metrics["trace.overhead_s"] = {"value": median(overheads), "unit": "s"}
    else:
        values = {key: None if v is None else v * PROBE_SECONDS / probe_s
                  for key, v in raw.items()}
        values["peak_rss_mib"] = run.peak_rss_kib / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END if values[name] is not None}
    counts = {key: sum(x is not None for x in v) for key, v in samples.items()}
    return {"correct": run.wrong == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "samples": counts,
            "all": samples, "raw": raw, "probe_s": probe_s,
            "probes": len(run.probes),
            "rounds": rounds, "problems": run.problems,
            "absent": sorted(run.absent)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vortexlab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (ROOT / "src" / "vortexlab" / "cli.py", inputs.EXAMPLE_INI)
               if not p.is_file()]
    if missing:
        print(f"error: run from the root of a vortexlab checkout; missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(), sort_keys=True))
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = res
        print(f"[{workload}] seed {args.seed}, {res['rounds']} round(s), "
              f"{res['attempted']} operations attempted, {res['failed']} failed, "
              f"speed probe median {res['probe_s']:.6g} s of {res['probes']}")
        for name, m in res["metrics"].items():
            n = res["samples"].get(name)
            raw = res["raw"].get(name)
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s}"
                  + (f" median of {n}, unscaled {raw:.6g}" if n else ""))
            if name in res["all"]:
                print("    samples " + " ".join(f"{x:.4g}" for x in res["all"][name] if x is not None))
        for problem in res["problems"]:
            print(f"  FAILED {problem}")
        if res["absent"]:
            print(f"  absent (not wrapped): {', '.join(res['absent'])}")
    if args.workload == "all":
        print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed",
                                                 "metrics")}
                          for w, r in results.items()}))
    else:
        res = results[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                               "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
