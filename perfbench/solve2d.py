"""One 2D tunneling.solve_schrodinger call on the generated separable potential.

Usage: python3 solve2d.py SETUP_JSON RESULT_JSON. The solve is timed after
vortexlab is imported; the energies and the time go to RESULT_JSON.
"""

import json
import sys
import time

import numpy as np

from vortexlab import tunneling


def main(setup_path: str, result_path: str) -> int:
    s = json.loads(open(setup_path, encoding="utf-8").read())["schrodinger-2d"]
    grid = tunneling.Grid(x_min=s["x"][0], x_max=s["x"][1], nx=s["n"],
                          y_min=s["y"][0], y_max=s["y"][1], ny=s["n"])
    V = np.add.outer(np.asarray(s["Vx"]), np.asarray(s["Vy"]))
    model = tunneling.TunnelModel(y_zpf=s["y_zpf"], Omega=s["Omega"])
    t0 = time.perf_counter()
    res = tunneling.solve_schrodinger(grid, V, model, k=s["k"])
    elapsed = time.perf_counter() - t0
    h = 6.62607015e-34
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": elapsed,
                   "energies_hz": (res.energies / h).tolist()}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
