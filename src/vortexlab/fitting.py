"""Damped Gauss-Newton least squares plus the physics fitters built on it.

The engine is a Levenberg-style damped Gauss-Newton loop with Fletcher
scaling of the damping term, so parameters with wildly different units
(Hz next to tesla) stay well-conditioned. It advances a batch of
independent problems of equal size in lockstep (_lockstep); least_squares
is its batch of one, and fit_hyperbolas batches many hyperbola datasets,
at a numpy call's overhead per step of the batch rather than per fit.
Every residual function returns
its exact Jacobian with the residual: closed-form for the model fitters,
Hellmann-Feynman from the eigenvectors of its own solves for the joint
spectrum fit. Weighted residuals are (model - data) / sigma with a default
sigma of 1.

Convergence reporting: the scaled gradient measure is the largest
per-parameter cosine  max_i |(J^T r)_i| / (|J_i| (|r| + 1e-8 |r_init|)),
with J_i the i-th Jacobian column. It is dimensionless, vanishes at any
least squares minimum with appreciable residual, is insensitive to a
single wild column (e.g. from a model discontinuity), and the floor term
keeps it small once the residual has dropped eight orders below its
starting point (a solved problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .core import median
from .errors import DegenerateFitError, InvalidParameterError, VortexlabError

if TYPE_CHECKING:
    from . import rabi

_TINY = 1e-300
_GTOL = 1e-10      # on the scaled gradient measure
_XTOL = 1e-12      # on two consecutive relative steps
# on the actual and predicted relative cost reduction (lmder's ftol): 1e-12
# is below the rounding of the joint fit's residuals, where f/sigma ~ 2,000
_FTOL = 1e-12
_MAX_ITER = 200
# the engine multiplies residuals, Jacobian entries, parameters and steps,
# up to four at a time, and sums the products over the points: with each
# below _BIG in magnitude none overflows. A start beyond it is refused
# like a non-finite one, and a trial beyond it fails like one.
_BIG = 1e60


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    params: dict[str, float]
    std_errors: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    gradient_measure: float = math.nan
    message: str = ""
    n_penalized: int = 0  # labeling-gap points at the reported point


@dataclass
class TimeTrace:
    """Uniformly or non-uniformly sampled signal versus time (s)."""

    times: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise InvalidParameterError("times and values must be 1D and equal length")
        for name in ("times", "values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(f"{name} must be finite")
        if not np.all(np.diff(self.times) > 0):
            raise InvalidParameterError("times must be strictly ascending")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.times.shape or not np.all(self.sigma > 0):
                raise InvalidParameterError("sigma must be positive, one per point")

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.times)
        return 1.0 / self.sigma


@dataclass
class SpectrumDataset:
    """Qubit and resonator transition points with uncertainties.

    Each row is (B in T, f in Hz, sigma in Hz).
    """

    qubit_points: np.ndarray
    resonator_points: np.ndarray

    def __post_init__(self):
        self.qubit_points = np.asarray(self.qubit_points, dtype=float).reshape(-1, 3)
        self.resonator_points = np.asarray(self.resonator_points, dtype=float).reshape(-1, 3)
        total = len(self.qubit_points) + len(self.resonator_points)
        if total < 4:
            raise InvalidParameterError("need at least 4 points for a joint fit")
        for pts in (self.qubit_points, self.resonator_points):
            if not np.all(np.isfinite(pts[:, :2])):
                raise InvalidParameterError("fields and frequencies must be finite")
            if len(pts) and not np.all(pts[:, 2] > 0):
                raise InvalidParameterError("sigma must be positive")


# ---------------------------------------------------------------------------
# generic engine
# ---------------------------------------------------------------------------

def _std_errors(J: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Per-parameter standard errors from the Jacobians at the optimum.

    J holds one Jacobian per problem, shape (problems, points, parameters),
    and cost each problem's squared residual norm. The analysis runs on the
    column-normalized Jacobian so that parameters with wildly different
    units are treated on the same footing. Directions the residual does
    not depend on get infinite errors; the rest use the usual covariance
    s^2 (J^T J)^-1 with s^2 the reduced chi-square of the weighted
    residuals.
    """
    col = np.sqrt((J * J).sum(axis=1))
    alive = col > 0.0
    dof = J.shape[1] - alive.sum(axis=1)
    s2 = cost / np.maximum(dof, 1)
    Jn = J / np.where(alive, col, 1.0)[:, None, :]
    N = (Jn[:, :, :, None] * Jn[:, :, None, :]).sum(axis=1)
    # a dead column's block is the identity: its eigenvalue 1 stays below
    # the largest of the live block, whose diagonal is 1, and it couples to
    # no live parameter
    N += np.eye(J.shape[2]) * ~alive[:, None, :]
    w, V = np.linalg.eigh(N)
    good = w > np.maximum(w.max(axis=1, keepdims=True), 0.0) * 1e-12
    var = s2[:, None] * ((V * V) * np.divide(good, w, out=np.zeros_like(w),
                                             where=good)[:, None, :]).sum(axis=2)
    # a parameter overlapping a null direction stays unidentifiable
    null_overlap = ((V * V) * ~good[:, None, :]).sum(axis=2)
    unknown = ~alive | (null_overlap > 1e-9) | (dof <= 0)[:, None]
    return np.where(unknown, np.inf,
                    np.sqrt(var) / np.where(alive, col, 1.0))


def _within(x: np.ndarray) -> np.ndarray:
    """Per row (first axis): every entry finite and below _BIG in magnitude."""
    return (np.abs(x) < _BIG).reshape(len(x), -1).all(axis=1)


def _sumsq(x: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis."""
    return (x * x).sum(axis=-1)


def _gradient(J: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^T r and the Jacobian's column norms, one row per problem."""
    return (J * R[:, :, None]).sum(axis=1), np.sqrt((J * J).sum(axis=1))


def _gradient_measure(g, col, cost, r_floor) -> np.ndarray:
    """The scaled gradient measure of each row (see the module docstring)."""
    denom = col * (np.sqrt(cost) + r_floor)[:, None] + _TINY
    return (np.abs(g) / denom).max(axis=1)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for each row; a singular row by least squares."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.linalg.lstsq(A[0], b[0], rcond=None)[0][None]
        return np.concatenate([_solve(a[None], v[None]) for a, v in zip(A, b)])


def _lockstep(residual_fn: Callable, P0, names: Sequence[str]
              ) -> list[FitResult | InvalidParameterError]:
    """Damped Gauss-Newton over a batch of independent problems in lockstep.

    P0 holds one row of starting parameters per problem. residual_fn(P,
    rows) takes the parameter rows P of the problems numbered rows and
    returns (R, J): one residual row per problem and the exact Jacobians,
    of shape (len(rows), points, len(names)); every problem of a batch has
    the same number of points. Each row keeps its own parameters, damping,
    small-step count and stop, under least_squares' rules. Every numpy step
    acts on each row apart, so a row's result does not depend on the other
    rows. A row whose start, initial residual or Jacobian is not finite,
    or beyond _BIG, comes back as the InvalidParameterError least_squares
    raises for it.
    """
    P = np.array(P0, dtype=float, ndmin=2)
    out: list = [None] * len(P)
    finite, inside = np.isfinite(P).all(axis=1), _within(P)
    for i in np.flatnonzero(~inside).tolist():
        big = ", ".join(f"{name} = {value:g}" for name, value
                        in zip(names, P[i].tolist()) if not abs(value) < _BIG)
        out[i] = InvalidParameterError(
            f"initial parameters must lie within +-{_BIG:g}, got {big}"
            if finite[i] else "initial parameters must be finite")
    rows = np.flatnonzero(inside)
    if not rows.size:
        return out
    R, J = residual_fn(P[rows], rows)
    inside = _within(R) & _within(J)
    for i in rows[~inside].tolist():
        out[i] = InvalidParameterError(
            "residual or Jacobian not finite or beyond "
            f"+-{_BIG:g} at the initial point")
    rows, P, R, J = rows[inside], P[rows][inside], R[inside], J[inside]
    if not rows.size:
        return out

    # every problem keeps its row to the end; a stopped row's state stays
    # as it stopped, and live marks the rows still iterating
    k, n = P.shape
    live = np.ones(k, dtype=bool)
    cost = _sumsq(R)
    r_floor = 1e-8 * np.sqrt(cost)
    lam = np.full(k, 1e-3)
    small_steps = np.zeros(k, dtype=int)
    history = [[c] for c in np.sqrt(cost).tolist()]
    iterations = np.full(k, _MAX_ITER)
    converged = np.zeros(k, dtype=bool)
    message = ["max iterations reached"] * k
    eye = np.eye(n)

    for it in range(1, _MAX_ITER + 1):
        g, col = _gradient(J, R)
        gradient_stop = live & (J != 0.0).any(axis=(1, 2)) \
            & (_gradient_measure(g, col, cost, r_floor) <= _GTOL)

        # Fletcher-scaled damped step, solved in column-normalized
        # variables so parameters with disparate units stay conditioned
        scale = np.where(col > 0.0, col, 1.0)
        Jn = J / scale[:, None, :]
        JtJ_n = (Jn[:, :, :, None] * Jn[:, :, None, :]).sum(axis=1)
        g_n = g / scale

        # the damping ladder; a trial ends a row's ladder when it lowers
        # the cost (the row takes it at once), reaches the rounding floor
        # or is the second sub-tolerance step in a row; otherwise, or when
        # its point, residual or Jacobian is not finite or beyond _BIG,
        # lam *= 4, up to 1e14
        accepted = np.zeros(k, dtype=bool)
        at_floor = np.zeros(k, dtype=bool)
        trying = np.flatnonzero(live & ~gradient_stop)
        while trying.size:
            delta_n = _solve(JtJ_n[trying] + lam[trying, None, None] * eye,
                             -g_n[trying])
            delta = delta_n / scale[trying]
            ended = np.zeros(trying.size, dtype=bool)
            tried = np.flatnonzero(_within(P[trying] + delta))
            if tried.size:
                t = trying[tried]
                p_try = P[t] + delta[tried]
                r_try, J_try = residual_fn(p_try, rows[t])
                ok = _within(r_try) & _within(J_try)
                tried, t, p_try, r_try, J_try = \
                    tried[ok], t[ok], p_try[ok], r_try[ok], J_try[ok]
                d, d_n, p = delta[tried], delta_n[tried], P[t]
                cost_try = _sumsq(r_try)
                pred = -(2.0 * (g[t] * d).sum(axis=1)
                         + _sumsq((J[t] * d[:, None, :]).sum(axis=2)))
                at_floor[t] = np.maximum(np.abs(cost[t] - cost_try), pred) \
                    <= _FTOL * cost[t]
                # relative step in column-scaled (residual-units) and in
                # plain parameter space; both must settle, or a direction
                # whose column vanishes with its parameter would freeze
                step_rel = np.maximum(
                    np.sqrt(_sumsq(d_n)) / (np.sqrt(_sumsq(p * scale[t])) + _TINY),
                    np.sqrt(_sumsq(d)) / (np.sqrt(_sumsq(p)) + _TINY))
                # two consecutive sub-tolerance trials, accepted or not:
                # settled, not merely slowing
                small_steps[t] = np.where(step_rel <= _XTOL,
                                          small_steps[t] + 1, 0)
                accepted[t] = cost_try <= cost[t]
                a = accepted[t]
                P[t[a]], R[t[a]], J[t[a]], cost[t[a]] = \
                    p_try[a], r_try[a], J_try[a], cost_try[a]
                ended[tried] = a | at_floor[t] | (small_steps[t] >= 2)
            rejected = trying[~ended]
            lam[rejected] *= 4.0
            trying = rejected[lam[rejected] <= 1e14]

        lam[accepted] = np.maximum(lam[accepted] * 0.3, 1e-14)
        for i, c in zip(np.flatnonzero(accepted).tolist(),
                        np.sqrt(cost[accepted]).tolist()):
            history[i].append(c)
        step_stop = live & (small_steps >= 2)
        settled = gradient_stop | at_floor | step_stop
        failed = live & ~(settled | accepted)
        done = live if it == _MAX_ITER else settled | failed
        iterations[done] = np.where(gradient_stop, it - 1, it)[done]
        converged[done] = settled[done]
        for i in np.flatnonzero(done).tolist():
            if gradient_stop[i]:
                message[i] = "gradient tolerance reached"
            elif at_floor[i]:
                message[i] = "cost reduction at the rounding floor"
            elif step_stop[i]:
                message[i] = "step tolerance reached"
            elif failed[i]:
                message[i] = "no damped step reduced the residual"
        live = live & ~done
        if not live.any():
            break

    g, col = _gradient(J, R)
    gmeas = _gradient_measure(g, col, cost, r_floor)
    se = _std_errors(J, cost)
    for j, i in enumerate(rows.tolist()):
        out[i] = FitResult(params=dict(zip(names, P[j].tolist())),
                           std_errors=dict(zip(names, se[j].tolist())),
                           residual_norm=math.sqrt(cost[j]),
                           iterations=int(iterations[j]),
                           converged=bool(converged[j]),
                           residual_history=history[j],
                           gradient_measure=float(gmeas[j]),
                           message=message[j])
    return out


def least_squares(residual_fn: Callable, init: dict[str, float]) -> FitResult:
    """Minimize |residual(params)|^2 over the named parameters in init.

    residual_fn(params_dict) returns (r, J): the residual vector and its
    exact Jacobian, one column per parameter in init order. Converged
    stops: "gradient tolerance reached" (gradient measure <= _GTOL), "cost
    reduction at the rounding floor" (a trial step's actual and predicted
    relative cost reductions both <= _FTOL; ends a rejected step's damping
    ladder too) and "step tolerance reached" (two consecutive trial steps,
    accepted or not, of relative size <= _XTOL). Singular Jacobians are
    handled by damping; if no damped step reduces the cost the result comes
    back converged=False rather than raising. This is _lockstep on a batch
    of one.
    """
    names = list(init)

    def batch_of_one(P, rows):
        r, J = residual_fn(dict(zip(names, P[0])))
        r = np.atleast_1d(np.asarray(r, dtype=float)).ravel()
        return r[None], np.asarray(J, dtype=float).reshape(1, r.size, len(names))

    result = _lockstep(batch_of_one, [[float(init[k]) for k in names]], names)[0]
    if isinstance(result, InvalidParameterError):
        raise result
    return result


def _safe_exp(x):
    return np.exp(np.clip(x, -700.0, 700.0))


# ---------------------------------------------------------------------------
# spectrum fitters
# ---------------------------------------------------------------------------

def hyperbola(B, f_q0, gamma, B0):
    """Qubit branch sqrt(f_q0^2 + gamma^2 (B - B0)^2)."""
    return np.sqrt(f_q0**2 + (gamma * (np.asarray(B, dtype=float) - B0)) ** 2)


_HYPERBOLA_PARAMS = ("f_q0", "gamma", "B0")


def _hyperbola_start(points) -> tuple[np.ndarray, tuple[float, float, float]]:
    """One dataset's (B, f, w) rows and its starting (f_q0, gamma, B0).

    Initialization: B0 at the minimum-frequency point, f_q0 the minimum
    frequency, gamma the outermost secant slope.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise DegenerateFitError("need at least 3 (B, f) points")
    B, f = pts[:, 0], pts[:, 1]
    if pts.shape[1] > 2 and not (pts[:, 2] > 0).all():  # NaN fails too
        raise InvalidParameterError("sigma must be positive")
    w = 1.0 / pts[:, 2] if pts.shape[1] > 2 else np.ones_like(B)
    # np.unique(B).size < 2, NaN equal to NaN, without np.unique's import
    # of numpy.ma (about 20 ms)
    if (B == B[0]).all() or np.isnan(B).all():
        raise DegenerateFitError("all fields identical, hyperbola unconstrained")

    imin = int(np.argmin(f))
    B0_init = float(B[imin])
    f_q0_init = float(f[imin])
    ilo, ihi = int(np.argmin(B)), int(np.argmax(B))
    slopes = []
    for i in (ilo, ihi):
        dB = B[i] - B0_init
        if dB != 0.0:
            slopes.append(abs(f[i] - f_q0_init) / abs(dB))
    gamma_init = max(slopes) if slopes else abs(f.max() - f.min()) / np.ptp(B)
    if gamma_init == 0.0:
        gamma_init = f_q0_init / max(np.ptp(B), 1e-12)
    return np.stack([B, f, w]), (f_q0_init, gamma_init, B0_init)


def _hyperbola_residual(data: np.ndarray) -> Callable:
    """_lockstep's residual for hyperbola fits of the datasets stacked in
    data, of shape (datasets, 3, points) with rows B, f and w."""
    def resid(P, rows):
        B, f, w = data[rows, 0], data[rows, 1], data[rows, 2]
        f_q0, gamma, B0 = P[:, 0, None], P[:, 1, None], P[:, 2, None]
        dB = B - B0
        model = hyperbola(B, f_q0, gamma, B0)
        # d model / d p; the cone's tip (model = 0) gets a zero row
        inv = np.divide(w, model, out=np.zeros_like(model), where=model > 0)
        J = np.stack([f_q0 * inv, gamma * dB**2 * inv, -gamma**2 * dB * inv],
                     axis=-1)
        return (model - f) * w, J

    return resid


def fit_hyperbolas(datasets) -> list[FitResult | VortexlabError]:
    """fit_hyperbola over many datasets at once, each fitted on its own.

    Returns, per dataset, its FitResult or the VortexlabError that
    fit_hyperbola raises for it (fewer than 3 points, a sigma that is not
    positive, identical fields, a non-finite start or initial residual).
    Datasets with the same point count run through one _lockstep batch; a
    result is the same as the dataset's fit alone, whatever else the batch
    holds.
    """
    results: list = [None] * len(datasets)
    groups: dict[int, list] = {}  # point count -> (index, data, start)
    for i, points in enumerate(datasets):
        try:
            data, start = _hyperbola_start(points)
        except (DegenerateFitError, InvalidParameterError) as exc:
            results[i] = exc
            continue
        groups.setdefault(data.shape[1], []).append((i, data, start))
    for members in groups.values():
        index, data, starts = zip(*members)
        fits = _lockstep(_hyperbola_residual(np.stack(data)), starts,
                         _HYPERBOLA_PARAMS)
        for i, result in zip(index, fits):
            if isinstance(result, FitResult):
                result.params["f_q0"] = abs(result.params["f_q0"])
                result.params["gamma"] = abs(result.params["gamma"])
            results[i] = result
    return results


def fit_hyperbola(points) -> FitResult:
    """Fit (B, f[, sigma]) qubit points with the field hyperbola: the
    one-dataset call of fit_hyperbolas, raising its error."""
    result = fit_hyperbolas([points])[0]
    if isinstance(result, VortexlabError):
        raise result
    return result


# relative cost margin of the g-collapse verdict in fit_joint_aqrm
_G_COLLAPSE_RTOL = 1e-9


def fit_joint_aqrm(dataset: SpectrumDataset, init: dict[str, float] | None,
                   trunc: rabi.HilbertTruncation) -> FitResult:
    """Joint fit of qubit and resonator branches to the asymmetric model.

    Qubit points are matched against the dressed qubit transition and
    resonator points against the ground-branch resonator transition, both
    from exact diagonalization. Fields where state labeling fails are
    penalized with a large constant residual (and a zero Jacobian row)
    instead of aborting the fit; result.n_penalized counts them at the
    reported point, and the standard errors and residual_norm come from
    the other points alone. Each residual evaluation solves the distinct
    fields once, in one stacked call (rabi.solve_fields), and reads the
    model, the gap mask and the eigenvectors from its arrays. The Jacobian
    is exact: Hellmann-Feynman derivatives from those eigenvectors
    (rabi.transition_gradients).

    Free parameters: f_r, g, gamma, B0, f_q0. Missing initial values are
    filled in from the data: f_r from the median resonator frequency, B0
    from the minimum-f_q point, gamma from the outermost secant slope,
    f_q0 from the minimum qubit frequency, g defaults to 0.5% of f_r.

    g verdict: when the coupling's pull on the data is below the noise,
    the fit drives g toward 0, where the residual (even in g) has a
    vanishing g-column, and creeps there without settling the other
    parameters. After the fit the residual is evaluated once at g = 0
    with the other parameters unchanged. If the same points are penalized
    there and the misfit of the others (a penalty is no misfit, and one
    penalty of 1e6 would swamp the margin) is no more than the fit's
    times (1 + 1e-9), g is reported as 0: the other four are fitted again
    with g pinned there, g gets an infinite standard error, the message
    ends "g unidentifiable: the data fit as well at g = 0", and the
    result counts as converged when the pinned fit does, since g = 0 is
    then the least-squares estimate. On criterion-05-style noisy data the
    misfit excess at g = 0 is 1e-13 to 7e-13 relative where g collapses,
    and 0.20 to 4.3 where g is resolved, so the fixed 1e-9 margin
    separates the two by orders of magnitude.
    """
    from . import rabi  # only this fitter solves the Rabi model

    init = dict(init or {})
    qp, rp = dataset.qubit_points, dataset.resonator_points

    if "f_r" not in init:
        if len(rp) == 0:
            raise DegenerateFitError("no resonator points and no f_r initial value")
        init["f_r"] = median(rp[:, 1])
    if len(qp):
        imin = int(np.argmin(qp[:, 1]))
        init.setdefault("B0", float(qp[imin, 0]))
        init.setdefault("f_q0", float(qp[imin, 1]))
        if "gamma" not in init:
            hyp = fit_hyperbola(qp) if len(qp) >= 3 else None
            if hyp is not None and hyp.converged:
                init["gamma"] = hyp.params["gamma"]
            else:
                span = np.ptp(qp[:, 0])
                init["gamma"] = (np.ptp(qp[:, 1]) / span) if span > 0 else 1e12
    for key in ("B0", "f_q0", "gamma"):
        if key not in init:
            raise DegenerateFitError(f"no qubit points and no {key} initial value")
    init.setdefault("g", 0.005 * init["f_r"])
    names = rabi.GRADIENT_PARAMS
    init = {k: init[k] for k in names}

    penalty = 1e6
    # one solve per distinct field serves the qubit and resonator points
    fields, which = np.unique(np.concatenate([qp[:, 0], rp[:, 0]]),
                              return_inverse=True)
    branch = (np.arange(len(which)) >= len(qp)).astype(int)  # 0 f_q, 1 f_r_g
    measured = np.concatenate([qp[:, 1], rp[:, 1]])
    sigma = np.concatenate([qp[:, 2], rp[:, 2]])

    def point_of(p):
        return tuple(float(p[k]) for k in names)

    seen = {}  # residual, gap mask and Jacobian of every evaluation

    def evaluate(p):
        """Residual and its Jacobian."""
        params = rabi.QrmParams.asymmetric(
            f_r=abs(p["f_r"]), g=abs(p["g"]), gamma=abs(p["gamma"]),
            B0=p["B0"], f_q0=abs(p["f_q0"]))
        sweep = rabi.solve_fields(params, fields, trunc)
        grad = rabi.transition_gradients(params, sweep, trunc)
        gap = ~sweep.labeled[which]
        model = sweep.transitions[which, branch]  # f_q_dressed or f_r_g
        r = np.where(gap, penalty, (model - measured) / sigma)
        # the model sees |f_r|, |g|, |gamma| and |f_q0|
        signs = np.sign([p["f_r"], p["g"], p["gamma"], 1.0, p["f_q0"]])
        J = grad[which, branch] * signs / sigma[:, None]
        seen[point_of(p)] = r, gap, J
        return r, J

    result = least_squares(evaluate, init)
    free = list(names)
    r, gap, _ = seen[point_of(result.params)]
    at_zero = {**result.params, "g": 0.0}
    r0 = evaluate(at_zero)[0]
    gap0 = seen[point_of(at_zero)][1]
    fit = ~gap
    if np.array_equal(gap0, gap) and float(r0[fit] @ r0[fit]) <= \
            float(r[fit] @ r[fit]) * (1.0 + _G_COLLAPSE_RTOL):
        # g = 0 fits as well: settle the other four with g pinned there
        def pinned(p):
            r, J = evaluate({**p, "g": 0.0})
            return r, np.delete(J, 1, axis=1)

        free.remove("g")
        rest = least_squares(pinned, {k: result.params[k] for k in free})
        result = replace(
            rest, params={k: rest.params.get(k, 0.0) for k in names},
            std_errors={k: rest.std_errors.get(k, math.inf) for k in names},
            iterations=result.iterations + rest.iterations,
            residual_history=result.residual_history + rest.residual_history,
            message=rest.message
            + "; g unidentifiable: the data fit as well at g = 0")
    r, gap, J = seen[point_of(result.params)]
    if gap.any():
        # a penalty is no misfit: errors and norm from the labelled points
        r, J = r[~gap], J[~gap][:, [names.index(k) for k in free]]
        se = _std_errors(J[None], np.array([r @ r]))[0]
        result.std_errors.update(zip(free, se.tolist()))
        result.residual_norm = math.sqrt(float(r @ r))
    result.n_penalized = int(gap.sum())
    for key in ("f_r", "g", "gamma", "f_q0"):
        result.params[key] = abs(result.params[key])
    return result


# ---------------------------------------------------------------------------
# time-domain fitters
# ---------------------------------------------------------------------------

def fit_exponential(trace: TimeTrace) -> FitResult:
    """Fit A exp(-t/T) + c; params are T, A, c."""
    t, v, w = trace.times, trace.values, trace.weights
    if t.size < 4:
        raise DegenerateFitError("need at least 4 points")
    tail = max(1, t.size // 10)
    c0 = float(v[-tail:].mean())
    A0 = float(v[0] - c0)
    T0 = float(t[-1] - t[0]) / 3.0
    if A0 != 0.0:
        below = np.nonzero(np.abs(v - c0) < abs(A0) / math.e)[0]
        if below.size:
            T0 = max(float(t[below[0]] - t[0]), float(t[1] - t[0]))

    def resid(p):
        decay = _safe_exp(-t / p["T"])
        J = np.column_stack([p["A"] * decay * t / p["T"] ** 2, decay,
                             np.ones_like(t)]) * w[:, None]
        return (p["A"] * decay + p["c"] - v) * w, J

    result = least_squares(resid, {"T": T0, "A": A0, "c": c0})
    if not math.isfinite(result.std_errors["T"]) or \
            result.std_errors["T"] > abs(result.params["T"]):
        result.message += "; time constant unidentifiable"
    return result


def _fft_peaks(t: np.ndarray, v: np.ndarray, n_peaks: int) -> list[float]:
    """Dominant positive frequencies of a roughly uniform trace."""
    dt = float(np.mean(np.diff(t)))
    spec = np.abs(np.fft.rfft(v - v.mean()))
    freqs = np.fft.rfftfreq(t.size, dt)
    spec[0] = 0.0
    order = np.argsort(spec)[::-1]
    found: list[float] = []
    for idx in order:
        f = float(freqs[idx])
        if f <= 0:
            continue
        if all(abs(f - f0) > freqs[1] for f0 in found):
            found.append(f)
        if len(found) == n_peaks:
            break
    return found


def fit_ramsey_beat(trace: TimeTrace) -> FitResult:
    """Fit two equally damped cosines sharing one decay envelope.

    Model: exp(-t/T2s) [a1 cos(2 pi f1 t + phi1) + a2 cos(2 pi f2 t + phi2)] + c.
    The beat |f1 - f2| is reported as f_beat; when the trace is too short
    to resolve it (|f1 - f2| t_max < 0.5) the beat is flagged
    unidentifiable with an infinite standard error, as it is when zeroing
    the weaker tone raises the cost by at most _FTOL of the starting cost
    (one-tone data, where that tone's f and its error are rounding noise).
    """
    t, v, w = trace.times, trace.values, trace.weights
    if t.size < 10:
        raise DegenerateFitError("need at least 10 points")
    t_span = float(t[-1] - t[0])
    peaks = _fft_peaks(t, v, 2)
    if not peaks:
        f1_init = 1.0 / t_span
        f2_init = 2.0 / t_span
    elif len(peaks) == 1:
        f1_init = peaks[0]
        f2_init = peaks[0] + 1.0 / t_span
    else:
        f1_init, f2_init = peaks[0], peaks[1]
    amp0 = float(np.ptp(v)) / 4.0 or 1.0

    def resid(p):
        envelope = _safe_exp(-t / p["T2s"])[:, None]
        amps = np.array([p["a1"], p["a2"]])
        theta = (2 * np.pi * np.outer(t, [p["f1"], p["f2"]])
                 + [p["phi1"], p["phi2"]])
        d_amp = envelope * np.cos(theta)  # columns a1, a2
        d_phi = -envelope * np.sin(theta) * amps  # columns phi1, phi2
        tones = d_amp @ amps
        J = np.column_stack([tones * t / p["T2s"] ** 2,
                             2 * np.pi * t[:, None] * d_phi, d_amp, d_phi,
                             np.ones_like(t)]) * w[:, None]
        return (tones + p["c"] - v) * w, J

    result = least_squares(resid, {"T2s": t_span / 3.0, "f1": f1_init,
                                   "f2": f2_init, "a1": amp0, "a2": amp0,
                                   "phi1": 0.0, "phi2": 0.0,
                                   "c": float(v.mean())})
    weak = min(("a1", "a2"), key=lambda k: abs(result.params[k]))
    r_weak = resid({**result.params, weak: 0.0})[0]
    one_tone = float(r_weak @ r_weak) - result.residual_norm ** 2 \
        <= _FTOL * result.residual_history[0] ** 2
    f1, f2 = result.params["f1"], result.params["f2"]
    result.params["f_beat"] = abs(f1 - f2)
    se1, se2 = result.std_errors["f1"], result.std_errors["f2"]
    result.std_errors["f_beat"] = math.hypot(se1, se2) \
        if math.isfinite(se1) and math.isfinite(se2) else math.inf
    if abs(f1 - f2) * t_span < 0.5 or one_tone:
        result.std_errors["f_beat"] = math.inf
        result.message += ("; beat unidentifiable: one tone has no amplitude"
                           if one_tone else
                           "; beat unidentifiable on this time span")
    return result


def fit_damped_cosine(trace: TimeTrace) -> FitResult:
    """Fit c + A exp(-rate t) cos(2 pi f t + phi); params A, f, phi, rate, c.

    The decay is a rate (1/tau), so an undamped trace has its optimum at
    rate = 0 rather than at tau = +-infinity.
    """
    t, v, w = trace.times, trace.values, trace.weights
    if t.size < 6:
        raise DegenerateFitError("need at least 6 points")
    peaks = _fft_peaks(t, v, 1)
    t_span = float(t[-1] - t[0])
    f_init = peaks[0] if peaks else 1.0 / t_span

    def resid(p):
        envelope = _safe_exp(-t * p["rate"])
        theta = 2 * np.pi * p["f"] * t + p["phi"]
        d_A = envelope * np.cos(theta)
        d_phi = -p["A"] * envelope * np.sin(theta)
        J = np.column_stack([d_A, 2 * np.pi * t * d_phi, d_phi,
                             -p["A"] * d_A * t,
                             np.ones_like(t)]) * w[:, None]
        return (p["c"] + p["A"] * d_A - v) * w, J

    return least_squares(resid, {"A": float(np.ptp(v)) / 2.0 or 1.0,
                                 "f": f_init, "phi": 0.0, "rate": 1.0 / t_span,
                                 "c": float(v.mean())})


def fit_rabi_linear(scans: Sequence[tuple[float, TimeTrace]]):
    """Per-amplitude coherent-oscillation frequencies plus a linear law.

    Each trace is fit with a damped cosine to extract the oscillation
    frequency Omega; a zero-amplitude scan contributes Omega = 0 directly.
    The Omega values are then fit with a zero-intercept line Omega =
    slope * amplitude. Non-oscillating traces are excluded and reported in
    the warnings list.

    Returns (fit, omegas, warnings) where fit carries the slope in Hz per
    drive unit and omegas maps amplitude -> Omega (Hz).
    """
    omegas: dict[float, float] = {}
    warnings: list[str] = []
    for amplitude, trace in scans:
        if amplitude == 0.0:
            omegas[amplitude] = 0.0
            continue
        span = float(np.ptp(trace.values))
        if span == 0.0:
            warnings.append(
                f"amplitude {amplitude}: no resolvable oscillation, excluded")
            continue
        res = fit_damped_cosine(trace)
        t_span = float(trace.times[-1] - trace.times[0])
        f_fit = abs(res.params["f"])
        if (not res.converged or f_fit * t_span < 1.0
                or abs(res.params["A"]) < 0.05 * span):
            warnings.append(
                f"amplitude {amplitude}: no resolvable oscillation, excluded")
            continue
        omegas[amplitude] = f_fit
    if not omegas:
        raise DegenerateFitError("no scan produced a usable oscillation")

    amps = np.array(list(omegas))
    oms = np.array([omegas[a] for a in amps])
    saa = float(amps @ amps)
    if saa == 0.0:
        raise DegenerateFitError("need at least one nonzero drive amplitude")
    slope = float(amps @ oms) / saa
    resid = oms - slope * amps
    dof = len(amps) - 1
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    fit = FitResult(params={"slope": slope},
                    std_errors={"slope": math.sqrt(s2 / saa)},
                    residual_norm=float(np.linalg.norm(resid)),
                    iterations=0, converged=True,
                    residual_history=[float(np.linalg.norm(resid))],
                    gradient_measure=0.0, message="closed-form linear fit")
    return fit, omegas, warnings


# ---------------------------------------------------------------------------
# single-port reflection
# ---------------------------------------------------------------------------

def reflection_s11(f, f_r: float, kappa_int: float, kappa_ext: float):
    """Complex single-port reflection coefficient near one resonance."""
    if kappa_int < 0 or kappa_ext <= 0:
        raise InvalidParameterError("need kappa_int >= 0 and kappa_ext > 0")
    delta = np.asarray(f, dtype=float) - f_r
    return ((1j * delta + (kappa_int - kappa_ext) / 2.0)
            / (1j * delta + (kappa_int + kappa_ext) / 2.0))


def reflection_phase(f, f_r: float, kappa_int: float, kappa_ext: float):
    """Phase of the reflection coefficient (rad).

    Far off resonance the phase tends to zero; a lossless overcoupled
    resonator reflects with phase pi on resonance and the phase rolls
    through a full 2 pi when kappa_ext > kappa_int.
    """
    return np.angle(reflection_s11(f, f_r, kappa_int, kappa_ext))


def fit_reflection_phase(freqs, phases, init: dict[str, float]) -> FitResult:
    """Fit measured phase vs frequency; params f_r, kappa_int, kappa_ext."""
    freqs = np.asarray(freqs, dtype=float)
    phases = np.asarray(phases, dtype=float)

    def resid(p):
        k_int, k_ext = abs(p["kappa_int"]), abs(p["kappa_ext"])
        model = reflection_phase(freqs, p["f_r"], k_int, k_ext)
        d = model - phases
        # phase = arg(i delta + a) - arg(i delta + b); where S11 = 0
        # (a = delta = 0) arg(0) reads 0 and its term gets derivative 0
        delta = freqs - p["f_r"]
        a, b = (k_int - k_ext) / 2.0, (k_int + k_ext) / 2.0
        num2 = a * a + delta * delta
        inv_num = np.divide(1.0, num2, out=np.zeros_like(num2), where=num2 > 0)
        inv_den = 1.0 / (b * b + delta * delta)
        J = np.column_stack([
            b * inv_den - a * inv_num,
            -0.5 * delta * (inv_num - inv_den) * np.sign(p["kappa_int"]),
            0.5 * delta * (inv_num + inv_den) * np.sign(p["kappa_ext"])])
        return np.arctan2(np.sin(d), np.cos(d)), J  # wrap-safe residual

    result = least_squares(resid, {"f_r": init["f_r"],
                                   "kappa_int": init["kappa_int"],
                                   "kappa_ext": init["kappa_ext"]})
    result.params["kappa_int"] = abs(result.params["kappa_int"])
    result.params["kappa_ext"] = abs(result.params["kappa_ext"])
    return result
