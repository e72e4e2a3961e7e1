import math

import numpy as np
import pytest

from vortexlab import cli, fitting, rabi
from vortexlab.errors import (DegenerateFitError, InvalidParameterError,
                              VortexlabError)

F_R, G, GAMMA, B0, F_Q0 = 7.572e9, 92.5e6, 20e12, 128e-6, 2e9


def hyperbola_points(n=25, span=100e-6, sigma=1e6, noise=0.0, seed=None):
    B = np.linspace(B0 - span, B0 + span, n)
    f = np.sqrt(F_Q0**2 + (GAMMA * (B - B0)) ** 2)
    if noise:
        f = f + np.random.default_rng(seed).normal(0, noise, f.size)
    return np.column_stack([B, f, np.full(n, sigma)])


class TestEngine:
    def test_linear_exact(self):
        x = np.linspace(0, 1, 20)
        res = fitting.least_squares(
            lambda p: (p["a"] * x - 3.7 * x, x[:, None]), {"a": 1.0})
        assert res.converged
        assert res.params["a"] == pytest.approx(3.7, rel=1e-10, abs=0)

    def test_exponential_rate_recovery(self):
        t = np.linspace(0, 5, 60)
        y = np.exp(-1.37 * t)
        res = fitting.least_squares(
            lambda p: (np.exp(-p["k"] * t) - y,
                       (-t * np.exp(-p["k"] * t))[:, None]), {"k": 1.0})
        assert res.params["k"] == pytest.approx(1.37, rel=1e-8, abs=0)

    def test_dead_parameter_flagged(self):
        x = np.linspace(0, 1, 30)
        res = fitting.least_squares(
            lambda p: (p["a"] * x - 2 * x + 0 * p["b"],
                       np.column_stack([x, 0 * x])), {"a": 1.0, "b": 5.0})
        assert res.params["a"] == pytest.approx(2.0, rel=1e-9, abs=0)
        assert math.isinf(res.std_errors["b"])

    def test_residual_history_non_increasing(self):
        t = np.linspace(0, 1, 40)
        y = 2.5 * np.exp(-3 * t) + 0.2
        res = fitting.least_squares(
            lambda p: (p["A"] * np.exp(-p["k"] * t) + p["c"] - y,
                       np.column_stack([np.exp(-p["k"] * t),
                                        -p["A"] * t * np.exp(-p["k"] * t),
                                        np.ones_like(t)])),
            {"A": 1.0, "k": 1.0, "c": 0.0})
        hist = np.array(res.residual_history)
        assert np.all(np.diff(hist) <= 0)

    def test_converged_implies_small_gradient_measure(self):
        t = np.linspace(0, 1, 40)
        y = 2.5 * np.exp(-3 * t) + 0.2
        res = fitting.least_squares(
            lambda p: (p["A"] * np.exp(-p["k"] * t) + p["c"] - y,
                       np.column_stack([np.exp(-p["k"] * t),
                                        -p["A"] * t * np.exp(-p["k"] * t),
                                        np.ones_like(t)])),
            {"A": 1.0, "k": 1.0, "c": 0.0})
        assert res.converged
        assert res.gradient_measure <= 1e-6

    def test_nonfinite_init_rejected(self):
        with pytest.raises(InvalidParameterError):
            fitting.least_squares(lambda p: np.array([p["a"]]),
                                  {"a": math.nan})

    def test_start_beyond_the_bound_rejected(self):
        # the engine keeps parameters, residuals and Jacobian entries below
        # 1e60, so no product it forms overflows
        with pytest.raises(InvalidParameterError,
                           match=r"within \+-1e\+60, got b = 1e\+70$"):
            fitting.least_squares(lambda p: (np.array([p["a"]]),
                                             np.array([[1.0, 0.0]])),
                                  {"a": 1.0, "b": 1e70})
        with pytest.raises(InvalidParameterError, match="initial point"):
            fitting.least_squares(lambda p: (np.array([1e70 * p["a"]]),
                                             np.array([[1e70]])), {"a": 1.0})

    def test_steps_beyond_the_bound_fail(self):
        # the zero lies at a = -1e170; damping brings the step no nearer
        # than 1e156, so every trial lies beyond the bound and fails like
        # a non-finite one
        result = fitting.least_squares(
            lambda p: (np.array([1e-150 * p["a"] + 1e20]),
                       np.array([[1e-150]])), {"a": 0.0})
        assert not result.converged
        assert result.message == "no damped step reduced the residual"
        assert result.params == {"a": 0.0}

    def test_lockstep_rows_are_bit_identical_to_batches_of_one(
            self, monkeypatch):
        # one batch of one-parameter problems whose rows stop by different
        # rules, one refused at its start: each row's result is, every
        # field bit for bit, its problem's result alone
        monkeypatch.setattr(fitting, "_MAX_ITER", 8)
        x = np.linspace(0, 1, 4)
        problems = [  # (residual and Jacobian at a, start)
            (lambda a: (a * x - 3.7 * x, x[:, None]), 1.0),
            (lambda a: (a - np.array([1.0, 2.0, 4.0, 8.0]), np.ones((4, 1))),
             0.0),
            # the problem of test_steps_beyond_the_bound_fail
            (lambda a: (np.full(4, 1e-150 * a + 1e20), np.full((4, 1), 1e-150)),
             0.0),
            # needs ten iterations to its step tolerance, more than the 8
            # allowed here
            (lambda a: (np.exp(-a * x) - np.exp(-1.37 * x),
                        (-x * np.exp(-a * x))[:, None]), 5.0),
            (lambda a: (a * x, x[:, None]), math.nan),
        ]

        def lockstep(chosen):
            def resid(P, rows):
                R, J = zip(*(chosen[i][0](p) for (p,), i
                             in zip(P, rows.tolist())))
                return np.stack(R), np.stack(J)

            return fitting._lockstep(resid, [[start] for _, start in chosen],
                                     ["a"])

        batch = lockstep(problems)
        assert [getattr(r, "message", str(r)) for r in batch] == [
            "gradient tolerance reached",
            "cost reduction at the rounding floor",
            "no damped step reduced the residual",
            "max iterations reached",
            "initial parameters must be finite"]
        for problem, result in zip(problems, batch):
            alone, = lockstep([problem])
            if isinstance(alone, InvalidParameterError):
                assert type(result) is type(alone) and str(result) == str(alone)
            else:
                assert result == alone


class TestHyperbola:
    def test_noiseless_round_trip(self):
        res = fitting.fit_hyperbola(hyperbola_points())
        assert res.converged
        assert res.params["f_q0"] == pytest.approx(F_Q0, rel=1e-6, abs=0)
        assert res.params["gamma"] == pytest.approx(GAMMA, rel=1e-6, abs=0)
        assert res.params["B0"] == pytest.approx(B0, rel=1e-6, abs=0)

    def test_symmetric_pair_centers_B0(self):
        pts = np.array([[100e-6, 2.2e9, 1e6], [156e-6, 2.2e9, 1e6],
                        [128e-6, 2.0e9, 1e6]])
        res = fitting.fit_hyperbola(pts)
        assert res.params["B0"] == pytest.approx(128e-6, rel=1e-9, abs=0)

    def test_noisy_within_three_sigma(self):
        res = fitting.fit_hyperbola(hyperbola_points(noise=10e6, sigma=10e6,
                                                     seed=11))
        assert res.converged
        for key, truth in (("f_q0", F_Q0), ("gamma", GAMMA), ("B0", B0)):
            assert abs(res.params[key] - truth) < 3 * res.std_errors[key]

    def test_reflection_invariance(self):
        pts = hyperbola_points()
        pivot = 150e-6
        mirrored = pts.copy()
        mirrored[:, 0] = 2 * pivot - pts[:, 0]
        res1 = fitting.fit_hyperbola(pts)
        res2 = fitting.fit_hyperbola(mirrored)
        assert res2.params["f_q0"] == pytest.approx(res1.params["f_q0"],
                                                    rel=1e-8, abs=0)
        assert res2.params["gamma"] == pytest.approx(res1.params["gamma"],
                                                     rel=1e-8, abs=0)
        assert res2.params["B0"] == pytest.approx(2 * pivot - res1.params["B0"],
                                                  rel=1e-8, abs=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_permutation_invariance(self, seed):
        pts = hyperbola_points(noise=5e6, sigma=5e6, seed=seed)
        perm = np.random.default_rng(4).permutation(len(pts))
        res1 = fitting.fit_hyperbola(pts)
        res2 = fitting.fit_hyperbola(pts[perm])
        for key in ("f_q0", "gamma", "B0"):
            assert res2.params[key] == pytest.approx(res1.params[key],
                                                     rel=1e-12, abs=0)

    def test_degenerate_fields(self):
        for field in (1e-4, math.nan):  # NaN fields count as one, as in np.unique
            pts = np.array([[field, 2e9, 1e6]] * 4)
            with pytest.raises(DegenerateFitError, match="all fields identical"):
                fitting.fit_hyperbola(pts)


class TestHyperbolaBatch:
    def test_rows_are_bit_identical_to_batches_of_one(self):
        # the lockstep engine against its batch of one: each dataset's
        # result, every field bit for bit, whatever else the batch holds,
        # failing datasets included
        datasets = [hyperbola_points(n=n, noise=noise, sigma=5e6, seed=seed)
                    for seed, (n, noise) in enumerate(
                        [(25, 5e6), (15, 5e6), (25, 0.0), (25, 60e6),
                         (15, 30e6), (40, 5e6), (25, 5e6)])]
        nan_cell = hyperbola_points()
        nan_cell[4, 1] = math.nan
        datasets += [nan_cell, hyperbola_points(n=2),
                     np.array([[1e-4, 2e9, 1e6]] * 4)]
        # sigmas: not positive, then small enough to put the initial
        # residual beyond 1e60
        datasets += [hyperbola_points(sigma=s)
                     for s in (0.0, -1e6, math.nan, 1e-55)]
        batch = fitting.fit_hyperbolas(datasets)
        assert len({r.iterations for r in batch[:7]}) > 1
        for points, result in zip(datasets, batch):
            try:
                single = fitting.fit_hyperbola(points)
            except VortexlabError as exc:
                assert type(result) is type(exc) and str(result) == str(exc)
            else:
                assert result == single
        assert [str(r) for r in batch[7:]] == [
            "initial parameters must be finite",
            "need at least 3 (B, f) points",
            "all fields identical, hyperbola unconstrained",
            "sigma must be positive", "sigma must be positive",
            "sigma must be positive",
            "residual or Jacobian not finite or beyond +-1e+60 at the "
            "initial point"]


class TestJointAqrm:
    trunc = rabi.HilbertTruncation(24)

    def _dataset(self, g=G, noise_q=0.0, noise_r=0.0, seed=None):
        true = rabi.QrmParams.asymmetric(F_R, g, GAMMA, B0, F_Q0)
        B_q = B0 + np.linspace(-150e-6, 150e-6, 13)
        B_r = B0 + np.linspace(-250e-6, 250e-6, 11)
        rng = np.random.default_rng(seed)
        qpts, rpts = [], []
        for B in B_q:
            f = rabi.solve_qrm(true, B, self.trunc).f_q_dressed
            sig = max(noise_q * f, 1e6)
            qpts.append([B, f + (rng.normal(0, noise_q * f) if noise_q else 0),
                         sig])
        for B in B_r:
            f = rabi.solve_qrm(true, B, self.trunc).f_r_g
            sig = max(noise_r * f, 0.2e6)
            rpts.append([B, f + (rng.normal(0, noise_r * f) if noise_r else 0),
                         sig])
        return fitting.SpectrumDataset(qubit_points=np.array(qpts),
                                       resonator_points=np.array(rpts))

    def test_noiseless_round_trip(self):
        res = fitting.fit_joint_aqrm(self._dataset(), None, self.trunc)
        assert res.converged
        for key, truth in (("f_r", F_R), ("g", G), ("gamma", GAMMA),
                           ("B0", B0), ("f_q0", F_Q0)):
            assert abs(res.params[key] - truth) / truth < 1e-3

    def test_zero_coupling_dataset(self):
        res = fitting.fit_joint_aqrm(self._dataset(g=0.0), {"g": 0.0},
                                     self.trunc)
        # zero-residual start: the fit has nothing to improve and the flat
        # coupling direction stays at zero, consistent with 0 within its
        # standard error
        assert abs(res.params["g"]) <= res.std_errors["g"]
        for key, truth in (("f_r", F_R), ("gamma", GAMMA), ("B0", B0),
                           ("f_q0", F_Q0)):
            assert abs(res.params[key] - truth) / truth < 1e-6

    def test_noisy_within_three_sigma(self):
        res = fitting.fit_joint_aqrm(self._dataset(noise_q=0.05, noise_r=5e-4,
                                                   seed=17), None, self.trunc)
        assert res.converged
        for key, truth in (("f_r", F_R), ("g", G), ("gamma", GAMMA),
                           ("B0", B0), ("f_q0", F_Q0)):
            assert abs(res.params[key] - truth) < 3 * res.std_errors[key]

    def test_labeling_failures_at_trial_params_not_fatal(self):
        # points just off the avoided crossing are labelable at the true
        # coupling but not at a wildly large trial coupling; the fit must
        # survive the penalized phase and still converge
        true = rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
        ds = self._dataset()
        extra = []
        for B in (B_cross - 3e-6, B_cross + 3e-6):
            extra.append([B, rabi.solve_qrm(true, B, self.trunc).f_r_g,
                          0.2e6])
        ds2 = fitting.SpectrumDataset(
            qubit_points=ds.qubit_points,
            resonator_points=np.vstack([ds.resonator_points, extra]))
        res = fitting.fit_joint_aqrm(ds2, {"g": 250e6}, self.trunc)
        assert res.converged
        assert abs(res.params["g"] - G) / G < 0.01


    def test_one_solve_per_distinct_field_per_residual(self, monkeypatch):
        # the resonator list repeats seven of the qubit fields
        ds = self._dataset()
        shared = ds.qubit_points[::2].copy()
        shared[:, 1] = [rabi.solve_qrm(
            rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0), B,
            self.trunc).f_r_g for B in shared[:, 0]]
        ds2 = fitting.SpectrumDataset(
            qubit_points=ds.qubit_points,
            resonator_points=np.vstack([ds.resonator_points, shared]))
        n_distinct = np.unique(np.concatenate(
            [ds2.qubit_points[:, 0], ds2.resonator_points[:, 0]])).size
        assert n_distinct < len(ds2.qubit_points) + len(ds2.resonator_points)

        solves = [0]  # fields solved
        solve_fields = rabi.solve_fields

        def counting_solve(params, B_list, trunc):
            solves[0] += np.size(B_list)
            return solve_fields(params, B_list, trunc)

        per_eval = []
        least_squares = fitting.least_squares

        def counting_least_squares(residual_fn, init, *args, **kwargs):
            def counted(p):
                before = solves[0]
                r = residual_fn(p)
                per_eval.append(solves[0] - before)
                return r
            return least_squares(counted, init, *args, **kwargs)

        monkeypatch.setattr(rabi, "solve_fields", counting_solve)
        monkeypatch.setattr(fitting, "least_squares", counting_least_squares)
        init = {"f_r": F_R, "g": 1.01 * G, "gamma": GAMMA, "B0": B0,
                "f_q0": F_Q0}
        res = fitting.fit_joint_aqrm(ds2, init, self.trunc)
        assert res.converged
        assert len(per_eval) > 1
        assert set(per_eval) == {n_distinct}


class TestJointJacobian:
    trunc = rabi.HilbertTruncation(24)
    truth = {"f_r": F_R, "g": G, "gamma": GAMMA, "B0": B0, "f_q0": F_Q0}

    @pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1), (1, -1, -1, 1, -1)])
    def test_hellmann_feynman_matches_central_differences(self, monkeypatch,
                                                         signs):
        # both branches at 7 fields over B0 +- 250 uT, B0 itself included,
        # where the gamma column vanishes; negative parameters check the
        # sign the residual's abs() puts on each column
        true = rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)
        B = B0 + np.linspace(-250e-6, 250e-6, 7)
        specs = rabi.sweep_field(true, B, self.trunc)
        ds = fitting.SpectrumDataset(
            qubit_points=[[b, s.f_q_dressed, 1e6] for b, s in zip(B, specs)],
            resonator_points=[[b, s.f_r_g, 0.2e6] for b, s in zip(B, specs)])
        captured = []
        least_squares = fitting.least_squares

        def recording(residual_fn, init, *args, **kwargs):
            captured.append(residual_fn)
            return least_squares(residual_fn, init, *args, **kwargs)

        monkeypatch.setattr(fitting, "least_squares", recording)
        fitting.fit_joint_aqrm(ds, dict(self.truth), self.trunc)
        resid = captured[0]
        p = {k: s * v for s, (k, v) in zip(signs, self.truth.items())}
        _, J = resid(p)
        J_cd = np.empty_like(J)
        for i, key in enumerate(p):
            h = 1e-4 * abs(p[key])
            up = resid({**p, key: p[key] + h})[0]
            down = resid({**p, key: p[key] - h})[0]
            J_cd[:, i] = (up - down) / (2 * h)
        floor = 1e-3 * np.abs(J_cd).max(axis=0)
        assert np.all(np.abs(J - J_cd) <= 1e-5 * np.maximum(np.abs(J_cd), floor))
        assert np.all(J[[3, 10], 2] == 0.0)  # d/dgamma at B = B0

    def test_analytic_and_finite_difference_paths_agree(
            self, monkeypatch, criterion_05_dataset):
        ds = criterion_05_dataset()
        exact = fitting.fit_joint_aqrm(ds, None, self.trunc)
        least_squares = fitting.least_squares

        def finite_differences(residual_fn, init, *args, **kwargs):
            # forward differences, step 1e-6 |p_i| but at least 1e-12
            def resid(p):
                r = residual_fn(p)[0]
                J = np.empty((r.size, len(p)))
                for i, key in enumerate(p):
                    h = max(1e-6 * abs(p[key]), 1e-12)
                    J[:, i] = (residual_fn({**p, key: p[key] + h})[0] - r) / h
                return r, J
            return least_squares(resid, init, *args, **kwargs)

        monkeypatch.setattr(fitting, "least_squares", finite_differences)
        fd = fitting.fit_joint_aqrm(ds, None, self.trunc)
        assert exact.converged and fd.converged
        assert exact.residual_norm == pytest.approx(
            fd.residual_norm, rel=1e-9, abs=0)
        for key, value in exact.params.items():
            assert abs(value - fd.params[key]) < 0.01 * exact.std_errors[key]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 17])
    def test_noise_seeds_converge_or_get_the_g_verdict(
            self, monkeypatch, seed, criterion_05_dataset):
        iterations = {}  # of each least_squares call, by parameter count
        least_squares = fitting.least_squares

        def recording(residual_fn, init, *args, **kwargs):
            result = least_squares(residual_fn, init, *args, **kwargs)
            iterations[len(init)] = result.iterations
            return result

        monkeypatch.setattr(fitting, "least_squares", recording)
        ds = criterion_05_dataset(seed)
        res = fitting.fit_joint_aqrm(ds, None, self.trunc)
        assert res.converged
        assert iterations[5] <= 25
        verdict = "g unidentifiable" in res.message
        assert verdict == (seed not in (0, 3, 17))
        assert verdict == (4 in iterations)  # the refit with g pinned at 0
        if verdict:
            assert iterations[4] <= 10
        for key, se in res.std_errors.items():
            if verdict and key == "g":
                assert res.params["g"] == 0.0 and math.isinf(se)
            else:
                assert math.isfinite(se)
        # fit-spectrum's built-in truncation: the same verdict, and every
        # parameter within 1e-3 standard errors (g = 0 on a verdict)
        small = fitting.fit_joint_aqrm(
            ds, None, rabi.HilbertTruncation(cli._FIT_N_FOCK))
        assert small.converged
        assert ("g unidentifiable" in small.message) == verdict
        assert (small.params["g"] == 0.0) == verdict
        for key, value in res.params.items():
            assert abs(small.params[key] - value) <= 1e-3 * res.std_errors[key]

    def test_sweeps_per_fit_independent_of_rounding_in_j(
            self, monkeypatch, criterion_05_dataset):
        # J scaled by 1 + 1e-14 N(0, 1): a path that walks the rounding
        # floor took 21 to 44 sweeps over these draws
        ds = criterion_05_dataset()
        gradients, solve_fields = rabi.transition_gradients, rabi.solve_fields
        counts = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            sweeps = [0]

            def noisy_gradients(*args):
                grad = gradients(*args)
                return grad * (1.0 + 1e-14 * rng.standard_normal(grad.shape))

            def counting_sweep(*args):
                sweeps[0] += 1
                return solve_fields(*args)

            monkeypatch.setattr(rabi, "transition_gradients", noisy_gradients)
            monkeypatch.setattr(rabi, "solve_fields", counting_sweep)
            assert fitting.fit_joint_aqrm(ds, None, self.trunc).converged
            counts.append(sweeps[0])
        assert min(counts) > 0 and max(counts) - min(counts) <= 1

    def test_solves_per_fit_under_half_the_finite_difference_count(
            self, monkeypatch, criterion_05_dataset):
        # the forward-difference Jacobian took 2,016 solves on this dataset
        solves = [0]  # fields solved
        solve_fields = rabi.solve_fields

        def counting_solve(params, B_list, trunc):
            solves[0] += np.size(B_list)
            return solve_fields(params, B_list, trunc)

        ds = criterion_05_dataset()
        monkeypatch.setattr(rabi, "solve_fields", counting_solve)
        res = fitting.fit_joint_aqrm(ds, None, self.trunc)
        assert res.converged
        assert 0 < solves[0] < 2016 // 2

    def test_penalized_points_counted(self):
        true = rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)
        B = B0 + np.linspace(-250e-6, 250e-6, 9)
        specs = rabi.sweep_field(true, B, self.trunc)
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA  # f_q = f_r
        assert rabi.sweep_field(true, [B_cross], self.trunc) == [None]
        ds = fitting.SpectrumDataset(
            qubit_points=[[b, s.f_q_dressed, 1e6] for b, s in zip(B, specs)],
            resonator_points=[[b, s.f_r_g, 0.2e6] for b, s in zip(B, specs)]
            + [[B_cross, F_R, 0.2e6]])
        res = fitting.fit_joint_aqrm(ds, dict(self.truth), self.trunc)
        assert res.n_penalized == 1
        assert fitting.fit_hyperbola(hyperbola_points()).n_penalized == 0

    def test_penalized_point_leaves_a_resolved_g(self, criterion_05_dataset):
        # criterion 05's data plus one resonator point at the fitted
        # crossing f_q = f_r, started at the optimum so the point stays
        # penalized: the g verdict compares the misfit of the other points
        ds = criterion_05_dataset()
        clean = fitting.fit_joint_aqrm(ds, None, self.trunc)
        best = clean.params
        B_cross = best["B0"] + math.sqrt(best["f_r"]**2
                                         - best["f_q0"]**2) / best["gamma"]
        ds = fitting.SpectrumDataset(
            qubit_points=ds.qubit_points,
            resonator_points=np.vstack([ds.resonator_points,
                                        [B_cross, best["f_r"], 4e6]]))
        res = fitting.fit_joint_aqrm(ds, dict(best), self.trunc)
        assert res.n_penalized == 1
        assert "g unidentifiable" not in res.message
        assert res.params["g"] == pytest.approx(best["g"], rel=1e-6, abs=0)
        assert math.isfinite(res.std_errors["g"])
        # a penalty is no misfit: errors and norm from the labelled points
        ratio = res.std_errors["g"] / clean.std_errors["g"]
        assert 0.5 < ratio < 2.0
        assert res.residual_norm == pytest.approx(
            clean.residual_norm, rel=0.1, abs=0)


def _trace(t, clean, noise, seed):
    rng = np.random.default_rng(seed)
    return fitting.TimeTrace(times=t, values=clean + rng.normal(0, noise, t.size),
                             sigma=np.full(t.size, noise))


_T1 = np.linspace(0, 1e-3, 120)
_T2 = np.linspace(0, 2e-6, 300)
_F_REFL = np.linspace(7.56e9, 7.585e9, 400)
_PH_REFL = fitting.reflection_phase(_F_REFL, F_R, 0.15e6, 0.6e6) \
    + np.random.default_rng(5).normal(0, 0.002, _F_REFL.size)
CLOSED_FORM_FITS = {
    "hyperbola": lambda: fitting.fit_hyperbola(
        hyperbola_points(noise=5e6, sigma=5e6, seed=3)),
    "exponential": lambda: fitting.fit_exponential(_trace(
        _T1, 0.8 * np.exp(-_T1 / 186e-6) + 0.1, 0.01, 1)),
    "ramsey": lambda: fitting.fit_ramsey_beat(_trace(
        _T2, np.exp(-_T2 / 440e-9) * (0.4 * np.cos(2 * np.pi * 5e6 * _T2 + 0.3)
                                      + 0.4 * np.cos(2 * np.pi * 7e6 * _T2 - 0.2))
        + 0.5, 0.01, 2)),
    "damped_cosine": lambda: fitting.fit_damped_cosine(_trace(
        _T2, 0.5 - 0.5 * np.exp(-_T2 / 1e-6) * np.cos(2 * np.pi * 8e6 * _T2),
        0.01, 3)),
    "reflection": lambda: fitting.fit_reflection_phase(
        _F_REFL, _PH_REFL,
        {"f_r": 7.5715e9, "kappa_int": 0.2e6, "kappa_ext": 0.5e6}),
}


class TestClosedFormJacobians:
    @staticmethod
    def _assert_matches_central_differences(resid, p):
        r, J = resid(p)
        J_cd = np.empty_like(J)
        for i, key in enumerate(p):
            # a step that moves the residual by about 1e-5 per point
            h = 1e-5 * math.sqrt(r.size) / np.linalg.norm(J[:, i])
            up = resid({**p, key: p[key] + h})[0]
            down = resid({**p, key: p[key] - h})[0]
            J_cd[:, i] = (up - down) / (2 * h)
        floor = 1e-3 * np.abs(J_cd).max(axis=0)
        assert np.all(np.abs(J - J_cd) <= 1e-5 * np.maximum(np.abs(J_cd), floor))

    @pytest.mark.parametrize("fit", CLOSED_FORM_FITS)
    def test_jacobian_matches_central_differences(self, monkeypatch, fit):
        # at the start point and at the optimum, through the batched
        # residual the engine runs (the hyperbola's own; the others as
        # least_squares wraps them); the reflection fit also at negative
        # kappas, where its abs() flips the sign of their columns
        captured = []
        lockstep = fitting._lockstep

        def recording(residual_fn, P0, names):
            results = lockstep(residual_fn, P0, names)
            captured.append((residual_fn, names,
                             dict(zip(names, np.array(P0, float, ndmin=2)[0])),
                             dict(results[0].params)))
            return results

        monkeypatch.setattr(fitting, "_lockstep", recording)
        assert CLOSED_FORM_FITS[fit]().converged
        batched, names, start, optimum = captured[0]

        def resid(p):  # the batch's first problem, by parameter name
            R, J = batched(np.array([[p[k] for k in names]]), np.array([0]))
            return R[0], J[0]

        points = [start, optimum]
        if fit == "reflection":
            points += [{**p, "kappa_int": -p["kappa_int"],
                        "kappa_ext": -p["kappa_ext"]} for p in points]
        for p in points:
            self._assert_matches_central_differences(resid, p)

    def test_reflection_started_where_s11_vanishes(self):
        # kappa_int == kappa_ext puts S11 = 0 at the grid point f = f_r,
        # where arg's derivative is 0/0; the fit must still leave its start
        off = np.geomspace(1e3, 20e6, 150)
        f = F_R + np.concatenate([-off[::-1], [0.0], off])
        ph = fitting.reflection_phase(f, F_R, 0.15e6, 0.6e6) \
            + np.random.default_rng(5).normal(0, 0.002, f.size)
        res = fitting.fit_reflection_phase(
            f, ph, {"f_r": F_R, "kappa_int": 0.4e6, "kappa_ext": 0.4e6})
        assert res.converged
        # the optimum the forward-difference engine reached from this start
        reference = {"f_r": 7572000006.929, "kappa_int": 149124.1315,
                     "kappa_ext": 599900.4335}
        for key, value in reference.items():
            assert abs(res.params[key] - value) < 0.01 * res.std_errors[key]


class TestTimeTrace:
    @pytest.mark.parametrize("column", ["times", "values"])
    def test_rejects_non_finite(self, column):
        cells = {"times": np.arange(4.0), "values": np.zeros(4)}
        cells[column][2] = math.nan
        with pytest.raises(InvalidParameterError, match=f"{column} must be finite"):
            fitting.TimeTrace(**cells)

    def test_requires_ascending_times(self):
        with pytest.raises(InvalidParameterError):
            fitting.TimeTrace(times=np.array([0.0, 2.0, 1.0]),
                              values=np.zeros(3))

    def test_requires_positive_sigma(self):
        with pytest.raises(InvalidParameterError):
            fitting.TimeTrace(times=np.arange(3.0), values=np.zeros(3),
                              sigma=np.array([1.0, 0.0, 1.0]))


class TestExponential:
    def test_t1_round_trip(self):
        t = np.linspace(0, 1e-3, 120)
        v = 0.8 * np.exp(-t / 186e-6) + 0.1
        res = fitting.fit_exponential(fitting.TimeTrace(times=t, values=v))
        assert res.params["T"] == pytest.approx(186e-6, rel=1e-6, abs=0)

    def test_echo_round_trip(self):
        t = np.linspace(0, 6e-6, 80)
        v = 0.5 * np.exp(-t / 1.2e-6) + 0.05
        res = fitting.fit_exponential(fitting.TimeTrace(times=t, values=v))
        assert res.params["T"] == pytest.approx(1.2e-6, rel=0.02, abs=0)

    def test_constant_trace_unidentifiable(self):
        t = np.linspace(0, 1e-3, 50)
        res = fitting.fit_exponential(
            fitting.TimeTrace(times=t, values=np.full(50, 0.3)))
        assert abs(res.params["A"]) < 1e-9
        assert res.std_errors["T"] > abs(res.params["T"])

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fitting.fit_exponential(
                fitting.TimeTrace(times=np.arange(3.0), values=np.ones(3)))


class TestRamseyBeat:
    def test_two_tone_round_trip(self):
        t = np.linspace(0, 2e-6, 300)
        v = np.exp(-t / 440e-9) * (
            0.4 * np.cos(2 * np.pi * 5e6 * t + 0.3)
            + 0.4 * np.cos(2 * np.pi * 7e6 * t - 0.2)) + 0.5
        res = fitting.fit_ramsey_beat(fitting.TimeTrace(times=t, values=v))
        assert res.converged
        assert res.params["T2s"] == pytest.approx(440e-9, rel=0.02, abs=0)
        assert res.params["f_beat"] == pytest.approx(2e6, rel=0.02, abs=0)

    def test_single_tone_degenerates(self):
        t = np.linspace(0, 2e-6, 300)
        v = np.exp(-t / 440e-9) * 0.8 * np.cos(2 * np.pi * 6e6 * t + 0.1) + 0.5
        res = fitting.fit_ramsey_beat(fitting.TimeTrace(times=t, values=v))
        assert res.residual_norm < 1e-8
        assert res.params["a1"] + res.params["a2"] == pytest.approx(
            0.8, rel=0.02, abs=0)
        assert math.isinf(res.std_errors["f_beat"]) or \
            "unidentifiable" in res.message

    def test_zero_amplitude(self):
        t = np.linspace(0, 2e-6, 64)
        res = fitting.fit_ramsey_beat(
            fitting.TimeTrace(times=t, values=np.full(64, 0.5)))
        assert abs(res.params["a1"]) < 1e-9
        assert abs(res.params["a2"]) < 1e-9


class TestRabiLinear:
    @staticmethod
    def _scan(amplitude, slope=1e12, n=200, t_max=2e-6):
        t = np.linspace(0, t_max, n)
        if amplitude == 0:
            return amplitude, fitting.TimeTrace(times=t, values=np.zeros(n))
        v = 0.5 - 0.5 * np.cos(2 * np.pi * slope * amplitude * t)
        return amplitude, fitting.TimeTrace(times=t, values=v)

    def test_linear_slope_round_trip(self):
        scans = [self._scan(a) for a in (0.0, 4e-6, 8e-6, 16e-6, 24e-6)]
        fit, omegas, warnings = fitting.fit_rabi_linear(scans)
        assert not warnings
        assert fit.params["slope"] == pytest.approx(1e12, rel=0.01, abs=0)
        assert omegas[0.0] == 0.0

    @pytest.mark.parametrize("amplitude", [4e-6, 8e-6, 16e-6, 24e-6])
    def test_undamped_scan_fit_stops_early(self, amplitude):
        # an undamped trace has its optimum at decay rate 0, a finite point
        # (with a time constant it lay at tau = +-infinity: 55-73 iterations)
        _, trace = self._scan(amplitude)
        res = fitting.fit_damped_cosine(trace)
        assert res.converged and res.iterations <= 20
        assert res.params["f"] == pytest.approx(
            1e12 * amplitude, rel=1e-9, abs=0)
        assert abs(res.params["rate"]) * 2e-6 < 1e-9

    def test_pi_pulse_consistency(self):
        # a 20 ns inverting pulse corresponds to a 25 MHz oscillation
        amp = 10e-6
        t = np.linspace(0, 200e-9, 120)
        v = 0.5 - 0.5 * np.cos(2 * np.pi * 25e6 * t)
        fit, omegas, _ = fitting.fit_rabi_linear([(amp, fitting.TimeTrace(
            times=t, values=v))])
        assert omegas[amp] == pytest.approx(25e6, rel=1e-3, abs=0)
        pi_time = 1.0 / (2.0 * omegas[amp])
        assert pi_time == pytest.approx(20e-9, rel=1e-3, abs=0)

    def test_non_oscillating_excluded(self):
        scans = [self._scan(8e-6)]
        t = np.linspace(0, 2e-6, 50)
        scans.append((4e-6, fitting.TimeTrace(times=t,
                                              values=np.full(50, 0.25))))
        fit, omegas, warnings = fitting.fit_rabi_linear(scans)
        assert len(warnings) == 1
        assert 4e-6 not in omegas


class TestReflectionPhase:
    def test_far_detuned_phase_vanishes(self):
        ph = fitting.reflection_phase(7.9e9, F_R, 0.2e6, 0.6e6)
        assert abs(ph) < 0.01

    def test_lossless_on_resonance(self):
        s = fitting.reflection_s11(F_R, F_R, 0.0, 0.6e6)
        assert abs(s) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert fitting.reflection_phase(F_R, F_R, 0.0, 0.6e6) == pytest.approx(
            math.pi, rel=1e-12, abs=0)

    def test_full_phase_roll_when_overcoupled(self):
        # log-spaced offsets: dense near resonance, wings out to 2 GHz
        off = np.geomspace(1e3, 2e9, 3000)
        f = F_R + np.concatenate([-off[::-1], [0.0], off])
        ph = np.unwrap(fitting.reflection_phase(f, F_R, 0.15e6, 0.6e6))
        assert abs(ph[0] - ph[-1]) == pytest.approx(
            2 * math.pi, rel=1e-3, abs=0)

    def test_no_roll_when_undercoupled(self):
        off = np.geomspace(1e3, 2e9, 3000)
        f = F_R + np.concatenate([-off[::-1], [0.0], off])
        ph = np.unwrap(fitting.reflection_phase(f, F_R, 0.9e6, 0.6e6))
        assert abs(ph[0] - ph[-1]) < 0.1

    def test_two_state_chi_recovery(self):
        # curves offset by chi = -1.32 MHz at kappa ~ 0.75 MHz total
        chi = -1.32e6
        f = np.linspace(7.56e9, 7.585e9, 400)
        rng = np.random.default_rng(5)
        ph_g = fitting.reflection_phase(f, F_R, 0.15e6, 0.6e6) \
            + rng.normal(0, 0.002, f.size)
        ph_e = fitting.reflection_phase(f, F_R + chi, 0.15e6, 0.6e6) \
            + rng.normal(0, 0.002, f.size)
        init = {"f_r": 7.5715e9, "kappa_int": 0.2e6, "kappa_ext": 0.5e6}
        fit_g = fitting.fit_reflection_phase(f, ph_g, init)
        fit_e = fitting.fit_reflection_phase(f, ph_e, init)
        chi_fit = fit_e.params["f_r"] - fit_g.params["f_r"]
        assert chi_fit == pytest.approx(chi, rel=0.02, abs=0)
