import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rigidmem import cli, integrators, kernels, models
from rigidmem.errors import DivergenceError, HistoryCoverageError
from rigidmem.fraccalc import mittag_leffler
from rigidmem.integrators import (FracConfig, HistorySpec, Trajectory,
                                  integrate_chain, integrate_dde,
                                  integrate_frac_abm, integrate_frac_dde,
                                  integrate_rk4, write_trajectory_csv)

P321 = models.RigidBodyParams(3, 2, 1)
X111 = np.array([1.0, 1.0, 1.0])
REPO = Path(__file__).resolve().parents[1]


def _history_from_callable(fn):
    """HistorySpec of a callable phi(s), evaluated one time at a time."""
    def eval_many(ss):
        return np.stack([np.atleast_1d(np.asarray(fn(s), dtype=float))
                         for s in np.asarray(ss, dtype=float)])

    return HistorySpec(eval_many, np.atleast_1d(fn(0.0)).size)


def _history_from_trajectory(traj):
    """HistorySpec that reads a recorded segment by Hermite interpolation."""
    return HistorySpec(traj.eval_many, traj.states.shape[1])


def rigid_diag(p):
    return {"h": lambda x: models.hamiltonian(p, x), "c": models.casimir}


class TestRk4:
    def test_conservation_drift(self):
        traj = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                             20.0, 1e-3, diagnostics=rigid_diag(P321))
        for name in ("h", "c"):
            series = traj.diagnostics[name]
            drift = np.max(np.abs(series - series[0])) / series[0]
            assert drift < 1e-8

    def test_zero_field_constant(self):
        traj = integrate_rk4(lambda x: np.zeros(2), np.array([1.0, -2.0]),
                             1.0, 0.1)
        assert np.all(traj.states == [1.0, -2.0])

    def test_order_four_convergence(self):
        rhs = lambda x: models.rhs_classical(P321, x)
        ref = integrate_rk4(rhs, X111, 2.0, 1e-4).final_state
        errs = [np.max(np.abs(integrate_rk4(rhs, X111, 2.0, h).final_state
                              - ref)) for h in (4e-2, 2e-2)]
        ratio = errs[0] / errs[1]
        assert 10 < ratio < 24

    def test_divergence_error(self):
        with pytest.raises(DivergenceError) as info:
            integrate_rk4(lambda x: [v * v for v in x], np.array([3.0]), 10.0,
                          0.01)
        assert info.value.t_last is not None

    def test_partial_step_rejected(self):
        # 1.5 steps used to run silently on to t = 0.02
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate_rk4(lambda x: -x, np.array([1.0]), 0.015, 0.01)

    def test_revised_casimir_monotone(self):
        traj = integrate_rk4(lambda x: models.rhs_revised(P321, x), X111,
                             20.0, 1e-3, diagnostics=rigid_diag(P321))
        c = traj.diagnostics["c"]
        assert np.max(np.diff(c)) <= 1e-12
        h = traj.diagnostics["h"]
        assert np.max(np.abs(h - h[0])) / h[0] < 1e-8

    def test_diagnostics_recomputed_from_states(self):
        traj = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                             0.5, 1e-2, diagnostics=rigid_diag(P321))
        for k in (0, 17, 50):
            assert traj.diagnostics["h"][k] == models.hamiltonian(
                P321, traj.states[k])
            assert traj.diagnostics["c"][k] == models.casimir(traj.states[k])


EP = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
X_EP = np.array([0.4, 0.3, -0.2])


def _ep_pair(x, xd):
    return models.rhs_ep_delayed(EP, x, xd)


#: one short run of every integrator (the delay-free ones take xd = x)
DIAG_RUNS = {
    "rk4": lambda d: integrate_rk4(lambda x: _ep_pair(x, x), X_EP, 1.0, 0.01,
                                   diagnostics=d),
    "chain-1": lambda d: integrate_chain(
        _ep_pair, kernels.ChainSpec(1, 2.0), HistorySpec.constant(X_EP), 1.0,
        0.01, diagnostics=d),
    "chain-2": lambda d: integrate_chain(
        _ep_pair, kernels.ChainSpec(2, 2.0), HistorySpec.constant(X_EP), 1.0,
        0.01, diagnostics=d),
    "dde": lambda d: integrate_dde(
        _ep_pair, kernels.DiracKernel(0.1), HistorySpec.constant(X_EP), 1.0,
        0.01, diagnostics=d),
    "frac-abm": lambda d: integrate_frac_abm(
        lambda x: _ep_pair(x, x), FracConfig(order=0.82, h=0.01), X_EP, 1.0,
        diagnostics=d),
    "frac-dde": lambda d: integrate_frac_dde(
        _ep_pair, FracConfig(order=0.82, h=0.01), kernels.DiracKernel(0.1),
        HistorySpec.constant(X_EP), 1.0, diagnostics=d),
}


def _per_row(family, core):
    """Reference diagnostics, evaluated one state at a time."""
    if family == "rigid":
        a1, a2, a3 = P321.a1, P321.a2, P321.a3
        return {"h": [0.5 * (a1 * x[0] * x[0] + a2 * x[1] * x[1]
                             + a3 * x[2] * x[2]) for x in core],
                "c": [0.5 * (x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
                      for x in core]}
    inertia = np.array([EP.I1, EP.I2, EP.I3])
    return {"h": [0.5 * float(np.dot(inertia * x, x)) for x in core],
            "c": [0.5 * float(np.dot(inertia * x, inertia * x))
                  for x in core]}


class TestWholeTableDiagnostics:
    FAMILIES = {"rigid": lambda: cli._rigid_diagnostics(P321),
                "inertia": lambda: cli._inertia_diagnostics(EP)}

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("run", DIAG_RUNS)
    def test_bitwise_per_row_formulas(self, run, family):
        traj = DIAG_RUNS[run](self.FAMILIES[family]())
        if run.startswith("chain"):
            assert traj.core_dim == 3 < traj.states.shape[1]
        expected = _per_row(family, traj.states[:, :traj.core_dim])
        for name in ("h", "c"):
            assert traj.diagnostics[name].shape == (traj.n_samples,)
            assert np.array_equal(traj.diagnostics[name], expected[name])

    @pytest.mark.parametrize("run", DIAG_RUNS)
    def test_each_diagnostic_called_once(self, run):
        calls = {}

        def counted(name, fn):
            def wrapper(x):
                calls[name] = calls.get(name, 0) + 1
                return fn(x)
            return wrapper

        diags = {**cli._rigid_diagnostics(P321),
                 "I": cli._inertia_diagnostics(EP)["h"]}
        DIAG_RUNS[run]({name: counted(name, fn)
                        for name, fn in diags.items()})
        assert calls == {"h": 1, "c": 1, "I": 1}

    def test_row_only_diagnostic_rejected(self):
        # a sum over the whole table gives one scalar, not one per sample
        with pytest.raises(ValueError, match="'norm2'.*shape \\(\\)"):
            integrate_rk4(lambda x: [-v for v in x], X111, 0.1, 0.01,
                          diagnostics={"norm2": lambda x: np.sum(x * x)})


class TestDenseEval:
    def _cubic_traj(self, h=0.25):
        coef = np.array([[0.3, -1.2, 2.0], [1.0, 0.5, -0.7],
                         [-0.4, 0.9, 0.1], [0.2, -0.3, 0.8]])

        def poly(t):
            return coef[0] + coef[1] * t + coef[2] * t * t + coef[3] * t**3

        def dpoly(t):
            return coef[1] + 2 * coef[2] * t + 3 * coef[3] * t * t

        ts = np.arange(0, 2 + h / 2, h)
        traj = Trajectory(0.0, h, np.array([poly(t) for t in ts]),
                          np.array([dpoly(t) for t in ts]))
        return traj, poly

    def test_nodes_exact(self):
        traj, poly = self._cubic_traj()
        for k in (0, 3, 8):
            t = traj.times[k]
            assert np.array_equal(traj.eval(t), traj.states[k])

    def test_cubic_reproduced(self):
        traj, poly = self._cubic_traj()
        for t in np.linspace(0.01, 1.99, 37):
            assert np.max(np.abs(traj.eval(t) - poly(t))) < 1e-13

    def test_linear_interpolation(self):
        traj = Trajectory(0.0, 1.0, np.array([[0.0], [2.0]]),
                          np.array([[2.0], [2.0]]))
        assert traj.eval(0.25)[0] == pytest.approx(0.5)

    def test_out_of_range(self):
        traj, _ = self._cubic_traj()
        with pytest.raises(ValueError):
            traj.eval(2.5)
        with pytest.raises(ValueError):
            traj.eval(-0.1)

    def test_out_of_range_is_coverage_error(self):
        traj, _ = self._cubic_traj()
        for t in (2.5, -0.1):
            with pytest.raises(HistoryCoverageError):
                traj.eval(t)


class TestHistorySpec:
    def test_constant(self):
        phi = HistorySpec.constant([1.0, 2.0])
        assert np.array_equal(phi(-3.0), [1.0, 2.0])
        assert phi.is_constant

    def test_callable(self):
        phi = _history_from_callable(lambda s: np.array([s, -s]))
        assert np.array_equal(phi(-2.0), [-2.0, 2.0])
        assert phi.dim == 2

    def test_trajectory_segment_coverage(self):
        seg = integrate_rk4(lambda x: [-v for v in x], np.array([1.0]), 1.0,
                            0.1)
        phi = _history_from_trajectory(seg)
        assert phi(0.5)[0] == pytest.approx(math.exp(-0.5), abs=1e-6)
        with pytest.raises(HistoryCoverageError):
            phi(-0.5)


class TestDde:
    def test_dirac_zero_reduces_to_classical(self):
        ode = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                            5.0, 1e-3)
        dde = integrate_dde(lambda x, xd: models.rhs_delayed(P321, x, xd),
                            kernels.DiracKernel(0.0),
                            HistorySpec.constant(X111), 5.0, 1e-3)
        assert np.max(np.abs(ode.states - dde.states)) < 1e-10

    def test_dirac_zero_bitwise_equals_rk4(self):
        ode = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                            2.0, 1e-2)
        dde = integrate_dde(lambda x, xd: models.rhs_delayed(P321, x, xd),
                            kernels.DiracKernel(0.0),
                            HistorySpec.constant(X111), 2.0, 1e-2)
        assert np.array_equal(dde.states, ode.states)
        assert np.array_equal(dde.derivs, ode.derivs)

    def test_equilibrium_history_constant(self):
        eq = np.array([2.0, 0.0, 0.0])
        traj = integrate_dde(lambda x, xd: models.rhs_delayed(P321, x, xd),
                             kernels.DiracKernel(0.5),
                             HistorySpec.constant(eq), 3.0, 1e-2)
        assert np.max(np.abs(traj.states - eq)) == 0.0

    def test_ep_decay_below_critical_delay(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
        omega1 = np.array([s.m / s.I1, 0.0, 0.0])
        phi0 = omega1 + np.array([0.0, 0.01, 0.01])
        traj = integrate_dde(lambda x, xd: models.rhs_ep_delayed(s, x, xd),
                             kernels.DiracKernel(0.1),
                             HistorySpec.constant(phi0), 40.0, 0.01)
        # |I omega| is conserved exactly, so the flow settles on the axis
        # equilibrium with the perturbed magnitude, not omega1 itself
        inertia = np.array([s.I1, s.I2, s.I3])
        m_prime = float(np.linalg.norm(inertia * phi0))
        omega_star = np.array([m_prime / s.I1, 0.0, 0.0])
        devs = [np.linalg.norm(traj.eval(t) - omega_star)
                for t in (5.0, 20.0, 40.0)]
        assert devs[0] > devs[1] > devs[2]
        assert np.linalg.norm(traj.final_state - omega1) < \
            0.05 * np.linalg.norm(phi0 - omega1)

    def test_uniform_kernel_runs(self):
        traj = integrate_dde(lambda x, xd: models.rhs_delayed(P321, x, xd),
                             kernels.UniformKernel(0.0, 0.5),
                             HistorySpec.constant(0.3 * X111), 2.0, 0.01)
        assert traj.n_samples == 201
        assert np.all(np.isfinite(traj.states))


class TestChain:
    def test_exponential_matches_quadrature(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        phi = HistorySpec.constant(0.3 * X111)
        kern = kernels.ExponentialKernel(2.0)
        chain = integrate_chain(pair, kernels.chain_reduce(kern), phi, 5.0,
                                5e-3)
        quad = integrate_dde(pair, kern, phi, 5.0, 5e-3)
        assert np.max(np.abs(chain.states[:, :3] - quad.states)) < 1e-6

    def test_constant_equilibrium_stages(self):
        eq = np.array([0.7, 0.0, 0.0])
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        traj = integrate_chain(pair, kernels.ChainSpec(2, 1.5),
                               HistorySpec.constant(eq), 2.0, 0.01)
        assert np.max(np.abs(traj.states - np.tile(eq, 3))) == 0.0
        assert traj.core_dim == 3

    def test_large_rate_approaches_no_delay(self):
        x0 = 0.3 * X111
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        fast = integrate_chain(pair, kernels.ChainSpec(1, 1000.0),
                               HistorySpec.constant(x0), 5.0, 1e-3)
        ode = integrate_rk4(lambda x: models.rhs_classical(P321, x), x0, 5.0,
                            1e-3)
        assert np.max(np.abs(fast.states[-1, :3] - ode.final_state)) < 5e-3

    def test_nonconstant_history_stage_init(self):
        # stage values start at the kernel-weighted average of phi
        rate = 2.0
        phi = _history_from_callable(lambda s: np.array([math.exp(0.5 * s)]))
        pair = lambda x, xd: -np.asarray(xd)
        traj = integrate_chain(pair, kernels.ChainSpec(1, rate), phi, 0.5,
                               0.01, quad_step=0.002)
        expected = kernels.laplace(kernels.ExponentialKernel(rate), 0.5).real
        assert traj.states[0, 1] == pytest.approx(expected, abs=1e-7)


class TestFracAbm:
    def test_mittag_leffler_oracle(self):
        cfg = FracConfig(order=0.5, h=1e-3)
        traj = integrate_frac_abm(lambda x: [-v for v in x], cfg, [1.0],
                                  1.0)
        assert abs(traj.final_state[0] - mittag_leffler(0.5, -1.0)) < 2e-3
        assert traj.final_state[0] == pytest.approx(0.4275836, abs=2e-3)

    def test_classical_limit_matches_rk4(self):
        cfg = FracConfig(order=1.0, h=1e-3)
        frac = integrate_frac_abm(lambda x: models.rhs_classical(P321, x),
                                  cfg, X111, 10.0)
        rk = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                           10.0, 1e-3)
        assert np.max(np.abs(frac.states - rk.states)) < 1e-4

    def test_constant_at_equilibrium(self):
        cfg = FracConfig(order=0.7, h=0.01)
        eq = np.array([0.0, 2.0, 0.0])
        traj = integrate_frac_abm(lambda x: models.rhs_classical(P321, x),
                                  cfg, eq, 1.0)
        assert np.max(np.abs(traj.states - eq)) == 0.0

    def test_convergence_order(self):
        order = 0.5
        exact = mittag_leffler(order, -1.0)
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            cfg = FracConfig(order=order, h=h)
            traj = integrate_frac_abm(lambda x: [-v for v in x], cfg, [1.0],
                                      1.0)
            errs.append(abs(traj.final_state[0] - exact))
        slope = math.log2(errs[0] / errs[2]) / 2.0
        assert abs(slope - (1 + order)) < 0.3

    def test_memory_truncation_reports_bound(self):
        full = integrate_frac_abm(lambda x: [-v for v in x],
                                  FracConfig(order=0.6, h=5e-3), [1.0], 3.0)
        cut = integrate_frac_abm(
            lambda x: [-v for v in x],
            FracConfig(order=0.6, h=5e-3, memory_window=300), [1.0], 3.0)
        assert "memory_truncation_bound" in cut.meta
        drift = np.max(np.abs(full.states - cut.states))
        assert 0 < drift < 10 * cut.meta["memory_truncation_bound"]

    def test_corrector_iterations_config(self):
        with pytest.raises(ValueError):
            FracConfig(order=0.5, h=0.01, corrector_iters=6)
        with pytest.raises(ValueError):
            FracConfig(order=1.5, h=0.01)
        with pytest.raises(ValueError):
            FracConfig(order=0.5, h=0.01, memory_window=10)


class TestFracDde:
    def test_dirac_zero_reduces_to_abm(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.82, h=0.01)
        dde = integrate_frac_dde(pair, cfg, kernels.DiracKernel(0.0),
                                 HistorySpec.constant(X111), 2.0)
        abm = integrate_frac_abm(lambda x: pair(x, x), cfg, X111, 2.0)
        assert np.max(np.abs(dde.states - abm.states)) < 1e-10

    def test_dirac_zero_bitwise_equals_abm(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.7, h=0.01, corrector_iters=2)
        dde = integrate_frac_dde(pair, cfg, kernels.DiracKernel(0.0),
                                 HistorySpec.constant(X111), 1.0)
        abm = integrate_frac_abm(lambda x: pair(x, x), cfg, X111, 1.0)
        assert np.array_equal(dde.states, abm.states)
        assert np.array_equal(dde.derivs, abm.derivs)

    def test_scalar_benchmark_decay(self):
        cfg = FracConfig(order=0.7, h=0.01)
        traj = integrate_frac_dde(lambda x, xd: [-v for v in xd], cfg,
                                  kernels.DiracKernel(0.5),
                                  HistorySpec.constant([1.0]), 20.0)
        samples = [abs(traj.eval(float(t))[0]) for t in range(10, 21)]
        assert all(a > b for a, b in zip(samples, samples[1:]))

    def test_equilibrium_history_constant(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.6, h=0.01)
        eq = np.array([0.0, 0.0, 1.3])
        traj = integrate_frac_dde(pair, cfg, kernels.DiracKernel(0.4),
                                  HistorySpec.constant(eq), 2.0)
        assert np.max(np.abs(traj.states - eq)) == 0.0

    def test_distributed_kernel_runs(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.8, h=0.02)
        traj = integrate_frac_dde(pair, cfg, kernels.ExponentialKernel(2.0),
                                  HistorySpec.constant(0.3 * X111), 2.0)
        assert np.all(np.isfinite(traj.states))


def _direct_frac_loop(cfg, x0, n, eval_g):
    """Reference PECE loop: every memory sum taken directly, O(n^2)."""
    h, alpha, window = cfg.h, cfg.order, cfg.memory_window
    k = np.arange(n + 1, dtype=float)
    pow_a, pow_a1 = k**alpha, k ** (alpha + 1)
    beta = np.diff(pow_a)
    c = pow_a1[2:] + pow_a1[:-2] - 2.0 * pow_a1[1:-1]
    a0 = pow_a1[:-1] - (k[:-1] - alpha) * pow_a[1:]
    pred_scale = h**alpha / math.gamma(alpha + 1.0)
    corr_scale = h**alpha / math.gamma(alpha + 2.0)
    states = np.empty((n + 1, x0.size))
    gs = np.empty((n + 1, x0.size))
    states[0] = x0
    gs[0] = eval_g(0, x0)
    trunc_bound = 0.0
    max_g_norm = float(np.linalg.norm(gs[0]))
    for step in range(n):
        j0 = 0 if window is None else max(0, step + 1 - window)
        xc = x0 + pred_scale * (beta[: step + 1 - j0][::-1] @ gs[j0: step + 1])
        hist = a0[step] * gs[0] if j0 == 0 else np.zeros(x0.size)
        jc = max(j0, 1)
        if step >= jc:
            hist = hist + c[: step - jc + 1][::-1] @ gs[jc: step + 1]
        for _ in range(cfg.corrector_iters):
            xc = x0 + corr_scale * (eval_g(step + 1, xc) + hist)
        states[step + 1] = xc
        gs[step + 1] = eval_g(step + 1, xc)
        max_g_norm = max(max_g_norm, float(np.linalg.norm(gs[step + 1])))
        if j0 > 0:
            dropped = pred_scale * (pow_a[step + 1] - pow_a[step + 1 - j0])
            trunc_bound = max(trunc_bound, dropped * max_g_norm)
    meta = {} if window is None else {"memory_truncation_bound": trunc_bound}
    return states, np.gradient(states, h, axis=0), meta


def _assert_close_to_direct(run, monkeypatch):
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(integrators, "_frac_loop", _direct_frac_loop)
        ref = run()
    scale = np.max(np.abs(ref.states))
    assert np.max(np.abs(fast.states - ref.states)) <= 1e-12 * scale
    if "memory_truncation_bound" in ref.meta:
        assert fast.meta["memory_truncation_bound"] == pytest.approx(
            ref.meta["memory_truncation_bound"], rel=1e-12, abs=0.0)


class TestFracMemorySums:
    """The blocked-FFT memory sums against the direct O(n^2) sums."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 4097])
    @pytest.mark.parametrize("window", [None, 20, 5000])
    @pytest.mark.parametrize("dim, iters", [(3, 1), (1, 3)])
    def test_abm_matches_direct(self, n, window, dim, iters, monkeypatch):
        cfg = FracConfig(order=0.82, h=0.05, corrector_iters=iters,
                         memory_window=window)
        if dim == 3:
            rhs = lambda x: models.rhs_classical(P321, x)
            x0 = np.array([1.0, 0.5, 0.2])
        else:
            rhs = lambda x: [0.3 * math.cos(3.0 * v) - 0.5 * v for v in x]
            x0 = np.array([1.0])
        _assert_close_to_direct(
            lambda: integrate_frac_abm(rhs, cfg, x0, n * cfg.h), monkeypatch)

    @pytest.mark.parametrize("kernel, n, window", [
        (kernels.DiracKernel(0.5), 1000, None),
        (kernels.UniformKernel(0.1, 0.4), 150, 120)])
    def test_dde_matches_direct(self, kernel, n, window, monkeypatch):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.7, h=0.01, memory_window=window)
        phi = HistorySpec.constant([0.3, 0.3, 0.3])
        _assert_close_to_direct(
            lambda: integrate_frac_dde(pair, cfg, kernel, phi, n * cfg.h),
            monkeypatch)

    @pytest.mark.parametrize("name", ["frac_order_082.cfg",
                                      "frac_order_1.cfg"])
    def test_bundled_configs_match_direct(self, name, monkeypatch):
        text = (REPO / "configs" / name).read_text()
        _assert_close_to_direct(
            lambda: cli._run_simulation(cli.parse_config(text)), monkeypatch)

    def test_no_reference_cycles(self):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.8, h=0.01, memory_window=100)
        gc.collect()
        gc.disable()
        try:
            integrate_frac_abm(lambda x: pair(x, x), cfg, X111, 3.0)
            integrate_frac_dde(pair, cfg, kernels.DiracKernel(0.3),
                               HistorySpec.constant(X111), 3.0)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _simpson_average(kernel, history, t, quad_step):
    """Reference Simpson kernel average, its rule rebuilt on every call."""
    lo, hi = kernels.effective_support(kernel)
    n = max(2, int(math.ceil((hi - lo) / quad_step)))
    n += n % 2
    s = np.linspace(lo, hi, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (hi - lo) / n / 3.0
    return (weights * kernels.density(kernel, s)) @ history.eval_many(t - s)


def _per_stage_delayed(kernel, grid, quad_step, times, final):
    """Reference delayed argument: every lookup evaluated on its own."""
    if isinstance(kernel, kernels.DiracKernel):
        if kernel.lag == 0.0:
            return lambda i, x: x
        return lambda i, x: grid.eval_many(
            np.array([times[i] - kernel.lag]))[0]
    if quad_step is None:
        lo, hi = kernels.effective_support(kernel)
        quad_step = min(grid.h, (hi - lo) / 16.0)
    return lambda i, x: _simpson_average(kernel, grid, times[i], quad_step)


def _rigid_pair(x, xd):
    return models.rhs_delayed(P321, x, xd)


def _run_both(run, monkeypatch, pair=_rigid_pair):
    """(result or raised error, rhs calls) of ``run(pair)`` with batched
    and with per-stage lookups."""
    out = []
    for patch in (False, True):
        calls = []

        def counted(x, xd):
            calls.append(1)
            return pair(x, xd)

        with monkeypatch.context() as m:
            if patch:
                m.setattr(integrators, "_delayed_argument",
                          _per_stage_delayed)
            try:
                result = run(counted)
            except (DivergenceError, HistoryCoverageError) as exc:
                result = exc
        out.append((result, len(calls)))
    return out


def _assert_bitwise(run, monkeypatch):
    (fast, fast_calls), (ref, ref_calls) = _run_both(run, monkeypatch)
    # tobytes also tells signed zeros apart
    assert fast.states.tobytes() == ref.states.tobytes()
    assert fast.derivs.tobytes() == ref.derivs.tobytes()
    assert fast_calls == ref_calls


H = 0.01
SEGMENT = integrate_rk4(lambda x: np.array([-x[1], x[0], -0.5 * x[2]]),
                        np.array([0.3, 0.1, 0.4]), 3.0, 0.05)
PHIS = {
    "constant": HistorySpec.constant([0.3, 0.4, 0.2]),
    "callable": _history_from_callable(lambda s: np.array(
        [0.3 + 0.1 * math.sin(3 * s), 0.4 * math.cos(s), 0.2 - 0.05 * s])),
    "trajectory": _history_from_trajectory(
        Trajectory(-3.0, SEGMENT.h, SEGMENT.states, SEGMENT.derivs)),
}


class TestBatchedLookups:
    """Batched delayed lookups against per-stage lookups, bit for bit."""

    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.3 * H), kernels.DiracKernel(H),
        kernels.DiracKernel(1.5 * H), kernels.DiracKernel(50 * H),
        kernels.DiracKernel(50.5 * H), kernels.UniformKernel(0.0, 0.37),
        kernels.UniformKernel(0.5 * H, 0.37), kernels.UniformKernel(H, 0.37),
        kernels.UniformKernel(50 * H, 0.37),
        kernels.UniformKernel(50 * H, 1.5)], ids=repr)
    def test_dde(self, kernel, phi, monkeypatch):
        # 137 steps: no whole number of 50-step blocks.  With 151 Simpson
        # nodes a batch holds 4096 // 151 = 27 lookups, so the batch from
        # lookup 81 holds 21 lookups wholly in phi's past and 6 others.
        _assert_bitwise(lambda pair: integrate_dde(
            pair, kernel, PHIS[phi], 1.37, H), monkeypatch)

    def test_dde_exponential_kernel(self, monkeypatch):
        _assert_bitwise(lambda pair: integrate_dde(
            pair, kernels.ExponentialKernel(4.0), PHIS["constant"], 0.5, H),
            monkeypatch)

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(1.5 * H), kernels.DiracKernel(2 * H),
        kernels.DiracKernel(2.5 * H), kernels.DiracKernel(30.5 * H),
        kernels.UniformKernel(5 * H, 0.2)], ids=repr)
    def test_frac_dde(self, kernel, iters, monkeypatch):
        cfg = FracConfig(order=0.8, h=H, corrector_iters=iters)
        _assert_bitwise(lambda pair: integrate_frac_dde(
            pair, cfg, kernel, PHIS["callable"], 1.37), monkeypatch)

    @pytest.mark.parametrize("kernel", [
        kernels.UniformKernel(0.1, 0.37), kernels.ExponentialKernel(12.0),
        kernels.ErlangKernel(15.0)], ids=repr)
    def test_convolve_history_unchanged(self, kernel):
        for phi in PHIS.values():
            for t in (-0.3, 0.0):
                assert kernels.convolve_history(
                    kernel, phi, t, 0.013).tobytes() == _simpson_average(
                    kernel, phi, t, 0.013).tobytes()

    def test_rk4_lookup_times(self):
        # stage times k*h + h/2 and k*h + h in plain float arithmetic
        expect = [0.0]
        for k in range(4):
            expect += [k * H + 0.5 * H, k * H + H]
        times, final = integrators._rk4_lookups(4, H)
        assert times.tolist() == expect
        assert final.tolist() == [-1, 0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("kernel", [kernels.DiracKernel(0.5),
                                        kernels.UniformKernel(0.1, 0.3)],
                             ids=repr)
    @pytest.mark.parametrize("frac", [False, True])
    def test_history_coverage_error(self, kernel, frac, monkeypatch):
        # the segment covers [-0.2, 0], the kernels reach back to 0.4
        phi = _history_from_trajectory(Trajectory(
            -0.2, SEGMENT.h, SEGMENT.states[:5], SEGMENT.derivs[:5]))
        cfg = FracConfig(order=0.8, h=H)
        (fast, fast_calls), (ref, ref_calls) = _run_both(
            lambda pair: integrate_frac_dde(pair, cfg, kernel, phi, 1.0)
            if frac else integrate_dde(pair, kernel, phi, 1.0, H),
            monkeypatch)
        assert isinstance(fast, HistoryCoverageError)
        assert str(fast) == str(ref)
        assert fast_calls == ref_calls

    @pytest.mark.parametrize("frac", [False, True])
    def test_divergence_error(self, frac, monkeypatch):
        # x' = 20 x(t - 5h) grows by about e^12.6 per unit time
        kernel, phi = kernels.DiracKernel(5 * H), HistorySpec.constant([1.0])
        cfg = FracConfig(order=0.9, h=H)
        (fast, fast_calls), (ref, ref_calls) = _run_both(
            lambda pair: integrate_frac_dde(pair, cfg, kernel, phi, 5.0)
            if frac else integrate_dde(pair, kernel, phi, 5.0, H),
            monkeypatch, lambda x, xd: [20.0 * v for v in xd])
        assert isinstance(fast, DivergenceError)
        assert fast.t_last == ref.t_last > 0.5
        assert str(fast) == str(ref)
        assert fast_calls == ref_calls

    def test_lookahead_memory_bounded(self):
        # unbounded, the 200 steps' lookups would read 400k history points
        # at once; the lookahead evaluates at most _LOOKAHEAD_POINTS
        seg = Trajectory(-52.0, 0.5, np.ones((105, 3)), np.zeros((105, 3)))
        phi = _history_from_trajectory(seg)
        kernel = kernels.UniformKernel(50.0, 1.0)
        tracemalloc.start()
        try:
            traj = integrate_dde(_rigid_pair, kernel, phi, 0.2, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.n_samples == 201
        assert peak < 20e6


class TestTrajectoryCsv:
    def test_header_and_roundtrip(self, tmp_path):
        traj = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111,
                             0.1, 0.05, diagnostics=rigid_diag(P321))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,h,c"
        assert len(lines) == traj.n_samples + 1
        first = lines[1].split(",")
        assert float(first[1]) == traj.states[0, 0]

    def test_chain_columns(self, tmp_path):
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        traj = integrate_chain(pair, kernels.ChainSpec(2, 1.0),
                               HistorySpec.constant(0.3 * X111), 0.1, 0.05,
                               diagnostics=rigid_diag(P321))
        path = tmp_path / "chain.csv"
        write_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,x1,x2,x3,h,c,eta1_1,eta1_2,eta1_3,"
                          "eta2_1,eta2_2,eta2_3")

    def test_rows_match_per_value_format(self, tmp_path):
        rng = np.random.default_rng(7)
        states = rng.standard_normal((5000, 4)) * 10.0 ** rng.integers(
            -300, 300, (5000, 4))
        states[0] = [-0.0, 5e-324, 1.2e17, np.inf]
        states[1] = [np.nan, -np.inf, 0.1, 1e16]
        traj = Trajectory(0.0, 1e-3, states, states,
                          {"h": rng.standard_normal(5000)}, core_dim=3)
        out = tmp_path / "rows.csv"
        write_trajectory_csv(traj, out)
        lines = ["t,x1,x2,x3,h,aux1"]
        for i in range(traj.n_samples):
            row = [traj.times[i], *states[i, :3], traj.diagnostics["h"][i],
                   states[i, 3]]
            lines.append(",".join(format(v, ".17g") for v in row))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _array_check_state(x, t):
    """The divergence check in its earlier array form."""
    if not math.sqrt(float(x @ x)) <= integrators.DIVERGENCE_NORM:
        raise DivergenceError(
            f"state diverged; last valid time t = {t:.6g}", t_last=t)


def _array_rk4_steps(field, grid, n, h):
    """The RK4 steps in their earlier array form: every state and stage an
    ndarray, node 0 and its slope already written."""
    half = 0.5 * h
    sixth = h / 6.0
    put, states, derivs = grid.put, grid.states, grid.derivs
    for k in range(n):
        x = states[k]
        k1 = derivs[k]
        k2 = field(2 * k + 1, x + half * k1)
        k3 = field(2 * k + 1, x + half * k2)
        k4 = field(2 * k + 2, x + h * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        _array_check_state(x, k * h)
        put(k + 1, x, k4)
        derivs[k + 1] = field(2 * k + 2, x)


def _array_rk4_loop(field, grid, x0, n, h):
    """:func:`integrators._rk4_loop`'s signature over the array form; the
    field gets ndarray states and its slopes are made arrays."""
    def as_array(i, x):
        return np.asarray(field(i, x), dtype=float)

    x0 = np.array(x0, dtype=float)
    grid.put(0, x0, as_array(0, x0))
    _array_rk4_steps(as_array, grid, n, h)


#: one run of every RK4-family path the float loop serves
FLOAT_LOOP_RUNS = {
    "classical": lambda: integrate_rk4(
        lambda x: models.rhs_classical(P321, x), X111, 3.0, 1e-2),
    "revised": lambda: integrate_rk4(
        lambda x: models.rhs_revised(P321, x), X111, 3.0, 1e-2),
    "chain-exponential": lambda: integrate_chain(
        _rigid_pair, kernels.chain_reduce(kernels.ExponentialKernel(2.0)),
        PHIS["callable"], 2.0, H),
    "chain-erlang": lambda: integrate_chain(
        _rigid_pair, kernels.chain_reduce(kernels.ErlangKernel(3.0)),
        PHIS["callable"], 2.0, H),
    "dirac-long": lambda: integrate_dde(
        _rigid_pair, kernels.DiracKernel(50.5 * H), PHIS["callable"], 1.37, H),
    "dirac-short": lambda: integrate_dde(
        _rigid_pair, kernels.DiracKernel(0.3 * H), PHIS["callable"], 1.37, H),
    "dirac-zero": lambda: integrate_dde(
        _rigid_pair, kernels.DiracKernel(0.0), PHIS["constant"], 1.37, H),
    "uniform-offset-0": lambda: integrate_dde(
        _rigid_pair, kernels.UniformKernel(0.0, 0.37), PHIS["callable"],
        1.37, H),
    "ep-delayed": lambda: integrate_dde(
        _ep_pair, kernels.DiracKernel(0.1), HistorySpec.constant(X_EP), 2.0,
        H),
}


#: one run of every fractional path and of both delayed lookups
FRAC_RUNS = {
    "abm": lambda: integrate_frac_abm(
        lambda x: models.rhs_classical(P321, x), FracConfig(order=0.82, h=H),
        X111, 1.37),
    "abm-window": lambda: integrate_frac_abm(
        lambda x: models.rhs_classical(P321, x),
        FracConfig(order=0.82, h=0.05, corrector_iters=3, memory_window=20),
        X111, 5.0),
    "frac-dde-dirac": lambda: integrate_frac_dde(
        _rigid_pair, FracConfig(order=0.8, h=H), kernels.DiracKernel(30.5 * H),
        PHIS["callable"], 1.37),
    "frac-dde-zero": lambda: integrate_frac_dde(
        _rigid_pair, FracConfig(order=0.8, h=H), kernels.DiracKernel(0.0),
        PHIS["callable"], 1.37),
    "frac-dde-uniform": lambda: integrate_frac_dde(
        _rigid_pair, FracConfig(order=0.8, h=H), kernels.UniformKernel(
            5 * H, 0.2), PHIS["callable"], 1.37),
    "dde-uniform": lambda: integrate_dde(
        _rigid_pair, kernels.UniformKernel(50 * H, 0.37), PHIS["callable"],
        1.37, H),
}


class TestFloatLoop:
    """The float RK4 loop against its earlier array form."""

    @pytest.mark.parametrize("run", FLOAT_LOOP_RUNS)
    def test_bitwise_equals_array_form(self, run, monkeypatch):
        fast = FLOAT_LOOP_RUNS[run]()
        with monkeypatch.context() as m:
            m.setattr(integrators, "_rk4_loop", _array_rk4_loop)
            ref = FLOAT_LOOP_RUNS[run]()
        assert np.array_equal(fast.states, ref.states)
        assert np.array_equal(fast.derivs, ref.derivs)

    @pytest.mark.parametrize("run", ["classical", "chain-erlang",
                                     "dirac-long", "dirac-zero", *FRAC_RUNS])
    def test_fields_get_float_lists(self, run, monkeypatch):
        # node 0's call included; x and xd alike, with no numpy float64
        seen = []

        def spying(field):
            def spy(p, x, *xd):
                seen.extend([x, *xd])
                return field(p, x, *xd)
            return spy

        for name in ("rhs_classical", "rhs_delayed"):
            monkeypatch.setattr(models, name, spying(getattr(models, name)))
        {**FLOAT_LOOP_RUNS, **FRAC_RUNS}[run]()
        assert seen
        assert all(type(x) is list and all(type(v) is float for v in x)
                   for x in seen)


def _array_frac_loop(cfg, x0, n, eval_g):
    """:func:`integrators._frac_loop` in its earlier array form: every
    state, right-hand side and lag sum an ndarray."""
    def as_array(k, x):
        return np.asarray(eval_g(k, x), dtype=float)

    h = cfg.h
    alpha = cfg.order
    block = integrators._MEMORY_BLOCK
    pow_a, beta, c, a0 = integrators._abm_weights(alpha, max(n, block))
    pred_scale = h**alpha / math.gamma(alpha + 1.0)
    corr_scale = h**alpha / math.gamma(alpha + 2.0)
    window = cfg.memory_window
    lag_w = np.stack([beta, c], axis=1)
    g0_weight = a0[:n] - c[:n]
    if window is not None:
        lag_w[window:] = 0.0
        g0_weight[window:] = 0.0
    near_w = lag_w[block - 1:: -1].T.copy()
    spectra = {}
    width = block
    while width < n:
        spectra[width] = np.fft.rfft(lag_w[: 2 * width], 2 * width, axis=0)
        width *= 2
    dim = x0.size
    states = np.empty((n + 1, dim))
    gs = np.empty((n + 1, dim))
    states[0] = x0
    g = gs[0] = as_array(0, x0)
    far = np.zeros((n, 2, dim))
    far[:, 1] = g0_weight[:, None] * g
    trunc_bound = 0.0
    max_g_norm = math.sqrt(float(g @ g))
    for step in range(n):
        r = step % block
        if r == 0 and step:
            integrators._add_square(far, gs, spectra, step)
        sums = far[step] + near_w[:, block - 1 - r:] @ gs[step - r: step + 1]
        xc = x0 + pred_scale * sums[0]
        hist = sums[1]
        for _ in range(cfg.corrector_iters):
            xc = x0 + corr_scale * (as_array(step + 1, xc) + hist)
        integrators._check_state(xc.tolist(), step * h)
        states[step + 1] = xc
        g = gs[step + 1] = as_array(step + 1, xc)
        if window is not None:
            max_g_norm = max(max_g_norm, math.sqrt(float(g @ g)))
            if step + 1 > window:
                dropped_mass = pred_scale * (pow_a[step + 1] - pow_a[window])
                trunc_bound = max(trunc_bound, dropped_mass * max_g_norm)
    derivs = np.gradient(states, h, axis=0)
    meta = {"order": alpha, "scheme": "abm-pece",
            "corrector_iters": cfg.corrector_iters}
    if window is not None:
        meta["memory_window"] = window
        meta["memory_truncation_bound"] = trunc_bound
    return states, derivs, meta


def _array_delayed_argument(kernel, grid, quad_step, times, final):
    """:func:`integrators._delayed_argument` in its earlier array form:
    each value a (dim,) ndarray."""
    if isinstance(kernel, kernels.DiracKernel):
        if kernel.lag == 0.0:
            return lambda i, x: x
        lags, wd = np.array([kernel.lag]), None
    else:
        if quad_step is None:
            lo, hi = kernels.effective_support(kernel)
            quad_step = min(grid.h, (hi - lo) / 16.0) if hi > lo else grid.h
        lags, wd = kernels.quadrature_rule(kernel, quad_step)
    span = max(1, integrators._LOOKAHEAD_POINTS // lags.size)
    first, block = 0, []

    def lookup(i, x):
        nonlocal first, block
        if 0 <= i - first < len(block):
            return block[i - first]
        ts = times[i: i + span]
        ready = int(np.count_nonzero(
            ts - lags[0] <= grid.t0 + max(final[i], 0) * grid.h))
        us = ts[: max(ready, 1), None] - lags
        n_past = int(np.count_nonzero(us[:, 0] <= grid.t0))
        values = []
        for part in (us[:n_past], us[n_past:]):
            if part.size:
                rows = grid.eval_many(part.ravel()).reshape(*part.shape, -1)
                values += [r[0] if wd is None else wd @ r for r in rows]
        first, block = i, values[:ready]
        return values[0]

    return lookup


def _assert_equals_array_form(run, monkeypatch, *names):
    """``run()`` with the float forms, and with the array forms of the
    integrators functions ``names``, bit for bit."""
    array_forms = {"_frac_loop": _array_frac_loop,
                   "_delayed_argument": _array_delayed_argument}
    fast = run()
    with monkeypatch.context() as m:
        for name in names:
            m.setattr(integrators, name, array_forms[name])
        ref = run()
    # tobytes also tells signed zeros apart
    assert fast.states.tobytes() == ref.states.tobytes()
    assert fast.derivs.tobytes() == ref.derivs.tobytes()
    assert fast.meta == ref.meta


#: a dim-3 and a dim-1 Caputo field and their start states
FRAC_FIELDS = {
    3: (lambda x: models.rhs_classical(P321, x), [1.0, 0.5, 0.2]),
    1: (lambda x: [0.3 * math.cos(3.0 * v) - 0.5 * v for v in x], [1.0]),
}


class TestFloatFracLoop:
    """The float ABM loop and the float delayed argument against their
    earlier array forms."""

    @pytest.mark.parametrize("window", [None, 20])
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("dim", FRAC_FIELDS)
    def test_abm_bitwise_equals_array_form(self, dim, iters, window,
                                           monkeypatch):
        # 300 steps: past the FFT squares of widths 64 and 128
        rhs, x0 = FRAC_FIELDS[dim]
        cfg = FracConfig(order=0.82, h=0.05, corrector_iters=iters,
                         memory_window=window)
        _assert_equals_array_form(
            lambda: integrate_frac_abm(rhs, cfg, x0, 300 * cfg.h),
            monkeypatch, "_frac_loop")

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.0), kernels.DiracKernel(0.3 * H),
        kernels.DiracKernel(30.5 * H), kernels.UniformKernel(5 * H, 0.2)],
        ids=repr)
    def test_frac_dde_bitwise_equals_array_form(self, kernel, iters,
                                                monkeypatch):
        cfg = FracConfig(order=0.8, h=H, corrector_iters=iters)
        _assert_equals_array_form(
            lambda: integrate_frac_dde(_rigid_pair, cfg, kernel,
                                       PHIS["callable"], 1.37),
            monkeypatch, "_frac_loop", "_delayed_argument")

    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.3 * H), kernels.DiracKernel(50.5 * H),
        kernels.UniformKernel(0.0, 0.37), kernels.UniformKernel(50 * H, 0.37)],
        ids=repr)
    def test_dde_bitwise_equals_array_xd(self, kernel, monkeypatch):
        _assert_equals_array_form(
            lambda: integrate_dde(_rigid_pair, kernel, PHIS["callable"], 1.37,
                                  H),
            monkeypatch, "_delayed_argument")

    def test_zero_lag_frac_dde_writes_no_grid(self, monkeypatch):
        puts = []
        put = integrators._RunningGrid.put

        def counted(grid, k, *args):
            puts.append(k)
            put(grid, k, *args)

        monkeypatch.setattr(integrators._RunningGrid, "put", counted)
        cfg = FracConfig(order=0.8, h=H)
        integrate_frac_dde(_rigid_pair, cfg, kernels.DiracKernel(0.0),
                           PHIS["constant"], 0.5)
        assert puts == []
        # a lagged run does read the grid, so it writes every iterate
        integrate_frac_dde(_rigid_pair, cfg, kernels.DiracKernel(H),
                           PHIS["constant"], 0.5)
        assert len(puts) == 1 + 50 * (cfg.corrector_iters + 1)


NEXT_ABOVE = math.nextafter(1e8, math.inf)


class TestDivergenceCheck:
    """The RK4 and ABM loops share one float-form divergence check."""

    # a zero field keeps the state at x0, which the first step checks
    CASES = {
        "nan": ([math.nan, 0.0, 0.0], False),
        "+inf": ([0.0, math.inf, 0.0], False),
        "-inf": ([0.0, 0.0, -math.inf], False),
        "overflow": ([1e200, 0.0, 0.0], False),
        "norm-1e8": ([6e7, 8e7, 0.0], True),
        "next-above-1e8": ([NEXT_ABOVE, 0.0, 0.0], False),
    }
    RUNS = {
        "rk4": lambda x0: integrate_rk4(lambda x: [0.0, 0.0, 0.0], x0, 0.2,
                                        0.1),
        "abm": lambda x0: integrate_frac_abm(
            lambda x: [0.0, 0.0, 0.0], FracConfig(order=0.8, h=0.1), x0,
            0.2),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("run", RUNS)
    def test_decision(self, run, case):
        x0, accepted = self.CASES[case]
        if accepted:
            traj = self.RUNS[run](x0)
            assert traj.states[-1].tolist() == x0
        else:
            with pytest.raises(DivergenceError) as info:
                self.RUNS[run](x0)
            assert info.value.t_last == 0.0
