import decimal
import functools
import gc
import inspect
import itertools
import math
import os
import stat
import struct
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rigidmem import cli, integrators, kernels, models
from rigidmem._csvformat import RowFormatter
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
        _ep_pair, kernels.GammaKernel(2.0, 1), HistorySpec.constant(X_EP), 1.0,
        0.01, diagnostics=d),
    "chain-2": lambda d: integrate_chain(
        _ep_pair, kernels.GammaKernel(2.0, 2), HistorySpec.constant(X_EP), 1.0,
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

    @pytest.mark.parametrize("kernel", [kernels.GammaKernel(4.0, 1),
                                        kernels.GammaKernel(4.0, 2)], ids=repr)
    @pytest.mark.parametrize("phi", ["constant", "callable"])
    def test_rational_kernel_is_the_chain(self, kernel, phi):
        dde = integrate_dde(_rigid_pair, kernel, PHIS[phi], 0.5, H,
                            diagnostics=rigid_diag(P321))
        chain = integrate_chain(_rigid_pair, kernel, PHIS[phi], 0.5, H,
                                diagnostics=rigid_diag(P321))
        # tobytes also tells signed zeros apart
        assert dde.states.tobytes() == chain.states.tobytes()
        assert dde.derivs.tobytes() == chain.derivs.tobytes()
        assert dde.diagnostics.keys() == chain.diagnostics.keys()
        for name, series in dde.diagnostics.items():
            assert series.tobytes() == chain.diagnostics[name].tobytes()
        assert dde.core_dim == chain.core_dim == 3
        assert dde.meta == chain.meta

    @pytest.mark.parametrize("kernel", [kernels.DiracKernel(0.5),
                                        kernels.UniformKernel(0.1, 0.4)],
                             ids=repr)
    def test_chain_takes_a_gamma_kernel_only(self, kernel):
        with pytest.raises(TypeError, match="takes a GammaKernel"):
            integrate_chain(_rigid_pair, kernel, PHIS["constant"], 0.5, H)

    def test_unknown_kernel_type_rejected(self):
        grid = integrators._RunningGrid(PHIS["constant"], 0.0, H, 4, 3)
        with pytest.raises(TypeError, match="no delayed-argument route"):
            integrators._delayed_argument(object(), grid,
                                          *integrators._rk4_lookups(4, H))


def _last_stage_gap(chain, kern, phi, stride):
    """Largest gap between the chain's last stage and the Simpson kernel
    average of its own Hermite trajectory spliced with phi, at every
    ``stride``-th node."""
    dim = chain.core_dim

    def spliced(us):
        return np.where(us[:, None] <= 0.0, phi.eval_many(np.minimum(us, 0.0)),
                        chain.eval_many(np.maximum(us, 0.0))[:, :dim])

    history = HistorySpec(spliced, dim)
    return max(float(np.max(np.abs(
        kernels.convolve_history(kern, history, chain.times[k], chain.h)
        - chain.states[k, -dim:])))
        for k in range(0, chain.n_samples, stride))


class TestChain:
    def test_exponential_matches_quadrature(self):
        # the last stage is the kernel average of the chain's own states,
        # at t = 0, 0.25, ..., 5
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        phi = HistorySpec.constant(0.3 * X111)
        kern = kernels.GammaKernel(2.0, 1)
        chain = integrate_chain(pair, kern, phi, 5.0, 5e-3)
        assert _last_stage_gap(chain, kern, phi, 50) < 1e-6

    def test_constant_equilibrium_stages(self):
        eq = np.array([0.7, 0.0, 0.0])
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        traj = integrate_chain(pair, kernels.GammaKernel(1.5, 2),
                               HistorySpec.constant(eq), 2.0, 0.01)
        assert np.max(np.abs(traj.states - np.tile(eq, 3))) == 0.0
        assert traj.core_dim == 3

    def test_large_rate_approaches_no_delay(self):
        x0 = 0.3 * X111
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        fast = integrate_chain(pair, kernels.GammaKernel(1000.0, 1),
                               HistorySpec.constant(x0), 5.0, 1e-3)
        ode = integrate_rk4(lambda x: models.rhs_classical(P321, x), x0, 5.0,
                            1e-3)
        assert np.max(np.abs(fast.states[-1, :3] - ode.final_state)) < 5e-3

    def test_nonconstant_history_stage_init(self):
        # stage values start at the kernel-weighted average of phi
        rate = 2.0
        phi = _history_from_callable(lambda s: np.array([math.exp(0.5 * s)]))
        pair = lambda x, xd: -np.asarray(xd)
        traj = integrate_chain(pair, kernels.GammaKernel(rate, 1), phi, 0.5,
                               0.01)
        expected = kernels.laplace(kernels.GammaKernel(rate, 1), 0.5).real
        assert traj.states[0, 1] == pytest.approx(expected, abs=1e-7)

    def test_stage_start_memory_bounded(self):
        # at rate 0.02 the stage kernels reach back 1400 and 1560 time
        # units: 1.5M history points each at h = 1e-3, read in pieces
        def eval_many(ss):
            ss = np.asarray(ss, dtype=float)
            return np.column_stack([0.3 + 0.1 * np.sin(3 * ss),
                                    0.4 + 0.1 * np.cos(ss),
                                    0.2 - 0.05 * np.exp(0.01 * ss)])

        phi = HistorySpec(eval_many, 3)
        stage_kernels = [kernels.GammaKernel(0.02, 1),
                         kernels.GammaKernel(0.02, 2)]
        tracemalloc.start()
        try:
            traj = integrate_chain(_rigid_pair, kernels.GammaKernel(0.02, 2),
                                   phi, 1e-3, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        for j, kern in enumerate(stage_kernels, start=1):
            s, w = kernels.simpson_rule(*kernels.effective_support(kern),
                                        1e-3)
            one_shot = (w * kernels.density(kern, s)) @ phi.eval_many(-s)
            got = traj.states[0, 3 * j: 3 * j + 3]
            assert np.all(np.abs(got - one_shot) <= 1e-12 * np.abs(one_shot))

    @pytest.mark.parametrize("rate, cause", [(300.0, True), (270.0, False)])
    def test_stiff_stages_name_the_cause(self, rate, cause):
        # ep-delayed, I = (3, 2, 1), coupling 1, m = 1, x0 = (0.4, 0.3,
        # 0.2), h = 0.01: at Erlang rate 300, h * rate = 3 lies past RK4's
        # stability interval and the run diverges at t = 0.17, named as
        # such; at rate 270 it diverges too, with h * rate = 2.7 inside
        # the interval, and names no cause
        phi = HistorySpec.constant([0.4, 0.3, 0.2])
        with pytest.raises(DivergenceError) as info:
            integrate_dde(models.ep_delayed_field(EP),
                          kernels.GammaKernel(rate, 2), phi, 5.0, 0.01)
        msg = str(info.value)
        assert msg.startswith("state diverged; last valid time t = ")
        assert (f"step * rate = {0.01 * rate:g} is above 2.785" in msg
                and "[kernel] rate" in msg and "[run] step" in msg) == cause
        if cause:
            assert info.value.t_last == 17 * 0.01

    def test_rk4_real_bound(self):
        # |R(z)| = 1 at z = -bound, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
        # and above 1 just past it
        bound = integrators._RK4_REAL_BOUND
        root = [r.real for r in np.roots([1 / 24, 1 / 6, 1 / 2, 1])
                if abs(r.imag) < 1e-12]
        assert root == [pytest.approx(-bound, rel=1e-15)]
        amp = np.polynomial.Polynomial([1, 1, 1 / 2, 1 / 6, 1 / 24])
        assert amp(-bound * (1 - 1e-9)) < 1 < amp(-bound * (1 + 1e-9))


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

    @pytest.mark.parametrize("order", [0.5, 0.82])
    def test_mittag_leffler_at_the_paper_run_length(self, order):
        # D^order y = -y to t = 30 (15k and 30k steps: the wide FFT
        # squares and the series weights of the memory sum) against
        # E_order(-t^order) at t = 1, 2, ..., 30
        ts = np.arange(1, 31)
        exact = np.array([mittag_leffler(order, -float(t) ** order)
                          for t in ts])
        errs = []
        for h in (2e-3, 1e-3):
            traj = integrate_frac_abm(lambda x: [-v for v in x],
                                      FracConfig(order=order, h=h), [1.0],
                                      30.0)
            got = traj.states[np.rint(ts / h).astype(int), 0]
            errs.append(float(np.max(np.abs(got - exact))))
        assert errs[1] <= 2e-6
        assert abs(math.log2(errs[0] / errs[1]) - (1 + order)) <= 0.25

    def test_memory_truncation_reports_bound(self):
        full = integrate_frac_abm(lambda x: [-v for v in x],
                                  FracConfig(order=0.6, h=5e-3), [1.0], 3.0)
        cut = integrate_frac_abm(
            lambda x: [-v for v in x],
            FracConfig(order=0.6, h=5e-3, memory_window=300), [1.0], 3.0)
        assert type(cut.meta["memory_truncation_bound"]) is float
        drift = np.max(np.abs(full.states - cut.states))
        assert 0 < drift < 10 * cut.meta["memory_truncation_bound"]

    @pytest.mark.parametrize("alpha", [0.001, 0.3, 0.5, 0.82, 0.97, 1.0])
    def test_weights_match_decimal(self, alpha):
        # beta[k] = (k+1)^alpha - k^alpha, c[k] = (k+2)^p - 2 (k+1)^p + k^p
        # and a0[k] = k^p - (k - alpha) (k+1)^alpha, p = alpha + 1, in
        # 60-digit decimal: the differences cancel about 2 log10(k) digits,
        # which 60 digits leave to spare.  From k = 16 on, beta, c and a0
        # (their series) are within 1e-15 relative; below 16 (the
        # differences in floats) within 1e-15 of the sum of their terms'
        # magnitudes, a few roundings of the terms
        n = 300_001
        _, beta, c, a0 = integrators._abm_weights(alpha, n)
        ks = [*range(16),
              *np.unique(np.geomspace(16, n - 1, 80).astype(int)).tolist()]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a = decimal.Decimal(alpha)
            p = a + 1
            for k in ks:
                x = decimal.Decimal(k)
                terms = {
                    "beta": (beta[k], [(x + 1) ** a, -(x**a)], k >= 16),
                    "c": (c[k], [(x + 2) ** p, -2 * (x + 1) ** p, x**p],
                          k >= 16),
                    "a0": (a0[k], [x**p, -(x - a) * (x + 1) ** a], k >= 16)}
                for name, (got, parts, series) in terms.items():
                    want = sum(parts)
                    scale = abs(want) if series else sum(map(abs, parts))
                    assert abs(decimal.Decimal(got) - want) <= (
                        decimal.Decimal("1e-15") * scale), (name, k)

    def test_footprint_is_the_run_arrays_and_one_square_scratch(self):
        # classical, order 0.82, h = 1e-3, N = 30 000: the run holds its
        # states and slopes, both far columns, the spectra of every square
        # width and one scratch for its largest square (16384 wide); 1.5 MB
        # over their bytes leaves no room for a (L + 1, 2, dim) product or
        # a (2L, 2, dim) transform of that square (1.57 MB each)
        field = models.classical_field(P321)
        cfg = FracConfig(order=0.82, h=1e-3)
        n, dim = 30_000, 3
        integrate_frac_abm(field, cfg, [1.0, 0.5, 0.2], 1.0)
        tracemalloc.start()
        try:
            traj = integrate_frac_abm(field, cfg, [1.0, 0.5, 0.2], n * cfg.h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.n_samples == n + 1
        widths = [w for w in (integrators._MEMORY_BLOCK << i
                              for i in range(16)) if w < n]
        held = (8 * (2 * (n + 1) * dim + 2 * n * dim)
                + 16 * (sum(2 * (w + 1) for w in widths)
                        + 3 * (widths[-1] + 1) * dim))
        assert held == pytest.approx(6.3e6, rel=0.01)
        assert peak <= held + 1.5e6

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

    @pytest.mark.parametrize("kernel", [kernels.GammaKernel(2.0, 1),
                                        kernels.GammaKernel(2.0, 2)], ids=repr)
    def test_rational_kernel_rejected(self, kernel):
        # integer-order chain stages under a Caputo state: a mixed-order
        # system that the ABM does not solve
        pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
        cfg = FracConfig(order=0.8, h=0.02)
        with pytest.raises(ValueError, match="integer order"):
            integrate_frac_dde(pair, cfg, kernel,
                               HistorySpec.constant(0.3 * X111), 2.0)


def _eval_g(field, delayed, grid):
    """The callback eval_g(k, x) of the earlier PECE loops: the field at
    ``x`` taken as node k, after writing ``x`` into the grid when a lookup
    reads it."""
    if delayed is None:
        return lambda k, x: field(x)

    def eval_g(k, x):
        grid.put(k, x)
        return field(x, delayed(k))

    return eval_g


def _direct_frac_loop(cfg, x0, n, field, delayed=None, grid=None):
    """Reference PECE loop: every memory sum taken directly, O(n^2), with
    the weights of ``integrators._abm_weights``, which
    ``TestFracAbm.test_weights_match_decimal`` holds to decimal."""
    eval_g = _eval_g(field, delayed, grid)
    h, alpha, window = cfg.h, cfg.order, cfg.memory_window
    pow_a, beta, c, a0 = integrators._abm_weights(alpha, n)
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
    """Reference Simpson kernel average, its rule rebuilt on every call,
    over the history's values as a C-contiguous table."""
    lo, hi = kernels.effective_support(kernel)
    n = max(2, int(math.ceil((hi - lo) / quad_step)))
    n += n % 2
    s = np.linspace(lo, hi, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (hi - lo) / n / 3.0
    return (weights * kernels.density(kernel, s)) @ np.ascontiguousarray(
        history.eval_many(t - s))


#: the delayed-argument engine, for references that call it while
#: ``integrators._delayed_argument`` is patched
_ENGINE = integrators._delayed_argument


def _per_stage_delayed(kernel, grid, times, final):
    """Reference delayed argument: every lookup evaluated on its own.  A
    uniform kernel's lookup gets a new engine, which builds its running
    integral from the grid as it stands, for that one lookup."""
    if isinstance(kernel, kernels.UniformKernel):
        return lambda i: _ENGINE(kernel, grid, times, final)(i)
    return lambda i: grid.eval_many(np.array([times[i] - kernel.lag]))[0]


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
        kernels.DiracKernel(0.3 * H), kernels.DiracKernel(0.5 * H),
        kernels.DiracKernel(H),
        kernels.DiracKernel(1.5 * H), kernels.DiracKernel(50 * H),
        kernels.DiracKernel(50.5 * H), kernels.UniformKernel(0.0, 0.37),
        kernels.UniformKernel(0.5 * H, 0.37), kernels.UniformKernel(H, 0.37),
        kernels.UniformKernel(50 * H, 0.37),
        kernels.UniformKernel(50 * H, 1.5)], ids=repr)
    def test_dde(self, kernel, phi, monkeypatch):
        # 137 steps: no whole number of 50-step blocks.  A uniform kernel's
        # running integral, kept from lookup to lookup, against a new one
        # built for every lookup from the grid as it stands.
        _assert_bitwise(lambda pair: integrate_dde(
            pair, kernel, PHIS[phi], 1.37, H), monkeypatch)

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
        kernels.UniformKernel(0.1, 0.37), kernels.GammaKernel(12.0, 1),
        kernels.GammaKernel(15.0, 2)], ids=repr)
    def test_convolve_history_unchanged(self, kernel):
        for phi in PHIS.values():
            for t in (-0.3, 0.0):
                assert kernels.convolve_history(
                    kernel, phi, t, 0.013).tobytes() == _simpson_average(
                    kernel, phi, t, 0.013).tobytes()

    @pytest.mark.parametrize("lag", [0.3 * H, 0.5 * H], ids=repr)
    def test_eval_point_is_hermite_eval(self, lag):
        # the stage lookups of a lag below h, on floats, against one-point
        # _hermite_eval calls: node 0 alone, the extended last piece, a
        # new node standing, node snaps, and past the slack
        n = 6
        grid = integrators._RunningGrid(PHIS["callable"], 0.0, H, n, 3)
        rng = np.random.default_rng(9)

        def both(u):
            try:
                fast = grid.eval_point(u)
            except HistoryCoverageError as exc:
                fast = str(exc)
            try:
                ref = grid.eval_many(np.array([u]))[0].tolist()
            except HistoryCoverageError as exc:
                ref = str(exc)
            return fast, ref

        checked = 0
        for k in range(n + 1):
            grid.put(k, rng.standard_normal(3), rng.standard_normal(3))
            t = k * H
            for u in (t + 0.5 * H - lag, t + H - lag, t - lag, t,
                      t + 0.5 * H, t + H + 2e-9 * H, t + 1.5 * H):
                if u > 0.0:
                    fast, ref = both(u)
                    if isinstance(ref, str):
                        assert fast == ref
                    else:
                        assert TestComponentwiseKernels._bits(fast) == (
                            TestComponentwiseKernels._bits(ref))
                    checked += 1
        assert checked >= 40

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
        # the 200 steps' lookups read 400k history points in all; a uniform
        # kernel reads each lookup's window in phi's past on its own
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


def _hermite_piece(grid, j, c):
    """Component c of the grid's cubic Hermite piece of cell j, as a
    function of theta (test-local)."""
    xa, xb = grid.states[j: j + 2, c].tolist()
    fa, fb = (grid.h * grid.derivs[j: j + 2, c]).tolist()

    def value(theta):
        t2, t3 = theta * theta, theta**3
        return ((2 * t3 - 3 * t2 + 1) * xa + (t3 - 2 * t2 + theta) * fa
                + (3 * t2 - 2 * t3) * xb + (t3 - t2) * fb)
    return value


def _quad_window_average(grid, kernel, t):
    """The window average by ``scipy.integrate.quad`` of the grid's
    interpolant; phi's part exact for a constant phi and by the composite
    Simpson rule with step h otherwise."""
    b = t - kernel.offset
    a = b - kernel.width
    phi, t0, h = grid.phi, grid.t0, grid.h
    total = np.zeros(grid.states.shape[1])
    if a < t0:
        e = min(b, t0)
        if phi.is_constant:
            total += phi(t0) * (e - a)
        else:
            n = max(2, math.ceil((e - a) / min(h, kernel.width / 16)))
            n += n % 2
            w = np.ones(n + 1)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            total += w * (e - a) / n / 3 @ phi.eval_many(
                np.linspace(a, e, n + 1))
    if b > t0:
        # cell by cell, the last piece extended, node 0's line while it is
        # alone; one cubic per piece, so the first 21-point Gauss-Kronrod
        # rule is exact
        ends = [max(a, t0)] + [t0 + k * h for k in range(1, grid.count)
                               if max(a, t0) < t0 + k * h < b] + [b]
        for lo, hi in zip(ends[:-1], ends[1:]):
            for c in range(total.size):
                if grid.count == 1:
                    x0, f0 = grid.states[0, c], grid.derivs[0, c]
                    piece = lambda s: x0 + (s - t0) * f0
                else:
                    j = min(math.floor((lo - t0) / h + 1e-9), grid.count - 2)
                    cubic = _hermite_piece(grid, j, c)
                    piece = lambda s: cubic((s - t0) / h - j)
                total[c] += quad(piece, lo, hi)[0]
    return total / kernel.width


def _write_node(grid, k, rng):
    """Node k of a smooth history, with a random slope."""
    s = k * grid.h
    x = [0.3 + 0.1 * math.sin(3 * s), 0.4 * math.cos(s), 0.2 - 0.05 * s]
    grid.put(k, x, rng.standard_normal(3))


class TestUniformRunningIntegral:
    """The uniform kernel's window average: the exact integral of the
    Hermite interpolant, O(1) per lookup, rounding that does not grow."""

    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("offset", [0.0, 0.5 * H, H, 50 * H], ids=repr)
    def test_matches_quad_of_hermite(self, offset, phi):
        # RK4's order of events in step k: k2/k3 and k4 extrapolate the
        # last piece, then node k + 1 stands with a provisional slope, then
        # with its own
        kernel = kernels.UniformKernel(offset, 0.057)
        n = 60
        grid = integrators._RunningGrid(PHIS[phi], 0.0, H, n, 3)
        times, final = integrators._rk4_lookups(n, H)
        lookup = integrators._delayed_argument(kernel, grid, times, final)
        rng = np.random.default_rng(11)
        _write_node(grid, 0, rng)
        lookup(0)
        checked = 0
        for k in range(n):
            for i, write in ((2 * k + 1, False), (2 * k + 2, False),
                             (2 * k + 2, True)):
                if write:
                    _write_node(grid, k + 1, rng)
                value = lookup(i)
                if k % 2 == 0:
                    want = _quad_window_average(grid, kernel, times[i])
                    assert np.max(np.abs(np.array(value) - want)) <= (
                        1e-13 * np.max(np.abs(want))), (i, value, want)
                    checked += 1
            _write_node(grid, k + 1, rng)
        assert checked == 90

    @pytest.mark.parametrize("offset", [0.0, 0.5 * H, H, 1.5 * H], ids=repr)
    def test_fractional_order_matches_quad(self, offset):
        # the fractional loop's order of events: node k is written (slopes
        # by finite differences) with each iterate before its lookup, and
        # only nodes up to k - 2 are final, so up to one whole cell past
        # the prefix is read as it stands
        kernel = kernels.UniformKernel(offset, 0.057)
        n = 40
        grid = integrators._RunningGrid(PHIS["callable"], 0.0, H, n, 3)
        nodes = np.arange(n + 1)
        lookup = integrators._delayed_argument(kernel, grid, nodes * H,
                                               nodes - 2)
        rng = np.random.default_rng(5)
        for k in range(n + 1):
            for _ in range(3 if k else 1):
                grid.put(k, rng.uniform(0.2, 0.5, 3))
                value = lookup(k)
                want = _quad_window_average(grid, kernel, k * H)
                assert np.max(np.abs(np.array(value) - want)) <= (
                    1e-13 * np.max(np.abs(want))), (k, value, want)

    @pytest.mark.parametrize("offset", [0.0, 0.5 * H, 50 * H], ids=repr)
    def test_cubic_history_exact(self, offset):
        # a cubic with its exact slopes is its own Hermite interpolant and
        # Simpson integrates it exactly: every window average is exact
        coef = np.array([[0.3, -0.2, 0.5], [1.0, 0.7, -0.4],
                         [-2.0, 0.1, 0.3], [1.5, -0.6, 0.25]])

        def p(s):
            return coef.T @ np.array([1.0, s, s * s, s**3])

        def mean(a, b):
            powers = [(b**(m + 1) - a**(m + 1)) / (m + 1) for m in range(4)]
            return coef.T @ np.array(powers) / (b - a)

        phi = _history_from_callable(p)
        kernel = kernels.UniformKernel(offset, 0.37)
        n = 120
        grid = integrators._RunningGrid(phi, 0.0, H, n, 3)
        times, final = integrators._rk4_lookups(n, H)
        lookup = integrators._delayed_argument(kernel, grid, times, final)
        slope = lambda s: coef[1] + 2 * coef[2] * s + 3 * coef[3] * s * s
        grid.put(0, p(0.0), slope(0.0))
        for i in range(2 * n + 1):
            k = (i - 1) // 2
            if i and i % 2 == 0:
                grid.put(k + 1, p((k + 1) * H), slope((k + 1) * H))
            b = times[i] - offset
            if grid.count == 1 and b > 0:
                continue  # node 0 alone: the grid extends its line
            want = mean(b - 0.37, b)
            assert np.max(np.abs(np.array(lookup(i)) - want)) <= (
                1e-13 * np.max(np.abs(want)))

    def test_rounding_does_not_grow(self):
        # 1e5 steps: the prefix sum reaches about 1e3 while a window holds
        # about 1.  The average stays within 1e-14 of a direct sum of the
        # window's cells at every t; an uncompensated prefix is off by
        # 5e-15 at t = 10 and 4e-13 at t = 1000
        n, h, width = 100_000, H, 1.0
        s = h * np.arange(n + 1)
        grid = integrators._RunningGrid(HistorySpec.constant([1.0]), 0.0, h,
                                        n, 1)
        grid.states[:, 0] = 1.0 + 0.5 * np.sin(s)
        grid.derivs[:, 0] = 0.5 * np.cos(s) + 1e-3 * np.sin(7 * s)
        grid.count = n + 1
        ts = np.array([10.0, 100.0, 1000.0]) + 0.37 * h
        kernel = kernels.UniformKernel(0.5, width)
        lookup = integrators._delayed_argument(kernel, grid, ts,
                                               np.full(3, n))
        x, f = grid.states[:, 0].tolist(), grid.derivs[:, 0].tolist()

        def piece(j, lo, hi):
            # the antiderivative of cell j's piece between thetas lo and hi
            def anti(t):
                return (h * (t - t**3 + t**4 / 2) * x[j]
                        + h * h * (t * t / 2 - 2 * t**3 / 3 + t**4 / 4) * f[j]
                        + h * (t**3 - t**4 / 2) * x[j + 1]
                        + h * h * (t**4 / 4 - t**3 / 3) * f[j + 1])
            return anti(hi) - anti(lo)

        for i, t in enumerate(ts):
            pa, pb = (t - 0.5 - width) / h, (t - 0.5) / h
            ja, jb = math.floor(pa), math.floor(pb)
            parts = [piece(ja, pa - ja, 1.0), piece(jb, 0.0, pb - jb)]
            parts += [h / 2 * (x[k] + x[k + 1])
                      + h * h / 12 * (f[k] - f[k + 1])
                      for k in range(ja + 1, jb)]
            want = math.fsum(parts) / width
            assert abs(lookup(i)[0] - want) <= 1e-14 * abs(want)

    def test_k3_repeats_k2_lookup(self, monkeypatch):
        # at uniform offset 0 and at Dirac lags below h every stage lookup
        # reads the unfinished last piece; k3 takes k2's value, as nothing
        # is written to the grid between them, so a step reads three:
        # k2's, k4's and, once the node is written, its slope's
        reads = []
        componentwise = integrators._componentwise
        eval_point = integrators._RunningGrid.eval_point

        def counting(expr, dim):
            kernel = componentwise(expr, dim)
            if expr != integrators._WINDOW:
                return kernel

            def counted(*args):
                reads.append(1)
                return kernel(*args)
            return counted

        def counted_point(self, u):
            reads.append(1)
            return eval_point(self, u)

        monkeypatch.setattr(integrators, "_componentwise", counting)
        monkeypatch.setattr(integrators._RunningGrid, "eval_point",
                            counted_point)
        ep_pair = models.ep_delayed_field(EP)
        # (pair, kernel, reads): node 0's uniform lookup is phi's constant,
        # every other one a window; a Dirac lag below h samples phi in
        # batches until its lagged time passes 0, and every lookup after
        # that alone
        cases = [(_rigid_pair, kernels.UniformKernel(0.0, 0.37), 3000),
                 (ep_pair, kernels.DiracKernel(H / 2), 2999),
                 (ep_pair, kernels.DiracKernel(0.3 * H), 3000)]
        for pair, kernel, n_reads in cases:
            reads.clear()
            integrate_dde(pair, kernel, PHIS["constant"], 1000 * H, H)
            assert len(reads) == n_reads, kernel

    @pytest.mark.parametrize("kernel", [
        kernels.UniformKernel(0.1, 0.37), kernels.UniformKernel(0.0, 2.0)],
        ids=repr)
    def test_history_layout_does_not_move_bits(self, kernel):
        # the same values of phi as a broadcast (stride-0) table and as a
        # stacked one: the window's Simpson part before 0 rounds alike
        c = np.array([0.3, 0.4, 0.2])
        field = models.delayed_field(models.RigidBodyParams(3, 2, 1))
        runs = [integrate_dde(field, kernel, HistorySpec(table, 3), 2.0, H)
                for table in (lambda ss: np.broadcast_to(c, (np.size(ss), 3)),
                              lambda ss: np.tile(c, (np.size(ss), 1)))]
        assert runs[0].states.tobytes() == runs[1].states.tobytes()
        assert runs[0].derivs.tobytes() == runs[1].derivs.tobytes()

    def test_work_per_lookup_bounded(self, monkeypatch):
        # history points read per lookup served, at the reads of both
        # paths: grid nodes through the lone read (_RunningGrid.cell) and
        # the batched one (cells), and phi samples.  A batch's reads are
        # shared by the lookups it serves
        points = [0]
        per_lookup = []
        cell = integrators._RunningGrid.cell
        cells = integrators._RunningGrid.cells
        route = integrators._uniform_average

        def counted_cell(grid, j):
            points[0] += 2
            return cell(grid, j)

        def counted_cells(grid, js):
            points[0] += 2 * np.size(js)
            return cells(grid, js)

        def counted_route(*args):
            values = route(*args)

            def counted_values(i):
                before = points[0]
                served, final_only = values(i)
                per_lookup.append((points[0] - before) / len(served))
                return served, final_only

            return counted_values

        monkeypatch.setattr(integrators._RunningGrid, "cell", counted_cell)
        monkeypatch.setattr(integrators._RunningGrid, "cells", counted_cells)
        monkeypatch.setattr(integrators, "_uniform_average", counted_route)
        constant = PHIS["constant"]

        def counted_phi(ss):
            points[0] += np.size(ss)
            return constant.eval_many(ss)

        phi = HistorySpec(counted_phi, 3, is_constant=True)
        worst = {}
        for offset in (0.0, 0.5 * H, H, 0.1, 1.0):
            for width in (H / 3, 0.37, 1.5):
                per_lookup.clear()
                integrate_dde(_rigid_pair, kernels.UniformKernel(offset, width),
                              phi, 2.5, H)
                worst[offset, width] = max(per_lookup)
        # a lone lookup reads the cells at both window ends and adds at
        # most one cell to the running integral; a batch reads the cells
        # at both ends of each window and extends the prefix to the last
        # end's cell, half a cell per RK4 lookup
        assert max(worst.values()) <= 6, worst
        assert worst[0.0, 0.37] == worst[0.0, 1.5] == 6


def _per_lookup_uniform_average(kernel, grid, times, final):
    """:func:`integrators._uniform_average` in its earlier form: every
    lookup on its own on Python floats, one cell added to the prefix at a
    time, ``values(i)`` the value of lookup i alone."""
    t0, h, phi = grid.t0, grid.h, grid.phi
    offset, width = kernel.offset, kernel.width
    simpson_step = min(h, width / 16.0)
    const = (phi.eval_many(np.array([t0]))[0].tolist() if phi.is_constant
             else None)
    dim = grid.states.shape[1]
    cell_sum = integrators._componentwise(integrators._CELL, dim)
    partial = integrators._componentwise(integrators._PARTIAL, dim)
    add = integrators._componentwise(integrators._SUM, dim)
    carry = integrators._componentwise(integrators._CARRY, dim)
    window = integrators._componentwise(integrators._WINDOW, dim)
    hh = h * h
    half, twelfth = 0.5 * h, hh / 12.0
    zero = [0.0] * dim
    pre = np.zeros((grid.states.shape[0], 2, dim))
    done, hi, lo = 0, zero, zero
    times, final = times.tolist(), final.tolist()

    def whole_cell(j):
        (xa, xb), (fa, fb) = grid.cell(j)
        return cell_sum(half, twelfth, xa, fa, xb, fb)

    def extend(last):
        nonlocal done, hi, lo
        while done < last:
            c = whole_cell(done)
            total = add(hi, c)
            lo = carry(hi, c, total, lo)
            hi = total
            done += 1
            pre[done] = hi, lo

    def integral_to(pos, last):
        if grid.count == 1:
            x0, f0 = grid.states[0].tolist(), grid.derivs[0].tolist()
            return zero, zero, partial(h * pos, 0.5 * hh * pos * pos,
                                       0.0, 0.0, x0, f0, x0, f0)
        j = min(math.ceil(pos) - 1, grid.count - 2)
        (xa, xb), (fa, fb) = grid.cell(j)
        t1 = pos - j
        t2 = t1 * t1
        t3 = t2 * t1
        t4 = t2 * t2
        rest = partial(h * (t1 - t3 + 0.5 * t4),
                       hh * (0.5 * t2 - 2.0 / 3.0 * t3 + 0.25 * t4),
                       h * (t3 - 0.5 * t4), hh * (0.25 * t4 - t3 / 3.0),
                       xa, fa, xb, fb)
        if j < last:
            return (*pre[j].tolist(), rest)
        for k in range(last, j):
            rest = add(rest, whole_cell(k))
        return hi, lo, rest

    def values(i):
        b = times[i] - offset
        a = b - width
        last = max(final[i], 0)
        if done < last:
            extend(last)
        pos_b = (b - t0) / h
        if b <= t0:
            value = (const if const is not None else [
                v / width
                for v in integrators._simpson(phi, a, b, simpson_step)])
        else:
            b_hi, b_lo, b_rest = integral_to(pos_b, last)
            if a > t0:
                a_hi, a_lo, a_rest = integral_to((a - t0) / h, last)
                past = zero
            else:
                a_hi = a_lo = a_rest = zero
                past = ([v * (t0 - a) for v in const] if const is not None
                        else integrators._simpson(phi, a, t0, simpson_step))
            value = window(width, b_hi, a_hi, b_lo, a_lo, b_rest, a_rest,
                           past)
        return [value], pos_b <= last

    return values


class TestUniformBatches:
    """Batched uniform lookups against the earlier per-lookup engine, bit
    for bit, at batch sizes 1, 2 and the default."""

    @pytest.mark.parametrize("frac", [False, True], ids=["rk4", "abm"])
    @pytest.mark.parametrize("phi", ["constant", "callable"])
    @pytest.mark.parametrize("width", [H / 3, 0.37, 1.5], ids=repr)
    @pytest.mark.parametrize("offset", [0.0, 0.5 * H, H, 0.1, 1.0],
                             ids=repr)
    def test_bitwise_equals_per_lookup(self, offset, width, phi, frac,
                                       monkeypatch):
        # 237 steps: 475 RK4 lookups and 238 ABM nodes, no whole number
        # of batches of 2 or of the lookahead, and windows on the grid at
        # every offset
        kernel = kernels.UniformKernel(offset, width)
        cfg = FracConfig(order=0.8, h=H)

        def run():
            if frac:
                return integrate_frac_dde(_rigid_pair, cfg, kernel,
                                          PHIS[phi], 2.37)
            return integrate_dde(_rigid_pair, kernel, PHIS[phi], 2.37, H)

        with monkeypatch.context() as m:
            m.setattr(integrators, "_uniform_average",
                      _per_lookup_uniform_average)
            ref = run()
        for points in (1, 2, integrators._LOOKAHEAD_POINTS):
            with monkeypatch.context() as m:
                m.setattr(integrators, "_LOOKAHEAD_POINTS", points)
                fast = run()
            # tobytes also tells signed zeros apart
            assert fast.states.tobytes() == ref.states.tobytes(), points
            assert fast.derivs.tobytes() == ref.derivs.tobytes(), points

    def test_batches_serve_the_final_reads(self, monkeypatch):
        # at offset 0.1 = 10h every lookup past the first reads final
        # nodes only: the run computes about one batch per 10 steps and
        # no lookup alone
        calls = []
        route = integrators._uniform_average

        def counted_route(*args):
            values = route(*args)

            def counted_values(i):
                served, final_only = values(i)
                calls.append((len(served), final_only))
                return served, final_only

            return counted_values

        monkeypatch.setattr(integrators, "_uniform_average", counted_route)
        integrate_dde(_rigid_pair, kernels.UniformKernel(0.1, 0.37),
                      PHIS["constant"], 2.0, H)
        assert all(final_only for _, final_only in calls)
        assert sum(n for n, _ in calls) == 401
        assert len(calls) <= 22


def _final_reads_by_hand(grid, times, final, shift):
    """:func:`integrators._final_reads` one lookup at a time."""
    ready = []
    for i in range(len(times)):
        u = float(times[i]) - shift
        last = max(int(final[i]), 0)
        if u > grid.t0 and (shift < grid.h
                            or not (u - grid.t0) / grid.h <= last):
            ready.append(0)
            continue
        n = 0
        for t in times[i: i + integrators._LOOKAHEAD_POINTS]:
            if (float(t) - shift - grid.t0) / grid.h <= last:
                n += 1
        ready.append(n)
    return ready


class TestFinalReads:
    """The one test by which both routes batch their final-only lookups."""

    @pytest.mark.parametrize("frac", [False, True], ids=["rk4", "abm"])
    @pytest.mark.parametrize("shift", [0.3 * H, 0.5 * H, H, 1.5 * H, 2 * H,
                                       0.1, 50.5 * H], ids=repr)
    def test_matches_lookup_by_lookup(self, shift, frac, monkeypatch):
        n = 137
        grid = integrators._RunningGrid(PHIS["constant"], 0.0, H, n, 3)
        if frac:
            nodes = np.arange(n + 1)
            times, final = nodes * H, nodes - 2
        else:
            times, final = integrators._rk4_lookups(n, H)
        for points in (1, 2, 7, integrators._LOOKAHEAD_POINTS):
            monkeypatch.setattr(integrators, "_LOOKAHEAD_POINTS", points)
            us, ready = integrators._final_reads(grid, times, final, shift)
            assert us.tolist() == [float(t) - shift for t in times]
            assert ready.tolist() == _final_reads_by_hand(grid, times, final,
                                                          shift)

    def test_both_routes_batch_alike(self, monkeypatch):
        # a Dirac lag and a uniform offset of the same size serve the same
        # lookups in the same batches
        sizes = {}
        for name, route in (("_dirac_sample", integrators._dirac_sample),
                            ("_uniform_average",
                             integrators._uniform_average)):
            served = sizes.setdefault(name, [])

            def counted_route(*args, route=route, served=served):
                values = route(*args)

                def counted_values(i):
                    out = values(i)
                    served.append((i, len(out[0]), out[1]))
                    return out

                return counted_values

            monkeypatch.setattr(integrators, name, counted_route)
        for kernel in (kernels.DiracKernel(0.1),
                       kernels.UniformKernel(0.1, 0.37)):
            integrate_dde(_rigid_pair, kernel, PHIS["constant"], 1.0, H)
        assert sizes["_dirac_sample"] == sizes["_uniform_average"]


#: rows per chunk of the CSV writer
CHUNK = integrators._CSV_CHUNK

#: the column layouts of the CSV checks and their column counts
CSV_LAYOUTS = {"scalar-18": 2, "erlang-chain": 12, "aux": 7,
               "zero-column": 6, "exponential-chain": 9}


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
        traj = integrate_chain(pair, kernels.GammaKernel(1.0, 2),
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

    def test_nothing_formatted_at_import(self):
        code = ("import sys, rigidmem; "
                "print('rigidmem._csvformat' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                      2 * CHUNK + 3])
    @pytest.mark.parametrize("layout", CSV_LAYOUTS)
    def test_shapes_match_per_value_format(self, layout, rows, tmp_path):
        traj = _csv_trajectory(layout, rows)
        out = tmp_path / "shape.csv"
        write_trajectory_csv(traj, out)
        text = _per_value_csv(traj)
        assert out.read_bytes() == text
        assert text.split(b"\n", 1)[0].count(b",") == CSV_LAYOUTS[layout] - 1

    def test_dim_zero(self, tmp_path):
        # no state components: t alone, and no chain-stage test by zero
        traj = integrate_rk4(lambda x: (), [], 1.0, 0.1)
        out = tmp_path / "dim0.csv"
        write_trajectory_csv(traj, out)
        assert out.read_bytes() == _per_value_csv(traj)
        assert out.read_text().splitlines()[:2] == ["t", "0"]

    def test_failed_write_leaves_its_prefix_alone(self, tmp_path,
                                                  monkeypatch):
        # an existing longer file is written over, and cut where the
        # formatter raised: the header and the first chunk, no old tail
        traj = _csv_trajectory("aux", 2 * CHUNK + 3)
        whole = _per_value_csv(traj)
        out = tmp_path / "failed.csv"
        out.write_bytes(b"9" * (2 * len(whole)))
        formatter = RowFormatter.__call__
        calls = itertools.count()

        def failing(self, block):
            if next(calls):
                raise RuntimeError("formatter failed")
            return formatter(self, block)

        monkeypatch.setattr(RowFormatter, "__call__", failing)
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_trajectory_csv(traj, out)
        lines = whole.splitlines(keepends=True)
        assert out.read_bytes() == b"".join(lines[:1 + CHUNK])

    def test_new_file_mode(self, tmp_path):
        # created as open(path, "wb") creates it: 0o666 less the umask
        traj = _csv_trajectory("aux", 3)
        old = os.umask(0o027)
        try:
            write_trajectory_csv(traj, tmp_path / "new.csv")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640

    def test_no_whole_run_table(self, tmp_path):
        rows = 40000
        states = np.linspace(-1.0, 1.0, 4 * rows).reshape(rows, 4)
        traj = Trajectory(0.0, 1e-3, states, states,
                          {"h": states[:, 0] ** 2}, core_dim=3)
        out = tmp_path / "big.csv"
        write_trajectory_csv(traj, out)  # the formatter's tables, once
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (rows, 6) float table would take 1.9 MB
        assert peak < 1_000_000


@functools.cache
def _chain_run(stages):
    """A chain run of two chunks and three rows of the CSV."""
    pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
    return integrate_chain(pair, kernels.GammaKernel(30.0, stages),
                           HistorySpec.constant(0.3 * X111),
                           (2 * CHUNK + 2) * 0.01, 0.01,
                           diagnostics=rigid_diag(P321))


def _csv_trajectory(layout, rows):
    """A ``rows``-sample trajectory of each column layout of the CSV."""
    if layout.endswith("-chain"):
        # t, x1..x3, h, c and three eta columns per stage
        run = _chain_run(1 if layout == "exponential-chain" else 2)
        return Trajectory(run.t0, run.h, run.states[:rows],
                          run.derivs[:rows],
                          {k: v[:rows] for k, v in run.diagnostics.items()},
                          core_dim=3)
    rng = np.random.default_rng(rows)
    if layout == "scalar-18":
        states = rng.standard_normal((rows, 1))
        return Trajectory(0.0, 1e-3, states, states)
    states = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(
        -8, 8, (rows, 5))
    if layout == "aux":
        return Trajectory(0.25, 0.1, states, states,
                          {"h": rng.standard_normal(rows)}, core_dim=3)
    states[:, 1] = 0.0
    return Trajectory(0.0, 1e-3, states[:, :3], states[:, :3],
                      {"h": np.zeros(rows), "c": rng.standard_normal(rows)})


def _per_value_csv(traj):
    core = traj.core_dim
    cols = integrators.trajectory_columns(core, traj.diagnostics,
                                          traj.states.shape[1] - core)
    lines = [",".join(cols)]
    for i in range(traj.n_samples):
        row = [traj.times[i], *traj.states[i, :core],
               *(d[i] for d in traj.diagnostics.values()),
               *traj.states[i, core:]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _g17(values):
    """The formatter's text of each value, one value per row."""
    block = np.asarray(values, dtype=float).reshape(-1, 1)
    text = RowFormatter(1, len(block))(block).tobytes().decode()
    return text.splitlines()


def _assert_g17(values):
    values = np.asarray(values, dtype=float).ravel()
    assert _g17(values) == [format(v, ".17g") for v in values.tolist()]


def _neighbours(values, steps):
    """``values`` with their ``steps`` nearest doubles on either side."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for toward in (0.0, np.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, np.copysign(toward, values))
            out.append(v)
    return np.concatenate(out)


class TestG17Format:
    """The array formatter against ``format(v, ".17g")``, byte for byte."""

    def test_random_bit_patterns(self):
        # NaN payloads, infinities, subnormals and every exponent
        bits = np.random.default_rng(21).integers(
            0, 2**64, 50000, dtype=np.uint64, endpoint=False)
        _assert_g17(bits.view(np.float64))

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(22)
        values = 10.0 ** rng.uniform(-330, 308.25, 50000)
        _assert_g17(values * rng.choice([-1.0, 1.0], values.size))

    def test_powers_of_ten_and_neighbours(self):
        # some, such as 1e-79, lie within half a unit in the 17th digit
        # below 10^K, so their rounding carries into the exponent
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = _neighbours(powers, steps=1)
        _assert_g17(np.concatenate([values, -values]))

    def test_exact_ties_round_half_even(self):
        assert _g17([1125899906842624.25]) == ["1125899906842624.2"]
        assert _g17([1125899906842624.75]) == ["1125899906842624.8"]
        # odd N / 2^e with 18 significant digits: the 18th is a 5
        rng = np.random.default_rng(23)
        ties = []
        for e in range(2, 18):
            lo = 10 ** (17 - e) * 2**e
            odd = 2 * rng.integers(lo // 2, min(10 * lo, 2**53) // 2,
                                   200) + 1
            ties.append(odd / 2.0**e)
        ties = np.concatenate(ties)
        _assert_g17(np.concatenate([ties, -ties]))
        _assert_g17((2.0**52 + np.arange(-2000, 2000)) / 4)

    def test_notation_switch_points(self):
        # fixed/exponential at 1e-4 and 1e-5 and at 1e16 and 1e17, and two-
        # and three-digit exponents at 99 and 100, with their neighbours
        points = [1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100]
        values = _neighbours(points, steps=4)
        _assert_g17(np.concatenate([values, -values]))

    def test_zeros_and_infinities(self):
        assert _g17([0.0, -0.0, np.inf, -np.inf, np.nan]) == [
            "0", "-0", "inf", "-inf", "nan"]
        _assert_g17(np.zeros(1000))

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_any_floats(self, values):
        _assert_g17(values)


def test_power_of_ten_table_rounded_to_nearest():
    # hi is 10^k rounded to nearest and lo the rest rounded to nearest,
    # against exact rationals
    from fractions import Fraction

    from rigidmem import _csvformat

    span = _csvformat._SPAN
    hi, lo = _csvformat._powers_of_ten()
    assert hi.shape == lo.shape == (2 * span + 1,)
    for k in range(-span, span + 1):
        exact = Fraction(10) ** k
        assert hi[span + k] == float(exact)
        assert lo[span + k] == float(exact - Fraction(hi[span + k]))


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


def _array_rk4_loop(field, delayed, grid, x0, n, h):
    """:func:`integrators._rk4_loop`'s signature over the array form; the
    field (and the lookup) gets ndarray states and its slopes are made
    arrays.  A bound field is called as a closure, never inlined."""
    def as_array(i, x):
        f = field(x) if delayed is None else field(x, delayed(i))
        return np.asarray(f, dtype=float)

    x0 = np.array(x0, dtype=float)
    grid.put(0, x0, as_array(0, x0))
    _array_rk4_steps(as_array, grid, n, h)


#: one run of every RK4-family path the float loop serves: plain callables
#: (one call per field evaluation) and bound fields (inlined)
FLOAT_LOOP_RUNS = {
    "classical": lambda: integrate_rk4(
        lambda x: models.rhs_classical(P321, x), X111, 3.0, 1e-2),
    "revised": lambda: integrate_rk4(
        lambda x: models.rhs_revised(P321, x), X111, 3.0, 1e-2),
    "bound-classical": lambda: integrate_rk4(
        models.classical_field(P321), X111, 3.0, 1e-2),
    "bound-revised": lambda: integrate_rk4(
        models.revised_field(P321), X111, 3.0, 1e-2),
    "bound-chain-exponential": lambda: integrate_chain(
        models.delayed_field(P321), kernels.GammaKernel(2.0, 1),
        PHIS["callable"], 2.0, H),
    "bound-chain-erlang-constant": lambda: integrate_chain(
        models.delayed_field(P321), kernels.GammaKernel(3.0, 2),
        PHIS["constant"], 2.0, H),
    "bound-dde-delayed": lambda: integrate_dde(
        models.delayed_field(P321), kernels.DiracKernel(50.5 * H),
        PHIS["callable"], 1.37, H),
    "bound-dde-delayed-zero": lambda: integrate_dde(
        models.delayed_field(P321), kernels.DiracKernel(0.0),
        PHIS["callable"], 1.37, H),
    "bound-dde-revised-delayed": lambda: integrate_dde(
        models.revised_delayed_field(P321), kernels.DiracKernel(0.3 * H),
        PHIS["callable"], 1.37, H),
    "bound-dde-ep-delayed": lambda: integrate_dde(
        models.ep_delayed_field(EP), kernels.UniformKernel(0.0, 0.37),
        HistorySpec.constant(X_EP), 2.0, H),
    "chain-exponential": lambda: integrate_chain(
        _rigid_pair, kernels.GammaKernel(2.0, 1),
        PHIS["callable"], 2.0, H),
    "chain-erlang": lambda: integrate_chain(
        _rigid_pair, kernels.GammaKernel(3.0, 2),
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


def _one_call_add_square(far, gs, spectra, s):
    """:func:`integrators._add_square` in its earlier one-call form
    (test-local): ``far`` is (n, 2, dim) and ``spectra[L]`` (L + 1, 2),
    and one inverse transform serves both weight columns."""
    width = s & -s
    m = min(width, far.shape[0] - s)
    g_hat = np.fft.rfft(gs[s - width: s], 2 * width, axis=0)
    conv = np.fft.irfft(spectra[width][:, :, None] * g_hat[:, None, :],
                        2 * width, axis=0)
    far[s: s + m] += conv[width: width + m]


class TestAddSquare:
    """The FFT square in the run's scratch against its earlier one-call
    form, bit for bit."""

    @pytest.mark.parametrize("window", [None, 700])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_equals_one_call_form(self, dim, window):
        # 6000 nodes: squares of every width 64..4096, the 4096-wide one
        # and the last one clipped at the end of the run
        n, block = 6000, integrators._MEMORY_BLOCK
        gs = np.random.default_rng(dim).standard_normal((n + 1, dim))
        _, beta, c, a0 = integrators._abm_weights(0.82, n)
        lag_w = np.stack([beta, c], axis=1)
        g0_weight = a0 - c
        if window is not None:
            lag_w[window:] = 0.0
            g0_weight[window:] = 0.0
        widths = [64 << i for i in range(7)]
        old_spectra = {w: np.fft.rfft(lag_w[: 2 * w], 2 * w, axis=0)
                       for w in widths}
        old_far = np.zeros((n, 2, dim))
        old_far[:, 1] = g0_weight[:, None] * gs[0]
        # the run's layout: one contiguous (L + 1, 1) column per weight
        spectra = {w: np.ascontiguousarray(old_spectra[w].T)[:, :, None]
                   for w in widths}
        far = old_far.transpose(1, 0, 2).copy()
        scratch = np.empty((3, max(widths) + 1, dim), complex)
        clipped = []
        for s in range(block, n, block):
            integrators._add_square(far, gs, spectra, scratch, s)
            _one_call_add_square(old_far, gs, old_spectra, s)
            clipped.append(s + (s & -s) > n)
            assert far.transpose(1, 0, 2).tobytes() == old_far.tobytes()
        assert any(clipped)


def _array_frac_loop(cfg, x0, n, field, delayed=None, grid=None):
    """:func:`integrators._frac_loop` in its earlier array form: every
    state, right-hand side and lag sum an ndarray."""
    eval_g = _eval_g(field, delayed, grid)

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
            _one_call_add_square(far, gs, spectra, step)
        sums = far[step] + near_w[:, block - 1 - r:] @ gs[step - r: step + 1]
        xc = x0 + pred_scale * sums[0]
        hist = sums[1]
        for _ in range(cfg.corrector_iters):
            xc = x0 + corr_scale * (as_array(step + 1, xc) + hist)
        _array_check_state(xc, step * h)
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


def _array_delayed_argument(kernel, grid, times, final):
    """:func:`integrators._delayed_argument` in its earlier array form:
    each value a (dim,) ndarray.  A uniform kernel's running integral has
    no array form; its values are the engine's, made arrays."""
    if isinstance(kernel, kernels.UniformKernel):
        lookup = _ENGINE(kernel, grid, times, final)
        return lambda i: np.array(lookup(i))
    lag = kernel.lag
    first, block = 0, []

    def lookup(i):
        nonlocal first, block
        if 0 <= i - first < len(block):
            return block[i - first]
        ts = times[i: i + integrators._LOOKAHEAD_POINTS]
        ready = int(np.count_nonzero(
            ts - lag <= grid.t0 + max(final[i], 0) * grid.h))
        us = ts[: max(ready, 1)] - lag
        n_past = int(np.count_nonzero(us <= grid.t0))
        values = []
        for part in (us[:n_past], us[n_past:]):
            if part.size:
                values += list(grid.eval_many(part))
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

    FRAC_DDE_KERNELS = [
        kernels.DiracKernel(0.0), kernels.DiracKernel(0.3 * H),
        kernels.DiracKernel(30.5 * H), kernels.UniformKernel(5 * H, 0.2)]

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("kernel", FRAC_DDE_KERNELS, ids=repr)
    def test_frac_dde_bitwise_equals_array_form(self, kernel, iters,
                                                monkeypatch):
        cfg = FracConfig(order=0.8, h=H, corrector_iters=iters)
        _assert_equals_array_form(
            lambda: integrate_frac_dde(_rigid_pair, cfg, kernel,
                                       PHIS["callable"], 1.37),
            monkeypatch, "_frac_loop", "_delayed_argument")

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("kernel", FRAC_DDE_KERNELS, ids=repr)
    def test_planar_frac_dde_bitwise_equals_array_form(self, kernel, iters,
                                                       monkeypatch):
        # dim 2, the planar-19 pair: each dimension runs its own kernels
        cfg = FracConfig(order=0.8, h=H, corrector_iters=iters)
        phi = _history_from_callable(lambda s: np.array(
            [0.3 + 0.1 * math.sin(3 * s), 0.4 * math.cos(s)]))
        _assert_equals_array_form(
            lambda: integrate_frac_dde(cli._lagged_cross_pair((0.7, 0.4)),
                                       cfg, kernel, phi, 1.37),
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


def _eval_g_frac_loop(cfg, x0, n, field, delayed=None, grid=None):
    """:func:`integrators._frac_loop` in its earlier callback form: one
    ``eval_g(k, x)`` call per evaluation and the predictor, corrector and
    norm from the componentwise kernels, each far sum read per step."""
    eval_g = _eval_g(field, delayed, grid)
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
    stage = integrators._componentwise(integrators._STAGE, dim)
    correct = integrators._componentwise(integrators._CORRECT, dim)
    squares = integrators._componentwise(integrators._SQUARES, dim)
    states = np.empty((n + 1, dim))
    gs = np.empty((n + 1, dim))
    x0 = states[0] = x0.tolist()
    gs[0] = eval_g(0, x0)
    far = np.zeros((n, 2, dim))
    far[:, 1] = g0_weight[:, None] * gs[0]
    for step in range(n):
        r = step % block
        if r == 0 and step:
            _one_call_add_square(far, gs, spectra, step)
        pred, hist = (far[step] + near_w[:, block - 1 - r:]
                      @ gs[step - r: step + 1]).tolist()
        xc = stage(pred_scale, x0, pred)
        for _ in range(cfg.corrector_iters):
            xc = correct(corr_scale, x0, eval_g(step + 1, xc), hist)
        if not math.sqrt(squares(xc)) <= integrators.DIVERGENCE_NORM:
            raise integrators._diverged(step * h)
        states[step + 1] = xc
        gs[step + 1] = eval_g(step + 1, xc)
    derivs = np.gradient(states, h, axis=0)
    meta = {"order": alpha, "scheme": "abm-pece",
            "corrector_iters": cfg.corrector_iters}
    if window is not None:
        meta["memory_window"] = window
        meta["memory_truncation_bound"] = integrators._truncation_bound(
            gs, pred_scale, pow_a, window)
    return states, derivs, meta


#: the Caputo fields of the generated-run checks and their start states
ABM_RUN_FIELDS = {
    "classical": (models.classical_field(P321), [1.0, 0.5, 0.2]),
    "revised": (models.revised_field(P321), [1.0, 0.5, 0.2]),
    "callable-1": FRAC_FIELDS[1],
}
#: the delayed Caputo fields and their histories
ABM_RUN_PAIRS = {
    "scalar-18": (cli._KINDS["scalar-18"].pair(-0.8),
                  HistorySpec.constant([1.3])),
    "planar-19": (cli._lagged_cross_pair((0.7, 0.4)),
                  _history_from_callable(lambda s: np.array(
                      [0.3 + 0.1 * math.sin(3 * s), 0.4 * math.cos(s)]))),
    "delayed": (models.delayed_field(P321), PHIS["callable"]),
}
ABM_RUN_H = 0.05


class TestGeneratedAbmRun:
    """The generated whole-run PECE loop against the callback loop."""

    @staticmethod
    def _assert_equals_callback_form(run, monkeypatch):
        fast = run()
        with monkeypatch.context() as m:
            m.setattr(integrators, "_frac_loop", _eval_g_frac_loop)
            ref = run()
        assert fast.states.tobytes() == ref.states.tobytes()
        assert fast.derivs.tobytes() == ref.derivs.tobytes()
        assert repr(fast.meta) == repr(ref.meta)

    @pytest.mark.parametrize("window", [None, 20])
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    @pytest.mark.parametrize("name", ABM_RUN_FIELDS)
    def test_abm(self, name, n, iters, window, monkeypatch):
        field, x0 = ABM_RUN_FIELDS[name]
        cfg = FracConfig(order=0.82, h=ABM_RUN_H, corrector_iters=iters,
                         memory_window=window)
        self._assert_equals_callback_form(
            lambda: integrate_frac_abm(field, cfg, x0, n * cfg.h),
            monkeypatch)

    @pytest.mark.parametrize("window", [None, 20])
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.0), kernels.DiracKernel(30.5 * ABM_RUN_H),
        kernels.UniformKernel(5 * ABM_RUN_H, 0.2)], ids=repr)
    @pytest.mark.parametrize("name", ABM_RUN_PAIRS)
    def test_frac_dde(self, name, kernel, n, iters, window, monkeypatch):
        pair, phi = ABM_RUN_PAIRS[name]
        cfg = FracConfig(order=0.8, h=ABM_RUN_H, corrector_iters=iters,
                         memory_window=window)
        self._assert_equals_callback_form(
            lambda: integrate_frac_dde(pair, cfg, kernel, phi, n * cfg.h),
            monkeypatch)

    @pytest.mark.parametrize("delayed", [False, True])
    def test_names_like_the_loop_locals_kept_apart(self, delayed):
        # CLASH and CLASH_DELAYED name their coefficients and locals like
        # the loop's own (h, states, k, j, x0, grid, delayed, ...)
        cfg = FracConfig(order=0.8, h=ABM_RUN_H, corrector_iters=2,
                         memory_window=20)
        if delayed:
            def run(f):
                return integrate_frac_dde(f, cfg, kernels.DiracKernel(
                    30.5 * cfg.h), PHIS["callable"], 100 * cfg.h)
            bound = CLASH_DELAYED.bind(0.6, 0.7, 0.9)
        else:
            def run(f):
                return integrate_frac_abm(f, cfg, X111, 100 * cfg.h)
            bound = CLASH.bind(0.5, 0.25, 0.8)
        fast = run(bound)
        ref = run(lambda *args: _clash_by_hand(*args))
        assert fast.states.tobytes() == ref.states.tobytes()
        assert np.all(np.isfinite(fast.states))

    @pytest.mark.parametrize("kernel, loop", [
        (kernels.DiracKernel(0.0), "<abm run: scalar-18, 1>"),
        (kernels.DiracKernel(30.5 * ABM_RUN_H),
         "<abm run: scalar-18 with lookup, 1>")], ids=repr)
    def test_divergence_at_the_same_time(self, kernel, loop, monkeypatch):
        # scalar-18 is a description, so its run inlines it: the error
        # comes from the loop generated for it
        pair = cli._KINDS["scalar-18"].pair(30.0)
        cfg = FracConfig(order=0.9, h=ABM_RUN_H)

        def diverged():
            with pytest.raises(DivergenceError) as info:
                integrate_frac_dde(pair, cfg, kernel,
                                   HistorySpec.constant([1.0]), 500 * cfg.h)
            return info

        fast = diverged()
        assert loop in [f.filename for f in traceback.extract_tb(fast.tb)]
        with monkeypatch.context() as m:
            m.setattr(integrators, "_frac_loop", _eval_g_frac_loop)
            assert diverged().value.t_last == fast.value.t_last > 0.0


#: delayed fields at zero lag and their histories: the bound model pairs,
#: a plain callable, and the fractional benchmarks
ZERO_LAG_PAIRS = {
    "delayed": (models.delayed_field(P321), HistorySpec.constant(X111)),
    "revised-delayed": (models.revised_delayed_field(P321),
                        HistorySpec.constant(0.3 * X111)),
    "ep-delayed": (models.ep_delayed_field(EP), HistorySpec.constant(X_EP)),
    "callable": (_rigid_pair, HistorySpec.constant(X111)),
    "scalar-18": ABM_RUN_PAIRS["scalar-18"],
    "planar-19": (ABM_RUN_PAIRS["planar-19"][0],
                  HistorySpec.constant([0.3, 0.4])),
}


class TestReentrant:
    def test_nested_run_leaves_the_outer_run_alone(self):
        # the nested run of the same dimension and corrector count runs
        # the same generated loop, across a block boundary, inside each
        # field call of the outer run
        cfg = FracConfig(order=0.82, h=ABM_RUN_H, corrector_iters=2)

        def field(x):
            return models.rhs_classical(P321, x)

        def nesting(x):
            inner = integrate_frac_abm(field, cfg, [0.3, 0.2, 0.1],
                                       70 * cfg.h)
            assert np.all(np.isfinite(inner.states))
            return field(x)

        want = integrate_frac_abm(field, cfg, X111, 100 * cfg.h)
        got = integrate_frac_abm(nesting, cfg, X111, 100 * cfg.h)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.derivs.tobytes() == want.derivs.tobytes()


class TestZeroLag:
    """A zero Dirac lag is no delay: the undelayed loops of the pair at
    xd = x, with no lookup."""

    @staticmethod
    def _assert_same(got, want):
        assert got.states.tobytes() == want.states.tobytes()
        assert got.derivs.tobytes() == want.derivs.tobytes()
        assert got.meta == want.meta

    @pytest.mark.parametrize("name", ZERO_LAG_PAIRS)
    def test_dde_is_rk4_of_the_zero_lag_field(self, name, monkeypatch):
        pair, phi = ZERO_LAG_PAIRS[name]
        want = integrate_rk4(lambda x: pair(x, x), phi(0.0), 2.0, H)
        # one span: the public RK4 entry is not called on the way
        monkeypatch.setattr(integrators, "integrate_rk4", None)
        self._assert_same(integrate_dde(pair, kernels.DiracKernel(0.0), phi,
                                        2.0, H), want)

    @pytest.mark.parametrize("window", [None, 20])
    @pytest.mark.parametrize("name", ZERO_LAG_PAIRS)
    def test_frac_dde_is_abm_of_the_zero_lag_field(self, name, window,
                                                   monkeypatch):
        pair, phi = ZERO_LAG_PAIRS[name]
        cfg = FracConfig(order=0.8, h=ABM_RUN_H, corrector_iters=2,
                         memory_window=window)
        want = integrate_frac_abm(lambda x: pair(x, x), cfg, phi(0.0),
                                  100 * cfg.h)
        monkeypatch.setattr(integrators, "integrate_frac_abm", None)
        self._assert_same(integrate_frac_dde(pair, cfg,
                                             kernels.DiracKernel(0.0), phi,
                                             100 * cfg.h), want)

    def test_no_lookup_loop_compiled(self):
        integrators._rk4_run.cache_clear()
        integrators._abm_run.cache_clear()
        for name in ("delayed", "callable"):
            pair, phi = ZERO_LAG_PAIRS[name]
            integrate_dde(pair, kernels.DiracKernel(0.0), phi, 0.5, H)
        pair, phi = ZERO_LAG_PAIRS["scalar-18"]
        integrate_frac_dde(pair, FracConfig(order=0.8, h=H),
                           kernels.DiracKernel(0.0), phi, 0.5)
        rk4, abm = (integrators._rk4_run.cache_info(),
                    integrators._abm_run.cache_info())
        assert (rk4.currsize, abm.currsize) == (2, 1)
        # the loops compiled are those of the pairs' texts at xd = x (the
        # ABM loop's at the one corrector iteration of the run)
        for name, run, iters in (("delayed", integrators._rk4_run, ()),
                                 ("scalar-18", integrators._abm_run, (1,))):
            desc = ZERO_LAG_PAIRS[name][0].binding[0]
            zero = integrators._chain_description(desc, 0)
            assert not zero.delayed and zero.name == desc.name
            hits = run.cache_info().hits
            run(zero, *iters)
            assert run.cache_info().hits == hits + 1
        assert run.cache_info().currsize == 1

    @pytest.mark.parametrize("run", [
        lambda: integrate_dde(_rigid_pair, kernels.DiracKernel(0.3 * H),
                              PHIS["callable"], 0.5, H),
        lambda: integrate_dde(_rigid_pair, kernels.DiracKernel(50.5 * H),
                              PHIS["callable"], 0.6, H),
        lambda: integrate_dde(models.delayed_field(P321),
                              kernels.UniformKernel(0.0, 0.37),
                              PHIS["constant"], 0.5, H),
        lambda: integrate_frac_dde(_rigid_pair, FracConfig(order=0.8, h=H),
                                   kernels.DiracKernel(30.5 * H),
                                   PHIS["callable"], 0.5),
        lambda: integrate_frac_dde(models.delayed_field(P321),
                                   FracConfig(order=0.8, h=H),
                                   kernels.UniformKernel(5 * H, 0.2),
                                   PHIS["callable"], 0.5)])
    def test_lookups_take_their_number_alone(self, run, monkeypatch):
        calls = []

        def spied(*route):
            lookup = _ENGINE(*route)

            def spy(*args):
                calls.append(args)
                return lookup(*args)
            return spy

        monkeypatch.setattr(integrators, "_delayed_argument", spied)
        run()
        assert calls and all(len(args) == 1 and type(args[0]) is int
                             for args in calls)

    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.0), kernels.DiracKernel(30.5 * H),
        kernels.UniformKernel(5 * H, 0.2)], ids=repr)
    def test_frac_dde_states_are_the_grid_table(self, kernel, monkeypatch):
        grids = []

        class Kept(integrators._RunningGrid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        monkeypatch.setattr(integrators, "_RunningGrid", Kept)
        traj = integrate_frac_dde(_rigid_pair, FracConfig(order=0.8, h=H),
                                  kernel, PHIS["callable"], 0.5)
        [grid] = grids
        assert np.shares_memory(traj.states, grid.states)


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


    #: one-component states whose square lands one double below 1e16,
    #: on it and one double above it, and the non-finite ones
    LANDINGS = {"below": math.nextafter(1e8, 0.0), "on": 1e8,
                "above": NEXT_ABOVE, "nan": math.nan, "+inf": math.inf,
                "-inf": -math.inf}

    def test_landings(self):
        squares = [v * v for v in self.LANDINGS.values()]
        assert squares[:3] == [math.nextafter(1e16, 0.0), 1e16,
                               math.nextafter(1e16, math.inf)]

    @staticmethod
    def _kicked(call, value):
        """A dim-1 field that answers ``value`` at its ``call``-th call
        (from 0) and 0 otherwise, whatever the state."""
        calls = itertools.count()
        return lambda x: [value if next(calls) == call else 0.0]

    def _outcome(self, run):
        try:
            return run().states.tobytes()
        except DivergenceError as exc:
            return exc.t_last

    @pytest.mark.parametrize("landing", LANDINGS)
    def test_rk4_squares_on_the_bound(self, landing, monkeypatch):
        # h = 6 makes h/6 one, so a kick of v/2 at step 4's k2 (call 17)
        # moves the zero state to exactly v at node 5, checked at t = 24
        value = self.LANDINGS[landing]

        def run():
            return integrate_rk4(self._kicked(17, value / 2), [0.0], 48.0,
                                 6.0)

        got = self._outcome(run)
        with monkeypatch.context() as m:
            m.setattr(integrators, "_rk4_loop", _array_rk4_loop)
            assert self._outcome(run) == got
        assert got == (24.0 if landing not in ("below", "on") else
                       np.repeat([0.0, value], [5, 4]).tobytes())

    @pytest.mark.parametrize("iters", [1, 2])
    @pytest.mark.parametrize("landing", LANDINGS)
    def test_abm_squares_on_the_bound(self, landing, iters, monkeypatch):
        # at order 1 and h = 2 the corrector scale is one, so a kick of v
        # at step 4's last corrector evaluation makes the iterate exactly v,
        # checked at t = 8
        value = self.LANDINGS[landing]
        cfg = FracConfig(order=1.0, h=2.0, corrector_iters=iters)

        def run():
            return integrate_frac_abm(
                self._kicked(1 + 4 * (iters + 1) + iters - 1, value), cfg,
                [0.0], 16.0)

        got = self._outcome(run)
        with monkeypatch.context() as m:
            m.setattr(integrators, "_frac_loop", _eval_g_frac_loop)
            assert self._outcome(run) == got
        if landing in ("below", "on"):
            states = np.frombuffer(got)
            assert states[5] == value and states[:5].tolist() == [0.0] * 5
        else:
            assert got == 8.0


def _zip_combine(s, a, b, c, d, e):
    return [x + s * (y + 2.0 * (z + u) + v)
            for x, y, z, u, v in zip(a, b, c, d, e)]


def _index_order_squares(a):
    # sum(v * v for v in a) on Python 3.11; newer sum() compensates
    total = 0.0
    for v in a:
        total += v * v
    return total


#: each componentwise template and its zip-comprehension form
ZIP_FORMS = {
    "stage": (integrators._STAGE,
              lambda s, a, b: [x + s * y for x, y in zip(a, b)]),
    "combine": (integrators._COMBINE, _zip_combine),
    "correct": (integrators._CORRECT, lambda s, a, b, c: [
        x + s * (y + z) for x, y, z in zip(a, b, c)]),
    "correct-near": (integrators._CORRECT_NEAR, lambda s, a, b, c, d: [
        x + s * (y + (z + u)) for x, y, z, u in zip(a, b, c, d)]),
    "squares": (integrators._SQUARES, _index_order_squares),
    "cell": (integrators._CELL, lambda s1, s2, a, b, c, d: [
        s1 * (w + y) + s2 * (x - z) for w, x, y, z in zip(a, b, c, d)]),
    "partial": (integrators._PARTIAL, lambda s0, s1, s2, s3, a, b, c, d: [
        s0 * w + s1 * x + s2 * y + s3 * z for w, x, y, z in zip(a, b, c, d)]),
    "sum": (integrators._SUM, lambda a, b: [x + y for x, y in zip(a, b)]),
    "carry": (integrators._CARRY, lambda a, b, c, d: [
        z + ((w - (y - (y - w))) + (x - (y - w)))
        for w, x, y, z in zip(a, b, c, d)]),
    "window": (integrators._WINDOW, lambda s, a, b, c, d, e, f, g: [
        (v7 + (((v1 - v2) + (v3 - v4)) + (v5 - v6))) / s
        for v1, v2, v3, v4, v5, v6, v7 in zip(a, b, c, d, e, f, g)]),
}


#: one run of each integrator with a field that answers ``width``
#: components for a dim-3 state
WRONG_WIDTH_RUNS = {
    "rk4": lambda f: integrate_rk4(lambda x: f(x, x), X111, 0.1, H),
    "dde": lambda f: integrate_dde(f, kernels.DiracKernel(0.3 * H),
                                   PHIS["callable"], 0.1, H),
    "chain": lambda f: integrate_chain(
        f, kernels.GammaKernel(3.0, 2), PHIS["callable"], 0.1, H),
    "frac-abm": lambda f: integrate_frac_abm(
        lambda x: f(x, x), FracConfig(order=0.8, h=H), X111, 0.1),
    "frac-dde": lambda f: integrate_frac_dde(
        f, FracConfig(order=0.8, h=H), kernels.DiracKernel(0.3 * H),
        PHIS["callable"], 0.1),
}


#: a field whose parameters, setup names and locals are named like the
#: locals of the generated loops and closures (stage state y, lookup values
#: w, slopes k1_..k4_, the loop's own scalars, views and callables); the
#: loops must keep them apart
CLASH = models.FieldDescription(
    "clash", 3, False, ("h", "half", "x0"),
    ("k1_0 = h - half", "y0 = x0 * h", "c0 = half + 0.5", "sixth = 0.25",
     "states = 0.1 * x0", "f = -0.3"),
    ("k = states * x1", "j = f * x2"),
    ("k * x2 - y0 * x3 + j", "c0 * x1 * x3 - sixth * x2",
     "k1_0 * x1 * x2 - x0 * x3"))

CLASH_DELAYED = models.FieldDescription(
    "clash-delayed", 3, True, ("i", "w0", "grid"),
    ("delayed = i * w0", "derivs = grid - i", "n = -0.2"),
    ("x = xd1 * derivs", "field = n * xd3"),
    ("delayed * x2 - x + field", "derivs * xd3 * x1 - w0 * x3",
     "i * x1 - grid * xd2 * x2"))


def _clash_by_hand(x, xd=None):
    """CLASH at (h, half, x0) = (0.5, 0.25, 0.8), or CLASH_DELAYED at
    (i, w0, grid) = (0.6, 0.7, 0.9) with ``xd``, written out by hand."""
    x1, x2, x3 = x
    if xd is None:
        k1_0, y0, c0, sixth = 0.5 - 0.25, 0.8 * 0.5, 0.25 + 0.5, 0.25
        k, j = 0.1 * 0.8 * x1, -0.3 * x2
        return (k * x2 - y0 * x3 + j, c0 * x1 * x3 - sixth * x2,
                k1_0 * x1 * x2 - 0.8 * x3)
    xd1, xd2, xd3 = xd
    delayed, derivs = 0.6 * 0.7, 0.9 - 0.6
    u, v = xd1 * derivs, -0.2 * xd3
    return (delayed * x2 - u + v, derivs * xd3 * x1 - 0.7 * x3,
            0.6 * x1 - 0.9 * xd2 * x2)


class TestInlinedRun:
    """The whole-run loops generated from a field's description."""

    @pytest.mark.parametrize("route", ["rk4", "dde", "chain"])
    def test_names_like_the_loop_locals_kept_apart(self, route, monkeypatch):
        # the inlined run against the hand-written field called once per
        # evaluation and against the array form, bit for bit
        if route == "rk4":
            bound = CLASH.bind(0.5, 0.25, 0.8)
            assert bound([1.0, 2.0, 3.0]) == _clash_by_hand([1.0, 2.0, 3.0])

            def run(f):
                return integrate_rk4(f, X111, 1.0, H)
            by_hand = _clash_by_hand
        else:
            bound = CLASH_DELAYED.bind(0.6, 0.7, 0.9)
            assert (bound([1.0, 2.0, 3.0], [0.5, 0.4, 0.3])
                    == _clash_by_hand([1.0, 2.0, 3.0], [0.5, 0.4, 0.3]))
            kernel = (kernels.DiracKernel(0.3 * H) if route == "dde"
                      else kernels.GammaKernel(3.0, 2))

            def run(f):
                return integrate_dde(f, kernel, PHIS["callable"], 1.0, H)
            by_hand = _clash_by_hand
        fast = run(bound)
        ref = run(lambda *args: by_hand(*args))
        with monkeypatch.context() as m:
            m.setattr(integrators, "_rk4_loop", _array_rk4_loop)
            array = run(bound)
        for other in (ref, array):
            assert np.array_equal(fast.states, other.states)
            assert np.array_equal(fast.derivs, other.derivs)
        assert np.all(np.isfinite(fast.states))

    def test_loop_tagged_with_field_and_dim(self):
        # a divergence raised inside the loop names it in the traceback
        with pytest.raises(DivergenceError) as info:
            integrate_rk4(models.classical_field(P321), [1e5, 1e5, 1e5],
                          1.0, H)
        files = [f.filename for f in traceback.extract_tb(info.tb)]
        assert "<rk4 run: classical, 3>" in files
        with pytest.raises(DivergenceError) as info:
            integrate_chain(models.delayed_field(P321),
                            kernels.GammaKernel(3.0, 2),
                            HistorySpec.constant([1e5, 1e5, 1e5]), 1.0, H)
        files = [f.filename for f in traceback.extract_tb(info.tb)]
        assert "<rk4 run: chain(delayed, 2), 9>" in files

    def test_every_route_runs_a_generated_loop(self):
        # every RK4 route runs the generated loop: a lookup and a plain
        # callable each get their own, and the bound fields theirs
        integrators._rk4_run.cache_clear()
        FLOAT_LOOP_RUNS["bound-classical"]()
        FLOAT_LOOP_RUNS["bound-dde-delayed"]()
        FLOAT_LOOP_RUNS["bound-chain-exponential"]()
        FLOAT_LOOP_RUNS["classical"]()
        assert integrators._rk4_run.cache_info().currsize == 4


class TestComponentwiseKernels:
    """The generated straight-line kernels against their zip forms."""

    SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e200]

    @staticmethod
    def _bits(value):
        values = value if isinstance(value, list) else [value]
        return struct.pack(f"{len(values)}d", *values)

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 6, 9])
    @pytest.mark.parametrize("name", ZIP_FORMS)
    def test_bitwise_equals_zip_form(self, name, dim):
        expr, zip_form = ZIP_FORMS[name]
        kernel = integrators._componentwise(expr, dim)
        rng = np.random.default_rng(dim)
        pool = (rng.standard_normal(400)
                * 10.0 ** rng.uniform(-5, 5, 400)).tolist() + self.SPECIAL
        params = inspect.signature(zip_form).parameters
        for _ in range(300):
            args = [[pool[j] for j in rng.integers(len(pool), size=dim)]
                    for _ in params]
            for k, param in enumerate(params):
                if param.startswith("s"):
                    # a scalar: a step-like size, or any value of the pool
                    args[k] = (float(rng.uniform(1e-4, 0.1))
                               if rng.random() < 0.5
                               else pool[rng.integers(len(pool))])
            assert self._bits(kernel(*args)) == self._bits(zip_form(*args))

    @pytest.mark.parametrize("stages", [1, 2])
    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_chain_field_bitwise_equals_slice_form(self, dim, stages):
        def pair(x, xd):
            return [u * v - v for u, v in zip(x, xd)]

        def slice_form(s, y):
            # the field as slices of y: the model field of x and the last
            # stage, then each stage relaxing towards the one before it
            return [*pair(y[:dim], y[len(y) - dim:]),
                    *[s * (a - b) for a, b in zip(y[:-dim or None],
                                                  y[dim:])]]

        rng = np.random.default_rng(10 * dim + stages)
        pool = (rng.standard_normal(400)
                * 10.0 ** rng.uniform(-5, 5, 400)).tolist() + self.SPECIAL
        chain = integrators._chain_description(
            integrators._call(dim, True), stages)
        for _ in range(300):
            y = [pool[j] for j in rng.integers(len(pool),
                                               size=dim * (stages + 1))]
            s = pool[rng.integers(len(pool))]
            got = chain.bind(pair, s)(y)
            assert type(got) is tuple
            assert self._bits(list(got)) == self._bits(slice_form(s, y))

    def test_each_kernel_compiled_once(self, monkeypatch):
        for cached in (integrators._componentwise, integrators._rk4_run,
                       integrators._abm_run, integrators._chain_description,
                       integrators._call, models._binder):
            cached.cache_clear()
        sources = []

        def counted(source, *args):
            sources.append(args[0])
            return compile(source, *args)

        monkeypatch.setattr(models, "compile", counted, raising=False)
        for _ in range(2):
            FLOAT_LOOP_RUNS["classical"]()
            FLOAT_LOOP_RUNS["chain-erlang"]()
            FRAC_RUNS["abm"]()
            integrate_frac_abm(FRAC_FIELDS[1][0], FracConfig(order=0.8, h=H),
                               FRAC_FIELDS[1][1], 0.1)
        assert len(sources) == len(set(sources))
        # the runs' plain callables call rhs_classical and rhs_delayed
        assert set(sources) == {
            "<rk4 run: callable, 3>", "<rk4 run: chain(callable, 2), 9>",
            "<field: chain(callable, 2)>", "<field: classical>",
            "<field: delayed>", "<abm run: callable, 3>",
            "<abm run: callable, 1>"}

    def test_nothing_generated_at_import(self):
        code = ("import rigidmem.integrators as m; "
                "print(m._componentwise.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "0"

    def test_no_numpy_polynomial_at_import(self):
        # numpy.polynomial takes milliseconds to import, which every CLI
        # start would pay; nor may the uniform stability route load it
        code = ("import sys, rigidmem; "
                "print('numpy.polynomial' in sys.modules); "
                "from rigidmem import kernels, models, stability; "
                "stability.ep_delayed_check(models.InertiaSetup(3, 2, 1, "
                "1.0, 1.0), kernels.UniformKernel(0.1, 0.5)); "
                "print('numpy.polynomial' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize("run", ["rk4", "abm"])
    def test_dim_zero(self, run):
        if run == "rk4":
            traj = integrate_rk4(lambda x: (), [], 1.0, 0.1)
        else:
            traj = integrate_frac_abm(lambda x: (),
                                      FracConfig(order=0.8, h=0.1), [], 1.0)
        assert traj.states.shape == traj.derivs.shape == (11, 0)

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("run", WRONG_WIDTH_RUNS)
    def test_wrong_width_field_rejected_at_node_0(self, run, width):
        calls = []

        def field(x, xd):
            calls.append(1)
            return (0.0,) * width

        with pytest.raises(ValueError, match="broadcast"):
            WRONG_WIDTH_RUNS[run](field)
        assert len(calls) == 1
