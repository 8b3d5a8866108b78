"""Mittag-Leffler values, and plain-array oracles for the Caputo stepper
and the fractional bracket.

The oracles are independent of the library's schemes: the L1 Caputo
derivative (exact for piecewise-linear samples) checks the ABM solution,
and the closed-form Caputo derivative of a monomial checks that the
fractional energy gradient, contracted with the structure tensor, gives
(order + 1) times the classical field.
"""

import math

import numpy as np
import pytest

from rigidmem import fraccalc, models
from rigidmem.integrators import FracConfig, integrate_frac_abm

P321 = models.RigidBodyParams(3, 2, 1)


def _caputo_l1(x, h, order):
    """L1 Caputo derivative of the samples x[k] = x(k*h), 0 at node 0."""
    b = np.diff(np.arange(x.size) ** (1.0 - order))
    conv = np.convolve(b, np.diff(x))[: x.size - 1]
    return np.r_[0.0, conv] * h ** (-order) / math.gamma(2.0 - order)


def _caputo_monomial(gamma, order, x):
    """Caputo derivative of x**gamma at ``order``, x >= 0: the Gamma ratio
    Gamma(1 + gamma) / Gamma(1 + gamma - order) * x**(gamma - order)."""
    return (math.gamma(1 + gamma) / math.gamma(1 + gamma - order)
            * np.asarray(x, dtype=float) ** (gamma - order))


def _fractional_bracket(p, order, x):
    """P(x) @ D^order h1, h1 = sum a_i x_i**(order+1) / Gamma(order+1)."""
    coeffs = np.array([p.a1, p.a2, p.a3]) / math.gamma(order + 1)
    grad = coeffs * _caputo_monomial(order + 1, order, x)
    # P(x) @ grad for the antisymmetric structure tensor P(x)
    return np.cross(grad, np.asarray(x, dtype=float))


class TestCaputoMonomial:
    def test_classical_limit_of_linear(self):
        val = _caputo_monomial(1.0, 1.0 - 1e-8, 2.7)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_gamma_ratio_value(self):
        val = _caputo_monomial(2.0, 0.5, 1.0)
        assert val == pytest.approx(2.0 / math.gamma(2.5), rel=1e-12)
        assert val == pytest.approx(1.5045055, abs=1e-6)

    def test_energy_gradient_identity(self):
        # gamma = order + 1 gives (order+1) * Gamma(order+1) * x
        for order in (0.3, 0.5, 0.82):
            for x in (0.0, 0.7, 2.0):
                val = _caputo_monomial(order + 1, order, x)
                assert val == pytest.approx(
                    (order + 1) * math.gamma(order + 1) * x, rel=1e-12,
                    abs=1e-12)

    def test_classical_limit_general_power(self):
        got = _caputo_monomial(2.5, 1.0 - 1e-8, 1.7)
        assert got == pytest.approx(2.5 * 1.7**1.5, rel=1e-6)


class TestCaputoL1:
    def test_linear_function(self):
        h = 1e-3
        ts = np.arange(0, 1 + h / 2, h)
        out = _caputo_l1(ts.copy(), h, 0.5)
        exact = ts**0.5 / math.gamma(1.5)
        assert np.max(np.abs(out - exact)) < 1e-3

    def test_constant_vanishes(self):
        out = _caputo_l1(np.full(200, 3.7), 0.01, 0.3)
        assert np.max(np.abs(out)) == 0.0

    def test_residual_against_abm_solution(self):
        # scheme consistency away from the t^alpha initial layer
        h = 1e-3
        cfg = FracConfig(order=0.5, h=h)
        traj = integrate_frac_abm(lambda x: [-v for v in x], cfg, [1.0], 1.0)
        resid = _caputo_l1(traj.states[:, 0], h, 0.5) + traj.states[:, 0]
        assert np.max(np.abs(resid[100:])) < 5e-3


class TestMittagLeffler:
    def test_exponential_case(self):
        assert fraccalc.mittag_leffler(1.0, 1.0) == pytest.approx(
            math.e, rel=1e-14)

    def test_zero_argument(self):
        for order in (0.2, 0.5, 1.0, 2.0):
            assert fraccalc.mittag_leffler(order, 0.0) == 1.0

    def test_cosh_case(self):
        assert fraccalc.mittag_leffler(2.0, 1.0) == pytest.approx(
            math.cosh(1.0), rel=1e-14)

    def test_half_order_against_erfc(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        for x in (0.5, 1.0, 2.0):
            got = fraccalc.mittag_leffler(0.5, -x)
            ref = math.exp(x * x) * math.erfc(x)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_asymptotic_branch(self):
        got = fraccalc.mittag_leffler(0.5, -20.0)
        ref = math.exp(400.0) * math.erfc(20.0)
        assert got == pytest.approx(ref, rel=0.05)

    def test_domain_errors(self):
        with pytest.raises(OverflowError):
            fraccalc.mittag_leffler(0.5, 51.0)
        with pytest.raises(OverflowError):
            fraccalc.mittag_leffler(0.5, 50.0)
        with pytest.raises(ValueError):
            fraccalc.mittag_leffler(0.0, 1.0)

    def test_abm_cross_check(self):
        # ABM solution of D^alpha y = lam*y at t equals E_alpha(lam * t^alpha)
        for lam in (-1.0, -0.5):
            for order in (0.5, 0.82):
                cfg = FracConfig(order=order, h=1e-3)
                traj = integrate_frac_abm(lambda x: [lam * v for v in x], cfg,
                                          [1.0], 1.0)
                ref = fraccalc.mittag_leffler(order, lam)
                assert abs(traj.final_state[0] - ref) < 2e-3


class TestBracketRhsCheck:
    def test_example_value(self):
        out = _fractional_bracket(P321, 0.5, [1.0, 1.0, 1.0])
        assert np.allclose(out / 1.5, [1, -2, 1], rtol=1e-12)

    def test_axis_state(self):
        out = _fractional_bracket(P321, 0.5, [2.0, 0.0, 0.0])
        assert np.array_equal(out, np.zeros(3))

    def test_classical_limit(self):
        x = np.array([0.5, 1.5, 2.5])
        out = _fractional_bracket(P321, 1.0, x)
        assert np.allclose(out / 2.0, models.rhs_classical(P321, x),
                           rtol=1e-12)

    def test_matches_classical_on_positive_octant(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            x = rng.uniform(0.01, 3.0, 3)
            order = rng.uniform(0.1, 1.0)
            out = _fractional_bracket(P321, order, x) / (order + 1)
            ref = models.rhs_classical(P321, x)
            assert np.allclose(out, ref, rtol=1e-10, atol=1e-12)
