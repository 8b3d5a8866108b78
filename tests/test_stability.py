import cmath
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from rigidmem import kernels, models, stability

P321 = models.RigidBodyParams(3, 2, 1)
S321 = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)


def _ep_linearization(s):
    """(A, B) = (df/domega, df/domegad) of rhs_ep_delayed at omega_1."""
    w = models.find_equilibria(s, s.m)[0]
    return (models.jacobian(lambda u: models.rhs_ep_delayed(s, u, w), w),
            models.jacobian(lambda u: models.rhs_ep_delayed(s, w, u), w))


def _fd_jacobian(rhs, x, eps=1e-7):
    n = x.size
    jac = np.zeros((n, n))
    for j in range(n):
        dv = np.zeros(n)
        dv[j] = eps
        jac[:, j] = (rhs(x + dv) - rhs(x - dv)) / (2 * eps)
    return jac


class TestCharQuadratic:
    def test_leading_coefficient_required(self):
        with pytest.raises(ValueError):
            stability.CharQuadratic(0.0, 1.0, 1.0)

    def test_roots_sorted(self):
        q = stability.CharQuadratic(1.0, 9.0, 20.0)
        assert q.roots() == (-5.0, -4.0)


class TestCharFracEquilibrium:
    def test_plain_examples(self):
        q1 = stability.char_frac_equilibrium(P321, "M1", 1.0)
        assert (q1.c2, q1.c1, q1.c0) == (1.0, 0.0, 2.0)
        assert q1.zero_factor_order == 1
        q2 = stability.char_frac_equilibrium(P321, "M2", 1.0)
        assert (q2.c2, q2.c1, q2.c0) == (1.0, 0.0, -1.0)
        q3 = stability.char_frac_equilibrium(P321, "M3", 1.0)
        assert (q3.c2, q3.c1, q3.c0) == (1.0, 0.0, 2.0)

    def test_revised_example(self):
        q = stability.char_frac_equilibrium(P321, "M1", 1.0, revised=True)
        assert (q.c2, q.c1, q.c0) == (1.0, 9.0, 20.0)

    def test_matches_jacobian_blocks(self):
        # coefficients equal trace/det of the transverse Jacobian block at
        # each axis point, for both the plain and revised fields
        blocks = {1: (1, 2), 2: (0, 2), 3: (0, 1)}
        for revised in (False, True):
            rhs = (lambda x: models.rhs_revised(P321, x)) if revised \
                else (lambda x: models.rhs_classical(P321, x))
            for which, m in (("M1", 1.0), ("M2", 1.3), ("M3", 0.8)):
                idx = {"M1": 1, "M2": 2, "M3": 3}[which]
                eq = np.zeros(3)
                eq[idx - 1] = m
                jac = _fd_jacobian(rhs, eq)
                rows = blocks[idx]
                block = jac[np.ix_(rows, rows)]
                q = stability.char_frac_equilibrium(P321, which, m,
                                                    revised=revised)
                assert q.c1 == pytest.approx(-np.trace(block), abs=1e-5)
                assert q.c0 == pytest.approx(np.linalg.det(block), abs=1e-5)

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            stability.char_frac_equilibrium(P321, "M1", 0.0)

    @pytest.mark.parametrize("m, message", [
        (1e155, "A = -?inf is not finite"), (1e-200, "det A underflows"),
        (math.nan, "m = nan"), (math.inf, "m = inf"), (-math.inf, "m = -inf")])
    @pytest.mark.parametrize("revised", [False, True])
    def test_out_of_float_range_raises(self, m, message, revised):
        # at M1 the quadratic is w^2 + 2 m^2 (plain field): its verdict
        # does not depend on m, but det = 2 m^2 (and the revised field's
        # trace) leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=message):
                stability.char_frac_equilibrium(P321, "M1", m,
                                                revised=revised)

    def test_overflowing_sector_roots_raise(self):
        # det = 2 m^2 = 7.2e307 is finite, but the discriminant -4 det
        # is not: the roots came out NaN and the verdict marginal
        q = stability.char_frac_equilibrium(P321, "M1", 6e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="sector quadratic"):
                stability.matignon_classify(q, 0.8)

    @pytest.mark.parametrize("m", [1e-160, 1e150])
    def test_float_range_edges_kept(self, m):
        q = stability.char_frac_equilibrium(P321, "M1", m)
        assert (q.c1, q.c0) == (0.0, 2.0 * m * m)
        assert stability.matignon_classify(q, 0.8).verdict == (
            stability.STABLE)


# --- hand-derived characteristic algebra, kept as an oracle -----------------

def _hand_sector(p, which, m, revised):
    """(c1, c0) of the sector quadratic, derived by hand for the plain and
    the revised field at the axis equilibrium ``which``."""
    idx = int(which[1])
    coef = (p.a1, p.a2, p.a3)
    ai = coef[idx - 1]
    aj, ak = coef[:idx - 1] + coef[idx:]
    m2 = m * m
    const = (ai - aj) * (ai - ak) * m2
    if not revised:
        return 0.0, const
    return -ai * (aj + ak - 2.0 * ai) * m2, const * (ai * ai * m2 + 1.0)


def _hand_ep_coeffs(s):
    """(q1, q2, q0) of the ep-delayed bracket, derived by hand."""
    I1, I2, I3, cp, m = s.I1, s.I2, s.I3, s.coupling, s.m
    m2 = m * m
    q1 = cp * m2 / I1 * ((I2 - I1) / I2 + (I3 - I1) / I3)
    q2 = cp * cp * m2 * m2 * (I2 - I1) * (I3 - I1) / (I1 * I1 * I2 * I3)
    q0 = (I1 - I2) * (I3 - I1) * m2 / (I1 * I1 * I2 * I3)
    return q1, q2, q0


def _assert_rel(got, ref, rel=1e-12):
    for g, r in zip(got, ref):
        assert abs(g - r) <= rel * abs(r), (got, ref)


def _random_params(rng):
    a3 = float(rng.uniform(0.1, 3.0))
    a2 = a3 + float(rng.uniform(0.01, 3.0))
    return models.RigidBodyParams(a2 + float(rng.uniform(0.01, 3.0)), a2, a3)


#: extremes: a tiny step would underflow B at coupling 1e-170
EXTREME_M = (1e-60, 1e60)


class TestJacobianAgreement:
    """The complex-step linearization against the hand formulas."""

    @pytest.mark.parametrize("revised", [False, True])
    def test_sector_quadratics(self, revised):
        rng = np.random.default_rng(600 + revised)
        cases = [(_random_params(rng),
                  float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)))
                 for _ in range(300)]
        cases += [(P321, m) for m in EXTREME_M]
        for p, m in cases:
            for which in ("M1", "M2", "M3"):
                q = stability.char_frac_equilibrium(p, which, m,
                                                    revised=revised)
                assert (q.c2, q.zero_factor_order) == (1.0, 1)
                _assert_rel((q.c1, q.c0), _hand_sector(p, which, m, revised))
                if not revised:
                    assert math.copysign(1.0, q.c1) == 1.0  # not -0.0

    def test_ep_bracket(self):
        rng = np.random.default_rng(602)
        setups = [_random_setup(rng) for _ in range(300)]
        setups += [models.InertiaSetup(3, 2, 1, coupling=1e-170, m=1.0)]
        setups += [models.InertiaSetup(3, 2, 1, coupling=1.0, m=m)
                   for m in EXTREME_M]
        for s in setups:
            _assert_rel(stability._ep_bracket(*stability._ep_blocks(s)),
                        _hand_ep_coeffs(s))
            A, B = _ep_linearization(s)
            # the axis row and column vanish, A has a zero diagonal and
            # B is diagonal: the bracket needs only (tr B, det B, det A)
            assert not (A[0].any() or A[:, 0].any() or np.diag(A).any())
            assert np.count_nonzero(B - np.diag(np.diag(B))) == 0


class TestMatignon:
    def test_examples(self):
        hurwitz = stability.CharQuadratic(1.0, 9.0, 20.0)
        for order in (0.25, 0.5, 1.0):
            assert stability.matignon_classify(hurwitz, order).verdict == \
                stability.STABLE
        imag_pair = stability.CharQuadratic(1.0, 0.0, 2.0)
        assert stability.matignon_classify(imag_pair, 1.0).verdict == \
            stability.MARGINAL
        assert stability.matignon_classify(imag_pair, 0.82).verdict == \
            stability.STABLE
        positive = stability.CharQuadratic(1.0, 0.0, -1.0)
        for order in (0.25, 0.82, 1.0):
            assert stability.matignon_classify(positive, order).verdict == \
                stability.UNSTABLE

    def test_agrees_with_classical_test_at_order_one(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            c2 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            c1 = rng.uniform(-3.0, 3.0)
            c0 = rng.uniform(-3.0, 3.0)
            q = stability.CharQuadratic(c2, c1, c0)
            rep = stability.matignon_classify(q, 1.0)
            roots = np.roots([c2, c1, c0])
            classical = bool(np.all(roots.real < -1e-12))
            assert (rep.verdict == stability.STABLE) == classical

    def test_verdict_table_with_bruteforce_roots(self):
        for which, stable_below_one in (("M1", True), ("M2", False),
                                        ("M3", True)):
            q = stability.char_frac_equilibrium(P321, which, 1.0)
            roots = np.roots([q.c2, q.c1, q.c0])
            for order in (0.5, 0.82, 1.0):
                expected_stable = bool(np.all(
                    np.abs(np.angle(roots)) > order * np.pi / 2 + 1e-12))
                rep = stability.matignon_classify(q, order)
                assert (rep.verdict == stability.STABLE) == expected_stable
                if which == "M2":
                    assert rep.verdict == stability.UNSTABLE
                elif order == 1.0:
                    assert rep.verdict == stability.MARGINAL
                else:
                    assert rep.verdict == (stability.STABLE
                                           if stable_below_one
                                           else stability.UNSTABLE)
        q_rev = stability.char_frac_equilibrium(P321, "M1", 1.0, revised=True)
        for order in (0.1, 0.5, 0.82, 1.0):
            assert stability.matignon_classify(q_rev, order).verdict == \
                stability.STABLE

    def test_report_text_serialization(self):
        rep = stability.matignon_classify(
            stability.char_frac_equilibrium(P321, "M1", 1.0), 0.82)
        text = rep.to_text()
        assert "verdict = asymptotically-stable" in text
        assert "root1_re" in text and "margin1" in text


class TestCharEp:
    def test_zero_coupling_reduces_to_quadratic(self):
        s = models.InertiaSetup(3, 2, 1, coupling=0.0, m=1.0)
        for lam in (0.5 + 0.0j, 1j, 2.0 - 3.0j):
            got = stability.char_ep_eval(s, kernels.DiracKernel(1.0), lam)
            assert got == pytest.approx(lam * lam + 1.0 / 9.0, abs=1e-14)

    def test_matches_block_determinant(self):
        A, B = _ep_linearization(S321)
        rng = np.random.default_rng(42)
        kern = kernels.GammaKernel(1.5, 1)
        for _ in range(100):
            lam = complex(rng.uniform(-1.0, 3.0), rng.uniform(-5.0, 5.0))
            k1 = kernels.laplace(kern, lam)
            M = lam * np.eye(2) - A[1:, 1:] - k1 * B[1:, 1:]
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            assert abs(det - stability.char_ep_eval(S321, kern, lam)) < 1e-12

    def test_zero_m_gives_lambda_squared(self):
        # m = 0 selects no axis equilibrium to linearize at, as for the
        # sector quadratic; the bracket would be lambda^2
        s = models.InertiaSetup.unchecked(3, 2, 1, 1.0, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            stability.char_ep_eval(s, kernels.DiracKernel(0.3), 1.7 - 0.4j)


class TestEpFloatRange:
    """Blocks and bracket coefficients that leave the float range raise,
    rather than give a verdict on inf."""

    @pytest.mark.parametrize("kernel, m, message", [
        (kernels.DiracKernel(0.5), 1e78, "q2 = det B"),
        (kernels.DiracKernel(0.5), 1e100, "q2 = det B"),
        (kernels.GammaKernel(2.0, 2), 1e78, "q2 = det B"),
        (kernels.GammaKernel(2.0, 1), 1e78, "q2 = det B"),
        (kernels.UniformKernel(0.1, 0.5), 1e78, "q2 = det B"),
        (kernels.UniformKernel(0.1, 0.5), 1e160, "transverse block B")],
        ids=repr)
    def test_overflow_raises(self, kernel, m, message):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                stability.ep_delayed_check(s, kernel)

    def test_report_inside_the_range_kept(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1e77)
        assert stability.ep_delayed_check(
            s, kernels.DiracKernel(0.5)).to_text() == (
            "verdict = unstable\ncritical_delay = 2.3561944901923443e-154\n"
            "structural_zero_roots = 1\nkernel_lag = 0.5\n"
            "rhp_root_count = uncertain\n"
            "tau_c_formula = 2.5000000000000004e-154\n")

    @pytest.mark.parametrize("kernel", [
        kernels.DiracKernel(0.5), kernels.UniformKernel(0.1, 0.5),
        kernels.GammaKernel(2.0, 2)], ids=repr)
    @pytest.mark.parametrize("m", [1.0, 1e100, 1e160])
    def test_zero_coupling_b_is_zero(self, kernel, m):
        # at m = 1e160 the complex step multiplies the zero coupling by an
        # overflowing term; B is zero all the same, and A stays finite
        s = models.InertiaSetup(3, 2, 1, coupling=0.0, m=m)
        a, b = stability._ep_blocks(s)
        assert b.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert np.all(np.isfinite(a))
        rep = stability.ep_delayed_check(s, kernel)
        assert rep.verdict == stability.MARGINAL
        assert rep.metadata["rhp_root_count"] == "uncertain"

    def test_blocks_formed_once(self, monkeypatch):
        calls = []
        jacobian = models.jacobian

        def counted(*args):
            calls.append(1)
            return jacobian(*args)

        monkeypatch.setattr(models, "jacobian", counted)
        stability.ep_delayed_check(S321, kernels.UniformKernel(0.1, 0.5))
        assert len(calls) == 1


class TestTauC:
    def test_benchmark_value(self):
        assert stability.tau_c_formula(S321) == 2.5

    def test_coupling_scaling(self):
        s = models.InertiaSetup(3, 2, 1, coupling=2.0, m=1.0)
        assert stability.tau_c_formula(s) == 1.25

    def test_m_scaling(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=2.0)
        assert stability.tau_c_formula(s) == 0.625

    def test_joint_scaling_invariance(self):
        scale = 1.7
        s = models.InertiaSetup(3, 2, 1, coupling=1.0 / scale**2,
                                m=1.0 * scale)
        assert stability.tau_c_formula(s) == pytest.approx(
            stability.tau_c_formula(S321), rel=1e-14)

    def test_hypothesis_violations(self):
        s = models.InertiaSetup(3, 2, 1, coupling=0.0, m=1.0)
        with pytest.raises(ValueError):
            stability.tau_c_formula(s)
        s2 = models.InertiaSetup.unchecked(1, 2, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            stability.tau_c_formula(s2)


class TestCriticalDelayScan:
    def test_zero_coupling_finds_nothing(self):
        s = models.InertiaSetup(3, 2, 1, coupling=0.0, m=1.0)
        assert stability.critical_delay_scan(s) is None

    def test_returns_python_float(self):
        assert type(stability.critical_delay_scan(S321)) is float

    def test_benchmark_crossing(self):
        from scipy.optimize import brentq

        tau_star = stability.critical_delay_scan(S321)
        assert tau_star is not None and tau_star >= 0
        # re-evaluation residual at the located crossing; the root frequency
        # is recovered independently by bisecting the real part to machine
        # precision, where the imaginary part must vanish as well
        def f(omega):
            return stability.char_ep_eval(S321, kernels.DiracKernel(tau_star),
                                          1j * omega)

        ws = np.linspace(0.5, 1.2, 200)
        res = [f(w).real for w in ws]
        residual = math.inf
        for i in range(len(ws) - 1):
            if res[i] == 0.0 or res[i] * res[i + 1] < 0:
                w_root = brentq(lambda w: f(w).real, ws[i], ws[i + 1],
                                xtol=1e-15)
                residual = min(residual, abs(f(w_root)))
        assert residual < 1e-10
        # independent closed-form crossing for this benchmark: the unit
        # root z = -i at omega = 5/6, so tau = (pi/2) / (5/6) = 3*pi/5
        assert tau_star == pytest.approx(3 * math.pi / 5, abs=1e-9)

    def test_crossing_flips_simulation(self):
        from rigidmem.integrators import HistorySpec, integrate_dde
        tau_star = stability.critical_delay_scan(S321)
        A, B = _ep_linearization(S321)
        pair = lambda u, ud: A @ u + B @ ud
        u0 = np.array([0.0, 0.01, 0.01])
        norms = {}
        for fac in (0.1, 1.5):
            traj = integrate_dde(pair, kernels.DiracKernel(fac * tau_star),
                                 HistorySpec.constant(u0), 40.0, 0.01)
            norms[fac] = (np.linalg.norm(traj.states[0]),
                          np.linalg.norm(traj.states[-1]))
        assert norms[0.1][1] < 0.01 * norms[0.1][0]
        assert norms[1.5][1] > 5.0 * norms[1.5][0]


class TestFracDelayCharEval:
    def test_classical_reduction(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        B = np.zeros((2, 2))
        for lam in (0.5 + 0.2j, 1.0 + 0.0j, 2j):
            got = stability.frac_delay_char_eval(A, B, 1.0,
                                                 kernels.DiracKernel(0.7),
                                                 lam)
            ref = np.linalg.det(lam * np.eye(2) - A)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_scalar_case_formula(self):
        a = -1.3
        tau = 0.4
        for lam in (0.5, 1.0 + 2.0j):
            got = stability.frac_delay_char_eval(
                np.zeros((1, 1)), np.array([[a]]), 0.7,
                kernels.DiracKernel(tau), lam)
            lam_c = complex(lam)
            ref = lam_c**0.7 - a * cmath.exp(-lam_c * tau)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_diagonal_decoupled_roots(self):
        A = np.diag([1.0, -2.0])
        B = np.diag([0.5, 0.5])
        order = 0.6
        # with tau = 0 the roots satisfy lambda^order = eigenvalue + b;
        # the target must lie inside the principal sector |arg| <= order*pi
        target = 1.0 + 0.5
        lam = target ** (1.0 / order)
        got = stability.frac_delay_char_eval(A, B, order,
                                             kernels.DiracKernel(0.0), lam)
        assert abs(got) < 1e-9

    def test_branch_cut_warning(self):
        with pytest.warns(RuntimeWarning):
            stability.frac_delay_char_eval(np.zeros((1, 1)),
                                           np.array([[1.0]]), 0.5,
                                           kernels.DiracKernel(0.1), -1.0)


class TestScalarCheck:
    def test_no_delay_stable(self):
        rep = stability.scalar_frac_delay_check(-1.0, 0.5, 0.0)
        assert rep.verdict == stability.STABLE

    def test_positive_gain_unstable(self):
        for tau in (0.0, 0.5, 2.0):
            rep = stability.scalar_frac_delay_check(1.0, 0.6, tau)
            assert rep.verdict == stability.UNSTABLE
            assert rep.metadata["rhp_root_count"] >= 1

    @pytest.mark.parametrize("a, tau, verdict", [
        (-1.0, 1.5, stability.STABLE), (-1.0, 1.6, stability.UNSTABLE),
        (-2.0, 0.7, stability.STABLE), (-2.0, 0.8, stability.UNSTABLE)])
    def test_integer_order_matches_closed_form(self, a, tau, verdict):
        # at order 1, x' = a x(t - tau) is stable iff |a| tau < pi/2
        assert (abs(a) * tau < math.pi / 2) == (verdict == stability.STABLE)
        rep = stability.scalar_frac_delay_check(a, 1.0, tau)
        assert rep.verdict == verdict

    def test_order_outside_domain(self):
        for order in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                stability.scalar_frac_delay_check(-1.0, order, 0.5)

    def test_benchmark_stable(self):
        rep = stability.scalar_frac_delay_check(-1.0, 0.7, 0.5)
        assert rep.verdict == stability.STABLE
        assert rep.to_text() == ("verdict = asymptotically-stable\n"
                                 "alpha = 0.7\nrhp_root_count = 0\n")


class TestPlanarCheck:
    def test_benchmark_stable(self):
        rep = stability.planar_frac_delay_check(1.0, 2.0, 0.5, 0.1)
        assert rep.verdict == stability.STABLE
        assert rep.metadata["rhp_root_count"] == 0

    def test_degenerate_k1_not_asymptotically_stable(self):
        rep = stability.planar_frac_delay_check(0.0, 1.0, 0.5, 0.01)
        assert rep.verdict != stability.STABLE

    def test_classical_limit_matches_eigenvalues(self):
        k1, k2 = 1.0, 2.0
        rep = stability.planar_frac_delay_check(k1, k2, 0.9999, 1e-6)
        eigs = np.linalg.eigvals(np.array([[-k1, 1.0], [1.0, -(k1 + k2)]]))
        assert bool(np.all(eigs.real < 0)) == (rep.verdict == stability.STABLE)

    def test_validation(self):
        with pytest.raises(ValueError):
            stability.planar_frac_delay_check(-1.0, 2.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            stability.planar_frac_delay_check(1.0, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            stability.planar_frac_delay_check(1.0, 2.0, 0.5, -0.1)

    def test_zero_lag_matches_eigenvalues(self):
        # at tau = 0 the system is x' = (A + B) x, eigenvalues -2 +- sqrt(2)
        rep = stability.planar_frac_delay_check(1.0, 2.0, 0.8, 0.0)
        assert rep.verdict == stability.STABLE
        assert rep.metadata["rhp_root_count"] == 0


def _scalar_oracle(a, order, tau):
    """Closed-form scalar-18 verdict and relative distance to the boundary:
    unstable for a > 0, stable for a < 0 exactly below the first crossing
    tau* = (1 - order/2) pi / |a|^(1/order)."""
    if a > 0:
        return stability.UNSTABLE, math.inf
    tau_star = (1 - order / 2) * math.pi / (-a) ** (1 / order)
    if tau == 0:
        return stability.STABLE, math.inf
    gap = abs(tau - tau_star) / tau_star
    return (stability.STABLE if tau < tau_star else stability.UNSTABLE), gap


def _planar_oracle(k1, k2):
    """Closed-form planar-19 verdict: stable iff k1 (k1 + k2) > 1, at every
    lag and order; and the distance of k1 (k1 + k2) to 1."""
    prod = k1 * (k1 + k2)
    verdict = stability.STABLE if prod > 1 else stability.UNSTABLE
    return verdict, abs(prod - 1)


def _scalar_char(a, order, tau):
    return lambda lam: lam**order - a * np.exp(-lam * tau)


def _planar_char(k1, k2, order, tau):
    def f(lam):
        w = lam**order
        return (w + k1) * (w + k1 + k2) - np.exp(-lam * tau)
    return f


def _bounded_contour_count(f, radius, tau):
    """Depth-first contour count of ``f`` on a box holding the disc of
    ``radius``, which holds every right-half-plane root, sampled finely
    enough for exp(-lambda tau) to turn little between samples."""
    side = 1.25 * radius
    count, ratio = _scalar_count_rhp_roots(
        f, side, side, samples_per_edge=max(96, int(40 * side * tau)))
    assert ratio > 1e-9
    return count


def _refuse_contour(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_rhp_roots called")

    monkeypatch.setattr(stability, "count_rhp_roots", refuse)


def _crossing_gap(omega, phase, tau):
    """Distance of omega*tau to the nearest phase + 2 pi k, k >= 0, relative
    to omega*tau."""
    turn = 2 * math.pi
    k = max(0, round((omega * tau - phase) / turn))
    return abs(omega * tau - phase - turn * k) / max(omega * tau, 1e-300)


class TestClosedFormCounts:
    @pytest.mark.parametrize("a, order, tau, count", [
        (100.0, 0.8, 0.0, 1), (-1.0, 0.5, 10.0, 4), (-5.0, 0.5, 10.0, 80)])
    def test_scalar_regressions(self, a, order, tau, count):
        # the real root 100^1.25 lies outside a fixed 50 x 50 box, and past
        # tau* the imaginary edge of such a box turns by radians per sample
        rep = stability.scalar_frac_delay_check(a, order, tau)
        assert rep.verdict == stability.UNSTABLE
        assert rep.metadata["rhp_root_count"] == count
        assert _bounded_contour_count(_scalar_char(a, order, tau),
                                      abs(a) ** (1 / order), tau) == count

    def test_scalar_huge_phase_in_constant_memory(self):
        # omega*tau is about 3.7e12: a list over every crossing, or a
        # relative 1e-12 band around each, would not do
        tracemalloc.start()
        try:
            rep = stability.scalar_frac_delay_check(-55.74, 0.149, 7.43)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == stability.UNSTABLE
        assert peak < 1 << 20

    def test_crossing_lag(self):
        # a root on the axis: marginal, unless one already lies to the right
        for a, order, verdict in ((-1.0, 0.5, stability.MARGINAL),
                                  (-3.0, 0.9, stability.MARGINAL),
                                  (2.0, 0.7, stability.UNSTABLE)):
            omega = abs(a) ** (1 / order)
            phase = (math.pi if a < 0 else 2 * math.pi) - order * math.pi / 2
            rep = stability.scalar_frac_delay_check(a, order, phase / omega)
            assert rep.verdict == verdict
            assert rep.metadata["rhp_root_count"] == "uncertain"

    def test_unresolved_crossings(self):
        # omega*tau = 5e300 (crossings closer than its ulps), omega*tau
        # beyond the float range and omega = 150^200 leave the count
        # unknown, but many crossings have passed
        for a, order, tau in ((2.0, 0.001, 0.5), (2.0, 0.0011, 1e40),
                              (150.0, 0.005, 1.0)):
            for sign in (1.0, -1.0):
                rep = stability.scalar_frac_delay_check(sign * a, order, tau)
                assert rep.verdict == stability.UNSTABLE
                assert rep.metadata["rhp_root_count"] == "uncertain"
        for a, order, count in ((-2.0, 0.001, 0), (150.0, 0.005, 1)):
            rep = stability.scalar_frac_delay_check(a, order, 0.0)
            assert rep.metadata["rhp_root_count"] == count

    def test_planar_boundary(self):
        rep = stability.planar_frac_delay_check(0.5, 1.5, 0.8, 3.0)
        assert rep.verdict == stability.MARGINAL
        assert rep.metadata["rhp_root_count"] == "uncertain"

    def test_no_contour(self, monkeypatch):
        _refuse_contour(monkeypatch)
        assert stability.scalar_frac_delay_check(
            -1.0, 0.5, 10.0).metadata["rhp_root_count"] == 4
        assert stability.planar_frac_delay_check(
            0.3, 0.5, 0.8, 3.0).verdict == stability.UNSTABLE

    def test_scalar_sweep(self):
        rng = np.random.default_rng(1717)
        contour_checks = 0
        for _ in range(2000):
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 150.0))
            order = float(rng.uniform(0.1, 1.0))
            omega = abs(a) ** (1 / order)
            tau = float(rng.uniform(0.0, 20.0)) * (
                (1 - order / 2) * math.pi / omega)
            verdict, gap = _scalar_oracle(a, order, tau)
            phase = (math.pi if a < 0 else 2 * math.pi) - order * math.pi / 2
            if gap < 1e-6 or _crossing_gap(omega, phase, tau) < 1e-6:
                continue
            rep = stability.scalar_frac_delay_check(a, order, tau)
            assert rep.verdict == verdict, (a, order, tau)
            if contour_checks < 10 and order >= 0.3 and omega * tau < 40:
                contour_checks += 1
                assert rep.metadata["rhp_root_count"] == \
                    _bounded_contour_count(_scalar_char(a, order, tau),
                                           omega, tau), (a, order, tau)
        assert contour_checks == 10

    def test_planar_sweep(self):
        rng = np.random.default_rng(1919)
        contour_checks = 0
        for _ in range(2000):
            k1, k2 = (float(v) for v in 2.0 - rng.uniform(0.0, 2.0, 2))
            order = float(rng.uniform(0.1, 1.0))
            tau = float(rng.uniform(0.0, 20.0))
            verdict, gap = _planar_oracle(k1, k2)
            if gap < 1e-6:
                continue
            rep = stability.planar_frac_delay_check(k1, k2, order, tau)
            assert rep.verdict == verdict, (k1, k2, order, tau)
            if contour_checks < 10 and (verdict == stability.STABLE) == (
                    contour_checks % 3 == 0):
                contour_checks += 1
                assert rep.metadata["rhp_root_count"] == \
                    _bounded_contour_count(_planar_char(k1, k2, order, tau),
                                           1.0, tau), (k1, k2, order, tau)
        assert contour_checks == 10

    def test_ep_dirac_no_contour(self, monkeypatch):
        # the Dirac route is the crossing count, the exponential and
        # Erlang routes the chain polynomial and the uniform route the
        # collocated generator: no kernel calls the contour
        _refuse_contour(monkeypatch)
        for s in (S321, models.InertiaSetup(3, 2, 1, 0.0, 1.0),
                  models.InertiaSetup(3, 2, 1, -1.0, 30.0)):
            for lag in (0.0, 0.5, 2.0, 50.0):
                stability.ep_delayed_check(s, kernels.DiracKernel(lag))
            for rate in (0.1, 2.0, 1e10):
                stability.ep_delayed_check(s, kernels.GammaKernel(rate, 1))
                stability.ep_delayed_check(s, kernels.GammaKernel(rate, 2))
            for offset, width in ((0.0, 0.05), (0.1, 0.5)):
                stability.ep_delayed_check(
                    s, kernels.UniformKernel(offset, width))

    def test_ep_report_fields(self):
        dirac, uniform = kernels.DiracKernel(0.7), kernels.UniformKernel(
            0.1, 0.5)
        for s in _crossing_setups()[:12]:
            for kern in (dirac, uniform, kernels.GammaKernel(2.0, 1),
                         kernels.GammaKernel(0.5, 2)):
                rep = stability.ep_delayed_check(s, kern)
                assert rep.critical_delay == stability.critical_delay_scan(s)
                if s.coupling:
                    assert rep.metadata["tau_c_formula"] == repr(
                        stability.tau_c_formula(s))
                else:
                    assert "tau_c_formula" not in rep.metadata
                assert rep.metadata.get("kernel_lag") == (
                    "0.7" if kern is dirac else None)
        text = stability.ep_delayed_check(S321, dirac).to_text()
        assert "critical_delay = 1.8849555921538754\n" in text
        assert "tau_c_formula = 2.5\n" in text

    @pytest.mark.parametrize("setup, lag, count", [
        ((3, 2, 1, 1.0, 30.0), 0.01, 2),
        ((3.7795, 2.49122, 1.51189, 0.794665, 2.0), 6.27617, 4)])
    def test_ep_dirac_regressions(self, setup, lag, count):
        # a fixed 50 x 50 contour called both stable: the first has its
        # roots near Re lambda = +98, outside the box; the second crosses
        # at omega = 1.47 and 0.225, and its long lag turns exp(-lambda tau)
        # by more than pi between samples of the imaginary edge
        s = models.InertiaSetup(*setup)
        rep = stability.ep_delayed_check(s, kernels.DiracKernel(lag))
        assert rep.verdict == stability.UNSTABLE
        assert rep.metadata["rhp_root_count"] == count
        roots = _dde_roots(*_fd_ep_blocks(s), lag)
        assert np.count_nonzero(roots.real > 0) == count

    def test_ep_dirac_sweep(self):
        rng = np.random.default_rng(1313)
        checked = counted = leftward = 0
        for i in range(200):
            inertia = np.sort(rng.uniform(0.5, 5.0, 3))[::-1]
            coupling = float(rng.uniform(-2.0, 2.0))
            m = float(rng.uniform(0.2, 6.0)) * (10.0 if i % 3 == 0 else 1.0)
            s = models.InertiaSetup(*(float(v) for v in inertia), coupling, m)
            tau = float(rng.uniform(0.0, 20.0)) * (
                stability.critical_delay_scan(s) or 1.0)
            roots = _dde_roots(*_fd_ep_blocks(s), tau)
            top = float(roots.real.max())
            if abs(top) < 1e-6:
                continue
            rep = stability.ep_delayed_check(s, kernels.DiracKernel(tau))
            assert rep.verdict == (stability.UNSTABLE if top > 0
                                   else stability.STABLE), (s, tau)
            count = rep.metadata["rhp_root_count"]
            # 48 nodes miss the highest pair of counts near 30 and more
            if count <= 20:
                assert count == np.count_nonzero(roots.real > 0), (s, tau)
                counted += 1
            checked += 1
            q = stability._ep_bracket(*stability._ep_blocks(s))
            leftward += any(d < 0 and phase < omega * tau for omega, phase, d
                            in stability._crossings(q))
        assert checked > 190 and counted > 150 and leftward > 10

    def test_mixed_directions(self):
        # a pair moves right at tau = 0.5 + k pi and back at tau = 1 + 2 k pi
        cross = [(2.0, 1.0, 1), (1.0, 1.0, -1)]
        for tau, want in ((0.4, (stability.STABLE, 0)),
                          (0.7, (stability.UNSTABLE, 2)),
                          (1.2, (stability.STABLE, 0)),
                          (3.8, (stability.UNSTABLE, 2)),
                          (1.0, (stability.MARGINAL, "uncertain"))):
            assert stability._crossing_verdict(0, cross, tau) == want
        # roots moving left past more crossings than a float tells apart
        assert stability._crossing_verdict(2, [(1e300, 1.0, -1)], 1e10) == (
            stability.MARGINAL, "uncertain")

    def test_ep_rational_report(self):
        # every root of the chain polynomial, sorted by (re, im), with its
        # margin |arg lambda| - pi/2; the count is the negative margins
        for s in _crossing_setups()[2:14]:
            for kern in (kernels.GammaKernel(2.0, 1),
                         kernels.GammaKernel(0.5, 2)):
                rep = stability.ep_delayed_check(s, kern)
                assert len(rep.roots) == 2 + 2 * kern.shape
                assert all(type(w) is complex for w in rep.roots)
                assert rep.roots == sorted(rep.roots,
                                           key=lambda w: (w.real, w.imag))
                assert rep.margins == [abs(cmath.phase(w)) - math.pi / 2
                                       for w in rep.roots]
                count = rep.metadata["rhp_root_count"]
                assert count == sum(m < 0 for m in rep.margins)
                assert rep.verdict == (stability.UNSTABLE if count
                                       else stability.STABLE)
                assert rep.dominant_root == rep.roots[
                    int(np.argmin(rep.margins))]
                assert rep.alpha is None and rep.structural_zero_roots == 1
        text = stability.ep_delayed_check(
            S321, kernels.GammaKernel(2.0, 2)).to_text()
        assert "root6_im = " in text and "margin6 = " in text
        assert "rhp_root_count = 0\n" in text

    @pytest.mark.parametrize("setup, kern, count", [
        ((4.39734, 2.31139, 1.59861, -0.754625, 31.299),
         kernels.GammaKernel(0.262547, 2), 2),
        ((4.76546, 3.01903, 2.84783, -0.86384, 59.967),
         kernels.GammaKernel(18.2484, 1), 2),
        ((3.73887, 2.54758, 0.755485, 1.98145, 53.5446),
         kernels.GammaKernel(18.3348, 2), 4)])
    def test_ep_rational_regressions(self, setup, kern, count):
        # a fixed 50 x 50 contour called all three stable with count 0;
        # the first has its pair 0.734 +- 0.906i inside that box
        s = models.InertiaSetup(*setup)
        rep = stability.ep_delayed_check(s, kern)
        assert rep.verdict == stability.UNSTABLE
        assert rep.metadata["rhp_root_count"] == count
        roots = _chain_roots(*_fd_ep_blocks(s), kern)
        assert np.count_nonzero(roots.real > 0) == count

    def test_ep_rational_sweep(self):
        rng = np.random.default_rng(7)
        checked = unstable = 0
        for i in range(400):
            inertia = np.sort(rng.uniform(0.5, 5.0, 3))[::-1]
            coupling = float(rng.uniform(-2.0, 2.0))
            m = float(rng.uniform(0.2, 6.0)) * (10.0 if i % 3 == 0 else 1.0)
            rate = float(rng.uniform(0.1, 20.0))
            s = models.InertiaSetup(*(float(v) for v in inertia), coupling, m)
            kern = (kernels.GammaKernel(rate, 1) if i % 2 == 0
                    else kernels.GammaKernel(rate, 2))
            roots = _chain_roots(*_fd_ep_blocks(s), kern)
            if np.abs(roots.real).min() < 1e-6:
                continue
            rep = stability.ep_delayed_check(s, kern)
            count = int(np.count_nonzero(roots.real > 0))
            assert rep.metadata["rhp_root_count"] == count, (s, kern)
            assert rep.verdict == (stability.UNSTABLE if count
                                   else stability.STABLE), (s, kern)
            got = np.array(rep.roots)
            for root in roots:
                assert np.abs(got - root).min() <= 1e-10 * max(1.0, abs(root))
            checked += 1
            unstable += count > 0
        assert checked > 390 and unstable > 100

    def test_ep_rational_extreme_rates(self):
        # at rate 1e10 the kernel is a lag 0 to within the float
        # resolution; from about 1e77 leading coefficients drop: marginal
        # and uncertain, never an error
        assert stability.ep_delayed_check(
            S321, kernels.DiracKernel(0.0)).verdict == stability.STABLE
        for shape in (1, 2):
            rep = stability.ep_delayed_check(S321,
                                             kernels.GammaKernel(1e10, shape))
            assert (rep.verdict, rep.metadata["rhp_root_count"]) == (
                stability.STABLE, 0)
            for rate in (1e300, 1e160, 1e155, 1e80, 1e77, 1e-200, 5e-324):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rep = stability.ep_delayed_check(
                        S321, kernels.GammaKernel(rate, shape))
                assert (rep.verdict, rep.metadata["rhp_root_count"]) in (
                    (stability.STABLE, 0), (stability.MARGINAL, "uncertain"))

    @staticmethod
    def _erlang_oracle(q, rate):
        """Every root of the Erlang chain polynomial of the bracket ``q``,
        (lambda + r)^4 (lambda^2 - q0) - q1 r^2 lambda (lambda + r)^2
        + q2 r^4, by mpmath's Durand-Kerner iteration at 30 digits with
        2100 extra bits (the coefficients span 1200 decades at 1e300),
        started near the origin and around -r."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            q1, q2, q0 = map(mpmath.mpf, q)
            r = mpmath.mpf(rate)
            b2 = [1, 2 * r, r * r]
            b4 = [1, 4 * r, 6 * r**2, 4 * r**3, r**4]
            poly = [b4[0], b4[1], b4[2] - q0 * b4[0], b4[3] - q0 * b4[1],
                    b4[4] - q0 * b4[2], -q0 * b4[3], -q0 * b4[4]]
            for i, c in enumerate(b2):
                poly[3 + i] -= q1 * r * r * c
            poly[-1] += q2 * r**4
            init = [mpmath.mpc(0.4, 0.9), mpmath.mpc(-0.4, -0.9)] + [
                -r * mpmath.mpc(1, 0.3 * (k + 1)) for k in range(4)]
            roots = mpmath.polyroots(poly, maxsteps=100, extraprec=2100,
                                     roots_init=init)
            return np.array([complex(z) for z in roots])

    @pytest.mark.parametrize("rate", [1e40, 1e300])
    def test_ep_rational_small_roots_at_extreme_rates(self, rate):
        # np.roots returned the pair near the origin as 0j, 0j at 1e40 and
        # as -0.8333, 0 at 1e300; the reversed polynomial finds it
        exact = self._erlang_oracle(
            stability._ep_bracket(*stability._ep_blocks(S321)), rate)
        small = exact[np.abs(exact) < 1e3]
        assert small.size == 2
        for shape in (2, 1):
            rep = stability.ep_delayed_check(S321,
                                             kernels.GammaKernel(rate, shape))
            got = np.array([w for w in rep.roots if abs(w) < 1e3])
            assert got.size == 2
            for root in small:
                assert np.abs(got - root).min() <= 1e-12 * abs(root)
        rep = stability.ep_delayed_check(S321, kernels.GammaKernel(rate, 2))
        if rate == 1e40:
            # the poles near -rate, four within 2e-8 of it, are found to
            # the accuracy a fourfold cluster allows
            assert len(rep.roots) == 6
            for root in rep.roots:
                assert np.abs(exact - root).min() <= 1e-3 * abs(root)
            assert (rep.verdict, rep.metadata["rhp_root_count"]) == (
                stability.STABLE, 0)
        else:
            # the leading coefficients underflow: roots dropped
            assert (rep.verdict, rep.metadata["rhp_root_count"]) == (
                stability.MARGINAL, "uncertain")


#: (setup, uniform kernel, rhp_root_count) that a fixed 50 x 50 contour
#: called stable with count 0, and one whose count has not settled at 96
#: nodes
UNIFORM_REGRESSIONS = [
    ((4.039222673876224, 1.5023501472689909, 1.131700890940037,
      -1.9211529156069256, 5.755643704383248),
     (1.3300511847484893, 1.9053060060578948), 8),
    ((2.6634450663616187, 2.069832097182005, 2.0660888091121525,
      -1.6268315649943448, 3.371134966085145),
     (1.8428549240675633, 1.7106200913952234), 2),
    ((4.0698433868235435, 0.8905829129582534, 0.5889460262355142,
      -1.7746269662630638, 56.840221811698),
     (1.5643003634155548, 1.1427829940455434), "uncertain"),
]


class TestUniformGenerator:
    @pytest.mark.parametrize("setup, window, count", UNIFORM_REGRESSIONS)
    def test_regressions(self, setup, window, count):
        s, kern = models.InertiaSetup(*setup), kernels.UniformKernel(*window)
        rep = stability.ep_delayed_check(s, kern)
        assert rep.verdict == stability.UNSTABLE
        assert rep.metadata["rhp_root_count"] == count
        assert rep.roots == [] and rep.margins == []
        roots = _uniform_roots(*_fd_ep_blocks(s), kern, 96)
        assert roots.real.max() > 0
        if count == "uncertain":
            return
        assert np.count_nonzero(roots.real > 0) == count
        # the library's rightmost root is a zero of the bracket
        lam = stability._uniform_generator(*stability._ep_blocks(s), kern, 48)
        top = complex(lam[np.argmax(lam.real)])
        q1, q2, q0 = stability._ep_bracket(*stability._ep_blocks(s))
        k1 = kernels.laplace(kern, top)
        scale = abs(top) ** 2 + abs(q1 * top * k1) + abs(q2 * k1 * k1) \
            + abs(q0)
        assert abs(stability.char_ep_eval(s, kern, top)) <= 1e-11 * scale
        assert top.real == pytest.approx(
            roots.real.max(), rel=1e-9)

    def test_sweep(self, monkeypatch):
        # each verdict against a test-local generator at twice the nodes
        # the library's last pair of node counts ended on
        nodes, generator = [], stability._uniform_generator
        monkeypatch.setattr(stability, "_uniform_generator",
                            lambda a, b, kern, n: nodes.append(n)
                            or generator(a, b, kern, n))
        rng = np.random.default_rng(2727)
        checked = counted = unstable = 0
        for i in range(40):
            s, kern = _uniform_draw(rng, i)
            nodes.clear()
            rep = stability.ep_delayed_check(s, kern)
            roots = _uniform_roots(*_fd_ep_blocks(s), kern, 2 * nodes[-1])
            top = float(roots.real.max())
            if abs(top) < 1e-6:
                continue
            checked += 1
            unstable += top > 0
            count = rep.metadata["rhp_root_count"]
            if count == "uncertain":  # unsettled at 96 nodes: the sign only
                assert nodes[-1] == 96, (s, kern)
                assert (rep.verdict == stability.UNSTABLE) == (top > 0)
                continue
            assert rep.verdict == (stability.UNSTABLE if top > 0
                                   else stability.STABLE), (s, kern)
            assert count == np.count_nonzero(roots.real > 0), (s, kern)
            counted += 1
        assert checked >= 38 and counted >= 34 and 10 <= unstable < checked

    @pytest.mark.parametrize("spectra, want", [
        # settled at 24 and 48 nodes
        ({24: [-1.0, 0.5 + 1j], 48: [-1.0, 0.5 + 1j]},
         (stability.UNSTABLE, 1)),
        ({24: [-1.0, -0.5 + 1j], 48: [-1.0, -0.5 + 1j]},
         (stability.STABLE, 0)),
        # a root within 1e-9 max(1, |lambda|) of the axis
        ({n: [-1.0, 1e-10 + 1j] for n in (24, 48)},
         (stability.MARGINAL, "uncertain")),
        ({n: [-1.0, 5e-9 + 10j] for n in (24, 48)},
         (stability.MARGINAL, "uncertain")),
        ({n: [0.5, -3e-10 + 1j] for n in (24, 48)},
         (stability.UNSTABLE, "uncertain")),
        # the rightmost root moves by more than its distance from the axis:
        # 96 nodes, and unsettled if it keeps doing so
        ({24: [-1.0, -0.5], 48: [-1.0, -0.1], 96: [-1.0, -0.1 + 1e-9]},
         (stability.STABLE, 0)),
        ({24: [-1.0, -0.5], 48: [-1.0, -0.1], 96: [-1.0, -0.01]},
         (stability.MARGINAL, "uncertain")),
        # counts unsettled at 96 nodes: unstable only when roots lie
        # surely right at both 48 and 96
        ({24: [0.5], 48: [0.5, 0.7], 96: [0.5, 0.7, 0.9]},
         (stability.UNSTABLE, "uncertain")),
        ({24: [0.5], 48: [-0.5, -0.7], 96: [0.5, 0.7, 0.9]},
         (stability.MARGINAL, "uncertain")),
    ])
    def test_verdict_rules(self, spectra, want, monkeypatch):
        monkeypatch.setattr(stability, "_uniform_generator",
                            lambda a, b, kern, n: np.array(spectra[n],
                                                           dtype=complex))
        assert stability._uniform_verdict(
            None, None, kernels.UniformKernel(0.0, 1.0)) == want

    @pytest.mark.parametrize("width", [1e-4, 1e-8, 1e-12])
    def test_narrow_window_is_lag_zero(self, width):
        # the generator's entries grow as 1 / width, and so does the
        # rounding of its rightmost roots; their signs still hold
        for s in (S321, models.InertiaSetup(3, 2, 1, -1.0, 1.0)):
            lag0 = stability.ep_delayed_check(s, kernels.DiracKernel(0.0))
            rep = stability.ep_delayed_check(
                s, kernels.UniformKernel(0.0, width))
            assert (rep.verdict, rep.metadata["rhp_root_count"]) == (
                lag0.verdict, lag0.metadata["rhp_root_count"])

    def test_kernel_row_exact(self):
        # A = a I and B = b I give the roots of lambda = a + b k1(lambda)
        # for each component; the generator's rightmost one solves it
        kern = kernels.UniformKernel(0.7, 1.3)
        for a, b in ((-1.0, 0.5), (0.3, -2.0), (-0.2, -1.5)):
            lam = stability._uniform_generator(a * np.eye(2), b * np.eye(2),
                                               kern, 48)
            top = complex(lam[np.argmax(lam.real)])
            assert abs(top - a - b * kernels.laplace(kern, top)) <= 1e-12


class TestRootOnContour:
    def test_ep_coupling_zero(self):
        # the bracket is lambda^2 + 1/9 at every lag: both roots sit on the
        # imaginary axis, where a contour's phase steps add up to one turn
        for kern in (kernels.DiracKernel(0.5),
                     kernels.UniformKernel(0.2, 1.0),
                     kernels.GammaKernel(2.0, 1),
                     kernels.GammaKernel(2.0, 2)):
            rep = stability.ep_delayed_check(
                models.InertiaSetup(3, 2, 1, 0.0, 1.0), kern)
            assert rep.verdict == stability.MARGINAL
            assert rep.metadata["rhp_root_count"] == "uncertain"
            assert rep.roots == [] and rep.margins == []
            assert "rhp_root_count = uncertain\n" in rep.to_text()

    def test_zero_sample(self):
        # a = 0 leaves the root lambda = 0 on the imaginary axis
        rep = stability.scalar_frac_delay_check(0.0, 0.5, 0.0)
        assert rep.verdict == stability.MARGINAL
        assert rep.metadata["rhp_root_count"] == "uncertain"


# --- one-lambda-at-a-time reference copies of the stability loops ----------

def _scalar_count_rhp_roots(f, sigma_max=50.0, omega_max=50.0, *,
                            samples_per_edge=96, max_depth=28):
    """Depth-first contour count that calls a scalar ``f`` once per point."""
    corners = [complex(0.0, -omega_max), complex(sigma_max, -omega_max),
               complex(sigma_max, omega_max), complex(0.0, omega_max),
               complex(0.0, -omega_max)]
    total = 0.0
    min_abs = math.inf
    all_abs = []

    for za, zb in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, samples_per_edge + 1)
        pts = [za + (zb - za) * t for t in ts]
        vals = [f(z) for z in pts]
        all_abs.extend(abs(v) for v in vals)
        stack = [(pts[i], vals[i], pts[i + 1], vals[i + 1], 0)
                 for i in range(len(pts) - 1)][::-1]
        while stack:
            z1, f1, z2, f2, depth = stack.pop()
            min_abs = min(min_abs, abs(f1), abs(f2))
            if f1 == 0 or f2 == 0:
                return -1, 0.0
            dphi = cmath.phase(f2 / f1)
            if abs(dphi) > math.pi / 2.0 and depth < max_depth:
                zm = 0.5 * (z1 + z2)
                fm = f(zm)
                all_abs.append(abs(fm))
                stack.append((zm, fm, z2, f2, depth + 1))
                stack.append((z1, f1, zm, fm, depth + 1))
            else:
                total += dphi
    scale = float(np.median(all_abs)) or 1.0
    count = total / (2.0 * math.pi)
    rounded = int(round(count))
    if abs(count - rounded) > 0.25:
        raise RuntimeError(
            f"argument-principle count did not settle (got {count:.3f}); "
            "refine the contour")
    return rounded, min_abs / scale


def _newton_root_pair(s, tau, omega):
    """Polish (tau, omega) so bracket(i*omega) = 0 for the lag-tau kernel;
    None unless the residual falls below 1e-10."""

    def fun(t, w):
        val = stability.char_ep_eval(s, kernels.DiracKernel(max(t, 0.0)),
                                     1j * w)
        return np.array([val.real, val.imag])

    x = np.array([tau, omega])
    for _ in range(50):
        f0 = fun(*x)
        if np.linalg.norm(f0) < 1e-14:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            eps = 1e-7 * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += eps
            jac[:, j] = (fun(*xp) - f0) / eps
        try:
            step = np.linalg.solve(jac, f0)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if np.linalg.norm(step) < 1e-14 * (1.0 + np.linalg.norm(x)):
            break
    residual = float(np.linalg.norm(fun(*x)))
    if residual > 1e-10 or x[0] < -1e-12 or x[1] <= 0:
        return None
    return max(x[0], 0.0), x[1], residual


def _scalar_critical_delay_scan(s, omega_max=50.0, grid=4000):
    """The former crossing scan: the quadratic in z solved one omega at a
    time on a fixed grid, sign changes of |z| - 1 bisected and each
    candidate polished by Newton.  It misses crossings above omega_max and
    pairs of crossings that share one grid cell."""
    if s.coupling == 0:
        return None
    q1, q2, q0 = _hand_ep_coeffs(s)

    def unit_gaps(omega):
        b = -q1 * 1j * omega
        cc = -(omega * omega) - q0
        sq = cmath.sqrt(b * b - 4.0 * q2 * cc)
        roots = sorted(((-b + sq) / (2.0 * q2), (-b - sq) / (2.0 * q2)),
                       key=lambda z: (z.real, z.imag))
        return roots, [abs(z) - 1.0 for z in roots]

    omegas = np.linspace(omega_max / grid, omega_max, grid)
    candidates = []
    _, prev_gaps = unit_gaps(omegas[0])
    for i in range(1, len(omegas)):
        roots, gaps = unit_gaps(omegas[i])
        for slot in range(2):
            if prev_gaps[slot] == 0.0 or prev_gaps[slot] * gaps[slot] < 0.0:
                lo, hi = omegas[i - 1], omegas[i]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    _, g = unit_gaps(mid)
                    if prev_gaps[slot] * g[slot] <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                omega_star = 0.5 * (lo + hi)
                z_star, gap = unit_gaps(omega_star)
                z = z_star[slot]
                if abs(gap[slot]) < 1e-6 and abs(z) > 0:
                    tau0 = (-cmath.phase(z)) % (2.0 * math.pi) / omega_star
                    candidates.append((tau0, omega_star))
        prev_gaps = gaps
    taus = []
    for tau0, omega0 in candidates:
        polished = _newton_root_pair(s, tau0, omega0)
        if polished is not None:
            taus.append(polished[0])
    return min(taus) if taus else None


def _random_setup(rng):
    """Python floats, as a parsed config gives them."""
    I3 = float(rng.uniform(0.5, 3.0))
    I2 = I3 + float(rng.uniform(0.01, 3.0))
    I1 = I2 + float(rng.uniform(0.01, 3.0))
    coupling = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
    return models.InertiaSetup(I1, I2, I3, coupling,
                               float(rng.uniform(0.1, 5.0)))


def _random_kernel(rng, kind):
    if kind == "dirac":
        return kernels.DiracKernel(rng.uniform(0.0, 3.0))
    if kind == "uniform":
        return kernels.UniformKernel(rng.uniform(0.0, 1.0),
                                     rng.uniform(0.1, 2.0))
    if kind == "exponential":
        return kernels.GammaKernel(rng.uniform(0.3, 5.0), 1)
    return kernels.GammaKernel(rng.uniform(0.3, 5.0), 2)


def _assert_same_contour(f, f_array=None, **window):
    """The array contour on ``f`` (through an adapter) and on ``f_array``
    agrees with the scalar reference; returns the count."""
    ref_points, points = [], []

    def scalar(z):
        ref_points.append(complex(z))
        return f(z)

    def adapter(zs):
        points.extend(complex(z) for z in zs)
        return np.array([f(z) for z in zs])

    ref = _scalar_count_rhp_roots(scalar, **window)
    got = stability.count_rhp_roots(adapter, **window)
    assert got[0] == ref[0]
    assert Counter(points) == Counter(ref_points)
    assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    if f_array is not None:
        direct = stability.count_rhp_roots(f_array, **window)
        assert direct[0] == ref[0]
        assert direct[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    return ref[0]


class TestArrayContour:
    @pytest.mark.parametrize("seed", range(8))
    def test_scalar_18(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        order, tau = rng.uniform(0.5, 0.95), rng.uniform(0.0, 2.0)
        count = _assert_same_contour(
            lambda lam: lam**order - a * cmath.exp(-lam * tau),
            lambda lam: lam**order - a * np.exp(-lam * tau))
        rep = stability.scalar_frac_delay_check(a, order, tau)
        assert rep.metadata["rhp_root_count"] == count

    @pytest.mark.parametrize("seed", range(8))
    def test_planar_19(self, seed):
        rng = np.random.default_rng(200 + seed)
        k1, k2 = rng.uniform(0.1, 2.0, 2)
        order, tau = rng.uniform(0.5, 1.0), rng.uniform(0.05, 2.0)
        A = np.array([[-k1, 1.0], [0.0, -(k1 + k2)]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        kern = kernels.DiracKernel(tau)
        f = lambda lam: stability.frac_delay_char_eval(A, B, order, kern, lam)
        count = _assert_same_contour(f, f)
        rep = stability.planar_frac_delay_check(k1, k2, order, tau)
        assert rep.metadata["rhp_root_count"] == count

    @pytest.mark.parametrize("kind", ["dirac", "uniform", "exponential",
                                      "erlang"])
    @pytest.mark.parametrize("seed", range(4))
    def test_ep_delayed(self, kind, seed):
        rng = np.random.default_rng(300 + seed)
        s = _random_setup(rng)
        kern = _random_kernel(rng, kind)
        f = lambda lam: stability.char_ep_eval(s, kern, lam)
        count = _assert_same_contour(f, f)
        rep = stability.ep_delayed_check(s, kern)
        assert rep.metadata["rhp_root_count"] == count

    def test_uniform_series_cutoff(self):
        # a window this small puts most samples inside |width*lam| < 1e-4
        kern = kernels.UniformKernel(0.2, 1.0)
        f = lambda lam: stability.char_ep_eval(S321, kern, lam)
        _assert_same_contour(f, f, sigma_max=2e-4, omega_max=2e-4)

    def test_zero_boundary_sample(self):
        # lambda = 0 is the middle sample of the imaginary edge
        assert _scalar_count_rhp_roots(lambda z: z) == (-1, 0.0)
        assert stability.count_rhp_roots(lambda z: z) == (-1, 0.0)

    def test_zero_refinement_midpoint(self):
        # a root between two samples of the bottom edge is bisected onto
        z0 = complex(0.5 * 50.0 / 96.0, -50.0)

        def f(z):
            return 0.0j if abs(z - z0) < 1e-12 else z - z0

        assert _scalar_count_rhp_roots(f) == (-1, 0.0)
        assert stability.count_rhp_roots(
            lambda zs: np.array([f(z) for z in zs])) == (-1, 0.0)

    def test_one_call_per_depth(self):
        calls = []

        def f(lam):
            calls.append(len(lam))
            return stability.char_ep_eval(S321, kernels.DiracKernel(0.5), lam)

        stability.count_rhp_roots(f)
        assert calls[0] == 4 * 97
        assert len(calls) <= 1 + 28


def _unit_circle_crossings(q1, q2, q0):
    """Every (tau, omega) with tau in [0, 2 pi / omega) that puts a root of
    lambda^2 - q1 lambda z + q2 z^2 - q0, z = exp(-lambda tau), on i*omega,
    sorted by tau.

    |z| = 1 forces omega onto the real roots of the resultant of the
    quadratic in z and its unit-circle reflection; numpy.roots gives z at
    each.
    """
    omegas = [math.sqrt(q2 - q0)] if q2 - q0 > 0 else []
    disc = q1 * q1 - 4 * (q2 + q0)
    if disc >= 0:
        for sign in (1.0, -1.0):
            omegas += [root for root in ((sign * q1 + math.sqrt(disc)) / 2,
                                         (sign * q1 - math.sqrt(disc)) / 2)
                       if root > 0]
    found = []
    for omega in omegas:
        for z in np.roots([q2, -1j * q1 * omega, -(omega * omega + q0)]):
            if abs(abs(z) - 1) < 1e-8:
                found.append(((-np.angle(z)) % (2 * math.pi) / omega, omega))
    return sorted(found)


def _fd_ep_blocks(s):
    """Transverse (A0, A1) of u' = A0 u + A1 u(t - tau) at (m / I1, 0, 0).

    Independent of stability._ep_bracket: central-difference Jacobians of
    models.rhs_ep_delayed, exact up to rounding at any step because the
    field is quadratic.
    """
    w_eq = np.array([s.m / s.I1, 0.0, 0.0])
    a0 = _fd_jacobian(lambda w: models.rhs_ep_delayed(s, w, w_eq), w_eq, 1.0)
    a1 = _fd_jacobian(lambda w: models.rhs_ep_delayed(s, w_eq, w), w_eq, 1.0)
    return a0[1:, 1:], a1[1:, 1:]


def _exact_crossings(s):
    """:func:`_unit_circle_crossings` of the lag-tau bracket of ``s``."""
    a0, a1 = _fd_ep_blocks(s)
    return _unit_circle_crossings(np.trace(a1), np.linalg.det(a1),
                                  -np.linalg.det(a0))


def _collocated(a0, tau, nodes):
    """The pseudospectral collocation of the solution operator's generator
    of u' = A0 u + (delayed terms) on [-tau, 0] (Breda, Maset & Vermiglio,
    SIAM J. Sci. Comput. 27(2), 2005), delayed terms left out, and its
    nodes: Chebyshev nodes tau (cos(j pi / nodes) - 1) / 2, Trefethen's
    differentiation matrix in the rows past the first."""
    d = a0.shape[0]
    x = np.cos(np.pi * np.arange(nodes + 1) / nodes)
    c = np.ones(nodes + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(nodes + 1)
    diff = np.outer(c, 1 / c) / (x[:, None] - x[None, :] + np.eye(nodes + 1))
    diff -= np.diag(diff.sum(axis=1))
    gen = np.kron(diff * (2.0 / tau), np.eye(d))
    gen[:d, :] = 0.0
    gen[:d, :d] = a0
    return gen, tau * (x - 1.0) / 2.0


def _dde_roots(a0, a1, tau, nodes=48):
    """Approximate characteristic roots of u' = A0 u + A1 u(t - tau): the
    eigenvalues of :func:`_collocated`, whose rightmost ones converge
    spectrally in ``nodes``."""
    d = a0.shape[0]
    if tau == 0:
        return np.linalg.eigvals(a0 + a1)
    gen, _ = _collocated(a0, tau, nodes)
    gen[:d, -d:] = a1
    return np.linalg.eigvals(gen)


def _uniform_roots(a0, a1, kernel, nodes):
    """Approximate characteristic roots of u' = A0 u + A1 (1/width) times
    the integral of u(t - s) over [offset, offset + width]: the eigenvalues
    of :func:`_collocated` on [-(offset + width), 0], whose first block row
    adds A1 times the window average of each node's Lagrange basis
    polynomial (barycentric form, numpy's Gauss-Legendre rule)."""
    d = a0.shape[0]
    lo, hi = -(kernel.offset + kernel.width), -kernel.offset
    gen, theta = _collocated(a0, -lo, nodes)
    t, w = np.polynomial.legendre.leggauss(nodes // 2 + 2)
    points = (hi - lo) / 2 * t + (hi + lo) / 2
    bary = (-1.0) ** np.arange(nodes + 1)
    bary[0] = bary[-1] = bary[0] / 2
    terms = bary / (points[:, None] - theta)
    basis = terms / terms.sum(axis=1, keepdims=True)
    gen[:d] += np.kron(w @ basis / 2, a1)
    return np.linalg.eigvals(gen)


def _uniform_draw(rng, i):
    """One (setup, uniform kernel) draw: I sorted descending from
    U[0.5, 5], coupling U[-2, 2], m U[0.2, 6] (times 10 when i % 3 == 0),
    offset U[0, 2] and width U[0.05, 3]."""
    inertia = np.sort(rng.uniform(0.5, 5.0, 3))[::-1]
    coupling = float(rng.uniform(-2.0, 2.0))
    m = float(rng.uniform(0.2, 6.0)) * (10.0 if i % 3 == 0 else 1.0)
    s = models.InertiaSetup(*(float(v) for v in inertia), coupling, m)
    return s, kernels.UniformKernel(float(rng.uniform(0.0, 2.0)),
                                    float(rng.uniform(0.05, 3.0)))


def _chain_roots(a0, a1, kernel):
    """Eigenvalues of u' = A0 u + A1 eta_n, eta_1' = r (u - eta_1),
    eta_k' = r (eta_(k-1) - eta_k): the linear chain that an exponential
    (n = 1) or Erlang (n = 2) kernel of rate r reduces to, whose matrix is
    built here from the transverse Jacobian blocks."""
    d, rate, n = a0.shape[0], kernel.rate, kernel.shape
    mat = np.zeros((d * (n + 1), d * (n + 1)))
    mat[:d, :d], mat[:d, -d:] = a0, a1
    for k in range(1, n + 1):
        rows = slice(d * k, d * (k + 1))
        mat[rows, d * (k - 1):d * k] = rate * np.eye(d)
        mat[rows, rows] = -rate * np.eye(d)
    return np.linalg.eigvals(mat)


def _crossing_setups():
    rng = np.random.default_rng(400)
    setups = [S321, models.InertiaSetup(3, 2, 1, coupling=0.0, m=1.0)]
    return setups + [_random_setup(rng) for _ in range(200)]


class TestArrayCrossingScan:
    def test_matches_exact_reference(self):
        found = 0
        for s in _crossing_setups():
            got = stability.critical_delay_scan(s)
            crossings = _exact_crossings(s)
            if not crossings:
                assert got is None
                continue
            assert got == pytest.approx(crossings[0][0], rel=1e-12, abs=0.0)
            found += 1
        assert found == 201

    def test_bracket_vanishes_at_crossing(self):
        for s in _crossing_setups()[2:]:
            tau = stability.critical_delay_scan(s)
            omega = _exact_crossings(s)[0][1]
            q1, q2, q0 = stability._ep_bracket(*stability._ep_blocks(s))
            val = stability.char_ep_eval(s, kernels.DiracKernel(tau),
                                         1j * omega)
            scale = omega * omega + abs(q1) * omega + abs(q2) + abs(q0)
            assert abs(val) / scale <= 1e-14

    def test_same_answer_where_grid_scan_was_right(self):
        agree = 0
        for s in _crossing_setups():
            crossings = _exact_crossings(s)
            first = crossings[0][0] if crossings else None
            grid = _scalar_critical_delay_scan(s)
            if grid is None or first is None:
                agree += grid is first
            elif grid == pytest.approx(first, rel=1e-9):
                assert stability.critical_delay_scan(s) == pytest.approx(
                    grid, rel=1e-14, abs=0.0)
                agree += 1
        assert agree == 196

    @pytest.mark.parametrize("q1, q2, q0", [
        (0.3, 2.0, -1.0),  # only omega^2 = q2 - q0 crosses
        (2.2979, 2.0, -1.0),  # |sn| = 0.995 there, first before c = 0
        (0.0, 1.5, 0.5),  # no lambda z term: z = +-1
        (-1.7, 0.4, -2.0),  # only c = 0 crosses
    ])
    def test_any_real_coefficients(self, q1, q2, q0, monkeypatch):
        # the bracket of any inertia has q1^2 (q2 - q0) > 4 q2^2 wherever
        # q2 > q0, so its crossings all have c = 0; the algebra must hold
        # for any real coefficients
        monkeypatch.setattr(stability, "_ep_bracket",
                            lambda a, b: (q1, q2, q0))
        got = stability.critical_delay_scan(S321)
        assert got == pytest.approx(_unit_circle_crossings(q1, q2, q0)[0][0],
                                    rel=1e-12, abs=0.0)

    def test_crossings_the_grid_scan_missed(self):
        # the grid stops at omega = 50 (m = 30 crosses at omega = 150 and
        # 600) and takes two crossings near omega = 0.02 in one cell for none
        for s, tau in (
                (models.InertiaSetup(3, 2, 1, coupling=1.0, m=30.0),
                 0.00261702508762),
                (models.InertiaSetup(3.80266, 3.51153, 3.03757,
                                     coupling=0.328573, m=0.514721),
                 66.8779124404)):
            assert _scalar_critical_delay_scan(s) is None
            got = stability.critical_delay_scan(s)
            assert got == pytest.approx(_exact_crossings(s)[0][0], rel=1e-12,
                                        abs=0.0)
            assert got == pytest.approx(tau, rel=1e-10)
        setups = _crossing_setups()
        for i in (29, 79, 141, 146):
            assert _scalar_critical_delay_scan(setups[i]) is None
            assert stability.critical_delay_scan(setups[i]) == pytest.approx(
                _exact_crossings(setups[i])[0][0], rel=1e-12, abs=0.0)

    def test_first_crossings_the_grid_scan_skipped(self):
        setups = _crossing_setups()
        for i, tau, later in ((103, 174.5290943, 282.1723171),
                              (111, 0.02442312614, 0.05992658557)):
            assert _scalar_critical_delay_scan(setups[i]) == pytest.approx(
                later, rel=1e-9)
            got = stability.critical_delay_scan(setups[i])
            assert got == pytest.approx(_exact_crossings(setups[i])[0][0],
                                        rel=1e-12, abs=0.0)
            assert got == pytest.approx(tau, rel=1e-9)

    def test_underflowing_quadratic_coefficient_raises(self):
        # coupling^2 m^4 underflows to q2 = 0; the scan must not turn the
        # division by zero into a silent None
        s = models.InertiaSetup(3, 2, 1, coupling=1e-170, m=1.0)
        assert stability._ep_bracket(*stability._ep_blocks(s))[1] == 0.0
        assert _hand_ep_coeffs(s)[1] == 0.0
        with pytest.raises(ZeroDivisionError):
            _scalar_critical_delay_scan(s)
        with pytest.raises(ZeroDivisionError):
            stability.critical_delay_scan(s)


class TestArrayCharFunctions:
    LAMS = np.concatenate(([0.0, 1e-5, 0.3j], np.random.default_rng(500)
                           .uniform(-0.5, 50.0, 200)
                           + 1j * np.random.default_rng(501)
                           .uniform(-50.0, 50.0, 200)))
    KERNELS = [kernels.DiracKernel(0.4), kernels.UniformKernel(0.1, 0.8),
               kernels.GammaKernel(1.5, 1), kernels.GammaKernel(2.0, 2)]

    @pytest.mark.parametrize("kern", KERNELS, ids=str)
    def test_char_ep_eval(self, kern):
        assert type(stability.char_ep_eval(S321, kern, 0.5)) is complex
        got = stability.char_ep_eval(S321, kern, self.LAMS)
        assert got.shape == self.LAMS.shape
        assert got.tolist() == [stability.char_ep_eval(S321, kern, z)
                                for z in self.LAMS]

    @pytest.mark.parametrize("kern", KERNELS, ids=str)
    def test_frac_delay_char_eval(self, kern):
        A = np.array([[-1.0, 1.0], [0.0, -3.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert type(stability.frac_delay_char_eval(A, B, 0.7, kern,
                                                   0.5)) is complex
        got = stability.frac_delay_char_eval(A, B, 0.7, kern, self.LAMS)
        assert got.shape == self.LAMS.shape
        ref = np.array([stability.frac_delay_char_eval(A, B, 0.7, kern, z)
                        for z in self.LAMS])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_divergence_domain_any_element(self):
        kern = kernels.GammaKernel(1.5, 1)
        lam = np.array([1.0, 2.0j, complex(-1.5, 0.5)])
        with pytest.raises(ValueError):
            stability.char_ep_eval(S321, kern, lam)
        with pytest.raises(ValueError):
            stability.frac_delay_char_eval(np.zeros((1, 1)), np.eye(1), 0.5,
                                           kern, lam)

    def test_branch_cut_warning_any_element(self):
        lam = np.array([1.0 + 1.0j, -2.0 + 1e-14j, 3.0])
        with pytest.warns(RuntimeWarning, match="branch cut"):
            stability.frac_delay_char_eval(np.zeros((1, 1)), np.eye(1), 0.5,
                                           kernels.DiracKernel(0.1), lam)
