import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rigidmem import kernels
from rigidmem.integrators import HistorySpec

ALL_KERNELS = [
    kernels.UniformKernel(0.0, 2.0),
    kernels.UniformKernel(0.5, 1.5),
    kernels.GammaKernel(2.0, 1),
    kernels.GammaKernel(1.0, 2),
    kernels.DiracKernel(0.7),
]
POINTWISE = [k for k in ALL_KERNELS if not isinstance(k, kernels.DiracKernel)]


class TestDensity:
    def test_examples(self):
        assert kernels.density(kernels.UniformKernel(0.0, 2.0), 1.0) == 0.5
        assert kernels.density(kernels.GammaKernel(2.0, 1), 0.0) == 2.0
        assert kernels.density(kernels.GammaKernel(1.0, 2), 0.0) == 0.0

    def test_dirac_rejects_pointwise(self):
        with pytest.raises(ValueError):
            kernels.density(kernels.DiracKernel(1.0), 0.5)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            kernels.density(kernels.GammaKernel(1.0, 1), -0.1)

    @pytest.mark.parametrize("kernel", POINTWISE, ids=str)
    def test_normalization_by_quadrature(self, kernel):
        hi = kernels.effective_support(kernel)[1]
        mass, _ = quad(lambda s: kernels.density(kernel, s), 0.0, hi,
                       limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_huge_erlang_rate(self):
        # rate**2 overflows a Python float above a rate of about 1.34e154;
        # rate * (u exp(-u)), u = rate * s, never leaves the float range
        with np.errstate(over="raise", invalid="raise"):
            dens = kernels.density(kernels.GammaKernel(1e300, 2),
                                   [0.0, 1e-300, 1.0])
        assert dens[0] == 0.0 and dens[2] == 0.0
        assert dens[1] == pytest.approx(1e300 / math.e, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernels.UniformKernel(-0.1, 1.0)
        with pytest.raises(ValueError):
            kernels.UniformKernel(0.0, 0.0)
        with pytest.raises(ValueError):
            kernels.GammaKernel(0.0, 1)
        with pytest.raises(ValueError):
            kernels.DiracKernel(-1.0)


class TestLaplace:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=str)
    def test_normalization_at_zero(self, kernel):
        assert abs(kernels.laplace(kernel, 0.0) - 1.0) < 1e-12

    def test_analytic_values(self):
        assert kernels.laplace(kernels.GammaKernel(2.0, 1), 2.0) == 0.5
        assert kernels.laplace(kernels.GammaKernel(1.0, 2), 1.0) == 0.25
        got = kernels.laplace(kernels.UniformKernel(0.0, 1.0), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
        assert kernels.laplace(kernels.DiracKernel(0.5), 2.0) == \
            pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("kernel", POINTWISE, ids=str)
    def test_matches_quadrature_oracle(self, kernel):
        hi = kernels.effective_support(kernel)[1]
        for lam in (0.3 + 0.0j, 1.0 + 0.7j, -0.2 + 1.5j):
            def integrand(s, part):
                val = kernels.density(kernel, s) * cmath.exp(-lam * s)
                return val.real if part == "re" else val.imag

            ref = (quad(integrand, 0.0, hi, args=("re",), limit=400)[0]
                   + 1j * quad(integrand, 0.0, hi, args=("im",), limit=400)[0])
            assert kernels.laplace(kernel, lam) == pytest.approx(ref,
                                                                 abs=1e-9)

    def test_uniform_series_branch_matches_stable_form(self):
        # below the series cutoff, compare against -expm1(-z)/z which is
        # cancellation-free for real z
        k = kernels.UniformKernel(0.3, 1.0)
        for lam in (1e-5, 5e-5, 9.9e-5):
            z = k.width * lam
            ref = math.exp(-k.offset * lam) * (-math.expm1(-z) / z)
            assert kernels.laplace(k, lam) == pytest.approx(ref, rel=1e-13)

    def test_huge_erlang_rate(self):
        # this raised OverflowError at rate**2
        kern = kernels.GammaKernel(1e300, 2)
        assert kernels.laplace(kern, 1.0) == 1.0
        assert kernels.laplace(kern, 1e300) == 0.25
        assert kernels.laplace(kern, 1e-300j) == 1.0

    def test_divergence_domain(self):
        with pytest.raises(ValueError):
            kernels.laplace(kernels.GammaKernel(1.0, 1), -1.0)
        with pytest.raises(ValueError):
            kernels.laplace(kernels.GammaKernel(2.0, 2), complex(-2.5, 1.0))

    @given(st.floats(min_value=-60, max_value=60))
    @settings(max_examples=80)
    def test_unit_disc_bound_on_imaginary_axis(self, omega):
        for kernel in ALL_KERNELS:
            assert abs(kernels.laplace(kernel, 1j * omega)) <= 1.0 + 1e-12


def _lambda_samples():
    """Seeded lambdas over the contour scale, with 0 and points inside
    the uniform series cutoff."""
    rng = np.random.default_rng(11)
    lam = rng.uniform(-1.0, 50.0, 400) + 1j * rng.uniform(-50.0, 50.0, 400)
    tiny = rng.uniform(-1e-4, 1e-4, 20) + 1j * rng.uniform(-1e-4, 1e-4, 20)
    return np.concatenate(([0.0, 1e-5, 2e-4j], tiny, lam))


class TestLaplaceArrays:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=str)
    def test_scalar_returns_python_complex(self, kernel):
        for lam in (0, 0.5, 1.0 + 2.0j, np.float64(0.3), np.complex128(1j)):
            assert type(kernels.laplace(kernel, lam)) is complex

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=str)
    def test_array_equals_scalar_calls(self, kernel):
        lam = _lambda_samples()
        got = kernels.laplace(kernel, lam)
        assert got.shape == lam.shape and got.dtype == complex
        assert got.tolist() == [kernels.laplace(kernel, z) for z in lam]

    def test_divergence_domain_any_element(self):
        for kernel in (kernels.GammaKernel(1.0, 1),
                       kernels.GammaKernel(2.0, 2)):
            lam = np.array([1.0, 2.0j, complex(-kernel.rate, 3.0), 0.5])
            with pytest.raises(ValueError):
                kernels.laplace(kernel, lam)
            assert kernels.laplace(kernel, lam[[0, 1, 3]]).shape == (3,)


def _old_density(rate, shape, s):
    """The density as the separate exponential and Erlang classes gave it."""
    if shape == 1:
        return rate * np.exp(-rate * s)
    u = rate * s
    return rate * (u * np.exp(-u))


def _old_laplace(rate, shape, lam):
    """The transform as the separate exponential and Erlang classes gave it."""
    if shape == 1:
        return rate / (rate + lam)
    return (rate / (rate + lam)) ** 2


def _old_support(rate, shape):
    """The support as the separate exponential and Erlang classes gave it."""
    log_tail = -math.log(kernels._TAIL_MASS)
    if shape == 1:
        return 0.0, log_tail / rate
    u = log_tail
    for _ in range(8):
        u = log_tail + math.log1p(u)
    return 0.0, u / rate


class TestGammaKernel:
    @pytest.mark.parametrize("shape", [0, 3, 2.5, 2.0])
    def test_shape_is_1_or_2(self, shape):
        # a float 2.0 would pass a comparison but not range(shape)
        with pytest.raises(ValueError, match="shape must be the int 1 or 2"):
            kernels.GammaKernel(1.0, shape)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_error_names_the_kind(self, rate):
        with pytest.raises(ValueError,
                           match="^exponential kernel rate must be > 0$"):
            kernels.GammaKernel(rate, 1)
        with pytest.raises(ValueError,
                           match="^Erlang kernel rate must be > 0$"):
            kernels.GammaKernel(rate, 2)

    @pytest.mark.parametrize("shape", [1, 2])
    @pytest.mark.parametrize("rate", [1e-300, 2.0, 1e300])
    def test_bits_of_the_separate_kernels(self, rate, shape):
        # the merged branches keep each former class's arithmetic: the
        # same bits of density, transform and support (from which the
        # quadrature's node count follows)
        kern = kernels.GammaKernel(rate, shape)
        s = np.concatenate(([0.0, 5e-324], np.geomspace(1e-300, 1e300, 201),
                            np.linspace(0.0, 40.0, 101) / rate))
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(kernels.density(kern, s),
                                          _old_density(rate, shape, s))
        lam = np.concatenate((_lambda_samples(), rate * _lambda_samples()))
        lam = lam[lam.real > -rate]
        np.testing.assert_array_equal(
            kernels.laplace(kern, lam),
            _old_laplace(rate, shape, lam.astype(complex)))
        assert kernels.effective_support(kern) == _old_support(rate, shape)


class TestConvolveHistory:
    def test_dirac_zero_is_identity(self):
        hist = lambda t: np.array([math.sin(t), math.cos(t)])
        out = kernels.convolve_history(kernels.DiracKernel(0.0), hist, 1.3,
                                       0.01)
        assert np.array_equal(out, hist(1.3))

    @pytest.mark.parametrize("kernel", POINTWISE, ids=str)
    def test_constant_history_normalization(self, kernel):
        v = np.array([1.7, -2.3, 0.4])
        out = kernels.convolve_history(kernel, lambda t: v, 5.0, 0.002)
        assert np.max(np.abs(out - v)) < 1e-10

    def test_uniform_linear_history(self):
        out = kernels.convolve_history(kernels.UniformKernel(0.0, 2.0),
                                       lambda t: np.array([t]), 0.0, 0.01)
        assert out[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=str)
    def test_exponential_history_ties_to_laplace(self, kernel):
        # for x(s) = exp(lam*s) v the convolution equals exp(lam*t) k1(lam) v;
        # |lam| small enough that the truncated kernel tail stays below 1e-8
        lam = -0.2
        v = np.array([1.0, -0.5, 2.0])
        t = 2.0
        out = kernels.convolve_history(kernel,
                                       lambda s: math.exp(lam * s) * v, t,
                                       0.001)
        expected = math.exp(lam * t) * kernels.laplace(kernel, lam).real * v
        assert np.max(np.abs(out - expected)) < 1e-8

    @pytest.mark.parametrize("kernel", POINTWISE, ids=str)
    def test_constant_history_bits_independent_of_layout(self, kernel):
        # a constant HistorySpec hands over a broadcast (stride-0) table;
        # the product must round as it does on the same values stacked
        c = np.array([0.3, -1.7, 2.9])
        spec = HistorySpec.constant(c)
        for step in (0.01, 0.0037):
            got = kernels.convolve_history(kernel, spec, 4.0, step)
            ref = kernels.convolve_history(kernel, lambda t: c.copy(), 4.0,
                                           step)
            assert got.tobytes() == ref.tobytes()

    def test_bad_quad_step(self):
        with pytest.raises(ValueError):
            kernels.convolve_history(kernels.GammaKernel(1.0, 1),
                                     lambda t: np.array([1.0]), 0.0, 0.0)
