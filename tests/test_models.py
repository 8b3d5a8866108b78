import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmem import kernels, models, stability

P321 = models.RigidBodyParams(3, 2, 1)


# --- structure tensors behind the fields, kept as oracles --------------------

def _grad_h(p, x):
    """Gradient of the energy, (a1*x1, a2*x2, a3*x3)."""
    return np.array([p.a1 * x[0], p.a2 * x[1], p.a3 * x[2]])


def _poisson(x):
    """Antisymmetric structure tensor P(x); satisfies P(x) @ x = 0."""
    x1, x2, x3 = x
    return np.array([
        [0.0, x3, -x2],
        [-x3, 0.0, x1],
        [x2, -x1, 0.0],
    ])


def _metric(p, x):
    """Dissipative metric g = grad_h grad_h^T - |grad_h|^2 * Id."""
    grad = _grad_h(p, x)
    return np.outer(grad, grad) - np.dot(grad, grad) * np.eye(3)


def _ep_array_form(s, omega, omegad):
    """rhs_ep_delayed in array form, I^-1 [(I w) x w + coupling (I w) x
    ((I wd) x wd)], one cross product at a time."""
    def cross(a, b):
        return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0]])

    inertia = np.array([s.I1, s.I2, s.I3])
    m_now, m_del = inertia * omega, inertia * omegad
    return (cross(m_now, omega)
            + s.coupling * cross(m_now, cross(m_del, omegad))) / inertia


def _ep_linearization(s):
    """(A, B) = (df/domega, df/domegad) of rhs_ep_delayed at omega_1."""
    w = models.find_equilibria(s, s.m)[0]
    return (models.jacobian(lambda u: models.rhs_ep_delayed(s, u, w), w),
            models.jacobian(lambda u: models.rhs_ep_delayed(s, w, u), w))


coords = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)
states = st.tuples(coords, coords, coords).map(np.array)
params = st.tuples(
    st.floats(min_value=2.1, max_value=10),
    st.floats(min_value=1.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=1.0),
).map(lambda t: models.RigidBodyParams(*t))


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            models.RigidBodyParams(2, 3, 1)
        with pytest.raises(ValueError):
            models.RigidBodyParams(3, 2, 0)
        with pytest.raises(ValueError):
            models.RigidBodyParams(3, 2, float("nan"))

    def test_params_unchecked_bypasses_ordering(self):
        p = models.RigidBodyParams.unchecked(1, 1, 1)
        assert (p.a1, p.a2, p.a3) == (1, 1, 1)

    def test_inertia_validation(self):
        with pytest.raises(ValueError):
            models.InertiaSetup(1, 2, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            models.InertiaSetup(3, 2, 1, 1.0, 0.0)


class TestScalars:
    def test_hamiltonian_direct(self):
        assert models.hamiltonian(P321, np.array([1.0, 1.0, 1.0])) == 3.0
        assert models.hamiltonian(P321, np.zeros(3)) == 0.0
        assert models.hamiltonian(P321, np.array([0.0, 0.0, 2.0])) == 2.0

    def test_casimir_direct(self):
        assert models.casimir(np.array([1.0, 2.0, 3.0])) == 7.0
        assert models.casimir(np.zeros(3)) == 0.0
        m = 1.7
        assert models.casimir(np.array([m, 0.0, 0.0])) == m * m / 2


class TestTensors:
    def test_poisson_matrix(self):
        P = _poisson(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(P, [[0, 3, -2], [-3, 0, 1], [2, -1, 0]])
        assert np.array_equal(_poisson(np.zeros(3)), np.zeros((3, 3)))

    @given(states)
    def test_poisson_antisymmetric_with_kernel(self, x):
        P = _poisson(x)
        assert np.array_equal(P, -P.T)
        assert np.allclose(P @ x, 0.0, atol=1e-12)

    def test_metric_matrix(self):
        g = _metric(P321, np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(g, [[-5, 6, 3], [6, -10, 2], [3, 2, -13]])
        assert np.array_equal(_metric(P321, np.zeros(3)),
                              np.zeros((3, 3)))

    @given(params, states)
    @settings(max_examples=60)
    def test_metric_symmetric_annihilates_gradient(self, p, x):
        g = _metric(p, x)
        grad = _grad_h(p, x)
        assert np.array_equal(g, g.T)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.allclose(g @ grad, 0.0, atol=1e-9 * scale * 10)

    def test_metric_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2, 2, 3)
            grad = _grad_h(P321, x)
            g = _metric(P321, x)
            eig = np.sort(np.linalg.eigvalsh(g))
            n2 = float(np.dot(grad, grad))
            assert abs(eig[-1]) < 1e-10 * max(1.0, n2)
            assert np.allclose(eig[:2], -n2, rtol=1e-10)


class TestRhs:
    def test_classical_examples(self):
        assert np.array_equal(
            models.rhs_classical(P321, np.array([1.0, 1.0, 1.0])), [1, -2, 1])
        assert np.array_equal(
            models.rhs_classical(P321, np.array([2.5, 0.0, 0.0])), np.zeros(3))
        iso = models.RigidBodyParams.unchecked(2, 2, 2)
        assert np.array_equal(
            models.rhs_classical(iso, np.array([1.0, -2.0, 0.5])), np.zeros(3))

    def test_revised_examples(self):
        x = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(models.rhs_revised(P321, x), [5, -4, -7])
        assert np.array_equal(
            models.rhs_revised(P321, np.array([1.3, 0.0, 0.0])), np.zeros(3))
        assert np.dot(_grad_h(P321, x),
                      models.rhs_revised(P321, x)) == 0.0

    def test_delayed_examples(self):
        x = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(
            models.rhs_delayed(P321, x, np.array([1.0, 0.0, 2.0])), [0, -1, 0])
        assert np.array_equal(models.rhs_delayed(P321, x, x),
                              models.rhs_classical(P321, x))
        assert np.array_equal(
            models.rhs_delayed(P321, x, np.zeros(3)), np.zeros(3))

    def test_revised_delayed_examples(self):
        x = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(models.rhs_revised_delayed(P321, x, x),
                              [7, -12, 3])
        e = np.array([0.4, 0.0, 0.0])
        assert np.array_equal(models.rhs_revised_delayed(P321, e, e),
                              np.zeros(3))
        assert np.array_equal(
            models.rhs_revised_delayed(P321, x, np.zeros(3)), np.zeros(3))

    def test_ep_delayed_examples(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
        eq = np.array([1.0 / 3.0, 0.0, 0.0])
        assert np.allclose(models.rhs_ep_delayed(s, eq, eq), 0.0, atol=1e-15)
        s0 = models.InertiaSetup(3, 2, 1, coupling=0.0, m=1.0)
        out = models.rhs_ep_delayed(s0, np.array([1.0, 1.0, 0.0]),
                                    np.array([0.2, -0.5, 0.9]))
        assert np.array_equal(out, [0, 0, 1])
        zero = np.zeros(3)
        assert np.array_equal(
            models.rhs_ep_delayed(s, zero, np.array([1.0, 2.0, 3.0])), zero)

    def test_ep_delayed_matches_array_form(self):
        # the componentwise field rounds like the array form, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(2000):
            inertia = np.sort(rng.uniform(0.5, 5.0, 3))[::-1]
            s = models.InertiaSetup.unchecked(*inertia, rng.normal(), 1.0)
            w, wd = (rng.normal(size=(2, 3))
                     * 10.0 ** rng.uniform(-3, 3, size=(2, 1)))
            got = models.rhs_ep_delayed(s, w, wd)
            assert got.tobytes() == _ep_array_form(s, w, wd).tobytes()

    @given(params, states, states)
    @settings(max_examples=60)
    def test_delayed_reduction_identity(self, p, x, xd):
        assert np.array_equal(models.rhs_delayed(p, x, x),
                              models.rhs_classical(p, x))

    @given(params, states)
    @settings(max_examples=60)
    def test_conservation_identities(self, p, x):
        f = models.rhs_classical(p, x)
        grad = _grad_h(p, x)
        scale = max(1.0, float(np.max(np.abs(f))) * float(np.max(np.abs(x))))
        assert abs(np.dot(grad, f)) < 1e-12 * scale * 100
        assert abs(np.dot(x, f)) < 1e-12 * scale * 100
        fr = models.rhs_revised(p, x)
        scale_r = max(1.0, float(np.max(np.abs(fr))) * float(np.max(np.abs(x))))
        assert np.dot(grad, fr) == pytest.approx(0.0, abs=1e-10 * scale_r)
        assert np.dot(x, fr) <= 1e-10 * scale_r


S321 = models.InertiaSetup(3, 2, 1, coupling=0.7, m=1.0)

#: every field as f(x, xd); the undelayed ones ignore xd
FIELDS = {
    "rhs_classical": lambda x, xd: models.rhs_classical(P321, x),
    "rhs_revised": lambda x, xd: models.rhs_revised(P321, x),
    "rhs_delayed": lambda x, xd: models.rhs_delayed(P321, x, xd),
    "rhs_revised_delayed":
        lambda x, xd: models.rhs_revised_delayed(P321, x, xd),
    "rhs_ep_delayed": lambda x, xd: models.rhs_ep_delayed(S321, x, xd),
}


@pytest.mark.parametrize("name", FIELDS)
def test_field_container_contract(name):
    """A field returns its components in the container its state came in.

    One ndarray state gives a (3,) array and a (3, B) table a (3, B) array:
    ``bench/checks.py:233`` runs ``rhs_revised_delayed`` on ndarray states
    inside the array RK4 oracle ``bench/oracles.py::rk4``, which needs the
    array back.  A list gives a tuple of floats, as the RK4 integrators'
    float loop takes it.  All three are the same bits.
    """
    field = FIELDS[name]
    rng = np.random.default_rng(17)
    xs, xds = (rng.normal(size=(2, 3, 40))
               * 10.0 ** rng.uniform(-3, 3, size=(2, 1, 40)))
    # every fourth column has xd == x: rhs_delayed's classical reduction
    xds[:, ::4] = xs[:, ::4]
    table = field(xs, xds)
    assert isinstance(table, np.ndarray) and table.shape == (3, 40)
    for j in range(40):
        x, xd = xs[:, j].copy(), xds[:, j].copy()
        one = field(x, xd)
        assert isinstance(one, np.ndarray) and one.shape == (3,)
        assert one.tobytes() == table[:, j].tobytes()
        comps = field(x.tolist(), xd.tolist())
        assert type(comps) is tuple
        assert all(type(v) is float for v in comps)
        assert np.array(comps).tobytes() == one.tobytes()
        assert np.array(comps).tobytes() == table[:, j].tobytes()


def test_rhs_agree_with_tensor_contractions():
    # classical = P grad_h and revised = P grad_h + g grad_c, grad_c = x
    rng = np.random.default_rng(123)
    for _ in range(1000):
        a = np.sort(rng.uniform(0.1, 5.0, 3))[::-1]
        if not (a[0] > a[1] > a[2]):
            continue
        p = models.RigidBodyParams(*a)
        x = rng.uniform(-3, 3, 3)
        P = _poisson(x)
        grad = _grad_h(p, x)
        ref_c = P @ grad
        ref_r = ref_c + _metric(p, x) @ x
        scale = max(1.0, float(np.max(np.abs(ref_r))))
        assert np.allclose(models.rhs_classical(p, x), ref_c,
                           rtol=1e-12, atol=1e-12 * scale)
        assert np.allclose(models.rhs_revised(p, x), ref_r,
                           rtol=1e-12, atol=1e-12 * scale)


class TestEquilibria:
    def test_fractional_axes(self):
        eqs = models.find_equilibria(P321, 2.0)
        assert np.array_equal(eqs, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])

    def test_ep_axes(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
        eqs = models.find_equilibria(s, 3.0)
        assert np.array_equal(eqs, [[1, 0, 0], [0, 1.5, 0], [0, 0, 3]])

    def test_every_point_is_an_equilibrium(self):
        s = models.InertiaSetup(3, 2, 1, coupling=0.7, m=2.0)
        pair_by_kind = {
            "classical": lambda e: models.rhs_classical(P321, e),
            "revised": lambda e: models.rhs_revised(P321, e),
            "delayed": lambda e: models.rhs_delayed(P321, e, e),
            "revised-delayed": lambda e: models.rhs_revised_delayed(P321, e, e),
            "ep-delayed": lambda e: models.rhs_ep_delayed(s, e, e),
        }
        for kind, rhs in pair_by_kind.items():
            setup = s if kind == "ep-delayed" else P321
            for e in models.find_equilibria(setup, 2.0):
                assert np.linalg.norm(rhs(e)) == 0.0, kind

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            models.find_equilibria(P321, 0.0)


class TestLinearization:
    def test_example_values(self):
        s = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
        A, B = _ep_linearization(s)
        assert A[1, 2] == pytest.approx(-1.0 / 3.0)
        assert A[2, 1] == pytest.approx(1.0 / 3.0)
        assert B[1, 1] == pytest.approx(-1.0 / 6.0)
        assert B[2, 2] == pytest.approx(-2.0 / 3.0)
        nonzero = {(1, 2), (2, 1)}
        for i in range(3):
            for j in range(3):
                if (i, j) not in nonzero:
                    assert A[i, j] == 0.0
        assert np.count_nonzero(B - np.diag(np.diag(B))) == 0

    def test_zero_m(self):
        # no axis equilibrium at m = 0: the verdict path raises
        s = models.InertiaSetup.unchecked(3, 2, 1, 1.0, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            stability.ep_delayed_check(s, kernels.DiracKernel(0.5))
        with pytest.raises(ValueError, match="nonzero"):
            stability.critical_delay_scan(s)

    def test_equal_inertia_relaxed(self):
        s = models.InertiaSetup.unchecked(3, 2, 2, 1.0, 1.5)
        A, _ = _ep_linearization(s)
        assert A[1, 2] == pytest.approx((2 - 3) * 1.5 / (3 * 2))
        assert A[2, 1] == pytest.approx((3 - 2) * 1.5 / (3 * 2))

    def test_matches_numerical_jacobians(self):
        s = models.InertiaSetup(3, 2, 1, coupling=0.8, m=1.3)
        A, B = _ep_linearization(s)
        eq = np.array([s.m / s.I1, 0.0, 0.0])
        eps = 1e-6
        jac_x = np.zeros((3, 3))
        jac_d = np.zeros((3, 3))
        for j in range(3):
            dv = np.zeros(3)
            dv[j] = eps
            jac_x[:, j] = (models.rhs_ep_delayed(s, eq + dv, eq)
                           - models.rhs_ep_delayed(s, eq - dv, eq)) / (2 * eps)
            jac_d[:, j] = (models.rhs_ep_delayed(s, eq, eq + dv)
                           - models.rhs_ep_delayed(s, eq, eq - dv)) / (2 * eps)
        assert np.allclose(jac_x, A, atol=1e-6)
        assert np.allclose(jac_d, B, atol=1e-6)
