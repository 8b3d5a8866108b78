"""Equilibrium stability analysis for the delayed and fractional systems.

Linearizations are complex-step Jacobians of each kind's own field at an
axis equilibrium.  Covers the fractional rigid body's quadratics in
w = lambda^order (sector condition), the delayed Euler-Poincare system's
characteristic function with the paper's critical-delay formula,
closed-form root counts from the exact imaginary-axis crossings for every
sharp (Dirac) lag, the roots of the ODE-chain polynomial for gamma
kernels, and the eigenvalues of the collocated solution-operator
generator for uniform ones.  No verdict depends on a search box.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kern
from . import models as _models

__all__ = [
    "STABLE", "MARGINAL", "UNSTABLE", "CharQuadratic", "StabilityReport",
    "char_frac_equilibrium", "matignon_classify", "char_ep_eval",
    "tau_c_formula", "critical_delay_scan", "frac_delay_char_eval",
    "count_rhp_roots", "ep_delayed_check", "scalar_frac_delay_check",
    "planar_frac_delay_check",
]

STABLE = "asymptotically-stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"

#: sector-margin tolerance separating "marginal" from a strict verdict
SECTOR_TOL = 1e-12

#: distance from the imaginary axis, relative to max(1, |lambda|), within
#: which a generator root counts as on the axis
_AXIS_BAND = 1e-9


@dataclass(frozen=True)
class CharQuadratic:
    """Quadratic c2 w^2 + c1 w + c0 in the variable w = lambda^order.

    ``zero_factor_order`` records how many structural lambda^order factors
    were split off (the neutral direction along the equilibrium axis).
    """

    c2: float
    c1: float
    c0: float
    zero_factor_order: int = 0

    def __post_init__(self):
        if self.c2 == 0:
            raise ValueError("leading coefficient c2 must be nonzero")

    def roots(self) -> tuple[complex, complex]:
        disc = complex(self.c1 * self.c1 - 4.0 * self.c2 * self.c0)
        sq = cmath.sqrt(disc)
        r1 = (-self.c1 + sq) / (2.0 * self.c2)
        r2 = (-self.c1 - sq) / (2.0 * self.c2)
        return tuple(sorted((r1, r2), key=lambda w: (w.real, w.imag)))


@dataclass
class StabilityReport:
    """Root data, sector margins, and the resulting verdict.

    ``margins`` holds |arg(w)| - order*pi/2 per root.  The delay checks
    record the right-half-plane root count in ``metadata`` (``uncertain``
    when a root lies on the imaginary axis, or when a uniform kernel's
    generator roots have not settled); only exponential and Erlang
    kernels also fill the roots.
    """

    verdict: str
    roots: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    alpha: float | None = None
    critical_delay: float | None = None
    structural_zero_roots: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def min_margin(self) -> float | None:
        return min(self.margins) if self.margins else None

    @property
    def dominant_root(self) -> complex | None:
        if not self.roots:
            return None
        return self.roots[int(np.argmin(self.margins))]

    def to_text(self) -> str:
        lines = [f"verdict = {self.verdict}"]
        if self.alpha is not None:
            lines.append(f"alpha = {self.alpha!r}")
        for i, w in enumerate(self.roots, start=1):
            lines.append(f"root{i}_re = {w.real!r}")
            lines.append(f"root{i}_im = {w.imag!r}")
        for i, m in enumerate(self.margins, start=1):
            lines.append(f"margin{i} = {m!r}")
        if self.critical_delay is not None:
            lines.append(f"critical_delay = {self.critical_delay!r}")
        if self.structural_zero_roots:
            lines.append(
                f"structural_zero_roots = {self.structural_zero_roots}")
        for key in sorted(self.metadata):
            lines.append(f"{key} = {self.metadata[key]}")
        return "\n".join(lines) + "\n"


def _trace_det(block: np.ndarray) -> tuple[float, float]:
    """(trace, det) of the 2x2 ``block``, in Python floats: a product
    that overflows is inf, with no warning."""
    a, b, c, d = block.ravel().tolist()
    return a + d, a * d - b * c


def _finite(name: str, *values) -> None:
    """Raise OverflowError naming ``name`` when one of the real or complex
    ``values`` is not finite: arithmetic that left the float range, on
    which no verdict can rest."""
    if not all(map(cmath.isfinite, values)):
        raise OverflowError(f"{name} is not finite")


def char_frac_equilibrium(p: _models.RigidBodyParams, which, m: float,
                          revised: bool = False) -> CharQuadratic:
    """Quadratic w^2 - tr(A) w + det(A) in w = lambda^order at the axis
    equilibrium ``which`` (M1, M2, M3 or 1, 2, 3) of the plain or revised
    field, A its transverse Jacobian block.  The common lambda^order factor
    of the neutral axis direction is recorded, not expanded.  An m, trace
    or determinant that is not finite, or a determinant whose products of
    nonzero entries underflow to 0, raises ArithmeticError.
    """
    try:
        axis = ("M1", "M2", "M3", 1, 2, 3).index(which) % 3
    except ValueError:
        raise ValueError(f"equilibrium must be one of M1, M2, M3, "
                         f"got {which!r}") from None
    bind = _models.revised_field if revised else _models.classical_field
    _finite(f"m = {m!r}", m)
    x = _models.find_equilibria(p, m)[axis]
    # at an axis equilibrium the axis row and column vanish (the neutral
    # direction): the block off the axis is the transverse one
    off = (slice(1, 3), slice(0, 3, 2), slice(0, 2))[axis]
    block = _models.jacobian(bind(p), x)[off, off]
    tr, det = _trace_det(block)
    _finite(f"tr A = {tr!r}", tr)
    _finite(f"det A = {det!r}", det)
    (a, b), (c, d) = block.tolist()
    if det == 0 and (a and d and not a * d or b and c and not b * c):
        raise ArithmeticError(f"det A underflows to 0 at m = {m!r}")
    # 0.0 - tr keeps the plain field's zero trace a +0.0
    return CharQuadratic(1.0, 0.0 - tr, det, zero_factor_order=1)


def matignon_classify(q: CharQuadratic, order: float) -> StabilityReport:
    """Sector classification of the quadratic's roots in the w-plane.

    Asymptotically stable iff every root satisfies |arg(w)| > order*pi/2
    strictly; equality within SECTOR_TOL is marginal.  The recorded
    lambda^order factor is reported as a structural zero root (neutral
    direction), not entered into the verdict.  Roots that are not finite
    (a discriminant that overflows) raise OverflowError.
    """
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")
    roots = list(q.roots())
    _finite("a root of the sector quadratic", *roots)
    margins, verdict = _sector(roots, order)
    return StabilityReport(
        verdict=verdict, roots=roots, margins=margins, alpha=order,
        structural_zero_roots=q.zero_factor_order,
        metadata={"sector_half_angle": order * math.pi / 2.0})


def _sector(roots, order: float) -> tuple[list, str]:
    """Margins |arg w| - order*pi/2 of ``roots`` (0 at w = 0) and the
    verdict: stable when every margin exceeds SECTOR_TOL, unstable once
    one lies below -SECTOR_TOL, marginal otherwise."""
    half_sector = order * math.pi / 2.0
    margins = [abs(cmath.phase(w)) - half_sector if w else 0.0
               for w in roots]
    worst = min(margins)
    return margins, (STABLE if worst > SECTOR_TOL else
                     UNSTABLE if worst < -SECTOR_TOL else MARGINAL)


def _ep_blocks(s: _models.InertiaSetup) -> tuple[np.ndarray, np.ndarray]:
    """Transverse blocks (A, B) at omega_1, 2x2 each: one Jacobian in
    (omega, omegad) gives [df/domega | df/domegad], whose axis row and
    columns vanish; A has a zero diagonal and B is diagonal.  B is the
    coupling times the delayed torque's derivative, so at coupling 0 it
    is zero, also where the complex step would multiply the zero coupling
    by an overflowing term."""
    w = _models.find_equilibria(s, s.m)[0]
    field = _models.ep_delayed_field(s)
    jac = _models.jacobian(lambda z: field(z[:3], z[3:]),
                           np.concatenate((w, w)))
    a = jac[1:, 1:3]
    b = jac[1:, 4:] if s.coupling != 0 else np.zeros((2, 2))
    _finite("transverse block A", *a.ravel().tolist())
    _finite("transverse block B", *b.ravel().tolist())
    return a, b


def _ep_bracket(a, b) -> tuple[float, float, float]:
    """(q1, q2, q0) = (tr B, det B, -det A) of the :func:`_ep_blocks`."""
    _, det_a = _trace_det(a)
    tr_b, det_b = _trace_det(b)
    return tr_b, det_b, -det_a


def char_ep_eval(s: _models.InertiaSetup, kernel, lam):
    """Characteristic function of the delayed Euler-Poincare equilibrium.

    Evaluates the reduced (tangent-space) bracket det(lambda I - A - k1 B)
    = lambda^2 - q1 lambda k1(lambda) + q2 k1(lambda)^2 - q0; the full
    characteristic equation carries an extra structural lambda factor.
    A scalar ``lam`` gives a Python complex, an array gives an array.
    """
    lam, scalar = _kern._lambda_array(lam)
    k1 = _kern.laplace(kernel, lam)
    q1, q2, q0 = _ep_bracket(*_ep_blocks(s))
    out = lam * lam - q1 * lam * k1 + q2 * k1 * k1 - q0
    return complex(out[0]) if scalar else out


def tau_c_formula(s: _models.InertiaSetup) -> float:
    """The paper's critical-delay formula for the sharp-lag kernel.

    Requires I1 > I2 and I1 > I3, nonzero coupling and m.  It is not a
    bound: at I = (3, 2, 1) it gives 2.5 against the exact first crossing
    3*pi/5 = 1.885, and it can lie on either side.  It is reported side by
    side with the exact first crossing from :func:`critical_delay_scan`.
    """
    I1, I2, I3 = s.I1, s.I2, s.I3
    if not (I1 > I2 and I1 > I3):
        raise ValueError("tau_c requires I1 > I2 and I1 > I3")
    if s.coupling == 0:
        raise ValueError("tau_c requires nonzero delay coupling")
    if s.m == 0:
        raise ValueError("tau_c requires nonzero equilibrium magnitude m")
    num = I1 * (I3 * (I1 - I2) + I2 * (I1 - I3))
    den = 3.0 * abs(s.coupling) * s.m * s.m * (I1 - I2) * (I1 - I3)
    return num / den


def critical_delay_scan(s: _models.InertiaSetup) -> float | None:
    """Smallest lag tau >= 0 placing a characteristic root on i*omega: the
    least phase / omega over :func:`_crossings` as a float, or None when
    there is no crossing (coupling 0 never produces one)."""
    if s.coupling == 0:
        return None
    return _first_delay(_crossings(_ep_bracket(*_ep_blocks(s))))


def _first_delay(crossings) -> float | None:
    """The least phase / omega over the ``crossings`` families, or None."""
    return min((phase / omega for omega, phase, _ in crossings),
               default=None)


def _crossings(q) -> list[tuple[float, float, int]]:
    """Every crossing family (omega, phase, direction) of the bracket ``q``.

    Exact algebra on the bracket at lambda = i*omega.  With
    z = exp(-i omega tau) = c - i*sn on the unit circle, multiplying
    P(lambda, z) = lambda^2 - q1 lambda z + q2 z^2 - q0 by conj(z) leaves
    (q2 - omega^2 - q0) c = 0 and sn (q2 + omega^2 + q0) = -q1 omega.  So a
    crossing has either c = 0, sn = +-1 and omega > 0 a root of
    omega^2 +- q1 omega + q2 + q0, or omega^2 = q2 - q0 > 0 with
    sn = -q1 omega / (2 q2), |sn| <= 1 and c = +-sqrt(1 - sn^2) (Cooke &
    van den Driessche, Funkcialaj Ekvacioj 29, 1986).  A pair of roots sits
    on +-i*omega at every tau_k = (phase + 2 pi k) / omega, k >= 0, with
    phase = -arg z in [0, 2 pi), and moves to the right (direction +1) or
    the left (-1) as tau grows past it: the sign of Re dlambda/dtau, which
    is that of Re[P_lambda / (lambda z P_z)] at every tau_k.  A
    coefficient that is not finite raises OverflowError.
    """
    q1, q2, q0 = q
    for name, value in zip(("q1 = tr B", "q2 = det B", "q0 = -det A"), q):
        _finite(f"bracket coefficient {name}", value)
    if q2 == 0:  # coupling^2 m^4 underflows
        raise ZeroDivisionError("quadratic coefficient q2 underflows to 0")
    crossings = []  # (omega, c, sn)
    disc = q1 * q1 - 4.0 * (q2 + q0)
    if disc >= 0.0:
        for sn in (1.0, -1.0):
            # roots of omega^2 + sn q1 omega + q2 + q0, without cancellation
            big = -0.5 * (sn * q1 + math.copysign(math.sqrt(disc), sn * q1))
            if big:
                crossings += [(omega, 0.0, sn) for omega in
                              (big, (q2 + q0) / big) if omega > 0.0]
    if q2 > q0:
        omega = math.sqrt(q2 - q0)
        sn = -q1 * omega / (2.0 * q2)
        if abs(sn) <= 1.0:
            c = math.sqrt((1.0 - sn) * (1.0 + sn))
            crossings += [(omega, c, sn), (omega, -c, sn)]
    families = []
    for omega, c, sn in crossings:
        lam, z = complex(0.0, omega), complex(c, -sn)
        # Re(a / b) has the sign of Re(a conj(b)), which needs no division
        re = ((2.0 * lam - q1 * z)
              * (lam * z * (2.0 * q2 * z - q1 * lam)).conjugate()).real
        families.append((omega, math.atan2(sn, c) % (2.0 * math.pi),
                         (re > 0.0) - (re < 0.0)))
    return families


def frac_delay_char_eval(A, B, order: float, kernel, lam):
    """det(lambda^order I - A - k1(lambda) B) on the principal branch.

    A scalar ``lam`` gives a Python complex, an array gives an array.  The
    branch cut lies on the negative real axis; evaluation close to the cut
    raises a RuntimeWarning because the power is discontinuous there.
    """
    lam, scalar = _kern._lambda_array(lam)
    if np.any((lam.real < 0)
              & (np.abs(lam.imag) < 1e-12 * np.maximum(1.0, -lam.real))):
        warnings.warn("lambda is close to the principal branch cut; "
                      "the result is one-sided", RuntimeWarning, stacklevel=2)
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square matrices of equal shape")
    w = lam**order
    k1 = _kern.laplace(kernel, lam)
    mat = (w[..., None, None] * np.eye(A.shape[0]) - A
           - k1[..., None, None] * B)
    out = np.linalg.det(mat)
    return complex(out[0]) if scalar else out


def count_rhp_roots(f, sigma_max: float = 50.0, omega_max: float = 50.0, *,
                    samples_per_edge: int = 96,
                    max_depth: int = 28) -> tuple[int, float]:
    """Zeros of ``f`` inside the rectangle [0, sigma_max] x [-i, +i]*omega_max.

    ``f`` maps a 1-D complex array of lambda to the array of its values.
    Winding number over the counterclockwise boundary: one call for the
    4 * (samples_per_edge + 1) edge samples (corners twice), then one call
    per depth below ``max_depth`` for the midpoints of every segment whose
    phase increment exceeds pi/2.  Returns (count, min_boundary_ratio)
    where the second entry is the smallest |f| on the contour divided by
    the contour median |f|; values near zero flag a root on the boundary
    (a marginal case).  A zero sample gives (-1, 0.0).

    Every phase step is the principal argument of a ratio of two samples,
    and the steps run around a closed chain of samples, so for a
    deterministic ``f`` they add up to whole turns up to rounding: the
    rounded count needs no settling check.  A step above pi/2 left at
    ``max_depth`` can still make that whole number wrong.
    """
    corners = np.array([complex(0.0, -omega_max),
                        complex(sigma_max, -omega_max),
                        complex(sigma_max, omega_max),
                        complex(0.0, omega_max), complex(0.0, -omega_max)])
    za, zb = corners[:-1, None], corners[1:, None]
    edges = za + (zb - za) * np.linspace(0.0, 1.0, samples_per_edge + 1)
    vals = np.asarray(f(edges.ravel()), dtype=complex).reshape(edges.shape)
    if not vals.all():
        return -1, 0.0
    all_abs = [np.abs(vals).ravel()]
    z1, z2 = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    f1, f2 = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    total = 0.0
    depth = 0
    while True:
        dphi = np.angle(f2 / f1)
        split = (np.abs(dphi) > math.pi / 2.0) & (depth < max_depth)
        total += float(dphi[~split].sum())
        if not split.any():
            break
        zm = 0.5 * (z1[split] + z2[split])
        fm = np.asarray(f(zm), dtype=complex)
        if not fm.all():
            return -1, 0.0
        all_abs.append(np.abs(fm))
        z1, z2 = np.r_[z1[split], zm], np.r_[zm, z2[split]]
        f1, f2 = np.r_[f1[split], fm], np.r_[fm, f2[split]]
        depth += 1
    all_abs = np.concatenate(all_abs)
    scale = float(np.median(all_abs)) or 1.0
    return int(round(total / (2.0 * math.pi))), float(all_abs.min()) / scale


def ep_delayed_check(s: _models.InertiaSetup, kernel) -> StabilityReport:
    """Verdict for the delayed Euler-Poincare equilibrium under ``kernel``.

    A Dirac lag tau takes :func:`_crossing_verdict`: the n0 right-half-plane
    roots of lambda^2 - q1 lambda + q2 - q0 at tau = 0, then the crossing
    families of :func:`_crossings` below tau.  At q2 = q0, or q2 > q0 with
    q1 = 0 (coupling 0 among them), roots lie on the imaginary axis at
    tau = 0: the verdict is marginal and the count ``uncertain``.  A gamma
    kernel reports the roots of :func:`_chain_roots` and the sector test
    at order 1; a margin within SECTOR_TOL of 0, or a dropped root, makes
    the count ``uncertain`` and a stable verdict marginal.  A uniform
    kernel takes :func:`_uniform_verdict`, from the eigenvalues of the
    collocated generator, and reports no roots; with coupling 0 and I1
    the largest moment a pair lies on the imaginary axis, marginal and
    ``uncertain``.  The structural lambda factor is one zero root.  With
    nonzero coupling the report carries :func:`critical_delay_scan` as
    ``critical_delay`` and :func:`tau_c_formula`; a Dirac kernel adds
    ``kernel_lag``.  Blocks or bracket coefficients that leave the float
    range raise OverflowError (:func:`_finite`) rather than give a verdict
    on inf.
    """
    a, b = _ep_blocks(s)
    q1, q2, q0 = q = _ep_bracket(a, b)
    rep = StabilityReport(verdict=MARGINAL, structural_zero_roots=1)
    crossings, count = [], "uncertain"
    if s.coupling != 0:
        crossings = _crossings(q)
        rep.critical_delay = _first_delay(crossings)
        rep.metadata["tau_c_formula"] = repr(tau_c_formula(s))
    if isinstance(kernel, _kern.DiracKernel):
        rep.metadata["kernel_lag"] = repr(kernel.lag)
        if q2 < q0 or (q2 > q0 and q1 != 0):
            rep.verdict, count = _crossing_verdict(
                1 if q2 < q0 else 2 * (q1 > 0), crossings, kernel.lag)
    elif not isinstance(kernel, _kern.GammaKernel):
        rep.verdict, count = _uniform_verdict(a, b, kernel)
    elif s.coupling != 0:
        rep.roots = _chain_roots(q, kernel)
        rep.margins, rep.verdict = _sector(rep.roots, 1.0)
        if len(rep.roots) < 2 + 2 * kernel.shape:  # some were dropped
            rep.verdict = UNSTABLE if rep.verdict == UNSTABLE else MARGINAL
        elif min(map(abs, rep.margins)) > SECTOR_TOL:
            count = sum(m < 0.0 for m in rep.margins)
    rep.metadata["rhp_root_count"] = count
    return rep


def _divisible(poly) -> np.ndarray:
    """``poly`` without the leading coefficients np.roots cannot divide by,
    which go with their roots."""
    with np.errstate(all="ignore"):
        while not np.isfinite(poly[1:] / poly[0]).all():
            poly = poly[1:]
    return poly


def _chain_roots(q, kernel: _kern.GammaKernel) -> list[complex]:
    """Roots, sorted by (re, im), of the bracket ``q`` under (r/(lambda +
    r))^n times b^(2n), b = (lambda + r)/max(r, 1): the chain polynomial
    (MacDonald, Time Lags in Biological Models, 1978), finite at any rate.

    np.roots finds a polynomial's large roots to working accuracy, but its
    small ones only to an absolute error of up to eps times the largest,
    and the reversed polynomial, whose roots are the reciprocals, the
    other way round: at a rate of 1e40 the first returns the lag-0 pair
    as 0.  So the roots below eps times the largest are taken from the
    reversed polynomial and the others from the polynomial itself; both
    lists sorted by magnitude, the smallest roots the reversed polynomial
    drops (as leading coefficients it cannot divide by) come from the
    polynomial too.
    """
    q1, q2, q0 = q
    n, r = kernel.shape, kernel.rate
    g = (r / max(r, 1.0)) ** n
    b_n = functools.reduce(np.polymul, [np.array([1.0, r]) / max(r, 1.0)] * n)
    poly = np.polyadd(np.polymul([1.0, 0.0, -q0], np.polymul(b_n, b_n)),
                      np.polymul([-q1 * g, 0.0], b_n))
    poly[-1] += q2 * g * g
    poly = _divisible(poly)
    big = sorted(np.roots(poly), key=abs)
    with np.errstate(all="ignore"):
        # a reciprocal that eig returns as 0 gives inf, never taken
        small = sorted(1.0 / np.roots(_divisible(poly[::-1])), key=abs)
    lost = len(big) - len(small)
    k = sum(abs(w) < 2.0**-52 * abs(big[-1]) for w in small)
    return sorted(map(complex, big[:lost] + small[:k] + big[lost + k:]),
                  key=lambda w: (w.real, w.imag))


def _uniform_generator(a, b, kernel: _kern.UniformKernel,
                       nodes: int) -> np.ndarray:
    """Eigenvalues of u' = A u + B (1/width) integral of u(t - s) ds over
    [offset, offset + width], collocated at the Chebyshev nodes
    tau (cos(j pi / nodes) - 1) / 2 of the solution operator's generator
    on [-tau, 0], tau = offset + width (Breda, Maset & Vermiglio, SIAM J.
    Sci. Comput. 27(2), 2005); its rightmost eigenvalues converge
    spectrally to the characteristic roots.  The rows past the first
    differentiate (Trefethen's matrix); the first is A u(0) plus B times
    the exact window averages of the Lagrange basis: Gauss-Legendre at
    nodes / 2 + 2 points (Golub & Welsch, Math. Comp. 23, 1969), the basis
    there summed from its Chebyshev (DCT-I) coefficients."""
    d, tau = a.shape[0], kernel.offset + kernel.width
    k = np.arange(nodes + 1)
    x = np.cos(np.pi * k / nodes)
    c = np.where(k % nodes, 1.0, 2.0) * (-1.0) ** k
    diff = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(nodes + 1))
    diff -= np.diag(diff.sum(axis=1))
    i = np.arange(1.0, nodes // 2 + 2)
    gl, vec = np.linalg.eigh(np.diag(i / np.sqrt(4.0 * i * i - 1.0), -1))
    # the window is x in [-1, 1 - 2 offset / tau], where the average over
    # s is the sum of vec[0]^2 f(g); the basis function of node j at g is
    # (2 / nodes) sum_k T_k(g) cos(j k pi / nodes), end terms halved in j, k
    g = (gl + 1.0) * (kernel.width / tau) - 1.0
    half = np.where(k % nodes, 1.0, 0.5)
    row = ((vec[0] ** 2 @ np.cos(np.outer(np.arccos(g), k)) * half)
           @ np.cos(np.outer(k, k) * (np.pi / nodes)) * (2.0 / nodes * half))
    gen = np.kron(diff * (2.0 / tau), np.eye(d))
    gen[:d] = np.kron(row, b)
    gen[:d, :d] += a
    return np.linalg.eigvals(gen)


def _uniform_verdict(a, b, kernel: _kern.UniformKernel):
    """(verdict, rhp_root_count) from the :func:`_uniform_generator` roots
    at N = 24, 48 and 96 nodes.  A root more than _AXIS_BAND
    max(1, |lambda|) right of the imaginary axis counts as right, one
    within that band of it as on the axis.  The count is settled once the
    right and on-axis counts agree between N and 2N and the rightmost real
    part moved by less than its distance from the axis at 2N (or than its
    band, on the axis), so that its sign holds; a root on the axis then
    makes the count ``uncertain`` and the verdict marginal, unless others
    surely lie right.  Unsettled at 96 nodes, the count is ``uncertain``
    and the verdict unstable only if roots lie surely right at both 48 and
    96."""
    seen = []  # (right, on the axis, rightmost real part) per node count
    for nodes in (24, 48, 96):
        lam = _uniform_generator(a, b, kernel, nodes)
        band = _AXIS_BAND * np.maximum(1.0, np.abs(lam))
        top = int(np.argmax(lam.real))
        right, on_axis = (int(np.sum(lam.real > band)),
                          int(np.sum(np.abs(lam.real) <= band)))
        if seen and seen[-1][:2] == (right, on_axis) and (
                abs(seen[-1][2] - lam.real[top])
                < max(abs(lam.real[top]), band[top])):
            return _bounds_verdict(right, right + on_axis)
        seen.append((right, on_axis, lam.real[top]))
    return _bounds_verdict(min(seen[-2][0], right), math.inf)


def _crossing_verdict(n0: int, crossings, tau: float):
    """(verdict, rhp_root_count) at lag ``tau`` for an equation with ``n0``
    right-half-plane roots at tau = 0 whose roots reach the imaginary axis
    only in the ``crossings`` families (omega, phase, direction): a pair on
    +-i*omega at omega*tau = phase (mod 2 pi), moving right each time for
    direction +1 and left for -1, so n0 + 2 sum direction
    #{k >= 0 : 0 < phase + 2 pi k < omega tau} of them.  A crossing within
    8 eps (relative) of omega*tau puts a root on the axis: the count is
    ``uncertain``, the verdict marginal unless roots surely lie to the
    right."""
    turn = 2.0 * math.pi
    low = high = n0  # the fewest and the most roots to the right
    for omega, phase, direction in crossings:
        wt, phase = (omega * tau if tau else 0.0), phase % turn
        band = 8 * 2.0 ** -52 * max(wt, 1.0)
        # the crossings surely below the lag and those that may be; past an
        # infinite omega*tau, more than a float can tell apart
        lo, hi = (math.inf if wt == math.inf else
                  max(0, math.ceil((wt + d - phase) / turn))
                  for d in (-band, band))
        low += 2 * direction * (lo if direction > 0 else hi)
        high += 2 * direction * (hi if direction > 0 else lo)
    return _bounds_verdict(low, high)


def _bounds_verdict(low, high):
    """(verdict, rhp_root_count) when at least ``low`` and at most ``high``
    roots lie right of the imaginary axis: the count when the two agree,
    else ``uncertain``, unstable when ``low`` is positive, else marginal."""
    if low == high and abs(low) != math.inf:
        return (UNSTABLE if low else STABLE), low
    return (UNSTABLE if low > 0 else MARGINAL), "uncertain"


def scalar_frac_delay_check(a: float, order: float,
                            tau: float) -> StabilityReport:
    """Verdict for the scalar fractional-delay equation D^order x = a x(t-tau).

    Closed form for lambda^order = a exp(-lambda tau): roots cross the
    imaginary axis only at omega = |a|^(1/order), rightward
    (Re dlambda/dtau = order omega^2 / (order^2 + tau^2 omega^2)), at
    omega tau = -order pi/2 (mod 2 pi) for a > 0, joining the real root
    a^(1/order), and pi - order pi/2 for a < 0; a = 0 leaves lambda = 0.
    """
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")
    verdict, count = MARGINAL, "uncertain"
    if a != 0:
        try:
            omega = abs(a) ** (1.0 / order)
        except OverflowError:
            omega = math.inf
        half = order * math.pi / 2.0
        verdict, count = _crossing_verdict(
            int(a > 0), [(omega, -half if a > 0 else math.pi - half, 1)], tau)
    return StabilityReport(verdict=verdict, alpha=order,
                           metadata={"rhp_root_count": count})


def planar_frac_delay_check(k1: float, k2: float, order: float,
                            tau: float) -> StabilityReport:
    """Verdict for the planar fractional system with a lagged cross term.

    D^order x = y - k1 x, D^order y = -(k1 + k2) y + x(t - tau): roots of
    (w + k1)(w + k1 + k2) = exp(-lambda tau), w = lambda^order.  On
    Re lambda >= 0 the left side's modulus is at least P = k1 (k1 + k2):
    P > 1 is stable at every tau and order, P = 1 has the root 0.  For
    P < 1 a positive real root exists at tau = 0, and pairs cross rightward
    at the one s = omega^order > 0 where that modulus, growing in s, is 1,
    at omega tau = -arg(left side) (mod 2 pi).
    """
    if not 0 <= k1 < math.inf:
        raise ValueError("k1 must be finite and >= 0")
    if not 0 < k2 < math.inf:
        raise ValueError("k2 must be finite and > 0")
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")
    prod = k1 * (k1 + k2)
    verdict, count = (STABLE, 0) if prod > 1.0 else (MARGINAL, "uncertain")
    if prod < 1.0:
        c = math.cos(order * math.pi / 2.0)
        quartic = np.polymul([1.0, 2.0 * k1 * c, k1 * k1],
                             [1.0, 2.0 * (k1 + k2) * c, (k1 + k2) ** 2])
        # one sign change: one positive root, every other real root negative
        s = max(r.real for r in np.roots(quartic - [0, 0, 0, 0, 1.0])
                if r.imag == 0)
        w = cmath.rect(s, order * math.pi / 2.0)
        verdict, count = _crossing_verdict(1, [(
            s ** (1.0 / order), -cmath.phase((w + k1) * (w + k1 + k2)), 1)],
            tau)
    return StabilityReport(verdict=verdict, alpha=order,
                           metadata={"rhp_root_count": count})
