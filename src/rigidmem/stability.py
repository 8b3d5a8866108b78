"""Equilibrium stability analysis for the delayed and fractional systems.

Linearizations are complex-step Jacobians of each kind's own field at an
axis equilibrium.  Covers the fractional rigid body's quadratics in
w = lambda^order (sector condition), the delayed Euler-Poincare system's
characteristic function with its critical-delay bound and exact first
crossing, and argument-principle root counting for the scalar and planar
fractional-delay benchmarks.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kern
from . import models as _models

__all__ = [
    "STABLE",
    "MARGINAL",
    "UNSTABLE",
    "CharQuadratic",
    "StabilityReport",
    "char_frac_equilibrium",
    "matignon_classify",
    "char_ep_eval",
    "tau_c_formula",
    "critical_delay_scan",
    "frac_delay_char_eval",
    "count_rhp_roots",
    "ep_delayed_check",
    "scalar_frac_delay_check",
    "planar_frac_delay_check",
]

STABLE = "asymptotically-stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"

#: sector-margin tolerance separating "marginal" from a strict verdict
SECTOR_TOL = 1e-12

#: relative |f| on a contour below which a boundary root is flagged
_BOUNDARY_TOL = 1e-9


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

    ``margins`` holds |arg(w)| - order*pi/2 per root where applicable;
    contour-based checks leave the root list empty and record the
    right-half-plane count in ``metadata`` (``uncertain`` when a root lies
    on the contour).
    """

    verdict: str
    roots: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    alpha: float | None = None
    critical_delay: float | None = None
    structural_zero_roots: int = 0
    metadata: dict = field(default_factory=dict)
    #: the ep-delayed bracket (q1, q2, q0) the verdict came from, kept for
    #: the first crossing; not printed
    _bracket: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def min_margin(self) -> float | None:
        return min(self.margins) if self.margins else None

    @property
    def dominant_root(self) -> complex | None:
        if not self.roots:
            return None
        idx = int(np.argmin(self.margins)) if self.margins else 0
        return self.roots[idx]

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


def _transverse(jac: np.ndarray, axis: int) -> tuple[float, float]:
    """(trace, det) of the 2x2 block of ``jac`` off ``axis``; at an axis
    equilibrium the axis row and column vanish (the neutral direction)."""
    j, k = [i for i in range(3) if i != axis]
    a, b, c, d = jac[j, j], jac[j, k], jac[k, j], jac[k, k]
    return float(a + d), float(a * d - b * c)


def char_frac_equilibrium(p: _models.RigidBodyParams, which, m: float,
                          revised: bool = False) -> CharQuadratic:
    """Quadratic w^2 - tr(A) w + det(A) in w = lambda^order at the axis
    equilibrium ``which`` (M1, M2, M3 or 1, 2, 3) of the plain or revised
    field, A its transverse Jacobian block.  The common lambda^order factor
    of the neutral axis direction is recorded, not expanded.
    """
    try:
        axis = ("M1", "M2", "M3", 1, 2, 3).index(which) % 3
    except ValueError:
        raise ValueError(f"equilibrium must be one of M1, M2, M3, "
                         f"got {which!r}") from None
    field = _models.rhs_revised if revised else _models.rhs_classical
    x = _models.find_equilibria(p, m)[axis]
    tr, det = _transverse(_models.jacobian(lambda y: field(p, y), x), axis)
    # 0.0 - tr keeps the plain field's zero trace a +0.0
    return CharQuadratic(1.0, 0.0 - tr, det, zero_factor_order=1)


def matignon_classify(q: CharQuadratic, order: float) -> StabilityReport:
    """Sector classification of the quadratic's roots in the w-plane.

    Asymptotically stable iff every root satisfies |arg(w)| > order*pi/2
    strictly; equality within SECTOR_TOL is marginal.  The recorded
    lambda^order factor is reported as a structural zero root (neutral
    direction), not entered into the verdict.
    """
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")
    roots = list(q.roots())
    half_sector = order * math.pi / 2.0
    margins = []
    for w in roots:
        if w == 0:
            margins.append(0.0)
        else:
            margins.append(abs(cmath.phase(w)) - half_sector)
    worst = min(margins)
    if worst > SECTOR_TOL:
        verdict = STABLE
    elif worst < -SECTOR_TOL:
        verdict = UNSTABLE
    else:
        verdict = MARGINAL
    return StabilityReport(
        verdict=verdict, roots=roots, margins=margins, alpha=order,
        structural_zero_roots=q.zero_factor_order,
        metadata={"sector_half_angle": half_sector})


def _ep_bracket(s: _models.InertiaSetup) -> tuple[float, float, float]:
    """(q1, q2, q0) = (tr B, det B, -det A): one Jacobian in (omega, omegad)
    at omega_1 gives [A | B], whose transverse blocks are A = df/domega
    (zero diagonal) and B = df/domegad (diagonal)."""
    w = _models.find_equilibria(s, s.m)[0]
    jac = _models.jacobian(lambda z: _models.rhs_ep_delayed(s, z[:3], z[3:]),
                           np.concatenate((w, w)))
    _, det_a = _transverse(jac[:, :3], 0)
    tr_b, det_b = _transverse(jac[:, 3:], 0)
    return tr_b, det_b, -det_a


def _eval_bracket(q, kernel, lam):
    lam, scalar = _kern._lambda_array(lam)
    k1 = _kern.laplace(kernel, lam)
    q1, q2, q0 = q
    out = lam * lam - q1 * lam * k1 + q2 * k1 * k1 - q0
    return complex(out[0]) if scalar else out


def char_ep_eval(s: _models.InertiaSetup, kernel, lam):
    """Characteristic function of the delayed Euler-Poincare equilibrium.

    Evaluates the reduced (tangent-space) bracket det(lambda I - A - k1 B)
    = lambda^2 - q1 lambda k1(lambda) + q2 k1(lambda)^2 - q0; the full
    characteristic equation carries an extra structural lambda factor.
    A scalar ``lam`` gives a Python complex, an array gives an array.
    """
    return _eval_bracket(_ep_bracket(s), kernel, lam)


def tau_c_formula(s: _models.InertiaSetup) -> float:
    """Sufficient critical-delay bound for the sharp-lag kernel.

    Requires I1 > I2 and I1 > I3, nonzero coupling and m.  This bound is
    exposed side by side with the exact first crossing from
    :func:`critical_delay_scan`; the two need not coincide.
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
    """Smallest lag tau >= 0 placing a characteristic root on i*omega.

    Exact algebra on the bracket at lambda = i*omega.  With
    z = exp(-i omega tau) = c - i*sn on the unit circle, multiplying
    q2 z^2 - i q1 omega z - (omega^2 + q0) = 0 by conj(z) leaves
    (q2 - omega^2 - q0) c = 0 and sn (q2 + omega^2 + q0) = -q1 omega.  So a
    crossing has either c = 0, sn = +-1 and omega > 0 a root of
    omega^2 +- q1 omega + q2 + q0, or omega^2 = q2 - q0 > 0 with
    sn = -q1 omega / (2 q2), |sn| <= 1 and c = +-sqrt(1 - sn^2) (Cooke &
    van den Driessche, Funkcialaj Ekvacioj 29, 1986).  Each gives
    tau0 = (-arg z mod 2 pi) / omega; the smallest is returned as a float,
    or None when there is no crossing (coupling 0 never produces one).
    """
    if s.coupling == 0:
        return None
    return _first_crossing(_ep_bracket(s))


def _first_crossing(q) -> float | None:
    """critical_delay_scan's smallest crossing delay of the bracket ``q``."""
    q1, q2, q0 = q
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
    return min((math.atan2(sn, c) % (2.0 * math.pi) / omega
                for omega, c, sn in crossings), default=None)


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


def _contour_verdict(f) -> tuple[str, int | str]:
    """(verdict, rhp_root_count) from the contour count of ``f``.

    A root on or near the contour (boundary ratio below _BOUNDARY_TOL, or a
    zero sample) makes the count meaningless: it is reported as
    ``uncertain`` and the verdict as marginal.
    """
    count, boundary_ratio = count_rhp_roots(f)
    if boundary_ratio < _BOUNDARY_TOL or count < 0:
        return MARGINAL, "uncertain"
    return (STABLE if count == 0 else UNSTABLE), count


def ep_delayed_check(s: _models.InertiaSetup, kernel) -> StabilityReport:
    """Verdict for the delayed Euler-Poincare equilibrium under ``kernel``.

    Counts right-half-plane zeros of the reduced bracket of
    :func:`char_ep_eval`, built once, by the argument principle; the
    structural lambda factor is reported as one zero root.
    """
    q = _ep_bracket(s)
    verdict, count = _contour_verdict(
        lambda lam: _eval_bracket(q, kernel, lam))
    rep = StabilityReport(verdict=verdict, structural_zero_roots=1,
                          metadata={"rhp_root_count": count})
    rep._bracket = q
    return rep


def scalar_frac_delay_check(a: float, order: float,
                            tau: float) -> StabilityReport:
    """Verdict for the scalar fractional-delay equation D^order x = a x(t-tau).

    Counts right-half-plane roots of lambda^order - a exp(-lambda tau) by
    the argument principle.  The textbook non-resonance conditions for
    a < 0 are recorded as metadata only; they are not trusted as ground
    truth.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")

    verdict, count = _contour_verdict(
        lambda lam: lam**order - a * np.exp(-lam * tau))
    metadata = {
        "rhp_root_count": count,
        "hypothesis_a_negative": a < 0,
        "printed_condition": "(-a)^(1/order) != +/-((2k+1)*pi - order*pi/2)/tau",
    }
    if a < 0 and tau > 0:
        r = (-a) ** (1.0 / order)
        k_max = int(r * tau / (2.0 * math.pi)) + 2
        gaps = [abs(r - ((2 * k + 1) * math.pi - order * math.pi / 2.0) / tau)
                for k in range(k_max + 1)]
        metadata["nonresonance_gap"] = min(gaps)
    return StabilityReport(verdict=verdict, alpha=order, metadata=metadata)


def planar_frac_delay_check(k1: float, k2: float, order: float,
                            tau: float) -> StabilityReport:
    """Verdict for the planar fractional system with a lagged cross term.

    D^order x = y - k1 x, D^order y = -(k1 + k2) y + x(t - tau); the verdict
    comes from the 2x2 characteristic determinant with a sharp-lag kernel.
    The printed sufficient condition (which contains an unbound symbol) is
    recorded as metadata, never enforced.
    """
    if k1 < 0:
        raise ValueError("k1 must be >= 0")
    if not k2 > 0:
        raise ValueError("k2 must be > 0")
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    if not 0 < order <= 1:
        raise ValueError("order must lie in (0, 1]")
    A = np.array([[-k1, 1.0], [0.0, -(k1 + k2)]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    kernel = _kern.DiracKernel(tau)

    verdict, count = _contour_verdict(
        lambda lam: frac_delay_char_eval(A, B, order, kernel, lam))
    metadata = {
        "rhp_root_count": count,
        "printed_condition": "k1 > 0 and k2 > 1/k1 - k (symbol k unbound)",
    }
    return StabilityReport(verdict=verdict, alpha=order, metadata=metadata)
