"""Equilibrium stability analysis for the delayed and fractional systems.

Linearizations are complex-step Jacobians of each kind's own field at an
axis equilibrium.  Covers the fractional rigid body's quadratics in
w = lambda^order (sector condition) and, for every delayed rigid kind,
closed-form root counts from the exact imaginary-axis crossings at a
sharp (Dirac) lag, the eigenvalues of the ODE chain's matrix for gamma
kernels and those of the collocated solution-operator generator for
uniform ones.  No verdict depends on a search box.
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
    "STABLE", "MARGINAL", "UNSTABLE", "CharQuadratic", "StabilityReport",
    "char_frac_equilibrium", "matignon_classify", "char_ep_eval",
    "tau_c_formula", "critical_delay_scan", "frac_delay_char_eval",
    "count_rhp_roots", "ep_delayed_check", "rigid_delay_check",
    "scalar_frac_delay_check", "planar_frac_delay_check",
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
    when a root lies on the imaginary axis or a uniform kernel's generator
    roots have not settled); only gamma kernels also fill the roots.
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
        return self.roots[int(np.argmin(self.margins))] if self.roots else None

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


def _finite(name: str, *values) -> None:
    """Raise OverflowError naming ``name`` when one of the real or complex
    ``values`` left the float range: no verdict can rest on it."""
    if not all(map(cmath.isfinite, values)):
        raise OverflowError(f"{name} is not finite")


def _blocks(field, params, which, m: float, delayed: bool = True):
    """2x2 transverse blocks (A, B) of ``field``, (x, xd) -> dx/dt (x alone,
    and B None, when not ``delayed``), at the axis equilibrium ``which`` (M1,
    M2, M3 or 1, 2, 3) of magnitude ``m``: one complex-step Jacobian
    [df/dx | df/dxd], whose axis row and columns vanish."""
    try:
        axis = ("M1", "M2", "M3", 1, 2, 3).index(which) % 3
    except ValueError:
        raise ValueError(f"equilibrium must be one of M1, M2, M3, "
                         f"got {which!r}") from None
    _finite(f"m = {m!r}", m)
    x = _models.find_equilibria(params, m)[axis]
    off = (slice(1, 3), slice(0, 3, 2), slice(0, 2))[axis]
    if not delayed:
        return _models.jacobian(field, x)[off, off], None
    jac = _models.jacobian(lambda z: field(z[:3], z[3:]),
                           np.concatenate((x, x))).reshape(3, 2, 3)
    return jac[off, 0, off], jac[off, 1, off]


def _bracket(a, b) -> tuple[float, float, float, float, float]:
    """Python floats (tA, tB, dA, c, dB), traces t, determinants d and
    c = tr(adj(A) B), of det(lambda I - A - z B) = lambda^2 - lambda (tA +
    z tB) + dA + c z + dB z^2; a product that overflows is inf, silently."""
    (a11, a12), (a21, a22) = a.tolist()
    (b11, b12), (b21, b22) = b.tolist()
    return (a11 + a22, b11 + b22, a11 * a22 - a12 * a21,
            a22 * b11 - a12 * b21 - a21 * b12 + a11 * b22,
            b11 * b22 - b12 * b21)


def char_frac_equilibrium(p: _models.RigidBodyParams, which, m: float,
                          revised: bool = False) -> CharQuadratic:
    """Quadratic w^2 - tr(A) w + det(A) in w = lambda^order at the axis
    equilibrium ``which`` (M1, M2, M3 or 1, 2, 3) of the plain or revised
    field, A its transverse Jacobian block.  The common lambda^order factor
    of the neutral axis direction is recorded, not expanded.  An m, trace
    or determinant that is not finite, or a determinant whose products of
    nonzero entries underflow to 0, raises ArithmeticError.
    """
    bind = _models.revised_field if revised else _models.classical_field
    block, _ = _blocks(bind(p), p, which, m, delayed=False)
    (a, b), (c, d) = block.tolist()
    tr, det = a + d, a * d - b * c
    _finite(f"tr A = {tr!r}", tr)
    _finite(f"det A = {det!r}", det)
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
    """:func:`_blocks` at omega_1: A has a zero diagonal, B is diagonal and
    zero at coupling 0 (where the complex step may multiply 0 by inf)."""
    a, b = _blocks(_models.ep_delayed_field(s), s, 1, s.m)
    return a, (b if s.coupling != 0 else np.zeros((2, 2)))


def char_ep_eval(s: _models.InertiaSetup, kernel, lam):
    """Characteristic function of the delayed Euler-Poincare equilibrium:
    the reduced (tangent-space) :func:`_bracket` at z = k1(lambda), without
    the structural lambda factor.  A scalar ``lam`` gives a Python complex,
    an array an array."""
    lam, scalar = _kern._lambda_array(lam)
    k1 = _kern.laplace(kernel, lam)
    t_a, t_b, d_a, c, d_b = _bracket(*_ep_blocks(s))
    out = lam * lam - lam * (t_a + t_b * k1) + d_a + (c + d_b * k1) * k1
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
    return min((phase / omega for omega, phase, _ in
                _crossings(*_ep_blocks(s))), default=None)


def _crossings(a, b) -> list[tuple[float, float, int]]:
    """Every crossing family (omega, phase, direction) of the blocks: a
    pair of roots on +-i*omega at every lag (phase + 2 pi k) / omega,
    k >= 0, moving right (+1) or left (-1) as the lag grows past it.

    With z = exp(-i omega tau) = cs - i*sn, the :func:`_bracket` times
    conj(z) at lambda = i*omega is linear in (cs, sn), of determinant
    D = (dA - u)^2 - dB^2 + tA^2 u, u = omega^2: |z| = 1 is a quartic in u,
    solved in units of a power of 4 near its coefficients.  With tA = 0 and
    c = 0 or tB = 0, a root of D zeroes both of Cramer's numerators and
    carries a line of z, split off in closed form with the rest (Cooke &
    van den Driessche, Funkcialaj Ekvacioj 29, 1986).  direction is the sign
    of Re[P_lambda conj(lambda z P_z)], that of Re dlambda/dtau.  A bracket
    free of z has none; a coefficient not finite raises OverflowError.
    """
    coeffs = t_a, t_b, d_a, c, d_b = _bracket(a, b)
    if not (t_b or c or d_b):
        return []
    for name, value in zip(("tr A", "tr B", "det A", "tr(adj(A) B)",
                            "det B"), coeffs):
        _finite(f"bracket coefficient {name}", value)
    points, k = [], 0  # (omega, cs, sn), omega in units of 2^k
    if t_a == 0 and (c == 0 or t_b == 0):
        # the line at alpha = dB (tB = 0) or -dB (c = 0)
        u = d_a - d_b if c else d_a + d_b
        if u > 0.0 and d_b:
            omega = math.sqrt(u)
            fixed = -(c or t_b * omega) / (2.0 * d_b)
            if abs(fixed) <= 1.0:
                free = math.sqrt((1.0 - fixed) * (1.0 + fixed))
                points += [(omega, fixed, f) if c else (omega, f, fixed)
                           for f in (free, -free)]
        # the rest, z = sn (tB = 0) or -i sn (c = 0) at
        # omega^2 + sn s omega - u2 - sn n = 0, without cancellation
        u2, n, s = (d_a + d_b, c, 0.0) if c else (d_a - d_b, 0.0, t_b)
        for sn in (1.0, -1.0):
            disc = s * s + 4.0 * (u2 + sn * n)
            if disc >= 0.0:
                big = -0.5 * (sn * s + math.copysign(math.sqrt(disc), sn * s))
                if big:
                    points += [(w, sn, 0.0) if c else (w, 0.0, sn) for w in
                               (big, -(u2 + sn * n) / big) if w > 0.0]
    else:
        # u in units of 4^k, the traces in units of 2^k: exact, and the
        # quartic's coefficients stay near 1
        k = max(2 * math.frexp(t_a)[1], 2 * math.frexp(t_b)[1],
                *(math.frexp(v)[1] for v in (d_a, c, d_b))) // 2
        t_a, t_b = math.ldexp(t_a, -k), math.ldexp(t_b, -k)
        d_a, c, d_b = (math.ldexp(v, -2 * k) for v in (d_a, c, d_b))
        d1, d0 = t_a * t_a - 2.0 * d_a, (d_a - d_b) * (d_a + d_b)
        n1, n0 = c - t_a * t_b, -c * (d_a - d_b)  # D cs = n1 u + n0
        s1, s0 = -t_b, t_b * (d_a + d_b) - t_a * c  # D sn = omega (s1 u + s0)
        quartic = [1.0, 2.0 * d1 - s1 * s1,
                   d1 * d1 + 2.0 * d0 - n1 * n1 - 2.0 * s1 * s0,
                   2.0 * (d1 * d0 - n1 * n0) - s0 * s0, d0 * d0 - n0 * n0]
        for u in (r.real for r in np.roots(quartic) if not r.imag):
            alpha = d_a - u
            den = (alpha + d_b) * (alpha - d_b) + t_a * t_a * u
            if u > 0.0 and den:
                omega = math.sqrt(u)
                points.append((omega, (n1 * u + n0) / den,
                               omega * (s1 * u + s0) / den))
    families = []
    for omega, cs, sn in points:
        lam, z = complex(0.0, omega), complex(cs, -sn)
        # Re(a / b) has the sign of Re(a conj(b)), which needs no division
        re = ((2.0 * lam - t_a - t_b * z)
              * (lam * z * (c + 2.0 * d_b * z - t_b * lam)).conjugate()).real
        families.append((math.ldexp(omega, k), math.atan2(sn, cs)
                         % (2.0 * math.pi), (re > 0.0) - (re < 0.0)))
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
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
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
    phase increment exceeds pi/2.  Returns (count, min_boundary_ratio),
    the smallest |f| on the contour over its median |f| (near zero: a root
    on the boundary).  A zero sample gives (-1, 0.0).  The phase steps, each
    the argument of a ratio of two samples, run around a closed chain, so
    they add up to whole turns up to rounding; a step above pi/2 left at
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
    total, depth = 0.0, 0
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
    """:func:`_delay_report` of the delayed Euler-Poincare equilibrium, plus
    :func:`tau_c_formula` at nonzero coupling (at coupling 0 a pair sits on
    the imaginary axis at every lag)."""
    rep = _delay_report(*_ep_blocks(s), kernel)
    if s.coupling != 0:
        rep.metadata["tau_c_formula"] = repr(tau_c_formula(s))
    return rep


def rigid_delay_check(p: _models.RigidBodyParams, which, m: float, kernel,
                      revised: bool = False) -> StabilityReport:
    """:func:`_delay_report` of the delayed rigid body (the revised delayed
    field when ``revised``) under ``kernel`` at the axis equilibrium
    ``which`` (M1, M2, M3 or 1, 2, 3) of magnitude ``m``."""
    bind = _models.revised_delayed_field if revised else _models.delayed_field
    return _delay_report(*_blocks(bind(p), p, which, m), kernel)


def _delay_report(a, b, kernel) -> StabilityReport:
    """Verdict for u' = A u + B (kernel * u) on the transverse blocks of an
    axis equilibrium, whose neutral direction is one zero root.

    A Dirac lag, and any kernel when the bracket is free of z, counts the
    roots of det(lambda - A - B) right of the axis, then the
    :func:`_crossings` by :func:`_crossing_verdict`.  A centre there is a
    phase-0 family, counted right if it moves left: 2 roots past lag 0 if
    it moves right, none if left; one no family moves, or lambda = 0 at
    det(A + B) = 0, stays on the axis (direction 0).  A gamma kernel gives
    the :func:`_chain_roots` and their sector test at order 1 (a margin
    within SECTOR_TOL of 0, or a list of other than 2 + 2n roots for shape
    n: ``uncertain``, not stable), a uniform one :func:`_uniform_verdict`.
    Blocks or coefficients that leave the float range raise OverflowError.
    """
    _finite("transverse block A", *a.ravel().tolist())
    _finite("transverse block B", *b.ravel().tolist())
    t_a, t_b, d_a, c, d_b = _bracket(a, b)
    crossings = _crossings(a, b)
    rep = StabilityReport(verdict=MARGINAL, structural_zero_roots=1,
                          critical_delay=min((phase / omega for omega, phase,
                                              _ in crossings), default=None))
    dirac, count = isinstance(kernel, _kern.DiracKernel), "uncertain"
    if dirac:
        rep.metadata["kernel_lag"] = repr(kernel.lag)
    if dirac or not (t_b or c or d_b):
        tr, det = t_a + t_b, d_a + c + d_b
        moves = [direction for _, phase, direction in crossings if not phase]
        if det == 0 or tr == 0 and det > 0 and not moves:
            crossings.append((math.sqrt(det), 0.0, 0))
        n0 = 1 if det < 0 else 2 * (tr > 0) if det > 0 else int(tr > 0)
        rep.verdict, count = _crossing_verdict(
            n0 + 2 * (-1 in moves), crossings, kernel.lag if dirac else 0.0)
    elif not isinstance(kernel, _kern.GammaKernel):
        rep.verdict, count = _uniform_verdict(a, b, kernel)
    else:
        rep.roots = _chain_roots(a, b, kernel)
        rep.margins, rep.verdict = _sector(rep.roots, 1.0)
        if len(rep.roots) != 2 + 2 * kernel.shape:  # not every root kept
            rep.verdict = UNSTABLE if rep.verdict == UNSTABLE else MARGINAL
        elif min(map(abs, rep.margins)) > SECTOR_TOL:
            count = sum(m < 0.0 for m in rep.margins)
    rep.metadata["rhp_root_count"] = count
    return rep


def _chain_roots(a, b, kernel: _kern.GammaKernel) -> list[complex]:
    """Roots, sorted by (re, im), of det(lambda - A - z B) at z = (r/(lambda
    + r))^n: the eigenvalues of the chain matrix M = [[A, 0, .., B], [r, -r,
    0, ..], [0, r, -r, ..], ..] (MacDonald, Time Lags in Biological Models,
    1978) in two scales that stay in the float range at any rate.  Those
    on the rate's scale are max(r, 1) eig(M / max(r, 1)), kept above 1e3 eps
    times the largest; the ones below are min(r, 1) / mu over the
    eigenvalues mu of min(r, 1) M^-1 above 1e3 eps times the largest mu,
    M^-1 written by blocks in C = (A + B)^-1: block (k, 0) is C, block
    (k, j >= 1) is (C B - [j <= k]) / r.  At det(A + B) = 0 the ones below
    are lambda = 0.
    """
    n, r = kernel.shape, kernel.rate
    big, small, keep = max(r, 1.0), min(r, 1.0), 1e3 * 2.0**-52
    mat = np.kron(np.eye(n + 1, k=-1) - np.eye(n + 1), np.eye(2)) * (r / big)
    mat[:2, :2], mat[:2, -2:] = a / big, b / big
    lam = big * np.linalg.eigvals(mat)
    cut = keep * np.abs(lam).max()
    roots = list(lam[np.abs(lam) > cut])
    (p, q), (u, v) = (a + b).tolist()
    det = p * v - q * u
    if det == 0:
        roots += [0j] * (len(lam) - len(roots))
    else:
        c = np.array([[v / det, -q / det], [-u / det, p / det]])
        inv = (np.kron(np.ones((n + 1, n + 1)), c @ b)
               - np.kron(np.tri(n + 1), np.eye(2))) * (small / r)
        inv[:, :2] = np.tile(small * c, (n + 1, 1))
        _finite("(A + B)^-1", *inv.ravel().tolist())
        mu = np.linalg.eigvals(inv)
        low = small / mu[np.abs(mu) > keep * np.abs(mu).max()]
        roots += list(low[np.abs(low) <= cut])
    return sorted(map(complex, roots), key=lambda w: (w.real, w.imag))


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
    at N = 24, 48 and 96 nodes; a root more than _AXIS_BAND max(1, |lambda|)
    right of the imaginary axis counts as right, one within that band as on
    the axis.  The count settles once the right and on-axis counts agree
    between N and 2N and the rightmost real part moved by less than its
    distance from the axis (or its band, on it) at 2N; a root on the axis
    then makes it ``uncertain``, marginal unless others surely lie right.
    Unsettled at 96 nodes it is ``uncertain``, unstable only if roots lie
    surely right at both 48 and 96."""
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
    +-i*omega at omega*tau = phase (mod 2 pi), moving right for direction
    +1, left for -1 (either way for 0), so n0 + 2 sum direction
    #{k >= 0 : 0 < phase + 2 pi k < omega tau}.  A crossing within 8 eps
    (relative) of omega*tau puts a root on the axis: ``uncertain``, and
    marginal unless roots surely lie to the right."""
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
        low += 2 * (lo if direction > 0 else -hi if direction else 0)
        high += 2 * (hi if direction >= 0 else -lo)
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
