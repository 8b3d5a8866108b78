"""Equilibrium verdicts: sector conditions and delay benchmarks.

The fractional rigid body has three axis equilibria whose characteristic
polynomials are quadratics in w = lambda^order.  A root is harmless when
it lies outside the sector |arg w| <= order*pi/2, so verdicts depend on
the order.  The scalar and planar fractional-delay benchmarks are decided
in closed form: the right-half-plane roots at zero lag, plus a pair for
every imaginary-axis crossing that the lag has passed.
"""

from rigidmem import (RigidBodyParams, char_frac_equilibrium,
                      matignon_classify, planar_frac_delay_check,
                      scalar_frac_delay_check)

p = RigidBodyParams(3, 2, 1)
print("verdict table, a = (3, 2, 1), m = 1:")
print(f"  {'equilibrium':14s} {'polynomial in w':22s} "
      f"{'order 1.0':22s} {'order 0.82':22s}")
for revised in (False, True):
    for which in ("M1", "M2", "M3"):
        q = char_frac_equilibrium(p, which, 1.0, revised=revised)
        label = which + (" (revised)" if revised else " (plain)")
        poly = f"w^2 + {q.c1:g} w + {q.c0:g}"
        v1 = matignon_classify(q, 1.0).verdict
        v082 = matignon_classify(q, 0.82).verdict
        print(f"  {label:14s} {poly:22s} {v1:22s} {v082:22s}")
print()
print("the plain M1/M3 pairs sit on the sector boundary at order 1 and")
print("move strictly inside it for any order below 1; M2 has a positive")
print("real root at every order; the revised M1 quadratic is Hurwitz.")
print()

rep = scalar_frac_delay_check(-1.0, 0.7, 0.5)
print("scalar benchmark D^0.7 x = -x(t - 0.5):")
print(f"  verdict {rep.verdict}, right-half-plane roots "
      f"{rep.metadata['rhp_root_count']}")
rep_pos = scalar_frac_delay_check(1.0, 0.7, 0.5)
print(f"  with gain +1 instead: {rep_pos.verdict} "
      f"({rep_pos.metadata['rhp_root_count']} right-half-plane root)")
print()

rep2 = planar_frac_delay_check(1.0, 2.0, 0.5, 0.1)
print("planar benchmark (k1, k2) = (1, 2), order 0.5, lag 0.1:")
print(f"  verdict {rep2.verdict}, right-half-plane roots "
      f"{rep2.metadata['rhp_root_count']}")
print()
print("full text report of the revised M1 equilibrium at order 0.82:")
print(matignon_classify(char_frac_equilibrium(p, 'M1', 1.0, revised=True),
                        0.82).to_text())
