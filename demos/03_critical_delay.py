"""Critical delay of the spinning-body equilibrium under a lagged torque.

The axis equilibrium of the delayed Euler-Poincare system is stable for
small lags and loses stability when a characteristic root crosses the
imaginary axis.  Two numbers are reported side by side: the paper's
critical-delay formula tau_c, and the exact first crossing tau*, solved
from the characteristic function on the imaginary axis.  Simulations of
the linearized system on both sides of tau* confirm the flip, and each
lag's right-half-plane root count from the crossing algebra is printed
beside its growth ratio.  The formula is not a bound and lies above the
first crossing at this benchmark, so only tau* marks the stability edge.
"""

import numpy as np

from rigidmem import (DiracKernel, HistorySpec, InertiaSetup,
                      critical_delay_scan, ep_delayed_check, find_equilibria,
                      integrate_dde, jacobian, rhs_ep_delayed, tau_c_formula)

s = InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
print(f"inertia ({s.I1}, {s.I2}, {s.I3}), coupling {s.coupling}, m {s.m}")
print(f"tau_c (paper's formula): {tau_c_formula(s)}")
tau_star = critical_delay_scan(s)
print(f"tau*  (first crossing) : {tau_star:.12f}  (= 3*pi/5)")
print()

# the linearization at the axis equilibrium omega_1, from the field itself:
# du/dt = A u + B ud with A = df/domega and B = df/domegad
omega1 = find_equilibria(s, s.m)[0]
A = jacobian(lambda w: rhs_ep_delayed(s, w, omega1), omega1)
B = jacobian(lambda w: rhs_ep_delayed(s, omega1, w), omega1)
pair_lin = lambda u, ud: A @ u + B @ ud
u0 = np.array([0.0, 0.01, 0.01])
print("linearized perturbation over 40 time units:")
for fac in (0.1, 0.9, 1.1, 1.5):
    kernel = DiracKernel(fac * tau_star)
    traj = integrate_dde(pair_lin, kernel, HistorySpec.constant(u0), 40.0,
                         0.01)
    ratio = np.linalg.norm(traj.final_state) / np.linalg.norm(u0)
    trend = "decays" if ratio < 1 else "grows"
    count = ep_delayed_check(s, kernel).metadata["rhp_root_count"]
    print(f"  tau = {fac:4.1f} * tau*  ->  |u(40)|/|u(0)| = {ratio:9.3e}  "
          f"({trend}), right-half-plane roots: {count}")
print()

# full nonlinear flow below the crossing: the lagged torque is orthogonal
# to the angular momentum, so |I omega| is conserved and the flow settles
# on the axis equilibrium with the perturbed magnitude
phi0 = omega1 + np.array([0.0, 0.01, 0.01])
traj = integrate_dde(lambda x, xd: rhs_ep_delayed(s, x, xd),
                     DiracKernel(0.1), HistorySpec.constant(phi0), 40.0,
                     0.01)
inertia = np.array([s.I1, s.I2, s.I3])
m_prime = np.linalg.norm(inertia * phi0)
omega_star = np.array([m_prime / s.I1, 0.0, 0.0])
print("nonlinear flow at tau = 0.1 with a 1e-2 perturbation:")
for t in (0.0, 10.0, 20.0, 40.0):
    dev = np.linalg.norm(traj.eval(t) - omega_star)
    print(f"  t = {t:4.0f}: distance to the norm-matched equilibrium "
          f"= {dev:.3e}")
print(f"|I omega| drift over the run: "
      f"{np.max(np.abs(np.linalg.norm(inertia * traj.states, axis=1) - m_prime)):.1e}")
