"""The four delay kernels, and the chain that stands for two of them.

A delayed argument is the kernel-weighted average of the past state.
Exponential and Erlang kernels admit an exact reduction to auxiliary ODE
stages (the chain trick), which is how they are simulated: the last stage
is the delayed argument.  Direct quadrature of the chain's own trajectory,
spliced with the history before t = 0, must give that stage back.
"""

import math

import numpy as np

from rigidmem import (DiracKernel, ErlangKernel, ExponentialKernel,
                      HistorySpec, RigidBodyParams, UniformKernel,
                      chain_reduce, convolve_history, integrate_chain,
                      integrate_dde, laplace, rhs_delayed)

kernels = {
    "uniform(offset=0.5, width=1.5)": UniformKernel(0.5, 1.5),
    "exponential(rate=2)": ExponentialKernel(2.0),
    "erlang(rate=2)": ErlangKernel(2.0),
    "dirac(lag=0.7)": DiracKernel(0.7),
}

print("transform checks: k1(0) = 1 for every kernel, and for the history")
print("x(s) = exp(lam*s) the convolution at t equals exp(lam*t)*k1(lam)")
lam = -0.2
for name, kern in kernels.items():
    unit = laplace(kern, 0.0)
    conv = convolve_history(kern, lambda s: np.array([math.exp(lam * s)]),
                            2.0, 0.001)[0]
    tie = math.exp(lam * 2.0) * laplace(kern, lam).real
    print(f"  {name:34s} k1(0)-1 = {abs(unit - 1):.1e}   "
          f"conv-vs-transform gap = {abs(conv - tie):.1e}")
print()

p = RigidBodyParams(3, 2, 1)
pair = lambda x, xd: rhs_delayed(p, x, xd)
phi = HistorySpec.constant(np.array([0.3, 0.3, 0.3]))



def spliced(chain):
    """The chain's model states for t > 0, the history phi before."""
    return HistorySpec(lambda us: np.where(
        us[:, None] <= 0.0, phi.eval_many(np.minimum(us, 0.0)),
        chain.eval_many(np.maximum(us, 0.0))[:, :3]), 3)


print("delayed rigid body, x0 = (0.3, 0.3, 0.3), t in [0, 10], h = 5e-3;")
print("last stage against the Simpson average at t = 0, 0.25, ..., 10:")
for name in ("exponential(rate=2)", "erlang(rate=2)"):
    kern = kernels[name]
    chain = integrate_chain(pair, chain_reduce(kern), phi, 10.0, 5e-3)
    history = spliced(chain)
    gap = max(np.max(np.abs(convolve_history(kern, history, chain.times[k],
                                             5e-3) - chain.states[k, -3:]))
              for k in range(0, chain.n_samples, 50))
    print(f"  {name:24s} chain stages = {chain_reduce(kern).stages}, "
          f"max |stage - quadrature| = {gap:.2e}")
print()

print("the same system under a sharp lag and under a spread-out window:")
for name in ("dirac(lag=0.7)", "uniform(offset=0.5, width=1.5)"):
    traj = integrate_dde(pair, kernels[name], phi, 10.0, 5e-3)
    print(f"  {name:34s} endpoint = {np.round(traj.final_state, 5)}")
