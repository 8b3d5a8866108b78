"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s to watch
them stream) and asserts the same condition.
"""

import math
import time
from pathlib import Path

import numpy as np

from rigidmem import cli, kernels, models, stability
from rigidmem.fraccalc import mittag_leffler
from rigidmem.integrators import (FracConfig, HistorySpec, integrate_chain,
                                  integrate_dde, integrate_frac_abm,
                                  integrate_frac_dde, integrate_rk4)

REPO = Path(__file__).resolve().parents[1]
P321 = models.RigidBodyParams(3, 2, 1)
S321 = models.InertiaSetup(3, 2, 1, coupling=1.0, m=1.0)
X111 = np.array([1.0, 1.0, 1.0])
#: a start off the separatrix h = a2*c that X111 lies on
X_GENERIC = np.array([1.0, 0.5, 0.2])
DIAG = {"h": lambda x: models.hamiltonian(P321, x), "c": models.casimir}


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _drift(series):
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


def test_c01_conservation_suite():
    for x0 in (X111, X_GENERIC):
        start = time.perf_counter()
        traj = integrate_rk4(lambda x: models.rhs_classical(P321, x), x0,
                             50.0, 1e-3, diagnostics=DIAG)
        runtime = time.perf_counter() - start
        hd = _drift(traj.diagnostics["h"])
        cd = _drift(traj.diagnostics["c"])
        _report(f"C1 conservation, x0 = {x0}",
                hd < 1e-8 and cd < 1e-8 and runtime < 5.0,
                f"h drift {hd:.2e}, c drift {cd:.2e}, runtime {runtime:.2f}s")


def test_c02_metriplectic_suite():
    for x0 in (X111, X_GENERIC):
        traj = integrate_rk4(lambda x: models.rhs_revised(P321, x), x0,
                             50.0, 1e-3, diagnostics=DIAG)
        hd = _drift(traj.diagnostics["h"])
        worst_increase = float(np.max(np.diff(traj.diagnostics["c"])))
        _report(f"C2 metriplectic, x0 = {x0}",
                hd < 1e-8 and worst_increase <= 1e-12,
                f"h drift {hd:.2e}, worst c increase {worst_increase:.2e}")


def test_c03_reduction_identities():
    rng = np.random.default_rng(7)
    exact = all(
        np.array_equal(models.rhs_delayed(P321, x, x.copy()),
                       models.rhs_classical(P321, x))
        for x in rng.uniform(-3, 3, size=(300, 3)))
    ode = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111, 5.0,
                        1e-3)
    dde = integrate_dde(lambda x, xd: models.rhs_delayed(P321, x, xd),
                        kernels.DiracKernel(0.0), HistorySpec.constant(X111),
                        5.0, 1e-3)
    dde_diff = float(np.max(np.abs(ode.states - dde.states)))
    frac = integrate_frac_abm(lambda x: models.rhs_classical(P321, x),
                              FracConfig(order=1.0, h=1e-3), X111, 10.0)
    rk = integrate_rk4(lambda x: models.rhs_classical(P321, x), X111, 10.0,
                       1e-3)
    frac_diff = float(np.max(np.abs(frac.states - rk.states)))
    _report("C3 reduction identities",
            exact and dde_diff < 1e-10 and frac_diff < 1e-4,
            f"rhs exact {exact}, dirac0 diff {dde_diff:.2e}, "
            f"order-1 diff {frac_diff:.2e}")


def _last_stage_gap(chain, kern, phi, stride):
    """Largest gap between the chain's last stage and the Simpson kernel
    average of its own Hermite trajectory spliced with phi, at every
    ``stride``-th node."""
    dim = chain.core_dim

    def spliced(us):
        return np.where(us[:, None] <= 0.0, phi.eval_many(np.minimum(us, 0.0)),
                        chain.eval_many(np.maximum(us, 0.0))[:, :dim])

    history = HistorySpec(spliced, dim)
    return max(float(np.max(np.abs(
        kernels.convolve_history(kern, history, chain.times[k], chain.h)
        - chain.states[k, -dim:])))
        for k in range(0, chain.n_samples, stride))


def test_c04_kernel_oracle_equivalence():
    pair = lambda x, xd: models.rhs_delayed(P321, x, xd)
    phi = HistorySpec.constant(0.3 * X111)
    diffs = {}
    for name, kern in (("exp", kernels.GammaKernel(2.0, 1)),
                       ("erlang", kernels.GammaKernel(2.0, 2))):
        chain = integrate_chain(pair, kern, phi, 10.0, 5e-3)
        # t = 0, 0.25, ..., 10
        diffs[name] = _last_stage_gap(chain, kern, phi, 50)
    _report("C4 kernel oracle equivalence",
            all(d < 1e-6 for d in diffs.values()),
            ", ".join(f"{k} diff {v:.2e}" for k, v in diffs.items()))


def test_c05_fractional_oracle():
    details = []
    ok = True
    for order in (0.5, 0.82):
        exact = mittag_leffler(order, -1.0)
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            traj = integrate_frac_abm(lambda x: [-v for v in x],
                                      FracConfig(order=order, h=h), [1.0],
                                      1.0)
            errs.append(abs(float(traj.final_state[0]) - exact))
        slope = math.log2(errs[0] / errs[2]) / 2.0
        ok &= errs[2] < 2e-3 and abs(slope - (1 + order)) < 0.3
        details.append(f"alpha={order}: err {errs[2]:.2e}, order {slope:.2f}")
    _report("C5 fractional oracle", ok, "; ".join(details))


def test_c06_delayed_ep_consistency():
    start = time.perf_counter()
    w = models.find_equilibria(S321, S321.m)[0]
    A = models.jacobian(lambda u: models.rhs_ep_delayed(S321, u, w), w)
    B = models.jacobian(lambda u: models.rhs_ep_delayed(S321, w, u), w)
    rng = np.random.default_rng(42)
    kern = kernels.GammaKernel(1.5, 1)
    worst = 0.0
    for _ in range(100):
        lam = complex(rng.uniform(-1.0, 3.0), rng.uniform(-5.0, 5.0))
        k1 = kernels.laplace(kern, lam)
        M = lam * np.eye(2) - A[1:, 1:] - k1 * B[1:, 1:]
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        worst = max(worst, abs(det - stability.char_ep_eval(S321, kern, lam)))
    tau_c = stability.tau_c_formula(S321)
    tau_star = stability.critical_delay_scan(S321)
    pair = lambda u, ud: A @ u + B @ ud
    u0 = np.array([0.0, 0.01, 0.01])
    ratios = {}
    for fac in (0.1, 1.5):
        traj = integrate_dde(pair, kernels.DiracKernel(fac * tau_star),
                             HistorySpec.constant(u0), 40.0, 0.01)
        ratios[fac] = float(np.linalg.norm(traj.states[-1])
                            / np.linalg.norm(traj.states[0]))
    runtime = time.perf_counter() - start
    _report("C6 delayed EP consistency",
            worst < 1e-12 and tau_c == 2.5 and tau_star is not None
            and ratios[0.1] < 1.0 and ratios[1.5] > 1.0 and runtime < 30.0,
            f"det residual {worst:.1e}, tau_c {tau_c}, tau* {tau_star:.6f}, "
            f"decay ratio {ratios[0.1]:.1e}, growth ratio {ratios[1.5]:.1e}, "
            f"runtime {runtime:.1f}s")


def test_c07_fractional_verdict_table():
    expect_plain = {
        "M1": {1.0: stability.MARGINAL, 0.82: stability.STABLE},
        "M2": {1.0: stability.UNSTABLE, 0.82: stability.UNSTABLE,
               0.3: stability.UNSTABLE},
        "M3": {1.0: stability.MARGINAL, 0.82: stability.STABLE},
    }
    ok = True
    for which, cases in expect_plain.items():
        q = stability.char_frac_equilibrium(P321, which, 1.0)
        brute = np.roots([q.c2, q.c1, q.c0])
        for order, expected in cases.items():
            verdict = stability.matignon_classify(q, order).verdict
            margin = np.min(np.abs(np.angle(brute)) - order * np.pi / 2)
            brute_verdict = (stability.MARGINAL if abs(margin) <= 1e-12
                             else stability.STABLE if margin > 0
                             else stability.UNSTABLE)
            ok &= verdict == expected == brute_verdict
    q_rev = stability.char_frac_equilibrium(P321, "M1", 1.0, revised=True)
    poly_ok = (q_rev.c2, q_rev.c1, q_rev.c0) == (1.0, 9.0, 20.0)
    revised_ok = all(
        stability.matignon_classify(q_rev, order).verdict == stability.STABLE
        for order in (0.1, 0.5, 0.82, 1.0))
    _report("C7 fractional verdict table", ok and poly_ok and revised_ok,
            f"plain table {ok}, revised poly {poly_ok}, "
            f"revised stable {revised_ok}")


def test_c08_figure_recipes(tmp_path):
    # the bundled configs start on the separatrix; the generic start, as in
    # C1 and C2, is set on the command line
    for start in ((), ("--set", "run.x0=1.0, 0.5, 0.2")):
        results = {}
        for name in ("frac_order_1", "frac_order_082"):
            out = tmp_path / f"{name}.csv"
            code = cli.main(["simulate", "--config",
                             str(REPO / "configs" / f"{name}.cfg"),
                             "--out", str(out), *start])
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            results[name] = (code, rows)
        code1, rows1 = results["frac_order_1"]
        drift = max(_drift(rows1[:, 4]), _drift(rows1[:, 5]))
        code2, rows2 = results["frac_order_082"]
        c_start, c_end = rows2[0, 5], rows2[-1, 5]
        _report(f"C8 figure recipes, x0 = {rows1[0, 1:4]}",
                code1 == 0 and code2 == 0 and drift < 1e-4
                and c_end < c_start,
                f"order-1 drift {drift:.2e}, casimir {c_start:.3f} -> "
                f"{c_end:.3f}")


def test_c09_scalar_planar_benchmarks():
    scalar = stability.scalar_frac_delay_check(-1.0, 0.7, 0.5)
    traj = integrate_frac_dde(lambda x, xd: [-v for v in xd],
                              FracConfig(order=0.7, h=0.01),
                              kernels.DiracKernel(0.5),
                              HistorySpec.constant([1.0]), 20.0)
    samples = [abs(float(traj.eval(float(t))[0])) for t in range(10, 21)]
    decreasing = all(a > b for a, b in zip(samples, samples[1:]))
    planar = stability.planar_frac_delay_check(1.0, 2.0, 0.5, 0.1)
    k1, k2 = 1.0, 2.0
    eigs = np.linalg.eigvals(np.array([[-k1, 1.0], [1.0, -(k1 + k2)]]))
    classical = stability.planar_frac_delay_check(k1, k2, 0.9999, 1e-6)
    classical_ok = (bool(np.all(eigs.real < 0))
                    == (classical.verdict == stability.STABLE))
    _report("C9 scalar/planar benchmarks",
            scalar.verdict == stability.STABLE and decreasing
            and planar.verdict == stability.STABLE
            and planar.metadata["rhp_root_count"] == 0 and classical_ok,
            f"scalar {scalar.verdict}, |x| decreasing {decreasing}, "
            f"planar count {planar.metadata['rhp_root_count']}, "
            f"classical limit ok {classical_ok}")


def test_c10_determinism(tmp_path):
    cfg = REPO / "configs" / "frac_order_082.cfg"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.csv"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--set", "run.t_end=1"])
        assert code == 0
        outs.append(out.read_bytes())
    scan_cfg = tmp_path / "scan.cfg"
    scan_cfg.write_text("""\
[system]
kind = ep-delayed
I1 = 3
I2 = 2
I3 = 1
coupling = 1
m = 1

[kernel]
kind = dirac
lag = 0.5

[run]
x0 = 0.33, 0.01, 0.01
t_end = 1
step = 0.01

[scan]
axis = tau
min = 0
max = 3
steps = 13
""")
    scans = []
    for tag in ("a", "b"):
        out = tmp_path / f"scan_{tag}.csv"
        assert cli.main(["scan", "--config", str(scan_cfg), "--out",
                         str(out)]) == 0
        scans.append(out.read_bytes())
    _report("C10 determinism",
            outs[0] == outs[1] and scans[0] == scans[1],
            f"simulate bytes equal {outs[0] == outs[1]}, "
            f"scan bytes equal {scans[0] == scans[1]}")
