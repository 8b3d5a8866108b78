import dataclasses
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidmem import cli, kernels, models
from rigidmem.errors import ConfigError
from rigidmem.integrators import (HistorySpec, integrate_dde,
                                  write_trajectory_csv)

REPO = Path(__file__).resolve().parents[1]

CLASSICAL = """\
[system]
kind = classical
a1 = 3
a2 = 2
a3 = 1

[run]
x0 = 1, 1, 1
t_end = 0.5
step = 0.01
"""

FRACTIONAL = """\
[system]
kind = fractional
a1 = 3
a2 = 2
a3 = 1

[fractional]
order = 0.82

[run]
x0 = 1, 1, 1
t_end = 0.5
step = 0.01

[stability]
equilibrium = M1
m = 1
"""

EP_DELAYED = """\
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
x0 = 0.3333333333333333, 0.01, 0.01
t_end = 2
step = 0.01

[scan]
axis = tau
min = 0
max = 3
steps = 31
"""


DELAYED = (CLASSICAL.replace("kind = classical", "kind = delayed")
           + "\n[kernel]\nkind = dirac\nlag = 0.1\n")
_SCAN = "\n[scan]\naxis = {}\nmin = 0\nmax = 3\nsteps = 4\n"
_EP_M = EP_DELAYED.split("[scan]")[0] + _SCAN.format("m")
_RUN = "\n[run]\nx0 = 1\nt_end = 2\nstep = 0.01\n"
_SCALAR = ("[system]\nkind = scalar-18\na = -1\n\n[kernel]\nkind = dirac\n"
           "lag = 0.5\n\n[fractional]\norder = 0.82\n" + _RUN)
_PLANAR = ("[system]\nkind = planar-19\nk1 = 1\nk2 = 2\n\n[kernel]\n"
           "kind = dirac\nlag = 0.5\n\n[fractional]\norder = 0.82\n"
           + _RUN.replace("x0 = 1", "x0 = 1, 1"))
_UNIFORM = _EP_M.replace("kind = dirac\nlag = 0.5",
                         "kind = uniform\noffset = 0.1\nwidth = 0.5").replace(
    "step = 0.01", "step = 0.01\nquad_step = 0.005")
#: (config, section, key): every float key of every section, each in a
#: config that is valid with it and holds the key on its first "key = " line
FLOAT_KEYS = [pytest.param(text, section, key, id=f"{section}.{key}")
              for text, section, key in [
    *((FRACTIONAL + _SCAN.format("alpha"), section, key)
      for section, key in (("system", "a1"), ("system", "a2"),
                           ("system", "a3"), ("fractional", "order"),
                           ("run", "x0"), ("run", "t_end"), ("run", "step"),
                           ("stability", "m"), ("scan", "min"),
                           ("scan", "max"))),
    *((_EP_M, "system", key) for key in ("I1", "I2", "I3", "coupling", "m")),
    (_EP_M, "kernel", "lag"),
    *((_UNIFORM, section, key) for section, key in (
        ("kernel", "offset"), ("kernel", "width"), ("run", "quad_step"))),
    (_EP_M.replace("kind = dirac\nlag = 0.5", "kind = erlang\nrate = 1"),
     "kernel", "rate"),
    (_SCALAR, "system", "a"),
    (_PLANAR, "system", "k1"), (_PLANAR, "system", "k2")]]


def _line_of(text, prefix):
    """The number of the first line of ``text`` that starts with
    ``prefix``."""
    return next(n for n, line in enumerate(text.splitlines(), start=1)
                if line.startswith(prefix))


def run_cli(tmp_path, config_text, command, out_name, overrides=()):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    out_path = tmp_path / out_name
    argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
    for item in overrides:
        argv += ["--set", item]
    code = cli.main(argv)
    return code, out_path


class TestParseConfig:
    def test_minimal_classical(self):
        cfg = cli.parse_config(CLASSICAL)
        assert cfg.kind == "classical"
        assert isinstance(cfg.params, models.RigidBodyParams)
        assert np.array_equal(cfg.x0, [1.0, 1.0, 1.0])
        assert cfg.t_end == 0.5 and cfg.step == 0.01

    def test_fractional_order_accepted(self):
        cfg = cli.parse_config(FRACTIONAL)
        assert cfg.frac.order == 0.82

    def test_missing_kernel_section_named(self):
        text = CLASSICAL.replace("kind = classical", "kind = delayed")
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text)
        assert any("[kernel]" in msg and "line 2" in msg
                   for msg in info.value.messages)

    def test_ordering_violation_reports_line(self):
        text = CLASSICAL.replace("a1 = 3", "a1 = 1.5")
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text)
        assert any("a1 > a2 > a3" in msg and "line 3" in msg
                   for msg in info.value.messages)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_system_value_at_its_own_key(self, value):
        # m is the last [system] key: a --set value is located at --set,
        # a config line at its own line, not at I1's line 3
        with pytest.raises(ConfigError) as info:
            cli.parse_config(EP_DELAYED, overrides=[f"system.m={value}"])
        assert info.value.messages == ["--set: [system] m must be finite"]
        with pytest.raises(ConfigError) as info:
            cli.parse_config(EP_DELAYED.replace("m = 1", f"m = {value}"))
        assert info.value.messages == ["line 7: [system] m must be finite"]

    @pytest.mark.parametrize("text, key", [
        (CLASSICAL, "a2"), (FRACTIONAL, "a3"),
        ("[system]\nkind = scalar-18\na = -1\n", "a"),
        ("[system]\nkind = planar-19\nk1 = 1\nk2 = 2\n", "k2")])
    def test_every_kind_checks_each_system_value(self, text, key):
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text, overrides=[f"system.{key}=inf"])
        assert f"--set: [system] {key} must be finite" in info.value.messages

    def test_ordering_error_stays_at_the_first_key(self):
        with pytest.raises(ConfigError) as info:
            cli.parse_config(EP_DELAYED, overrides=["system.I3=5"])
        assert info.value.messages == [
            "line 3: [system] require I1 > I2 > I3 > 0, got (3.0, 2.0, 5.0)"]

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as info:
            cli.parse_config(CLASSICAL + "typo_key = 1\n")
        assert any("typo_key" in msg for msg in info.value.messages)

    def test_unknown_kind_reports_no_key_of_its_sections(self):
        # without a kind nothing says which keys [system], [fractional] and
        # [stability] may hold; an unknown section and an unknown [run] key
        # are still reported
        text = (FRACTIONAL.replace("kind = fractional", "kind = quantum")
                + "\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text, overrides=["run.typo=1"])
        messages = info.value.messages
        assert len(messages) == 3
        assert messages[0].startswith("line 2: [system] kind = 'quantum'")
        assert messages[1:] == ["--set: unknown key 'typo' in [run]",
                                "line 19: unknown section [extra]"]

    def test_set_override(self):
        cfg = cli.parse_config(FRACTIONAL, overrides=["fractional.order=0.5"])
        assert cfg.frac.order == 0.5

    def test_bad_override_reported(self):
        with pytest.raises(ConfigError) as info:
            cli.parse_config(FRACTIONAL, overrides=["nonsense"])
        assert any("--set" in msg for msg in info.value.messages)

    def test_kernel_not_allowed_for_classical(self):
        text = CLASSICAL + "\n[kernel]\nkind = dirac\nlag = 0.1\n"
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text)
        assert any("not allowed" in msg for msg in info.value.messages)

    def test_x0_dimension_checked(self):
        text = FRACTIONAL.replace("x0 = 1, 1, 1", "x0 = 1, 1")
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text)
        assert any("x0" in msg for msg in info.value.messages)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("text, section, key", FLOAT_KEYS)
    def test_non_finite_value_is_one_error_at_its_key(self, text, section,
                                                      key, value):
        at = _line_of(text, f"{key} = ")
        bad = value if key != "x0" else f"1, {value}, 1"
        lines = text.splitlines()
        lines[at - 1] = f"{key} = {bad}"
        with pytest.raises(ConfigError) as info:
            cli.parse_config("\n".join(lines) + "\n")
        message = f"[{section}] {key} must be finite"
        assert info.value.messages == [f"line {at}: {message}"]
        with pytest.raises(ConfigError) as info:
            cli.parse_config(text, overrides=[f"{section}.{key}={bad}"])
        assert info.value.messages == [f"--set: {message}"]


class TestSimulate:
    def test_classical_run_writes_csv(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, CLASSICAL, "simulate", "run.csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,h,c"
        assert len(lines) == 52
        captured = capsys.readouterr().out
        assert "h_drift_rel" in captured and "runtime_s" in captured

    def test_zero_t_end_header_only(self, tmp_path):
        code, out = run_cli(tmp_path, CLASSICAL, "simulate", "empty.csv",
                            overrides=["run.t_end=0"])
        assert code == 0
        assert out.read_text() == "t,x1,x2,x3,h,c\n"

    @pytest.mark.parametrize("t_end", ["0.2", "0"])
    def test_shorter_rewrite_leaves_only_new_bytes(self, tmp_path, t_end):
        # an artifact is written over in place and cut at its end
        _, out = run_cli(tmp_path, CLASSICAL, "simulate", "run.csv",
                         ["run.t_end=6"])
        longer = out.stat().st_size
        run_cli(tmp_path, CLASSICAL, "simulate", "run.csv",
                [f"run.t_end={t_end}"])
        _, fresh = run_cli(tmp_path, CLASSICAL, "simulate", "fresh.csv",
                           [f"run.t_end={t_end}"])
        assert out.stat().st_size < longer
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("t_end", ["0.5", "0"])
    def test_out_to_a_device(self, tmp_path, t_end):
        # a target that is not a regular file is written and not cut;
        # run_cli left the config at run.cfg
        code, _ = run_cli(tmp_path, CLASSICAL, "simulate", "/dev/null",
                          [f"run.t_end={t_end}"])
        assert code == 0
        _, fresh = run_cli(tmp_path, CLASSICAL, "simulate", "fresh.csv",
                           [f"run.t_end={t_end}"])
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "rigidmem.cli", "simulate", "--config",
             str(tmp_path / "run.cfg"), "--out", "/dev/stdout", "--set",
             f"run.t_end={t_end}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            check=False, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(fresh.read_bytes() + b"kind = ")

    def test_determinism_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, FRACTIONAL, "simulate", "a.csv")
        _, out2 = run_cli(tmp_path, FRACTIONAL, "simulate", "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_diagnostics_recompute_from_emitted_states(self, tmp_path):
        _, out = run_cli(tmp_path, CLASSICAL, "simulate", "diag.csv")
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        p = models.RigidBodyParams(3, 2, 1)
        for row in rows[:: 10]:
            x = row[1:4]
            assert row[4] == models.hamiltonian(p, x)
            assert row[5] == models.casimir(x)

    def test_divergence_exit_code(self, tmp_path, capsys):
        text = """\
[system]
kind = scalar-18
a = 2.0

[kernel]
kind = dirac
lag = 0.5

[fractional]
order = 0.7

[run]
x0 = 1
t_end = 40
step = 0.01
"""
        code, _ = run_cli(tmp_path, text, "simulate", "div.csv")
        assert code == 3
        assert "last valid time" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [300, 250])
    def test_stiff_chain_divergence_names_the_cause(self, rate, tmp_path,
                                                    capsys):
        # h * rate = 3 lies past RK4's stability interval on the chain
        # stages (2.785); h * rate = 2.5 runs
        text = f"""\
[system]
kind = ep-delayed
I1 = 3
I2 = 2
I3 = 1
coupling = 1
m = 1

[kernel]
kind = erlang
rate = {rate}

[run]
x0 = 0.4, 0.3, 0.2
t_end = 5
step = 0.01
"""
        code, _ = run_cli(tmp_path, text, "simulate", "stiff.csv")
        err = capsys.readouterr().err
        if rate == 250:
            assert code == 0
            return
        assert code == 3
        assert err == ("error: state diverged; last valid time t = 0.17: "
                       "step * rate = 3 is above 2.785, where RK4 is "
                       "unstable on the chain stages; lower [run] step or "
                       "[kernel] rate\n")

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = CLASSICAL.replace("a1 = 3", "a1 = 1")
        code, _ = run_cli(tmp_path, bad, "simulate", "bad.csv")
        assert code == 2

    def test_scalar_run_columns(self, tmp_path):
        text = """\
[system]
kind = scalar-18
a = -1.0

[kernel]
kind = dirac
lag = 0.5

[fractional]
order = 0.7

[run]
x0 = 1
t_end = 1
step = 0.01
"""
        code, out = run_cli(tmp_path, text, "simulate", "scalar.csv")
        assert code == 0
        assert out.read_text().splitlines()[0] == "t,x1"

    def test_exponential_kernel_uses_chain_columns(self, tmp_path):
        text = """\
[system]
kind = delayed
a1 = 3
a2 = 2
a3 = 1

[kernel]
kind = exponential
rate = 2.0

[run]
x0 = 0.3, 0.3, 0.3
t_end = 1
step = 0.01
"""
        code, out = run_cli(tmp_path, text, "simulate", "chain.csv")
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,x1,x2,x3,h,c,eta1_1")

    def test_kernel_kind_fixes_the_gamma_shape(self, tmp_path, capsys):
        text = """\
[system]
kind = delayed
a1 = 3
a2 = 2
a3 = 1

[kernel]
kind = erlang
rate = 2.0
shape = 3

[run]
x0 = 0.3, 0.3, 0.3
t_end = 1
step = 0.01
"""
        code, _ = run_cli(tmp_path, text, "simulate", "shape.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 10: unknown key 'shape' in [kernel]\n")

    @pytest.mark.parametrize("kernel", ["exponential", "erlang"])
    def test_rational_kernel_csv_is_integrate_dde(self, kernel, tmp_path):
        # the CLI calls integrate_chain itself; integrate_dde hands the
        # same kernel to it, and both write the same bytes
        text = f"""\
[system]
kind = delayed
a1 = 3
a2 = 2
a3 = 1

[kernel]
kind = {kernel}
rate = 2.5

[run]
x0 = 0.3, 0.2, 0.4
t_end = 1
step = 0.01
"""
        code, out = run_cli(tmp_path, text, "simulate", "cli.csv")
        assert code == 0
        p = models.RigidBodyParams(3, 2, 1)
        kern = (kernels.GammaKernel(2.5, 1) if kernel == "exponential"
                else kernels.GammaKernel(2.5, 2))
        traj = integrate_dde(
            lambda x, xd: models.rhs_delayed(p, x, xd), kern,
            HistorySpec.constant([0.3, 0.2, 0.4]), 1.0, 0.01,
            diagnostics={"h": lambda x: models.hamiltonian(p, x),
                         "c": models.casimir})
        ref = tmp_path / "ref.csv"
        write_trajectory_csv(traj, ref)
        assert out.read_bytes() == ref.read_bytes()


class TestStability:
    def test_ep_delayed_report_contains_tau_c(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, EP_DELAYED, "stability", "rep.txt")
        assert code == 0
        text = out.read_text()
        assert "tau_c_formula = 2.5" in text
        assert "critical_delay" in text
        rows = (out.parent / "rep.txt.rows.csv").read_text().splitlines()
        assert rows[0] == "param,root_re,root_im,margin,verdict"
        assert len(rows) == 2

    def test_ep_delayed_linearizes_once(self, tmp_path, monkeypatch):
        # the verdict and the first crossing share one bracket
        calls = []
        jacobian = models.jacobian

        def counting(f, x):
            calls.append(x)
            return jacobian(f, x)

        monkeypatch.setattr(models, "jacobian", counting)
        code, out = run_cli(tmp_path, EP_DELAYED, "stability", "rep.txt")
        assert code == 0
        assert "critical_delay = " in out.read_text()
        assert len(calls) == 1

    def test_fractional_m1_verdict(self, tmp_path):
        code, out = run_cli(tmp_path, FRACTIONAL, "stability", "m1.txt")
        assert code == 0
        assert "verdict = asymptotically-stable" in out.read_text()

    def test_fractional_m2_unstable(self, tmp_path):
        for order in ("0.3", "0.82", "1.0"):
            code, out = run_cli(tmp_path, FRACTIONAL, "stability", "m2.txt",
                                overrides=["stability.equilibrium=M2",
                                           f"fractional.order={order}"])
            assert code == 0
            assert "verdict = unstable" in out.read_text()

    def test_stability_not_defined_for_delayed(self, tmp_path):
        code, out = run_cli(tmp_path, DELAYED, "stability", "no.txt")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["classical", "revised"])
    def test_undelayed_report_is_the_order_1_sector_report(self, kind, seed,
                                                           tmp_path):
        rng = np.random.default_rng(seed)
        a1, a2, a3 = sorted(rng.uniform(0.1, 5.0, 3).tolist(), reverse=True)
        text = (f"[system]\nkind = {kind}\na1 = {a1!r}\na2 = {a2!r}\n"
                f"a3 = {a3!r}\n[run]\nx0 = 1, 1, 1\nt_end = 1\n"
                f"step = 0.01\n[stability]\nequilibrium = "
                f"M{rng.integers(1, 4)}\nm = {rng.uniform(0.1, 3.0)}\n")
        sector = "fractional" if kind == "classical" else "fractional-revised"
        frac = (text.replace(f"kind = {kind}", f"kind = {sector}")
                + "[fractional]\norder = 1\n")
        reports = {}
        for name, config in ((kind, text), (sector, frac)):
            code, out = run_cli(tmp_path, config, "stability", "rep.txt")
            assert code == 0
            head, body = out.read_text().split("\n", 1)
            assert head == f"kind = {name}"
            rows = Path(f"{out}.rows.csv").read_text().splitlines()
            param, rest = rows[1].split(",", 1)
            reports[name] = body, rest, param
        assert reports[kind] == (*reports[sector][:2], "nan")
        assert reports[sector][2] == "1"

    def test_underflowing_coefficient_is_an_error(self, tmp_path, capsys):
        # coupling^2 m^4 underflows to q2 = 0, where the crossing algebra
        # divides by zero
        code, out = run_cli(tmp_path, EP_DELAYED, "stability", "rep.txt",
                            overrides=["system.coupling=1e-200"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: quadratic coefficient q2 underflows to 0\n")
        assert not out.exists()

    def test_huge_erlang_rate(self, tmp_path, capsys):
        # rate**2 overflowed: "error: (34, 'Numerical result out of range')"
        text = EP_DELAYED.split("[scan]")[0].replace(
            "kind = dirac\nlag = 0.5", "kind = erlang\nrate = 1e300")
        code, out = run_cli(tmp_path, text, "stability", "rep.txt")
        assert code == 0
        assert capsys.readouterr().err == ""
        report = out.read_text()
        assert "verdict = marginal\n" in report
        assert "rhp_root_count = uncertain\n" in report


class TestScan:
    def test_tau_scan_single_flip(self, tmp_path):
        code, out = run_cli(tmp_path, EP_DELAYED, "scan", "scan.csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,root_re,root_im,margin,verdict"
        verdicts = [line.split(",")[-1] for line in lines[1:]]
        assert len(verdicts) == 31
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1

    def test_alpha_scan_marginal_at_one(self, tmp_path):
        text = FRACTIONAL + "\n[scan]\naxis = alpha\nmin = 0.5\nmax = 1.0\nsteps = 6\n"
        code, out = run_cli(tmp_path, text, "scan", "alpha.csv")
        assert code == 0
        verdicts = [line.split(",")[-1]
                    for line in out.read_text().splitlines()[1:]]
        assert verdicts[:-1] == ["asymptotically-stable"] * 5
        assert verdicts[-1] == "marginal"

    def test_empty_range_header_only(self, tmp_path):
        code, out = run_cli(tmp_path, EP_DELAYED, "scan", "empty.csv",
                            overrides=["scan.steps=0"])
        assert code == 0
        assert out.read_text() == "param,root_re,root_im,margin,verdict\n"

    def test_scan_determinism(self, tmp_path):
        _, out1 = run_cli(tmp_path, EP_DELAYED, "scan", "s1.csv")
        _, out2 = run_cli(tmp_path, EP_DELAYED, "scan", "s2.csv")
        assert out1.read_bytes() == out2.read_bytes()

    @staticmethod
    def _failing_points(monkeypatch, exc):
        def report(cfg):
            raise exc("bad point")

        monkeypatch.setitem(cli._KINDS, "ep-delayed", dataclasses.replace(
            cli._KINDS["ep-delayed"], report=report))

    def test_invalid_point_is_a_row(self, tmp_path, monkeypatch):
        self._failing_points(monkeypatch, ValueError)
        code, out = run_cli(tmp_path, EP_DELAYED, "scan", "scan.csv",
                            overrides=["scan.steps=2"])
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            "0,nan,nan,nan,error: bad point", "3,nan,nan,nan,error: bad point"]

    def test_underflowing_coefficient_is_a_row(self, tmp_path):
        code, out = run_cli(tmp_path, EP_DELAYED, "scan", "scan.csv",
                            overrides=["system.coupling=1e-200",
                                       "scan.steps=2"])
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            f"{tau},nan,nan,nan,error: quadratic coefficient q2 underflows "
            f"to 0" for tau in (0, 3)]

    def test_programming_error_is_raised(self, tmp_path, monkeypatch):
        self._failing_points(monkeypatch, TypeError)
        with pytest.raises(TypeError, match="bad point"):
            run_cli(tmp_path, EP_DELAYED, "scan", "scan.csv",
                    overrides=["scan.steps=2"])

    def test_scan_requires_section(self, tmp_path):
        code, _ = run_cli(tmp_path, FRACTIONAL, "scan", "no.csv")
        assert code == 2

    def test_overflowing_span_is_an_error(self, tmp_path, capsys):
        text = FRACTIONAL + ("\n[scan]\naxis = m\nmin = -1.7e308\n"
                             "max = 1.7e308\nsteps = 3\n")
        code, out = run_cli(tmp_path, text, "scan", "span.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {_line_of(text, 'max')}: [scan] max - min must be "
            f"finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["delayed", "revised-delayed"])
    def test_kind_without_report_scans_no_axis(self, kind, tmp_path, capsys):
        text = (DELAYED.replace("kind = delayed", f"kind = {kind}")
                + _SCAN.format("tau"))
        code, out = run_cli(tmp_path, text, "scan", "tau.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {_line_of(text, 'axis')}: [scan] axis = tau is not "
            f"defined for kind = {kind}\n")
        assert not out.exists()


class TestMain:
    def test_no_reference_cycles(self, tmp_path, capsys):
        calls = [(CLASSICAL, "simulate", ()), (FRACTIONAL, "stability", ()),
                 (EP_DELAYED, "stability", ()), (EP_DELAYED, "scan", ()),
                 (CLASSICAL, "simulate", ("run.step=-1",))]

        def run_all():
            return [run_cli(tmp_path, text, command, "out.csv", sets)[0]
                    for text, command, sets in calls]

        # the first round also pays one-time costs (lazy imports, caches)
        assert run_all() == [0, 0, 0, 0, 2]
        gc.collect()
        gc.disable()
        try:
            run_all()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("command, text", [
        ("simulate", CLASSICAL), ("stability", FRACTIONAL),
        ("scan", EP_DELAYED)])
    def test_unwritable_output(self, tmp_path, capsys, command, text):
        code, _ = run_cli(tmp_path, text, command, "missing/out.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: [Errno 2] ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "stability", "scan"])
    def test_undecodable_config(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"# caf\xe9\n" + CLASSICAL.encode())
        code = cli.main([command, "--config", str(cfg_path), "--out",
                         str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_set_values_do_not_leak_between_calls(self, tmp_path,
                                                  monkeypatch):
        seen = []
        parse = cli.parse_config

        def recording(text, overrides=()):
            seen.append(list(overrides))
            return parse(text, overrides=overrides)

        monkeypatch.setattr(cli, "parse_config", recording)
        _, first = run_cli(tmp_path, CLASSICAL, "simulate", "a.csv",
                           ["run.t_end=0.2"])
        _, second = run_cli(tmp_path, CLASSICAL, "simulate", "b.csv",
                            ["run.step=0.05"])
        _, third = run_cli(tmp_path, CLASSICAL, "simulate", "c.csv")
        assert seen == [["run.t_end=0.2"], ["run.step=0.05"], []]
        rows = [len(p.read_text().splitlines()) - 1
                for p in (first, second, third)]
        assert rows == [21, 11, 51]
