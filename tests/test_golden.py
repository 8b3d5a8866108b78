"""Golden contract for the CLI: exit code, stdout, stderr and artifact bytes.

Every case runs ``rigidmem.cli.main`` in-process on a config written here
and compares the exit code, the standard output (``runtime_s`` value and
the directory of every ``wrote`` path masked), the standard error and the
SHA-256 of every file the run leaves in its output directory with the
table at the end of this file.  The cases cover both bundled configs,
every system kind through simulate, stability, each scan axis it accepts
and a zero-length run, each kernel kind, the fractional memory window and
corrector iterations, the validation errors, and stability inputs at the
edge of the float range.

The table was recorded with CPython 3.11.7 and numpy 2.4.6 linked against
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels) on x86_64.
Another numpy or BLAS build may round the last bit of a float differently
and so change a hash without any change to the program.  Running this file
as a script prints the table for the current program.
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

import pytest

from rigidmem import cli
from rigidmem.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]

RIGID = "[system]\nkind = {}\na1 = 3\na2 = 2\na3 = 1\n"
EP = ("[system]\nkind = ep-delayed\nI1 = 3\nI2 = 2\nI3 = 1\n"
      "coupling = 1\nm = 1\n")
DIRAC = "[kernel]\nkind = dirac\nlag = {}\n"
FRAC = "[fractional]\norder = {}\n"
RUN = "[run]\nx0 = {}\nt_end = {}\nstep = 0.01\n"
STAB = "[stability]\nequilibrium = {}\nm = {}\n"

#: one valid config per system kind
KINDS = {
    "classical": RIGID.format("classical") + RUN.format("1, 0.5, 0.2", 1),
    "revised": RIGID.format("revised") + RUN.format("1, 0.5, 0.2", 1),
    "delayed": RIGID.format("delayed") + DIRAC.format(0.3)
    + RUN.format("0.3, 0.3, 0.3", 1),
    "revised-delayed": RIGID.format("revised-delayed") + DIRAC.format(0.3)
    + RUN.format("0.3, 0.3, 0.3", 1),
    "fractional": RIGID.format("fractional") + FRAC.format(0.82)
    + RUN.format("1, 0.5, 0.2", 1) + STAB.format("M1", 1),
    "fractional-revised": RIGID.format("fractional-revised")
    + FRAC.format(0.7) + RUN.format("1, 0.5, 0.2", 1) + STAB.format("M3", 0.5),
    "ep-delayed": EP + DIRAC.format(0.5)
    + RUN.format("0.3333333333333333, 0.01, 0.01", 1),
    "scalar-18": "[system]\nkind = scalar-18\na = -1\n" + DIRAC.format(0.5)
    + FRAC.format(0.7) + RUN.format("1", 1),
    "planar-19": "[system]\nkind = planar-19\nk1 = 1\nk2 = 2\n"
    + DIRAC.format(0.5) + FRAC.format(0.8) + RUN.format("1, 0.5", 1),
}

#: scan axes each kind accepts (the delayed kinds have no report, so their
#: tau scans are rejected at parse), and the (min, max, steps) swept on each
AXES = {
    "classical": ("m",), "revised": ("m",),
    "delayed": ("tau",), "revised-delayed": ("tau",),
    "fractional": ("alpha", "m"), "fractional-revised": ("alpha", "m"),
    "ep-delayed": ("tau", "m"), "scalar-18": ("tau", "alpha"),
    "planar-19": ("tau", "alpha"),
}
RANGES = {"tau": (0, 3, 7), "alpha": (0.4, 1.2, 5), "m": (0, 2, 5)}


def _scan(axis, lo, hi, steps):
    return (f"scan.axis={axis}", f"scan.min={lo}", f"scan.max={hi}",
            f"scan.steps={steps}")


def _kernel(text, kernel):
    return re.sub(r"\[kernel\]\n(.*\n)*?(?=\[)", kernel, text)


def _cases():
    """name -> (command, config text or bundled config path, overrides)."""
    cases = {}
    for cfg in ("frac_order_082.cfg", "frac_order_1.cfg"):
        for command in ("simulate", "stability"):
            cases[f"{cfg}-{command}"] = (command, REPO / "configs" / cfg, ())
    for kind, text in KINDS.items():
        cases[f"{kind}-simulate"] = ("simulate", text, ())
        cases[f"{kind}-stability"] = ("stability", text, ())
        cases[f"{kind}-t_end0"] = ("simulate", text, ("run.t_end=0",))
        for axis in AXES.get(kind, ()):
            cases[f"{kind}-scan-{axis}"] = ("scan", text,
                                            _scan(axis, *RANGES[axis]))
    kernels = {
        "dirac0": DIRAC.format(0),
        "uniform": "[kernel]\nkind = uniform\noffset = 0.1\nwidth = 0.4\n",
        "exponential": "[kernel]\nkind = exponential\nrate = 2\n",
        "erlang": "[kernel]\nkind = erlang\nrate = 2\n",
    }
    for name, kernel in kernels.items():
        for kind in ("delayed", "revised-delayed", "ep-delayed"):
            text = _kernel(KINDS[kind], kernel)
            cases[f"{kind}-{name}-simulate"] = ("simulate", text, ())
        cases[f"ep-delayed-{name}-stability"] = (
            "stability", _kernel(KINDS["ep-delayed"], kernel), ())
    # a rational kernel's scan rows carry the root and margin columns
    cases["ep-delayed-erlang-scan-m"] = (
        "scan", _kernel(KINDS["ep-delayed"], kernels["erlang"]),
        _scan("m", *RANGES["m"]))
    for name in ("exponential", "erlang"):
        cases[f"delayed-{name}-t_end0"] = (
            "simulate", _kernel(KINDS["delayed"], kernels[name]),
            ("run.t_end=0",))
    cases["delayed-uniform-quad_step"] = (
        "simulate", _kernel(KINDS["delayed"], kernels["uniform"]),
        ("run.quad_step=0.005",))
    for kind in ("scalar-18", "planar-19"):
        cases[f"{kind}-dirac0-simulate"] = (
            "simulate", _kernel(KINDS[kind], kernels["dirac0"]), ())
    frac = KINDS["fractional"]
    cases["fractional-window"] = ("simulate", frac,
                                  ("fractional.memory=150", "run.t_end=3"))
    cases["fractional-corrector2"] = (
        "simulate", frac, ("fractional.corrector_iterations=2",))
    cases["fractional-revised-window-corrector2"] = (
        "simulate", KINDS["fractional-revised"],
        ("fractional.memory=120", "fractional.corrector_iterations=2",
         "run.t_end=2"))
    cases["fractional-m2-stability"] = (
        "stability", frac, ("stability.equilibrium=M2", "stability.m=2"))
    cases["ep-delayed-coupling0-stability"] = (
        "stability", KINDS["ep-delayed"], ("system.coupling=0",))
    # bracket coefficients and blocks at the edge of the float range: m =
    # 1e77 keeps its report, past it q2 = det B (and at 1e160 the block B
    # itself) overflows
    for kernel, m in (("dirac", "1e77"), ("dirac", "1e78"),
                      ("erlang", "1e78"), ("uniform", "1e160")):
        text = KINDS["ep-delayed"] if kernel == "dirac" else _kernel(
            KINDS["ep-delayed"], kernels[kernel].replace("0.4", "0.5"))
        cases[f"ep-delayed-{kernel}-m{m}-stability"] = (
            "stability", text, (f"system.m={m}",))
    # the sector verdict where det leaves the float range, and where it
    # does not
    for m in ("1e-200", "1e-160", "1e150", "6e153", "1e155"):
        cases[f"fractional-m{m}-stability"] = ("stability", frac,
                                               (f"stability.m={m}",))
    cases["fractional-scan-m-float-range"] = (
        "scan", frac, _scan("m", "1e-200", "1e155", 2))
    cases["scalar-18-diverges"] = ("simulate", KINDS["scalar-18"],
                                   ("system.a=2", "run.t_end=40"))
    cases.update(_invalid_cases())
    return cases


def _invalid_cases():
    delayed, frac = KINDS["delayed"], KINDS["fractional"]
    no_kernel = _kernel(delayed, "")
    uniform = _kernel(delayed, "[kernel]\nkind = uniform\nwidth = 0.5\n")
    return {
        "bad-missing-kernel": ("simulate", no_kernel, ()),
        "bad-forbidden-kernel": (
            "simulate", KINDS["classical"] + DIRAC.format(0.1), ()),
        "bad-missing-fractional": (
            "simulate", frac.replace(FRAC.format(0.82), ""), ()),
        "bad-forbidden-fractional": ("simulate", delayed + FRAC.format(0.5),
                                     ()),
        "bad-forbidden-stability": (
            "stability", KINDS["ep-delayed"] + STAB.format("M3", 30), ()),
        "bad-x0-length": ("simulate", KINDS["planar-19"],
                          ("run.x0=1, 2, 3",)),
        "bad-x0-nan": ("simulate", KINDS["classical"].replace(
            "x0 = 1, 0.5, 0.2", "x0 = nan, 0, 0"), ()),
        "bad-x0-inf": ("simulate", KINDS["delayed"].replace(
            "x0 = 0.3, 0.3, 0.3", "x0 = 0.3, -inf, 0.3"), ()),
        "bad-stability-m-nan": ("stability", frac.replace(
            STAB.format("M1", 1), STAB.format("M1", "nan")), ()),
        "bad-stability-m-inf": ("scan", frac.replace(
            STAB.format("M1", 1), STAB.format("M1", "inf")),
            _scan("alpha", 0.5, 1, 3)),
        "bad-scalar-uniform-kernel": (
            "simulate", _kernel(KINDS["scalar-18"],
                                "[kernel]\nkind = uniform\nwidth = 0.5\n"),
            ()),
        "bad-kind": ("scan", KINDS["planar-19"].replace("planar-19",
                                                        "quantum"),
                     _scan("m", 0, 1, 2) + ("run.x0=1",)),
        "bad-kind-alpha-axis": ("scan", KINDS["classical"].replace(
            "classical", "quantum"), _scan("alpha", 0, 1, 2)),
        "bad-kernel-kind": (
            "simulate", _kernel(KINDS["scalar-18"],
                                "[kernel]\nkind = gauss\nlag = 1\n"), ()),
        "bad-kernel-value": ("simulate", _kernel(
            delayed, "[kernel]\nkind = erlang\nrate = -1\n"), ()),
        "bad-kernel-missing-key": ("simulate", _kernel(
            delayed, "[kernel]\nkind = uniform\n"), ()),
        "bad-rigid-ordering": ("simulate", KINDS["classical"],
                               ("system.a1=1.5",)),
        "bad-ep-ordering": ("stability", KINDS["ep-delayed"],
                            ("system.I1=1",)),
        "bad-missing-system-key": ("simulate", KINDS["planar-19"].replace(
            "k2 = 2\n", ""), ()),
        "bad-system-value": ("simulate", KINDS["scalar-18"], ("system.a=x",)),
        "bad-fractional-order": ("simulate", frac, ("fractional.order=1.5",)),
        "bad-fractional-memory": ("simulate", frac,
                                  ("fractional.memory=abc",)),
        "bad-fractional-window": ("simulate", frac, ("fractional.memory=50",)),
        "bad-fractional-window-no-step": (
            "simulate", frac.replace("step = 0.01\n", ""),
            ("fractional.memory=50",)),
        "bad-missing-run": ("simulate", RIGID.format("classical"), ()),
        "bad-run-values": ("simulate", frac, ("run.t_end=-1", "run.step=0")),
        "bad-t_end-nan": ("simulate", KINDS["classical"], ("run.t_end=nan",)),
        "bad-t_end-inf": ("simulate", KINDS["classical"], ("run.t_end=inf",)),
        "bad-t_end-not-multiple": ("simulate", KINDS["classical"],
                                   ("run.t_end=0.015",)),
        "bad-step-nan": ("simulate", KINDS["classical"], ("run.step=nan",)),
        "bad-step-inf": ("simulate", KINDS["classical"], ("run.step=inf",)),
        "bad-quad_step-zero": ("simulate", uniform, ("run.quad_step=0",)),
        "bad-quad_step-negative": ("simulate", uniform, ("run.quad_step=-1",)),
        "bad-equilibrium": ("stability", frac, ("stability.equilibrium=M4",)),
        "bad-unknown-key": ("simulate", KINDS["classical"] + "typo = 1\n", ()),
        "bad-unknown-section": ("simulate", KINDS["classical"]
                                + "[extra]\nx = 1\n", ()),
        "bad-override": ("simulate", KINDS["classical"], ("nonsense",)),
        "bad-set-forbidden-kernel": ("simulate", KINDS["classical"],
                                     ("kernel.lag=1",)),
        "bad-set-unknown-section": ("simulate", KINDS["classical"],
                                    ("extra.x=1",)),
        "bad-set-kernel-missing-kind": ("simulate", no_kernel,
                                        ("kernel.lag=1",)),
        "bad-scan-missing": ("scan", frac, ()),
        "bad-scan-axis-m-scalar-18": ("scan", KINDS["scalar-18"],
                                      _scan("m", 0, 1, 3)),
        "bad-scan-axis-alpha-ep": ("scan", KINDS["ep-delayed"],
                                   _scan("alpha", 0.5, 1, 3)),
        "bad-scan-axis-tau-fractional": ("scan", frac, _scan("tau", 0, 1, 3)),
        "bad-scan-axis-tau-uniform": ("scan", _kernel(
            KINDS["ep-delayed"], "[kernel]\nkind = uniform\nwidth = 0.5\n"),
            _scan("tau", 0, 1, 3)),
        "bad-scan-axis-unknown": ("scan", frac, _scan("beta", 0, 1, 3)),
        "bad-scan-steps": ("scan", frac, _scan("alpha", 0.5, 1, -2)),
    }


CASES = _cases()

_RUNTIME = re.compile(r"^runtime_s = .*$", re.M)


def run_case(case, workdir: Path):
    """Run one case in ``workdir``; return (exit, stdout, stderr, hashes)."""
    command, config, overrides = case
    if isinstance(config, str):
        path = workdir / "run.cfg"
        path.write_text(config)
        config = path
    outdir = workdir / "out"
    outdir.mkdir()
    argv = [command, "--config", str(config), "--out", str(outdir / "out")]
    for item in overrides:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = _RUNTIME.sub("runtime_s = *", out.getvalue())
    stdout = stdout.replace(str(outdir), "<out>")
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(outdir.iterdir())}
    return code, stdout, err.getvalue(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("kind", sorted(
    set(KINDS) - {"classical", "revised", "fractional", "fractional-revised"}))
def test_stability_section_only_for_sector_kinds(kind):
    with pytest.raises(ConfigError, match=r"(?m)^line \d+: \[stability\] "
                       f"section is not allowed for kind = {kind}$"):
        cli.parse_config(KINDS[kind] + STAB.format("M1", 1))
    with pytest.raises(ConfigError, match=r"^--set: \[stability\] section"):
        cli.parse_config(KINDS[kind], overrides=["stability.m=2"])


def test_golden_stdout_has_no_numpy_repr():
    # numbers are printed as Python floats, not as np.float64(...)
    assert not [name for name, (_, out, *_) in GOLDEN.items()
                if "np.float64(" in out]


def test_golden_stderr_has_no_made_up_location():
    # every message names where its value came from, and only a kind the
    # config gave
    assert not [name for name, (_, _, err, _) in GOLDEN.items()
                if "line 0" in err or "kind = None" in err]


def _record():
    """Print the GOLDEN table for the current program."""
    import tempfile
    print("GOLDEN = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, files = run_case(CASES[name], Path(tmp))
        print(f"    {name!r}: (\n        {code},")
        for text in (out, err):
            lines = text.splitlines(keepends=True) or [""]
            print("\n".join(f"        {line!r}" for line in lines) + ",")
        hashes = ",\n         ".join(f"{k!r}: {v!r}" for k, v in files.items())
        print(f"        {{{hashes}}}),")
    print("}")


GOLDEN = {
    'bad-ep-ordering': (
        2,
        '',
        'error: --set: [system] require I1 > I2 > I3 > 0, got (1.0, 2.0, 1.0)\n',
        {}),
    'bad-equilibrium': (
        2,
        '',
        'error: --set: [stability] equilibrium must be M1, M2 or M3\n',
        {}),
    'bad-forbidden-fractional': (
        2,
        '',
        'error: line 13: [fractional] section is not allowed for kind = delayed\n'
        "error: line 14: unknown key 'order' in [fractional]\n",
        {}),
    'bad-forbidden-kernel': (
        2,
        '',
        'error: line 10: [kernel] section is not allowed for kind = classical\n'
        "error: line 11: unknown key 'kind' in [kernel]\n"
        "error: line 12: unknown key 'lag' in [kernel]\n",
        {}),
    'bad-forbidden-stability': (
        2,
        '',
        'error: line 15: [stability] section is not allowed for kind = ep-delayed\n'
        "error: line 16: unknown key 'equilibrium' in [stability]\n"
        "error: line 17: unknown key 'm' in [stability]\n",
        {}),
    'bad-fractional-memory': (
        2,
        '',
        "error: --set: [fractional] memory must be 'full' or an integer window\n",
        {}),
    'bad-fractional-order': (
        2,
        '',
        'error: --set: [fractional] order must lie in (0, 1]\n',
        {}),
    'bad-fractional-window': (
        2,
        '',
        'error: line 7: [fractional] truncated memory must span >= 1 time unit\n',
        {}),
    'bad-fractional-window-no-step': (
        2,
        '',
        "error: line 8: [run] missing required key 'step'\n",
        {}),
    'bad-kernel-kind': (
        2,
        '',
        "error: line 5: [kernel] kind = 'gauss': must be uniform, exponential, erlang or dirac\n"
        'error: line 5: kind = scalar-18 requires a dirac kernel\n'
        "error: line 6: unknown key 'lag' in [kernel]\n",
        {}),
    'bad-kernel-missing-key': (
        2,
        '',
        "error: line 6: [kernel] missing required key 'width'\n",
        {}),
    'bad-kernel-value': (
        2,
        '',
        'error: line 7: [kernel] Erlang kernel rate must be > 0\n',
        {}),
    'bad-kind': (
        2,
        '',
        "error: line 2: [system] kind = 'quantum': must be one of classical, revised, delayed, revised-delayed, fractional, fractional-revised, ep-delayed, scalar-18, planar-19\n",
        {}),
    'bad-kind-alpha-axis': (
        2,
        '',
        "error: line 2: [system] kind = 'quantum': must be one of classical, revised, delayed, revised-delayed, fractional, fractional-revised, ep-delayed, scalar-18, planar-19\n",
        {}),
    'bad-missing-fractional': (
        2,
        '',
        'error: line 2: kind = fractional requires a [fractional] section\n',
        {}),
    'bad-missing-kernel': (
        2,
        '',
        'error: line 2: kind = delayed requires a [kernel] section\n',
        {}),
    'bad-missing-run': (
        2,
        '',
        "error: config: [run] missing required key 't_end'\n"
        "error: config: [run] missing required key 'step'\n"
        "error: config: [run] missing required key 'x0'\n",
        {}),
    'bad-missing-system-key': (
        2,
        '',
        "error: line 1: [system] missing required key 'k2'\n",
        {}),
    'bad-override': (
        2,
        '',
        "error: --set 'nonsense': expected section.key=value\n",
        {}),
    'bad-quad_step-negative': (
        2,
        '',
        'error: --set: [run] quad_step must be > 0\n',
        {}),
    'bad-quad_step-zero': (
        2,
        '',
        'error: --set: [run] quad_step must be > 0\n',
        {}),
    'bad-rigid-ordering': (
        2,
        '',
        'error: --set: [system] require a1 > a2 > a3 > 0, got (1.5, 2.0, 1.0)\n',
        {}),
    'bad-run-values': (
        2,
        '',
        'error: --set: [run] t_end must be >= 0\n'
        'error: --set: [run] step must be > 0\n',
        {}),
    'bad-scalar-uniform-kernel': (
        2,
        '',
        'error: line 5: kind = scalar-18 requires a dirac kernel\n',
        {}),
    'bad-scan-axis-alpha-ep': (
        2,
        '',
        'error: --set: [scan] axis = alpha requires a fractional kind\n',
        {}),
    'bad-scan-axis-m-scalar-18': (
        2,
        '',
        'error: --set: [scan] axis = m is not defined for kind = scalar-18\n',
        {}),
    'bad-scan-axis-tau-fractional': (
        2,
        '',
        'error: --set: [scan] axis = tau requires a dirac kernel\n',
        {}),
    'bad-scan-axis-tau-uniform': (
        2,
        '',
        'error: --set: [scan] axis = tau requires a dirac kernel\n',
        {}),
    'bad-scan-axis-unknown': (
        2,
        '',
        'error: --set: [scan] axis must be tau, alpha or m\n',
        {}),
    'bad-scan-missing': (
        2,
        '',
        'error: scan requires a [scan] section (axis, min, max, steps)\n',
        {}),
    'bad-scan-steps': (
        2,
        '',
        'error: --set: [scan] steps must be >= 0\n',
        {}),
    'bad-set-forbidden-kernel': (
        2,
        '',
        'error: --set: [kernel] section is not allowed for kind = classical\n'
        "error: --set: unknown key 'lag' in [kernel]\n",
        {}),
    'bad-set-kernel-missing-kind': (
        2,
        '',
        "error: --set: [kernel] missing required key 'kind'\n"
        "error: --set: unknown key 'lag' in [kernel]\n",
        {}),
    'bad-set-unknown-section': (
        2,
        '',
        'error: --set: unknown section [extra]\n',
        {}),
    'bad-stability-m-inf': (
        2,
        '',
        'error: line 14: [stability] m must be finite\n',
        {}),
    'bad-stability-m-nan': (
        2,
        '',
        'error: line 14: [stability] m must be finite\n',
        {}),
    'bad-step-inf': (
        2,
        '',
        'error: --set: [run] step must be finite\n',
        {}),
    'bad-step-nan': (
        2,
        '',
        'error: --set: [run] step must be finite\n',
        {}),
    'bad-system-value': (
        2,
        '',
        "error: --set: [system] a = 'x': cannot convert to float\n",
        {}),
    'bad-t_end-inf': (
        2,
        '',
        'error: --set: [run] t_end must be finite\n',
        {}),
    'bad-t_end-nan': (
        2,
        '',
        'error: --set: [run] t_end must be finite\n',
        {}),
    'bad-t_end-not-multiple': (
        2,
        '',
        'error: --set: [run] t_end must be a whole number of steps\n',
        {}),
    'bad-unknown-key': (
        2,
        '',
        "error: line 10: unknown key 'typo' in [run]\n",
        {}),
    'bad-unknown-section': (
        2,
        '',
        'error: line 10: unknown section [extra]\n',
        {}),
    'bad-x0-inf': (
        2,
        '',
        'error: line 10: [run] x0 must be finite\n',
        {}),
    'bad-x0-length': (
        2,
        '',
        'error: --set: [run] x0 needs 2 components for kind = planar-19, got 3\n',
        {}),
    'bad-x0-nan': (
        2,
        '',
        'error: line 7: [run] x0 must be finite\n',
        {}),
    'classical-scan-m': (
        0,
        'kind = classical\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'a311048d03374365c7c25d4e844d2b907d47635fcab0b3081334fc2234f274a4'}),
    'classical-simulate': (
        0,
        'kind = classical\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 1.0477691681704293, -0.23315132562528629, 0.37124147084784331\n'
        'h_drift_rel = 9.865e-11\n'
        'c_drift_rel = 8.970e-11\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'ad7f595cabcf30058ec655983aaf8d9ea916da0ad5f8394ca1d5a5af07898fa5'}),
    'classical-stability': (
        0,
        'kind = classical\n'
        'verdict = marginal\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '8b8bf9c0c4e7a840e1150ca1a8e5249293c36e6b69a51df85a0f2d315d5bfc07',
         'out.rows.csv': '5925add8caa7a27dec55e7f434a65874930a42c6c3394204f575d20d35ca5150'}),
    'classical-t_end0': (
        0,
        'kind = classical\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'delayed-dirac0-simulate': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.36390916596361345, 0.071695452130240672, 0.36390916596361345\n'
        'h_drift_rel = 3.056e-12\n'
        'c_drift_rel = 3.056e-12\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'fa25a73ed8a6520ec1029205b2911cc8736fc826712b8fb09966623827df00c0'}),
    'delayed-erlang-simulate': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.40361166031730272, 0.096809408990343834, 0.36380051348177633\n'
        'h_drift_rel = 1.848e-01\n'
        'c_drift_rel = 1.282e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '1b82e910df261b6947c035c92b9f98796aba9dc4e23b6029744e65734ade8eb3'}),
    'delayed-erlang-t_end0': (
        0,
        'kind = delayed\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'ddeff243b168ec34a9f993e81e0e4aad78242c41ffd148019a681c1cbb94bb68'}),
    'delayed-exponential-simulate': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.39130207595661215, 0.084769631026031356, 0.36884858785028762\n'
        'h_drift_rel = 1.292e-01\n'
        'c_drift_rel = 9.760e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '5875cfe5d48140e37d1fd80d08ab9cde14047a17aaa1b603d1fd0aac049edccb'}),
    'delayed-exponential-t_end0': (
        0,
        'kind = delayed\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '4da7c049b54f00030557b614d9d6c8284c49fe6b7ed820e03936e446c41f4576'}),
    'delayed-scan-tau': (
        2,
        '',
        'error: --set: [scan] axis = tau is not defined for kind = delayed\n',
        {}),
    'delayed-simulate': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.38891458344058055, 0.082295165443174986, 0.36911193888225863\n'
        'h_drift_rel = 1.177e-01\n'
        'c_drift_rel = 8.989e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'f45669a30343209c65eaa3f803d62528763d2f81bf4ea9a1fe71e1bc201c777e'}),
    'delayed-stability': (
        2,
        '',
        'error: stability analysis is not defined for kind = delayed\n',
        {}),
    'delayed-t_end0': (
        0,
        'kind = delayed\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'delayed-uniform-quad_step': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.38820973509132983, 0.081875306705650505, 0.36920706459884017\n'
        'h_drift_rel = 1.145e-01\n'
        'c_drift_rel = 8.787e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '0771e06f700a97b4bc9b03716501c8f686709ecd7cc57c94d3eb4d4b0fbd21ed'}),
    'delayed-uniform-simulate': (
        0,
        'kind = delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.38820973509132983, 0.081875306705650505, 0.36920706459884017\n'
        'h_drift_rel = 1.145e-01\n'
        'c_drift_rel = 8.787e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '0771e06f700a97b4bc9b03716501c8f686709ecd7cc57c94d3eb4d4b0fbd21ed'}),
    'ep-delayed-coupling0-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = marginal\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'b9d1dbbe0ed23b529f21d965b8cfe2ce7e3eccd98e8359bdf9262a0866cc2885',
         'out.rows.csv': '0188638ee65aad5400d7c10b027d8fb96e61dbd832b6e0690b83e8b60eb82dd6'}),
    'ep-delayed-dirac-m1e77-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = unstable\n'
        'critical_delay = 2.3561944901923443e-154\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '31f264e88a8ddcaf77e4af608b6f554942b24be2cadd0520db70c036e30a579d',
         'out.rows.csv': '35e5b832ff2182b504afa910e25cd0bc8c2d0a0f8d08154049c7e1ec03df09ad'}),
    'ep-delayed-dirac-m1e78-stability': (
        2,
        '',
        'error: bracket coefficient q2 = det B is not finite\n',
        {}),
    'ep-delayed-dirac0-simulate': (
        0,
        'kind = ep-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.3333854386686641, 0.0058879671568884641, 0.0069764549994687716\n'
        'h_drift_rel = 2.331e-04\n'
        'c_drift_rel = 8.877e-16\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '7aa913bdcab2db4a2c2a0c8fe853c7aed7c6ad81cc3500c8b40ced6a6bb5db50'}),
    'ep-delayed-dirac0-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = asymptotically-stable\n'
        'critical_delay = 1.8849555921538754\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '7b28bd9edae1c81ec43b6cf5a0e8456e4c8fe42bfd93ff590ae052ea79ac34c5',
         'out.rows.csv': 'c959d0b513ee18c2104ef89b28e1283c60be06b49d51f33d5b721138d2b5fc67'}),
    'ep-delayed-erlang-m1e78-stability': (
        2,
        '',
        'error: bracket coefficient q2 = det B is not finite\n',
        {}),
    'ep-delayed-erlang-scan-m': (
        0,
        'kind = ep-delayed\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'a93f735855f1530169e283e2396e016945db0c7438c59700d33939090f797d31'}),
    'ep-delayed-erlang-simulate': (
        0,
        'kind = ep-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.3333888613894761, 0.0056915551491388619, 0.0061015336427629506\n'
        'h_drift_rel = 2.605e-04\n'
        'c_drift_rel = 1.775e-15\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '068fc514cdc81370c3d07625349b196a44aac539a47d98afb7f1854ab67c01c1'}),
    'ep-delayed-erlang-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = asymptotically-stable\n'
        'critical_delay = 1.8849555921538754\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'cc2c288e82d5833833b1de17fc5118392812a09900b0019292907308ab9d2326',
         'out.rows.csv': 'b1bffdb50e3a5e06d490ab3d7253a68140f8ea5060e26aa071320bd19e57cd34'}),
    'ep-delayed-exponential-simulate': (
        0,
        'kind = ep-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.33338764625649858, 0.0057619772382325584, 0.0064260707426180529\n'
        'h_drift_rel = 2.508e-04\n'
        'c_drift_rel = 1.554e-15\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '068ce9b8b657ebef1006c924e4bd1f84898190e0a430e8239985a6c6855541c3'}),
    'ep-delayed-exponential-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = asymptotically-stable\n'
        'critical_delay = 1.8849555921538754\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'eeff254c3ea25e3f8e81f35ca2cc47521e5d8905f7d477137de2cf6cf66bbe25',
         'out.rows.csv': 'fc1d2df63aa767f134087af02a4a2b34bbd31d2f6fb072ddac29f3ba6f61f428'}),
    'ep-delayed-scan-m': (
        0,
        'kind = ep-delayed\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'a389c4ad81d42f57f300aab203866a68af9a50b19398c1379aca64472cdbb361'}),
    'ep-delayed-scan-tau': (
        0,
        'kind = ep-delayed\n'
        'axis = tau\n'
        'rows = 7\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'bb600aac08a29ea5ba00247bf3d4bd79ad8f072cd6d32fa7c6aeaa0c7f4e20ca'}),
    'ep-delayed-simulate': (
        0,
        'kind = ep-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.33338838331040788, 0.0057262541212568172, 0.0062058776984340227\n'
        'h_drift_rel = 2.572e-04\n'
        'c_drift_rel = 1.332e-15\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'd6fd75f702d9c5a7bca794b5f665c8dc0b0b66cfdb93fd7b93d2b16a09beddda'}),
    'ep-delayed-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = asymptotically-stable\n'
        'critical_delay = 1.8849555921538754\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'f24aa8678ae85ef1c5c13828a884d627194d75c1bde78f18978e14dacbe50cad',
         'out.rows.csv': '7034b6dfa3a92221143971e6891ed92ff5b7985925a63bff5d26087d9a3fb0e2'}),
    'ep-delayed-t_end0': (
        0,
        'kind = ep-delayed\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'ep-delayed-uniform-m1e160-stability': (
        2,
        '',
        'error: transverse block B is not finite\n',
        {}),
    'ep-delayed-uniform-simulate': (
        0,
        'kind = ep-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.33338725421840226, 0.0057883886213200902, 0.006513582048687459\n'
        'h_drift_rel = 2.479e-04\n'
        'c_drift_rel = 1.332e-15\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '14ad0e171cac253712de56dd6b55c463986a9fce7e4a2b77ee750f36e513d625'}),
    'ep-delayed-uniform-stability': (
        0,
        'kind = ep-delayed\n'
        'verdict = asymptotically-stable\n'
        'critical_delay = 1.8849555921538754\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'dff1269d452b948c27bc7256792fb0dd5407062f9135fc0c84bf843cd9177535',
         'out.rows.csv': '90ce01a314d58be9bf311113a076a471115ae89550715203a56e752ee7052838'}),
    'frac_order_082.cfg-simulate': (
        0,
        'kind = fractional\n'
        'samples = 30001\n'
        'step = 0.001\n'
        'endpoint_t = 30\n'
        'endpoint_x = 0.039483975982198771, -0.32959292196186607, 0.039483975982198771\n'
        'h_drift_rel = 9.628e-01\n'
        'c_drift_rel = 9.628e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'bf15cca4431a5f00a268947c3b0d5e121bdc137376fa1eb366680e54fdaa75e0'}),
    'frac_order_082.cfg-stability': (
        0,
        'kind = fractional\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '38343664f55e88ae7aecb29ecfc3d199dfbf8a131f7ebfbda2d94703140f98d5',
         'out.rows.csv': '885d3540a1ba7cca91990b41c03e9a984ae1d77fe85a510d6b451a2326187543'}),
    'frac_order_1.cfg-simulate': (
        0,
        'kind = fractional\n'
        'samples = 30001\n'
        'step = 0.001\n'
        'endpoint_t = 30\n'
        'endpoint_x = 0, -1.732048365314133, 0\n'
        'h_drift_rel = 2.820e-06\n'
        'c_drift_rel = 2.820e-06\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '0e80231584b7633e2505b7748e41307be1ad004827e6e641a9306d9ddc77b66b'}),
    'frac_order_1.cfg-stability': (
        0,
        'kind = fractional\n'
        'verdict = marginal\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'e13afa226f8b6b6f5262dcc89b6efa16a0708710ea4080e584ab321c37b5e875',
         'out.rows.csv': 'be6780811f75f4aeb0d7aa87209be00d450daf93ff5a3fb441f24d587305c0ba'}),
    'fractional-corrector2': (
        0,
        'kind = fractional\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 1.0225530116408779, -0.22648498600002609, 0.27620853166737397\n'
        'h_drift_rel = 6.335e-02\n'
        'c_drift_rel = 9.054e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '7f810e852a61ead58da6d649477ca8d27d81c29b838d346ec15f1e89f0078705'}),
    'fractional-m1e-160-stability': (
        0,
        'kind = fractional\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'bed6acbeb41b19a050935d5ccfb863b90374d4aab7150d5f3dce5baa47a6ae41',
         'out.rows.csv': 'd0bd53fee16f465b58acc4fade60e094594286b8256a8cd5060be97b12a77670'}),
    'fractional-m1e-200-stability': (
        2,
        '',
        'error: det A underflows to 0 at m = 1e-200\n',
        {}),
    'fractional-m1e150-stability': (
        0,
        'kind = fractional\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '3ac7ff173d144c55911eed5df38a7b80e988afb2623b026e06941403d3c017d2',
         'out.rows.csv': '428aea6c6e870de72abafc7542e6d9d8b48044fe1e7eb69fbd0c95fabf83d2fa'}),
    'fractional-m1e155-stability': (
        2,
        '',
        'error: det A = inf is not finite\n',
        {}),
    'fractional-m2-stability': (
        0,
        'kind = fractional\n'
        'verdict = unstable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': 'e56e8ba705630712055321a73c19a0cafbe0b755323398451041615ae53b67d4',
         'out.rows.csv': 'a8969497ca7baeb8f49d6b72a74bdbb0f77db39352deaa884070584af1743487'}),
    'fractional-m6e153-stability': (
        2,
        '',
        'error: a root of the sector quadratic is not finite\n',
        {}),
    'fractional-revised-scan-alpha': (
        0,
        'kind = fractional-revised\n'
        'axis = alpha\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'c622e541177518c36f060b8fdc706f11900cf6adb0fd1672e26d379c03956555'}),
    'fractional-revised-scan-m': (
        0,
        'kind = fractional-revised\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': '34518829d5418c93e2feeb272d7dccf6181cc30020a4cb7162fac12ca2f6a3bd'}),
    'fractional-revised-simulate': (
        0,
        'kind = fractional-revised\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 1.0479004710974724, 0.047674094485514573, 0.019579453272453112\n'
        'h_drift_rel = 6.802e-02\n'
        'c_drift_rel = 1.467e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '20c3a2392ec67c2eee7e84e7eecce2811c936ff1ddf13bbe0a954441e28daafe'}),
    'fractional-revised-stability': (
        0,
        'kind = fractional-revised\n'
        'verdict = unstable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '1070ec7cb572a3f84b79911f438b1414348fac6c3b60c1dccacc435e62247a7e',
         'out.rows.csv': '01fb5c45339a47ae57f75315f73bca2278b43051d89d52786a010f3a4b919243'}),
    'fractional-revised-t_end0': (
        0,
        'kind = fractional-revised\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'fractional-revised-window-corrector2': (
        0,
        'kind = fractional-revised\n'
        'samples = 201\n'
        'step = 0.01\n'
        'endpoint_t = 2\n'
        'endpoint_x = 1.0257973563770877, 0.08385657106427119, 0.034755332688177099\n'
        'h_drift_rel = 1.060e-01\n'
        'c_drift_rel = 1.783e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'b921f8eb500b5f68f7a568d1ca05bf1c4f58190dd2f41825c7895a1e3010078d'}),
    'fractional-scan-alpha': (
        0,
        'kind = fractional\n'
        'axis = alpha\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'a2c0472b8a4263f3cdb5024079b3c56a4944ad87bc2c90579da8ea6268529081'}),
    'fractional-scan-m': (
        0,
        'kind = fractional\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'cc3b8057ed41a8ac1a067d756bbe15a7806ad3a30997ee2fb1339d74ad881d5f'}),
    'fractional-scan-m-float-range': (
        0,
        'kind = fractional\n'
        'axis = m\n'
        'rows = 2\n'
        'wrote = <out>/out\n',
        '',
        {'out': '8964c9562160c9afe7fc8d4743bde522422fcb7afc9be2add8f8426224abbdd2'}),
    'fractional-simulate': (
        0,
        'kind = fractional\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 1.0225226886360135, -0.22655212268746316, 0.27613422770998264\n'
        'h_drift_rel = 6.340e-02\n'
        'c_drift_rel = 9.060e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '98a6cd5dcfc1b1e61e7818c330a0f3d46e38a1c33f63562173f34bfe8dd214eb'}),
    'fractional-stability': (
        0,
        'kind = fractional\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '38343664f55e88ae7aecb29ecfc3d199dfbf8a131f7ebfbda2d94703140f98d5',
         'out.rows.csv': '885d3540a1ba7cca91990b41c03e9a984ae1d77fe85a510d6b451a2326187543'}),
    'fractional-t_end0': (
        0,
        'kind = fractional\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'fractional-window': (
        0,
        'kind = fractional\n'
        'samples = 301\n'
        'step = 0.01\n'
        'endpoint_t = 3\n'
        'endpoint_x = 1.0433230193429028, 0.14194204485981898, 0.38455380761859931\n'
        'h_drift_rel = 2.133e-01\n'
        'c_drift_rel = 2.782e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '72dccd68ef9cf23bc2d210176f8b3e731b26b298077e24bfa3a6dfbca33751a3'}),
    'planar-19-dirac0-simulate': (
        0,
        'kind = planar-19\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.57036743915439003, 0.2444144665947881\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'e59d8d9a90f4832ddb1b9760e845877f61597586dcca7f13a9f1c65bfc1813b0'}),
    'planar-19-scan-alpha': (
        0,
        'kind = planar-19\n'
        'axis = alpha\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'e1793e093ddb40e49bc96021aa4e0fac6c7b360b66b98c2802f24c8132271744'}),
    'planar-19-scan-tau': (
        0,
        'kind = planar-19\n'
        'axis = tau\n'
        'rows = 7\n'
        'wrote = <out>/out\n',
        '',
        {'out': '7990a889fcf7d62c92b25cceb5990b106ec5bde3f507a7bd42a5a7e5a8a8f18a'}),
    'planar-19-simulate': (
        0,
        'kind = planar-19\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.60050776570054842, 0.29907077944261862\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '6a7f752c478d696a02f18bdcab0b9d9a82aa88c6f3d28f34c8b799b9ee766e2a'}),
    'planar-19-stability': (
        0,
        'kind = planar-19\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '5471a039cf126115cfdd49763a711576cb2281346a1da5bdbea0d070775f0312',
         'out.rows.csv': '8827c6092b67a25f470ad05c0d51389c910604efc264315d113fa1924bdf356c'}),
    'planar-19-t_end0': (
        0,
        'kind = planar-19\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '10af2e7ef59644d05efebad361eb387dcddd635454155b7e27a5e0d199fc193d'}),
    'revised-delayed-dirac0-simulate': (
        0,
        'kind = revised-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.37190668840758928, -0.052227856701291597, 0.34583340983688154\n'
        'h_drift_rel = 6.949e-11\n'
        'c_drift_rel = 3.466e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '8a4a57c28da4a94d4ccf3b6ac784ca1a1ec95f9fceaebceb63ac82e30603f95c'}),
    'revised-delayed-erlang-simulate': (
        0,
        'kind = revised-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.41912550833044859, 0.0059678460072655707, 0.23502040648609276\n'
        'h_drift_rel = 7.834e-02\n'
        'c_drift_rel = 1.447e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '848dde0bc80d679e1306991dfa143ff7325ff6462fcd65456842931b02df768b'}),
    'revised-delayed-exponential-simulate': (
        0,
        'kind = revised-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.40821638413200551, -0.01734479626837267, 0.27088751376884501\n'
        'h_drift_rel = 6.278e-02\n'
        'c_drift_rel = 1.099e-01\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '6dd2ea1b91e4e90f526fd1e6c80d80eb669b8e72bc49cb69e78122a5ce75ee3b'}),
    'revised-delayed-scan-tau': (
        2,
        '',
        'error: --set: [scan] axis = tau is not defined for kind = revised-delayed\n',
        {}),
    'revised-delayed-simulate': (
        0,
        'kind = revised-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.40466204755498275, -0.023445380176855216, 0.28159108439508695\n'
        'h_drift_rel = 5.861e-02\n'
        'c_drift_rel = 9.780e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '09dc9a1055e60e53f37092351668b6012f7287322a86fa9be86b4d187e0f9e9e'}),
    'revised-delayed-stability': (
        2,
        '',
        'error: stability analysis is not defined for kind = revised-delayed\n',
        {}),
    'revised-delayed-t_end0': (
        0,
        'kind = revised-delayed\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'revised-delayed-uniform-simulate': (
        0,
        'kind = revised-delayed\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.40406932473409807, -0.02403065274217871, 0.28271253038618016\n'
        'h_drift_rel = 5.722e-02\n'
        'c_drift_rel = 9.713e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '33035f41f89ff2513e709fa950fb3821577c242169571b946d0f43ef91815212'}),
    'revised-scan-m': (
        0,
        'kind = revised\n'
        'axis = m\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'ad29bd4896f3ed33e0e5675fcce9eaf9f30a8f4444f93bcbdea7e42ed8da42a6'}),
    'revised-simulate': (
        0,
        'kind = revised\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 1.0862636101005418, 0.0065948058290112785, 0.002673921314304798\n'
        'h_drift_rel = 6.969e-09\n'
        'c_drift_rel = 8.526e-02\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '8156e09f8b7893401b06c69109007d067aacc8b51c97104a829f2374a52868c4'}),
    'revised-stability': (
        0,
        'kind = revised\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '6f37990e9495571eac8f92ee5c57eda474644c7698eeff9b8cf93c6bd1629274',
         'out.rows.csv': '3ae76f697668c83653e8dd7e0dc49118ba939d1146425a068436f12b540d477c'}),
    'revised-t_end0': (
        0,
        'kind = revised\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '329311609076e60d0cc5078aa04aac66c988f126db87ea1a55f4d32098e92d50'}),
    'scalar-18-dirac0-simulate': (
        0,
        'kind = scalar-18\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.39962902524137145\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '585d0517c9e00312edfa405d342ab15e163862369e636fd1f6be626ab98bc205'}),
    'scalar-18-diverges': (
        3,
        '',
        'error: state diverged; last valid time t = 15.47\n',
        {}),
    'scalar-18-scan-alpha': (
        0,
        'kind = scalar-18\n'
        'axis = alpha\n'
        'rows = 5\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'e1793e093ddb40e49bc96021aa4e0fac6c7b360b66b98c2802f24c8132271744'}),
    'scalar-18-scan-tau': (
        0,
        'kind = scalar-18\n'
        'axis = tau\n'
        'rows = 7\n'
        'wrote = <out>/out\n',
        '',
        {'out': 'aa5943c206737ebe72352c583d27d5d70e5799b0628c54ffbd3c2b4a51cbad93'}),
    'scalar-18-simulate': (
        0,
        'kind = scalar-18\n'
        'samples = 101\n'
        'step = 0.01\n'
        'endpoint_t = 1\n'
        'endpoint_x = 0.20445183978942838\n'
        'runtime_s = *\n'
        'wrote = <out>/out\n',
        '',
        {'out': '3f310754d7035e7eb31531d9af7a69c74b402248dcadd596321b30669a9a6b37'}),
    'scalar-18-stability': (
        0,
        'kind = scalar-18\n'
        'verdict = asymptotically-stable\n'
        'wrote = <out>/out\n'
        'wrote = <out>/out.rows.csv\n',
        '',
        {'out': '4a9d28fa096091063bc0a7f67f8f8b0c476462c31f6df5e2f6c07d937b69e430',
         'out.rows.csv': '079272f7ee1442ae428aa7a4299fbdcff2a36abc8d12026f3c392b65a28e4e43'}),
    'scalar-18-t_end0': (
        0,
        'kind = scalar-18\n'
        'samples = 0\n'
        'wrote = <out>/out\n',
        '',
        {'out': '7e238a672bf8e0d369f45c026d0cb1db14135f0e2df7047273ef9a9d07fb0e78'}),
}

if __name__ == "__main__":
    _record()
