"""rigidmem benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload frac-memory --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/rigidmem`` and
``BENCHMARK.json``.  The run

1. generates the workload's job list from the seed (``jobs.py``) and
   writes one config file per job under ``.bench_run/<workload>/``;
2. times set-up (import rigidmem, parse every config) several times and
   keeps the median;
3. makes passes over the job list, calling ``rigidmem.cli.main(argv)``
   in-process as a closed loop with one client, until the next pass
   would overrun ``--seconds`` (at least one pass);
4. checks the first pass's ``--out`` artifacts against independent
   oracles (``checks.py``) and every later pass's artifacts against the
   first pass's SHA-256 hashes;
5. scales every job's latency by a reference kernel timed between jobs
   (``calibration.py``), so that the machine's own speed drift drops out
   of ``wall_s`` and ``setup_s``; raw times are reported next to them;
6. with ``--trace 1``, alternates untraced and traced passes; the traced
   ones wrap rigidmem's public functions (``tracing.py``) and give the
   per-layer metrics, and the difference between the two is reported as
   ``trace.overhead_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Every other metric, the machine facts, the per-job
hashes and the list of failed jobs go to
``.bench_run/<workload>/result-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS runs on at most nproc threads; fixed before numpy loads below
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from calibration import SpeedClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: set-up is timed this many times per run; the median is reported
SETUP_REPEATS = 7

#: end-to-end metrics: name -> (unit, workloads it applies to)
SIMULATE = ("frac-memory", "delay-history", "ode-chain")
ALL = SIMULATE + ("stability-scan",)
END_TO_END = {
    "setup_s": ("s", ALL),
    "setup_raw_s": ("s", ALL),
    "wall_s": ("s", ALL),
    "wall_raw_s": ("s", ALL),
    "peak_rss_mb": ("MB", ALL),
    "fail_ratio": ("1", ALL),
    "sim_steps_per_s": ("1/s", SIMULATE),
    "verdicts_per_s": ("1/s", ("stability-scan",)),
    "report_ms_p50": ("ms", ("stability-scan",)),
    "report_ms_p90": ("ms", ("stability-scan",)),
}


class _Sink(io.TextIOBase):
    """Discards the CLI's standard output, which the checks never read."""

    def write(self, s):
        return len(s)


def fail(msg: str) -> int:
    print(f"bench: error: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rigidmem" / "__init__.py").is_file():
        return fail(f"no rigidmem sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return Bench(args, spec).run()
    except RuntimeError as exc:
        return fail(str(exc))


class Bench:
    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        self.clock = SpeedClock()
        self.workdir = ROOT / ".bench_run" / args.workload
        for sub in ("cfg", "out"):
            shutil.rmtree(self.workdir / sub, ignore_errors=True)
            (self.workdir / sub).mkdir(parents=True)
        self.jobs = jobs.make_jobs(args.workload, args.seed, ROOT)
        self.cfg_paths, self.out_paths = [], []
        for job in self.jobs:
            cfg = self.workdir / "cfg" / f"{job.name}.cfg"
            cfg.write_text(job.config)
            self.cfg_paths.append(cfg)
            self.out_paths.append(self.workdir / "out" / f"{job.name}.out")

    # -- set-up -----------------------------------------------------------

    def setup(self) -> tuple[list[float], list[float]]:
        """Import rigidmem and parse every config, SETUP_REPEATS times;
        returns raw and speed-scaled times."""
        texts = [job.config for job in self.jobs]
        raw, scaled = [], []
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules
                         if m == "rigidmem" or m.startswith("rigidmem.")]:
                del sys.modules[name]
            self.clock.sample()
            start = time.perf_counter()
            cli = importlib.import_module("rigidmem.cli")
            for text in texts:
                cli.parse_config(text)
            end = time.perf_counter()
            self.clock.sample()
            raw.append(end - start)
            scaled.append(self.clock.scaled(start, end))
        src = Path(sys.modules["rigidmem"].__file__).resolve()
        if ROOT / "src" not in src.parents:
            raise RuntimeError(f"imported rigidmem from {src}, not the "
                               f"checkout")
        self.mods = {name: sys.modules[f"rigidmem.{name}"]
                     for name in ("cli", "models", "integrators", "kernels",
                                  "stability", "errors")}
        return raw, scaled

    # -- passes -----------------------------------------------------------

    def one_pass(self, tracer=None) -> dict:
        """Run every job once; returns wall time, raw and speed-scaled job
        latencies, outcomes and artifact hashes."""
        main = self.mods["cli"].main
        sink = _Sink()
        spans, outcomes = [], []
        # the bench's own objects stay out of the program's GC collections
        gc.freeze()
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            argv = [job.command, "--config", str(self.cfg_paths[i]),
                    "--out", str(self.out_paths[i])]
            err = io.StringIO()
            rc, error = None, ""
            self.clock.maybe_sample()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(err):
                    if tracer is None:
                        rc = main(argv)
                    else:
                        rc = tracer.run_job(i, main, argv)
            except Exception as exc:  # the job's failure, not the bench's
                error = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            outcomes.append(checks.Outcome(rc, err.getvalue(),
                                           self.out_paths[i], error))
        wall = time.perf_counter() - start
        self.clock.sample()
        return {"wall": wall,
                "latencies": [end - beg for beg, end in spans],
                "scaled": [self.clock.scaled(beg, end) for beg, end in spans],
                "outcomes": outcomes,
                "hashes": [self.artifact_hash(o) for o in outcomes]}

    @staticmethod
    def artifact_hash(outcome) -> str:
        digest = hashlib.sha256(f"rc={outcome.rc}\n{outcome.error}\n"
                                f"{outcome.stderr}".encode())
        for path in (outcome.out,
                     outcome.out.with_name(outcome.out.name + ".rows.csv")):
            if path.is_file():
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def check_first(self, first: dict) -> list[dict]:
        results = []
        for job, outcome, digest in zip(self.jobs, first["outcomes"],
                                        first["hashes"]):
            reasons, work = checks.check(job, outcome, self.mods["models"])
            results.append({"job": job.name, "command": job.command,
                            "passed": not reasons, "reasons": reasons,
                            "work": work, "known_defect": job.known_defect,
                            "sha256": digest})
        return results

    def compare_hashes(self, results: list[dict], later: dict, label: str):
        for res, digest in zip(results, later["hashes"]):
            if digest != res["sha256"]:
                res["passed"] = False
                res["work"] = 0
                res["reasons"].append(f"{label} artifacts differ from the "
                                      f"first pass")

    # -- the run ----------------------------------------------------------

    def run(self) -> int:
        args = self.args
        setup_raw, setup_scaled = self.setup()
        budget = args.seconds
        t_start = time.perf_counter()

        def room(last: float) -> bool:
            return time.perf_counter() - t_start + last <= budget

        plain = [self.one_pass()]
        results = self.check_first(plain[0])
        traced, layer_runs, tracer_kept = [], [], None
        if args.trace:
            while True:
                tr = tracing.Tracer(self.mods)
                tr.install()
                try:
                    traced.append(self.one_pass(tr))
                finally:
                    tr.uninstall()
                layer_runs.append(tracing.per_layer(tr))
                tracer_kept = tracer_kept or tr
                self.compare_hashes(results, traced[-1], "traced pass")
                if not room(traced[-1]["wall"] + plain[-1]["wall"]):
                    break
                plain.append(self.one_pass())
                self.compare_hashes(results, plain[-1], "later pass")
        else:
            while room(plain[-1]["wall"]):
                plain.append(self.one_pass())
                self.compare_hashes(results, plain[-1], "later pass")

        e2e = self.end_to_end(plain, results, setup_raw, setup_scaled)
        for i, res in enumerate(results):
            res["latency_s"] = {key: statistics.median(p[key][i]
                                                       for p in plain)
                                for key in ("latencies", "scaled")}
        why = {w["name"]: w["why"] for w in self.spec["workloads"]}
        record = {"workload": args.workload, "why": why[args.workload],
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "facts": facts(),
                  "setup_times_s": {"raw": setup_raw,
                                    "scaled": setup_scaled},
                  "passes": {"untraced": [p["wall"] for p in plain],
                             "traced": [p["wall"] for p in traced]},
                  "end_to_end": e2e,
                  "artifacts_sha256": hashlib.sha256("".join(
                      r["sha256"] for r in results).encode()).hexdigest(),
                  "jobs": results,
                  "not_measured": "rigidmem.fraccalc and rigidmem.errors "
                                  "are on no CLI path"}
        if args.trace:
            layer, lfacts = self.layers(plain, traced, layer_runs)
            record["per_layer"] = layer
            record["trace_facts"] = lfacts
            tracer_kept.save(self.workdir / "spans.npz")
            # a job fails the check when it fails in every traced pass, so
            # that one scheduling hiccup in unwrapped code is not a finding
            bad = set.intersection(*(set(f["coverage"]["violating_jobs"])
                                     for _, f in layer_runs))
            if bad:
                raise RuntimeError(
                    "trace self-consistency failed for jobs "
                    + ", ".join(self.jobs[j].name for j in sorted(bad)))
        section = "per_layer" if args.trace else "end_to_end"
        metrics = {}
        for entry in self.spec[section]:
            value = (record[section] if args.trace else e2e).get(
                entry["name"])
            if value is None:
                raise RuntimeError(f"metric {entry['name']} was not "
                                   f"measured")
            metrics[entry["name"]] = {"value": value["value"],
                                      "unit": entry["unit"]}
        failed = [r for r in results if not r["passed"]]
        unexpected = [r for r in failed if not r["known_defect"]]
        record["failed_jobs"] = [{"job": r["job"], "reasons": r["reasons"],
                                  "known_defect": r["known_defect"]}
                                 for r in failed]
        out = self.workdir / (f"result-seed{args.seed}-trace{args.trace}"
                              f".json")
        out.write_text(json.dumps(record, indent=1))

        shown = record[section] if args.trace else e2e
        print(f"workload = {args.workload} (seed {args.seed}): "
              f"{why[args.workload]}")
        for name, value in shown.items():
            print(f"{name} = {value['value']:.6g} {value['unit']}"
                  + (f" ({value['note']})" if "note" in value else ""))
        for r in failed:
            tag = " [known defect]" if r["known_defect"] else ""
            print(f"failed: {r['job']}{tag}: {'; '.join(r['reasons'])}")
        print(f"artifacts_sha256 = {record['artifacts_sha256']}")
        print(f"result = {out.relative_to(ROOT)}")
        print(json.dumps({"correct": not unexpected,
                          "attempted": len(results), "failed": len(failed),
                          "metrics": metrics}))
        return 0

    def end_to_end(self, plain, results, setup_raw, setup_scaled) -> dict:
        workload = self.args.workload
        wall = pass_time(plain, "scaled")
        good = sum(r["work"] for r in results if r["passed"])
        failed = sum(not r["passed"] for r in results)
        values = {
            "setup_s": (statistics.median(setup_scaled),
                        f"median of {SETUP_REPEATS}, reference seconds"),
            "setup_raw_s": (statistics.median(setup_raw),
                            f"median of {SETUP_REPEATS}"),
            "wall_s": (wall, f"sum of per-job medians over {len(plain)} "
                             f"passes, reference seconds"),
            "wall_raw_s": (pass_time(plain, "latencies"),
                           f"sum of per-job medians over {len(plain)} "
                           f"passes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "ru_maxrss"),
            "fail_ratio": (failed / len(results),
                           f"{failed} of {len(results)} jobs"),
        }
        if workload in SIMULATE:
            values["sim_steps_per_s"] = (good / wall,
                                         f"{good} checked steps per pass")
        else:
            values["verdicts_per_s"] = (good / wall,
                                        f"{good} checked verdicts per pass")
            single = [p["scaled"][i] * 1e3 for p in plain
                      for i, job in enumerate(self.jobs)
                      if job.command == "stability"]
            q = statistics.quantiles(single, n=10, method="inclusive")
            note = f"{len(single)} single-verdict jobs, reference ms"
            values["report_ms_p50"] = (statistics.median(single), note)
            values["report_ms_p90"] = (q[8], note)
        out = {}
        for name, (unit, applies) in END_TO_END.items():
            if workload in applies:
                if name not in values:
                    raise RuntimeError(f"metric {name} was not measured")
                value, note = values[name]
                out[name] = {"value": float(value), "unit": unit,
                             "note": note}
        return out

    def layers(self, plain, traced, layer_runs) -> tuple[dict, dict]:
        first, facts_ = layer_runs[0]
        out = {}
        for name, unit in tracing.LAYER_METRICS:
            if name not in first and name != "trace.overhead_s":
                raise RuntimeError(f"metric {name} was not measured")
            if name == "trace.overhead_s":
                value = (pass_time(traced, "scaled")
                         - pass_time(plain, "scaled"))
            elif unit == "count" or unit == "B":
                value = first[name]
                if any(run[name] != value for run, _ in layer_runs):
                    raise RuntimeError(f"count {name} differs between "
                                       f"traced passes")
            else:
                value = statistics.median(run[name] for run, _ in layer_runs)
            out[name] = {"value": value, "unit": unit}
        for name in ("integrators.abm_memory_macs",
                     "integrators.abm_memory_bytes",
                     "integrators.dde_lookups", "kernels.quad_nodes"):
            out[name]["note"] = "computed"
        return out, facts_


def pass_time(passes: list[dict], key: str) -> float:
    """Sum over jobs of the median latency across passes; a disturbance
    that hits one pass in one place does not move it."""
    return sum(statistics.median(p[key][i] for p in passes)
               for i in range(len(passes[0][key])))


def facts() -> dict:
    """Machine and run facts recorded with every result."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {"nproc": NPROC, "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": git_commit(),
            "source_sha256": source_hash()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (checkout is not a git repository)"


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rigidmem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
