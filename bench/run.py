"""Benchmark of bifurcbox's ``predict`` and ``verify`` commands.

    python3 bench/run.py --workload verify-2d --seed 1 --seconds 16 --trace 0

Runs one workload of ``workloads.py`` through ``bifurcbox.cli.main`` in
this process, from the sources under ``src/`` next to this directory:

1. set-up: ``N_PROBES`` fresh interpreters, one after another, each
   running ``probe.py`` (import ``bifurcbox.cli`` and build every case's
   inputs); ``setup_s`` is the median of their wall times;
2. a warm-up pass over the cases, timed but discarded;
3. passes until ``--seconds`` have been measured, at least one; with
   ``--trace 1`` every untraced pass is followed by a traced one.

Every pass is checked against the references of ``refs.py`` (see
``checks.py``); one operation is one predict case or one verified branch
pair.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Reports, a result file and the spans of traced passes go to
``bench/out/<workload>/``.

BLAS and OpenMP run single-threaded (``BLAS_THREADS``): with two threads
on two cores the 128^2 sparse solves were slower and noisier.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
N_PROBES = 5
PROBE_TIMEOUT_S = 120
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload: str) -> list[dict]:
    """Launch the set-up probe N_PROBES times, one after another."""
    probes = []
    for _ in range(N_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload],
            env=child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.splitlines()[-1])
        if Path(info["cli"]).resolve().parent != SRC / "bifurcbox":
            raise RuntimeError(f"set-up probe imported {info['cli']}, not the sources")
        probes.append({"wall_s": wall, **info})
    return probes


def report_digest(path: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every report file, and their size."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Bench:
    """One workload's passes, checks and tallies."""

    def __init__(self, workload: str, seed: int):
        from bifurcbox import cli

        import checks
        import refs

        self.cli = cli
        self.checks = checks
        self.cases = WORKLOADS[workload]
        self.seed = seed
        self.out = OUT / workload
        stored = refs.load_stored()
        self.refs = {c.name: checks.case_reference(c.domain, c.lam, stored)
                     for c in self.cases}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: dict[str, set] = {c.name: set() for c in self.cases}
        self.passes: list[dict] = []

    def run_pass(self, main, label: str) -> tuple[float, int]:
        """One pass through ``main`` (cli.main, traced or not); returns the
        summed wall time of the CLI calls and the bytes of their reports."""
        gc.collect()
        case_s = {}
        report_bytes = 0
        for case in self.cases:
            out = self.out / case.name
            shutil.rmtree(out, ignore_errors=True)
            argv = [*case.argv, "--seed", str(self.seed), "--out", str(out)]
            error = None
            t0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    rc = main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            case_s[case.name] = time.perf_counter() - t0
            report_bytes += self.tally(case, rc, error, out)
        self.passes.append({"pass": label, "case_s": case_s})
        return sum(case_s.values()), report_bytes

    def tally(self, case, rc, error, out: Path) -> int:
        checks = self.checks
        ref = self.refs[case.name]
        predict = case.command == "predict"
        n_ops = 1 if predict else ref.count
        report = out / ("prediction.json" if predict else "verdicts.json")
        digest, size = report_digest(out) if error is None and out.is_dir() else (None, 0)
        try:
            if error is not None:
                outcomes = [checks.Outcome(error) for _ in range(n_ops)]
            elif not report.is_file():
                outcomes = [checks.Outcome(f"exit code {rc}, no report") for _ in range(n_ops)]
            elif predict:
                payload = json.loads(report.read_text())
                problems = checks.check_prediction(payload, ref, "--oracle" in case.argv)
                outcomes = [checks.Outcome(None if rc == 0 else f"exit code {rc}", problems)]
            else:
                outcomes = checks.check_verify(json.loads(report.read_text()), ref, case.grid)
        except (KeyError, TypeError, ValueError) as exc:  # a report the checks cannot read
            outcomes = [checks.Outcome(None, [f"malformed {report.name}: {exc!r}"])
                        for _ in range(n_ops)]
        if digest is not None and digest != self.digests.setdefault(case.name, digest):
            for o in outcomes:
                o.problems.append("report bytes differ from the first pass")
        self.attempted += len(outcomes)
        for o in outcomes:
            if not o.failed:
                continue
            self.failed += 1
            if o.problems and o.program_failure is None and case.known_fault is None:
                self.correct = False  # a success claim the checks refute
            reasons = ([o.program_failure] if o.program_failure else []) + o.problems[:2]
            self.messages[case.name].add("; ".join(reasons))
        return size


def machine() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bifurcbox" / "cli.py").is_file():
        print(f"run.py: no bifurcbox sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tracing

    probes = measure_setup(args.workload)
    bench = Bench(args.workload, args.seed)
    if Path(bench.cli.__file__).resolve().parent != SRC / "bifurcbox":
        print(f"run.py: imported {bench.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench.out.mkdir(parents=True, exist_ok=True)

    warmup_s, _ = bench.run_pass(bench.cli.main, "warm-up")
    untraced, traced, layers, tracers = [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run_pass(bench.cli.main, "untraced")[0])
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                seconds, report_bytes = bench.run_pass(
                    tracer.wrap(bench.cli.main, "cli.main"), "traced")
            finally:
                tracer.uninstall()
            traced.append(seconds)
            layers.append(tracing.layer_metrics(tracer, report_bytes))
            tracers.append(tracer)
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["trace.untraced_run_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = tracing.UNITS
    else:
        values = {
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "run_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "probes": probes,
        "warmup_s": warmup_s, "untraced_s": untraced, "traced_s": traced,
        "passes": bench.passes,
        "correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed,
        "failures": {k: sorted(v) for k, v in bench.messages.items() if v},
        "metrics": metrics,
    }
    (bench.out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    spans_path = bench.out / f"spans-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    for i, tracer in enumerate(tracers, 1):
        tracer.write_spans(spans_path, f"traced-{i}")

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} measured "
          f"pass(es) after a {warmup_s:.2f} s warm-up; machine {json.dumps(info['machine'])}")
    for case, msgs in info["failures"].items():
        for msg in msgs:
            print(f"  failed {case}: {msg}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted = {bench.attempted}, failed = {bench.failed}, correct = {bench.correct}")
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
