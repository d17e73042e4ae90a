"""Time-to-verdict benchmark for triangulab experiments at default config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one process each

One operation is one ``run_experiment`` call, the CLI's own path minus
argparse.  It fails if it raises, if a check fails, if a check is missing
or new, if a verdict string differs from ``reference.json``, or, at the
reference seed, if a check value drifts from it by more than 1e-6 relative.

Untraced (``--trace 0``): whole iterations of the workload run until the
next one would end past ``--seconds`` (at least one), and the end-to-end
metrics are reported.  Traced (``--trace 1``): one untraced iteration, then
one with every span wrapper bound; the per-layer metrics come from the
traced one, and the difference of the two wall times is the tracing
overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy
of everything, with the machine and thread-variable record, goes to
``perfbench/results/``.  The exit code is 0 only when every operation and
every isolation and tracer check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

REFERENCE_SEED = 2024
DRIFT_TOL = 1e-6
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name: (experiments run in order, cache mode); README.md says why each exists
WORKLOADS = {
    "profile-frac": (["resolvent-profile"], None),
    "ebeta-cold": (["semigroup-ebeta"], "fresh"),
    "levinson-warm": (["levinson"], "warm"),
    "spectra-symbol": (
        ["annulus-jialpha", "sigma-equality", "spectral-mapping", "witness", "boundedness",
         "symbol-trace", "prop54", "fractional-powers", "ebeta-asymptotics", "macaev-norms"],
        None,
    ),
}

# Tracer self-test: spans each workload must enter, and counts it must hit exactly.
EXPECTED_SPANS = {
    "profile-frac": [
        "experiments.run_experiment", "operators.build_fractional", "operators.split_given_basis",
        "resolvent.profile", "resolvent.neumann_residual", "lapack.svdvals", "lapack.solve",
    ],
    "ebeta-cold": [
        "experiments.run_experiment", "specfun.e_beta_cumulative", "operators.build_ebeta_operator",
        "operators.save_matrix", "operators.operator_norm", "lapack.svdvals", "quad",
    ],
    "levinson-warm": [
        "experiments.run_experiment", "operators.load_matrix", "operators.split_given_basis",
        "resolvent.profile", "resolvent.levinson_classify", "lapack.svdvals",
    ],
    "spectra-symbol": [
        "experiments.run_experiment", "operators.build_imaginary_fractional",
        "operators.build_difference_operator", "operators.build_fractional", "operators.split_schur",
        "operators.operator_norm", "spectral.eigenvalues_with_machine_noise",
        "spectral.verify_sigma_equality", "spectral.verify_spectral_mapping",
        "spectral.riesz_calculus", "spectral.macaev_norm", "spectral.schatten_norm",
        "symbol.trace_symbol", "symbol.transform", "symbol.boundedness_indicator",
        "symbol.prop54_residual", "specfun.e_beta", "specfun.m_moment",
        "lapack.eigvals", "lapack.svdvals", "lapack.solve", "quad",
    ],
}
EXPECTED_COUNTS = {
    "ebeta-cold": {"operators.load_matrix.calls": 0},  # a fresh cache is never read
    "levinson-warm": {"operators.build_ebeta_operator.calls": 0, "operators.load_matrix.calls": 1},
}

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class SetupError(RuntimeError):
    """The benchmark cannot run here, e.g. the package source is missing."""


def import_package():
    """Import triangulab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "triangulab" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    from triangulab import experiments

    if Path(experiments.__file__).resolve().parent != SRC / "triangulab":
        raise SetupError(f"triangulab was imported from {experiments.__file__}, not {SRC}")
    return experiments


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest child (ru_maxrss is KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {key: dep.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "seed": seed,
    }


def find_verdicts(node, prefix: str = "") -> dict:
    """String values under keys naming a verdict, keyed by their dotted path."""
    found = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}{key}"
            if isinstance(value, str) and "verdict" in path:
                found[path] = value
            else:
                found.update(find_verdicts(value, path + "."))
    return found


def summary_record(summary: dict) -> dict:
    """What the gate compares: every check value and every verdict string."""
    return {
        "checks": {c["name"]: c["value"] for c in summary["checks"]},
        "verdicts": find_verdicts(summary["config_echo"]),
    }


def relative_drift(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


def gate(summary: dict, ref: dict, check_values: bool):
    """Problems found in one ``summary.json``, and its largest value drift."""
    problems = [f"check {c['name']} failed" for c in summary["checks"] if not c["pass"]]
    record = summary_record(summary)
    if set(record["checks"]) != set(ref["checks"]):
        problems.append(f"checks {sorted(record['checks'])} differ from {sorted(ref['checks'])}")
    if record["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {record['verdicts']} differ from {ref['verdicts']}")
    drift = 0.0
    for name, value in record["checks"].items():
        if name in ref["checks"]:
            d = relative_drift(value, ref["checks"][name])
            d = math.inf if math.isnan(d) else d
            drift = max(drift, d)
            if check_values and d > DRIFT_TOL:
                problems.append(f"check {name} = {value!r} drifted {d:g} from {ref['checks'][name]!r}")
    return problems, drift


def tree_digest(path: Path) -> str:
    """Names, sizes, modification times and contents of every file under ``path``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        stat = file.stat()
        digest.update(f"{file.relative_to(path)} {stat.st_size} {stat.st_mtime_ns}\n".encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def high_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, as (percent, value), or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


class Run:
    """One benchmark process: set-up, timed iterations, gate and report."""

    def __init__(self, experiments, workload: str, seed: int, reference: dict, work: Path):
        self.experiments = experiments
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = work
        self.names, self.cache_mode = WORKLOADS[workload]
        self.cache_dir = None
        self.ops = 0
        self.ops_failed = 0
        self.failures = []  # "experiment: problem" for every failed operation
        self.problems = []  # run-level failures: isolation and tracer self-test
        self.drift_max = 0.0

    def setup(self) -> list:
        """Set up SETUP_REPEATS times in fresh interpreters; returns the time of each.

        Each set-up imports triangulab; for ``levinson-warm`` it also fills a
        cache, and the last one filled serves the timed runs.
        """
        samples = []
        for i in range(SETUP_REPEATS):
            args = [sys.executable, str(BENCH / "setup_probe.py")]
            if self.cache_mode == "warm":
                self.cache_dir = self.work / f"cache{i}"
                args.append(str(self.cache_dir))
            done = subprocess.run(args, capture_output=True, text=True, timeout=150, check=True)
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            samples.append(probe["import_s"] + probe["fill_s"])
        return samples

    def iteration(self):
        """Run every experiment of the workload once; returns (wall s, CPU s) spent in them."""
        wall = cpu = 0.0
        for name in self.names:
            out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.work))
            config = {"experiment": name, "seed": self.seed, "output_dir": str(out)}
            if self.cache_mode == "fresh":
                config["cache_dir"] = str(out / "cache")
            elif self.cache_mode == "warm":
                config["cache_dir"] = str(self.cache_dir)
            self.ops += 1
            try:
                parsed = self.experiments.ExperimentConfig.from_dict(config)
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
                try:
                    self.experiments.run_experiment(parsed)
                finally:
                    wall += time.perf_counter() - wall0
                    cpu += cpu_seconds() - cpu0
                summary = json.loads((out / "summary.json").read_text(encoding="ascii"))
                problems, drift = gate(summary, self.reference[name], self.seed == REFERENCE_SEED)
                self.drift_max = max(self.drift_max, drift)
            except Exception as exc:  # an operation that raises is a failed operation
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                self.ops_failed += 1
                self.failures += [f"{name}: {p}" for p in problems]
            shutil.rmtree(out)
        return wall, cpu

    def traced_iteration(self):
        """One iteration with every span bound; returns (wall s, per-layer metrics, rebound sites)."""
        import tracer

        spans = tracer.Tracer()
        with tracer.installed(spans) as sites:
            wall, _cpu = self.iteration()
        layer = spans.metrics()
        self.problems += spans.consistency_errors()
        self.problems += [f"span {name} was never entered" for name in EXPECTED_SPANS[self.workload]
                          if layer[f"{name}.calls"] == 0]
        self.problems += [f"{key} = {layer[key]}, expected {want}"
                          for key, want in EXPECTED_COUNTS.get(self.workload, {}).items()
                          if layer[key] != want]
        return wall, layer, sites

    def execute(self, seconds: float, trace: bool) -> dict:
        setup = self.setup()
        digest = tree_digest(self.cache_dir) if self.cache_mode == "warm" else None
        walls, cpus = [], []
        start = time.perf_counter()
        while True:
            wall, cpu = self.iteration()
            walls.append(wall)
            cpus.append(cpu)
            if trace or time.perf_counter() - start + wall > seconds:
                break
        traced = self.traced_iteration() if trace else None
        if digest is not None and tree_digest(self.cache_dir) != digest:
            self.problems.append("the warm cache changed during the timed runs")

        end_to_end = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mib(),
            "setup_s": statistics.median(setup),
        }
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(trace),
            "environment": environment(self.seed),
            "setup_samples_s": setup,
            "wall_samples_s": walls,
            "cpu_samples_s": cpus,
            "wall_high_percentile": high_percentile(walls),
            "ops": self.ops,
            "ops_failed": self.ops_failed,
            "failures": self.failures,
            "problems": self.problems,
            "check_drift_max": self.drift_max,
            "end_to_end": {name: {"value": value, "unit": UNITS[name]}
                           for name, value in end_to_end.items()},
        }
        if traced is None:
            result["metrics"] = result["end_to_end"]
        else:
            traced_wall, layer, result["rebound_sites"] = traced
            layer["wall_s.traced"] = traced_wall
            layer["trace_overhead_s"] = traced_wall - walls[0]
            layer["experiments.check_drift_max"] = self.drift_max
            result["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                                 for name, value in layer.items()}
        return result


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".n3", "n3"), (".bytes", "bytes"), ("drift_max", "rel")):
        if name.endswith(suffix):
            return unit
    return "s"


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    env = result["environment"]
    print(f"  nproc {env['nproc']}  threads {env['thread_env']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['numpy_blas']['version']}")
    walls = result["wall_samples_s"]
    high = result["wall_high_percentile"]
    tail = f"p{high[0]:.0f} {high[1]:.4f} s" if high else "no percentile with >=10 samples beyond it"
    print(f"  iterations {len(walls)}  ({tail})")
    for name, metric in result["end_to_end"].items():
        print(f"  {name:<12} {metric['value']:.4f} {metric['unit']}")
    print(f"  ops          {result['ops']}")
    print(f"  ops_failed   {result['ops_failed']}")
    for line in result["failures"] + result["problems"]:
        print(f"  FAIL {line}")
    if result["trace"]:
        for name, metric in result["metrics"].items():
            if metric["value"]:
                print(f"  {name:<58} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so rusage and peak RSS stay separate."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        experiments = import_package()
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))["experiments"]
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = Run(experiments, args.workload, args.seed, reference, work).execute(
            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = result["ops_failed"] == 0 and not result["problems"]
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, correct=correct), indent=2) + "\n", encoding="ascii")
    print_report(result)
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
