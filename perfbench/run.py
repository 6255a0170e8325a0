"""Benchmark of the thermalcomm command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the program is imported from its ``src/``.  One run is
one fresh process: a single caller, closed loop, one ``thermalcomm.cli.main``
invocation at a time.  Inputs are argv lists generated from ``--seed`` (see
workloads.py); every invocation is checked (see checks.py).

``--trace 0`` first times ``setup_s`` in separate fresh interpreters, makes
one untimed warm-up call, then repeats passes of the workload until
``--seconds`` have elapsed and reports the end-to-end metrics as medians over
the passes.  Times are in reference-speed seconds: each pass is scaled by
the host speed measured right before and after it, and the set-up median by
the mean speed over the probes (see speed.py); the raw seconds are kept in
the sample record.  ``--trace 1`` alternates untraced and traced passes (see
tracer.py) for the same time and reports per-layer metrics per pass.

The last line of standard output is the result object; the line before it
records the environment, the channel point and every sample.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

from checks import Checker  # noqa: E402
from probe import SRC, import_cli  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, Workload  # noqa: E402

SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "throughput": "items/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# "<module>.<function>.<stat>": stat is calls, self_s, total_s or the
# layer's work counter from tracer.COUNTERS.  Comments name the end-to-end
# metric and workload each group should move.
PER_LAYER = (
    # thermal_rates: wall_s, cpu_s
    "fock.displacement_operator.calls", "fock.displacement_operator.self_s",
    "fock.displaced_thermal.calls", "fock.displaced_thermal.self_s",
    "fock.displaced_thermal.dim_max",
    "rates.ensemble_average_state.calls", "rates.ensemble_average_state.self_s",
    "rates.ensemble_average_state.points",
    # pure_loss_tables: wall_s
    "fock.coherent_state.calls", "fock.coherent_state.self_s",
    "fock.von_neumann_entropy.calls", "fock.von_neumann_entropy.self_s",
    "fock.relative_entropy.calls", "fock.relative_entropy.self_s",
    "rates.delta_B.total_s",
    "constellations.classical_chi2_kernel.calls",
    "constellations.classical_chi2_kernel.self_s",
    "constellations.classical_chi2_kernel.terms",
    "chi2.delta_B_bound.total_s",
    # polar_construct: wall_s, peak_rss_mb
    "polar.construct_multilevel.total_s",
    "polar.genie_error_counts.calls", "polar.genie_error_counts.self_s",
    "polar.genie_error_counts.decisions",
    "polar.InducedChannel.sample_level.self_s",
    # polar_decode: wall_s, peak_rss_mb
    "polar.simulate.total_s", "polar.simulate.self_s",
    "polar.sc_decode_batch.calls", "polar.sc_decode_batch.self_s",
    "polar.sc_decode_batch.frames",
    # both polar workloads: wall_s
    "polar.InducedChannel.level_llrs.calls",
    "polar.InducedChannel.level_llrs.self_s",
    "polar.InducedChannel.level_llrs.llrs",
    "polar.estimate_level_mi.calls", "polar.estimate_level_mi.samples",
    # every workload: output formatting, and what tracing itself costs
    "cli.main.self_s",
)
TRACE_OVERHEAD = "trace.overhead_s"


def cpu_seconds() -> float:
    """User plus system time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Run:
    """Invocation counts and failures of one benchmark run."""

    def __init__(self, cli, checker: Checker, work: Pass):
        self.cli, self.checker, self.work = cli, checker, work
        self.attempted = 0
        self.problems: list[str] = []

    def invoke(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = self.cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the argv
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # counted as a failed invocation, not fatal
            traceback.print_exc()
            code = 1
        return code, out.getvalue()

    def one_pass(self) -> tuple[float, float]:
        """Run the pass, check each invocation outside the clock; return
        (wall seconds, process CPU seconds)."""
        wall = cpu = 0.0
        for argv in self.work.argvs:
            c0, t0 = cpu_seconds(), time.perf_counter()
            code, text = self.invoke(argv)
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
            self.attempted += 1
            problems = self.checker.check(argv, self.work.point, code, text)
            if problems:
                self.problems.append(f"{' '.join(argv)}: {problems[:3]}")
        return wall, cpu

    @property
    def failed(self) -> int:
        return len(self.problems)


def probe_setup(workload: Workload) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *workload.warmup],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"set-up probe call exited {result['code']}")
    return result["setup_s"]


def blas_record() -> dict:
    """BLAS backend from numpy's build record, and the thread count of each
    OpenBLAS library loaded in this process."""
    import numpy

    record = {"env": {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["numpy_blas"] = None
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                threads[Path(lib).name] = int(getter())
                break
    record["openblas_threads"] = threads
    return record


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas": blas_record()}


def measure(run: Run, workload: Workload, seconds: float) -> tuple[dict, dict]:
    setup_clock = SpeedClock()
    raw_setup = []
    for _ in range(SETUP_SAMPLES):
        raw_setup.append(probe_setup(workload))
        setup_clock.factor()
    # the host's speed changes within a probe's second, so no one kernel
    # sample fits one probe: scale the median by the mean over all of them
    setup = statistics.median(raw_setup) * setup_clock.mean_factor()
    run.invoke(workload.warmup)
    clock = SpeedClock()
    raw_walls, walls, cpus = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = run.one_pass()
        scale = clock.factor()
        raw_walls.append(wall)
        walls.append(wall * scale)
        cpus.append(cpu * scale)
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "throughput": run.work.work_items / wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, {"wall_s": walls, "cpu_s": cpus,
                     "raw_wall_s": raw_walls, "raw_setup_s": raw_setup,
                     "setup_kernel_s": setup_clock.kernel_s,
                     "kernel_s": clock.kernel_s}


def trace(run: Run, workload: Workload, seconds: float) -> tuple[dict, dict]:
    run.invoke(workload.warmup)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.one_pass()[0])
        with tracer.installed():
            traced.append(run.one_pass()[0])
    passes = len(traced)
    for name in workload.exercised:
        if tracer.require(name).calls == 0:
            raise RuntimeError(f"layer {name} recorded no calls on "
                               f"{workload.name}; the trace missed it")
    values = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        s = tracer.require(layer)
        if stat == "calls":
            values[metric] = s.calls // passes
        elif stat in ("self_s", "total_s"):
            values[metric] = getattr(s, stat) / passes
        elif COUNTERS.get(layer, ("",))[0] == stat:
            # dim_max is a maximum; the other counters are per-pass sums
            values[metric] = s.work if stat == "dim_max" else s.work // passes
        else:
            raise LookupError(f"no statistic {stat!r} for layer {layer}")
    values[TRACE_OVERHEAD] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: {"value": value, "unit": per_layer_unit(name)}
               for name, value in values.items()}
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem size, for the harness self-test")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = workload.make_pass(args.seed, args.small)
    try:
        cli = import_cli(SRC)
    except ImportError as e:
        print(f"error: cannot import the program from {SRC}: {e}",
              file=sys.stderr)
        return 1
    run = Run(cli, Checker(SRC, HERE / "reference.json"), work)
    try:
        if args.trace:
            metrics, samples = trace(run, workload, args.seconds)
        else:
            metrics, samples = measure(run, workload, args.seconds)
    except (RuntimeError, LookupError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "point": work.point, "argvs": work.argvs,
                      "environment": environment(), "samples": samples,
                      "problems": run.problems}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
