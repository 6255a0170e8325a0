"""The four benchmark workloads: argv generation from the workload seed,
the fixed work of one pass, and the layers each pass must exercise.

A pass is the sequence of CLI invocations that makes up one unit of a
workload's work; the harness times whole passes.  Table workloads pick their
channel point from a small grid, so that every point has recorded reference
rows; polar workloads hand the seed to the program's ``--seed``.  Why each
workload exists is stated in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

KINDS = ("equilattice", "quantile", "random_walk", "gauss_hermite")

# Narrow bands around the study setting k = 0.8, N0 = 0, N = 7.  Moving
# across a band changes a Fock truncation dimension by at most a few, so the
# work of a pass stays nearly constant from seed to seed.
THERMAL_N0_GRID = ("0.46", "0.47", "0.48", "0.49", "0.50",
                   "0.51", "0.52", "0.53", "0.54")
PURE_LOSS_K_GRID = ("0.790", "0.7925", "0.795", "0.7975", "0.800",
                    "0.8025", "0.805", "0.8075", "0.810")

POLAR_CHANNEL = ("polar", "--kinds", "equilattice", "--m-min", "4")


@dataclass(frozen=True)
class Pass:
    """One unit of work: the argv of each invocation, the channel point the
    seed chose, and the table rows or frames the pass produces."""

    argvs: tuple[tuple[str, ...], ...]
    point: dict
    work_items: int


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, small) -> Pass; small is the reduced size the self-test runs
    make_pass: Callable[[int, bool], Pass]
    # a cheap invocation on the same code path, run before timing
    warmup: tuple[str, ...]
    # "<module>.<function>" layers that must record at least one call
    exercised: tuple[str, ...]


def thermal_pass(n0: str, small: bool) -> Pass:
    m_max = 3 if small else 8
    return Pass(argvs=(("rates", "--n0", n0, "--m-max", str(m_max)),),
                point={"k": "0.8", "n0": n0, "n": "7"},
                work_items=len(KINDS) * (m_max - 1))


def pure_loss_pass(k: str, small: bool) -> Pass:
    m_max = 4 if small else 16
    common = ("--k", k, "--m-max", str(m_max), "--format", "json")
    return Pass(argvs=(("rates",) + common, ("chi2",) + common),
                point={"k": k, "n0": "0", "n": "7"},
                work_items=2 * len(KINDS) * (m_max - 1))


def _polar(trials: int, mc_budget: int,
           small_trials: int, small_mc_budget: int):
    def make_pass(seed: int, small: bool) -> Pass:
        polar_seed = random.Random(seed).randrange(1, 1_000_000)
        n_trials, n_mc = ((small_trials, small_mc_budget) if small
                          else (trials, mc_budget))
        argv = POLAR_CHANNEL + ("--trials", str(n_trials), "--mc-budget",
                                str(n_mc), "--seed", str(polar_seed))
        return Pass(argvs=(argv,), point={"k": "0.8", "n0": "0", "n": "7",
                                          "seed": polar_seed},
                    work_items=n_trials)
    return make_pass


_POLAR_WARMUP = POLAR_CHANNEL + ("--blocklength", "64", "--trials", "8",
                                 "--mc-budget", "100")

WORKLOADS = {w.name: w for w in (
    Workload("thermal_rates",
             lambda seed, small: thermal_pass(
                 random.Random(seed).choice(THERMAL_N0_GRID), small),
             warmup=("rates", "--n0", "0.5", "--m-max", "2",
                     "--kinds", "equilattice"),
             exercised=("fock.displacement_operator", "fock.displaced_thermal",
                        "rates.ensemble_average_state", "cli.main")),
    Workload("pure_loss_tables",
             lambda seed, small: pure_loss_pass(
                 random.Random(seed).choice(PURE_LOSS_K_GRID), small),
             warmup=("chi2", "--m-max", "2", "--kinds", "equilattice",
                     "--format", "json"),
             exercised=("fock.coherent_state", "fock.von_neumann_entropy",
                        "fock.relative_entropy", "rates.delta_B",
                        "constellations.classical_chi2_kernel",
                        "chi2.delta_B_bound", "cli.main")),
    Workload("polar_construct", _polar(trials=500, mc_budget=4000,
                                    small_trials=100, small_mc_budget=1000),
             warmup=_POLAR_WARMUP,
             exercised=("polar.construct_multilevel",
                        "polar.genie_error_counts",
                        "polar.InducedChannel.sample_level",
                        "polar.InducedChannel.level_llrs",
                        "polar.estimate_level_mi", "cli.main")),
    Workload("polar_decode", _polar(trials=4000, mc_budget=500,
                                 small_trials=500, small_mc_budget=250),
             warmup=_POLAR_WARMUP,
             exercised=("polar.simulate", "polar.sc_decode_batch",
                        "polar.InducedChannel.level_llrs",
                        "polar.estimate_level_mi", "cli.main")),
)}
