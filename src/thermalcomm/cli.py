"""Batch command-line front-end: rate tables, bound tables, constellation
dumps, and polar-coded simulation reports as CSV or JSON.

Subcommands: ``rates``, ``chi2``, ``polar``, ``constellation``.  Defaults
reproduce the k = 0.8, N0 = 0, N = 7 study setting.  Output is data only;
plotting is left to external tools.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 truncation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import (ChannelParams, capacity_C, channel_params,
                      gaussian_rate_limit)
from .constellations import (KINDS, classical_chi2_kernel, make_constellation,
                             product_constellation)
from .errors import NumericFailure, TruncationError
from .chi2 import _gap_bound, delta_B_bound
from .polar import (MIN_MC_BUDGET, _check_power_of_two, construct_multilevel,
                    estimate_level_mi, induced_channel, simulate)
from .rates import (GAP_RESOLUTION, build_ensemble, delta_B, ensemble_dim,
                    ensemble_rates)

RATES_COLUMNS = ["kind", "m", "classical_rate_bits", "quantum_rate_bits",
                 "delta_B", "delta_E", "chi2_bound", "dim", "trace_deficit"]
CHI2_COLUMNS = ["kind", "m", "s", "chi2_classical", "delta_B_bound",
                "delta_B_actual", "c_decay"]
CONSTELLATION_COLUMNS = ["kind", "m", "index", "point", "prob"]


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    k: float = 0.8
    n0: float = 0.0
    n: float = 7.0
    kinds: list[str] = field(default_factory=lambda: list(KINDS))
    m_min: int = 2
    m_max: int = 10
    dim: int | None = None
    seed: int = 1234
    out: str | None = None
    format: str = "csv"
    # polar-only knobs
    blocklength: int = 1024
    trials: int = 500
    mc_budget: int = 4000
    rate_fraction: float = 0.7


def _table_grid(config: RunConfig, p: ChannelParams,
                sides: str) -> list[tuple]:
    """(kind, m, constellation, product constellation) of every table row,
    in output order.  Every row's state on each of ``sides`` is sized by
    ``rates.ensemble_dim`` first, so a dimension below 1 (``ValueError``)
    or above ``rates.MAX_DIM`` (``TruncationError``) fails before any state
    is built."""
    grid = []
    for kind in config.kinds:
        for m in range(config.m_min, config.m_max + 1):
            c = make_constellation(kind, m)
            Q = product_constellation(c, config.n)
            for side in sides:
                ensemble_dim(build_ensemble(p, Q, side), config.dim)
            grid.append((kind, m, c, Q))
    return grid


def _resolved(x: float) -> float | None:
    """``x``, or None where its magnitude is eigensolve noise."""
    return x if abs(x) >= GAP_RESOLUTION else None


def _nonzero(x: float) -> float | None:
    """A chi-square or a bound from one, or None where it underflowed to
    0.0 (it is positive at 50 digits; a bound of 0 would be false)."""
    return x if x != 0.0 else None


def _check_theorem(kind: str, m: int, claim: str, value: float,
                   limit: float) -> None:
    """Raise ``NumericFailure`` naming the row and the ``claim`` when
    ``value`` exceeds the ``limit`` a theorem puts on it by more than
    ``rates.GAP_RESOLUTION``: such a row is wrong (its Fock truncation too
    small for the states, say), not merely unresolved."""
    if value - limit > GAP_RESOLUTION:
        raise NumericFailure(f"row {kind} m={m} breaks {claim}: "
                             f"{value!r} > {limit!r}")


def cmd_rates(config: RunConfig) -> list[dict]:
    """Rate table rows over the kind x m grid, preceded by the capacity and
    Gaussian coherent-information reference rows.  ``delta_B`` and
    ``delta_E`` are null where the gap is below ``rates.GAP_RESOLUTION``,
    whose noise can come out negative or above ``chi2_bound``; so are the
    rates of magnitude below it, and ``chi2_bound`` if it underflowed.  A
    row whose gap in nats exceeds ``chi2_bound``, or whose classical rate
    exceeds the capacity, by more than that resolution raises
    ``NumericFailure``.

    So does an N0 = 0 row whose quantum rate breaks the pure-loss bound by
    more than that resolution.  There the rate is the coherent information
    S(B) - S(E) of the ensemble's average input, whose mean photon number
    is N (``product_constellation`` scales every kind to it, to within
    about 1e-14 photons, which moves the limit far less than the
    resolution).  For k^2 >= 1/2 the channel is degradable, and that
    coherent information is at most g(k^2 N) - g((1 - k^2) N), the
    ``gaussian_rate_limit`` row (Wolf, Perez-Garcia & Giedke, PRL 98,
    130501 (2007)).  For k^2 < 1/2 it is antidegradable, so the rate is at
    most 0, and its complement obeys the same theorem, so it is at least
    the limit.  Thermal rows have no such theorem and are not checked."""
    p = channel_params(config.k, config.n0, config.n)
    capacity = capacity_C(p)
    limit = gaussian_rate_limit(p)
    empty = dict.fromkeys(RATES_COLUMNS)
    rows = [
        {**empty, "kind": "capacity_C", "classical_rate_bits": capacity},
        {**empty, "kind": "gaussian_rate_limit", "quantum_rate_bits": limit},
    ]
    for kind, m, c, Q in _table_grid(config, p, "BE"):
        r = ensemble_rates(p, Q, config.dim)
        bound = delta_B_bound(p, c)
        _check_theorem(kind, m, "delta_B in nats <= chi2_bound",
                       r.delta_B * math.log(2.0), bound)
        _check_theorem(kind, m, "classical_rate_bits <= capacity_C",
                       r.classical, capacity)
        if p.N0 == 0.0 and p.k * p.k >= 0.5:
            _check_theorem(kind, m, "quantum_rate_bits <= gaussian_rate_limit",
                           r.quantum, limit)
        elif p.N0 == 0.0:
            _check_theorem(kind, m, "gaussian_rate_limit <= quantum_rate_bits",
                           limit, r.quantum)
            _check_theorem(kind, m, "quantum_rate_bits <= 0", r.quantum, 0.0)
        rows.append({
            "kind": kind, "m": m,
            "classical_rate_bits": _resolved(r.classical),
            "quantum_rate_bits": _resolved(r.quantum),
            "delta_B": r.delta_B if r.delta_B >= GAP_RESOLUTION else None,
            "delta_E": r.delta_E if r.delta_E >= GAP_RESOLUTION else None,
            "chi2_bound": _nonzero(bound),
            "dim": r.dim,
            "trace_deficit": r.trace_deficit,
        })
    return rows


def cmd_chi2(config: RunConfig) -> list[dict]:
    """Classical chi-square, the gap bound, and the realized gap per row,
    for decay-slope extraction.

    ``delta_B_actual`` is reported in nats: the chi-square bound dominates
    the natural-log relative entropy, and the bits conversion (x 1/ln 2)
    can cross the bound where it is tight.  Rate tables stay in bits.  It
    is null where the gap is below ``rates.GAP_RESOLUTION``, whose noise
    can come out negative or above the bound.  ``chi2_classical`` and
    ``delta_B_bound`` are null where they underflowed to 0.0.  A row whose
    gap exceeds its bound by more than that resolution raises
    ``NumericFailure``.
    """
    p = channel_params(config.k, config.n0, config.n)
    rows = []
    for kind, m, c, Q in _table_grid(config, p, "B"):
        db_entropy, _ = delta_B(p, Q, config.dim)
        chi2_classical = classical_chi2_kernel(c, p.s)
        bound = _gap_bound(chi2_classical)
        _check_theorem(kind, m, "delta_B_actual <= delta_B_bound",
                       db_entropy * math.log(2.0), bound)
        rows.append({
            "kind": kind, "m": m, "s": p.s,
            "chi2_classical": _nonzero(chi2_classical),
            "delta_B_bound": _nonzero(bound),
            "delta_B_actual": (db_entropy * math.log(2.0)
                               if db_entropy >= GAP_RESOLUTION else None),
            "c_decay": p.c_decay,
        })
    return rows


def cmd_constellation(config: RunConfig) -> list[dict]:
    """Dump points and probabilities of the requested constellations."""
    rows = []
    for kind in config.kinds:
        for m in range(config.m_min, config.m_max + 1):
            c = make_constellation(kind, m)
            for i, (x, q) in enumerate(zip(c.points, c.probs)):
                rows.append({"kind": kind, "m": m, "index": i,
                             "point": float(x), "prob": float(q)})
    return rows


def cmd_polar(config: RunConfig) -> dict:
    """Construct multilevel codes whose sum rate is rate_fraction times the
    estimated heterodyne mutual information, then simulate; returns the
    report, whose mutual-information fields are that same estimate.
    ``rate_fraction`` must be finite and >= 0, and the sum rate it gives
    in [0, levels), the range ``construct_multilevel`` accepts.  Any kind
    whose points at m are equally likely runs (``induced_channel`` refuses
    the rest before any sampling): equilattice and quantile at every m,
    random_walk and gauss_hermite at m = 2, where they are equilattice's
    +-1 points."""
    kind = config.kinds[0]
    if config.trials < 0:
        raise ValueError(f"trials must be >= 0, got {config.trials}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if not (math.isfinite(config.rate_fraction) and config.rate_fraction >= 0):
        raise ValueError("--rate-fraction must be finite and >= 0, "
                         f"got {config.rate_fraction}")
    _check_power_of_two(config.blocklength, "--blocklength")
    if config.mc_budget < MIN_MC_BUDGET:
        raise ValueError(f"--mc-budget must be >= {MIN_MC_BUDGET}, "
                         f"got {config.mc_budget}")
    m = config.m_min
    p = channel_params(config.k, config.n0, config.n)
    ch = induced_channel(p, make_constellation(kind, m))
    n = config.blocklength

    mi_rng = np.random.default_rng(config.seed)
    level_mi = [estimate_level_mi(ch, lv, 20_000, mi_rng)
                for lv in range(ch.levels)]
    mi = float(sum(level_mi))
    sum_rate = config.rate_fraction * mi
    if not 0.0 <= sum_rate < ch.levels:
        raise ValueError(
            f"--rate-fraction {config.rate_fraction} times the estimated "
            f"mutual information {mi:.6g} bits gives sum rate {sum_rate:.6g}, "
            f"outside [0, {ch.levels})")
    construction_seed = config.seed + 1000
    codes = construct_multilevel(ch, n, sum_rate, config.mc_budget,
                                 construction_seed)

    report = simulate(ch, codes, config.trials, config.seed + 2000)
    report.update({
        "level_mi_bits": level_mi,
        "mi_estimate_bits": mi,
        "version": __version__,
        "channel": {"k": config.k, "N0": config.n0, "N": config.n},
        "constellation_kind": kind,
        "m_per_quadrature": m,
        "rate_fraction": config.rate_fraction,
        "mc_budget": config.mc_budget,
        "construction_seed": construction_seed,
        "base_seed": config.seed,
    })
    return report


def _emit_table(rows: list[dict], columns: list[str], config: RunConfig,
                command: str, stream) -> None:
    if config.format == "csv":
        writer = csv.DictWriter(stream, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k])
                             for k in columns})
    else:
        json.dump({"command": command, "version": __version__, "rows": rows},
                  stream, indent=2)
        stream.write("\n")


def _parse_config_file(path: str) -> dict:
    """Key = value lines, '#' comments; keys match the flag names with
    dashes replaced by underscores.  An unreadable file and a key given
    twice raise ``ValueError``."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ValueError(f"cannot read config file {path}: {e.strerror}") from e
    values, first_line = {}, {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on "
                             f"line {first_line[key]}")
        first_line[key] = lineno
        values[key] = val.strip()
    return values


_COMMANDS = {
    "rates": "achievable-rate table over the kind x m grid",
    "chi2": "chi-square and gap-bound table",
    "polar": "multilevel polar-coded heterodyne simulation report",
    "constellation": "dump constellation points and probabilities",
}
_ALL = " ".join(_COMMANDS)

# Every flag once: the subcommands that read it and its argparse keywords.
# A subcommand accepts only the flags it reads, and their names with
# underscores as config keys, typed and checked by the same keywords.
_FLAGS = {
    "config": (_ALL, dict(help="key = value config file")),
    "k": ("rates chi2 polar", dict(type=float, help="transmittivity (0, 1]")),
    "n0": ("rates chi2 polar", dict(type=float,
                                    help="environment photon number")),
    "n": ("rates chi2 polar", dict(type=float, help="input photon number")),
    "kinds": (_ALL, dict(nargs="+", choices=KINDS, metavar="KIND",
                         help=f"one or more of {', '.join(KINDS)}")),
    "m_min": (_ALL, dict(type=int)),
    "m_max": ("rates chi2 constellation", dict(type=int)),
    "dim": ("rates chi2", dict(type=int, help="Fock truncation override")),
    "seed": ("polar", dict(type=int)),
    "out": (_ALL, dict(help="output path (default stdout)")),
    "format": ("rates chi2 constellation", dict(choices=("csv", "json"))),
    "blocklength": ("polar", dict(type=int)),
    "trials": ("polar", dict(type=int)),
    "mc_budget": ("polar", dict(type=int)),
    "rate_fraction": ("polar", dict(type=float)),
}


def _config_value(key: str, text: str):
    """A config value, typed and checked as its flag; lists by commas."""
    spec = _FLAGS[key][1]
    items = text.split(",") if "nargs" in spec else [text]
    convert = spec.get("type", str)
    try:
        values = [convert(v.strip()) for v in items]
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {convert.__name__} "
                         f"value: {text!r}") from None
    if any(v not in spec.get("choices", values) for v in values):
        raise ValueError(f"config key {key!r}: must be in {spec['choices']}, "
                         f"got {text!r}")
    return values if "nargs" in spec else values[0]


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values, then flags over them, for the keys it reads."""
    reads = [key for key, (commands, _) in _FLAGS.items()
             if args.command in commands.split() and key != "config"]
    values = {}
    file_values = _parse_config_file(args.config) if args.config else {}
    for key, text in file_values.items():
        if key not in reads:
            raise ValueError(f"{args.command} reads no config key {key!r}")
        values[key] = _config_value(key, text)
    values.update((key, getattr(args, key)) for key in reads
                  if getattr(args, key) is not None)
    if args.command == "polar" and len(values.get("kinds", ())) > 1:
        raise ValueError("polar reads one kind from --kinds, got "
                         + " ".join(values["kinds"]))
    config = RunConfig(**values)
    if "m_max" in reads and config.m_max < config.m_min:
        raise ValueError("need 2 <= m_min <= m_max")
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalcomm", allow_abbrev=False,
        description="Constellation rates, chi-square bounds, and polar-coded "
                    "simulation for thermal Bosonic channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext, allow_abbrev=False)
        for key, (commands, spec) in _FLAGS.items():
            if name in commands.split():
                sp.add_argument("--" + key.replace("_", "-"), **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse's usage error, or 0 after --help
        return e.code
    try:
        config = _resolve_config(args)
        buf = io.StringIO()
        if args.command == "rates":
            _emit_table(cmd_rates(config), RATES_COLUMNS, config, "rates", buf)
        elif args.command == "chi2":
            _emit_table(cmd_chi2(config), CHI2_COLUMNS, config, "chi2", buf)
        elif args.command == "constellation":
            _emit_table(cmd_constellation(config), CONSTELLATION_COLUMNS,
                        config, "constellation", buf)
        elif args.command == "polar":
            json.dump(cmd_polar(config), buf, indent=2)
            buf.write("\n")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except TruncationError as e:
        print(f"truncation error: {e}", file=sys.stderr)
        return 4
    text = buf.getvalue()
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {config.out}: {e.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
