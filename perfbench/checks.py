"""Correctness gate applied to every CLI invocation the benchmark makes.

An invocation passes when it exits 0, its output parses (JSON against the
schemas the program ships), its table rows match the reference rows recorded
at the seed commit within the tolerances the tests state, the rates respect
capacity and the chi-square bound, and a polar report is self-consistent
with a frame error rate under ``FER_CEILING``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import jsonschema

# column -> (kind, tolerance), each as a test in tests/ states it
TOLERANCES = {
    # Holevo rate against the Gram-matrix oracle, tests/test_rates.py
    "classical_rate_bits": ("abs", 1e-8),
    "quantum_rate_bits": ("abs", 1e-8),
    "delta_B": ("abs", 1e-8),
    "delta_E": ("abs", 1e-8),
    "delta_B_actual": ("abs", 1e-8),
    # kernel double sum against the Hermite series, tests/test_constellations.py
    "chi2_classical": ("rel", 1e-10),
    "chi2_bound": ("rel", 1e-10),
    "delta_B_bound": ("rel", 1e-10),
    # channel scalars, tests/test_cli.py
    "s": ("rel", 1e-12),
    "c_decay": ("rel", 1e-12),
}
# slack of the two bounds, as tests/test_cli.py states them
CAPACITY_SLACK = 1e-9
CHI2_BOUND_SLACK = 1e-12

# A correct decoder at the seed commit sits at FER 0.04-0.07 on the polar
# workloads; the ceiling catches a broken decoder, not Monte-Carlo noise.
FER_CEILING = 0.2
POLAR_LEVELS = 4


def reference_key(command: str, point: dict) -> str:
    return f"{command} k={point['k']} n0={point['n0']} n={point['n']}"


def _number(value):
    if value in ("", None):
        return None
    try:
        return int(value)
    except ValueError:
        return float(value)


def parse_table(argv, text: str) -> list[dict]:
    """Rows of a rates or chi2 table, CSV or JSON, values as numbers."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(text)["rows"]
    return [{key: (val if key == "kind" else _number(val))
             for key, val in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


class Checker:
    def __init__(self, src: Path, reference_path: Path):
        schemas = src / "thermalcomm" / "schemas"
        self.schemas = {
            "table": json.loads((schemas / "table.schema.json").read_text()),
            "polar": json.loads(
                (schemas / "polar_report.schema.json").read_text()),
        }
        self.reference = json.loads(reference_path.read_text())

    def check(self, argv, point: dict, code: int, text: str) -> list[str]:
        """Problems with one invocation's result; empty when it passes."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            if argv[0] == "polar":
                return self._check_polar(argv, json.loads(text))
            if "--format" in argv:
                jsonschema.validate(json.loads(text), self.schemas["table"])
            return self._check_table(argv, point, parse_table(argv, text))
        except (ValueError, KeyError, TypeError,
                jsonschema.ValidationError) as e:
            return [f"unparseable output: {type(e).__name__}: {e}"]

    def _check_table(self, argv, point, rows) -> list[str]:
        command = argv[0]
        m_max = int(argv[argv.index("--m-max") + 1])
        ref_rows = self.reference.get(reference_key(command, point))
        if ref_rows is None:
            return [f"no reference rows for {reference_key(command, point)}"]
        want = {(r["kind"], r["m"]): r for r in ref_rows
                if r["m"] is None or r["m"] <= m_max}
        got = {(r["kind"], r["m"]): r for r in rows}
        problems = []
        if got.keys() != want.keys() or len(rows) != len(got):
            problems.append(f"{command}: rows {sorted(got, key=str)} differ "
                            f"from reference {sorted(want, key=str)}")
        for key in got.keys() & want.keys():
            for col, (how, tol) in TOLERANCES.items():
                if col not in want[key]:
                    continue
                ref, val = want[key][col], got[key].get(col)
                if ref is None or val is None:
                    if ref is not val:
                        problems.append(f"{command} {key} {col}: {val} vs "
                                        f"reference {ref}")
                    continue
                err = abs(val - ref) if how == "abs" else (
                    abs(val - ref) / max(abs(ref), 1e-300))
                if not err <= tol:
                    problems.append(f"{command} {key} {col}: {val!r} vs "
                                    f"reference {ref!r} ({how} err {err:.1e} "
                                    f"> {tol:.0e})")
        if command == "rates":
            cap = got.get(("capacity_C", None), {}).get("classical_rate_bits")
            for key, row in got.items():
                if key[1] is not None and cap is not None and not (
                        row["classical_rate_bits"] <= cap + CAPACITY_SLACK):
                    problems.append(f"rates {key}: classical rate "
                                    f"{row['classical_rate_bits']} above "
                                    f"capacity {cap}")
        else:
            for key, row in got.items():
                if not (row["delta_B_actual"]
                        <= row["delta_B_bound"] + CHI2_BOUND_SLACK):
                    problems.append(f"chi2 {key}: delta_B_actual "
                                    f"{row['delta_B_actual']} above its bound "
                                    f"{row['delta_B_bound']}")
        return problems

    def _check_polar(self, argv, report: dict) -> list[str]:
        jsonschema.validate(report, self.schemas["polar"])
        trials = int(argv[argv.index("--trials") + 1])
        seed = int(argv[argv.index("--seed") + 1])
        problems = []
        if (report["trials"], report["base_seed"], report["levels"]) != (
                trials, seed, POLAR_LEVELS):
            problems.append("report trials/seed/levels do not echo the run")
        fer = report["fer"]
        bad_frames = fer * trials
        if abs(bad_frames - round(bad_frames)) > 1e-6 * trials:
            problems.append(f"fer {fer} is not a frame count over {trials}")
        if not fer <= FER_CEILING:
            problems.append(f"fer {fer} above the ceiling {FER_CEILING}")
        sum_rate = report["sum_rate_bits_per_mode"]
        if not math.isclose(sum_rate, sum(report["level_rates"]),
                            rel_tol=1e-12):
            problems.append("sum rate is not the sum of the level rates")
        if not math.isclose(report["throughput_bits_per_mode"],
                            sum_rate * (1.0 - fer), rel_tol=1e-12):
            problems.append("throughput is not sum_rate * (1 - fer)")
        if not sum_rate <= report["mi_estimate_bits"]:
            problems.append(f"sum rate {sum_rate} above the mutual "
                            f"information {report['mi_estimate_bits']}")
        if not all(0.0 <= b <= 1.0 for b in report["level_ber"]):
            problems.append(f"level BER out of [0, 1]: {report['level_ber']}")
        return problems
