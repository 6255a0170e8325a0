"""Self-test of the benchmark harness at reduced problem size.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json once untraced and once traced, with
``--small``, and checks that each run exits 0, passes its correctness gate,
and emits exactly the metric names of BENCHMARK.json with their units.
Takes about a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--small"],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                check=False)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not (result.get("correct") and result.get("failed") == 0
                    and result.get("attempted", 0) >= 1):
                problems.append(f"gate: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')} "
                                f"failed={result.get('failed')}")
            emitted = {name: m["unit"]
                       for name, m in result.get("metrics", {}).items()}
            mismatch = set(emitted.items()) ^ set(expected[trace].items())
            if mismatch:
                problems.append("metric names or units differ from "
                                f"BENCHMARK.json: {sorted(mismatch)}")
            for name, m in result.get("metrics", {}).items():
                if not (isinstance(m["value"], (int, float))
                        and math.isfinite(m["value"])):
                    problems.append(f"{name} = {m['value']!r}")
            print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
