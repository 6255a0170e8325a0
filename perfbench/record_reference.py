"""Write reference.json: the rate and chi2 table rows of every grid point
the table workloads can choose, at full size.

    python3 perfbench/record_reference.py

The checked-in file was recorded from the program as it stood when the
benchmark was defined; later versions are checked against it.  Recording
again would move the reference along with the program, so do it only when
an intended change of the numbers has been verified by other means.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from checks import parse_table, reference_key
from probe import import_cli
from workloads import (PURE_LOSS_K_GRID, THERMAL_N0_GRID, pure_loss_pass,
                       thermal_pass)


def main() -> None:
    cli = import_cli()
    passes = ([thermal_pass(n0, small=False) for n0 in THERMAL_N0_GRID]
              + [pure_loss_pass(k, small=False) for k in PURE_LOSS_K_GRID])
    reference = {}
    for work in passes:
        for argv in work.argvs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            reference[reference_key(argv[0], work.point)] = parse_table(
                argv, out.getvalue())
            print(" ".join(argv), flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    # one table row per line keeps diffs of the file readable
    lines = [f"{json.dumps(key)}: [\n" + ",\n".join(
        json.dumps(row) for row in rows) + "\n]"
        for key, rows in reference.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
