"""Set-up probe: time a fresh interpreter's import of ``thermalcomm.cli``
plus one first call, and print the seconds as JSON.

    python3 perfbench/probe.py ARG...   # ARG... is the CLI argv to call

The clock starts before the import and stops after the call returns, so the
figure covers module imports and any lazy set-up the first call triggers.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli(src: Path = SRC):
    """Import ``thermalcomm.cli`` from ``src``; refuse a copy installed
    elsewhere, so the benchmark always measures the checkout's source."""
    sys.path.insert(0, str(src))
    import thermalcomm.cli

    origin = Path(thermalcomm.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"thermalcomm imported from {origin}, not {src}")
    return thermalcomm.cli


if __name__ == "__main__":
    cli = import_cli()
    with redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(json.dumps({"setup_s": time.perf_counter() - T0, "code": code}))
