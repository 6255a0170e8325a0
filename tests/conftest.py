"""Test-session hooks: the report header names the BLAS backend and the
OpenBLAS thread count, since the pure-loss goldens in ``test_cli.py`` hold
at 2 OpenBLAS threads and move in the last bit at 1."""

import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import blas_record  # noqa: E402


def pytest_report_header(config):
    return f"blas: {json.dumps(blas_record())}"
