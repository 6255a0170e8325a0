"""Each narrative script in ``demos/`` runs to completion against the
library in ``src/``: a moved or renamed library name breaks it here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "chi2_decay.py", "constellation_families.py", "polar_pipeline.py",
        "rates_vs_m.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=ROOT, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
