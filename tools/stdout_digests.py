"""Print the md5 of the standard output of every benchmark invocation, the
CLI defaults and the demos, one ``md5  argv`` line each, after a first
``blas`` line recording the BLAS backend and the thread count of each
OpenBLAS library loaded once every invocation and demo has run.

    python3 tools/stdout_digests.py [CHECKOUT] > digests.txt

CHECKOUT is the root of the checkout to run, by default the one holding
this script.  Run it on the checkouts before and after a change and diff
the two files: a change that must keep every printed byte shows none.
The pure-loss digests depend on the OpenBLAS thread count (a few
eigenvalues and Gram entries move in the last bit between 1 and 2
threads), so compare only files whose ``blas`` lines agree; the goldens
in ``tests/test_cli.py`` hold at 2 OpenBLAS threads.  The library loads no
scipy, so the line names numpy's OpenBLAS alone; a checkout from before
the quantile and Gauss-Hermite points dropped scipy names scipy's own
OpenBLAS there too, and against one every line but the first must agree.

The invocations are every argv ``perfbench/workloads.py`` generates, at
full and self-test size, for seeds 0-2, each workload's warm-up, and the
default ``rates``, ``chi2``, ``polar`` and ``constellation``, one long
polar code (``LONG_POLAR``), one whose every level is all frozen
(``FROZEN_POLAR``), one whose construction runs a full and a ragged chunk
(``RAGGED_GENIE``), one of 8 points per quadrature (``WIDE_POLAR``), one
whose link runs full and ragged chunks of short frames
(``PACKED_POLAR``), one whose link chunk is set by its floor of frames
(``FLOOR_POLAR``), the smallest chi-square rows (``SMALLEST_CHI2``),
thermal rows at a dimension past 1,000 (``WIDE_FOCK``), thermal rows at
dims 100 and 101, on both sides of the parity share's edge
(``PARITY_EDGE``), and one polar link at N = 1e-9, whose level MIs sit
at the Monte-Carlo noise around 0 (``TINY_SNR_POLAR``), and a random-walk
polar link at m = 2, equilattice's +-1 points, which runs as any
equally weighted kind does (``UNIFORM_KIND_POLAR``), and one whose
construction makes a full and a ragged chunk in blocks of more than 128
frames, along numpy's pairwise split of its sums (``PAIRWISE_GENIE``);
each runs in process through ``thermalcomm.cli.main``, imported from the
checkout's ``src/``.  A nonzero exit code is appended to its line.  Each
script in ``demos/`` then runs as ``__main__``.  The whole list takes
about a minute on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).parent.parent).resolve()
sys.path.insert(0, str(ROOT / "perfbench"))

from probe import import_cli  # noqa: E402
from run import blas_record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(3)
DEFAULTS = (("rates",), ("chi2",), ("polar",), ("constellation",))
# n = 4096 at rate fraction 0.9: SC meets all-info subtrees of length 128
# to 512, long enough that some fail the closed-form guard, where the
# benchmark argvs reach only length 64, where it always passes
LONG_POLAR = ("polar", "--kinds", "equilattice", "--m-min", "4",
              "--blocklength", "4096", "--rate-fraction", "0.9",
              "--trials", "200", "--mc-budget", "200")
# rate fraction 0: every level's code is all frozen, so SC meets a rate-0
# root on every call
FROZEN_POLAR = ("polar", "--kinds", "equilattice", "--m-min", "4",
                "--blocklength", "256", "--rate-fraction", "0",
                "--trials", "50", "--mc-budget", "100")
# n = 1024 and mc budget 5,000: each level's genie-aided construction
# walks one chunk of 4,096 frames and a ragged one of 904, where every
# benchmark argv at that blocklength fits one chunk
RAGGED_GENIE = ("polar", "--kinds", "equilattice", "--m-min", "4",
                "--blocklength", "1024", "--mc-budget", "5000",
                "--trials", "100")
# m = 8, three bits per quadrature, where every other polar argv has at
# most two: the link packs three levels into each label and transforms
# them at once
WIDE_POLAR = ("polar", "--kinds", "equilattice", "--m-min", "8",
              "--blocklength", "256", "--trials", "300", "--mc-budget", "400")
# n = 16 and 70,000 trials: the link sends two chunks of 32,768 frames and
# a ragged one of 4,464, and each level packs its few info bits into one
# or two bytes a trial, most of them ending in padding
PACKED_POLAR = ("polar", "--kinds", "equilattice", "--m-min", "4",
                "--blocklength", "16", "--trials", "70000",
                "--mc-budget", "200")
# n = 16,384 and 100 trials: the link chunk is set by its floor, one
# chunk of 64 frames (2^20 samples) and a ragged one of 36, at a rate
# fraction where some frames fail and some decode
FLOOR_POLAR = ("polar", "--kinds", "equilattice", "--m-min", "4",
               "--blocklength", "16384", "--rate-fraction", "0.85",
               "--trials", "100", "--mc-budget", "100")
# chi-squares down to 1.15e-33, the smallest of the kernel sum's tested
# grid: where a reordered 50-digit sum is likeliest to move a last bit
SMALLEST_CHI2 = ("chi2", "--k", "0.3", "--n", "1", "--kinds", "gauss_hermite",
                 "--m-min", "19", "--m-max", "24")

# dim 1,100: the Laguerre tables' log-factorials reach x = n + 1 >= 1000,
# where cephes' log-gamma cuts its series: the only argv here whose
# dimension passes 1,000
WIDE_FOCK = ("rates", "--n0", "0.5", "--m-max", "2", "--kinds", "equilattice",
             "--dim", "1100")
# the thermal build shares a state with -z and -conj z only where numpy's
# phase powers flip sign exactly, below power 100: the same rows at dim 100
# (228 builds) and at dim 101 (420, conjugates only)
PARITY_EDGE = tuple(
    ("rates", "--n0", "0.5", "--m-min", "7", "--m-max", "9", "--kinds",
     "equilattice", "quantile", "--dim", dim) for dim in ("100", "101"))
# N = 1e-9: the LLRs are of order 1e-4, and the level MIs, Monte-Carlo
# noise around 0, print as 1.5371e-07 and -1.2367e-07 bits with exit 0;
# pins the signed LLRs where their signs carry almost all of the estimate
TINY_SNR_POLAR = ("polar", "--n", "1e-9", "--blocklength", "16",
                  "--trials", "10", "--mc-budget", "100")
# random_walk at m = 2 is equilattice's +-1, 1/2-1/2 constellation, so
# induced_channel's equal-weight rule lets the link run: pins that the
# CLI keeps no kind list of its own
UNIFORM_KIND_POLAR = ("polar", "--kinds", "random_walk", "--blocklength", "64",
                      "--trials", "50", "--mc-budget", "100")
# n = 64 and mc budget 70,001: each level's construction makes a full
# chunk of 65,536 frames in 32 blocks of 2,048 and a ragged one of 4,465
# in blocks of 1,112 to 1,121 frames, each summed pairwise inside by numpy
# and added up its split, where the construction's benchmark argvs make
# blocks of at most 128 frames
PAIRWISE_GENIE = ("polar", "--blocklength", "64", "--mc-budget", "70001",
                  "--trials", "200")


def invocations() -> list[tuple[str, ...]]:
    """Every argv to digest, in a fixed order, each once."""
    argvs = [w.warmup for w in WORKLOADS.values()] + list(DEFAULTS)
    argvs += [LONG_POLAR, FROZEN_POLAR, RAGGED_GENIE, WIDE_POLAR,
              PACKED_POLAR, FLOOR_POLAR, SMALLEST_CHI2, WIDE_FOCK,
              *PARITY_EDGE, TINY_SNR_POLAR, UNIFORM_KIND_POLAR,
              PAIRWISE_GENIE]
    for w in WORKLOADS.values():
        for seed in SEEDS:
            for small in (False, True):
                argvs += w.make_pass(seed, small).argvs
    return list(dict.fromkeys(argvs))


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def main() -> None:
    cli = import_cli(ROOT / "src")
    lines = []
    for argv in invocations():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        tail = f"  [exit {code}]" if code else ""
        lines.append(f"{_md5(buf.getvalue())}  {' '.join(argv)}{tail}")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        buf = io.StringIO()
        with redirect_stdout(buf):
            runpy.run_path(str(demo), run_name="__main__")
        lines.append(f"{_md5(buf.getvalue())}  demos/{demo.name}")
    # after every run, so each OpenBLAS library loaded on the way (a
    # checkout that uses scipy loads scipy's own) is counted, wherever it
    # was loaded
    print(f"blas  {json.dumps(blas_record(), sort_keys=True)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
