"""The benchmark tracer (perfbench/tracer.py) binds its work counters to
call arguments by parameter name; renaming one of these parameters would
break ``perfbench/run.py --trace 1`` while every other test still passes."""

import inspect

import pytest

from thermalcomm import constellations, fock, polar, rates

COUNTED_PARAMETERS = [
    (fock.displaced_thermal, "dim"),
    (rates.ensemble_average_state, "e"),
    (constellations.classical_chi2_kernel, "c"),
    (polar.genie_error_counts, "llr"),
    (polar.sc_decode_batch, "llr"),
    (polar.InducedChannel.level_llrs, "yq"),
    (polar.estimate_level_mi, "samples"),
]


@pytest.mark.parametrize("fn, name", COUNTED_PARAMETERS,
                         ids=[f.__qualname__ for f, _ in COUNTED_PARAMETERS])
def test_counted_parameter_names(fn, name):
    assert name in inspect.signature(fn).parameters

