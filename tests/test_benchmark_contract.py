"""The benchmark tracer (perfbench/tracer.py) binds its work counters to
call arguments by parameter name, and fails a workload whose required
layers record no calls; renaming one of these parameters, or routing the
thermal rate build around the Fock displacement layer, would break
``perfbench/run.py --trace 1`` while every other test still passes."""

import inspect
import sys

import pytest

from thermalcomm import (channel_params, constellations, fock,
                         make_constellation, polar, product_constellation,
                         rates)

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



def _count_calls(monkeypatch, fn):
    """Rebind ``fn`` under every name the package looks it up by, as the
    tracer does, to a wrapper that records each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "thermalcomm":
            continue
        for attr, obj in list(vars(module).items()):
            if obj is fn:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_thermal_ensemble_reaches_fock_displacement_layers(monkeypatch):
    # the thermal_rates workload requires calls on both of these layers
    p = channel_params(0.8, 0.5, 7.0)
    Q = product_constellation(make_constellation("equilattice", 2), 7.0)
    e = rates.build_ensemble(p, Q, "B")
    assert e.width > 0.0
    displacements = _count_calls(monkeypatch, fock.displacement_operator)
    thermals = _count_calls(monkeypatch, fock.displaced_thermal)
    rates.ensemble_average_state(e)
    assert len(displacements) > 0
    assert len(thermals) > 0


@pytest.mark.parametrize("side", ["B", "E"])
def test_ensemble_probs_count_every_point(side):
    # the tracer's rates.ensemble_average_state.points counter is
    # len(e.probs), one per constellation point
    p = channel_params(0.8, 0.5, 7.0)
    Q = product_constellation(make_constellation("quantile", 3), 7.0)
    e = rates.build_ensemble(p, Q, side)
    assert len(e.probs) == len(e.centers) == len(Q.points) == 9
