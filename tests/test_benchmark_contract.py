"""The benchmark tracer (perfbench/tracer.py) binds its work counters to
call arguments by parameter name, and fails a workload whose required
layers record no calls; renaming one of these parameters, or routing a
workload around one of its layers, would break
``perfbench/run.py --trace 1`` while every other test still passes."""

import inspect
import io
import sys
from contextlib import redirect_stdout

import pytest

import thermalcomm.cli
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
    tracer does (module globals, ``from .x import f`` copies and class
    attributes), to a wrapper that records each call."""
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
            elif inspect.isclass(obj) and vars(obj).get(fn.__name__) is fn:
                monkeypatch.setattr(obj, fn.__name__, counting)
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


# perfbench/workloads.py's ``exercised`` layers, copied so that this test
# does not import the harness, with a small CLI run on each workload's path
_POLAR_16QAM = [["polar", "--m-min", "4", "--blocklength", "128",
                 "--trials", "40", "--mc-budget", "200"]]
WORKLOAD_LAYERS = {
    "thermal_rates": (
        [["rates", "--n0", "0.5", "--m-max", "3"]],
        ["fock.displacement_operator", "fock.displaced_thermal",
         "rates.ensemble_average_state", "cli.main"]),
    "pure_loss_tables": (
        [["rates", "--m-max", "4", "--format", "json"],
         ["chi2", "--m-max", "4", "--format", "json"]],
        ["fock.coherent_state", "fock.von_neumann_entropy",
         "fock.relative_entropy", "rates.delta_B",
         "constellations.classical_chi2_kernel", "chi2.delta_B_bound",
         "cli.main"]),
    "polar_construct": (
        _POLAR_16QAM,
        ["polar.construct_multilevel", "polar.genie_error_counts",
         "polar.InducedChannel.sample_level",
         "polar.InducedChannel.level_llrs", "polar.estimate_level_mi",
         "cli.main"]),
    "polar_decode": (
        _POLAR_16QAM,
        ["polar.simulate", "polar.sc_decode_batch",
         "polar.InducedChannel.level_llrs", "polar.estimate_level_mi",
         "cli.main"]),
}


def _layer(name):
    """The function a "<module>.<function>" or "<module>.<Class>.<method>"
    layer name denotes."""
    obj = sys.modules[f"thermalcomm.{name.split('.')[0]}"]
    for attr in name.split(".")[1:]:
        obj = vars(obj)[attr] if inspect.isclass(obj) else getattr(obj, attr)
    return obj


@pytest.mark.parametrize("workload", WORKLOAD_LAYERS)
def test_workload_run_reaches_every_exercised_layer(monkeypatch, workload):
    argvs, layers = WORKLOAD_LAYERS[workload]
    calls = {name: _count_calls(monkeypatch, _layer(name)) for name in layers}
    for argv in argvs:
        with redirect_stdout(io.StringIO()):
            assert thermalcomm.cli.main(argv) == 0
    assert [name for name in layers if not calls[name]] == []


def test_construction_samples_once_per_genie_chunk_in_the_listed_layer(
        monkeypatch):
    # polar_construct lists polar.InducedChannel.sample_level, and the
    # construction alone calls it once per genie chunk of each level, in
    # level order, so the chunk's label draws count in that layer.  Chunks
    # of 300 frames of n = 64 split a budget of 700 into 300, 300 and 100
    monkeypatch.setattr(polar, "_GENIE_SAMPLES", 300 * 64)
    ch = polar.induced_channel(channel_params(0.8, 0.0, 7.0),
                               make_constellation("equilattice", 4))
    calls = _count_calls(monkeypatch, polar.InducedChannel.sample_level)
    polar.construct_multilevel(ch, 64, 1.6, 700, seed=5)
    # each call is (channel, rng, level, n, blocks)
    assert [(args[2], args[3], sum(args[4])) for args in calls] == [
        (level, 64, frames) for level in range(ch.levels)
        for frames in (300, 300, 100)]
