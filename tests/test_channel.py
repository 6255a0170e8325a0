import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermalcomm import (ChannelParams, build_ensemble, capacity_C,
                         channel_params, g_entropy, gaussian_rate_limit)
from thermalcomm.constellations import ComplexConstellation


def test_pure_loss_derived_quantities():
    p = channel_params(0.8, 0.0, 7.0)
    assert p.Nc == 0.0
    assert math.isclose(p.Nprime, 4.48, rel_tol=0, abs_tol=1e-14)
    # s = k^2 N / (sqrt(N'(N'+1)) - k^2 N), recomputed by hand
    dgap = math.sqrt(4.48 * 5.48)
    assert math.isclose(p.s, 4.48 / (dgap - 4.48), rel_tol=1e-14)
    assert math.isclose(p.s, 9.4348, rel_tol=1e-4)


def test_thermal_environment_derived_quantities():
    p = channel_params(0.6, 1.5, 2.0)
    assert math.isclose(p.Nc, (1 - 0.36) * 1.5, rel_tol=1e-14)
    assert math.isclose(p.Nprime, 0.36 * 2.0 + p.Nc, rel_tol=1e-14)
    # N' - Nc = k^2 N, and s = k^2 N / (sqrt(N'(N'+1)) - k^2 N)
    assert p.Nprime - p.Nc == pytest.approx(0.36 * 2.0)
    assert 0.36 * 2.0 * (1.0 + p.s) / p.s == pytest.approx(
        math.sqrt(p.Nprime * (p.Nprime + 1)))


@given(k=st.floats(0.05, 1.0), N0=st.floats(0.0, 5.0), N=st.floats(0.1, 50.0))
def test_snr_gap_identity(k, N0, N):
    # s/(1+s) == k^2 N / sqrt(N'(N'+1)) is the identity the chi^2 machinery
    # leans on
    if k == 1.0 and N0 == 0.0:
        return  # noiseless identity channel is rejected, tested below
    p = channel_params(k, N0, N)
    dgap = math.sqrt(p.Nprime * (p.Nprime + 1.0))
    assert p.s / (1.0 + p.s) == pytest.approx(k * k * N / dgap, rel=1e-12)


@pytest.mark.parametrize("k,N0,N", [
    (0.0, 0.0, 1.0),
    (-0.5, 0.0, 1.0),
    (1.2, 0.0, 1.0),
    (0.8, -0.1, 1.0),
    (0.8, 0.0, 0.0),
    (0.8, 0.0, -3.0),
    (1.0, 0.0, 1.0),
    (0.8, math.nan, 7.0),
    (0.8, math.inf, 7.0),
    (0.8, 0.0, math.nan),
    (0.8, 0.0, math.inf),
    (1e-300, 0.0, 7.0),  # k^2 N underflows to 0
    (0.8, 0.0, 1e17),  # sqrt(N'(N'+1)) rounds to N'
    (0.8, 1e300, 7.0),  # N'(N'+1) overflows
])
def test_invalid_parameters_rejected(k, N0, N):
    with pytest.raises(ValueError):
        channel_params(k, N0, N)


@pytest.mark.parametrize("k,N0,N", [(0.8, 0.0, 7.0), (0.6, 1.5, 2.0),
                                    (1.0, 0.3, 4.0)])
def test_direct_construction_derives_every_scalar(k, N0, N):
    # the derived scalars are worked out from (k, N0, N) alone, so a
    # directly built channel cannot disagree with its inputs
    direct, made = ChannelParams(k, N0, N), channel_params(k, N0, N)
    assert direct == made
    for name in ("Nc", "Nprime", "Nc_E", "Nprime_E", "s", "c_decay"):
        assert getattr(direct, name) == getattr(made, name), name
    assert direct.Nc == (1.0 - k * k) * N0
    with pytest.raises(TypeError):
        ChannelParams(0.8, 0.0, 7.0, Nc=1.0)


@pytest.mark.parametrize("k,N0,N,message", [
    (2.0, 0.0, 7.0, "transmittivity k must be in"),
    (0.8, -0.1, 7.0, "N0 must be >= 0"),
    (0.8, 0.0, math.nan, "N must be finite"),
    (1.0, 0.0, 7.0, "identity channel"),
    (0.8, 0.0, 1e17, "outside the range double precision resolves"),
])
def test_direct_construction_validates_as_the_factory_does(k, N0, N, message):
    with pytest.raises(ValueError, match=message):
        ChannelParams(k, N0, N)


def test_g_entropy_values():
    assert g_entropy(0.0) == 0.0
    assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-15)
    # g(x) ~ log2(e x) for large x
    assert g_entropy(1e6) == pytest.approx(math.log2(math.e * 1e6), rel=1e-5)


def test_g_entropy_rejects_negative():
    with pytest.raises(ValueError):
        g_entropy(-0.5)


def test_capacity_and_limit_reference_point():
    p = channel_params(0.8, 0.0, 7.0)
    assert capacity_C(p) == pytest.approx(g_entropy(4.48), abs=1e-15)
    lim = gaussian_rate_limit(p)
    envirophotons = (1 - 0.64) * 7.0
    assert lim == pytest.approx(g_entropy(4.48) - g_entropy(envirophotons),
                                abs=1e-12)
    assert 0.0 < lim < capacity_C(p)


def _point(z):
    """A one-point constellation at z."""
    return ComplexConstellation(points=np.array([z], dtype=complex),
                                probs=np.array([1.0]))


def test_output_states():
    p = channel_params(0.8, 0.5, 7.0)
    b = build_ensemble(p, _point(1.0 + 2.0j), "B")
    assert b.centers[0] == pytest.approx(0.8 * (1 + 2j))
    assert b.width == pytest.approx(p.Nc)
    e = build_ensemble(p, _point(1.0 + 2.0j), "E")
    assert abs(e.centers[0]) == pytest.approx(0.6 * abs(1 + 2j))
    assert e.width == pytest.approx(0.64 * 0.5)


def test_environment_sees_negated_amplitude():
    p = channel_params(0.8, 0.0, 7.0)
    e = build_ensemble(p, _point(1.0), "E")
    assert e.centers[0].real < 0.0
