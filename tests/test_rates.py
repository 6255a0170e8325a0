import math
import sys

import numpy as np
import pytest

from thermalcomm import (Ensemble, build_ensemble, capacity_C,
                         channel_params, delta_B, displaced_thermal,
                         ensemble_average_state, ensemble_rates, fock,
                         g_entropy, gaussian_rate_limit, make_constellation,
                         product_constellation)

P = channel_params(0.8, 0.0, 7.0)


def make_Q(kind, m, p=P):
    return product_constellation(make_constellation(kind, m), p.N)


def coherent_mixture_entropy_gram(points, probs):
    """Independent entropy oracle for a mixture of coherent states: the
    nonzero spectrum of sum q |z><z| equals that of the Gram matrix
    G_ij = sqrt(q_i q_j) <z_i|z_j>."""
    z = np.asarray(points)
    q = np.asarray(probs)
    ov = np.exp(-0.5 * np.abs(z[:, None] - z[None, :]) ** 2
                + 1j * np.imag(z[:, None] * np.conj(z[None, :])))
    G = np.sqrt(np.outer(q, q)) * ov
    ev = np.linalg.eigvalsh(G)
    ev = ev[ev > 1e-15]
    return float(-np.sum(ev * np.log2(ev)))


@pytest.mark.parametrize("kind", ["equilattice", "random_walk"])
def test_holevo_rate_against_gram_oracle(kind):
    # pure loss: B-side ensemble is coherent, so the Gram spectrum gives the
    # entropy without any Fock truncation
    Q = make_Q(kind, 3)
    scaled = [P.k * z for z in Q.points]
    expect = coherent_mixture_entropy_gram(scaled, Q.probs)
    r = ensemble_rates(P, Q)
    assert r.classical == pytest.approx(expect, abs=1e-8)
    # at N0 = 0 the environment states are coherent at -sqrt(1-k^2) z too
    h_b = expect
    h_e = coherent_mixture_entropy_gram(
        [-math.sqrt(1.0 - P.k ** 2) * z for z in Q.points], Q.probs)
    assert r.quantum == pytest.approx(h_b - h_e, abs=1e-8)
    assert r.delta_E == pytest.approx(
        g_entropy((1.0 - P.k ** 2) * P.N) - h_e, abs=1e-8)


def test_holevo_rate_below_capacity():
    C = capacity_C(P)
    for kind in ("equilattice", "quantile", "random_walk", "gauss_hermite"):
        for m in (2, 4):
            assert ensemble_rates(P, make_Q(kind, m)).classical < C


def test_capacity_gap_is_delta_B():
    # C - I(Z:B) = g(N') - H(rho_B) by construction; checks plumbing across
    # modules rather than a new fact
    Q = make_Q("gauss_hermite", 4)
    gap = capacity_C(P) - ensemble_rates(P, Q).classical
    ef, rf = delta_B(P, Q)
    assert gap == pytest.approx(ef, abs=1e-10)
    assert ef == pytest.approx(rf, abs=1e-6)


def test_quantum_gap_identity():
    Q = make_Q("random_walk", 4)
    r = ensemble_rates(P, Q)
    gap = gaussian_rate_limit(P) - r.quantum
    ef, _ = delta_B(P, Q)
    assert gap == pytest.approx(ef - r.delta_E, abs=1e-9)


def test_delta_E_nonnegative():
    for kind in ("equilattice", "gauss_hermite"):
        assert ensemble_rates(P, make_Q(kind, 3)).delta_E >= -1e-9


def test_delta_E_vanishes_only_with_noisy_environment():
    # pure loss leaves coherent (pure-ensemble) environment states whose
    # average still has positive entropy, so delta_E > 0 here
    assert ensemble_rates(P, make_Q("equilattice", 3)).delta_E > 1e-3


def test_ensemble_average_state_trace():
    e = build_ensemble(P, make_Q("quantile", 3), "B")
    rho = ensemble_average_state(e)
    deficit = 1.0 - np.trace(rho.matrix).real
    assert 0.0 <= deficit < 1e-8


@pytest.mark.parametrize("n0", [0.0, 0.5])
def test_ensemble_average_state_is_exactly_hermitian(n0):
    # width 0 (coherent columns) and width > 0 (displaced thermal states)
    p = channel_params(0.8, n0, 7.0)
    e = build_ensemble(p, make_Q("equilattice", 3, p), "B")
    assert (e.width > 0.0) == (n0 > 0.0)
    rho = ensemble_average_state(e)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def test_thermal_environment_rates_finite():
    p = channel_params(0.7, 1.0, 3.0)
    Q = make_Q("equilattice", 2, p)
    rates = ensemble_rates(p, Q)
    assert 0.0 < rates.classical < capacity_C(p)
    assert rates.quantum <= rates.classical + 1e-9


# ------------------------------------------- shared Laguerre tables by radius

P_THERMAL = channel_params(0.8, 0.5, 7.0)


def _unshared_average_state(e, dim):
    """Test-local oracle: one displaced_thermal per point, each building its
    own Laguerre table, summed and Hermitized in the library's order."""
    mat = np.zeros((dim, dim), dtype=complex)
    for q, z in zip(e.probs, e.centers):
        mat += q * displaced_thermal(z, e.width, dim).matrix
    return (mat + mat.conj().T) / 2.0


def _assert_bitwise_equal(a, b):
    # uint64 views compare every bit, signed zeros included
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _count_table_builds(monkeypatch):
    """Rebind the Laguerre-table builder under every name the package looks
    it up by, to a wrapper that records each build's radius."""
    original = fock._laguerre_table
    radii = []

    def counting(r, dim):
        radii.append(r)
        return original(r, dim)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "thermalcomm":
            continue
        for attr, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, attr, counting)
    return radii


@pytest.mark.parametrize("kind", ["equilattice", "quantile", "random_walk",
                                  "gauss_hermite"])
def test_shared_tables_match_unshared_oracle_bitwise(kind):
    for m in range(2, 9):
        Q = make_Q(kind, m, P_THERMAL)
        for side in ("B", "E"):
            e = build_ensemble(P_THERMAL, Q, side)
            rho = ensemble_average_state(e)
            _assert_bitwise_equal(rho.matrix,
                                  _unshared_average_state(e, rho.dim))


def test_shared_tables_bitwise_on_distinct_radii_and_on_one_ring():
    width = 0.3
    distinct = [0.4 + 0.1j, -1.3j, 2.2 - 0.7j, 0.0j, 1.7]
    a, b = 1.1, 0.6
    ring = [a + b * 1j, -a + b * 1j, a - b * 1j, -a - b * 1j,
            b + a * 1j, -b + a * 1j, b - a * 1j, -b - a * 1j]
    assert len({abs(z) for z in distinct}) == len(distinct)
    assert len({abs(z) for z in ring}) == 1
    for points in (distinct, ring):
        q = np.full(len(points), 1.0 / len(points))
        e = Ensemble(probs=q, centers=np.array(points, dtype=complex),
                     width=width)
        rho = ensemble_average_state(e, 40)
        _assert_bitwise_equal(rho.matrix, _unshared_average_state(e, 40))


def test_one_table_build_per_distinct_radius_per_call(monkeypatch):
    e = build_ensemble(P_THERMAL, make_Q("equilattice", 8, P_THERMAL), "B")
    nonzero_radii = {abs(z) for z in e.centers} - {0.0}
    # delta (0.5, 3.5) and delta (2.5, 2.5) share a radius exactly
    assert len(nonzero_radii) == 9
    builds = _count_table_builds(monkeypatch)
    ensemble_average_state(e)
    assert sorted(builds) == sorted(nonzero_radii)
    # no table survives the call: a repeat builds every radius again
    ensemble_average_state(e)
    assert len(builds) == 18


@pytest.mark.parametrize("kind", ["equilattice", "gauss_hermite"])
def test_displacements_receive_numpy_complex_centers(kind, monkeypatch):
    # displacement_operator's phase division and integer powers run as
    # np.complex128 scalar arithmetic on the rates path, and the pinned
    # thermal rates depend on those bits; a Python complex would change them
    alpha_types = []
    build = fock.displacement_operator

    def spy(alpha, dim, **kw):
        alpha_types.append(type(alpha))
        return build(alpha, dim, **kw)

    monkeypatch.setattr(fock, "displacement_operator", spy)
    Q = make_Q(kind, 3, P_THERMAL)
    ensemble_rates(P_THERMAL, Q)
    assert len(alpha_types) == 2 * len(Q.points)  # every point, B and E
    assert set(alpha_types) == {np.complex128}
