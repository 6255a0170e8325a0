import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermalcomm
from oracles import (_laguerre_table, coherent_mixture_entropy_blocked,
                     coherent_mixture_entropy_gram,
                     relative_entropy_eigh_overlap, unshared_thermal_mixture)
from thermalcomm import (KINDS, Ensemble, build_ensemble, capacity_C, cli,
                         channel_params, coherent_state, delta_B,
                         displaced_thermal, ensemble_average_state,
                         ensemble_rates, fock, g_entropy, gaussian_rate_limit,
                         make_constellation, product_constellation,
                         relative_entropy, thermal_state, von_neumann_entropy)
from thermalcomm.errors import NumericFailure, TruncationError
from thermalcomm.fock import EIG_FLOOR
from thermalcomm.rates import MAX_DIM, TRUNCATION_TOL, ensemble_dim

P = channel_params(0.8, 0.0, 7.0)


def make_Q(kind, m, p=P):
    return product_constellation(make_constellation(kind, m), p.N)


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


def _pure_loss_ensembles():
    """The 120 coherent ensembles of one pure_loss_tables rates pass at
    k = 0.8: four kinds, m = 2..16, B and E sides."""
    return [build_ensemble(P, make_Q(kind, m), side)
            for kind in KINDS for m in range(2, 17) for side in "BE"]


def test_blocked_gram_entropy_matches_the_library_on_pure_loss_states():
    # the quarter-turn blocks of each coherent ensemble's Gram matrix give
    # the spectrum of its untruncated average state, kept above EIG_FLOOR
    # as the library keeps its truncated one's
    ensembles = _pure_loss_ensembles()
    assert len(ensembles) == 120
    worst = max(abs(coherent_mixture_entropy_blocked(e.centers, e.probs)
                    - von_neumann_entropy(ensemble_average_state(e)))
                for e in ensembles)
    assert worst <= 1e-13


def test_blocked_gram_entropy_bits_do_not_depend_on_blas_threads():
    # the blocks are eigensolved at 1 and at 2 OpenBLAS threads, each in
    # its own interpreter, since OpenBLAS reads the count when it loads
    script = ("import json, numpy as np\n"
              "from oracles import coherent_mixture_entropy_blocked\n"
              "from test_rates import _pure_loss_ensembles\n"
              "h = [coherent_mixture_entropy_blocked(e.centers, e.probs)\n"
              "     for e in _pure_loss_ensembles()]\n"
              "print(json.dumps(np.array(h).view(np.uint64).tolist()))\n")
    path = os.pathsep.join([str(Path(thermalcomm.__file__).parent.parent),
                            str(Path(__file__).parent)])
    runs = [subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")]
    outs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    bits = [json.loads(out) for out in outs]
    assert len(bits[0]) == 120 and bits[0] == bits[1]


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


@pytest.mark.parametrize("side", ["b", "BE", ""])
def test_build_ensemble_refuses_a_side_other_than_B_or_E(side):
    with pytest.raises(ValueError, match="side must be 'B' or 'E'"):
        build_ensemble(P, make_Q("equilattice", 2), side)


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


@pytest.mark.parametrize("kind", ["equilattice", "quantile", "random_walk",
                                  "gauss_hermite"])
def test_coherent_columns_match_per_point_stack_bitwise(kind):
    # the width-0 average state from one array call equals the one built
    # from a column per scalar call, on both sides, up to dim 330
    for m in (2, 9, 16):
        Q = make_Q(kind, m)
        for side in ("B", "E"):
            e = build_ensemble(P, Q, side)
            rho = ensemble_average_state(e)
            cols = np.stack([np.sqrt(q) * coherent_state(z, rho.dim)
                             for q, z in zip(e.probs, e.centers)], axis=1)
            mat = cols @ cols.conj().T
            _assert_bitwise_equal(rho.matrix, (mat + mat.conj().T) / 2.0)


@pytest.mark.parametrize("kind", ["equilattice", "quantile", "random_walk",
                                  "gauss_hermite"])
def test_relative_entropy_matches_overlap_oracle_on_delta_B_states(kind):
    # the states delta_B compares: rho_m^B against tau_N' at rho's dim
    for p, m in ((P, 2), (P, 7), (P, 16), (P_THERMAL, 3)):
        rho = ensemble_average_state(build_ensemble(p, make_Q(kind, m, p), "B"))
        tau = thermal_state(p.Nprime, rho.dim)
        assert relative_entropy(rho, tau) == pytest.approx(
            relative_entropy_eigh_overlap(rho, tau), abs=1e-10)


def _count_linalg(monkeypatch, name):
    """Rebind ``np.linalg.<name>`` to a wrapper that records each call."""
    fn, calls = getattr(np.linalg, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _is_jacobi_matrix(a):
    """Whether ``a`` is the Gauss-Hermite Jacobi matrix of its size, the one
    eigh argument a constellation build passes."""
    m = len(a)
    return np.array_equal(a, np.diag(np.sqrt(np.arange(1.0, m)), -1))


@pytest.mark.parametrize("kind", ["equilattice", "quantile", "random_walk",
                                  "gauss_hermite"])
def test_relative_entropy_reads_diagonal_tau_bitwise(kind, monkeypatch):
    # tau_N' is diagonal, so its eigenpairs are read off the diagonal with
    # no eigh call, and the value equals the eigh form bit for bit; the
    # Gauss-Hermite constellations, which eigensolve, are built first
    eigh = np.linalg.eigh
    cases = [(p, make_Q(kind, m, p))
             for p, m in ((P, 2), (P, 7), (P, 16), (P_THERMAL, 3))]
    calls = _count_linalg(monkeypatch, "eigh")
    for p, Q in cases:
        rho = ensemble_average_state(build_ensemble(p, Q, "B"))
        tau = thermal_state(p.Nprime, rho.dim)
        lam, V = eigh(tau.matrix)
        w = np.einsum("ij,ij->j", V.conj(), rho.matrix @ V).real
        keep = lam > EIG_FLOOR
        want = -von_neumann_entropy(rho) - float(w[keep] @ np.log2(lam[keep]))
        _assert_bitwise_equal(np.array([relative_entropy(rho, tau)]),
                              np.array([want]))
    assert calls == []


def test_tables_take_one_spectrum_per_state(monkeypatch, capsys):
    # a chi2 row's delta_B takes rho's spectrum once, for both of its forms,
    # and eigensolves no tau_N'; a rates row takes one spectrum per side.
    # The only eigh calls are the Gauss-Hermite builds' Jacobi matrices.
    eigvalsh = _count_linalg(monkeypatch, "eigvalsh")
    eigh = _count_linalg(monkeypatch, "eigh")
    assert cli.main(["chi2", "--m-max", "4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 12
    assert len(eigvalsh) == 12
    assert eigh and all(_is_jacobi_matrix(a) for a, *_ in eigh)
    eigh.clear()
    assert cli.main(["rates", "--m-max", "4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert sum(row["m"] is not None for row in rows) == 12
    assert len(eigvalsh) == 12 + 2 * 12
    assert eigh and all(_is_jacobi_matrix(a) for a, *_ in eigh)


def test_thermal_environment_rates_finite():
    p = channel_params(0.7, 1.0, 3.0)
    Q = make_Q("equilattice", 2, p)
    rates = ensemble_rates(p, Q)
    assert 0.0 < rates.classical < capacity_C(p)
    assert rates.quantum <= rates.classical + 1e-9


# ------------------------------------------- shared Laguerre tables by radius

P_THERMAL = channel_params(0.8, 0.5, 7.0)


def _unshared_average_state(e, dim):
    """Test-local oracle: one displaced_thermal per point, each on the
    library's layout with its own table from the per-radius Laguerre
    oracle, summed and Hermitized in the library's order."""
    layout = fock._make_basis(dim, [])
    mat = np.zeros((dim, dim), dtype=complex)
    for q, z in zip(e.probs, e.centers):
        tables = {abs(z): _laguerre_table(abs(z), dim)} if z != 0 else {}
        basis = layout._replace(tables=tables)
        mat += q * displaced_thermal(z, e.width, dim, _basis=basis).matrix
    return (mat + mat.conj().T) / 2.0


def _assert_bitwise_equal(a, b):
    # uint64 views compare every bit, signed zeros included
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _record_calls(monkeypatch, fn):
    """Rebind ``fn`` under every name the package looks it up by, to a
    wrapper that records each call's positional arguments."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "thermalcomm":
            continue
        for attr, obj in list(vars(module).items()):
            if obj is fn:
                monkeypatch.setattr(module, attr, recording)
    return calls


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


_Z = 1.1 + 0.6j


# Ensembles no product constellation produces, with the number of states
# each must build: a non-real center reuses the state an earlier conjugate
# held for it, and every other center is built.  Dim 120 is past numpy's
# switch from repeated squaring to exp-log complex powers, where a negative
# real center's conjugate state differs from its state's conjugate.
@pytest.mark.parametrize("centers, builds", [
    ([_Z, _Z, _Z.conjugate(), _Z.conjugate(), _Z], 3),
    ([_Z, -0.4 + 1.2j, 0.7], 3),
    ([_Z.conjugate(), 0.3, _Z], 2),
    ([0j, _Z, 0j, _Z.conjugate()], 3),
    ([0j, 0j], 2),
    ([complex(-0.7, 0.0), complex(-0.7, -0.0)], 2),
    ([complex(0.0, 0.8), complex(-0.0, -0.8)], 1),
], ids=["duplicates", "no_conjugate", "conjugate_earlier", "zero_center",
        "only_zero_centers", "real_minus_zero_imag", "signed_zero_real"])
def test_conjugate_sharing_bitwise_on_irregular_ensembles(centers, builds,
                                                          monkeypatch):
    e = Ensemble(probs=np.full(len(centers), 1.0 / len(centers)),
                 centers=np.array(centers, dtype=complex), width=0.4)
    thermals = _record_calls(monkeypatch, fock.displaced_thermal)
    rho = ensemble_average_state(e, 120)
    assert len(thermals) == builds
    _assert_bitwise_equal(rho.matrix, _unshared_average_state(e, 120))


# Ensembles with the number of states each builds at dim <= 100, where a
# built state serves the next occurrence of each other center of its orbit
# {z, conj z, -z, -conj z}, and above, where numpy's exp-log powers break
# the parity share and only non-real conjugates share.  The origin never
# shares, a real center shares only by parity, and a repeat of a built
# center is built again.
@pytest.mark.parametrize("centers, orbit_builds, conjugate_builds", [
    ([_Z, _Z.conjugate(), -_Z, -_Z.conjugate()], 1, 2),
    ([-_Z, 0.3, _Z, -0.3], 2, 4),
    ([-_Z.conjugate(), _Z, -_Z, 0.5 - 0.2j], 2, 3),
    ([complex(-0.7, 0.0), 0.7, complex(-0.7, -0.0), 0.7, -1.9], 3, 5),
    ([0j, _Z, 0j, -_Z, 0j], 4, 5),
    ([_Z, _Z, -_Z, _Z.conjugate(), -_Z, _Z], 3, 5),
    ([complex(0.0, 0.8), complex(-0.0, -0.8), complex(0.0, -0.8)], 2, 2),
], ids=["whole_orbit", "minus_z_first", "minus_conjugate_first",
        "negative_reals", "origin", "duplicates", "imaginary_axis"])
@pytest.mark.parametrize("dim", [99, 100, 101, 120])
def test_parity_sharing_bitwise_on_both_sides_of_dim_100(
        centers, orbit_builds, conjugate_builds, dim, monkeypatch):
    probs = np.linspace(1.0, 2.0, len(centers))
    e = Ensemble(probs=probs / probs.sum(),
                 centers=np.array(centers, dtype=complex), width=0.4)
    thermals = _record_calls(monkeypatch, fock.displaced_thermal)
    rho = ensemble_average_state(e, dim)
    assert len(thermals) == (orbit_builds if dim <= 100 else conjugate_builds)
    _assert_bitwise_equal(rho.matrix, unshared_thermal_mixture(
        e.probs, e.centers, e.width, dim))


def test_parity_sharing_past_dim_100_would_change_bits(monkeypatch):
    # the check is what keeps dim 101 exact: shared regardless, -z takes
    # z's state times the checkerboard where numpy's exp-log powers at
    # d = 100 no longer flip sign exactly, and the bits move
    e = Ensemble(probs=np.full(4, 0.25), width=0.4, centers=np.array(
        [_Z, -_Z, complex(-0.7, 0.0), 0.7]))
    monkeypatch.setattr(fock, "_parity_holds", lambda z, dim: True)
    rho = ensemble_average_state(e, 101)
    want = unshared_thermal_mixture(e.probs, e.centers, e.width, 101)
    assert not np.array_equal(rho.matrix.view(np.uint64),
                              want.view(np.uint64))


@pytest.mark.parametrize("n0", [0.46, 0.54])
@pytest.mark.parametrize("kind", ["equilattice", "quantile", "random_walk",
                                  "gauss_hermite"])
def test_thermal_average_state_sums_standalone_states_bitwise(kind, n0):
    # the layout, weights and tables one call shares must give each center
    # the bits of its own public displaced_thermal call, summed in order
    p = channel_params(0.8, n0, 7.0)
    for m in (2, 5, 8):
        Q = make_Q(kind, m, p)
        for side in ("B", "E"):
            e = build_ensemble(p, Q, side)
            rho = ensemble_average_state(e)
            _assert_bitwise_equal(rho.matrix, unshared_thermal_mixture(
                e.probs, e.centers, e.width, rho.dim))


def test_thermal_build_takes_one_layout_and_no_thermal_state(monkeypatch):
    e = build_ensemble(P_THERMAL, make_Q("equilattice", 8, P_THERMAL), "B")
    layouts = []
    tril_indices = np.tril_indices

    def counting(*args, **kwargs):
        layouts.append(args)
        return tril_indices(*args, **kwargs)

    monkeypatch.setattr(np, "tril_indices", counting)
    states = _record_calls(monkeypatch, fock.thermal_state)
    thermals = _record_calls(monkeypatch, fock.displaced_thermal)
    rho = ensemble_average_state(e)
    assert len(thermals) > 1
    assert layouts == [(rho.dim,)]
    # each center's weights come from the O(D) diagonal, not a D x D state
    assert states == []


def test_fock_has_one_private_seam():
    # the average-state build lives in fock behind _mixture; its displacements
    # share what they share through one private keyword, _basis
    import ast
    import inspect

    from thermalcomm import rates
    for fn in (fock.displacement_operator, fock.displaced_thermal):
        private = [name for name in inspect.signature(fn).parameters
                   if name.startswith("_")]
        assert private == ["_basis"], fn.__name__
    tree = ast.parse(inspect.getsource(rates))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "fock"
                for alias in node.names]
    assert [name for name in imported if name.startswith("_")] == ["_mixture"]


@pytest.mark.parametrize("width", [0.0, 0.4])
@pytest.mark.parametrize("probs, centers", [
    ([1.0], [0.5, -0.5]), ([0.5, 0.5], [0.5])])
def test_ensemble_needs_one_probability_per_center(probs, centers, width):
    with pytest.raises(ValueError, match=f"{len(probs)} probabilities for "
                                         f"{len(centers)} centers"):
        Ensemble(np.array(probs), np.array(centers, dtype=complex), width)


def test_one_table_build_per_distinct_radius_per_call(monkeypatch):
    e = build_ensemble(P_THERMAL, make_Q("equilattice", 8, P_THERMAL), "B")
    nonzero_radii = {abs(z) for z in e.centers} - {0.0}
    # delta (0.5, 3.5) and delta (2.5, 2.5) share a radius exactly
    assert len(nonzero_radii) == 9
    builds = _record_calls(monkeypatch, fock._laguerre_tables)
    ensemble_average_state(e)
    # one batched recurrence per call, over each distinct radius once
    assert len(builds) == 1
    assert sorted(builds[0][0]) == sorted(nonzero_radii)
    # no table survives the call: a repeat builds every radius again
    ensemble_average_state(e)
    assert len(builds) == 2
    assert sorted(builds[1][0]) == sorted(nonzero_radii)


@pytest.mark.parametrize("kind", ["equilattice", "gauss_hermite"])
def test_displacements_receive_numpy_complex_centers(kind, monkeypatch):
    # the rates path hands displacement_operator its ensembles' numpy
    # complex centers, the type the operator takes every alpha as, once
    # per center an earlier center of its orbit did not lend its state
    alpha_types = []
    build = fock.displacement_operator

    def spy(alpha, dim, **kw):
        alpha_types.append(type(alpha))
        return build(alpha, dim, **kw)

    monkeypatch.setattr(fock, "displacement_operator", spy)
    Q = make_Q(kind, 3, P_THERMAL)
    ensemble_rates(P_THERMAL, Q)
    # every point on both sides, but for those an earlier center of their
    # orbit lent its state: a conjugate if non-real, and at these dims, all
    # at most 100, a nonzero center's -z or -conj z
    def lenders(z):
        return ([z.conjugate()] if z.imag != 0.0 else []) + (
            [-z, -z.conjugate()] if z != 0 else [])

    expected = 0
    for side in ("B", "E"):
        e = build_ensemble(P_THERMAL, Q, side)
        assert ensemble_dim(e) <= 100
        centers = list(e.centers)
        expected += sum(not any(w in centers[:j] for w in lenders(z))
                        for j, z in enumerate(centers))
    assert len(alpha_types) == expected < 2 * len(Q.points)
    assert set(alpha_types) == {np.complex128}


def test_thermal_rates_pass_builds_543_states(monkeypatch, capsys):
    # one pass of the benchmark's thermal_rates workload at N0 = 0.5: 1,624
    # points over both sides, less the 1,081 that reuse a state of their
    # orbit {z, conj z, -z, -conj z} (conjugates only, past dim 100)
    thermals = _record_calls(monkeypatch, fock.displaced_thermal)
    displacements = _record_calls(monkeypatch, fock.displacement_operator)
    assert cli.main(["rates", "--n0", "0.5", "--m-max", "8"]) == 0
    assert len(thermals) == len(displacements) == 543


def test_pure_loss_tables_pass_builds_one_coherent_array_per_ensemble(
        monkeypatch, capsys):
    # one pass of the benchmark's pure_loss_tables workload at k = 0.8:
    # each zero-width ensemble, B and E for rates and B for chi2, is one
    # coherent_state call over all of its 17,940 points
    calls = _record_calls(monkeypatch, fock.coherent_state)
    assert cli.main(["rates", "--k", "0.8", "--m-max", "16"]) == 0
    assert len(calls) == 120
    assert cli.main(["chi2", "--m-max", "16"]) == 0
    assert len(calls) == 180
    assert sum(np.size(args[0]) for args in calls) == 17_940


def test_overflowing_coherent_average_state_is_a_numeric_failure():
    # coherent_state's running product overflows past |z|^2 of about 1,424,
    # at a dimension MAX_DIM admits; a library caller gets the typed error
    e = Ensemble(probs=np.array([1.0]), centers=np.array([38.0 + 0j]),
                 width=0.0)
    dim = ensemble_dim(e)
    assert dim <= MAX_DIM
    with np.errstate(all="ignore"), pytest.raises(NumericFailure):
        ensemble_average_state(e, dim)


def _refuse_builds(monkeypatch):
    from thermalcomm import rates

    def build(*args):
        raise AssertionError("an average state was built")

    monkeypatch.setattr(rates, "_mixture", build)


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2500])
def test_average_state_above_max_dim_is_refused_before_any_build(
        monkeypatch, dim):
    # the equilattice m = 2 B state at k = 0.8, N = 7 defaults to dim 44;
    # an explicit dimension above the cap allocates nothing
    e = build_ensemble(P, make_Q("equilattice", 2), "B")
    assert ensemble_dim(e) == 44
    _refuse_builds(monkeypatch)
    assert ensemble_dim(e, MAX_DIM) == MAX_DIM
    with pytest.raises(TruncationError, match=f"needs dim {dim}, above"):
        ensemble_dim(e, dim)
    with pytest.raises(TruncationError, match=f"needs dim {dim}, above"):
        ensemble_average_state(e, dim)


@pytest.mark.parametrize("dim", [0, -3])
def test_dimension_below_one_is_refused_before_any_build(monkeypatch, dim):
    e = build_ensemble(P, make_Q("equilattice", 2), "B")
    _refuse_builds(monkeypatch)
    for fn in (ensemble_dim, ensemble_average_state):
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            fn(e, dim)


@pytest.mark.filterwarnings("ignore::thermalcomm.errors.TruncationWarning")
@pytest.mark.parametrize("m", [2, 3])
def test_average_state_with_too_large_a_deficit_is_refused(m):
    # rates --dim 5 --m-max 3 --kinds equilattice: at dim 5 the B state
    # loses almost half its trace, and the public build says so
    e = build_ensemble(P, make_Q("equilattice", m), "B")
    with pytest.raises(TruncationError, match="trace deficit 0.4"):
        ensemble_average_state(e, 5)
    assert ensemble_average_state(e).trace_deficit <= TRUNCATION_TOL
