"""Channel-output ensembles over a constellation and the resulting rates.

Ensemble average states are assembled in truncated Fock space; conditional
entropies are evaluated analytically (every conditional output is a displaced
thermal state of the same width, hence the same entropy g(width)), so only
the mixture entropy needs an eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, g_entropy
from .constellations import ComplexConstellation
from .errors import TruncationError
from .fock import (DensityOperator, _density_operator, _laguerre_tables,
                   _thermal_weights, _tril_layout, coherent_state,
                   default_dim, displaced_thermal, relative_entropy,
                   thermal_state, von_neumann_entropy)

# Largest Fock trace deficit a rate is reported at; beyond it the entropies
# of the truncated average state are not to be trusted.
TRUNCATION_TOL = 1e-4

# Largest truncation dimension an average state is built at: one dim x dim
# complex matrix is 64 MB there, and the eigensolve takes seconds.
MAX_DIM = 2000

# Smallest entropy gap g(N') - H(rho), in bits, that the eigensolve
# resolves.  Rounding moves H(rho) by up to ~2e-15 bits (measured by
# rotating average states at dims 29-330 with random unitaries), and each
# eigenvalue under fock.EIG_FLOOR = 1e-14 that the entropy drops carries up
# to 4.7e-13 bits; a smaller gap is noise of either sign.
GAP_RESOLUTION = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability-weighted output ensemble on one side of the channel:
    displaced thermal states at ``centers``, all of thermal mean photon
    number ``width``."""

    probs: np.ndarray
    centers: np.ndarray
    width: float


@dataclass(frozen=True)
class EnsembleRates:
    """Every rate-table quantity of one constellation, in bits per mode."""

    classical: float
    quantum: float
    delta_B: float
    delta_E: float
    dim: int
    trace_deficit: float


def build_ensemble(p: ChannelParams, Q: ComplexConstellation, side: str) -> Ensemble:
    """Map each constellation point z through the channel to the given
    side: "B", the receiver, sees width Nc at k z, and "E", the environment,
    width k^2 N0 at -sqrt(1-k^2) z."""
    if side == "B":
        return Ensemble(Q.probs, p.k * Q.points, p.Nc)
    if side == "E":
        return Ensemble(Q.probs, -math.sqrt(1.0 - p.k * p.k) * Q.points,
                        p.Nc_E)
    raise ValueError(f"side must be 'B' or 'E', got {side!r}")


def ensemble_dim(e: Ensemble) -> int:
    """Conservative truncation dimension for the ensemble average state."""
    return default_dim(np.max(np.abs(e.centers) ** 2) + e.width)


def ensemble_average_state(e: Ensemble, dim: int | None = None) -> DensityOperator:
    """sum_j q_j theta_j at the given truncation dimension.

    The zero-width (coherent) case is assembled directly from the
    amplitude columns of one ``coherent_state`` call over every center.
    Otherwise the call builds once what every center shares: the
    triangle layout of the dimension, the thermal weights of the width,
    and the Laguerre tables of every distinct nonzero |center| from one
    batched recurrence.  A non-real center's conjugate reuses its state
    (the ``fock`` module docstring says why that is exact here).
    A center whose conjugate comes later holds that conjugate state until
    its turn, so the sum keeps its order; a symmetric product
    constellation puts conj z in z's row, so at most floor(m/2) states are
    held at once.  Nothing outlives the call.
    """
    if dim is None:
        dim = ensemble_dim(e)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if e.width == 0.0:
        cols = np.sqrt(e.probs) * coherent_state(e.centers, dim)
        mat = cols @ cols.conj().T
    else:
        layout = _tril_layout(dim)
        weights = _thermal_weights(e.width, dim)
        radii = list({abs(z) for z in e.centers} - {0.0})
        tables = dict(zip(radii, _laguerre_tables(radii, dim, layout)))
        last = {z: j for j, z in enumerate(e.centers)}
        held = {}  # center -> its state, the conjugate of an earlier one's
        mat = np.zeros((dim, dim), dtype=complex)
        for j, (q, z) in enumerate(zip(e.probs, e.centers)):
            state = held.pop(z, None)
            if state is None:
                state = displaced_thermal(
                    z, e.width, dim, _table=tables.get(abs(z)),
                    _layout=layout, _weights=weights).matrix
            if z.imag != 0.0 and last.get(z.conjugate(), -1) > j:
                held[z.conjugate()] = state.conj()
            mat += q * state
    return _density_operator(mat)


def _checked_dim(p: ChannelParams, Q: ComplexConstellation, side: str,
                 dim: int | None) -> tuple[Ensemble, int]:
    """The side's ensemble and its truncation dimension (``dim`` when
    given); raises ``TruncationError`` when the dimension exceeds
    ``MAX_DIM``.  Builds no state, so a table can check every row first."""
    e = build_ensemble(p, Q, side)
    if dim is None:
        dim = ensemble_dim(e)
    if dim > MAX_DIM:
        raise TruncationError(
            f"{side}-side state needs dim {dim}, above the largest "
            f"supported {MAX_DIM}")
    return e, dim


def _checked_average_state(p: ChannelParams, Q: ComplexConstellation,
                           side: str, dim: int | None) -> DensityOperator:
    """The side's ensemble average state; raises ``TruncationError`` when
    its dimension exceeds ``MAX_DIM`` or its trace deficit exceeds
    ``TRUNCATION_TOL``."""
    e, dim = _checked_dim(p, Q, side, dim)
    rho = ensemble_average_state(e, dim)
    if rho.trace_deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"{side}-side trace deficit {rho.trace_deficit:.3g} exceeds "
            f"{TRUNCATION_TOL:g} at dim {rho.dim}; raise the dimension")
    return rho


def ensemble_rates(p: ChannelParams, Q: ComplexConstellation,
                   dim: int | None = None) -> EnsembleRates:
    """All rate quantities from one average state and one eigensolve per
    side: the classical rate I(Z_m : B_m) = H(rho_m^B) - g(Nc), the quantum
    rate I(Z_m : B) - I(Z_m : E), and the gaps g(N') - H(rho_m^B) and
    g(N'_E) - H(rho_m^E).  ``dim`` is the B-side truncation dimension and
    ``trace_deficit`` the larger of the two sides' deficits; a deficit
    above ``TRUNCATION_TOL`` on either side raises ``TruncationError``."""
    rho_b = _checked_average_state(p, Q, "B", dim)
    rho_e = _checked_average_state(p, Q, "E", dim)
    h_b = von_neumann_entropy(rho_b)
    h_e = von_neumann_entropy(rho_e)
    classical = h_b - g_entropy(p.Nc)
    return EnsembleRates(
        classical=classical,
        quantum=classical - (h_e - g_entropy(p.Nc_E)),
        delta_B=g_entropy(p.Nprime) - h_b,
        delta_E=g_entropy(p.Nprime_E) - h_e,
        dim=rho_b.dim,
        trace_deficit=max(rho_b.trace_deficit, rho_e.trace_deficit))


def delta_B(p: ChannelParams, Q: ComplexConstellation,
            dim: int | None = None) -> tuple[float, float]:
    """The B-side gap, both as an entropy difference g(N') - H(rho_m^B) and
    as the relative entropy D(rho_m^B || tau_N'); the two agree up to
    truncation error, whose deficit must be within ``TRUNCATION_TOL``."""
    rho = _checked_average_state(p, Q, "B", dim)
    entropy_form = g_entropy(p.Nprime) - von_neumann_entropy(rho)
    tau = thermal_state(p.Nprime, rho.dim)
    relent_form = relative_entropy(rho, tau)
    return entropy_form, relent_form
