"""Channel-output ensembles over a constellation and the resulting rates.

Ensemble average states are assembled in truncated Fock space; conditional
entropies are evaluated analytically (every conditional output is a displaced
thermal state of the same width, hence the same entropy g(width)), so only
the mixture entropy needs an eigendecomposition.

The truncation rule lives in two functions: ``ensemble_dim`` sizes and caps
every average state (``dim`` when given, else the default; at least 1, at
most ``MAX_DIM``), and ``ensemble_average_state``, which every rate goes
through, refuses a state whose trace deficit exceeds ``TRUNCATION_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, g_entropy
from .constellations import ComplexConstellation
from .errors import TruncationError
from .fock import (DensityOperator, _mixture, default_dim, relative_entropy,
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
    number ``width``, one probability per center."""

    probs: np.ndarray
    centers: np.ndarray
    width: float

    def __post_init__(self):
        if len(self.probs) != len(self.centers):
            raise ValueError(f"{len(self.probs)} probabilities for "
                             f"{len(self.centers)} centers")


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


def ensemble_dim(e: Ensemble, dim: int | None = None) -> int:
    """The truncation dimension the ensemble's average state is built at:
    ``dim`` when given, else a conservative default from the largest
    center and the width.  Raises ``ValueError`` below 1 and
    ``TruncationError`` above ``MAX_DIM``; builds no state, so a table can
    check every row first."""
    if dim is None:
        dim = default_dim(np.max(np.abs(e.centers) ** 2) + e.width)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise TruncationError(f"state needs dim {dim}, above the largest "
                              f"supported {MAX_DIM}")
    return dim


def ensemble_average_state(e: Ensemble, dim: int | None = None) -> DensityOperator:
    """sum_j q_j theta_j at ``ensemble_dim(e, dim)``, assembled by
    ``fock._mixture``; raises ``TruncationError`` when its trace deficit
    exceeds ``TRUNCATION_TOL``."""
    rho = _mixture(e.probs, e.centers, e.width, ensemble_dim(e, dim))
    if rho.trace_deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"trace deficit {rho.trace_deficit:.3g} exceeds "
            f"{TRUNCATION_TOL:g} at dim {rho.dim}; raise the dimension")
    return rho


def ensemble_rates(p: ChannelParams, Q: ComplexConstellation,
                   dim: int | None = None) -> EnsembleRates:
    """All rate quantities from one average state and one eigensolve per
    side: the classical rate I(Z_m : B_m) = H(rho_m^B) - g(Nc), the quantum
    rate I(Z_m : B) - I(Z_m : E), and the gaps g(N') - H(rho_m^B) and
    g(N'_E) - H(rho_m^E).  Each side's state comes from
    ``ensemble_average_state`` at ``dim`` (or its default), so a dimension
    above ``MAX_DIM`` or a deficit above ``TRUNCATION_TOL`` on either side
    raises ``TruncationError``.  The result's ``dim`` is the B-side
    dimension and ``trace_deficit`` the larger of the two deficits."""
    rho_b = ensemble_average_state(build_ensemble(p, Q, "B"), dim)
    rho_e = ensemble_average_state(build_ensemble(p, Q, "E"), dim)
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
    truncation error.  The state comes from ``ensemble_average_state``,
    which sizes, caps and deficit-checks it."""
    rho = ensemble_average_state(build_ensemble(p, Q, "B"), dim)
    entropy_form = g_entropy(p.Nprime) - von_neumann_entropy(rho)
    tau = thermal_state(p.Nprime, rho.dim)
    relent_form = relative_entropy(rho, tau)
    return entropy_form, relent_form
