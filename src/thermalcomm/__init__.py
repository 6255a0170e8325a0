"""Coherent-state constellations, achievable rates, chi-square gap bounds,
and polar-coded classical transmission for single-mode thermal channels."""

__version__ = "0.1.0"

from .channel import (ChannelParams, capacity_C, channel_params, g_entropy,
                      gaussian_rate_limit)
from .constellations import (KINDS, ComplexConstellation, RealConstellation,
                             classical_chi2_kernel, make_constellation,
                             make_equilattice, make_gauss_hermite,
                             make_quantile, make_random_walk,
                             product_constellation)
from .chi2 import delta_B_bound
from .fock import (DensityOperator, coherent_state, default_dim,
                   displaced_thermal, displacement_operator, relative_entropy,
                   thermal_state, von_neumann_entropy)
from .rates import (Ensemble, EnsembleRates, build_ensemble, delta_B,
                    ensemble_average_state, ensemble_rates)
from .polar import (InducedChannel, PolarCode, construct_multilevel,
                    induced_channel, simulate)
