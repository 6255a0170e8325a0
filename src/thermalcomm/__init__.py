"""Coherent-state constellations, achievable rates, chi-square gap bounds,
and polar-coded classical transmission for single-mode thermal channels."""

__version__ = "0.1.0"

from .channel import (ChannelParams, DisplacedThermalSpec, capacity_C,
                      channel_params, g_entropy, gaussian_rate_limit,
                      output_state_B, output_state_E)
from .constellations import (KINDS, ComplexConstellation, RealConstellation,
                             classical_chi2_kernel, classical_chi2_series,
                             hermite_moment, make_constellation,
                             make_equilattice, make_gauss_hermite,
                             make_quantile, make_random_walk,
                             product_constellation)
from .chi2 import (delta_B_bound, kernel_C, kernel_K, kernel_R,
                   quantum_chi2_constellation)
from .fock import (DensityOperator, annihilation_matrix, coherent_state,
                   default_dim, displaced_thermal, displacement_operator,
                   quantum_chi2_direct, relative_entropy, thermal_state,
                   von_neumann_entropy)
from .rates import (Ensemble, EnsembleRates, build_ensemble, build_xi,
                    delta_B, delta_E, ensemble_average_state, ensemble_rates,
                    holevo_rate, quantum_rate, xi_index_marginal,
                    xi_mode_marginal)
from .polar import (InducedChannel, PolarCode, bec_bhattacharyya,
                    bec_frozen_set, construct_code, construct_multilevel,
                    induced_channel, polar_transform, sc_decode, simulate)
