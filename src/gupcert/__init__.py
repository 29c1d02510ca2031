"""Numerical certification of entropic uncertainty relations with a minimal
observable length.

The deformed commutator [a, k] = i (1 + beta k^2) makes the physical
wavenumber density a pushforward of an auxiliary density living on a compact
interval.  This package builds the three densities of a state (auxiliary,
position, physical), evaluates Shannon, Renyi and Tsallis entropies with and
without finite-resolution smearing and binning, and certifies every
uncertainty relation of the formalism by reporting signed margins.
"""

from .core import (CATALOG_NAMES, DensityFn, DiscreteDist, Domain, Grid,
                   MinLengthParams, MixedState, MomentEstimate, OrderPair,
                   PureState, as_mixed, catalog_state, make_params, mix_states,
                   moment, normalize, rebuild_state)
from .entropy import (BinnedSums, DensityCdf, EntropyValue, RandomEdges,
                      alpha_log, alpha_norm, bin_density, bin_pair,
                      binned_sums, density_cdf, diff_renyi, diff_shannon,
                      discrete_norm, discrete_renyi, discrete_renyi_and_norm,
                      discrete_tsallis, mc_diff_shannon, random_edges,
                      renyi_and_norm)
from .errors import (ConfigError, ContractError, DegenerateStateError,
                     DomainError, GupcertError, InvalidParameterError,
                     MomentDivergenceError, NormDivergenceError,
                     ResolutionError)
from .measurement import (AcceptanceFn, GaussianAcceptance, TableAcceptance,
                          custom_acceptance, gaussian_acceptance, j_profile,
                          s_f, s_f_gaussian_bound, smear)
from .relations import (LN_E_PI, LinearizationReport, RelationReport,
                        check_bbm_corrected, check_beckner, check_binned_shannon,
                        check_binning_lemma, check_correction_term,
                        check_jensen, check_kappa, check_norm_ordering,
                        check_renyi_binned, check_renyi_smeared,
                        check_sf_bounds, check_smeared_shannon,
                        check_tsallis_binned,
                        conjugate_order, correction_linearization_check,
                        correction_term, kappa, robertson_margin)
from .transform import (RepresentationBundle, bundle, density_q_to_k,
                        fourier_q_to_x, fourier_x_to_q, jacobian, k_of_q,
                        q_density, q_of_k, x_density)

__version__ = "0.1.0"
