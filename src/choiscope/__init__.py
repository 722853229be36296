"""choiscope: the calculus of quantum operations as matrices.

Vectorization and realignment reshaping, Kraus/Liouville/Choi
conversions with validation, channel algebra, superoperator bases, and
best separable approximations of states and operations.
"""

from .bsa import (BsaDecomposition, OperationBsa, ProductVector,
                  SeparabilityVerdict, bipartite_choi, bsa_operation,
                  bsa_state, candidate_products, is_separable_operation,
                  kraus_factor_split, max_lambda, max_lambda_bisection,
                  max_pair, osa_fixed_set)
from .channels import (Channel, ValidationReport, apply, choi_to_kraus,
                       choi_to_liouville, compose, compose_choi, dual,
                       identity_channel, kraus_to_liouville,
                       liouville_to_choi, mix, tensor_channels,
                       transpose_channel, validate)
from .errors import (CandidateOutsideRange, ChoiscopeError,
                     DimensionMismatch, InvalidArgument, NonConvergence, NonFinite,
                     NonSquareSubsystems, NotAState,
                     NotCompletelyPositive, NotHermitian, NotOrthonormal,
                     NotPsd, ParseError, ShapeMismatch, ZeroMatrix)
from .generators import (depolarizing_channel, random_cp_channel,
                         random_state, random_product_mixture,
                         swap_channel, werner_state)
from .numerics import (DEFAULT_TOL, StateReport, Tolerance, frobenius_norm,
                       hs_inner, is_psd, min_eigenvalue, pseudo_inverse,
                       svd_rank, validate_state)
from .reshape import (BipartiteShape, devectorize, flip, middle_swap,
                      partial_trace_A, partial_trace_B, partial_transpose,
                      product_factorize, realign, realign_inverse,
                      realign_prime, swap_operator, tensor, tensor_vectors,
                      vectorize)
from .superop_space import (OperatorBasis, SuperopCoeffs, coefficients,
                            convert_coeffs, delta_liouville,
                            elementary_basis, lambda_iso, rotated_basis,
                            superop_inner, theta_liouville)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
