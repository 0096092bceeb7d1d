"""symvar: symmetrization-aware variational principles on finite grids.

The toolkit discretizes the Banach triple X ⊆ V ⊆ W on uniform symmetric
grids, implements polarization / Schwarz rearrangement / the iterated-
polarization approximation of the symmetrization map, and turns the
symmetric variational principles (Ekeland in five variants, Borwein-Preiss,
Zhong weights, Deville-Godefroy-Zizler checking, constrained and path-space
minimax forms) into machine-checkable certificates, with application
experiments for PDE energies, fixed points and drop/petal geometry.
"""

from .errors import (AssumptionViolated, BadStart, ConfigError,
                     ConstraintDegeneracy, ConvergenceFailure,
                     DivergenceAssumptionViolated, IntegrandError,
                     InvalidArgument, InvalidEpsilon, InvalidExponent, InvalidGrid,
                     NoMountainPass, NotBoundedBelow, NotSymmetricInput,
                     OutsideDomain, SeparationViolated, SpaceMismatch,
                     SymmetryViolation, SymvarError)
from .funcspace import (Functional, GridFunction, GridSpace,
                        function_from_json, function_to_json, gram_matrix,
                        laplacian_matrix, make_grid, norm_Lr, norm_V, norm_W,
                        norm_X, riesz_from_euclidean, theta)
from .rearrange import (Polarizer, approx_symmetrize, build_polarizer_family,
                        is_family_fixed, polarize, polarizer_sequence_json,
                        schwarz, schwarz_order)
from .slopes import QEstimate, SlopeEstimate, q_form, strong_slope
from .principles import (Certificate, QBoundReport, SetOracle,
                         ViolationReport, box_set, bump_perturbation,
                         constrained_symmetric_ekeland, dgz_check,
                         ekeland_point, estimate_inf, nonneg_cone,
                         path_minimax, sqps_sequence, symmetric_borwein_preiss,
                         symmetric_ekeland, symmetric_zhong, verify_certificate,
                         whole_space, zhong_radius)
from .applications import (Ball, Drop, Petal, QuasilinearIntegrand,
                           SemilinearNonlinearity, caristi_fixed_point,
                           clarke_fixed_point, dirichlet_integrand,
                           drop_membership, dual_norm,
                           forced_dirichlet_integrand, lower_derivative,
                           petal_inclusions, petal_membership,
                           quasilinear_energy, quasilinear_experiment,
                           quasilinear_functional, quasilinear_residual,
                           semilinear_experiment, semilinear_functional,
                           symmetric_drop_point, symmetric_petal_point)

__version__ = "0.1.0"
