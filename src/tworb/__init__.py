"""Exact combinatorics of twisted nilpotent orbits for GL_n over E/F.

Convention used throughout: a sigma-linear endomorphism of E^n is stored
as an n x n matrix Y over E acting by v -> Y * sigma(v).  Twisted powers
are the alternating products Y sigma(Y) Y ..., the twisted action of the
group is (h, Y) -> h Y sigma(h)^-1, and its differential in Z is
Z Y - Y sigma(Z).  All reported dimensions are over the base field F.
"""

from .fields import (ExtElement, FieldModelError, NotPrime,
                     QuadraticExtensionModel, RadicandIsSquare,
                     make_extension, norm, sigma)
from .linalg import (FLinearSystem, NotNilpotent, SingularMatrix, TwistedEndo,
                     is_nilpotent, sigma_conjugate,
                     twisted_bracket, twisted_power)
from .orbits import (BudgetExceeded, JordanType, OrbitInvariants,
                     centralizer_dim_oracle, check_dimHY, enumerate_orbits,
                     jordan_type_of, orbit_census, orbit_dimension,
                     standard_representative)
from .parabolic import (AdaptedParabolic, BadComposition, GenericityFailure,
                        ParabolicShape, ShapeMismatch, SupportViolation,
                        adapted_parabolic, flag_fixed_count, induce_orbit,
                        n_x_dim_oracle, rank_criterion, standard_parabolic,
                        verify_porb)
from .ratfun import (BivariateRationalFunction, FactoredRationalFunction,
                     NonUnitDenominator)
from .zeta import (ExponentTable, delta_matrix, exponent_table,
                   homogeneity_identity_check, igusa_matrix_factor,
                   local_zeta_model, scaling_exponent_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
