"""Hilbert projective metric on symmetric cones, with fixed-point solvers.

Three concrete Euclidean Jordan algebra families back the cone geometry
(positive orthant, positive definite symmetric matrices, Lorentz cone);
on top of them sit the Hilbert metric with independent cross-checking
oracles, metric-contraction measurement for cone maps, and a Banach
iteration solving g(x) = x^p for |p| > 1, including Bushell's matrix
equation t' A t = A^(2^k).
"""

from .algebra import (
    AlgebraDescriptor,
    Element,
    SpectralDecomposition,
    det,
    eigenvalues,
    in_cone,
    lambda_min,
    normalize,
    orthant,
    power,
    product,
    quad,
    spectral_decompose,
    spectral_norm,
    spin_factor,
    sym_matrix,
    tr,
    trace_inner,
)
from .errors import (
    AlgebraMismatch,
    EigensolverFailure,
    InvalidGenerator,
    MapLeftCone,
    NonConvergence,
    NotInCone,
    SingularMatrix,
    SymConeError,
)
from .metric import (
    MetricReport,
    distance,
    lambda_extremes,
    rayleigh_oracle,
    upper_bound_oracle,
)
from .rng import SplitMix64
from .solver import (
    SolveConfig,
    SolveReport,
    solve,
    solve_bushell,
)
from .transforms import (
    AutomorphismWord,
    Congruence,
    ContractionReport,
    Permutation,
    Quad,
    Scalar,
    apply,
    measure_contractions,
    random_cone_element,
    random_word,
)

__version__ = "0.1.0"
