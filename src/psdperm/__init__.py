"""Certified bounds and estimates for permanents of Hermitian PSD matrices.

The package computes a variational upper bound ``exp(Phi(A))`` on the
permanent of a Hermitian positive semidefinite matrix, together with the
matching lower bound ``exp(Phi(A) - gamma*n)``, an entropy-corrected
sandwich that pins ``per(A)`` to within a factor of ``e^{gamma*n}``.
Exact exponential-time oracles and an unbiased Monte Carlo estimator are
included for cross-checking at desk scale.

Typical use::

    from psdperm import bound_permanent, gen_instance, permanent_ryser

    psd = gen_instance(n=8, d=4, seed=1)
    res = bound_permanent(psd.matrix)
    log_per = permanent_ryser(psd.matrix).log_abs
    assert res.log_lower <= log_per <= res.log_upper + 1e-6
"""

from .bound import (
    GAMMA,
    BoundResult,
    PDPoint,
    SolverOptions,
    bound_permanent,
    gradient,
    objective,
    solve,
)
from .errors import (
    BadRankError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotPositiveDefiniteError,
    NotSquareError,
    ParseError,
    PsdPermError,
    ReconstructionError,
    SchemaError,
    TooLargeError,
    ZeroRowError,
)
from .exact import (
    NAIVE_LIMIT,
    RYSER_LIMIT,
    ExactResult,
    permanent_naive,
    permanent_ryser,
)
from .gram import (
    HermitianPSD,
    gram_factor,
    validate_hermitian_psd,
)
from .instances import (
    ENSEMBLES,
    InstanceFile,
    gen_instance,
    parse_instance,
    write_instance,
)
from .montecarlo import (
    EstimateResult,
    MomentAccumulator,
    calibrate_gamma,
    estimate_permanent,
    philox_generator,
    sample_standard_complex_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gram
    "HermitianPSD",
    "validate_hermitian_psd",
    "gram_factor",
    # bound
    "GAMMA",
    "PDPoint",
    "SolverOptions",
    "BoundResult",
    "objective",
    "gradient",
    "solve",
    "bound_permanent",
    # exact
    "NAIVE_LIMIT",
    "RYSER_LIMIT",
    "ExactResult",
    "permanent_naive",
    "permanent_ryser",
    # monte carlo
    "philox_generator",
    "MomentAccumulator",
    "EstimateResult",
    "sample_standard_complex_gaussian",
    "estimate_permanent",
    "calibrate_gamma",
    # instances
    "ENSEMBLES",
    "InstanceFile",
    "gen_instance",
    "parse_instance",
    "write_instance",
    # errors
    "PsdPermError",
    "NotSquareError",
    "NonFiniteError",
    "NotHermitianError",
    "NotPSDError",
    "ReconstructionError",
    "NotPositiveDefiniteError",
    "ZeroRowError",
    "TooLargeError",
    "BadRankError",
    "ParseError",
    "SchemaError",
]
