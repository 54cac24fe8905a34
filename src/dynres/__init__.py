"""dynres: exact resultants, reduction data, moduli invariants and a
bounded-height conjugacy census for endomorphisms of P^n over Q."""

from .census import (
    CensusConfig,
    CensusRecord,
    CensusSummary,
    enumerate_models,
    load_records,
    run_census,
    stream_records,
    summarize_records,
)
from .conjugacy_twists import (
    ConjugacyVerdict,
    TwistBucket,
    bucket_twists,
    conjugacy_test,
    quadratic_twist_model,
    twist_family_test,
)
from .errors import (
    CensusAssertionError,
    CensusConfigMismatchError,
    DynresError,
    InvalidArgumentError,
    MalformedJsonError,
    NotAMorphismError,
    SchemaError,
    UnfactoredResidueError,
)
from .exact_arithmetic import (
    INFINITY,
    factor_integer,
    is_prime,
    primes_up_to,
    rational_from_string,
    rational_to_string,
    valuation,
)
from .moduli_invariants import (
    ModuliPoint,
    moduli_height,
    multiplier_power_sums,
    sigma_invariants,
    sigma_invariants_full,
)
from .morphism_space import (
    LinearMap,
    MorphismModel,
    conjugate,
    min_coeff_valuation,
    monomials,
    normalize_primitive,
)
from .reduction_theory import (
    LocalExponent,
    ReductionReport,
    SearchBudget,
    default_budget,
    local_exponent,
    minimize_exponent,
    reduction_report,
    s_b_primes,
)
from .resultants import (
    MacaulayMatrix,
    ResultantValue,
    exact_determinant,
    macaulay_matrix,
    macaulay_resultant,
    sylvester_matrix,
    sylvester_resultant,
)

__version__ = "0.1.0"
