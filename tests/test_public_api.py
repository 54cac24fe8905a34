"""The public names of the dynres package, pinned: growing or shrinking the API is a deliberate edit here."""

import types

import dynres

PUBLIC = [
    "CensusAssertionError",
    "CensusConfig",
    "CensusConfigMismatchError",
    "CensusRecord",
    "CensusSummary",
    "ConjugacyVerdict",
    "DynresError",
    "FactoredIdeal",
    "INFINITY",
    "InvalidArgumentError",
    "LinearMap",
    "LocalExponent",
    "MacaulayMatrix",
    "MalformedJsonError",
    "ModuliPoint",
    "MorphismModel",
    "NotAMorphismError",
    "ReductionReport",
    "ResultantValue",
    "SchemaError",
    "SearchBudget",
    "TwistBucket",
    "UnfactoredResidueError",
    "bucket_twists",
    "conjugacy_test",
    "conjugate",
    "default_budget",
    "enumerate_models",
    "exact_determinant",
    "factor_integer",
    "is_prime",
    "load_records",
    "local_exponent",
    "macaulay_matrix",
    "macaulay_resultant",
    "min_coeff_valuation",
    "minimize_exponent",
    "moduli_height",
    "monomials",
    "multiplier_power_sums",
    "normalize_primitive",
    "primes_up_to",
    "quadratic_twist_model",
    "rational_from_string",
    "rational_to_string",
    "reduction_report",
    "run_census",
    "s_b_primes",
    "sigma_invariants",
    "sigma_invariants_full",
    "stream_records",
    "summarize_records",
    "sylvester_matrix",
    "sylvester_resultant",
    "twist_family_test",
    "valuation",
]


def test_public_names_pinned():
    names = sorted(k for k, v in vars(dynres).items() if not k.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
