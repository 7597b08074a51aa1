"""Quasi-relative entropies of density matrices and their trace-distance bounds."""

from .linalg import EigenSystem, eigh, hermitian_part, vec
from .states import (
    DensityMatrix,
    PairBatch,
    ScalarSummary,
    default_rng,
    density_matrix,
    example_pair,
    load_pair,
    pair_from_dict,
    pair_to_dict,
    random_classical_pair,
    random_pair,
    random_state,
    save_pair,
    state_pair,
    summarize,
)
from .quadrature import QuadratureError, integrate_halfline
from .functions import (
    OMDFunction,
    builtin_suite,
    eval_via_representation,
    make_custom,
    neg_log,
    neg_power,
    normalization_residual,
    parse_f_spec,
    tsallis_f,
)
from .divergences import (
    DivergenceResult,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    tsallis_direct,
    umegaki,
)
from .bounds import (
    BoundReport,
    SandwichReport,
    ae11_upper,
    general_sqrt_d_upper,
    guarded_log_diff_quot,
    guarded_power_diff_quot,
    pinsker_lower,
    qubit_classical_upper,
    qubit_relative_upper,
    relative_entropy_upper,
    sandwich,
    tsallis_bounds,
)
from .conjecture import (
    SearchRecord,
    WeightedOverlapFunctional,
    conjecture_search,
    functional_value,
    modular_weight_matrix,
    proven_case_check,
    random_functional,
    save_record,
)
from .sweeps import paper_example_rows, sweep_bounds

__version__ = "0.1.0"

__all__ = [
    "EigenSystem", "eigh", "hermitian_part", "vec",
    "DensityMatrix", "PairBatch", "ScalarSummary", "default_rng",
    "density_matrix", "example_pair", "load_pair",
    "pair_from_dict", "pair_to_dict", "random_classical_pair", "random_pair",
    "random_state", "save_pair", "state_pair", "summarize",
    "QuadratureError", "integrate_halfline",
    "OMDFunction", "builtin_suite",
    "eval_via_representation", "make_custom", "neg_log", "neg_power",
    "normalization_residual", "parse_f_spec", "tsallis_f",
    "DivergenceResult", "quasi_entropy_spectral",
    "quasi_entropy_superoperator", "tsallis_direct", "umegaki",
    "BoundReport", "SandwichReport", "ae11_upper", "general_sqrt_d_upper",
    "guarded_log_diff_quot", "guarded_power_diff_quot", "pinsker_lower",
    "qubit_classical_upper", "qubit_relative_upper", "relative_entropy_upper",
    "sandwich", "tsallis_bounds",
    "SearchRecord", "WeightedOverlapFunctional", "conjecture_search",
    "functional_value", "modular_weight_matrix", "proven_case_check",
    "random_functional", "save_record",
    "paper_example_rows", "sweep_bounds",
    "__version__",
]
