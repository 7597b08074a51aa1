"""Quasi-relative entropies of density matrices and their trace-distance bounds.

The package exports what the command-line tool, the acceptance gate and the
paper's bound formulas use; everything else is reached through its module.
"""

from .linalg import eigh, hermitian_part
from .states import default_rng, load_pair, state_pair, summarize
from .quadrature import QuadratureError, integrate_halfline
from .functions import (
    builtin_suite,
    eval_via_representation,
    neg_log,
    neg_power,
    normalization_residual,
    parse_f_spec,
    tsallis_f,
)
from .divergences import (
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    tsallis_direct,
    umegaki,
)
from .bounds import (
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
from .conjecture import conjecture_search, proven_case_check, random_functional, save_record
from .sweeps import paper_example_rows, sweep_bounds

__version__ = "0.1.0"

__all__ = [
    "eigh", "hermitian_part",
    "default_rng", "load_pair", "state_pair", "summarize",
    "QuadratureError", "integrate_halfline",
    "builtin_suite", "eval_via_representation", "neg_log", "neg_power",
    "normalization_residual", "parse_f_spec", "tsallis_f",
    "quasi_entropy_spectral", "quasi_entropy_superoperator", "tsallis_direct", "umegaki",
    "ae11_upper", "general_sqrt_d_upper", "guarded_log_diff_quot",
    "guarded_power_diff_quot", "pinsker_lower", "qubit_classical_upper",
    "qubit_relative_upper", "relative_entropy_upper", "sandwich", "tsallis_bounds",
    "conjecture_search", "proven_case_check", "random_functional", "save_record",
    "paper_example_rows", "sweep_bounds",
]
