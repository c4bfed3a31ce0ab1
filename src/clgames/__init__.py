"""Exact workbench for [0,1]-valued first-order logic on finite metric
structures: moduli algebra, formula evaluation, and the approximate
back-and-forth games that characterize elementary equivalence by rank."""

from .moduli import (
    Aggregator,
    KaryModulus,
    PwlModulus,
    WeakModulus,
    capped_linear,
    compose,
    concave_envelope,
    identity_modulus,
    linear_modulus,
    modulus_leq,
    modulus_max,
    truncate,
    zero_modulus,
)
from .structures import (
    FunctionSymbol,
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    ValidationReport,
    expand_with_constants,
    load_pair,
    load_structure,
    reduct,
    relationalize,
    save_pair,
    save_structure,
    validate,
)
from .formulas import (
    Formula,
    covering_sentence,
    enumerate_atomic,
    evaluate,
    format_formula,
    is_delta_formula,
    logical_distance_corpus,
    modulus_of,
    normalize_sup,
    parse_formula,
    qr,
    sample_formulas,
    theta_of,
)
from .game import (
    GameValueResult,
    Position,
    atomic_discrepancy,
    game_value,
    is_partial_eps_delta_iso,
    play_interactive,
    winning_strategy,
)
from .infinitary import (
    AtomicLeaf,
    OmegaLeaf,
    build_nested_levels_pair,
    check_basic_omega,
    dynamic_game_value,
    omega_game_value_atomic,
    r_alpha,
)

__version__ = "0.1.0"
