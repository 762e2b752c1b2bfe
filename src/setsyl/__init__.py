"""Decision procedures for multi-level syllogistic set theory.

The package decides conjunctions over =, subset, membership, union,
intersection, difference, and the empty set by reduction to a two-literal
normal form and a place-based model search; checks its own convexity
claims against an exhaustive rank-bounded oracle; replays the
model-enlargement construction behind those claims; and combines the set
solver with linear rational arithmetic and a theory of cons cells by
equality propagation.
"""

from .errors import (
    DEFAULT_BUDGET,
    ArityError,
    BoundTooLargeError,
    Budget,
    InvariantViolation,
    MixedAtomError,
    NonConvexPluginError,
    NonlinearTermError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SetsylError,
    UnboundVariableError,
    UnsupportedAtomError,
)
from .formulas import (
    EMPTY,
    And,
    ArithOp,
    AtomPred,
    Empty,
    Eq,
    ExtOp,
    In,
    Leq,
    ListOp,
    Not,
    Or,
    RationalConst,
    SetOp,
    Subset,
    Var,
    and_,
    classify_atom,
    conjuncts,
    free_vars,
    implies,
    is_atom,
    is_literal,
    literal_atom,
    nnf,
    or_,
)
from .hf import (
    HFSet,
    SetAssignment,
    big_inter,
    big_union,
    braces,
    cross_product,
    enumerate_universe,
    is_subset,
    kuratowski_pair,
    nested_singleton,
    parse_braces,
    power_set,
    set_diff,
    set_inter,
    set_union,
    unordered_cross,
)
from .sexpr import (
    Script,
    parse_formula,
    parse_script,
    print_formula,
    print_script,
    print_term,
)
from .oracle import (
    BoundedResult,
    bounded_models,
    eval_atom,
    eval_formula,
    eval_term,
    nonconvexity_schema,
    oracle_implies,
    oracle_sat,
)
from .normalize import (
    NormalizedConjunction,
    apply_plan,
    dnf_split,
    normalize_with_plan,
    split_disjuncts,
)
from .solver import (
    Place,
    Sat,
    SolverWitness,
    Unsat,
    build_model,
    enumerate_places,
    implied_equalities,
    satisfies,
    solve,
)
from .convexity import (
    EnlargementTrace,
    EqualitySet,
    Falsifiable,
    FuzzReport,
    FuzzViolation,
    Implied,
    InvariantCheck,
    all_checks_pass,
    check_trace_invariants,
    convexity_fuzz,
    enlarge,
    minimize_equalities,
    pad_vars,
    random_normalized_conjunction,
    write_reproducers,
)
from .lra import LraTheory
from .lists import ListTheory
from .combine import (
    THEORIES,
    CombinedResult,
    MlsTheory,
    TheoryPlugin,
    TheoryProblem,
    propagate,
    purify,
    solve_combined,
)

__version__ = "0.1.0"
