"""Sums of k positive squares, and the multiplicative functions that
preserve them.

The package decides representability of integers as sums of exactly k
nonvanishing squares, reproduces the classical exceptional sets, and runs
a sound exact-arithmetic constraint solver showing that a multiplicative
function commuting with k-fold square sums (k >= 4) must be the identity.
"""

from .arith import (
    FactoredInteger,
    NonRepresentableError,
    NotCoprimeError,
    SemigroupPair,
    coprime_splits,
    factorize,
    frobenius_number,
    nonrepresentable_set,
    represent_in_semigroup,
)
from .constraints import Constraint, Multiplicative, SumOfSquares, generate_constraints
from .gaussian import GaussianRational, gauss, parse_value
from .replay import ReplayMismatchError, ReplayResult, replay_script
from .solver import (
    BudgetExceededError,
    ContradictionError,
    MissingValueError,
    NoWitnessError,
    SolverReport,
    SolverState,
    TraceStep,
    Violation,
    check_function,
    induction_sweep,
    pin_by_induction,
    solve,
)
from .squares import (
    Enumeration,
    ExceptionalSetReport,
    Representation,
    UnsupportedKError,
    count_representations,
    enumerate_representations,
    exceptional_set,
    is_dubouis_exception,
    is_representable,
    iter_representations,
    verify_dubouis,
)
from .theorem import (
    CaseReport,
    CheckResult,
    EVEN_STEP,
    ODD_STEP,
    ParametricIdentity,
    check_parametric,
    theorem_check,
    verify_case_general,
    verify_case_k,
    verify_case_k4,
)

__version__ = "0.1.0"
