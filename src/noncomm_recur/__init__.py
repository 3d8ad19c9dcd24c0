"""Exact solver for second-order linear difference equations with
noncommutative constant coefficients.

The recurrence Y_{p+2} = L0 Y_p + L1 Y_{p+1} with Y_0 = 0 and Y_1 given
is solved both by direct iteration and by a closed form built from
permutation sums of the two coefficients, over exact-rational matrix,
float matrix, scalar and free word-algebra backends.
"""
from .algebra import (
    BackendMismatchError,
    ColumnVector,
    FreeElement,
    FreeVector,
    Matrix,
    apply,
    compose,
    ring_one,
    ring_sum,
    ring_zero,
    vector_zero,
    word_from_str,
    word_to_element,
    word_to_str,
)
from .permsum import (
    MultCounter,
    binom,
    count_terms,
    enumerate_words,
    perm_sum_batch,
    perm_sum_dp,
    perm_sum_naive,
    stifel_check,
)
from .problems import (
    ProblemFileError,
    ProblemFile,
    load_problem,
    loads_problem,
)
from .solver import (
    CauchyProblem,
    InvalidCoefficientError,
    NotARationalSquareError,
    ScalarRoots,
    characteristic_roots,
    rational_sqrt,
    solve_closed,
    solve_iterative,
    solve_iterative_upto,
    solve_scalar_roots,
    solve_scalar_sum,
    t_bar,
    verify_identity_21,
    verify_identity_23,
)
