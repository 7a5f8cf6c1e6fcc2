"""svarcalc: exact variational calculus of supervariables.

Symbolic, exact-rational machinery for graded polynomial algebras of
supervariables: the odd superderivation, variational operators and the
total-derivative test, matrix differential operators with the Hamiltonian
criterion and Schouten super-bracket, structure-constant algebra checkers
with the operator correspondences, and the mode-algebra construction that
induces Lie superalgebras (generalized super-Virasoro) from linear operators.
"""

from .algebra import (
    FIELD_KIND,
    Generator,
    Monomial,
    SuperPolynomial,
    covector,
    field,
    gen_name,
    monomial_parity,
    normalize_monomial,
    parity,
    partial_derive,
    shift,
)
from .calculus import (
    EvolutionaryField,
    GradedDerivation,
    QuotientDomainError,
    check_commutes_with_D,
    evolutionary_apply,
    evolutionary_bracket,
    is_total_derivative,
    superderive,
    superderive_n,
    variational_derivative,
    variational_derivative_field,
)
from .operators import (
    ConfigurationScan,
    MatrixDiffOperator,
    ScalarDiffOperator,
    SkewSymmetryError,
    apply_matrix_operator,
    check_skew_symmetry,
    compose_D_left,
    configurations,
    evolution_rhs,
    frechet,
    hamiltonian_defect,
    is_hamiltonian,
    is_hamiltonian_pair,
    schouten_bracket,
    schouten_vanishes,
)
from .structures import (
    ALGEBRA_CLASSES,
    AlgebraSpec,
    build_type0_operator,
    build_type1_operator,
    check_axioms,
    make_exterior_example,
    make_truncated_example,
    np_to_nx,
)
from .modes import (
    CENTRAL,
    FormalDistribution,
    LinearOperatorData,
    ModeBracketTable,
    apply_Di,
    bare_delta,
    check_super_jacobi,
    check_super_skew,
    induce_bracket,
    make_delta,
    mode_field,
    phi_symbol,
    super_virasoro_table,
    virasoro_operator_data,
)

__version__ = "0.1.0"
