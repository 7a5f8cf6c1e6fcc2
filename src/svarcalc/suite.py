"""Bundled verification suite over the canonical worked examples.

Each entry exercises one construction end to end: the truncated polynomial
family through the Novikov-Poisson -> bialgebra -> type-1 operator chain, the
exterior-algebra fermionic family through the type-0 builder, the
constant-coefficient operators, the evolution right side of the super-KdV
demo, and the induced mode superalgebra cross-checked against its closed
form.  One entry feeds a deliberately broken spec through the chain and
passes exactly when the checkers reject it with a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import SuperPolynomial, field
from .calculus import superderive, superderive_n
from .modes import (
    check_super_jacobi,
    check_super_skew,
    induce_bracket,
    super_virasoro_table,
    virasoro_operator_data,
)
from .operators import (
    MatrixDiffOperator,
    ScalarDiffOperator,
    evolution_rhs,
    is_hamiltonian,
    is_hamiltonian_pair,
)
from .structures import (
    AlgebraSpec,
    build_type0_operator,
    build_type1_operator,
    check_axioms,
    make_exterior_example,
    make_truncated_example,
    multiply,
    np_to_nx,
)

SuiteResult = Tuple[str, str, Optional[object]]  # (name, verdict, witness)


def _entry_truncated_chain(n: int) -> Tuple[str, Optional[object]]:
    spec = make_truncated_example(n)
    ok, witness = check_axioms(spec, "novikov_poisson")
    if not ok:
        return "fail", ("novikov_poisson", witness)
    nx = np_to_nx(spec, 0)
    for cls in ("nx_bialgebra", "form_compat"):
        ok, witness = check_axioms(nx, cls)
        if not ok:
            return "fail", (cls, witness)
    op = build_type1_operator(nx)
    ok, witness = is_hamiltonian(op)
    if not ok:
        return "fail", ("hamiltonian", witness)
    return "pass", None


def top_form_associator(spec: AlgebraSpec) -> Tuple[Fraction, ...]:
    """The circ associator (e0 o e1) o e2 - e0 o (e1 o e2); on an exterior
    spec it is c34 times the top form e5."""
    e = spec.basis
    lhs = multiply(spec.circ, multiply(spec.circ, e(0), e(1)), e(2))
    rhs = multiply(spec.circ, e(0), multiply(spec.circ, e(1), e(2)))
    return tuple(a - b for a, b in zip(lhs, rhs))


def _entry_exterior(assignment: Dict[Tuple[int, int], int]) -> Tuple[str, Optional[object]]:
    spec = make_exterior_example(assignment)
    ok, witness = check_axioms(spec, "fermionic_novikov")
    if not ok:
        return "fail", ("fermionic_novikov", witness)
    c34 = Fraction(assignment.get((3, 4), 0))
    assoc = top_form_associator(spec)
    expected = tuple(c34 if k == 5 else Fraction(0) for k in range(6))
    if assoc != expected:
        return "fail", ("top_form_associator", [str(x) for x in assoc])
    op = build_type0_operator(spec)
    ok, witness = is_hamiltonian(op)
    if not ok:
        return "fail", ("hamiltonian", witness)
    return "pass", None


def constant_type1(power: int) -> MatrixDiffOperator:
    """The one-family type-1 operator D^power in both parity blocks."""
    return MatrixDiffOperator(1, 1, {
        (0, 0, 0): ScalarDiffOperator.d_power(power),
        (1, 0, 0): ScalarDiffOperator.d_power(power),
    })


def twisted_type0() -> MatrixDiffOperator:
    """The one-family type-0 operator 1 + D^4, negated in the odd block."""
    even = ScalarDiffOperator({0: SuperPolynomial.one(), 4: SuperPolynomial.one()})
    return MatrixDiffOperator(0, 1, {(0, 0, 0): even, (1, 0, 0): even.scaled(-1)})


def _entry_constant_operators() -> Tuple[str, Optional[object]]:
    for name, op in (("first_power", constant_type1(1)),
                     ("fifth_power", constant_type1(5)),
                     ("twisted_type0", twisted_type0())):
        ok, witness = is_hamiltonian(op)
        if not ok:
            return "fail", (name, witness)
    ok, witness = is_hamiltonian_pair(constant_type1(1), constant_type1(5))
    if not ok:
        return "fail", ("pair", witness)
    return "pass", None


def _entry_super_kdv() -> Tuple[str, Optional[object]]:
    phi = lambda order: SuperPolynomial.generator(field(0, order))
    density = phi(1) * phi(6) * Fraction(-1, 2) + phi(1) * phi(2) * phi(2)
    op = constant_type1(1)
    produced = evolution_rhs(op, density)[0]
    mu = 2
    expanded = (
        -superderive_n(phi(1), 6)
        + mu * superderive_n(phi(1) * superderive(phi(1)), 2)
        + (6 - 2 * mu) * (superderive(phi(1)) * superderive_n(phi(1), 2))
    )
    if produced != expanded:
        return "fail", ("rhs_mismatch", str(produced), str(expanded))
    return "pass", None


def _entry_mode_algebra() -> Tuple[str, Optional[object]]:
    data = virasoro_operator_data(1)
    induced = induce_bracket(data, 3)
    closed = super_virasoro_table(1, 3)
    if induced.entries != closed.entries:
        keys = sorted(set(induced.entries) ^ set(closed.entries))
        return "fail", ("closed_form_mismatch", keys[:5])
    ok, witness = check_super_skew(induced)
    if not ok:
        return "fail", ("super_skew", witness)
    ok, witness = check_super_jacobi(induced)
    if not ok:
        return "fail", ("super_jacobi", witness)
    return "pass", None


def hand_checked_mutation() -> AlgebraSpec:
    """The one-dimensional truncated bialgebra with its circ constant raised
    from 2 to 3: it fails both the axioms and the Hamiltonian test."""
    return AlgebraSpec(
        dim=1,
        circ=(((Fraction(3),),),),
        times=(((Fraction(1),),),),
        form=((Fraction(1),),),
    )


def _entry_mutation_control() -> Tuple[str, Optional[object]]:
    # The checkers must reject the mutation with a witness on both sides.
    broken = hand_checked_mutation()
    ok, witness = check_axioms(broken, "nx_bialgebra")
    if ok:
        return "fail", ("mutation_accepted_by_axioms", None)
    axiom_witness = witness
    op = build_type1_operator(broken)
    ok, witness = is_hamiltonian(op)
    if ok:
        return "fail", ("mutation_accepted_by_operator_test", None)
    return "pass", ("rejected_with_witnesses", axiom_witness, witness)


_ENTRIES: Dict[str, Callable[[], Tuple[str, Optional[object]]]] = {
    "truncated-chain-n1": lambda: _entry_truncated_chain(1),
    "truncated-chain-n2": lambda: _entry_truncated_chain(2),
    "truncated-chain-n3": lambda: _entry_truncated_chain(3),
    "exterior-zero": lambda: _entry_exterior({}),
    "exterior-c34": lambda: _entry_exterior({(3, 4): 1}),
    "exterior-c12-c34": lambda: _entry_exterior({(1, 2): 2, (3, 4): -1}),
    "constant-operators": _entry_constant_operators,
    "super-kdv-rhs": _entry_super_kdv,
    "mode-algebra": _entry_mode_algebra,
    "mutation-control": _entry_mutation_control,
}


def run_suite_entry(name: str) -> SuiteResult:
    verdict, witness = _ENTRIES[name]()
    return (name, verdict, witness)


def verify_paper_examples() -> List[SuiteResult]:
    """Run every bundled entry, in order."""
    return [run_suite_entry(name) for name in _ENTRIES]
