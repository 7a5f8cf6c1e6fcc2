"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is exact (rational identity); the stated wall-clock budgets
are asserted.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
one-line verdicts.
"""

import random
import time
from fractions import Fraction
from svarcalc import (
    AlgebraSpec,
    ConfigurationScan,
    SuperPolynomial,
    build_type0_operator,
    build_type1_operator,
    check_axioms,
    check_skew_symmetry,
    check_super_jacobi,
    check_super_skew,
    evolution_rhs,
    evolutionary_bracket,
    field,
    check_commutes_with_D,
    induce_bracket,
    is_hamiltonian,
    is_hamiltonian_pair,
    is_total_derivative,
    make_delta,
    make_exterior_example,
    make_truncated_example,
    np_to_nx,
    schouten_bracket,
    super_virasoro_table,
    superderive,
    superderive_n,
    variational_derivative_field,
    virasoro_operator_data,
)
from svarcalc.documents import parse_document
from svarcalc.modes import apply_Di_n, z_shift
from svarcalc.operators import configurations
from svarcalc.structures import iter_axiom_failures
from svarcalc.suite import (
    constant_type1,
    hand_checked_mutation,
    top_form_associator,
    twisted_type0,
)

from helpers import field_pool, random_evolutionary, random_poly

F = Fraction
FIXTURE = "tests/fixtures/super_kdv_rhs.json"


def report(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {number} failed: {text}"


def gp(g):
    return SuperPolynomial.generator(g)


def truncated_operator(n):
    return build_type1_operator(np_to_nx(make_truncated_example(n), 0))


EXTERIOR_ASSIGNMENTS = ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1})


def test_criterion_1_type1_forward():
    """Truncated-polynomial bialgebras of size 1..4 build Hamiltonian operators."""
    for n in (1, 2, 3, 4):
        start = time.monotonic()
        ok, witness = is_hamiltonian(truncated_operator(n))
        elapsed = time.monotonic() - start
        report(1, ok and elapsed < 60.0,
               f"truncated n={n} Hamiltonian over all {8 * n ** 3} configurations "
               f"({elapsed:.1f}s)")


def test_criterion_2_type1_reverse_mutation():
    """Doubling the circ constant to 3 breaks the operator and the axioms."""
    spec = hand_checked_mutation()
    op = build_type1_operator(spec)
    skew_ok, _ = check_skew_symmetry(op)
    ham_ok, witness = is_hamiltonian(op)
    operator_broken = (not skew_ok) or (not ham_ok)
    failures = set()
    for label, *_ in iter_axiom_failures(spec, "nx_bialgebra"):
        failures.add(label)
    for label, *_ in iter_axiom_failures(spec, "form_compat"):
        failures.add(label)
    target = {"mixed_associator", "times_sum_rule", "times_difference_rule",
              "form_circ_invariance", "form_times_ratio"}
    report(2, operator_broken and bool(failures & target),
           f"mutation rejected (operator witness {witness}; axioms {sorted(failures)})")


def test_criterion_3_type0_round_trip():
    """Exterior-algebra specs pass both sides; mutations track both sides."""
    for assignment in EXTERIOR_ASSIGNMENTS:
        spec = make_exterior_example(assignment)
        ax_ok, _ = check_axioms(spec, "fermionic_novikov")
        ham_ok, _ = is_hamiltonian(build_type0_operator(spec))
        report(3, ax_ok and ham_ok, f"exterior {assignment or 'zero'} round trip")
    spec = make_exterior_example({(3, 4): 1})
    assoc = top_form_associator(spec)
    report(3, assoc == (F(0),) * 5 + (F(1),), "top-form associator equals c34 * v5")
    rng = random.Random(20240811)
    broke = None
    for _ in range(10):
        i, j, k = rng.randrange(6), rng.randrange(1, 5), rng.randrange(6)
        tab = [[[c for c in cell] for cell in row] for row in spec.circ]
        tab[i][j][k] += 1
        mutated = AlgebraSpec(dim=6, circ=tab)
        ax_ok = check_axioms(mutated, "fermionic_novikov")[0]
        ham_ok = is_hamiltonian(build_type0_operator(mutated))[0]
        assert ax_ok == ham_ok, "axiom and operator sides disagree"
        if not ax_ok:
            broke = (i, j, k)
            break
    report(3, broke is not None, f"random mutation {broke} fails both sides consistently")


def test_criterion_4_constant_operators():
    start = time.monotonic()
    ok1, _ = is_hamiltonian(constant_type1(1))
    ok5, _ = is_hamiltonian(constant_type1(5))
    ok0, _ = is_hamiltonian(twisted_type0())
    okp, _ = is_hamiltonian_pair(constant_type1(1), constant_type1(5))
    elapsed = time.monotonic() - start
    report(4, ok1 and ok5 and ok0 and okp and elapsed < 10.0,
           f"first/fifth powers (type 1), twisted identity+fourth power (type 0), "
           f"pair ({elapsed:.1f}s)")


def test_criterion_5_calculus_identities(seed):
    rng = random.Random(seed)
    pool = field_pool(3, 5)
    ok = True
    for _ in range(200):
        u = random_poly(rng, pool, max_terms=4, max_factors=4)
        du = superderive(u)
        for fam in range(3):
            if variational_derivative_field(du, fam):
                ok = False
    report(5, ok, "variational derivative kills 200 random total derivatives")

    ok = True
    probe_pool = field_pool(2, 3)
    for _ in range(50):
        f = random_evolutionary(rng, 2, 3)
        probes = [random_poly(rng, probe_pool, max_terms=2) for _ in range(2)]
        if not check_commutes_with_D(f, probes):
            ok = False
    report(5, ok, "50 random evolutionary fields commute with the superderivation")

    ok = True
    for _ in range(50):
        f, g, h = (random_evolutionary(rng, 2, 2) for _ in range(3))
        fwd, back = evolutionary_bracket(f, g), evolutionary_bracket(g, f)
        sgn = -1 if (f.parity & g.parity) else 1
        for fam in range(2):
            if fwd.component(fam) + sgn * back.component(fam):
                ok = False
        t1 = evolutionary_bracket(f, evolutionary_bracket(g, h))
        t2 = evolutionary_bracket(g, evolutionary_bracket(h, f))
        t3 = evolutionary_bracket(h, evolutionary_bracket(f, g))
        s2 = -1 if (f.parity & (g.parity ^ h.parity)) else 1
        s3 = -1 if (h.parity & (f.parity ^ g.parity)) else 1
        for fam in range(2):
            if t1.component(fam) + s2 * t2.component(fam) + s3 * t3.component(fam):
                ok = False
    report(5, ok, "50 random bracket triples satisfy graded skew and Jacobi")


def test_criterion_6_induced_superalgebra():
    start = time.monotonic()
    for fams in (1, 2, 3):
        induced = induce_bracket(virasoro_operator_data(fams), 4)
        closed = super_virasoro_table(fams, 4)
        report(6, induced.entries == closed.entries,
               f"induced bracket equals the closed form exactly (families={fams})")
        skew_ok, _ = check_super_skew(induced)
        jac_ok, _ = check_super_jacobi(induced)
        report(6, skew_ok and jac_ok,
               f"super skew and Jacobi pass on the window (families={fams})")
    table = super_virasoro_table(1, 4)
    central_odd = table.bracket((0, 3), (0, -3)).get(("c",))  # modes 3/2, -3/2
    central_even = table.bracket((0, 6), (0, -6)).get(("c",))  # modes 3, -3
    # (n+1)n at n=-2 is 2; -(n+1)n(n-1) at n=-3 is 24
    report(6, central_odd == F(2) and central_even == F(24),
           "central coefficients (n+1)n and -(n+1)n(n-1) reproduced")
    elapsed = time.monotonic() - start
    report(6, elapsed < 120.0, f"runtime within budget ({elapsed:.1f}s)")


def test_criterion_7_distribution_lemmas():
    M = 8
    delta = make_delta(1, 2, M)

    def interior_equal(a, b, bound):
        return a.restrict(bound) == b.restrict(bound)

    from svarcalc import FormalDistribution
    f1 = z_shift(1, 1) + FormalDistribution.monomial((0, 0, 0), (1,)) * z_shift(1, 2)
    f2 = z_shift(2, 1) + FormalDistribution.monomial((0, 0, 0), (2,)) * z_shift(2, 2)
    ok = interior_equal(f1 * delta, f2 * delta, M - 3)
    report(7, ok, "substitution identity for the odd delta (interior, M=8)")

    z1inv, z2inv = z_shift(1, -1), z_shift(2, -1)
    ok = True
    for n in (0, 1, 2):
        bound = M - 2 * n - 3
        even_l = z2inv * apply_Di_n(delta, 1, 2 * n)
        even_r = (z1inv * apply_Di_n(delta, 2, 2 * n)).scaled((-1) ** n)
        odd_l = z2inv * apply_Di_n(delta, 1, 2 * n + 1)
        odd_r = (z1inv * apply_Di_n(delta, 2, 2 * n + 1)).scaled((-1) ** (n + 1))
        if not (interior_equal(even_l, even_r, bound)
                and interior_equal(odd_l, odd_r, bound)):
            ok = False
    report(7, ok, "derivative swap identities for n = 0, 1, 2 (interior, M=8)")


def test_criterion_8_super_kdv_rhs():
    _, fixture = parse_document(FIXTURE).payload
    phi = lambda n: gp(field(0, n))
    mu = 2
    oracle = (
        -superderive_n(phi(1), 6)
        + mu * superderive_n(phi(1) * superderive(phi(1)), 2)
        + (6 - 2 * mu) * (superderive(phi(1)) * superderive_n(phi(1), 2))
    )
    report(8, fixture == oracle, "fixture equals the brute-force expansion")
    density = F(-1, 2) * (phi(1) * phi(6)) + phi(1) * phi(2) * phi(2)
    produced = evolution_rhs(constant_type1(1), density)[0]
    report(8, produced == fixture, "evolution right side reproduces the fixture")


def test_criterion_9_schouten_consistency(seed):
    operators = [truncated_operator(n) for n in (1, 2, 3, 4)]
    operators += [build_type0_operator(make_exterior_example(a))
                  for a in EXTERIOR_ASSIGNMENTS]
    operators += [constant_type1(1), constant_type1(5), twisted_type0()]
    operators.append(build_type1_operator(hand_checked_mutation()))
    for idx, op in enumerate(operators):
        if not check_skew_symmetry(op)[0]:
            continue
        ham, _ = is_hamiltonian(op)
        # One scan per operator: its three-form B(H, H) is half of [H, H],
        # so the two vanish in the quotient together.
        scan = ConfigurationScan.closedness(op)
        forms = [(fams, pars, scan.three_form(fams, pars))
                 for fams, pars in configurations(op.dim)]
        diag = all(is_total_derivative(form) for _, _, form in forms)
        fams, pars, form = next((f for f in forms if f[2]), forms[0])
        assert schouten_bracket(op, op, fams, pars) == 2 * form
        report(9, diag == ham,
               f"[H,H] = 0 in the quotient agrees with the Hamiltonian test "
               f"(operator {idx}, dim {op.dim})")
    rng = random.Random(seed)
    a, b = constant_type1(1), constant_type1(5)
    pair_ok, _ = is_hamiltonian_pair(a, b)
    agree = True
    for _ in range(5):
        x = F(rng.randint(-3, 3), rng.randint(1, 2))
        y = F(rng.randint(-3, 3), rng.randint(1, 2))
        combo = a.scaled(x) + b.scaled(y)
        if is_hamiltonian(combo)[0] != pair_ok:
            agree = False
    report(9, agree and pair_ok,
           "pair verdict matches five random rational combinations")
