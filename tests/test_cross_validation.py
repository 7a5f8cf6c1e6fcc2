"""Dual-route checks: independent oracles for the two core decision
procedures.

The total-derivative test is cross-checked against exact linear algebra
(solve u = D(v) over a finite candidate basis), the normal-ordering
skew-symmetry criterion against the direct pairing definition evaluated in
the quotient, and the Hamiltonian test of a top-order-1 linear operator
against the Jacobi identity of the mode bracket it induces.
"""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

from svarcalc import (
    AlgebraSpec,
    ConfigurationScan,
    MatrixDiffOperator,
    ScalarDiffOperator,
    SuperPolynomial,
    apply_matrix_operator,
    check_skew_symmetry,
    configurations,
    covector,
    field,
    is_total_derivative,
    make_truncated_example,
    np_to_nx,
    build_type1_operator,
    build_type0_operator,
    check_super_jacobi,
    induce_bracket,
    is_hamiltonian,
    make_exterior_example,
    superderive,
)
from svarcalc.algebra import normalize_monomial
from svarcalc.calculus import QuotientDomainError, non_membership_certificate
from svarcalc.cli import main
from svarcalc.documents import InputDocument, render_document
from svarcalc.suite import hand_checked_mutation

from helpers import field_pool, linear_data, mixed_pool, random_poly, truncated_mutations

F = Fraction


# -- linear-algebra membership oracle -----------------------------------------

def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _block_key(mono):
    bases = []
    weight = 0
    for (kind, fam, derivs, bp), exp in mono:
        bases.extend([(kind, fam, bp)] * exp)
        weight += derivs * exp
    return tuple(sorted(bases)), weight


def _candidate_monomials(bases, weight):
    """Canonical monomials on the given base multiset with total derivative
    weight; assignments colliding on an odd generator drop out."""
    seen = set()
    for assignment in _compositions(weight, len(bases)):
        gens = [(kind, fam, derivs, bp)
                for (kind, fam, bp), derivs in zip(bases, assignment)]
        mono, sign = normalize_monomial(gens)
        if sign == 0 or mono in seen:
            continue
        seen.add(mono)
        yield mono


def _solve_exact(columns, target):
    """Solvability of A x = target over the rationals (Gaussian elimination).

    ``columns`` maps column labels to {row: coeff}; ``target`` is {row: coeff}.
    Entries are coerced to ``Fraction``: polynomial coefficients are ``int``
    when integral, and ``int / int`` would give a float.
    """
    rows = sorted(set(target) | {r for col in columns.values() for r in col})
    row_index = {r: i for i, r in enumerate(rows)}
    matrix = []
    for col in columns.values():
        vec = [F(0)] * len(rows)
        for r, c in col.items():
            vec[row_index[r]] = F(c)
        matrix.append(vec)
    rhs = [F(0)] * len(rows)
    for r, c in target.items():
        rhs[row_index[r]] = F(c)
    # transpose to row-major system over the row space
    n_rows, n_cols = len(rows), len(matrix)
    aug = [[matrix[j][i] for j in range(n_cols)] + [rhs[i]] for i in range(n_rows)]
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        factor = aug[pivot_row][col]
        aug[pivot_row] = [x / factor for x in aug[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and aug[r][col]:
                scale = aug[r][col]
                aug[r] = [a - scale * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    # inconsistent iff a zero row has nonzero right side
    for r in range(n_rows):
        if aug[r][-1] and not any(aug[r][:-1]):
            return False
    return True


def total_derivative_by_linear_solve(u: SuperPolynomial) -> bool:
    """Decide u in Im(D) by explicitly solving u = D(v).

    D preserves the base multiset and the factor count of every monomial and
    raises the derivative weight by exactly one, so candidates for v are
    enumerable block by block.
    """
    if u.is_zero():
        return True
    if u.constant_term():
        raise QuotientDomainError("constant term")
    blocks = defaultdict(dict)
    for mono, coeff in u.terms().items():
        blocks[_block_key(mono)][mono] = coeff
    for (bases, weight), target in blocks.items():
        if weight == 0:
            return False  # D raises the weight, so weight-0 targets are unreachable
        columns = {}
        for cand in _candidate_monomials(bases, weight - 1):
            image = superderive(SuperPolynomial({cand: F(1)}))
            if image:
                columns[cand] = dict(image.terms())
        if not _solve_exact(columns, target):
            return False
    return True


class TestMembershipOracle:
    def test_agrees_on_random_polynomials(self, seed):
        rng = random.Random(seed)
        pool = mixed_pool(2, 4)
        checked = 0
        for _ in range(120):
            u = random_poly(rng, pool, max_terms=3, max_factors=3)
            if u.constant_term():
                continue
            assert is_total_derivative(u) == total_derivative_by_linear_solve(u)
            checked += 1
        assert checked > 60

    def test_agrees_on_guaranteed_members(self, seed):
        rng = random.Random(seed + 1)
        pool = mixed_pool(2, 3)
        for _ in range(60):
            v = random_poly(rng, pool, max_terms=3, max_factors=3)
            u = superderive(v)
            if u.constant_term():
                continue
            assert is_total_derivative(u)
            assert total_derivative_by_linear_solve(u)

    def test_agrees_on_known_negatives(self):
        phi = lambda n: SuperPolynomial.generator(field(0, n))
        for u in (phi(1) * phi(2),
                  phi(1),
                  SuperPolynomial.generator(covector(1, 0, 0, 1))
                  * SuperPolynomial.generator(covector(1, 0, 1, 1))):
            assert not is_total_derivative(u)
            assert not total_derivative_by_linear_solve(u)


class TestSingleBaseRule:
    """Membership of polynomials linear in a covector tower, which
    is_total_derivative decides with that tower's variational derivative
    alone, against the linear-solve oracle."""

    def agree(self, u):
        verdict = is_total_derivative(u)
        assert verdict == total_derivative_by_linear_solve(u)
        assert (non_membership_certificate(u) is None) == verdict
        return verdict

    def test_random_polynomials_linear_in_a_tower(self, seed):
        rng = random.Random(seed + 2)
        pool = field_pool(2, 4) + [covector(2, 0, k, 0) for k in range(2)]
        verdicts = set()
        for _ in range(80):
            base_parity = rng.randint(0, 1)
            tower = [covector(1, 0, k, base_parity) for k in range(4)]
            terms = []
            for _ in range(rng.randint(1, 3)):
                gens = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                gens.append(rng.choice(tower))
                terms.append((gens, F(rng.randint(-4, 4), rng.randint(1, 3))))
            u = SuperPolynomial.from_terms(terms)
            verdicts.add(self.agree(u))
            v = random_poly(rng, pool, max_terms=2, max_factors=2)
            w = superderive(v * SuperPolynomial.generator(rng.choice(tower)))
            assert self.agree(w)
        assert verdicts == {True, False}

    def test_defects_of_builder_outputs(self):
        ops = [build_type1_operator(np_to_nx(make_truncated_example(n), 0))
               for n in (1, 2, 3)]
        ops += [build_type0_operator(make_exterior_example(a))
                for a in ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1})]
        # the suite's mutation control: circ constant 2 -> 3 in dimension one
        ops.append(build_type1_operator(AlgebraSpec(
            dim=1, circ=(((F(3),),),), times=(((F(1),),),), form=((F(1),),))))
        verdicts = []
        for op in ops:
            scan = ConfigurationScan.closedness(op)
            for families, parities in configurations(op.dim):
                defect = scan.three_form(families, parities)
                if defect:
                    verdicts.append(self.agree(defect))
        assert True in verdicts and False in verdicts

    def test_zero_polynomial(self):
        assert self.agree(SuperPolynomial.zero())

    def test_tower_missing_from_some_monomials(self):
        # 1/2*phi1(2) - 3/2*phi1(3)*D1(xi2_0)*xi3_0 - 3*D1(xi1_0): every
        # covector tower occurs linearly where it occurs, but none occurs in
        # every monomial, so no single tower decides.
        g = SuperPolynomial.generator
        u = (F(1, 2) * g(field(1, 2))
             - F(3, 2) * g(field(1, 3)) * g(covector(2, 0, 1, 0)) * g(covector(3, 0, 0, 0))
             - 3 * g(covector(1, 0, 1, 1)))
        assert str(u) == "1/2*phi1(2) - 3/2*phi1(3)*D1(xi2_0)*xi3_0 - 3*D1(xi1_0)"
        assert not self.agree(u)


# -- direct skew-symmetry oracle ------------------------------------------------

def skew_by_pairing(op: MatrixDiffOperator) -> bool:
    """Super skew-symmetry straight from the pairing definition.

    For basis covectors at all family pairs and parity pairs, the pairing of
    the first covector with the operator applied to the second must cancel
    the sign-twisted reverse pairing modulo total derivatives; the twist is
    (-1) to the product of the image parities.
    """
    iota = op.type_parity
    for p, q, i1, i2 in product(range(op.dim), range(op.dim), (0, 1), (0, 1)):
        xi1 = covector(1, p, 0, (i1 + 1) & 1)
        xi2 = covector(2, q, 0, (i2 + 1) & 1)
        applied2 = apply_matrix_operator(
            op, {q: SuperPolynomial.generator(xi2)}, i2)
        applied1 = apply_matrix_operator(
            op, {p: SuperPolynomial.generator(xi1)}, i1)
        forward = applied2[p] * SuperPolynomial.generator(xi1)
        reverse = applied1[q] * SuperPolynomial.generator(xi2)
        twist = (i1 + iota) & (i2 + iota) & 1
        total = forward + (reverse if not twist else -reverse)
        if not is_total_derivative(total):
            return False
    return True


class TestSkewOracle:
    def corpus(self):
        d_power = lambda k: MatrixDiffOperator(1, 1, {
            (0, 0, 0): ScalarDiffOperator.d_power(k),
            (1, 0, 0): ScalarDiffOperator.d_power(k)})
        field_only = MatrixDiffOperator(1, 1, {
            (0, 0, 0): ScalarDiffOperator.single(
                SuperPolynomial.generator(field(0, 3)), 0),
            (1, 0, 0): ScalarDiffOperator.single(
                SuperPolynomial.generator(field(0, 3)), 0)})
        sign_flipped = MatrixDiffOperator(1, 1, {
            (0, 0, 0): ScalarDiffOperator.d_power(5),
            (1, 0, 0): ScalarDiffOperator.d_power(5, -1)})
        even = ScalarDiffOperator({0: SuperPolynomial.one(),
                                   4: SuperPolynomial.one()})
        twisted = MatrixDiffOperator(0, 1, {(0, 0, 0): even,
                                            (1, 0, 0): even.scaled(-1)})
        untwisted = MatrixDiffOperator(0, 1, {(0, 0, 0): even, (1, 0, 0): even})
        yield d_power(1)
        yield d_power(3)
        yield d_power(5)
        yield field_only
        yield sign_flipped
        yield twisted
        yield untwisted
        yield build_type1_operator(np_to_nx(make_truncated_example(2), 0))
        yield build_type0_operator(make_exterior_example({(3, 4): 1}))

    def test_normal_ordering_criterion_matches_pairing(self):
        verdicts = []
        for op in self.corpus():
            criterion = check_skew_symmetry(op)[0]
            direct = skew_by_pairing(op)
            assert criterion == direct
            verdicts.append(criterion)
        assert True in verdicts and False in verdicts


class TestHamiltonianJacobiOracle:
    @staticmethod
    def corpus(seed):
        rng = random.Random(seed)
        specs = [np_to_nx(make_truncated_example(d), 0) for d in (1, 2)]
        specs.append(hand_checked_mutation())
        specs.extend(truncated_mutations(rng))
        return specs

    def test_hamiltonian_iff_induced_jacobi(self, seed):
        # For top-order-1 linear data the realized operator is Hamiltonian
        # exactly when the induced mode bracket satisfies Jacobi.
        verdicts = []
        for spec in self.corpus(seed):
            data = linear_data(spec)
            op = data.realize()
            if not check_skew_symmetry(op)[0]:
                continue
            ham = is_hamiltonian(op)[0]
            for window in (2, 3):
                assert check_super_jacobi(induce_bracket(data, window))[0] == ham, (spec, window)
            verdicts.append(ham)
        assert True in verdicts and False in verdicts

    def test_induce_exit_code_is_the_window_sweep_verdict(self, seed, tmp_path, capsys):
        # `induce` decides on all modes with the Hamiltonian scan; on the same
        # corpus its exit code is the Jacobi sweep's verdict at windows 2 and
        # 3, and an operator that is not skew stays an error.
        codes = []
        for n, spec in enumerate(self.corpus(seed)):
            data = linear_data(spec)
            path = tmp_path / f"{n}.lop.json"
            path.write_text(render_document(InputDocument("linear_operator", data)))
            skew = check_skew_symmetry(data.realize())[0]
            for window in (2, 3):
                expected = 2
                if skew:
                    expected = 0 if check_super_jacobi(induce_bracket(data, window))[0] else 1
                assert main(["induce", "--window", str(window), str(path)]) == expected, (spec, window)
                codes.append(expected)
        capsys.readouterr()
        assert {0, 1, 2} <= set(codes)
