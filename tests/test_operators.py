"""Matrix differential operators: skew-symmetry, the Hamiltonian criterion,
the Schouten bracket, pairs, and evolution right sides."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product
from pathlib import Path

import pytest

from svarcalc import cli, operators
from svarcalc.algebra import COVECTOR_SLOTS, FIELD_KIND, base_of, monomial_parity
from svarcalc.calculus import SlotForm, non_membership_certificate, superderive_n, variational_derivative
from svarcalc.documents import InputDocument, parse_document, render_document
from svarcalc.operators import _leibniz_row, iter_schouten_failures, iter_skew_failures
from svarcalc.suite import constant_type1, hand_checked_mutation, twisted_type0
from svarcalc import (
    AlgebraSpec,
    ConfigurationScan,
    MatrixDiffOperator,
    ScalarDiffOperator,
    SkewSymmetryError,
    SuperPolynomial,
    apply_matrix_operator,
    check_axioms,
    check_skew_symmetry,
    build_type0_operator,
    compose_D_left,
    configurations,
    covector,
    evolution_rhs,
    field,
    frechet,
    hamiltonian_defect,
    is_hamiltonian,
    is_hamiltonian_pair,
    is_total_derivative,
    make_exterior_example,
    make_truncated_example,
    np_to_nx,
    build_type1_operator,
    schouten_bracket,
    schouten_vanishes,
    superderive,
)
from helpers import (
    applied_column,
    bumped,
    compose_D_power_left,
    dense_apply,
    dense_frechet,
    dense_skew_failures,
    field_pool,
    full_scan_failures,
    leibniz_rows,
    pair_oracle,
    phi_flip,
    random_homogeneous,
    random_poly,
    random_skew_operator,
    relabelled_three_form,
    rotation_listing,
    truncated_mutations,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def gp(g):
    return SuperPolynomial.generator(g)


def quintic_example(n):
    """Type-1 operator of the n-dimensional truncated polynomial algebra."""
    return build_type1_operator(np_to_nx(make_truncated_example(n), 0))


def field_only_type1():
    coeff = gp(field(0, 3))
    return MatrixDiffOperator(1, 1, {
        (0, 0, 0): ScalarDiffOperator.single(coeff, 0),
        (1, 0, 0): ScalarDiffOperator.single(coeff, 0),
    })


class TestScalarOperators:
    def test_apply_sums_derivatives(self):
        op = ScalarDiffOperator({0: gp(field(0, 1)), 2: SuperPolynomial.scalar(3)})
        u = gp(field(0, 2))
        assert op.apply(u) == gp(field(0, 1)) * u + 3 * gp(field(0, 4))

    def test_compose_left_odd_coefficient(self):
        op = ScalarDiffOperator.single(gp(field(0, 1)), 0)
        moved = compose_D_left(op)
        assert moved.entries()[0] == gp(field(0, 2))
        assert moved.entries()[1] == -gp(field(0, 1))

    def test_compose_left_scalar(self):
        assert compose_D_left(ScalarDiffOperator.d_power(0)) == ScalarDiffOperator.d_power(1)

    def test_compose_left_even_coefficient(self):
        op = ScalarDiffOperator.single(gp(field(0, 2)), 1)
        moved = compose_D_left(op)
        assert moved.entries()[1] == gp(field(0, 3))
        assert moved.entries()[2] == gp(field(0, 2))

    def test_normal_order_is_semantically_faithful(self, seed):
        rng = random.Random(seed)
        pool = field_pool(2, 3)
        for _ in range(30):
            coeff = random_poly(rng, pool, max_terms=2, max_factors=2)
            op = ScalarDiffOperator({rng.randint(0, 2): coeff})
            u = random_poly(rng, pool, max_terms=2, max_factors=2)
            assert compose_D_left(op).apply(u) == superderive(op.apply(u))


class TestTypeConstraint:
    def test_wrong_parity_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MatrixDiffOperator(1, 1, {(0, 0, 0): ScalarDiffOperator.d_power(2)})

    def test_indices_validated(self):
        with pytest.raises(ValueError):
            MatrixDiffOperator(1, 1, {(0, 0, 1): ScalarDiffOperator.d_power(1)})

    def test_covector_coefficient_rejected(self):
        # The scan's basis covectors would collide with covectors in a
        # coefficient, so coefficients hold fields only: H = a D + D(a)/2 with
        # a = xi1_0 phi0(2) is skew, yet no verdict on it would mean anything.
        a = gp(covector(1, 0, 0, 0)) * gp(field(0, 2))
        entry = ScalarDiffOperator({1: a, 0: superderive(a).scaled(Fraction(1, 2))})
        with pytest.raises(ValueError, match=r"^coefficient at block 0, entry \(0,0\), power 1 "
                                             "must hold field generators only$"):
            MatrixDiffOperator(1, 1, {(0, 0, 0): entry, (1, 0, 0): entry})
        # in any term of the coefficient, alone or after fields, in any block
        odd = gp(field(1, 1)) + gp(field(0, 2)) * gp(field(1, 1)) * gp(covector(3, 1, 2, 0))
        for coeff in (odd, gp(covector(2, 0, 0, 1))):
            with pytest.raises(ValueError, match=r"block 1, entry \(0,1\), power 0 must hold field"):
                MatrixDiffOperator(1, 2, {(0, 0, 0): ScalarDiffOperator.d_power(1),
                                          (1, 0, 1): ScalarDiffOperator.single(coeff, 0)})


class TestOperatorSum:
    """``MatrixDiffOperator.__add__`` against an entry-wise sum."""

    @staticmethod
    def entrywise(a, b):
        sums = {key: a.entry(*key) + b.entry(*key) for key in set(a.blocks()) | set(b.blocks())}
        return {key: op for key, op in sums.items() if op}

    def test_matches_entrywise_sum(self, seed):
        rng = random.Random(seed)
        ops = [quintic_example(2)] + [build_type1_operator(spec)
                                      for spec in truncated_mutations(rng) if spec.dim == 2]
        for a in ops:
            b = rng.choice(ops)
            # Part of -a cancels those blocks of a exactly; the rest is b.
            negated = {key: op.scaled(-1) for key, op in a.blocks().items() if rng.random() < 0.5}
            for other in (b, MatrixDiffOperator(1, 2, negated), b.scaled(Fraction(1, 2))):
                total = a + other
                assert total.blocks() == self.entrywise(a, other)
                assert all(op for op in total.blocks().values())
                assert total == other + a

    def test_full_cancellation_has_no_blocks(self):
        h = quintic_example(2)
        assert (h + h.scaled(-1)).blocks() == {}
        assert h + h.scaled(-1) == MatrixDiffOperator(1, 2)

    def test_mismatched_operators_are_rejected(self):
        with pytest.raises(ValueError):
            quintic_example(1) + quintic_example(2)
        with pytest.raises(ValueError):
            constant_type1(5) + MatrixDiffOperator(0, 1)


class TestSkewSymmetry:
    def test_quintic_power_is_skew(self):
        assert check_skew_symmetry(constant_type1(5)) == (True, None)

    def test_cubic_power_is_not(self):
        ok, witness = check_skew_symmetry(constant_type1(3))
        assert not ok and witness[0] == "transpose"

    def test_field_only_operator_fails(self):
        ok, witness = check_skew_symmetry(field_only_type1())
        assert not ok

    def test_virasoro_like_entry_is_skew(self):
        assert check_skew_symmetry(quintic_example(1)) == (True, None)

    def test_block_relation_checked(self):
        bad = MatrixDiffOperator(1, 1, {
            (0, 0, 0): ScalarDiffOperator.d_power(5),
            (1, 0, 0): ScalarDiffOperator.d_power(5, -1),
        })
        ok, witness = check_skew_symmetry(bad)
        assert not ok and witness[0] == "block"

    def test_invariant_under_family_relabeling(self):
        op = quintic_example(2)
        for perm in permutations(range(2)):
            blocks = {}
            for (block, row, col), entry in op.blocks().items():
                blocks[(block, perm[row], perm[col])] = _relabel(entry, perm)
            relabeled = MatrixDiffOperator(1, 2, blocks)
            assert check_skew_symmetry(relabeled)[0]


def _relabel(entry, perm):
    out = {}
    for power, coeff in entry.entries().items():
        terms = []
        for mono, c in coeff.terms().items():
            gens = []
            for (kind, fam, dv, bp), exp in mono:
                gens.extend([(kind, perm[fam] if kind == 0 else fam, dv, bp)] * exp)
            terms.append((gens, c))
        out[power] = SuperPolynomial.from_terms(terms)
    return ScalarDiffOperator(out)


class TestSkewOracle:
    """``iter_skew_failures`` normal-orders D^l o c_l with one Leibniz table
    (``_leibniz_row``); the oracle composes D on the left l times
    (``skew_transpose`` through ``compose_D_power_left``)."""

    def operators(self, seed):
        """Seeded skew operators with D powers up to 7 over fields of orders
        1 to 3 (both parities), each followed by a copy with one coefficient
        of one stored entry changed."""
        rng = random.Random(seed)
        ops = []
        for _ in range(30):
            op = random_skew_operator(rng, powers=8)
            blocks = dict(op.blocks())
            key, power = rng.choice(sorted(blocks) or [(0, 0, 0)]), rng.randrange(8)
            bump = random_homogeneous(rng, field_pool(op.dim, 3), (op.type_parity + power) & 1)
            blocks[key] = blocks.get(key, ScalarDiffOperator.zero()) + ScalarDiffOperator({power: bump})
            ops += [op, MatrixDiffOperator(op.type_parity, op.dim, blocks)]
        return ops

    def test_failures_match_the_composition_oracle(self, seed):
        failing = high = 0
        for n, op in enumerate(self.operators(seed)):
            failures = list(iter_skew_failures(op))
            assert failures == list(dense_skew_failures(op))
            assert n % 2 or not failures  # the unchanged operators are skew
            failing += bool(failures)
            high += any(power >= 6 for entry in op.blocks().values() for power in entry.entries())
        assert failing >= 20 and high >= 10

    def test_leibniz_table_matches_repeated_composition(self, seed):
        rng = random.Random(seed)
        for parity in (0, 1):
            u = random_homogeneous(rng, field_pool(2, 3), parity)
            assert u and u.has_parity(parity)
            for power in range(9):
                row = dict(_leibniz_row(power, parity))
                table = ScalarDiffOperator({q: superderive_n(u, power - q).scaled(a)
                                            for q, a in row.items()})
                assert table == compose_D_power_left(ScalarDiffOperator.single(u, 0), power)
                assert max(row) == power and row[0] == 1


class TestLeibnizRow:
    """The closed-form Leibniz row against the recursion (``leibniz_rows``)
    for every power up to 300 at both parities, from every start."""

    def test_closed_form_matches_the_recursion(self):
        for parity in (0, 1):
            for power, row in zip(range(301), leibniz_rows(parity)):
                assert list(_leibniz_row(power, parity)) == [(q, a) for q, a in enumerate(row) if a]

    def test_every_start_gives_the_suffix(self):
        for parity in (0, 1):
            for power, row in zip(range(301), leibniz_rows(parity)):
                nonzero = [(q, a) for q, a in enumerate(row) if a]
                first = 0  # the first entry at or after start
                for start in range(power + 2):
                    first += first < len(nonzero) and nonzero[first][0] < start
                    assert list(_leibniz_row(power, parity, start)) == nonzero[first:]


class TestApplyOperator:
    def test_single_power(self):
        xi = covector(1, 0, 0, 0)
        out = apply_matrix_operator(constant_type1(5), {0: gp(xi)}, 1)
        assert out[0] == gp(covector(1, 0, 5, 0))

    def test_virasoro_entry_expansion(self):
        xi = covector(1, 0, 0, 0)
        out = apply_matrix_operator(quintic_example(1), {0: gp(xi)}, 1)
        expected = (
            gp(covector(1, 0, 5, 0))
            + 3 * gp(field(0, 1)) * gp(covector(1, 0, 2, 0))
            + gp(field(0, 2)) * gp(covector(1, 0, 1, 0))
            + 2 * gp(field(0, 3)) * gp(xi)
        )
        assert out[0] == expected

    def test_parity_mismatch_rejected(self):
        xi = covector(1, 0, 0, 0)
        with pytest.raises(ValueError):
            apply_matrix_operator(constant_type1(5), {0: gp(xi)}, 0)


class TestFrechet:
    def test_constant_coefficients_linearize_to_zero(self):
        assert frechet(constant_type1(5), covector(1, 0, 0, 0), 1) == {}

    def test_single_field_entry(self):
        coeff = gp(field(0, 1))
        op = MatrixDiffOperator(1, 1, {
            (0, 0, 0): ScalarDiffOperator.single(coeff, 0),
            (1, 0, 0): ScalarDiffOperator.single(coeff, 0),
        })
        xi = covector(1, 0, 0, 0)
        lin = frechet(op, xi, 1)
        assert lin == {(0, 0): ScalarDiffOperator.single(gp(xi), 0)}

    def test_virasoro_entry_orders(self):
        lin = frechet(quintic_example(1), covector(1, 0, 0, 0), 1)
        assert set(lin[(0, 0)].entries()) == {0, 1, 2}


class TestHamiltonian:
    def test_first_and_fifth_powers(self):
        assert is_hamiltonian(constant_type1(1)) == (True, None)
        assert is_hamiltonian(constant_type1(5)) == (True, None)

    def test_twisted_type0(self):
        assert is_hamiltonian(twisted_type0()) == (True, None)

    def test_defect_requires_skew(self):
        with pytest.raises(SkewSymmetryError):
            hamiltonian_defect(field_only_type1(), (0, 0, 0), (0, 0, 0))

    def test_defect_of_constant_operators_vanishes_exactly(self):
        # Constant coefficients have zero linearization, so the defect is the
        # zero polynomial, not merely a total derivative.
        for op in (constant_type1(1), constant_type1(5), twisted_type0()):
            for parities in product((0, 1), repeat=3):
                assert hamiltonian_defect(op, (0, 0, 0), parities).is_zero()

    def test_mutated_structure_constant_detected(self):
        bad = build_type1_operator(hand_checked_mutation())
        ok, witness = is_hamiltonian(bad)
        assert not ok and witness[0] == "closedness"

    def test_invariant_under_rescaling(self):
        op = quintic_example(1)
        assert is_hamiltonian(op.scaled(Fraction(-7, 3)))[0]
        bad = build_type1_operator(hand_checked_mutation())
        assert not is_hamiltonian(bad.scaled(Fraction(5, 2)))[0]


class TestSchouten:
    def test_self_bracket_of_first_power(self):
        op = constant_type1(1)
        for parities in product((0, 1), repeat=3):
            b = schouten_bracket(op, op, (0, 0, 0), parities)
            assert is_total_derivative(b)

    def test_diagonal_is_twice_defect(self):
        op = quintic_example(1)
        for parities in ((0, 0, 0), (1, 0, 1)):
            defect = hamiltonian_defect(op, (0, 0, 0), parities)
            bracket = schouten_bracket(op, op, (0, 0, 0), parities)
            assert bracket == 2 * defect

    def test_symmetric_in_arguments(self):
        a, b = constant_type1(1), constant_type1(5)
        q = quintic_example(1)
        for parities in ((0, 0, 0), (0, 1, 1), (1, 1, 0)):
            assert schouten_bracket(a, q, (0, 0, 0), parities) == \
                schouten_bracket(q, a, (0, 0, 0), parities)

    def test_bilinearity(self, seed):
        rng = random.Random(seed)
        a, b = constant_type1(1), constant_type1(5)
        q = quintic_example(1)
        for _ in range(3):
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            y = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            combo = a.scaled(x) + b.scaled(y)
            for parities in ((0, 0, 0), (1, 0, 1)):
                lhs = schouten_bracket(combo, q, (0, 0, 0), parities)
                rhs = x * schouten_bracket(a, q, (0, 0, 0), parities) \
                    + y * schouten_bracket(b, q, (0, 0, 0), parities)
                assert lhs == rhs

    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schouten_bracket(constant_type1(1), twisted_type0(), (0, 0, 0), (0, 0, 0))


class TestConfigurationScan:
    def corpus(self):
        for n in (1, 2, 3):
            yield quintic_example(n)
        for assignment in ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1}):
            yield build_type0_operator(make_exterior_example(assignment))
        yield constant_type1(1)
        yield constant_type1(5)
        yield twisted_type0()

    def assert_unlisted_have_zero_form(self, scan, form):
        """Every configuration the scan does not decide has the zero form; of a
        reduced scan, which decides one representative per S3 x (Z/2)^3 orbit,
        every member of an orbit without a decided representative.  Returns
        how many were skipped."""
        decided = scan._configurations()
        assert decided == sorted(set(decided))
        if scan._symmetric:
            assert all(config == min(_family_orbit(config)) for config in decided)
        skipped = 0
        for config in set(configurations(scan.dim)) - set(decided):
            if not scan._symmetric or min(_family_orbit(config)) not in decided:
                skipped += 1
                assert form(*config).is_zero()
        return skipped

    def test_skipped_configurations_have_zero_defect(self):
        skipped = 0
        for op in self.corpus():
            skipped += self.assert_unlisted_have_zero_form(
                ConfigurationScan.closedness(op),
                lambda families, parities: hamiltonian_defect(op, families, parities))
        assert skipped > 0

    def mixed_pairs(self):
        # A sparse operator without any symmetry between rows, columns and
        # blocks, so every index of the zero-pattern test and of the memo
        # keys matters.
        dense = quintic_example(2)
        sparse = MatrixDiffOperator(1, 2, {
            (0, 1, 0): ScalarDiffOperator({0: gp(field(1, 3)), 1: gp(field(0, 2))}),
            (1, 0, 1): ScalarDiffOperator({2: gp(field(1, 1))}),
            (0, 0, 0): ScalarDiffOperator.d_power(3),
        })
        return ((dense, sparse), (sparse, dense), (sparse, sparse))

    def test_scan_matches_per_configuration_brackets(self):
        for a, b in self.mixed_pairs():
            expected = [(families, parities) for families, parities in configurations(a.dim)
                        if not is_total_derivative(schouten_bracket(a, b, families, parities))]
            assert expected
            assert [f[:2] for f in iter_schouten_failures(a, b)] == expected

    def test_skipped_schouten_configurations_have_zero_bracket(self):
        skipped = 0
        for a, b in self.mixed_pairs():
            skipped += self.assert_unlisted_have_zero_form(
                ConfigurationScan.schouten(a, b),
                lambda families, parities: schouten_bracket(a, b, families, parities))
        assert skipped > 0

    def test_linearizations_and_applications_are_built_once_per_symbol(self, monkeypatch):
        linearized, applied = Counter(), Counter()
        real_frechet, real_apply = operators.frechet, operators._apply_to_symbol

        def counting_frechet(op, sym, omega_parity):
            assert sym[0] == COVECTOR_SLOTS[0]
            linearized[id(op), sym[1], sym[3], omega_parity] += 1
            return real_frechet(op, sym, omega_parity)

        def counting_apply(scalar, sym):
            assert sym[0] == COVECTOR_SLOTS[0]
            if scalar:
                applied[id(scalar), sym[1], sym[3]] += 1
            return real_apply(scalar, sym)

        monkeypatch.setattr(operators, "frechet", counting_frechet)
        monkeypatch.setattr(operators, "_apply_to_symbol", counting_apply)
        # built once per (operator, family, base parity) on the slot-1 symbol,
        # and each stored entry applied once to it; every slot reads the one
        # slot-free entry
        failing = build_type1_operator(hand_checked_mutation())
        built = 0
        for op in [*self.corpus(), failing]:
            linearized.clear()
            applied.clear()
            assert is_hamiltonian(op)[0] == (op is not failing)
            for counts in (linearized, applied):
                assert set(counts.values()) <= {1}
            # only parities (0, 0, 0) are decided, and the failing one stops
            # at its first witness, the representative
            assert len(linearized) <= op.dim
            built += bool(linearized) and bool(applied)
        # the constant operators and the exterior operator of the empty
        # assignment list no configuration and build nothing
        assert built == 6

    def test_verdicts_do_not_depend_on_the_declared_dimension(self):
        # Families past the stored entries carry no term, so re-declaring an
        # operator at dimension 10^6 keeps its verdict and first witnesses.
        ops = [*self.corpus(), build_type1_operator(hand_checked_mutation()),
               self.mixed_pairs()[0][1]]
        for op in ops:
            wide = MatrixDiffOperator(op.type_parity, 10 ** 6, dict(op.blocks()))
            assert list(islice(iter_skew_failures(wide), 3)) == \
                list(islice(iter_skew_failures(op), 3))
            assert is_hamiltonian(wide) == is_hamiltonian(op)
            assert _as_lists(ConfigurationScan.closedness(wide).failures(3)) == \
                _as_lists(ConfigurationScan.closedness(op).failures(3))

    def test_certificate_uses_the_least_linear_slot_tower(self):
        # Every form is linear in exactly its three slot towers; the
        # certificate must use the one of lowest top order (ties to the
        # generator order), found here by brute force.
        scans = [ConfigurationScan.closedness(op) for op in self.corpus()]
        scans += [ConfigurationScan.schouten(a, b) for a, b in self.mixed_pairs()]
        certifying_slots = set()
        for scan in scans:
            for families, parities in configurations(scan.dim):
                form = scan.three_form(families, parities)
                slots = [covector(slot, fam, 0, (par + 1) & 1)
                         for slot, fam, par in zip((1, 2, 3), families, parities)]
                certificate = non_membership_certificate(form)
                if not form:
                    assert certificate is None
                    continue
                linear = [base for base in form.bases() if base[0] != FIELD_KIND and all(
                    sum(exp for gen, exp in mono if base_of(gen) == base) == 1
                    for mono in form.terms())]
                assert sorted(linear) == slots
                base = min(slots, key=lambda b: (form.max_derivs(b), b))
                gradient = variational_derivative(form, base)
                assert certificate == ((base, gradient) if gradient else None)
                if certificate:
                    certifying_slots.add(base[0])
        assert certifying_slots == set(COVECTOR_SLOTS)

    def test_skew_symmetry_is_decided_once_per_operator(self, monkeypatch, tmp_path, capsys):
        calls = {}
        real_skew = operators.iter_skew_failures

        def counting_skew(op):
            calls[id(op)] = calls.get(id(op), 0) + 1
            return real_skew(op)

        monkeypatch.setattr(operators, "iter_skew_failures", counting_skew)
        monkeypatch.setattr(cli, "iter_skew_failures", counting_skew)
        op = quintic_example(2)
        assert is_hamiltonian(op) == (True, None)
        assert calls == {id(op): 1}

        calls.clear()
        a, b = constant_type1(1), constant_type1(5)
        assert is_hamiltonian_pair(a, b) == (True, None)
        assert calls == {id(a): 1, id(b): 1}

        calls.clear()
        path = tmp_path / "op.json"
        path.write_text(render_document(InputDocument("operator", quintic_example(2))))
        assert cli.main(["check-hamiltonian", str(path)]) == 0
        assert list(calls.values()) == [1]


def _as_lists(failures):
    return [(families, parities, base, str(gradient))
            for families, parities, base, gradient in failures]


def _slot_orbit(config):
    families, parities = config
    return {(tuple(families[k] for k in perm), tuple(parities[k] for k in perm))
            for perm in permutations(range(3))}


def _family_orbit(config):
    """The S3 x (Z/2)^3 orbit: every slot permutation at every parity triple."""
    return {(families, parities) for families, _ in _slot_orbit(config)
            for parities in product((0, 1), repeat=3)}


class TestScanOracle:
    """The orbit-reduced scan against the full scan of every configuration."""

    def skew_mutations(self, seed):
        """Skew operators of single-constant mutations: every circ/times one of
        the truncated n = 1, 2 bialgebras, and a seeded sample of those of the
        truncated n = 3 bialgebra and of the c34 exterior spec."""
        rng = random.Random(seed)
        ops = [build_type1_operator(spec) for spec in truncated_mutations(rng)]
        truncated3 = np_to_nx(make_truncated_example(3), 0)
        sites3 = [(name, site) for name in ("circ", "times")
                  for site in product(range(3), repeat=3)]
        for name, site in rng.sample(sites3, 4):
            ops.append(build_type1_operator(
                bumped(truncated3, name, site, rng.choice((1, -1, 2, -2)))))
        exterior = make_exterior_example({(3, 4): 1})
        for site in rng.sample(list(product(range(exterior.dim), repeat=3)), 4):
            ops.append(build_type0_operator(
                bumped(exterior, "circ", site, rng.choice((1, -1, 2)))))
        return [op for op in ops if check_skew_symmetry(op)[0]]

    def assert_matches_oracle(self, make_scan):
        full = _as_lists(full_scan_failures(make_scan()))
        for limit in (1, 3, None):
            expected = full[:limit]
            assert _as_lists(make_scan().failures(limit)) == expected
        return full

    def test_closedness_scan_matches_full_scan(self, seed):
        failing = 0
        for op in self.skew_mutations(seed):
            full = self.assert_matches_oracle(lambda: ConfigurationScan.closedness(op))
            failing += bool(full)
            # the symmetry itself: every failing set is closed under S3 and
            # under parity flips
            configs = {f[:2] for f in full}
            assert all(_family_orbit(config) <= configs for config in configs)
        assert failing >= 10

    def test_schouten_scan_matches_full_scan(self, seed):
        # mixed_pairs involve a non-skew operator (full scan); the truncated
        # n = 2 operator against skew mutations of it takes the reduced one
        base = quintic_example(2)
        mutants = [op for op in map(build_type1_operator, truncated_mutations(random.Random(seed)))
                   if op.dim == 2 and check_skew_symmetry(op)[0]][:3]
        failing = 0
        for a, b in TestConfigurationScan().mixed_pairs() + tuple((base, op) for op in mutants):
            failing += bool(self.assert_matches_oracle(lambda: ConfigurationScan.schouten(a, b)))
        assert failing >= 4

    def test_non_skew_schouten_scan_is_not_reduced(self):
        _, sparse = TestConfigurationScan().mixed_pairs()[0]
        assert not check_skew_symmetry(sparse)[0]
        failures = [f[:2] for f in iter_schouten_failures(sparse, sparse)]
        # the failing set is not closed under S3, so reducing it would drop
        # failures; the gated scan keeps all of them
        assert len(failures) == 15
        assert not all(_slot_orbit(config) <= set(failures) for config in failures)
        scan = ConfigurationScan.schouten(sparse, sparse)
        assert [f[:2] for f in full_scan_failures(scan)] == failures

    def test_non_skew_closedness_scan_matches_full_scan(self):
        # The scan decides skew-symmetry itself, so a non-skew operator gets
        # the full scan rather than an orbit reduction that raises.
        op = parse_document(str(FIXTURES / "sparse_nonskew.op.json")).payload
        assert not check_skew_symmetry(op)[0]
        full = self.assert_matches_oracle(lambda: ConfigurationScan.closedness(op))
        assert len(full) == 15
        assert _as_lists(operators.iter_closedness_failures(op)) == full

    def test_memo_matches_fresh_builds_on_every_slot(self, seed):
        # The scan builds linearizations and towers once, on slot-1 symbols,
        # and keeps them slot-free; placed on the symbol of any slot, each
        # must equal a fresh build on that symbol.
        ops = list(TestConfigurationScan().corpus()) + [TestConfigurationScan().mixed_pairs()[0][1]]
        ops += random.Random(seed).sample(self.skew_mutations(seed), 3)
        for op in ops:
            scan = ConfigurationScan.closedness(op)
            for slot, fam, par in product(reversed(COVECTOR_SLOTS), range(op.dim), (0, 1)):
                sym = covector(slot, fam, 0, (par + 1) & 1)
                rows = {}
                for (row, col), scalar in frechet(op, sym, par).items():
                    rows.setdefault(row, []).append((col, dict(scalar.entries())))
                assert placed_rows(scan._linearization(op, fam, sym[3]), sym) == rows
                applied = apply_matrix_operator(op, {fam: gp(sym)}, par)
                for col in range(op.dim):
                    derivative = applied[col]
                    for m in range(6):
                        assert placed(scan._derivative(op, fam, sym[3], col, m), sym) == derivative
                        derivative = superderive(derivative)

    def test_passing_member_of_a_failing_orbit_raises(self):
        # Forcing the reduction past the gate breaks the invariant; the scan
        # must raise on it rather than report a pass or drop the member.
        _, sparse = TestConfigurationScan().mixed_pairs()[0]
        scan = ConfigurationScan.schouten(sparse, sparse)
        scan._symmetric = True
        with pytest.raises(RuntimeError, match="orbit fails"):
            list(scan.failures())


class TestListingOracle:
    """``ConfigurationScan._configurations``, which lists each hit of a
    reduced scan by its sorted family triple, against ``rotation_listing``,
    which places every hit in its three cyclic rotations at every parity."""

    def assert_lists_like_the_rotations(self, scan):
        """Returns whether the scan is reduced and how many it lists."""
        listed = scan._configurations()
        expected = rotation_listing(scan)
        if scan._symmetric:
            expected = sorted({(tuple(sorted(families)), (0, 0, 0)) for families, _ in expected})
        assert listed == expected
        return scan._symmetric, len(listed)

    def test_scan_corpus(self):
        corpus = TestConfigurationScan()
        for op in corpus.corpus():
            assert self.assert_lists_like_the_rotations(ConfigurationScan.closedness(op))[0]
        for a, b in corpus.mixed_pairs():
            reduced, count = self.assert_lists_like_the_rotations(ConfigurationScan.schouten(a, b))
            assert not reduced and count

    def test_non_skew_scans_list_every_rotation(self):
        skew, non_skew = constant_type1(1), field_only_type1()
        sparse = parse_document(str(FIXTURES / "sparse_nonskew.op.json")).payload
        for scan in (ConfigurationScan.schouten(non_skew, skew),
                     ConfigurationScan.schouten(skew, non_skew),
                     ConfigurationScan.closedness(non_skew),
                     ConfigurationScan.closedness(sparse)):
            reduced, count = self.assert_lists_like_the_rotations(scan)
            assert not reduced and count

    def test_random_skew_operators(self, seed):
        # closedness, Schouten and pair scans of seeded skew operators, each
        # against the previous one of its type and dimension; pair scans list
        # from the joins of the pair, not from those of the scanned sum
        rng = random.Random(seed)
        previous, listing = {}, Counter()
        for _ in range(300):
            op = random_skew_operator(rng)
            key = (op.type_parity, op.dim)
            partner, previous[key] = previous.get(key, op), op
            for kind, scan in (("closedness", ConfigurationScan.closedness(op)),
                               ("schouten", ConfigurationScan.schouten(partner, op)),
                               ("pair", ConfigurationScan.pair(partner, op))):
                reduced, count = self.assert_lists_like_the_rotations(scan)
                assert reduced
                listing[kind] += count > 0
            # block 0 alone breaks the block relation, so its scan is not reduced
            half = MatrixDiffOperator(op.type_parity, op.dim,
                                      {key: entry for key, entry in op.blocks().items() if not key[0]})
            reduced, count = self.assert_lists_like_the_rotations(ConfigurationScan.closedness(half))
            assert reduced == (not half.blocks())
            listing["half"] += count > 0
        assert min(listing.values()) >= 100

    def test_truncated_representatives(self):
        for n, count in ((8, 31), (12, 83), (20, 314)):
            scan = ConfigurationScan.closedness(quintic_example(n))
            assert self.assert_lists_like_the_rotations(scan) == (True, count)


def _flipped(parities, slot):
    return tuple(p ^ (k == slot) for k, p in enumerate(parities))


def role_sign(iota, parities, slot, rotation):
    """The sign a cyclic term (arg, operand, closing) takes, beyond Phi_s,
    when the parity of ``slot`` flips: it depends only on the slot's role."""
    a, b, _ = rotation
    sym = [(p + 1) & 1 for p in parities]  # symbol parities
    if slot == a:
        return 1
    if slot == b:
        return -1 if (iota + sym[a]) & 1 else 1
    return -1 if (sym[a] + sym[b] + 1) & 1 else 1


def flip_sign(iota, parities, slot):
    """kappa with T(p + e_s) = kappa Phi_s(T(p)): the role sign times the
    ratio of the two configurations' signs, if it is one sign for all three
    rotations, else None."""
    kappas = {role_sign(iota, parities, slot, rotation) * before * after
              for rotation, before, after in zip(operators._CYCLIC,
                                                 operators._config_signs(iota, parities),
                                                 operators._config_signs(iota, _flipped(parities, slot)))}
    return kappas.pop() if len(kappas) == 1 else None


def cyclic_terms(scan, families, parities):
    """The three cyclic pairing terms of the scanned form, without their
    configuration signs, each from the pairing kernel."""
    bases = [(par + 1) & 1 for par in parities]
    symbols = [covector(slot, fam, 0, base) for slot, fam, base in zip(COVECTOR_SLOTS, families, bases)]
    terms = []
    for rotation in operators._CYCLIC:
        term = {}
        for op_a, op_b in scan._pairs:
            scan._pairing(term, op_a, op_b, rotation, families, bases, 1)
        terms.append(SlotForm(term, symbols, scan._fields).polynomial())
    return terms


class TestParityFlipLemma:
    """Flipping the parity of slot s maps a skew operator's three-form by
    kappa Phi_s, and Phi_s sends Im D onto Im D, so the 8 parity triples of a
    family triple share one verdict."""

    def test_sign_table_gives_one_kappa_per_case(self):
        cases = list(product((0, 1), product((0, 1), repeat=3), range(3)))
        assert len(cases) == 48
        assert all(flip_sign(*case) in (1, -1) for case in cases)

    def test_phi_anticommutes_with_D(self, seed):
        rng = random.Random(seed)
        fields = field_pool(2, 3)
        nonzero = members = 0
        for _ in range(60):
            slot, base_parity = rng.choice(COVECTOR_SLOTS), rng.randint(0, 1)
            others = [covector(t, rng.randint(0, 1), k, rng.randint(0, 1))
                      for t in COVECTOR_SLOTS if t != slot for k in range(2)]
            u = SuperPolynomial.from_terms(
                ([rng.choice(fields + others) for _ in range(rng.randint(0, 3))]
                 + [covector(slot, rng.randint(0, 1), rng.randint(0, 3), base_parity)],
                 rng.choice((1, -1, 2, Fraction(1, 2))))
                for _ in range(rng.randint(1, 3)))
            flipped = phi_flip(u, slot)
            assert phi_flip(flipped, slot) == u
            assert phi_flip(superderive(u), slot) == -superderive(flipped)
            # so Phi_s keeps membership in Im D, either way
            assert is_total_derivative(phi_flip(superderive(u), slot))
            assert is_total_derivative(flipped) == is_total_derivative(u)
            nonzero += bool(u)
            members += bool(u) and is_total_derivative(u)
        assert nonzero >= 50 and members >= 1

    def assert_flips_follow_phi(self, scan, families):
        """Each cyclic term follows Phi_s with its role sign, and the form
        with kappa, for all 8 parity triples and 3 slots; returns how many
        of the 8 forms are nonzero."""
        terms = {parities: cyclic_terms(scan, families, parities)
                 for parities in product((0, 1), repeat=3)}
        forms = {parities: scan.three_form(families, parities) for parities in terms}
        for parities, slot in product(terms, range(3)):
            flipped = _flipped(parities, slot)
            for rotation, term, image in zip(operators._CYCLIC, terms[parities], terms[flipped]):
                sign = role_sign(scan.type_parity, parities, slot, rotation)
                assert image == sign * phi_flip(term, COVECTOR_SLOTS[slot])
            kappa = flip_sign(scan.type_parity, parities, slot)
            assert forms[flipped] == kappa * phi_flip(forms[parities], COVECTOR_SLOTS[slot])
        return sum(map(bool, forms.values()))

    def test_flipped_forms_are_phi_images(self, seed):
        # closedness, Schouten and pair forms of seeded non-linear skew
        # operators, on the family triples that the scans decide
        rng = random.Random(seed)
        scans = []
        for _ in range(4):
            op = partner = random_skew_operator(rng)
            while partner is op or (partner.type_parity, partner.dim) != (op.type_parity, op.dim):
                partner = random_skew_operator(rng)
            assert check_skew_symmetry(op)[0] and check_skew_symmetry(partner)[0]
            scans += [ConfigurationScan.closedness(op), ConfigurationScan.schouten(op, partner),
                      ConfigurationScan.pair(op, partner)]
        nonzero = 0
        for scan in scans:
            decided = scan._configurations()
            assert scan._symmetric
            for families, _ in rng.sample(decided, min(2, len(decided))):
                nonzero += self.assert_flips_follow_phi(scan, families)
        assert nonzero >= 20

    def test_non_skew_operator_breaks_the_identity(self):
        # the block relation fails, so the flipped forms are not Phi_s images
        # and the gate must keep the full scan
        op = parse_document(str(FIXTURES / "sparse_nonskew.op.json")).payload
        scan = ConfigurationScan.closedness(op)
        broken = 0
        for (families, parities), slot in product(configurations(op.dim), range(3)):
            image = phi_flip(scan.three_form(families, parities), COVECTOR_SLOTS[slot])
            broken += scan.three_form(families, _flipped(parities, slot)) not in (image, -image)
        assert broken > 0


def random_sparse_operator(rng: random.Random) -> MatrixDiffOperator:
    """A seeded sparse operator of dimension 1 to 9: entries on or above the
    diagonal, on or below it, or on it only; in block 0, block 1 or both;
    coefficients with field families up to 8, also past the dimension."""
    dim, type_parity = rng.randint(1, 9), rng.randint(0, 1)
    side = rng.choice((min, max, None))
    used = rng.choice(((0,), (1,), (0, 1)))
    pool = field_pool(9, 2)
    blocks = {}
    for _ in range(rng.randint(1, 4)):
        row, col = rng.randrange(dim), rng.randrange(dim)
        row, col = (side(row, col), row + col - side(row, col)) if side else (row, row)
        scalar = ScalarDiffOperator({power: random_homogeneous(rng, pool, (type_parity + power) & 1)
                                     for power in rng.sample(range(4), rng.randint(1, 2))})
        for block in used:
            blocks[(block, row, col)] = scalar.scaled(rng.choice((1, 1, -1, 2)))
    return MatrixDiffOperator(type_parity, dim, blocks)


class TestSupportScanOracle:
    """The skew check and the linearization, which visit the stored entries,
    against the loops over every (row, col) pair of the declared dimension."""

    def operators(self, seed):
        rng = random.Random(seed)
        ops = list(TestConfigurationScan().corpus()) + [TestConfigurationScan().mixed_pairs()[0][1]]
        ops += rng.sample(TestScanOracle().skew_mutations(seed), 3)
        ops += [random_sparse_operator(rng) for _ in range(60)]
        return ops

    def test_skew_failures_match_the_dense_loop(self, seed):
        failing = 0
        for op in self.operators(seed):
            failures = list(iter_skew_failures(op))
            assert failures == list(dense_skew_failures(op))
            failing += bool(failures)
        assert failing >= 20

    def test_frechet_matches_the_dense_loop(self, seed):
        nonzero = 0
        for op in self.operators(seed):
            for slot, fam, par in product((1, 3), range(op.dim), (0, 1)):
                sym = covector(slot, fam, 0, (par + 1) & 1)
                lin = frechet(op, sym, par)
                assert list(lin.items()) == list(dense_frechet(op, sym, par).items())
                nonzero += bool(lin)
        assert nonzero >= 20


def _typed(poly):
    return {mono: (coeff, type(coeff)) for mono, coeff in poly.terms().items()}


def _typed_rows(rows):
    return {row: [(col, {m: _typed(coeff) for m, coeff in entries.items()}) for col, entries in cols]
            for row, cols in rows.items()}


def placed(pieces, sym):
    """Slot-free memo pieces (F, |F|, k, coeff) placed on the covector symbol
    sym: the polynomial of the terms coeff * F * D^k(sym)."""
    assert all(p == monomial_parity(f) for f, p, _, _ in pieces)
    return SuperPolynomial({f + (((sym[0], sym[1], k, sym[3]), 1),): c for f, _, k, c in pieces})


def placed_rows(rows, sym):
    return {row: [(col, {m: placed(pieces, sym) for m, pieces in entries.items()})
                  for col, entries in cols]
            for row, cols in rows.items()}


class TestMemoOracle:
    """Every memo entry of the scan, built by appending the covector symbol to
    field-only coefficients and partials and kept slot-free, placed on the
    symbol of each slot, against the general product (``dense_frechet``,
    ``applied_column``) on that symbol: polynomials and coefficient types."""

    def test_memo_entries_match_the_general_product(self, seed):
        rng = random.Random(seed)
        seen = Counter()
        for _ in range(60):
            op = random_sparse_operator(rng)
            if rng.random() < 0.5:
                op = op.scaled(Fraction(1, 2))
            for coeff in (c for scalar in op.blocks().values() for c in scalar.entries().values()):
                for mono, c in coeff.terms().items():
                    seen["nonlinear"] += sum(exp for _, exp in mono) > 1
                    seen["even power"] += any(exp > 1 for _, exp in mono)
                    seen["half"] += c.denominator == 2
            scan = ConfigurationScan.closedness(op)
            for slot, fam, par in product((3, 2, 1), range(op.dim), (0, 1)):
                sym = covector(slot, fam, 0, (par + 1) & 1)
                want = {}
                for (row, col), scalar in dense_frechet(op, sym, par).items():
                    want.setdefault(row, []).append((col, scalar.entries()))
                rows = placed_rows(scan._linearization(op, fam, sym[3]), sym)
                assert _typed_rows(rows) == _typed_rows(want)
                seen[f"linearized type {op.type_parity} block {par} slot {slot}"] += bool(rows)
                for col in range(op.dim):
                    column = applied_column(op, sym, col)
                    for m in range(3):
                        assert _typed(placed(scan._derivative(op, fam, sym[3], col, m), sym)) == \
                            _typed(superderive_n(column, m))
                    seen[f"applied type {op.type_parity} block {par} slot {slot}"] += bool(column)
        assert len(seen) == 3 + 2 * 2 * 2 * 3 and min(seen.values()) >= 3, seen


class TestPairingKernelOracle:
    """``ConfigurationScan.three_form``, which places slot-free memo pieces
    in the slots of each configuration by one sign rule, against
    ``relabelled_three_form``, which relabels slot-1 builds and multiplies
    them by the general product: forms and coefficient types on every
    configuration."""

    def scans(self, seed):
        corpus = list(TestConfigurationScan().corpus())
        # skew mutations of the truncated and exterior specs, and the
        # truncated ones that break skew-symmetry
        mutants = TestScanOracle().skew_mutations(seed)
        mutants += [op for op in map(build_type1_operator, truncated_mutations(random.Random(seed)))
                    if not check_skew_symmetry(op)[0]]
        halves = [op.scaled(Fraction(1, 2)) for op in corpus]
        scans = [ConfigurationScan.closedness(op) for op in corpus + mutants + halves]
        scans += [ConfigurationScan.schouten(a, b) for a, b in TestConfigurationScan().mixed_pairs()]
        # sums of int and Fraction coefficients: each mutant with half the
        # corpus operator of its type and dimension with the most blocks
        for op in mutants:
            half = max((h for h in halves if (h.type_parity, h.dim) == (op.type_parity, op.dim)),
                       key=lambda h: len(h.blocks()))
            scans.append(ConfigurationScan.pair(op, half))
        # A sum with a cyclic term that cancels inside itself at a monomial
        # where another term holds an int; summed straight into the form, the
        # term would leave Fraction(-3, 1) there instead of -3.
        op, other = (random_skew_operator(random.Random(s)) for s in (273878287, 273878288))
        scans.append(ConfigurationScan.closedness(op + other.scaled(Fraction(1, 2))))
        return scans

    def test_forms_match_the_relabelled_product(self, seed):
        seen = Counter()
        for scan in self.scans(seed):
            for families, parities in configurations(scan.dim):
                form = scan.three_form(families, parities)
                assert _typed(form) == _typed(relabelled_three_form(scan, families, parities))
                seen["fraction"] += any(type(c) is Fraction for c in form.terms().values())
                for rotation, term in zip(operators._CYCLIC, cyclic_terms(scan, families, parities)):
                    seen[scan.type_parity, parities, rotation] += bool(term)
        assert seen["fraction"] >= 10
        del seen["fraction"]
        # every rotation at every parity triple, for both operator types
        assert len(seen) == 2 * 8 * 3 and min(seen.values()) >= 1, seen


class TestSlotDecisionOracle:
    """``non_membership_certificate`` of the scan's ``SlotForm`` (the deciding
    slot read off its keys, the partials taken by position and the Euler sum
    run with D on the keys of the other slots) against the same function on
    ``three_form``, on every configuration of the ``TestPairingKernelOracle``
    corpus."""

    def test_certificates_match_the_general_decision(self, seed):
        seen = Counter()
        for scan in TestPairingKernelOracle().scans(seed):
            for families, parities in configurations(scan.dim):
                form = scan.three_form(families, parities)
                want = non_membership_certificate(form)
                got = non_membership_certificate(scan._keyed_form(families, parities))
                assert (got is None) == (want is None)
                if want is None:
                    continue
                (base, gradient), (got_base, got_gradient) = want, got
                assert got_base == base and str(got_gradient) == str(gradient)
                assert got_gradient == gradient
                tops = sorted(form.max_derivs(covector(slot, fam, 0, (par + 1) & 1))
                              for slot, fam, par in zip(COVECTOR_SLOTS, families, parities))
                seen[f"slot {base[0]}"] += 1
                seen[f"base parity {base[3]}"] += 1
                seen["top-order tie"] += tops[0] == tops[1]
        assert len(seen) == 3 + 2 + 1 and min(seen.values()) >= 1, seen


class TestApplyOracle:
    """Operator application, which visits the stored entries, against the
    loop over every row and every family of the assignment."""

    def test_apply_matches_the_dense_loop(self, seed):
        rng = random.Random(seed)
        nonzero = 0
        for op in TestSupportScanOracle().operators(seed):
            for block in (0, 1):
                # families past the dimension too, which no entry reaches
                pool = field_pool(op.dim + 2, 2)
                xi = {fam: random_homogeneous(rng, pool, (block + 1) & 1)
                      for fam in rng.sample(range(op.dim + 2), rng.randint(1, 3))}
                applied = apply_matrix_operator(op, xi, block)
                assert list(applied.items()) == list(dense_apply(op, xi, block).items())
                nonzero += any(applied.values())
        assert nonzero >= 20


def coefficients(op):
    return [c for scalar in op.blocks().values() for coeff in scalar.entries().values()
            for c in coeff.terms().values()]


class TestExactCoefficients:
    def test_builder_operators_hold_int(self):
        for op in (quintic_example(3),
                   build_type1_operator(hand_checked_mutation()),
                   build_type0_operator(make_exterior_example({(1, 2): 2, (3, 4): -1}))):
            assert coefficients(op) and all(type(c) is int for c in coefficients(op))

    def test_scan_defects_hold_int(self):
        op = build_type1_operator(hand_checked_mutation())
        scan = ConfigurationScan.closedness(op)
        forms = [scan.three_form(f, p) for f, p in configurations(op.dim)]
        assert any(forms)
        assert all(type(c) is int for form in forms for c in form.terms().values())
        (_, _, _, gradient), = scan.failures(limit=1)
        assert all(type(c) is int for c in gradient.terms().values())

    def test_halved_operator_stays_exact(self):
        op = build_type1_operator(hand_checked_mutation())
        half = op.scaled(Fraction(1, 2))
        assert Fraction(1, 2) in coefficients(half)
        assert coefficients(op.scaled(Fraction(4, 2))) == [2 * c for c in coefficients(op)]
        assert all(type(c) is int for c in coefficients(op.scaled(Fraction(4, 2))))
        # B is bilinear, so halving the operator quarters every defect.
        scan, half_scan = ConfigurationScan.closedness(op), ConfigurationScan.closedness(half)
        fractional = False
        for f, p in configurations(op.dim):
            form = half_scan.three_form(f, p)
            assert form == Fraction(1, 4) * scan.three_form(f, p)
            fractional |= any(isinstance(c, Fraction) for c in form.terms().values())
        assert fractional

    def test_scanned_forms_hold_int_where_integral(self):
        # Int operators plus half a partner of their type and dimension: the
        # forms sum Fractions to integers, which must come out as int.
        rng = random.Random(7)
        ops = [random_skew_operator(rng) for _ in range(6)]
        ops += [random_skew_operator(random.Random(s)) for s in (273878287, 273878288)]
        partners = {}
        seen = Counter()
        for op in ops:
            key = (op.type_parity, op.dim)
            partner, partners[key] = partners.get(key), op
            if partner is None:
                continue
            scan = ConfigurationScan.closedness(op + partner.scaled(Fraction(1, 2)))
            for families, parities in configurations(op.dim):
                coeffs = scan.three_form(families, parities).terms().values()
                integral = [c for c in coeffs if c.denominator == 1]
                assert all(type(c) is int for c in integral)
                seen["integral"] += len(integral)
                seen["mixed"] += bool(integral) and len(integral) < len(coeffs)
        assert seen["integral"] >= 1000 and seen["mixed"] >= 20, seen


class TestHamiltonianPair:
    def test_first_and_fifth_powers_pair(self):
        assert is_hamiltonian_pair(constant_type1(1), constant_type1(5)) == (True, None)

    def test_quintic_family_members_are_hamiltonian(self):
        # every rational combination a D + b D^5 of the pair is Hamiltonian
        combo = constant_type1(1).scaled(Fraction(3, 2)) + constant_type1(5).scaled(-2)
        assert is_hamiltonian(combo) == (True, None)

    def test_operator_pairs_with_itself(self):
        op = quintic_example(1)
        assert is_hamiltonian_pair(op, op) == (True, None)

    def test_skew_failure_is_an_error(self):
        with pytest.raises(SkewSymmetryError):
            is_hamiltonian_pair(constant_type1(1), field_only_type1())

    def test_pair_agrees_with_combinations(self, seed):
        rng = random.Random(seed)
        a, b = constant_type1(1), constant_type1(5)
        assert is_hamiltonian_pair(a, b)[0]
        for _ in range(5):
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            y = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            combo = a.scaled(x) + b.scaled(y)
            if not any(combo.blocks()):
                continue
            assert is_hamiltonian(combo)[0]

    def test_schouten_vanishing_matches_hamiltonian(self):
        good = quintic_example(1)
        assert schouten_vanishes(good, good)[0] == is_hamiltonian(good)[0]
        bad = build_type1_operator(hand_checked_mutation())
        assert schouten_vanishes(bad, bad)[0] == is_hamiltonian(bad)[0] == False


def outcome(test, *args):
    """``test(*args)``, or the type and message of the error it raises."""
    try:
        return test(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def dim2_type0_operators():
    """The type-0 operators of the 33 dim-2 circ tables with constants in
    {-1, 0, 1} that pass the fermionic Novikov axioms, in table order."""
    ops = []
    for cells in product((-1, 0, 1), repeat=8):
        spec = AlgebraSpec(dim=2, circ=[[cells[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
                                        for i in range(2)])
        if check_axioms(spec, "fermionic_novikov")[0]:
            ops.append(build_type0_operator(spec))
    return ops


class TestPairOracle:
    """``is_hamiltonian_pair``, which decides [H1, H2] as the Hamiltonian test
    of H1 + H2, against the scan of the mixed Schouten bracket."""

    def assert_pairs_match(self, pairs):
        failing = 0
        for op1, op2 in pairs:
            got = outcome(is_hamiltonian_pair, op1, op2)
            assert got == outcome(pair_oracle, op1, op2), (op1, op2)
            failing += got[0] is False
        return failing

    def test_dim2_type0_pairs(self):
        ops = dim2_type0_operators()
        assert len(ops) == 33
        assert self.assert_pairs_match(product(ops, repeat=2)) == 768

    def test_operator_and_its_double(self):
        for n in (1, 2, 3):
            op = quintic_example(n)
            assert self.assert_pairs_match([(op, op.scaled(2)), (op.scaled(2), op)]) == 0

    def test_constant_and_exterior_pairs(self):
        ops = [constant_type1(1), constant_type1(5)]
        assert self.assert_pairs_match(product(ops, repeat=2)) == 0
        ops = [build_type0_operator(make_exterior_example(a))
               for a in ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1})]
        self.assert_pairs_match(product(ops, repeat=2))

    def test_skew_mutations(self, seed):
        mutants = TestScanOracle().skew_mutations(seed)
        bases = {op.dim: op for op in map(quintic_example, (1, 2, 3))}
        pairs = [(bases[op.dim], op) for op in mutants if op.dim in bases]
        pairs += [(op, bases[op.dim]) for op in mutants[::3] if op.dim in bases]
        assert self.assert_pairs_match(pairs) >= 10

    def test_errors_are_those_of_the_schouten_formula(self):
        skew, non_skew = constant_type1(1), field_only_type1()
        for pair in ((skew, non_skew), (non_skew, skew), (non_skew, non_skew),
                     (skew, twisted_type0()), (skew, quintic_example(2))):
            got = outcome(is_hamiltonian_pair, *pair)
            assert got[0] in (SkewSymmetryError, ValueError)
            assert got == outcome(pair_oracle, *pair)

    def test_pair_scan_lists_the_mixed_configurations(self):
        # The sum's own joins also list the configurations of both defects,
        # which the two diagonal scans have already decided.
        constant = MatrixDiffOperator(1, 3, {(p, 2, 2): ScalarDiffOperator.d_power(5)
                                             for p in (0, 1)})
        exterior = [build_type0_operator(make_exterior_example(a))
                    for a in ({(3, 4): 1}, {(1, 2): 2})]
        for op1, op2 in ((constant, quintic_example(3)), tuple(exterior)):
            listed = ConfigurationScan.pair(op1, op2)._configurations()
            assert listed == ConfigurationScan.schouten(op1, op2)._configurations()
            assert len(listed) < len(ConfigurationScan.closedness(op1 + op2)._configurations())


class TestEvolutionRhs:
    def test_zero_density(self):
        out = evolution_rhs(constant_type1(1), SuperPolynomial.zero())
        assert all(p.is_zero() for p in out.values())

    def test_quadratic_density(self):
        density = gp(field(0, 1)) * gp(field(0, 2))
        out = evolution_rhs(constant_type1(1), density)
        assert out[0] == 2 * gp(field(0, 3))

    def test_super_kdv_form(self):
        phi = lambda n: gp(field(0, n))
        density = Fraction(-1, 2) * (phi(1) * phi(6)) + phi(1) * phi(2) * phi(2)
        out = evolution_rhs(constant_type1(1), density)
        mu = 2
        expected = (
            -phi(7)
            + mu * superderive(superderive(phi(1) * phi(2)))
            + (6 - 2 * mu) * (phi(2) * phi(3))
        )
        assert out[0] == expected

    def test_matches_the_gradient_of_every_family(self, seed):
        # The parent formula: gradients by every family of the dimension,
        # applied by the dense loop.
        rng = random.Random(seed)
        ops = [quintic_example(2), quintic_example(3),
               build_type0_operator(make_exterior_example({(3, 4): 1}))]
        nonzero = 0
        for op in ops * 8:
            families = rng.sample(range(op.dim + 1), rng.randint(1, 2))
            pool = [field(fam, order) for fam in families for order in (1, 2, 3)]
            density = random_homogeneous(rng, pool, rng.randint(0, 1))
            grads = {fam: variational_derivative(density, field(fam, 1)) for fam in range(op.dim)}
            parities = {g.homogeneous_parity() for g in grads.values() if g}
            block = (parities.pop() + 1) & 1 if parities else 0
            out = evolution_rhs(op, density)
            assert list(out.items()) == list(dense_apply(op, grads, block).items())
            nonzero += sum(map(bool, out.values())) > 1
        assert nonzero >= 2
