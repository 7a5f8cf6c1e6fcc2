"""Superderivation, variational operators, evolutionary derivations."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from svarcalc import (
    EvolutionaryField,
    GradedDerivation,
    QuotientDomainError,
    SuperPolynomial,
    check_commutes_with_D,
    covector,
    evolutionary_apply,
    evolutionary_bracket,
    field,
    is_total_derivative,
    normalize_monomial,
    parity,
    shift,
    superderive,
    superderive_n,
    variational_derivative,
    variational_derivative_field,
)
from svarcalc.algebra import FIELD_KIND, base_of
from svarcalc.calculus import FieldDerivatives, SlotForm, _deciding_bases, non_membership_certificate
from helpers import (
    field_pool,
    kernel_poly,
    mixed_pool,
    partial_by_scan,
    random_evolutionary,
    random_homogeneous,
    random_poly,
)


def gp(g):
    return SuperPolynomial.generator(g)


class TestSuperderive:
    def test_shifts_single_generator(self):
        assert superderive(gp(field(0, 1))) == gp(field(0, 2))
        assert superderive(gp(covector(1, 0, 2, 1))) == gp(covector(1, 0, 3, 1))

    def test_kills_scalars(self):
        assert superderive(SuperPolynomial.scalar(Fraction(5, 3))).is_zero()

    def test_graded_leibniz_on_odd_pair(self):
        u = gp(field(0, 1)) * gp(field(1, 1))
        expected = gp(field(0, 2)) * gp(field(1, 1)) - gp(field(0, 1)) * gp(field(1, 2))
        assert superderive(u) == expected

    def test_square_shifts_by_two(self, seed):
        rng = random.Random(seed)
        pool = mixed_pool(2, 4)
        for _ in range(30):
            u = random_poly(rng, pool)
            assert superderive_n(u, 2) == superderive(superderive(u))
        for a in range(2):
            for n in range(1, 4):
                assert superderive_n(gp(field(a, n)), 2) == gp(field(a, n + 2))

    def test_is_odd_derivation(self, seed):
        rng = random.Random(seed)
        pool = field_pool(2, 3)
        for _ in range(40):
            u = random_homogeneous(rng, pool, rng.randint(0, 1))
            v = random_poly(rng, pool)
            if not u:
                continue
            sign = -1 if u.homogeneous_parity() else 1
            assert superderive(u * v) == superderive(u) * v + sign * (u * superderive(v))


# -- test-only oracles: D by re-sorting raw generator lists, and per-order sums --

def superderive_by_normalization(u):
    """D through a raw generator list per factor, re-sorted by normalize_monomial."""
    acc = {}
    for mono, coeff in u.terms().items():
        left_parity = 0
        for idx, (gen, exp) in enumerate(mono):
            raw = [g for g, e in mono[:idx] for _ in range(e)]
            raw += [gen] * (exp - 1) + [shift(gen)]
            raw += [g for g, e in mono[idx + 1:] for _ in range(e)]
            new, sign = normalize_monomial(raw)
            if sign:
                c = coeff * exp * sign
                acc[new] = acc.get(new, 0) + (-c if left_parity & 1 else c)
            left_parity += parity(gen) * exp
    return SuperPolynomial({m: c for m, c in acc.items() if c})


def variational_by_partials(u, base):
    """The sum of c_m D^m P_m term by term: one partial scan and m
    derivatives per order m, all through the oracles above."""
    kind, family, _, base_parity = base
    total = SuperPolynomial.zero()
    for m in range(u.max_derivs(base) + 1):
        term = partial_by_scan(u, (kind, family, m, base_parity))
        for _ in range(m):
            term = superderive_by_normalization(term)
        exponent = m * (m - 1) // 2 + (m if base_parity == 0 else 0)
        total = total - term if exponent & 1 else total + term
    return total


def same(p, q):
    assert p.terms() == q.terms()
    assert str(p) == str(q)


class TestKernelOracle:
    """The in-place superderive and the Horner variational derivative against
    the normalization and per-order oracles on seeded polynomials."""

    def polys(self, seed, count=400):
        rng = random.Random(seed)
        return [kernel_poly(rng) for _ in range(count)]

    def test_superderive_matches_normalization(self, seed):
        cases = dict.fromkeys(("power", "odd hit", "even hit", "other parity", "half", "in place",
                               "inserted", "odd next", "even next"), 0)
        for u in self.polys(seed):
            same(superderive(u), superderive_by_normalization(u))
            for mono, coeff in u.terms().items():
                cases["half"] += not isinstance(coeff, int)
                present = dict(mono)
                for idx, (gen, exp) in enumerate(mono):
                    target = shift(gen)
                    cases["power"] += exp > 1
                    if target in present:
                        cases["odd hit" if parity(target) else "even hit"] += 1
                    cases["other parity"] += any(
                        gen < g < target and g[:3] == gen[:3] for g in present)
                    # D(gen) takes gen's place only when exp is 1 and the next
                    # factor sorts above it; a next factor equal to D(gen) gives
                    # 0 (odd) or a raised exponent (even) through the insertion
                    after = mono[idx + 1][0] if idx + 1 < len(mono) else None
                    in_place = exp == 1 and (after is None or after > target)
                    cases["in place" if in_place else "inserted"] += 1
                    if after == target:
                        cases["odd next" if parity(target) else "even next"] += 1
        # every branch of the insertion occurred
        assert all(cases.values()), cases

    def test_variational_derivative_matches_per_order_sum(self, seed):
        bases = 0
        for u in self.polys(seed + 1):
            for base in sorted(u.bases()):
                same(variational_derivative(u, base), variational_by_partials(u, base))
                bases += 1
        assert bases > 800

    def test_derivatives_of_derivatives(self, seed):
        # D(u) has shifted factors next to unshifted ones, so the second
        # application lands on present generators far more often.
        for u in self.polys(seed + 2, count=150):
            du = superderive_by_normalization(u)
            same(superderive(du), superderive_by_normalization(du))
            for base in sorted(du.bases()):
                same(variational_derivative(du, base), variational_by_partials(du, base))

    def test_fixed_cases(self):
        g = SuperPolynomial.generator
        even, odd = field(0, 2), field(0, 1)
        # phi0(2)^3: the exponent drops and D(phi0(2)) = phi0(3) is appended.
        cube = g(even) * g(even) * g(even)
        same(superderive(cube), 3 * g(even) * g(even) * g(field(0, 3)))
        # phi0(2)*phi0(3): D(phi0(2)) lands on the odd phi0(3) and vanishes.
        same(superderive(g(even) * g(field(0, 3))), g(even) * g(field(0, 4)))
        # phi0(1)*phi0(2): D(phi0(1)) raises the exponent of phi0(2).
        same(superderive(g(odd) * g(even)), g(even) * g(even) - g(odd) * g(field(0, 3)))
        # xi1_0 with base parity 0 passes the odd xi1_0 of base parity 1.
        lo, hi = covector(1, 0, 0, 0), covector(1, 0, 0, 1)
        same(superderive(g(lo) * g(hi)), -(g(hi) * g(covector(1, 0, 1, 0)))
             + g(lo) * g(covector(1, 0, 1, 1)))
        half = Fraction(1, 2) * g(odd) * g(even)
        same(superderive(half), superderive_by_normalization(half))


class TestVariationalDerivative:
    def test_quadratic_example(self):
        u = gp(field(0, 1)) * gp(field(0, 2))
        assert variational_derivative_field(u, 0) == 2 * gp(field(0, 2))

    def test_other_family_vanishes(self):
        assert variational_derivative_field(gp(field(1, 1)), 0).is_zero()

    def test_kills_total_derivatives(self):
        v = gp(field(0, 1)) * gp(field(1, 1))
        assert variational_derivative_field(superderive(v), 0).is_zero()
        assert variational_derivative_field(superderive(v), 1).is_zero()

    def test_kills_total_derivatives_randomly(self, seed):
        rng = random.Random(seed)
        pool = mixed_pool(3, 5)
        for _ in range(200):
            u = random_poly(rng, pool, max_terms=4)
            du = superderive(u)
            for base in sorted(du.bases()):
                assert variational_derivative(du, base).is_zero()

    def test_rejects_derived_generator_base(self):
        with pytest.raises(ValueError):
            variational_derivative(gp(field(0, 2)), field(0, 2))


class TestTotalDerivativeMembership:
    def test_image_recognized(self):
        v = gp(field(0, 1)) * gp(field(1, 1))
        assert is_total_derivative(superderive(v))

    def test_non_image_rejected(self):
        assert not is_total_derivative(gp(field(0, 1)) * gp(field(0, 2)))

    def test_zero_is_trivially_total(self):
        assert is_total_derivative(SuperPolynomial.zero())

    def test_constant_term_is_out_of_domain(self):
        with pytest.raises(QuotientDomainError):
            is_total_derivative(SuperPolynomial.one() + gp(field(0, 2)))

    def test_covector_cases(self):
        odd = covector(1, 0, 0, 1)
        even = covector(2, 0, 0, 0)
        assert is_total_derivative(superderive(gp(odd) * gp(even)))
        # xi * D(xi) for an odd base is not a total derivative (xi^2 = 0)
        assert not is_total_derivative(gp(odd) * gp(covector(1, 0, 1, 1)))

    def test_deciding_bases_match_brute_force(self, seed):
        # The tower search follows only the first monomial's covector towers;
        # the oracle applies the definition to every tower occurring.
        def linear_towers(u):
            return [base for base in u.bases() if base[0] != FIELD_KIND and all(
                sum(exp for gen, exp in mono if base_of(gen) == base) == 1
                for mono in u.terms())]

        def oracle(u):
            linear = linear_towers(u)
            if linear:
                return [min(linear, key=lambda base: (u.max_derivs(base), base))]
            return sorted(u.bases())

        xi, eta = covector(1, 0, 0, 1), covector(2, 0, 0, 0)
        fixed = [
            gp(field(0, 1)) * gp(xi),
            # xi is linear in the first monomial only; eta in both.
            gp(xi) * gp(eta) + gp(covector(1, 0, 1, 1)) * gp(xi) * gp(covector(2, 0, 1, 0)),
            # eta is absent from the second monomial.
            gp(xi) * gp(eta) + gp(covector(1, 0, 2, 1)),
            # eta squared, then eta linear: no linear tower.
            gp(eta) * gp(eta) * gp(field(0, 2)) + gp(eta) * gp(field(0, 1)),
            gp(field(0, 1)) * gp(field(1, 2)),
            SuperPolynomial.zero(),
        ]
        rng = random.Random(seed)
        polys = fixed + [random_poly(rng, mixed_pool(2, 2), max_terms=4, max_factors=5)
                         for _ in range(1500)]
        rng = random.Random(seed + 1)
        polys += [kernel_poly(rng) for _ in range(1500)]
        linear = dropped = 0
        for u in polys:
            assert _deciding_bases(u) == oracle(u)
            towers = linear_towers(u)
            first = next(iter(u.terms()), ())
            candidates = {base_of(gen) for gen, exp in first if gen[0] != FIELD_KIND}
            linear += bool(towers)
            dropped += bool(candidates - set(towers)) and len(u.terms()) > 1
        assert linear > 500 and dropped > 500


class TestSlotFormOracle:
    """``SlotForm``, which works on keys (F, k_1, ..., k_n), against the general
    path on its own polynomial, for seeded forms of one to three slots: the
    variational derivative by every slot symbol, the certificate, and D."""

    def test_keyed_results_match_the_polynomial(self, seed):
        rng = random.Random(seed)
        pool = [field(fam, order) for fam in range(2) for order in (1, 2, 3)]
        seen = Counter()
        for _ in range(400):
            n = rng.randint(1, 3)
            symbols = [covector(slot, rng.randrange(2), 0, rng.randrange(2)) for slot in range(1, n + 1)]
            terms = {}
            for _ in range(rng.randint(1, 5)):
                fields, sign = normalize_monomial(rng.sample(pool, rng.randint(0, 2)))
                if fields is not None:
                    key = (fields, *(rng.randrange(4) for _ in range(n)))
                    terms[key] = terms.get(key, 0) + sign * rng.choice((1, 2, -3, Fraction(1, 2)))
            form = SlotForm({key: c for key, c in terms.items() if c}, symbols, FieldDerivatives())
            poly = form.polynomial()
            for slot, symbol in enumerate(symbols):
                gradient = variational_derivative(form, symbol)
                assert gradient == variational_derivative(poly, symbol)
                seen[f"{n} slots, slot {slot + 1} nonzero"] += bool(gradient)
            want = non_membership_certificate(poly)
            assert str(non_membership_certificate(form)) == str(want)
            seen["failing"] += want is not None
            assert form.polynomial(form.derive(form.terms)) == superderive(poly)
        assert len(seen) == 1 + 2 + 3 + 1 and min(seen.values()) >= 5, seen


class TestEvolutionaryFields:
    def test_component_parity_enforced(self):
        with pytest.raises(ValueError):
            EvolutionaryField(parity=0, components={0: gp(field(0, 2))})

    def test_order_zero_action(self):
        f = EvolutionaryField(parity=1, components={0: gp(field(0, 2))})
        assert evolutionary_apply(f, gp(field(0, 1))) == gp(field(0, 2))

    def test_order_one_action_carries_derivation_parity_sign(self):
        # Components phi(2) make an odd derivation; its order-1 coefficient is
        # -D(phi(2)), forced by commutation with the superderivation.
        f = EvolutionaryField(parity=1, components={0: gp(field(0, 2))})
        assert evolutionary_apply(f, gp(field(0, 2))) == -gp(field(0, 3))

    def test_zero_component_family(self):
        f = EvolutionaryField(parity=1, components={0: gp(field(0, 2))})
        assert evolutionary_apply(f, gp(field(1, 3))).is_zero()

    def test_commutes_with_superderivation(self, seed):
        rng = random.Random(seed)
        pool = field_pool(2, 3)
        for _ in range(50):
            f = random_evolutionary(rng, 2, 3)
            probes = [random_poly(rng, pool, max_terms=2) for _ in range(3)]
            assert check_commutes_with_D(f, probes)

    def test_zero_field_commutes(self):
        f = EvolutionaryField(parity=0, components={})
        assert check_commutes_with_D(f, [gp(field(0, 2))])

    def test_mismatched_tower_detected(self):
        bad = GradedDerivation(parity=0, coefficients={
            (0, 1): gp(field(0, 1)),
            (0, 2): 2 * gp(field(0, 2)),
        })
        assert not check_commutes_with_D(bad, [gp(field(0, 1))])


class TestEvolutionaryBracket:
    def test_self_bracket_of_even_field_vanishes(self, seed):
        rng = random.Random(seed)
        f = random_evolutionary(rng, 2, 2, parity=0)
        b = evolutionary_bracket(f, f)
        assert all(not c for c in b.components.values())

    def test_graded_skew(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            f = random_evolutionary(rng, 2, 2)
            g = random_evolutionary(rng, 2, 2)
            fwd = evolutionary_bracket(f, g)
            back = evolutionary_bracket(g, f)
            sign = -1 if (f.parity & g.parity) else 1
            for fam in range(2):
                assert (fwd.component(fam) + sign * back.component(fam)).is_zero()

    def test_graded_jacobi(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            f, g, h = (random_evolutionary(rng, 2, 2) for _ in range(3))
            t1 = evolutionary_bracket(f, evolutionary_bracket(g, h))
            t2 = evolutionary_bracket(g, evolutionary_bracket(h, f))
            t3 = evolutionary_bracket(h, evolutionary_bracket(f, g))
            s2 = -1 if (f.parity & (g.parity ^ h.parity)) else 1
            s3 = -1 if (h.parity & (f.parity ^ g.parity)) else 1
            for fam in range(2):
                total = t1.component(fam) + s2 * t2.component(fam) + s3 * t3.component(fam)
                assert total.is_zero()

    def test_bracket_parity_adds(self, seed):
        rng = random.Random(seed)
        f = random_evolutionary(rng, 1, 2, parity=1)
        g = random_evolutionary(rng, 1, 2, parity=1)
        assert evolutionary_bracket(f, g).parity == 0
