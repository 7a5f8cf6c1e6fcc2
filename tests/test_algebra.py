"""Core algebra: canonical monomials, graded products, partial derivatives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarcalc import (
    SuperPolynomial,
    covector,
    field,
    normalize_monomial,
    parity,
    partial_derive,
)
from svarcalc.algebra import _exact, _mul_monomials, mul_into, tower_partials
from svarcalc.modes import CENTRAL, NUM, FormalDistribution, phi_symbol
from svarcalc.operators import ScalarDiffOperator
from helpers import (
    KERNEL_COEFFS,
    KERNEL_POOL,
    field_pool,
    kernel_poly,
    merge_monomials,
    mixed_pool,
    partial_by_scan,
    random_poly,
    times_generator_into,
)

ONE = SuperPolynomial.one()


def gen_poly(g):
    return SuperPolynomial.generator(g)


class TestGenerators:
    def test_field_parity_alternates_with_order(self):
        assert parity(field(0, 1)) == 1
        assert parity(field(0, 2)) == 0
        assert parity(field(3, 7)) == 1

    def test_covector_parity_shifts_with_derivatives(self):
        assert parity(covector(1, 0, 0, 0)) == 0
        assert parity(covector(1, 0, 1, 0)) == 1
        assert parity(covector(2, 1, 3, 1)) == 0

    def test_field_order_must_be_positive(self):
        with pytest.raises(ValueError):
            field(0, 0)


class TestNormalizeMonomial:
    def test_odd_swap_gives_minus(self):
        mono, sign = normalize_monomial([field(1, 1), field(0, 1)])
        assert sign == -1
        assert mono == ((field(0, 1), 1), (field(1, 1), 1))

    def test_even_square_is_plain(self):
        mono, sign = normalize_monomial([field(0, 2), field(0, 2)])
        assert sign == 1
        assert mono == ((field(0, 2), 2),)

    def test_odd_square_vanishes(self):
        mono, sign = normalize_monomial([field(0, 1), field(0, 1)])
        assert sign == 0
        assert mono is None

    def test_idempotent_on_sorted_input(self):
        gens = [field(0, 1), field(0, 2), field(1, 1)]
        mono, sign = normalize_monomial(gens)
        assert sign == 1
        flat = [g for g, e in mono for _ in range(e)]
        assert normalize_monomial(flat) == (mono, 1)


class TestPolyMul:
    def test_unit(self):
        u = gen_poly(field(0, 1)) * gen_poly(field(1, 2))
        assert ONE * u == u
        assert u * ONE == u

    def test_odd_odd_anticommute(self):
        a, b = gen_poly(field(0, 1)), gen_poly(field(1, 1))
        assert a * b == -(b * a)

    def test_mixed_sum_times_odd(self):
        a1, a3 = gen_poly(field(0, 1)), gen_poly(field(0, 3))
        assert (a1 + a3) * a1 == -(a1 * a3)

    def test_scalar_multiplication(self):
        u = gen_poly(field(0, 2))
        assert 2 * u + Fraction(1, 2) * u == Fraction(5, 2) * u


class TestPolyAdd:
    def test_zero_is_neutral(self):
        u = gen_poly(field(0, 1)) * 3
        assert u + SuperPolynomial.zero() == u

    def test_cancellation(self):
        u = gen_poly(field(0, 1))
        assert (u + (-1) * u).is_zero()

    def test_exact_halves(self):
        u = gen_poly(field(0, 2))
        assert Fraction(1, 2) * u + Fraction(1, 2) * u == u


class TestPartialDerive:
    def test_removes_leading_odd_factor(self):
        u = gen_poly(field(0, 1)) * gen_poly(field(0, 2))
        assert partial_derive(u, field(0, 1)) == gen_poly(field(0, 2))

    def test_sign_through_odd_prefix(self):
        u = gen_poly(field(0, 1)) * gen_poly(field(0, 2))
        assert partial_derive(u, field(0, 2)) == gen_poly(field(0, 1))

    def test_absent_generator_gives_zero(self):
        assert partial_derive(gen_poly(field(1, 2)), field(0, 1)).is_zero()

    def test_even_exponent_rule(self):
        u = gen_poly(field(0, 2)) * gen_poly(field(0, 2))
        assert partial_derive(u, field(0, 2)) == 2 * gen_poly(field(0, 2))


class TestAlgebraKernelOracle:
    """One-pass tower partials and one-generator insertion against a partial
    scan per generator and the general product."""

    def test_tower_partials_match_one_scan_per_order(self, seed):
        rng = random.Random(seed)
        towers = 0
        for _ in range(400):
            u = kernel_poly(rng)
            for base in sorted(u.bases()):
                kind, family, _, base_parity = base
                expected = {}
                for m in range(u.max_derivs(base) + 1):
                    part = partial_by_scan(u, (kind, family, m, base_parity))
                    if part:
                        expected[m] = part
                got = tower_partials(u, base)
                assert list(got) == sorted(expected)
                for m, part in expected.items():
                    assert got[m].terms() == part.terms() and str(got[m]) == str(part)
                    assert partial_derive(u, (kind, family, m, base_parity)) == part
                towers += 1
        assert towers > 800

    def test_times_generator_matches_product(self, seed):
        # The closing-covector step of the scan's oracle
        # (``relabelled_three_form``) against the general product.
        rng = random.Random(seed + 1)
        for _ in range(200):
            u = kernel_poly(rng)
            base = kernel_poly(rng)
            for gen in KERNEL_POOL:
                product = u * SuperPolynomial.generator(gen)
                acc = {}
                times_generator_into(acc, u.terms(), gen)
                got = SuperPolynomial(acc)
                assert got.terms() == product.terms() and str(got) == str(product)
                # Into a nonempty dict with sign -1: terms merge and cancel.
                acc = dict(base.terms())
                times_generator_into(acc, u.terms(), gen, -1)
                assert SuperPolynomial(acc).terms() == (base - product).terms()
                acc = dict(product.terms())
                times_generator_into(acc, u.terms(), gen, -1)
                assert acc == {}


# Fields of twelve families and covectors of every slot, two families and
# both base parities: enough distinct generators for monomials of 60.
PRODUCT_POOL = (field_pool(12, 4)
                + [covector(s, f, k, bp) for s in (1, 2, 3) for f in range(2)
                   for k in range(3) for bp in (0, 1)])


def canonical_monomial(rng, pool, length):
    """A sorted monomial of ``length`` distinct generators of ``pool``; even
    generators carry exponents up to 3."""
    gens = sorted(rng.sample(pool, length))
    return tuple((g, rng.randint(1, 3) if not parity(g) else 1) for g in gens)


def product_pair(rng):
    """Two canonical monomials: short ones from a few generators, so that
    even repeats and odd collisions are common, or long ones of 20 to 60
    whose odd generators are mostly kept apart, so that the product is
    usually nonzero."""
    if rng.random() < 0.85:
        pool = rng.sample(PRODUCT_POOL, 10)
        return (canonical_monomial(rng, pool, rng.randint(0, 8)),
                canonical_monomial(rng, pool, rng.randint(0, 8)))
    m1 = canonical_monomial(rng, PRODUCT_POOL, rng.randint(20, 60))
    taken = {g for g, _ in m1 if parity(g)} if rng.random() < 0.8 else set()
    pool = [g for g in PRODUCT_POOL if g not in taken]
    return m1, canonical_monomial(rng, pool, rng.randint(20, min(60, len(pool))))


class TestProductOracle:
    """The monomial product as insertions, against a merge of the two sorted
    monomials (``merge_monomials``)."""

    def test_monomial_products_match_merge(self, seed):
        rng = random.Random(seed)
        seen = {"empty": 0, "vanishing": 0, "negative": 0, "even repeat": 0, "long": 0}
        for _ in range(3000):
            m1, m2 = product_pair(rng)
            want = merge_monomials(m1, m2)
            assert _mul_monomials(m1, m2) == want
            seen["empty"] += not (m1 and m2)
            seen["vanishing"] += want[1] == 0
            seen["negative"] += want[1] < 0
            seen["long"] += len(m1) >= 20 and want[1] != 0
            seen["even repeat"] += bool({g for g, _ in m1 if not parity(g)}
                                        & {g for g, _ in m2}) and want[1] != 0
        assert min(seen.values()) >= 50, seen

    def test_polynomial_products_match_merge(self, seed):
        rng = random.Random(seed + 1)
        for _ in range(300):
            pairs = [product_pair(rng) for _ in range(rng.randint(1, 4))]
            u = SuperPolynomial({m1: rng.choice(KERNEL_COEFFS) for m1, _ in pairs})
            v = SuperPolynomial({m2: rng.choice(KERNEL_COEFFS) for _, m2 in pairs})
            want = {}
            for m1, c1 in u.terms().items():
                for m2, c2 in v.terms().items():
                    mono, sign = merge_monomials(m1, m2)
                    if sign:
                        want[mono] = want.get(mono, 0) + (c1 * c2 if sign > 0 else -c1 * c2)
            want = {m: c for m, c in want.items() if c}
            acc = {}
            mul_into(acc, u, v)
            product = (u * v).terms()
            assert acc == product == want
            types = {m: type(c) for m, c in want.items()}
            assert {m: type(c) for m, c in acc.items()} == types
            assert {m: type(c) for m, c in product.items()} == types


class TestExactCoefficients:
    def test_integral_inputs_give_int(self):
        u = SuperPolynomial.from_terms([([field(0, 2)], Fraction(4, 2)),
                                        ([field(1, 1), field(0, 1)], 3)])
        assert all(type(c) is int for c in u.terms().values())
        assert type(SuperPolynomial.scalar(Fraction(6, 3)).constant_term()) is int
        assert all(type(c) is int for c in (Fraction(2) * u).terms().values())
        assert type(SuperPolynomial.generator(field(0, 1)).terms()[((field(0, 1), 1),)]) is int

    def test_fractional_inputs_stay_exact(self):
        u = SuperPolynomial.from_terms([([field(0, 2)], Fraction(1, 2))])
        (coeff,) = u.terms().values()
        assert coeff == Fraction(1, 2) and isinstance(coeff, Fraction)
        assert (3 * u).terms() == {((field(0, 2), 1),): Fraction(3, 2)}
        assert str(Fraction(1, 3) * u) == "1/6*phi0(2)"
        assert (u + u) == gen_poly(field(0, 2))

    def test_exact_keeps_int_and_converts_bool(self):
        big = 10 ** 30 + 1
        assert _exact(big) is big
        for value, want in ((True, 1), (False, 0), (Fraction(6, 3), 2)):
            assert _exact(value) == want and type(_exact(value)) is int
        assert _exact(Fraction(3, 2)) == Fraction(3, 2) and _exact("-1/2") == Fraction(-1, 2)

    def test_int_and_fraction_render_and_compare_alike(self):
        as_int = SuperPolynomial({((field(0, 2), 1),): 2})
        as_fraction = SuperPolynomial({((field(0, 2), 1),): Fraction(2)})
        assert as_int == as_fraction and str(as_int) == str(as_fraction) == "2*phi0(2)"


# -- hypothesis strategies ----------------------------------------------------

_GENS = field_pool(2, 3) + [covector(1, 0, 0, 1), covector(2, 1, 1, 0)]

monomials = st.lists(st.sampled_from(_GENS), min_size=0, max_size=4)
coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
polys = st.lists(st.tuples(monomials, coeffs), min_size=0, max_size=4).map(
    SuperPolynomial.from_terms
)


def homogeneous_parts(p):
    return [part for part in (p.even_part(), p.odd_part()) if part]


@given(st.lists(st.sampled_from(_GENS), min_size=0, max_size=5), st.randoms())
def test_normalization_is_order_independent(gens, rnd):
    mono, sign = normalize_monomial(gens)
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    mono2, sign2 = normalize_monomial(shuffled)
    if sign == 0:
        assert sign2 == 0
    else:
        assert mono2 == mono
        # The relative sign must match the parity of the odd-element permutation
        # connecting the two orderings: reordering twice composes signs.
        odd1 = [g for g in gens if parity(g)]
        odd2 = [g for g in shuffled if parity(g)]
        inv = 0
        pos = {(g, i): None for i, g in enumerate(odd1)}
        # count inversions between the two odd sequences
        order = []
        used = [False] * len(odd1)
        for g in odd2:
            for i, h in enumerate(odd1):
                if not used[i] and h == g:
                    used[i] = True
                    order.append(i)
                    break
        inv = sum(1 for i in range(len(order)) for j in range(i + 1, len(order))
                  if order[i] > order[j])
        assert sign2 == sign * (-1) ** inv


@given(polys, polys)
def test_super_commutativity(u, v):
    for uh in homogeneous_parts(u):
        for vh in homogeneous_parts(v):
            sign = -1 if (uh.homogeneous_parity() & vh.homogeneous_parity()) else 1
            assert uh * vh == sign * (vh * uh)


@settings(max_examples=60)
@given(polys, polys, polys)
def test_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(st.sampled_from([g for g in _GENS if parity(g) == 1]))
def test_odd_nilpotency(g):
    p = gen_poly(g)
    assert (p * p).is_zero()


@given(st.sampled_from(_GENS), polys, polys)
def test_graded_leibniz_for_partials(g, u, v):
    gp = parity(g)
    lhs = partial_derive(u * v, g)
    rhs = SuperPolynomial.zero()
    for uh in homogeneous_parts(u):
        sign = -1 if (gp & uh.homogeneous_parity()) else 1
        rhs = rhs + partial_derive(uh, g) * v + sign * (uh * partial_derive(v, g))
    assert lhs == rhs


@given(polys)
def test_odd_partials_anticommute(u):
    g, h = field(0, 1), field(1, 1)
    assert partial_derive(partial_derive(u, g), h) == -partial_derive(partial_derive(u, h), g)
    assert partial_derive(partial_derive(u, g), g).is_zero()


@given(polys)
def test_parity_decomposition_recomposes(u):
    assert u.even_part() + u.odd_part() == u


def _random_combinations(rng):
    """One seeded combination of each ``Sparse`` subclass."""
    pool = mixed_pool(2, 3)
    poly = random_poly(rng, pool)
    op = ScalarDiffOperator({power: random_poly(rng, pool)
                             for power in rng.sample(range(6), rng.randint(1, 4))})
    dist = FormalDistribution({
        ((rng.randint(-2, 2), rng.randint(-2, 2), 0), thetas, sym):
            Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        for thetas in ((), (1,), (1, 2)) for sym in (NUM, CENTRAL, phi_symbol(0, 3))})
    return poly, op, dist


def test_canonical_form_has_no_zero_coefficients(seed):
    rng = random.Random(seed)
    for _ in range(50):
        combos = _random_combinations(rng)
        for x in combos:
            assert all(c for c in x.terms().values())
            # subtracting every other term cancels exactly those terms
            keys = list(x.terms())
            half = type(x)({k: x.terms()[k] for k in keys[1::2]})
            rest = x - half
            assert list(rest.terms()) == keys[::2]
            assert all(c for c in rest.terms().values())
            assert rest + half == x
            y = (x + x.scaled(3)) - x.scaled(4)
            assert y.is_zero() and not y.terms() and not y
            assert (x - x).is_zero() and not (x - x).terms()
            assert x.scaled(0).is_zero() and not x.scaled(0).terms()
            assert -(-x) == x and x.scaled(-1) == -x
            for other in combos:
                if other is not x:
                    assert x != other and not x == other
                    assert type(x).zero() != type(other).zero()
                    with pytest.raises(TypeError):
                        x + other
                    with pytest.raises(TypeError):
                        x - other
