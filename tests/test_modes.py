"""Formal distribution calculus and the induced mode superalgebras."""

import random
from fractions import Fraction

import pytest

from svarcalc import (
    CENTRAL,
    check_skew_symmetry,
    FormalDistribution,
    LinearOperatorData,
    ModeBracketTable,
    apply_Di,
    check_super_jacobi,
    check_super_skew,
    induce_bracket,
    make_delta,
    mode_field,
    phi_symbol,
    super_virasoro_table,
    virasoro_operator_data,
)
from svarcalc import modes
from svarcalc.modes import (
    NUM,
    _kernel,
    apply_Di_n,
    mode_parity,
    render_combo,
    render_mode,
    render_table,
    z_shift,
)

from helpers import (
    CENTRAL_FIELD,
    apply_Di_by_cases,
    extract_pairs,
    induce_by_products,
    kernel_factors,
    linear_data,
    truncated_mutations,
)

F = Fraction


def interior_equal(a: FormalDistribution, b: FormalDistribution, bound: int) -> bool:
    return a.restrict(bound) == b.restrict(bound)


def z_derivative(x: FormalDistribution, var: int) -> FormalDistribution:
    idx = var - 1
    out = FormalDistribution.zero()
    for (z, th, sym), coeff in x.terms().items():
        if z[idx]:
            newz = tuple(e - 1 if i == idx else e for i, e in enumerate(z))
            out = out + FormalDistribution({(newz, th, sym): coeff * z[idx]})
    return out


class TestDelta:
    def test_antisymmetry(self):
        assert (make_delta(1, 2, 6) + make_delta(2, 1, 6)).is_zero()

    def test_diagonal_coefficient(self):
        assert make_delta(1, 2, 6).coefficient((0, 0, 0), (1,)) == {NUM: F(1)}

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            make_delta(1, 1, 4)

    def test_substitution_identity(self):
        # Multiplying the odd delta by a function of the first pair of
        # variables equals multiplying by the same function of the second,
        # on interior coefficients.
        M = 8
        delta = make_delta(1, 2, M)
        for var in (1, 2):
            f = (z_shift(var, 1)
                 + FormalDistribution.monomial((0, 0, 0), (var,)) * z_shift(var, 2))
            if var == 1:
                lhs = f * delta
            else:
                rhs = f * delta
        assert interior_equal(lhs, rhs, M - 3)
        assert not interior_equal(lhs, FormalDistribution.zero(), M - 3)

    def test_substitution_identity_random_laurent(self, seed):
        # Arbitrary f = f0(z) + theta f1(z) with Laurent coefficients.
        rng = random.Random(seed)
        M = 8
        delta = make_delta(1, 2, M)
        for _ in range(20):
            span = 3
            shape = [(rng.randint(-span, span), rng.randint(-3, 3), rng.randint(0, 1))
                     for _ in range(rng.randint(1, 4))]
            sides = []
            for var in (1, 2):
                f = FormalDistribution.zero()
                for power, coeff, with_theta in shape:
                    term = z_shift(var, power).scaled(coeff)
                    if with_theta:
                        term = FormalDistribution.monomial((0, 0, 0), (var,)) * term
                    f = f + term
                sides.append(f * delta)
            assert interior_equal(sides[0], sides[1], M - span - 1)


class TestOddDerivation:
    def test_removes_theta(self):
        x = FormalDistribution.monomial((3, 0, 0), (1,))
        out = apply_Di(x, 1)
        assert out.coefficient((3, 0, 0), ()) == {NUM: F(1)}
        # theta * d/dz contributes nothing when theta_1 is already present
        assert out.coefficient((2, 0, 0), (1,)) == {}

    def test_square_is_z_derivative(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                z = (rng.randint(-3, 3), rng.randint(-3, 3), 0)
                th = tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))
                sym = rng.choice([NUM, CENTRAL, phi_symbol(0, rng.randint(-3, 3))])
                terms[(z, th, sym)] = F(rng.randint(-3, 3))
            x = FormalDistribution({k: v for k, v in terms.items() if v})
            assert apply_Di(apply_Di(x, 1), 1) == z_derivative(x, 1)
            assert apply_Di(apply_Di(x, 2), 2) == z_derivative(x, 2)

    def test_derivative_swap_identities(self):
        # z2^{-1} D_1^{2n} Delta = (-1)^n z1^{-1} D_2^{2n} Delta and the odd
        # counterpart with (-1)^{n+1}, on interior coefficients (M = 8).
        M = 8
        delta = make_delta(1, 2, M)
        z1inv, z2inv = z_shift(1, -1), z_shift(2, -1)
        for n in (0, 1, 2):
            bound = M - 2 * n - 2
            lhs = z2inv * apply_Di_n(delta, 1, 2 * n)
            rhs = (z1inv * apply_Di_n(delta, 2, 2 * n)).scaled((-1) ** n)
            assert interior_equal(lhs, rhs, bound)
            lhs = z2inv * apply_Di_n(delta, 1, 2 * n + 1)
            rhs = (z1inv * apply_Di_n(delta, 2, 2 * n + 1)).scaled((-1) ** (n + 1))
            assert interior_equal(lhs, rhs, bound - 1)


def random_distribution(rng: random.Random) -> FormalDistribution:
    """Up to six terms over all three variables: z-exponents that are often
    zero, theta patterns over {1, 2, 3}, and NUM, central and phi symbols of
    both parities."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        z = tuple(rng.choice((0, rng.randint(-3, 3))) for _ in range(3))
        th = tuple(sorted(rng.sample((1, 2, 3), rng.randint(0, 3))))
        sym = rng.choice((NUM, CENTRAL, phi_symbol(rng.randrange(3), rng.randint(-5, 5))))
        terms[(z, th, sym)] = rng.choice((1, -1, 2, -3, F(1, 2), F(-5, 3)))
    return FormalDistribution(terms)


class TestOddDerivationOracle:
    def test_matches_the_rule_by_cases(self, seed):
        rng = random.Random(seed)
        for _ in range(600):
            x = random_distribution(rng)
            for var in (1, 2, 3):
                out, expected = apply_Di(x, var).terms(), apply_Di_by_cases(x, var).terms()
                assert out == expected
                assert [type(c) for c in out.values()] == [type(c) for c in expected.values()]

    def test_rejects_a_bad_variable(self):
        for var in (0, 4):
            with pytest.raises(ValueError):
                apply_Di(FormalDistribution.zero(), var)


class TestModeFields:
    def test_mode_exponent_alignment(self):
        f = mode_field(0, 1, 1, 3)
        # integer mode n sits at z-exponent -n-2 together with theta_1
        assert f.coefficient((-2, 0, 0), (1,)) == {phi_symbol(0, 0): F(1)}
        assert f.coefficient((-2, 0, 0), ()) == {phi_symbol(0, 1): F(1)}

    def test_half_modes_anticommute_with_theta(self):
        theta = FormalDistribution.monomial((0, 0, 0), (1,))
        half = FormalDistribution.monomial((0, 0, 0), (), phi_symbol(0, 1))
        integer = FormalDistribution.monomial((0, 0, 0), (), phi_symbol(0, 2))
        assert theta * half == (half * theta).scaled(-1)
        assert theta * integer == integer * theta


class TestInducedBracket:
    def test_matches_closed_form(self):
        for fams in (1, 2):
            induced = induce_bracket(virasoro_operator_data(fams), 3)
            closed = super_virasoro_table(fams, 3)
            assert induced.entries == closed.entries

    def test_window_stability(self):
        data = virasoro_operator_data(2)
        wide = induce_bracket(data, 4)
        narrow = induce_bracket(data, 3)
        inner = {k: v for k, v in wide.entries.items()
                 if abs(k[0][1]) <= 6 and abs(k[1][1]) <= 6}
        assert inner == narrow.entries

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            induce_bracket(virasoro_operator_data(1), 0)

    def test_rejects_non_skew_data(self):
        data = LinearOperatorData(
            top_order=1, dim=1,
            even_tables=((((F(1),),),), (((F(0),),),)),
            odd_tables=((((F(0),),),),),
        )
        with pytest.raises(ValueError, match="skew"):
            induce_bracket(data, 2)

    def test_central_terms(self):
        table = induce_bracket(virasoro_operator_data(1), 4)
        # odd modes: [phi(m+1/2), phi(n+1/2)] carries (n+1)n c at m+n+1 = 0
        assert table.bracket((0, 3), (0, -3)) == {phi_symbol(0, 0): F(1), CENTRAL: F(2)}
        # even modes: [phi(m), phi(n)] carries -(n+1)n(n-1) c at m+n = 0
        assert table.bracket((0, 6), (0, -6)) == {phi_symbol(0, 0): F(12), CENTRAL: F(24)}
        assert table.bracket((0, 4), (0, -6)) == {phi_symbol(0, -2): F(10)}

    def test_mixed_bracket_coefficient(self):
        # [phi_i(m+1/2), phi_j(n)] = ((j+2)(m+1) - (i+1)(n+1)) phi(m+n+1/2)
        table = induce_bracket(virasoro_operator_data(2), 3)
        m, n, i, j = 1, -2, 0, 1
        value = table.bracket((i, 2 * m + 1), (j, 2 * n))
        coeff = F((j + 2) * (m + 1) - (i + 1) * (n + 1))
        assert value == {phi_symbol(i + j, 2 * (m + n) + 1): coeff}

    def test_opposite_half_modes_without_central_charge(self):
        # modes 1/2 and -1/2 cancel but the central coefficient (n+1)n
        # vanishes at n = -1, so only the shifted mode survives
        table = induce_bracket(virasoro_operator_data(1), 3)
        assert table.bracket((0, 1), (0, -1)) == {phi_symbol(0, 0): F(1)}


class TestTableChecks:
    def test_skew_and_jacobi_pass(self):
        for fams in (1, 2):
            table = super_virasoro_table(fams, 4)
            assert check_super_skew(table) == (True, None)
            assert check_super_jacobi(table) == (True, None)

    def test_odd_modes_bracket_symmetrically(self):
        table = super_virasoro_table(1, 4)
        for m in range(-3, 4):
            for n in range(-3, 4):
                fwd = table.bracket((0, 2 * m + 1), (0, 2 * n + 1))
                back = table.bracket((0, 2 * n + 1), (0, 2 * m + 1))
                assert fwd == back

    def test_mutated_table_fails_skew(self):
        table = super_virasoro_table(1, 3)
        entries = dict(table.entries)
        key = ((0, 2), (0, 4))
        entries[key] = {s: -c for s, c in entries[key].items()}
        mutated = ModeBracketTable(dim=1, window=3, entries=entries)
        ok, witness = check_super_skew(mutated)
        assert not ok and witness is not None

    def test_mutated_table_fails_jacobi(self):
        table = super_virasoro_table(1, 3)
        entries = dict(table.entries)
        key = ((0, 2), (0, 4))
        entries[key] = {s: 2 * c for s, c in entries[key].items()}
        mutated = ModeBracketTable(dim=1, window=3, entries=entries)
        ok, witness = check_super_jacobi(mutated)
        assert not ok and witness is not None

    def test_central_element_is_inert(self):
        # brackets never pair against the central symbol; combinations
        # containing it contribute nothing to nested brackets
        table = super_virasoro_table(1, 3)
        combo = {CENTRAL: F(5)}
        assert nested_bracket(table, combo, (0, 2)) == {}


class TestRendering:
    def test_mode_names(self):
        assert render_mode((0, 4)) == "phi0(2)"
        assert render_mode((1, -3)) == "phi1(-3/2)"

    def test_combo_rendering(self):
        combo = {phi_symbol(0, 2): F(-1), CENTRAL: F(3, 2)}
        assert render_combo(combo) == "3/2*c - phi0(1)"


# -- test-only oracles: the full O(K^3) sweep and the coefficient-scan extraction --


def nested_bracket(table, combo, w):
    """[combo, w] through ``table.bracket``; None when a mode leaves the window.
    A stored coefficient 0 is no term."""
    out = {}
    for sym, coeff in combo.items():
        if sym == CENTRAL or not coeff:
            continue
        inner = table.bracket((sym[1], sym[2]), w)
        if inner is None:
            return None
        for s, c in inner.items():
            out[s] = out.get(s, 0) + coeff * c
    return {s: c for s, c in out.items() if c}


def jacobiator(table, x, y, z):
    """S(x, y, z) = [[x,y],z] + (-1)^{px(py+pz)} [[y,z],x] + (-1)^{pz(px+py)} [[z,x],y]
    through ``table.bracket``, without zero coefficients; None when the triple
    is not admissible."""
    terms = [nested_bracket(table, table.bracket(u, v), w)
             for u, v, w in ((x, y, z), (y, z, x), (z, x, y))]
    if any(t is None for t in terms):
        return None
    px, py, pz = mode_parity(x), mode_parity(y), mode_parity(z)
    signs = (1, -1 if px & (py ^ pz) else 1, -1 if pz & (px ^ py) else 1)
    total = {}
    for sign, combo in zip(signs, terms):
        for s, c in combo.items():
            total[s] = total.get(s, 0) + sign * c
    return {s: c for s, c in total.items() if c}


def full_jacobi_sweep(table):
    """Graded Jacobi over every ordered triple of interior modes, in order."""
    keys = table.mode_keys()
    for x in keys:
        for y in keys:
            for z in keys:
                if jacobiator(table, x, y, z):
                    return False, (x, y, z)
    return True, None


def sorted_jacobi_sweep(table):
    """Graded Jacobi over the sorted triples of interior modes only, in order."""
    keys = table.mode_keys()
    for i, x in enumerate(keys):
        for j in range(i, len(keys)):
            for k in range(j, len(keys)):
                if jacobiator(table, x, keys[j], keys[k]):
                    return False, (x, keys[j], keys[k])
    return True, None


def full_skew_sweep(table):
    """Graded skew-symmetry over every ordered pair of interior modes, in order,
    through ``table.bracket``."""
    keys = table.mode_keys()
    for x in keys:
        for y in keys:
            sign = -1 if mode_parity(x) & mode_parity(y) else 1
            total = dict(table.bracket(x, y))
            for s, c in table.bracket(y, x).items():
                total[s] = total.get(s, 0) + sign * c
            if any(total.values()):
                return False, (x, y)
    return True, None


def induce_by_scan(data, window):
    """``induce_bracket`` entries with every mode pair read by ``coefficient``."""
    n, d = data.top_order, data.dim
    delta = make_delta(1, 2, window + n + 2)
    delta_derivs = [apply_Di_n(delta, 1, p) for p in range(2 * n + 4)]
    field_derivs = {g: [apply_Di_n(mode_field(g, 1, n, 2 * window + n + 2), 1, p)
                        for p in range(2 * n + 1)] for g in range(d)}
    central = FormalDistribution.monomial((0, 0, 0), (), CENTRAL)
    thetas = {(0, 0): (1, 2), (0, 1): (1,), (1, 0): (2,), (1, 1): ()}
    bound = 2 * window
    entries = {}
    for a in range(d):
        for b in range(d):
            x = FormalDistribution.zero()
            for g in range(d):
                for m in range(n + 1):
                    term = field_derivs[g][2 * (n - m)] * delta_derivs[2 * m]
                    x = x + term.scaled(data.even_tables[m][a][b][g])
                for m in range(n):
                    term = field_derivs[g][2 * (n - m) - 1] * delta_derivs[2 * m + 1]
                    x = x + term.scaled(data.odd_tables[m][a][b][g])
            if data.constant is not None:
                x = x + (delta_derivs[2 * n + 3] * central).scaled(data.constant[a][b])
            x = z_shift(2, -1) * x
            for k1 in range(-bound, bound + 1):
                for k2 in range(-bound, bound + 1):
                    zexp = (-(k1 // 2) - n - 1, -(k2 // 2) - n - 1, 0)
                    combo = x.coefficient(zexp, thetas[(k1 & 1, k2 & 1)])
                    if k1 % 2 == 0 and k2 % 2:
                        combo = {s: -c for s, c in combo.items()}
                    if combo:
                        entries[((a, k1), (b, k2))] = combo
    return entries


def halved(data):
    """``data`` with every table entry and the constant block halved."""
    half = lambda tables: tuple(
        tuple(tuple(tuple(c * F(1, 2) for c in cell) for cell in row) for row in t)
        for t in tables)
    constant = tuple(tuple(c * F(1, 2) for c in row) for row in data.constant)
    return LinearOperatorData(data.top_order, data.dim, half(data.even_tables),
                              half(data.odd_tables), constant)


def perturbed_table(rng, families, window, mirrored):
    """A closed-form table with one entry shifted; ``mirrored`` also shifts
    the reverse entry so that super skew symmetry still holds."""
    table = super_virasoro_table(families, window)
    entries = {k: dict(v) for k, v in table.entries.items()}
    keys = table.mode_keys()
    x, y = rng.sample(keys, 2)
    sym = rng.choice((CENTRAL, phi_symbol(rng.randrange(families), x[1] + y[1]),
                      phi_symbol(rng.randrange(families), x[1] + y[1] + rng.choice((-2, 2)))))
    delta = rng.choice((1, -1, 2, -2))
    shifts = [((x, y), delta)]
    if mirrored:
        shifts.append(((y, x), -delta if (x[1] & y[1] & 1) == 0 else delta))
    for key, change in shifts:
        combo = entries.setdefault(key, {})
        combo[sym] = combo.get(sym, 0) + change
        if not combo[sym]:
            del combo[sym]
    entries = {k: v for k, v in entries.items() if v}
    return ModeBracketTable(dim=families, window=window, entries=entries)


class TestSweepOracles:
    def test_jacobi_matches_full_sweep_on_perturbed_tables(self, seed):
        # Mirrored perturbations keep the table skew, so the sorted sweep
        # decides them; the others take the rotation sweep.
        rng = random.Random(seed)
        outcomes = {False: [], True: []}
        for families in (1, 2, 3):
            for window in (2, 3):
                for mirrored in (False, True):
                    for _ in range(2):
                        table = perturbed_table(rng, families, window, mirrored)
                        expected = full_jacobi_sweep(table)
                        assert check_super_jacobi(table) == expected
                        outcomes[mirrored].append(expected[0])
                        if mirrored:
                            assert check_super_skew(table) == (True, None)
        assert False in outcomes[False] and False in outcomes[True]

    def test_skew_matches_full_sweep(self, seed):
        rng = random.Random(seed)
        tables = [super_virasoro_table(families, window) for families, window
                  in ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 3))]
        tables += [perturbed_table(rng, families, window, mirrored)
                   for families in (1, 2, 3) for window in (2, 3)
                   for mirrored in (False, True) for _ in range(3)]
        outcomes = []
        for table in tables:
            expected = full_skew_sweep(table)
            assert check_super_skew(table) == expected
            outcomes.append(expected[0])
        assert True in outcomes and False in outcomes

    def test_skew_witness_is_first_in_row_major_order(self):
        # [phi(1), phi(-1)] is stored only in reverse order, and a later pair
        # fails too; entries of a family beyond dim or outside the window are
        # not interior pairs and are ignored.
        x, y = (0, -2), (0, 2)
        entries = {((0, 0), (0, 1)): {phi_symbol(0, 1): 1},
                   (y, x): {phi_symbol(0, 0): 1},
                   ((1, 0), (0, 0)): {phi_symbol(0, 0): 1},
                   ((0, 4), (0, 0)): {phi_symbol(0, 4): 1}}
        table = ModeBracketTable(dim=1, window=1, entries=entries)
        assert full_skew_sweep(table) == (False, (x, y))
        assert check_super_skew(table) == (False, (x, y))
        del entries[(y, x)]
        assert check_super_skew(table) == full_skew_sweep(table) == (False, ((0, 0), (0, 1)))
        del entries[((0, 0), (0, 1))]
        assert check_super_skew(table) == full_skew_sweep(table) == (True, None)

    def test_skew_decides_the_diagonal(self):
        # [x, x] = -[x, x] forces [x, x] = 0 on an integer mode, while any
        # [x, x] is skew on a half-integer mode.
        for families, window in ((1, 2), (2, 1)):
            base = super_virasoro_table(families, window)
            for key in base.mode_keys():
                entries = {k: dict(v) for k, v in base.entries.items()}
                combo = entries.setdefault((key, key), {})
                combo[CENTRAL] = combo.get(CENTRAL, 0) + 1
                table = ModeBracketTable(dim=families, window=window, entries=entries)
                expected = (True, None) if key[1] & 1 else (False, (key, key))
                assert check_super_skew(table) == full_skew_sweep(table) == expected
                assert check_super_jacobi(table) == full_jacobi_sweep(table)

    def test_jacobi_matches_full_sweep_on_closed_forms(self):
        for families, window in ((1, 2), (1, 3), (2, 2), (3, 2)):
            table = super_virasoro_table(families, window)
            assert check_super_jacobi(table) == full_jacobi_sweep(table) == (True, None)

    def test_scaled_entry_witness_matches_full_sweep(self):
        # Tripling [phi(1), phi(-1/2)] first fails on ((0, -3), (0, 2), (0, -1)),
        # a triple that is not the least key of the window.
        table = super_virasoro_table(1, 2)
        entries = dict(table.entries)
        key = ((0, 2), (0, -1))
        entries[key] = {s: 3 * c for s, c in entries[key].items()}
        mutated = ModeBracketTable(dim=1, window=2, entries=entries)
        expected = full_jacobi_sweep(mutated)
        assert not expected[0]
        assert check_super_jacobi(mutated) == expected

    def test_diagonal_triple_is_swept(self):
        # [x, x] = x for the odd mode x = phi(1/2) fails Jacobi on (x, x, x) only.
        x = (0, 1)
        table = ModeBracketTable(dim=1, window=1, entries={(x, x): {phi_symbol(0, 1): 1}})
        assert full_jacobi_sweep(table) == (False, (x, x, x))
        assert check_super_jacobi(table) == (False, (x, x, x))

    def test_out_of_window_and_central_terms_count_in_nested_brackets(self):
        # [[x, y], z] = [phi(0), z] + [phi(-1), z] carries phi(2), outside
        # window 1, and the central symbol; only their full cancellation by
        # [phi(-1), z] makes the triple pass.
        x, y, z = (0, 1), (0, -1), (0, 2)
        for cancel, ok in (({}, False), ({CENTRAL: -3}, False), ({phi_symbol(0, 4): -1}, False),
                           ({phi_symbol(0, 4): -1, CENTRAL: -3}, True)):
            entries = {(x, y): {phi_symbol(0, 0): 1, phi_symbol(0, -2): 1},
                       ((0, 0), z): {phi_symbol(0, 4): 1, CENTRAL: 3}}
            if cancel:
                entries[((0, -2), z)] = cancel
            table = ModeBracketTable(dim=1, window=1, entries=entries)
            expected = full_jacobi_sweep(table)
            assert expected == ((True, None) if ok else (False, (y, z, x)))
            assert check_super_jacobi(table) == expected

    def test_in_window_mode_beyond_the_families_is_admissible(self):
        # [x, y] holds phi1(0) in a one-family table: the triple stays
        # admissible, phi1(0) brackets through the entries like any mode
        # (to zero when it has none), and the triple fails unless its
        # bracket cancels [phi0(0), z].
        x, y, z = (0, 1), (0, -1), (0, 2)
        for extra, ok in ((None, False), ({phi_symbol(0, 2): F(-1, 5)}, True)):
            entries = {(x, y): {phi_symbol(1, 0): 5, phi_symbol(0, 0): 1},
                       ((0, 0), z): {phi_symbol(0, 2): 1}}
            if extra:
                entries[((1, 0), z)] = extra
            table = ModeBracketTable(dim=1, window=1, entries=entries)
            expected = full_jacobi_sweep(table)
            assert expected == ((True, None) if ok else (False, (y, z, x)))
            assert check_super_jacobi(table) == expected

    def test_induce_matches_scan_extraction_on_virasoro_data(self):
        for families, window in ((1, 2), (1, 3), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2), (3, 3)):
            data = virasoro_operator_data(families)
            assert induce_bracket(data, window).entries == induce_by_scan(data, window)

    def test_induce_matches_scan_extraction_on_half_coefficients(self):
        for families, window in ((1, 3), (2, 2), (3, 2)):
            data = halved(virasoro_operator_data(families))
            entries = induce_bracket(data, window).entries
            assert entries == induce_by_scan(data, window)
            assert any(type(c) is F for combo in entries.values() for c in combo.values())

    def test_induce_matches_scan_extraction_on_bialgebra_mutations(self, seed):
        rng = random.Random(seed)
        checked = 0
        for spec in truncated_mutations(rng):
            data = linear_data(spec)
            if not check_skew_symmetry(data.realize())[0]:
                continue
            assert induce_bracket(data, 2).entries == induce_by_scan(data, 2)
            checked += 1
        assert checked >= 5


def typed(entries):
    """Entries or kernel terms with the type of every coefficient."""
    return {key: {s: (c, type(c)) for s, c in (terms.items() if isinstance(terms, dict)
                                                else terms)}
            for key, terms in entries.items()}


class TestKernelOracle:
    """The closed-form kernels and the entries of ``induce_bracket`` against
    the distribution products they stand for (``extract_pairs`` and
    ``induce_by_products``)."""

    def test_kernels_match_the_products(self):
        central_terms = 0
        for n in (1, 2, 3, 4):
            for window, guard in [(w, None) for w in range(1, 7)] + [(3, n + 8)]:
                fields, deltas = kernel_factors(n, window, guard)
                for power in range(2 * n + 1):
                    kernel = {(k1, k2): [(phi_symbol(0, k1 + k2), c)]
                              for (k1, k2), c in _kernel(power, 2 * n - power, n, window).items()}
                    expected = extract_pairs(fields[2 * n - power] * deltas[power], n, window)
                    assert kernel and typed(kernel) == typed(expected)
                # The oracle forms delta * c: c is even and carries no theta,
                # so this is the central field times the delta.
                kernel = {pair: [(CENTRAL, c)]
                          for pair, c in _kernel(2 * n + 3, None, n, window).items()}
                expected = extract_pairs(deltas[2 * n + 3] * CENTRAL_FIELD, n, window)
                assert typed(kernel) == typed(expected)
                central_terms += len(kernel)
        assert central_terms > 50

    def test_induce_matches_the_products(self):
        # The oracle's delta reaches four modes beyond the band that the
        # window needs, so the entries are exact inside it.
        for families in (1, 2, 3):
            data = virasoro_operator_data(families)
            bare = LinearOperatorData(1, families, data.even_tables, data.odd_tables)
            for source in (data, halved(data), bare):
                for window in range(1, 7):
                    guard = window + source.top_order + 6
                    assert typed(induce_bracket(source, window).entries) == \
                        typed(induce_by_products(source, window, guard))

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        # One-family skew data at top order 1 where D-power terms cancel at
        # some pairs and the central term alone survives at some entries.
        cancelled = central_only = 0
        for even, odd, constant in (((-1, -2), (0,), 1), ((0, F(1, 2)), (F(-1, 2),), F(3, 2)),
                                    ((F(-1, 2), -1), (0,), F(1, 3))):
            data = one_family(1, even, odd, constant)
            for window in (2, 3):
                kernels = [(table[0][0][0], _kernel(power, derivs, 1, window))
                           for power, derivs, table in data.terms()]
                for pair in set().union(*(kernel for _, kernel in kernels)):
                    parts = [scale * kernel[pair] for scale, kernel in kernels
                             if scale and pair in kernel]
                    cancelled += len(parts) > 1 and sum(parts) == 0
                entries = induce_bracket(data, window).entries
                assert all(combo and all(combo.values()) for combo in entries.values())
                central_only += sum(list(combo) == [CENTRAL] for combo in entries.values())
                assert typed(entries) == typed(induce_by_products(data, window, window + 7))
        assert cancelled > 100 and central_only > 12


# One-family skew tables above top order 1, found by a search over entries in
# [-2, 2]: (even tables | odd tables | constant).
HIGHER_ORDER_DATA = [
    (2, (1, 1, 0), (1, 0), 0),
    (2, (-2, -2, 0), (-2, 0), 0),
    (3, (-2, -2, -1, -1), (-2, 1, 1), -2),
    (3, (1, 1, -1, -1), (1, 1, 1), -2),
    (3, (-1, 1, 2, 1), (-2, 1, 1), 1),
]


def one_family(top_order, even, odd, constant):
    cell = lambda c: (((c,),),)
    return LinearOperatorData(top_order, 1, tuple(cell(c) for c in even),
                              tuple(cell(c) for c in odd), ((constant,),))


class TestHigherTopOrder:
    def test_literals_are_skew(self):
        for args in HIGHER_ORDER_DATA:
            assert check_skew_symmetry(one_family(*args).realize()) == (True, None)

    def test_induce_matches_both_oracles(self):
        central = 0
        for args in HIGHER_ORDER_DATA:
            data = one_family(*args)
            for window in range(1, 5):
                entries = induce_bracket(data, window).entries
                assert entries
                guard = window + data.top_order + 6
                assert typed(entries) == typed(induce_by_products(data, window, guard))
                assert entries == induce_by_scan(data, window)
                central += sum(CENTRAL in combo for combo in entries.values())
        assert central > 0


def differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


class TestKernelDegrees:
    """On each parity class of (k1, k2) a field kernel is a polynomial of
    total degree N, and the central kernel a polynomial on the line
    k1 + k2 = 2 - 2N, of degree N + 1 on half-integer modes and N + 2 on
    integer modes (``_kernel``)."""

    WINDOW = 6

    def lines(self, step):
        """Every run of interior mode pairs along ``step``, from each start
        whose predecessor lies outside the window."""
        bound = 2 * self.WINDOW
        inside = lambda k1, k2: abs(k1) <= bound and abs(k2) <= bound
        for k1 in range(-bound, bound + 1):
            for k2 in range(-bound, bound + 1):
                if inside(k1 - step[0], k2 - step[1]):
                    continue
                run = []
                while inside(k1 + len(run) * step[0], k2 + len(run) * step[1]):
                    run.append((k1 + len(run) * step[0], k2 + len(run) * step[1]))
                yield run

    def degree(self, kernel, run):
        """The least d whose (d + 1)-th differences along ``run`` vanish."""
        values = [kernel.get(pair, 0) for pair in run]
        d = -1
        while any(differences(values, d + 1)):
            d += 1
        return d

    def test_field_kernels_have_degree_n(self):
        for n in (1, 2, 3, 4):
            kernels = [_kernel(power, 2 * n - power, n, self.WINDOW) for power in range(2 * n + 1)]
            for step in ((2, 0), (0, 2), (2, 2), (2, -2)):
                runs = [run for run in self.lines(step) if len(run) > n + 1]
                top = max(self.degree(kernel, run) for kernel in kernels for run in runs)
                assert top == n

    def test_central_kernel_lives_on_one_line(self):
        for n in (1, 2, 3, 4):
            kernel = _kernel(2 * n + 3, None, n, self.WINDOW)
            assert kernel and all(k1 + k2 == 2 - 2 * n and (k1 - k2) % 2 == 0
                                  for k1, k2 in kernel)
            for parity, degree in ((1, n + 1), (0, n + 2)):
                run = [(2 - 2 * n - k2, k2) for k2 in range(-2 * self.WINDOW, 2 * self.WINDOW + 1)
                       if k2 & 1 == parity and abs(2 - 2 * n - k2) <= 2 * self.WINDOW]
                assert len(run) > degree + 1
                assert self.degree(kernel, run) == degree

    def test_central_kernel_at_top_order_one(self):
        kernel = _kernel(5, None, 1, self.WINDOW)
        for (k1, k2), c in kernel.items():
            n = k2 // 2
            assert c == ((n + 1) * n if k2 & 1 else -(n + 1) * n * (n - 1))


class TestSwapLemma:
    """On a super skew-symmetric table, S(y, x, z) = -(-1)^{px py} S(x, y, z)
    and S(x, z, y) = -(-1)^{py pz} S(x, y, z), with equal admissibility, so
    ``check_super_jacobi`` may sweep the sorted triples alone; without the
    hypotheses the first failing triple need not be sorted."""

    def test_swap_identities_on_skew_tables(self, seed):
        rng = random.Random(seed)
        tables = [super_virasoro_table(families, 2) for families in (1, 2)]
        tables += [perturbed_table(rng, families, window, True)
                   for families in (1, 2, 3) for window in (2, 3) for _ in range(3)]
        admissible = nonzero = 0
        for table in tables:
            assert check_super_skew(table) == (True, None)
            keys = table.mode_keys()
            triples = [tuple(rng.choice(keys) for _ in range(3)) for _ in range(200)]
            ok, witness = check_super_jacobi(table)
            if not ok:
                triples += [(witness[0], witness[1], w) for w in keys]
            for x, y, z in triples:
                s = jacobiator(table, x, y, z)
                for (u, v, w), (p, q) in (((y, x, z), (x, y)), ((x, z, y), (y, z))):
                    swapped = jacobiator(table, u, v, w)
                    assert (swapped is None) == (s is None)
                    if s is not None:
                        sign = 1 if mode_parity(p) & mode_parity(q) else -1
                        assert swapped == {sym: sign * c for sym, c in s.items()}
                admissible += s is not None
                nonzero += bool(s)
        assert admissible > 2000 and nonzero > 25

    @staticmethod
    def gate(table, monkeypatch):
        """``check_super_jacobi(table)`` and the value of its sorted-sweep gate."""
        seen = []
        real = modes._first_skew_pair
        monkeypatch.setattr(modes, "_first_skew_pair",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        result = check_super_jacobi(table)
        monkeypatch.undo()
        return result, seen[0] is None

    def gate_cases(self, rng):
        """Closed-form tables with one change: a stored zero on either side of
        a pair, a nonzero or zero even diagonal entry, an odd diagonal entry,
        and a symbol outside the window on one side of a pair."""
        for families, window in ((1, 2), (2, 1)):
            base = super_virasoro_table(families, window)
            keys = base.mode_keys()
            outside = phi_symbol(rng.randrange(families), rng.choice((-1, 1)) * (2 * window + 2))
            for _ in range(3):
                x, y = sorted(rng.sample(keys, 2))
                held = set(base.bracket(x, y)) | set(base.bracket(y, x))
                inside = rng.choice([phi_symbol(*key) for key in keys if phi_symbol(*key) not in held])
                even = rng.choice([key for key in keys if key[1] % 2 == 0])
                odd = rng.choice([key for key in keys if key[1] % 2])
                for key, sym, coeff in (((x, y), inside, 0), ((y, x), inside, 0),
                                        ((even, even), inside, 1), ((even, even), inside, 0),
                                        ((odd, odd), inside, 1), ((x, y), outside, 0),
                                        ((y, x), outside, 0), ((y, x), outside, 1)):
                    entries = {k: dict(v) for k, v in base.entries.items()}
                    combo = entries.setdefault(key, {})
                    combo[sym] = combo.get(sym, 0) + coeff
                    yield ModeBracketTable(dim=families, window=window, entries=entries)

    def test_gate_is_skew_symmetry(self, seed, monkeypatch):
        rng = random.Random(seed)
        seen = set()
        for table in self.gate_cases(rng):
            result, gate = self.gate(table, monkeypatch)
            assert gate == check_super_skew(table)[0]
            assert result == full_jacobi_sweep(table)
            seen.add((gate, result[0]))
        assert {(True, True), (True, False), (False, False)} <= seen
        for families in (1, 2, 3):
            for window in (2, 3):
                for mirrored in (False, True):
                    table = perturbed_table(rng, families, window, mirrored)
                    assert self.gate(table, monkeypatch)[1] == check_super_skew(table)[0]

    def test_non_skew_table_takes_the_rotation_sweep(self):
        # [x, y] = phi(0) and [phi(0), z] = c with no reverse brackets: only
        # the rotations of (x, y, z) fail, and none of them is sorted.
        x, z, y = (0, -2), (0, -1), (0, 2)
        table = ModeBracketTable(dim=1, window=1, entries={
            (x, y): {phi_symbol(0, 0): 1}, ((0, 0), z): {CENTRAL: 1}})
        assert not check_super_skew(table)[0]
        assert full_jacobi_sweep(table) == (False, (x, y, z))
        assert sorted_jacobi_sweep(table) == (True, None)
        assert check_super_jacobi(table) == (False, (x, y, z))


def with_zeros(rng, table, count):
    """``table`` with ``count`` more coefficients 0 stored at random interior
    pairs, on interior, out-of-window and beyond-family mode symbols and the
    central symbol."""
    entries = {k: dict(v) for k, v in table.entries.items()}
    keys = table.mode_keys()
    bound = 2 * table.window
    added = 0
    while added < count:
        sym = rng.choice((
            phi_symbol(*rng.choice(keys)),
            phi_symbol(rng.randrange(table.dim), rng.choice((-1, 1)) * rng.randint(bound + 1, bound + 4)),
            phi_symbol(table.dim + rng.randrange(2), rng.randint(-bound, bound)),
            CENTRAL))
        combo = entries.setdefault((rng.choice(keys), rng.choice(keys)), {})
        if sym not in combo:
            combo[sym] = rng.choice((0, F(0)))
            added += 1
    return ModeBracketTable(dim=table.dim, window=table.window, entries=entries)


class TestZeroRule:
    """A stored coefficient 0 is no term: every check and oracle returns on a
    table the (ok, witness) of its twin without the zeros."""

    CHECKS = (check_super_skew, full_skew_sweep, check_super_jacobi, full_jacobi_sweep)

    def assert_invariant(self, table, twin):
        expected = [check(twin) for check in self.CHECKS]
        assert [check(table) for check in self.CHECKS] == expected
        assert expected[0] == expected[1] and expected[2] == expected[3]
        return expected

    def test_stored_zero_bracket_is_skew_on_either_side(self):
        x, y = (0, -2), (0, 2)
        for key in ((x, y), (y, x)):
            table = ModeBracketTable(dim=1, window=1, entries={key: {phi_symbol(0, 0): 0}})
            assert check_super_skew(table) == full_skew_sweep(table) == (True, None)

    def test_stored_zero_is_no_term_in_output(self):
        x, y = (0, -2), (0, 2)
        table = ModeBracketTable(dim=1, window=1, entries={(x, y): {phi_symbol(0, 0): 0}})
        assert render_table(table) == []
        assert table.bracket(x, y) == {}
        assert render_combo({phi_symbol(0, 0): 0, CENTRAL: 2}) == "2*c"
        assert render_combo({phi_symbol(0, 0): F(0)}) == "0"
        table.entries[(y, x)] = {phi_symbol(0, 0): 0, CENTRAL: F(-1, 2)}
        assert render_table(table) == ["[phi0(1), phi0(-1)] = -1/2*c"]
        assert table.bracket(y, x) == {CENTRAL: F(-1, 2)}

    def test_out_of_window_zero_keeps_the_pair_admissible(self):
        # [y, x] stores phi(3), outside window 1, with coefficient 0: the pair
        # stays admissible, the table is skew, and the sorted sweep finds the
        # first failure (x, z, y), which reads [y, x].
        x, z, y, m = (0, -2), (0, -1), (0, 2), (0, 0)
        twin = {(x, y): {phi_symbol(0, 0): 1}, (y, x): {phi_symbol(0, 0): -1},
                (m, z): {CENTRAL: 1}, (z, m): {CENTRAL: -1}}
        entries = dict(twin)
        entries[(y, x)] = {phi_symbol(0, 0): -1, phi_symbol(0, 6): 0}
        expected = self.assert_invariant(ModeBracketTable(dim=1, window=1, entries=entries),
                                         ModeBracketTable(dim=1, window=1, entries=twin))
        assert expected[0] == (True, None) and expected[2] == (False, (x, z, y))

    def test_zeros_change_no_verdict(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for families, window in ((1, 1), (1, 2), (2, 1), (2, 2)):
            twins = [super_virasoro_table(families, window)]
            twins += [perturbed_table(rng, families, window, mirrored)
                      for mirrored in (False, True) for _ in range(2)]
            for twin in twins:
                for _ in range(3):
                    table = with_zeros(rng, twin, rng.randint(1, 4))
                    skew, _, jacobi, _ = self.assert_invariant(table, twin)
                    outcomes.add((skew[0], jacobi[0]))
        assert {(True, True), (True, False), (False, False)} <= outcomes


class TestExactCoefficients:
    def test_integral_inputs_stay_int(self):
        data = LinearOperatorData(
            top_order=1, dim=1,
            even_tables=((((F(2),),),), (((F(3),),),)),
            odd_tables=((((F(4, 2),),),),),
            constant=((F(1),),),
        )
        cells = [data.even_tables[0][0][0][0], data.even_tables[1][0][0][0],
                 data.odd_tables[0][0][0][0], data.constant[0][0]]
        assert all(type(c) is int for c in cells) and cells == [2, 3, 2, 1]
        assert all(type(c) is int for c in make_delta(1, 2, 3).terms().values())
        assert all(type(c) is int for c in mode_field(0, 1, 1, 3).terms().values())
        assert type(next(iter(FormalDistribution.monomial((0, 0, 0), (), NUM, F(6, 3))
                               .terms().values()))) is int
        table = induce_bracket(virasoro_operator_data(2), 3)
        assert all(type(c) is int for combo in table.entries.values() for c in combo.values())

    def test_mis_sized_tables_are_refused(self):
        data = virasoro_operator_data(2)
        wide = virasoro_operator_data(3).even_tables[1]
        for change in (dict(even_tables=data.even_tables + data.even_tables[:1]),
                       dict(even_tables=data.even_tables[:1]),
                       dict(odd_tables=data.odd_tables * 2),
                       dict(odd_tables=()),
                       dict(even_tables=(data.even_tables[0], wide)),
                       dict(odd_tables=(data.odd_tables[0][:1],)),
                       dict(constant=data.constant[:1]),
                       dict(constant=tuple(row + (0,) for row in data.constant))):
            fields = dict(top_order=1, dim=2, even_tables=data.even_tables,
                          odd_tables=data.odd_tables, constant=data.constant)
            fields.update(change)
            with pytest.raises(ValueError, match="2 x 2|takes 2 even and 1 odd tables"):
                LinearOperatorData(**fields)

    def test_half_entry_gives_exact_fraction_bracket(self):
        data = halved(virasoro_operator_data(1))
        assert data.constant[0][0] == F(1, 2) and type(data.constant[0][0]) is F
        induced = induce_bracket(data, 3).entries
        closed = super_virasoro_table(1, 3).entries
        # The induced bracket is linear in the tables.
        assert induced == {k: {s: c * F(1, 2) for s, c in v.items()} for k, v in closed.items()}
        assert induced[((0, 1), (0, 1))] == {phi_symbol(0, 2): F(1, 2)}
        assert type(induced[((0, 1), (0, 1))][phi_symbol(0, 2)]) is F

    def test_scaled_promotes_only_on_a_denominator(self):
        x = FormalDistribution.monomial((1, 0, 0), (1,), NUM, 3)
        assert type(next(iter(x.scaled(2).terms().values()))) is int
        assert next(iter(x.scaled(F(1, 2)).terms().values())) == F(3, 2)
