"""Structure-constant algebras, axiom checkers and the operator builders."""

import random
from fractions import Fraction
from itertools import product

import pytest

from svarcalc import (
    AlgebraSpec,
    SuperPolynomial,
    build_type0_operator,
    build_type1_operator,
    check_axioms,
    check_skew_symmetry,
    field,
    is_hamiltonian,
    make_exterior_example,
    make_truncated_example,
    np_to_nx,
    virasoro_operator_data,
)
from svarcalc.structures import (
    ALGEBRA_CLASSES,
    Term,
    _failures,
    _required,
    derived_dot_table,
    iter_axiom_failures,
    multiply,
)
from helpers import bumped, graded_spec

F = Fraction


def gp(g):
    return SuperPolynomial.generator(g)


def one_dim(circ=None, times=None, dot=None, form=None):
    def tab(v):
        return (((F(v),),),) if v is not None else None
    return AlgebraSpec(dim=1, circ=tab(circ), times=tab(times), dot=tab(dot),
                       form=((F(form),),) if form is not None else None)


class TestTruncatedExample:
    def test_dimension_matches_truncation(self):
        assert make_truncated_example(3).dim == 3

    def test_circ_products(self):
        spec = make_truncated_example(3)
        e = spec.basis
        assert multiply(spec.circ, e(1), e(1)) == (F(0), F(0), F(3))
        assert multiply(spec.circ, e(1), e(2)) == (F(0), F(0), F(0))  # truncated

    def test_one_dimensional_case(self):
        spec = make_truncated_example(1)
        assert multiply(spec.circ, spec.basis(0), spec.basis(0)) == (F(2),)

    def test_form_is_corner_supported(self):
        spec = make_truncated_example(4)
        assert spec.form[0][0] == 1
        assert all(spec.form[i][j] == 0 for i in range(4) for j in range(4)
                   if (i, j) != (0, 0))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            make_truncated_example(0)


class TestCoefficientStorage:
    def test_integral_entries_are_ints_and_the_rest_fractions(self):
        spec = AlgebraSpec(dim=2, circ=[[[F(3, 2), F(-4, 2)], [5, "7/7"]], [[0, F(0)], ["-1/3", 2]]],
                           form=[[F(6, 3), "3/2"], [-2, 0]])
        flat = [c for row in spec.circ for cell in row for c in cell] + \
            [c for row in spec.form for c in row]
        assert flat == [F(3, 2), -2, 5, 1, 0, 0, F(-1, 3), 2, 2, F(3, 2), -2, 0]
        assert [type(c) for c in flat] == [F, int, int, int, int, int, F, int, int, F, int, int]

    def test_mis_sized_tables_are_refused(self):
        cube = [[[1] * 3] * 3] * 3
        for fields in ({"circ": cube}, {"times": cube[:1]}, {"dot": [[[1, 2], [3]], [[1, 2]] * 2]},
                       {"circ": [[[1, 2]] * 3] * 2}, {"form": [[1, 2, 3]] * 2}, {"form": [[1]]}):
            with pytest.raises(ValueError, match="expected a 2 x 2"):
                AlgebraSpec(dim=2, **fields)

    def test_builders_store_ints(self):
        nx = np_to_nx(make_truncated_example(3), 0)
        tables = (nx.circ, nx.times, derived_dot_table(nx), make_exterior_example({(3, 4): 1}).circ)
        assert all(type(c) is int for t in tables for row in t for cell in row for c in cell)
        assert all(type(c) is int for row in nx.form for c in row)


class TestAxiomCheckers:
    def test_truncated_is_novikov_poisson(self):
        for n in (1, 2, 3):
            assert check_axioms(make_truncated_example(n), "novikov_poisson") == (True, None)

    def test_truncated_circ_is_novikov(self):
        assert check_axioms(make_truncated_example(3), "novikov") == (True, None)

    def test_nx_spec_circ_part_is_novikov(self):
        nx = np_to_nx(make_truncated_example(3), 0)
        assert check_axioms(nx, "novikov")[0]

    def test_right_multiplications_commute_on_valid_spec(self):
        spec = np_to_nx(make_truncated_example(3), 0)
        e = spec.basis
        for i, j, k in product(range(3), repeat=3):
            lhs = multiply(spec.circ, multiply(spec.circ, e(i), e(j)), e(k))
            rhs = multiply(spec.circ, multiply(spec.circ, e(i), e(k)), e(j))
            assert lhs == rhs

    def test_idempotent_fails_fermionic(self):
        ok, witness = check_axioms(one_dim(circ=1), "fermionic_novikov")
        assert not ok
        assert witness[:2] == ("right_anticommute", (0, 0, 0))
        assert witness[2] == (F(2),)  # residual: e + e

    def test_missing_component_is_an_error(self):
        with pytest.raises(ValueError):
            check_axioms(one_dim(circ=1), "nx_bialgebra")

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            check_axioms(one_dim(circ=1), "frobenius")

    def test_novikov_super_needs_grading(self):
        with pytest.raises(ValueError):
            check_axioms(one_dim(circ=0), "novikov_super")

    def test_novikov_super_on_trivially_graded_spec(self):
        spec = make_truncated_example(2)
        graded = AlgebraSpec(dim=2, circ=spec.circ, grading=(0, 0))
        assert check_axioms(graded, "novikov_super")[0]

    def test_novikov_super_sign_bites_on_odd_vectors(self):
        # one odd basis vector with e o e = e: the graded right-commute rule
        # forces e = -e, so the checker must reject it.
        spec = AlgebraSpec(dim=1, circ=(((F(1),),),), grading=(1,))
        ok, witness = check_axioms(spec, "novikov_super")
        assert not ok and witness[0] == "graded_right_commute"

    def test_form_compat_for_truncated_family(self):
        for n in (1, 2, 3):
            nx = np_to_nx(make_truncated_example(n), 0)
            assert check_axioms(nx, "form_compat") == (True, None)


class TestNpToNx:
    def test_valid_conversion(self):
        nx = np_to_nx(make_truncated_example(2), 0)
        assert nx.times == make_truncated_example(2).dot
        assert check_axioms(nx, "nx_bialgebra") == (True, None)

    def test_one_dimensional_conversion(self):
        nx = np_to_nx(AlgebraSpec(dim=1, circ=(((F(2),),),), dot=(((F(1),),),)), 0)
        assert check_axioms(nx, "nx_bialgebra")[0]

    def test_rescaled_circ_rejected(self):
        spec = make_truncated_example(2)
        doubled = AlgebraSpec(
            dim=2,
            circ=tuple(tuple(tuple(2 * c for c in cell) for cell in row) for row in spec.circ),
            dot=spec.dot, form=spec.form,
        )
        with pytest.raises(ValueError, match="twice the identity"):
            np_to_nx(doubled, 0)

    def test_non_identity_index_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            np_to_nx(make_truncated_example(2), 1)


class TestType1Builder:
    def test_one_dimensional_entries(self):
        op = build_type1_operator(np_to_nx(make_truncated_example(1), 0))
        entry = op.entry(0, 0, 0)
        assert entry.entries()[5] == SuperPolynomial.scalar(1)
        assert entry.entries()[2] == 3 * gp(field(0, 1))
        assert entry.entries()[1] == gp(field(0, 2))
        assert entry.entries()[0] == 2 * gp(field(0, 3))
        assert op.entry(1, 0, 0) == entry

    def test_derived_dot_rule(self):
        nx = np_to_nx(make_truncated_example(2), 0)
        dot = derived_dot_table(nx)
        # e_i . e_j = (i + j + 3) e_{i+j}, truncated
        assert dot[0][1][1] == F(4)
        assert dot[1][0][1] == F(4)
        assert dot[1][1][0] == F(0)

    def test_family_entries_follow_index_sum(self):
        op = build_type1_operator(np_to_nx(make_truncated_example(2), 0))
        assert op.entry(0, 1, 1).is_zero()  # families beyond the truncation vanish
        assert op.entry(0, 0, 1).entries()[0] == 3 * gp(field(1, 3))
        assert op.entry(0, 1, 0).entries()[0] == 2 * gp(field(1, 3))

    def test_truncated_family_gives_super_virasoro_data(self):
        # The truncated bialgebras are the structure constants of the linear
        # operators whose mode algebras generalize super-Virasoro.
        for d in (1, 2, 3, 4):
            op = build_type1_operator(np_to_nx(make_truncated_example(d), 0))
            assert op == virasoro_operator_data(d).realize()

    def test_zero_algebra_builds_zero_operator(self):
        spec = AlgebraSpec(dim=1, circ=(((F(0),),),), times=(((F(0),),),),
                           form=((F(0),),))
        op = build_type1_operator(spec)
        assert not op.blocks()


class TestType0Builder:
    def test_commutative_circ_gives_order_zero_only(self):
        spec = AlgebraSpec(dim=2, circ=tuple(
            tuple(tuple(F(1) if k == 0 else F(0) for k in range(2)) for _ in range(2))
            for _ in range(2)))
        op = build_type0_operator(spec)
        for (block, row, col), entry in op.blocks().items():
            assert set(entry.entries()) == {0}

    def test_zero_circ_vacuously_hamiltonian(self):
        op = build_type0_operator(AlgebraSpec(dim=1, circ=(((F(0),),),)))
        assert not op.blocks()
        assert is_hamiltonian(op) == (True, None)

    def test_blocks_are_negatives(self):
        op = build_type0_operator(make_exterior_example({(3, 4): 1}))
        for (block, row, col), entry in op.blocks().items():
            if block == 0:
                assert op.entry(1, row, col) == entry.scaled(-1)

    def test_builder_output_is_skew(self):
        op = build_type0_operator(make_exterior_example({(1, 2): 2, (3, 4): -1}))
        assert check_skew_symmetry(op) == (True, None)


class TestExteriorExample:
    def test_top_form_annihilated(self):
        spec = make_exterior_example({(3, 4): 1})
        e = spec.basis
        for i in range(6):
            assert not any(multiply(spec.circ, e(5), e(i)))

    def test_right_zero_columns(self):
        spec = make_exterior_example({(1, 2): 2})
        e = spec.basis
        for a in range(6):
            assert not any(multiply(spec.circ, e(a), e(0)))
            assert not any(multiply(spec.circ, e(a), e(5)))

    def test_associator_catches_top_coefficient(self):
        spec = make_exterior_example({(3, 4): F(7, 2)})
        e = spec.basis
        lhs = multiply(spec.circ, multiply(spec.circ, e(0), e(1)), e(2))
        rhs = multiply(spec.circ, e(0), multiply(spec.circ, e(1), e(2)))
        assert tuple(a - b for a, b in zip(lhs, rhs)) == \
            (F(0), F(0), F(0), F(0), F(0), F(7, 2))

    def test_mirror_associator_matches(self):
        spec = make_exterior_example({(3, 4): 1})
        e = spec.basis
        lhs = multiply(spec.circ, multiply(spec.circ, e(1), e(0)), e(2))
        rhs = multiply(spec.circ, e(1), multiply(spec.circ, e(0), e(2)))
        assert tuple(a - b for a, b in zip(lhs, rhs)) == \
            (F(0), F(0), F(0), F(0), F(0), F(1))

    def test_degenerate_associator_vanishes(self):
        spec = make_exterior_example({(2, 3): 1, (2, 4): 1, (3, 4): 1})
        e = spec.basis
        lhs = multiply(spec.circ, multiply(spec.circ, e(1), e(0)), e(1))
        rhs = multiply(spec.circ, e(1), multiply(spec.circ, e(0), e(1)))
        assert lhs == rhs

    def test_all_assignments_are_fermionic_novikov(self):
        for assignment in ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1},
                           {(1, 3): F(1, 2), (2, 4): -3}):
            spec = make_exterior_example(assignment)
            assert check_axioms(spec, "fermionic_novikov") == (True, None)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            make_exterior_example({(4, 3): 1})

    def test_structure_constants_follow_the_wedge_signs(self):
        # v_a (a = 1..4) omits generator a, v5 = e1 e2 e3 e4, and e_b moved
        # into a sorted wedge crosses the generators above b.
        pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        for assignment in ({}, {(3, 4): 1}, {(1, 2): 2, (3, 4): -1},
                           {(1, 3): F(1, 2), (2, 4): -3}, {p: k + 1 for k, p in enumerate(pairs)}):
            expected = [[[0] * 6 for _ in range(6)] for _ in range(6)]
            for b in range(1, 5):
                expected[b][b][5] = (-1) ** (4 - b)
                for (i, j), value in assignment.items():
                    if b not in (i, j):
                        (omitted,) = {1, 2, 3, 4} - {i, j, b}
                        expected[0][b][omitted] = value * (-1) ** ((i > b) + (j > b))
            circ = make_exterior_example(assignment).circ
            assert [[list(cell) for cell in row] for row in circ] == expected


class TestRoundTrips:
    """Axioms on the structure side match the operator-side criterion."""

    def test_type1_valid_specs_pass_both_sides(self):
        for n in (1, 2):
            nx = np_to_nx(make_truncated_example(n), 0)
            assert check_axioms(nx, "nx_bialgebra")[0]
            assert check_axioms(nx, "form_compat")[0]
            assert is_hamiltonian(build_type1_operator(nx))[0]

    def test_type1_single_mutations_track_both_sides(self, seed):
        rng = random.Random(seed)
        base = np_to_nx(make_truncated_example(2), 0)
        broke = 0
        for _ in range(4):
            which = rng.choice(["circ", "times"])
            i, j, k = (rng.randrange(2) for _ in range(3))
            tab = [[[c for c in cell] for cell in row] for row in getattr(base, which)]
            tab[i][j][k] += 1
            spec = AlgebraSpec(
                dim=2,
                circ=tab if which == "circ" else base.circ,
                times=tab if which == "times" else base.times,
                form=base.form,
            )
            axioms_ok = check_axioms(spec, "nx_bialgebra")[0] and \
                check_axioms(spec, "form_compat")[0]
            operator_ok = is_hamiltonian(build_type1_operator(spec))[0]
            assert axioms_ok == operator_ok
            broke += not axioms_ok
        assert broke >= 2  # the sampled mutations must actually discriminate

    def test_type0_valid_specs_pass_both_sides(self):
        for assignment in ({}, {(3, 4): 1}):
            spec = make_exterior_example(assignment)
            assert check_axioms(spec, "fermionic_novikov")[0]
            assert is_hamiltonian(build_type0_operator(spec))[0]

    def test_type0_mutation_tracks_both_sides(self, seed):
        # A random single-entry bump may land on another valid algebra (the
        # family is not rigid); what must hold is that the axiom side and the
        # operator side always agree, and that mutations do discriminate.
        rng = random.Random(seed)
        base = make_exterior_example({(3, 4): 1})
        broke = 0
        for _ in range(4):
            i, j, k = rng.randrange(6), rng.randrange(1, 5), rng.randrange(6)
            tab = [[[c for c in cell] for cell in row] for row in base.circ]
            tab[i][j][k] += 1
            spec = AlgebraSpec(dim=6, circ=tab)
            axioms_ok = check_axioms(spec, "fermionic_novikov")[0]
            operator_ok = is_hamiltonian(build_type0_operator(spec))[0]
            assert axioms_ok == operator_ok
            broke += not axioms_ok
        assert broke >= 2



# -- formula-level oracle for the axiom table ------------------------------------

ORACLE_NEEDS = {
    "novikov": ("circ",),
    "novikov_super": ("circ", "grading"),
    "nx_bialgebra": ("circ", "times"),
    "novikov_poisson": ("circ", "dot"),
    "fermionic_novikov": ("circ",),
    "form_compat": ("circ", "times", "form"),
}


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _scale(c, x):
    return tuple(c * a for a in x)


def oracle_products(spec):
    """``multiply`` by circ, times and dot, each vector product computed once:
    the identities of every class share most nested products of a spec."""
    def memoised(table):
        products = {}

        def m(x, y):
            if (x, y) not in products:
                products[(x, y)] = multiply(table, x, y)
            return products[(x, y)]
        return m
    return memoised(spec.circ), memoised(spec.times), memoised(spec.dot)


def oracle_failures(spec, cls, products=None):
    """Every identity of the class as its textbook formula on basis vectors:
    the same witnesses as iter_axiom_failures, built without its table.
    ``products`` is ``oracle_products(spec)``, shared between classes."""
    e, g = spec.basis, spec.grading
    c, t, dt = products or oracle_products(spec)
    f = lambda x, y: (sum(x[a] * y[b] * spec.form[a][b]
                          for a in range(spec.dim) for b in range(spec.dim)),)
    assoc = lambda m, x, y, z: _sub(m(m(x, y), z), m(x, m(y, z)))
    koszul = lambda a, b: -1 if g[a] & g[b] else 1

    def novikov(m, prefix=""):
        def rows(i, j, k, x, y, z):
            # (xy)z = (xz)y and (x, y, z) = (y, x, z) with the associator (,,)
            yield prefix + "right_commute", m(m(x, y), z), m(m(x, z), y)
            yield prefix + "left_symmetry", assoc(m, x, y, z), assoc(m, y, x, z)
        return rows

    def graded(i, j, k, x, y, z):
        yield ("graded_right_commute", c(c(x, y), z),
               _scale(koszul(j, k), c(c(x, z), y)))
        yield ("graded_left_symmetry", assoc(c, x, y, z),
               _scale(koszul(i, j), assoc(c, y, x, z)))

    def fermionic(i, j, k, x, y, z):
        yield "right_anticommute", c(c(x, y), z), _scale(-1, c(c(x, z), y))
        yield "left_symmetry", assoc(c, x, y, z), assoc(c, y, x, z)

    def bialgebra(i, j, k, u, v, w):
        yield "mixed_associator", c(t(u, v), w), t(u, c(v, w))
        yield ("times_sum_rule", _add(t(t(u, v), w), t(u, t(v, w))),
               _sub(_add(t(c(v, u), w), t(u, c(v, w))), c(v, t(u, w))))
        yield ("times_difference_rule", assoc(t, u, v, w),
               _sub(_add(c(t(u, v), w), c(w, t(u, v))), _add(c(u, t(v, w)), c(t(v, w), u))))

    def dot_associative(i, j, k, x, y, z):
        yield "dot_associative", dt(dt(x, y), z), dt(x, dt(y, z))

    def poisson(i, j, k, x, y, z):
        yield "dot_circ_associator", c(dt(x, y), z), dt(x, c(y, z))
        yield ("dot_circ_symmetry", _sub(dt(c(x, y), z), c(x, dt(y, z))),
               _sub(dt(c(y, x), z), c(y, dt(x, z))))

    def forms(i, j, k, u, v, w):
        yield "form_circ_invariance", f(c(u, v), w), f(u, c(v, w))
        yield "form_times_ratio", f(c(u, v), w), _scale(2, f(t(u, v), w))

    def commutative(m, label):
        def rows(i, j, x, y):
            yield label, m(x, y), m(y, x)
        return rows

    # (arity, rows) groups: basis pairs or triples, in the order of the table
    groups = {
        "novikov": [(3, novikov(c))],
        "novikov_super": [(3, graded)],
        "nx_bialgebra": [(2, commutative(t, "times_commutative")), (3, novikov(c, "circ_")),
                         (3, bialgebra)],
        "novikov_poisson": [(2, commutative(dt, "dot_commutative")), (3, dot_associative),
                            (3, novikov(c, "circ_")), (3, poisson)],
        "fermionic_novikov": [(3, fermionic)],
        "form_compat": [(2, commutative(f, "form_symmetric")), (3, forms)],
    }[cls]
    for arity, rows in groups:
        for idx in product(range(spec.dim), repeat=arity):
            for label, lhs, rhs in rows(*idx, *(e(i) for i in idx)):
                if lhs != rhs:
                    yield label, idx, _sub(lhs, rhs)


def random_table(rng, dim, density):
    return [[[rng.choice((-2, -1, 1, 2, F(1, 2))) if rng.random() < density else 0
              for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]


class TestIdentityTableOracle:
    """iter_axiom_failures against the textbook formulas, witness for witness."""

    def assert_matches_oracle(self, spec, classes=ALGEBRA_CLASSES):
        products = oracle_products(spec)
        for cls in classes:
            missing = [n for n in ORACLE_NEEDS[cls] if getattr(spec, n) is None]
            if missing:
                with pytest.raises(ValueError, match=f"'{missing[0]}'"):
                    list(iter_axiom_failures(spec, cls))
                continue
            got = list(iter_axiom_failures(spec, cls))
            assert got == list(oracle_failures(spec, cls, products)), cls
            assert all(type(v) is F for _, _, residual in got for v in residual)

    def test_random_specs_with_gradings(self, seed):
        rng = random.Random(seed)
        failing = 0
        for _ in range(40):
            dim = rng.randint(1, 5)
            spec = AlgebraSpec(
                dim=dim,
                circ=random_table(rng, dim, rng.choice((0.2, 0.5, 0.9))),
                times=random_table(rng, dim, rng.choice((0.2, 0.5))),
                dot=random_table(rng, dim, rng.choice((0.2, 0.5))),
                form=[[rng.choice((0, 1, -1, F(3, 2))) for _ in range(dim)] for _ in range(dim)],
                grading=[rng.randint(0, 1) for _ in range(dim)],
            )
            self.assert_matches_oracle(spec)
            failing += any(True for _ in iter_axiom_failures(spec, "novikov_super"))
        assert failing  # the residual comparison must see failing specs

    def test_partial_specs_raise_for_the_first_missing_component(self):
        self.assert_matches_oracle(one_dim(circ=1))
        self.assert_matches_oracle(one_dim(times=1, form=1))
        self.assert_matches_oracle(one_dim(circ=2, dot=1, form=1))

    def test_truncated_single_entry_mutations(self):
        for n in (2, 3):
            base = np_to_nx(make_truncated_example(n), 0)
            base = AlgebraSpec(dim=n, circ=base.circ, times=base.times, dot=base.times,
                               form=base.form, grading=(0,) * (n - 1) + (1,))
            self.assert_matches_oracle(base)
            for table in ("circ", "times", "dot"):
                for site in product(range(n), repeat=3):
                    self.assert_matches_oracle(bumped(base, table, site, 1))

    def test_exterior_single_entry_mutations(self, seed):
        rng = random.Random(seed)
        base = make_exterior_example({(1, 2): 2, (3, 4): -1})
        self.assert_matches_oracle(base, ("novikov", "fermionic_novikov"))
        for _ in range(12):
            site = (rng.randrange(6), rng.randrange(6), rng.randrange(6))
            self.assert_matches_oracle(bumped(base, "circ", site, rng.choice((-1, 1, 2))),
                                       ("novikov", "fermionic_novikov"))

    def test_graded_construction_and_odd_mutations(self, seed):
        # The Gel'fand-Dorfman specs pass novikov_super for every weight; a
        # bump on a product of two odd basis vectors must fail it, with every
        # witness and its Koszul signs matching the oracle, up to the
        # benchmark's half = 4 and 5.
        rng = random.Random(seed)
        for half, weight in product((2, 3, 4, 5), range(4)):
            spec = graded_spec(half, weight)
            self.assert_matches_oracle(spec)
            assert check_axioms(spec, "novikov_super") == (True, None)
            site = (rng.randrange(half, 2 * half), rng.randrange(half, 2 * half),
                    rng.randrange(2 * half))
            broken = bumped(spec, "circ", site, rng.choice((-1, 1, F(1, 2))))
            self.assert_matches_oracle(broken)
            assert not check_axioms(broken, "novikov_super")[0]

    def test_large_truncated_mutation_every_witness(self):
        # Term-major evaluation sorts a whole group's residuals at the end, so
        # the full list, not just its head, must keep the oracle's order.
        spec = bumped(np_to_nx(make_truncated_example(12), 0), "circ", (5, 6, 0), 1)
        self.assert_matches_oracle(spec, ("nx_bialgebra", "form_compat"))
        for cls in ("nx_bialgebra", "form_compat"):
            ok, witness = check_axioms(spec, cls)
            assert not ok
            assert witness == next(oracle_failures(spec, cls))

    def test_term_placement_under_every_permutation_and_sign(self, seed):
        # One-term groups outside the table: every permutation, nesting and
        # signed pair, so a cell placed through perm rather than its inverse
        # (the two differ on 3-cycles) or Koszul slots not read through perm
        # (they differ when the signed letters are not the swapped pair)
        # cannot pass.
        rng = random.Random(seed)
        spec = AlgebraSpec(dim=3, circ=random_table(rng, 3, 0.5), grading=(0, 1, 1))
        e, g = spec.basis, spec.grading
        witnesses = 0
        for perm, nesting, sign in product(("xyz", "xzy", "yxz", "yzx", "zxy", "zyx"),
                                           ("left", "right"), (None, "xy", "xz", "yz")):
            term = Term(2, "circ", "circ", nesting, perm, sign)
            expected = []
            for idx in product(range(3), repeat=3):
                p, q, r = (idx["xyz".index(s)] for s in perm)
                value = (multiply(spec.circ, multiply(spec.circ, e(p), e(q)), e(r))
                         if nesting == "left" else
                         multiply(spec.circ, e(p), multiply(spec.circ, e(q), e(r))))
                flip = sign and g[idx["xyz".index(sign[0])]] & g[idx["xyz".index(sign[1])]]
                value = _scale(-2 if flip else 2, value)
                if any(value):
                    expected.append(("t", idx, tuple(F(v) for v in value)))
            groups = ((("t", (term,)),),)
            assert list(_failures(spec, groups, _required(groups))) == expected, term
            witnesses += len(expected)
        assert witnesses

    def test_benchmark_sized_novikov_poisson_bumps(self, seed):
        # The truncated sizes of the benchmark's axiom tables, with one circ
        # and one dot bump each: every witness, in order, of the flat-key
        # residuals at dims where d - 1 would let components collide.
        rng = random.Random(seed)
        for n in (8, 12):
            base = make_truncated_example(n)
            self.assert_matches_oracle(base, ("novikov_poisson",))
            for table in ("circ", "dot"):
                site = tuple(rng.randrange(n) for _ in range(3))
                spec = bumped(base, table, site, rng.choice((-1, 1, 2, F(1, 2))))
                self.assert_matches_oracle(spec, ("novikov", "novikov_poisson"))
                assert not check_axioms(spec, "novikov_poisson")[0]

    def test_benchmark_sized_bialgebra_and_odd_bumps(self, seed):
        # nx_bialgebra at d = 12 with one circ and one times bump, and
        # novikov_super at half = 6 with odd-odd circ bumps, so that both sign
        # placements (two inner slots, or an inner and the outer slot) meet
        # odd basis vectors at the benchmark's largest sizes: every witness,
        # in order.
        rng = random.Random(seed)
        base = np_to_nx(make_truncated_example(12), 0)
        for table in ("circ", "times"):
            site = tuple(rng.randrange(12) for _ in range(3))
            spec = bumped(base, table, site, rng.choice((-1, 1, 2, F(1, 2))))
            self.assert_matches_oracle(spec, ("nx_bialgebra",))
            assert not check_axioms(spec, "nx_bialgebra")[0]
        for weight in (0, 1):
            spec = graded_spec(6, weight)
            site = (rng.randrange(6, 12), rng.randrange(6, 12), rng.randrange(12))
            broken = bumped(spec, "circ", site, rng.choice((-1, 1, F(1, 2))))
            self.assert_matches_oracle(broken, ("novikov_super",))
            assert not check_axioms(broken, "novikov_super")[0]

    def test_one_dimensional_specs(self):
        for c, t, d, f, g in product((0, 1, 3, F(1, 2)), (0, 2, F(-1, 2)), (0, 1, F(3, 2)),
                                     (0, F(1, 2)), (0, 1)):
            spec = AlgebraSpec(dim=1, circ=(((c,),),), times=(((t,),),), dot=(((d,),),),
                               form=((f,),), grading=(g,))
            self.assert_matches_oracle(spec)

    def test_half_entries_cancel_in_one_component_only(self):
        # e0.e0 = (e0 + e1)/2 and e0.e1 = e1.e0 = e0: on (e0, e0, e1) the two
        # sides of dot_associative are e0/2 and (e0 + e1)/2, so the e0 halves
        # cancel exactly while e1 keeps -1/2, and the residual keeps the zero.
        zero = [[0, 0], [0, 0]]
        dot = [[[F(1, 2), F(1, 2)], [1, 0]], [[1, 0], [0, 0]]]
        spec = AlgebraSpec(dim=2, circ=[zero, zero], dot=dot)
        self.assert_matches_oracle(spec)
        ok, witness = check_axioms(spec, "novikov_poisson")
        assert not ok
        assert witness == ("dot_associative", (0, 0, 1), (F(0), F(-1, 2)))
        assert [type(v) for v in witness[2]] == [F, F]
        # The same halves as circ, with the form pairing e0 with e0: on
        # (e0, e0, e0) form_circ_invariance reads 1/2 - 1/2 and yields nothing,
        # while form_times_ratio on that triple keeps its 1/2 as a 1-tuple.
        form_spec = AlgebraSpec(dim=2, circ=dot, times=[zero, zero], form=[[1, 0], [0, 0]])
        self.assert_matches_oracle(form_spec)
        assert list(iter_axiom_failures(form_spec, "form_compat"))[:2] == [
            ("form_times_ratio", (0, 0, 0), (F(1, 2),)),
            ("form_circ_invariance", (0, 0, 1), (F(-1),)),
        ]
