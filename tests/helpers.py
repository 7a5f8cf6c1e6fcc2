"""Shared random generators for the property tests."""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import product

from svarcalc import (
    AlgebraSpec,
    EvolutionaryField,
    LinearOperatorData,
    MatrixDiffOperator,
    ScalarDiffOperator,
    SkewSymmetryError,
    SuperPolynomial,
    check_skew_symmetry,
    configurations,
    covector,
    field,
    make_truncated_example,
    np_to_nx,
    parity,
)
from svarcalc import operators
from svarcalc.algebra import COVECTOR_SLOTS, FIELD_KIND, _exact, mul_into, tower_partials
from svarcalc.calculus import non_membership_certificate, superderive_n
from svarcalc.modes import (
    CENTRAL,
    FormalDistribution,
    _PAIR_THETAS,
    apply_Di,
    make_delta,
    mode_field,
    phi_symbol,
    symbol_parity,
)
from svarcalc.operators import (
    _field_families,
    compose_D_left,
    iter_closedness_failures,
    iter_schouten_failures,
)
from svarcalc.structures import derived_dot_table


def field_pool(families: int, max_order: int):
    return [field(a, n) for a in range(families) for n in range(1, max_order + 1)]


def mixed_pool(families: int, max_order: int):
    pool = field_pool(families, max_order)
    pool += [covector(1, 0, k, 1) for k in range(2)]
    pool += [covector(2, 0, k, 0) for k in range(2)]
    pool.append(covector(3, 0, 0, 1))
    return pool


def random_poly(rng: random.Random, pool, max_terms: int = 4,
                max_factors: int = 4) -> SuperPolynomial:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        gens = [rng.choice(pool) for _ in range(rng.randint(0, max_factors))]
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((gens, coeff))
    return SuperPolynomial.from_terms(terms)


# Fields of two families plus one covector slot and family in both base
# parities, whose towers interleave: D(xi1_0) of base parity 0 sorts after
# the odd xi1_0 of base parity 1.  Few generators make repeated even factors
# and shifts onto present generators common.
KERNEL_POOL = (field_pool(1, 4) + field_pool(2, 2)[2:]
               + [covector(1, 0, k, bp) for k in range(3) for bp in (0, 1)]
               + [covector(3, 0, 0, 1)])
KERNEL_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3))


def kernel_poly(rng: random.Random) -> SuperPolynomial:
    """Seeded polynomial for the kernel oracles: up to four terms of up to
    six factors, with integral and fractional coefficients."""
    return SuperPolynomial.from_terms(
        ([rng.choice(KERNEL_POOL) for _ in range(rng.randint(0, 6))], rng.choice(KERNEL_COEFFS))
        for _ in range(rng.randint(1, 4)))


def partial_by_scan(u: SuperPolynomial, gen) -> SuperPolynomial:
    """Oracle for one partial derivative: scan each monomial for gen and
    remove one power with the sign of the odd factors to its left."""
    acc = {}
    for mono, coeff in u.terms().items():
        left_odd = 0
        for idx, (g, exp) in enumerate(mono):
            if g == gen:
                c = -coeff * exp if parity(gen) and left_odd & 1 else coeff * exp
                rest = ((g, exp - 1),) if exp > 1 else ()
                new = mono[:idx] + rest + mono[idx + 1:]
                acc[new] = acc.get(new, 0) + c
                break
            left_odd += parity(g)
    return SuperPolynomial({m: c for m, c in acc.items() if c})


def merge_monomials(m1, m2):
    """Oracle for the monomial product: merge two canonical monomials as two
    sorted lists.  An odd generator of m2 that is placed before position i of
    m1 crosses the odd generators of m1[i:], counted once in a suffix table."""
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    n1 = len(m1)
    odd_suffix = [0] * (n1 + 1)
    for i in range(n1 - 1, -1, -1):
        odd_suffix[i] = odd_suffix[i + 1] + (parity(m1[i][0]) if m1[i][1] & 1 else 0)
    out = []
    sign = 1
    i = j = 0
    while i < n1 and j < len(m2):
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            out.append((g1, e1))
            i += 1
        elif g1 == g2:
            if parity(g1):
                return None, 0
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        else:
            if parity(g2) and odd_suffix[i] & 1:
                sign = -sign
            out.append((g2, e2))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def random_homogeneous(rng: random.Random, pool, parity: int,
                       tries: int = 60) -> SuperPolynomial:
    for _ in range(tries):
        p = random_poly(rng, pool)
        part = p.even_part() if parity == 0 else p.odd_part()
        if part:
            return part
    return SuperPolynomial.zero()


def random_evolutionary(rng: random.Random, families: int, max_order: int,
                        parity=None) -> EvolutionaryField:
    pool = field_pool(families, max_order)
    s = rng.randint(0, 1) if parity is None else parity
    comps = {}
    for fam in range(families):
        comps[fam] = random_homogeneous(rng, pool, (s + 1) & 1)
    return EvolutionaryField(parity=s, components=comps)


def linear_data(spec: AlgebraSpec) -> LinearOperatorData:
    """The top-order-1 tables (circ, derived dot; times; form) of a bialgebra spec."""
    return LinearOperatorData(1, spec.dim, (spec.circ, derived_dot_table(spec)),
                              (spec.times,), spec.form)


def bumped(spec, table, site, delta):
    """Copy of ``spec`` with the constant at ``site`` of one table shifted by ``delta``."""
    tab = [[list(cell) for cell in row] for row in getattr(spec, table)]
    i, j, k = site
    tab[i][j][k] += delta
    parts = {name: getattr(spec, name) for name in ("circ", "times", "dot", "form", "grading")}
    parts[table] = tab
    return AlgebraSpec(dim=spec.dim, **parts)


def graded_spec(half: int, weight: int) -> AlgebraSpec:
    """Novikov superalgebra x o y = x (t d/dt + weight) y on k[t]/(t^half) (x) Lambda[theta].

    Basis t^i (even) then t^i theta (odd).  The Gelfand-Dorfman construction
    on a supercommutative algebra with an even derivation makes it a Novikov
    superalgebra for every weight.  The same construction as the benchmark's
    ``axiom-tables`` graded specs.
    """
    dim = 2 * half
    circ = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        i, a_odd = a % half, a // half
        for b in range(dim):
            j, b_odd = b % half, b // half
            if (a_odd and b_odd) or i + j >= half:
                continue
            circ[a][b][i + j + half * (a_odd or b_odd)] = j + weight
    return AlgebraSpec(dim=dim, circ=circ, grading=tuple([0] * half + [1] * half))


def truncated_mutations(rng: random.Random):
    """Every single-entry circ/times mutation of the truncated bialgebras
    d = 1, 2, each by a seeded delta from +-1, +-2."""
    for d in (1, 2):
        base = np_to_nx(make_truncated_example(d), 0)
        for name in ("circ", "times"):
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        table = [[list(cell) for cell in row] for row in getattr(base, name)]
                        table[i][j][k] += rng.choice((1, -1, 2, -2))
                        parts = {"circ": base.circ, "times": base.times, name: table}
                        yield AlgebraSpec(dim=d, form=base.form, **parts)


def full_scan_failures(scan, limit=None):
    """Oracle for ``ConfigurationScan.failures``: every configuration in
    lexicographic order, each one decided on its own form, as (families,
    parities, base, gradient)."""
    out = []
    for families, parities in configurations(scan.dim):
        if len(out) == limit:
            break
        certificate = non_membership_certificate(scan.three_form(families, parities))
        if certificate is not None:
            out.append((families, parities) + certificate)
    return out


def rotation_listing(scan):
    """Oracle for ``ConfigurationScan._configurations``: every hit of the
    scan's joins placed in its three cyclic slot rotations at every parity
    p_b, p_c, as sorted (families, parities); a reduced scan decides the
    sorted family triples of these at parities (0, 0, 0)."""
    listed = set()
    for op_a, op_b in scan._joins:
        rows = {}
        for p_b, g, f_b in op_b.blocks():
            rows.setdefault((p_b, g), []).append(f_b)
        for (p_a, f_c, f_a), scalar in op_a.blocks().items():
            for g, p_b, p_c in product(_field_families(scalar.entries().values(), scan.dim),
                                       (0, 1), (0, 1)):
                for f_b in rows.get((p_b, g), ()):
                    listed.update((((f_a, f_b, f_c), (p_a, p_b, p_c)),
                                   ((f_c, f_a, f_b), (p_c, p_a, p_b)),
                                   ((f_b, f_c, f_a), (p_b, p_c, p_a))))
    return sorted(listed)


def compose_D_power_left(op, times: int):
    """D^times o op, normal-ordered by ``times`` applications of
    ``compose_D_left``."""
    for _ in range(times):
        op = compose_D_left(op)
    return op


def leibniz_rows(parity: int):
    """Oracle for ``operators._leibniz_row``: the rows a(p, q), q = 0 .. p,
    for p = 0, 1, 2, ... and u of the given parity, by the Pascal-style
    recursion that D o v = D(v) + (-1)^|v| v D at v = D^(p - q)(u) gives:
    a(p + 1, q) += a(p, q) and a(p + 1, q + 1) += (-1)^(|u| + p - q) a(p, q)."""
    row, p = [1], 0
    while True:
        yield row
        nxt = row + [0]
        for q, a in enumerate(row):
            nxt[q + 1] += -a if (parity + p - q) & 1 else a
        row, p = nxt, p + 1


def skew_transpose(scalar, iota):
    """The entry that super skew-symmetry asks for at the mirrored position of
    ``scalar``: sum_l (-1)^{(2 iota + l)(l-1)/2} D^l o c_l, normal-ordered."""
    out = ScalarDiffOperator.zero()
    for power, coeff in scalar.entries().items():
        sign = -1 if ((2 * iota + power) * (power - 1) // 2) & 1 else 1
        out = out + compose_D_power_left(ScalarDiffOperator.single(coeff, 0), power).scaled(sign)
    return out


def random_skew_operator(rng: random.Random, powers: int = 4) -> MatrixDiffOperator:
    """A seeded super skew-symmetric operator of dimension 1 to 3 and either
    type, with coefficients of up to four field factors at D powers below
    ``powers``.

    Each drawn entry A of block 0 gets its skew transpose at the mirrored
    position (a diagonal entry becomes A plus its transpose, which the
    transpose fixes), and block 1 follows from the block relation.
    """
    dim, iota = rng.randint(1, 3), rng.randint(0, 1)
    pool = field_pool(dim, 2)
    blocks = {}
    for _ in range(rng.randint(1, 3)):
        row, col = rng.randrange(dim), rng.randrange(dim)
        scalar = ScalarDiffOperator({power: random_homogeneous(rng, pool, (iota + power) & 1)
                                     for power in rng.sample(range(powers), rng.randint(1, 2))})
        if row == col:
            scalar = scalar + skew_transpose(scalar, iota)
        for r, c, entry in ((row, col, scalar), (col, row, skew_transpose(scalar, iota))):
            blocks[(0, r, c)] = entry
            blocks[(1, r, c)] = entry.scaled(1 if iota else -1)
    return MatrixDiffOperator(iota, dim, blocks)


def phi_flip(form: SuperPolynomial, slot: int) -> SuperPolynomial:
    """The parity flip Phi_s of a form linear in covector slot ``slot``: on a
    monomial holding D^i xi_s, flip the base parity of xi_s and multiply by
    (-1)^(i+P), P the parity of the factors sorted before it.  The flipped
    generator sorts where the old one did, so monomials stay canonical."""
    out = {}
    for mono, coeff in form.terms().items():
        (idx,) = [k for k, (gen, _) in enumerate(mono) if gen[0] == slot]
        (kind, fam, derivs, base_parity), exp = mono[idx]
        if exp != 1:
            raise ValueError("the form is not linear in the slot")
        before = sum(parity(gen) * e for gen, e in mono[:idx])
        flipped = ((kind, fam, derivs, 1 - base_parity), 1)
        out[mono[:idx] + (flipped,) + mono[idx + 1:]] = -coeff if (derivs + before) & 1 else coeff
    return SuperPolynomial(out)


def dense_skew_failures(op):
    """Oracle for ``iter_skew_failures``: both conditions at every (row, col)
    pair of the declared dimension, in row-major order."""
    iota = op.type_parity
    for row, col in product(range(op.dim), repeat=2):
        lhs = skew_transpose(op.entry(0, row, col), iota)
        rhs = op.entry(0, col, row)
        if lhs != rhs:
            diff = lhs - rhs
            power = min(diff.entries())
            yield ("transpose", row, col, power, str(diff.entries()[power]))
        block0 = op.entry(0, row, col)
        block1 = op.entry(1, row, col)
        want = block1.scaled(1 if iota else -1)
        if block0 != want:
            diff = block0 - want
            power = min(diff.entries())
            yield ("block", row, col, power, str(diff.entries()[power]))


def dense_frechet(op, cov_base, omega_parity):
    """Oracle for ``frechet``: every (row, col) pair of the declared
    dimension, in row-major order, each term through the general product
    coefficient * D^power(symbol) rather than by appending the symbol."""
    iota = op.type_parity
    fam = cov_base[1]
    xi_poly = SuperPolynomial.generator(cov_base)
    out = {}
    sign_flip = (omega_parity + iota) & 1
    for row in range(op.dim):
        shifted = [coeff * superderive_n(xi_poly, power)
                   for power, coeff in op.entry(omega_parity, row, fam).entries().items()]
        for col in range(op.dim):
            entries = {}
            for coeff in shifted:
                for m, part in tower_partials(coeff, field(col, 1)).items():
                    if sign_flip and (m & 1):
                        part = -part
                    entries[m] = entries[m] + part if m in entries else part
            entry = ScalarDiffOperator(entries)
            if entry:
                out[(row, col)] = entry
    return out


def applied_column(op, sym, col):
    """Oracle for the scan's applied column D^0: the stored entry at (parity,
    col, family) of ``sym`` applied to the covector symbol by
    ``ScalarDiffOperator.apply``, sum_l c_l * D^l(sym) through the general
    product."""
    entry = op.entry((sym[3] + 1) & 1, col, sym[1])
    return entry.apply(SuperPolynomial.generator(sym))


def dense_apply(op, xi, block):
    """Oracle for ``apply_matrix_operator``: every row of the declared
    dimension against every family of the assignment."""
    out = {}
    for row in range(op.dim):
        acc = SuperPolynomial.zero()
        for col, poly in xi.items():
            if poly:
                acc = acc + op.entry(block, row, col).apply(poly)
        out[row] = acc
    return out


def times_generator_into(acc, terms, gen, sign: int = 1) -> None:
    """Add sign * (u * gen) into the term dict ``acc`` in place, u given by its
    terms: gen enters from the right, so one walk from the right end finds its
    place and counts the odd factors it passes.  Coefficients that cancel are
    removed."""
    odd = parity(gen)
    for mono, coeff in terms.items():
        pos, passed = len(mono), 0
        while pos and mono[pos - 1][0] > gen:
            pos -= 1
            passed += parity(mono[pos][0])
        if pos and mono[pos - 1][0] == gen:
            if odd:
                continue
            new = mono[:pos - 1] + ((gen, mono[pos - 1][1] + 1),) + mono[pos:]
        else:
            new = mono[:pos] + ((gen, 1),) + mono[pos:]
        c = acc.get(new, 0) + (-coeff if (sign < 0) ^ (odd & passed) else coeff)
        if c:
            acc[new] = c
        elif new in acc:
            del acc[new]


def relabel(poly: SuperPolynomial, slot: int) -> SuperPolynomial:
    """A polynomial whose covectors all lie in slot 1, with them moved to
    ``slot``: fields sort before covectors, so the monomials stay sorted."""
    return SuperPolynomial({
        tuple((gen, exp) if gen[0] == FIELD_KIND else ((slot,) + gen[1:], exp)
              for gen, exp in mono): coeff
        for mono, coeff in poly.terms().items()})


def relabelled_three_form(scan, families, parities) -> SuperPolynomial:
    """Oracle for ``ConfigurationScan.three_form``: each cyclic term built the
    general way.  The linearization and the applied column are built on the
    slot-1 symbol and relabelled to their slots, multiplied by ``mul_into``,
    and the closing covector is sorted in by ``times_generator_into``; the
    form's integral coefficients are made ``int`` (``algebra._exact``), as
    the scan makes them."""
    xi = [covector(slot, fam, 0, (par + 1) & 1)
          for slot, fam, par in zip(COVECTOR_SLOTS, families, parities)]
    first = [(COVECTOR_SLOTS[0],) + sym[1:] for sym in xi]
    acc = {}
    for op_a, op_b in scan._pairs:
        for (a, b, c), sign in zip(operators._CYCLIC,
                                   operators._config_signs(scan.type_parity, parities)):
            product = {}
            for (row, col), scalar in operators.frechet(op_a, first[a], parities[a]).items():
                if row != families[c]:
                    continue
                applied = operators._apply_to_symbol(op_b.entry(parities[b], col, families[b]),
                                                     first[b])
                for m, coeff in scalar.entries().items():
                    w = superderive_n(applied, m)
                    if w:
                        mul_into(product, relabel(coeff, COVECTOR_SLOTS[a]),
                                 relabel(w, COVECTOR_SLOTS[b]))
            times_generator_into(acc, product, xi[c], sign)
    return SuperPolynomial({mono: _exact(coeff) for mono, coeff in acc.items()})


def pair_oracle(op1, op2):
    """Oracle for ``is_hamiltonian_pair``: the two closedness scans, then the
    scan of the mixed Schouten bracket [H1, H2]."""
    op1._check_compatible(op2)
    for label, op in (("first", op1), ("second", op2)):
        ok, witness = check_skew_symmetry(op)
        if not ok:
            raise SkewSymmetryError(f"{label} operator is not super skew-symmetric: {witness}")
    for label, failures in (("[H1,H1]", iter_closedness_failures(op1, limit=1)),
                            ("[H2,H2]", iter_closedness_failures(op2, limit=1)),
                            ("[H1,H2]", iter_schouten_failures(op1, op2, limit=1))):
        for families, parities, _, _ in failures:
            return False, (label, families, parities)
    return True, None


def apply_Di_by_cases(x, var: int):
    """Oracle for ``apply_Di``: theta_var d/dz_var and d/dtheta_var as two
    branches, each with its own sign and accumulation."""
    if var not in (1, 2, 3):
        raise ValueError("variable index must be 1, 2 or 3")
    acc = {}

    def bump(key, coeff):
        if not coeff:
            return
        tot = acc.get(key, 0) + coeff
        if tot:
            acc[key] = tot
        elif key in acc:
            del acc[key]

    idx = var - 1
    for (z, th, sym), coeff in x.terms().items():
        # theta_var * d/dz_var
        if z[idx] != 0 and var not in th:
            sign = -1 if symbol_parity(sym) else 1
            crossings = sum(1 for t in th if t < var)
            if crossings & 1:
                sign = -sign
            newz = tuple(e - 1 if i == idx else e for i, e in enumerate(z))
            newth = tuple(sorted(th + (var,)))
            bump((newz, newth, sym), coeff * z[idx] * sign)
        # d/dtheta_var
        if var in th:
            sign = -1 if symbol_parity(sym) else 1
            crossings = sum(1 for t in th if t < var)
            if crossings & 1:
                sign = -sign
            newth = tuple(t for t in th if t != var)
            bump((z, newth, sym), coeff * sign)
    return FormalDistribution(acc)


def mutate_document(rng: random.Random, doc, pool):
    """A copy of a parsed JSON document with one to three random edits: a
    node replaced by a value from ``pool``, a key or list item removed, or a
    list item doubled."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            items = node.items() if isinstance(node, dict) else \
                enumerate(node) if isinstance(node, list) else ()
            for key, child in items:
                paths.append(path + (key,))
                stack.append((path + (key,), child))
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, roll = path[-1], rng.random()
        if roll < 0.6:
            parent[key] = copy.deepcopy(rng.choice(pool))
        elif roll < 0.8:
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def kernel_factors(top_order: int, window: int, guard=None):
    """The field derivatives (placeholder family 0) and the delta derivatives
    whose products the closed-form kernels of ``induce_bracket`` stand for,
    the delta restricted to the terms whose z2 exponent can land in the
    window and truncated at ``guard`` (default window + N + 2)."""
    n = top_order
    delta = FormalDistribution({key: c for key, c
                                in make_delta(1, 2, guard or window + n + 2).terms().items()
                                if abs(key[0][1] + n) <= window})
    delta_derivs = [delta]
    for _ in range(2 * n + 3):
        delta_derivs.append(apply_Di(delta_derivs[-1], 1))
    field_derivs = [mode_field(0, 1, n, 2 * window + n + 2)]
    for _ in range(2 * n):
        field_derivs.append(apply_Di(field_derivs[-1], 1))
    return field_derivs, delta_derivs


CENTRAL_FIELD = FormalDistribution.monomial((0, 0, 0), (), CENTRAL)


def extract_pairs(x, top_order: int, window: int):
    """Oracle for one kernel of ``induce_bracket``: the (symbol, coeff) terms
    of z2^{-1} x at each interior doubled mode pair (k1, k2), read off the
    whole distribution product x = field * delta through one index keyed by
    (z-exponent, theta pattern)."""
    index = {}
    for (z, th, sym), coeff in x.terms().items():
        index.setdefault((z, th), []).append((sym, coeff))
    kernel = {}
    bound = 2 * window
    for k1 in range(-bound, bound + 1):
        z1 = -(k1 // 2) - top_order - 1
        for k2 in range(-bound, bound + 1):
            thetas, sign = _PAIR_THETAS[k1 & 1, k2 & 1]
            combo = index.get(((z1, -(k2 // 2) - top_order, 0), thetas))
            if combo:
                kernel[(k1, k2)] = combo if sign > 0 else [(s, -c) for s, c in combo]
    return kernel


def induce_by_products(data, window: int, guard=None):
    """Oracle for ``induce_bracket`` entries: each kernel read off its
    distribution product by ``extract_pairs``, then every entry summed as the
    table constants times the kernels relabelled to each family."""
    n, d = data.top_order, data.dim
    field_derivs, delta_derivs = kernel_factors(n, window, guard)
    products = [(table, field_derivs[derivs] * delta_derivs[power])
                for power, derivs, table in data.terms()]
    if data.constant is not None:
        products.append((tuple(tuple((c,) for c in row) for row in data.constant),
                         delta_derivs[2 * n + 3] * CENTRAL_FIELD))
    kernels = [(table, extract_pairs(x, n, window)) for table, x in products]
    entries = {}
    for a in range(d):
        for b in range(d):
            acc = {}
            for table, kernel in kernels:
                for g, scale in enumerate(table[a][b]):
                    if not scale:
                        continue
                    for pair, kterms in kernel.items():
                        out = acc.setdefault(pair, {})
                        for sym, c in kterms:
                            sym = sym if sym == CENTRAL else phi_symbol(g, sym[2])
                            out[sym] = out.get(sym, 0) + scale * c
            for (k1, k2), combo in acc.items():
                combo = {s: c for s, c in combo.items() if c}
                if combo:
                    entries[((a, k1), (b, k2))] = combo
    return entries
