"""Formal distribution calculus and the induced Lie superalgebra of a linear
type-1 Hamiltonian operator.

Distributions live in a truncated Laurent ring in three commuting variables
z1, z2, z3 and three anticommuting variables theta1..theta3, with coefficients
that are rational multiples of abstract mode symbols phi<family>(k) (k a
half-integer, stored doubled), a central symbol c, or plain numbers.  The
canonical monomial form keeps the symbol to the left of the theta factors;
half-integer modes anticommute with thetas, everything else commutes.

The two-variable bracket of mode fields is expanded against the odd delta
distribution and the bracket of any two modes is read off the coefficients of
the four theta patterns.  A guard band on the truncation window keeps every
interior coefficient exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from .algebra import Coeff, Sparse, SuperPolynomial, Table, _as_matrix, _as_table, _exact, field
from .operators import MatrixDiffOperator, ScalarDiffOperator, check_skew_symmetry

# Symbols carried by distribution coefficients.
NUM = ("num",)
CENTRAL = ("c",)

Symbol = Tuple
ZExp = Tuple[int, int, int]
Thetas = Tuple[int, ...]
MonoKey = Tuple[ZExp, Thetas, Symbol]
ModeKey = Tuple[int, int]  # (family, doubled mode index)
Combo = Dict[Symbol, Coeff]

_ZERO = 0


def phi_symbol(family: int, doubled: int) -> Symbol:
    return ("phi", family, doubled)


def symbol_parity(sym: Symbol) -> int:
    return sym[2] & 1 if sym[0] == "phi" else 0


def mode_parity(key: ModeKey) -> int:
    return key[1] & 1


class FormalDistribution(Sparse):
    """Sparse truncated Laurent object with graded symbol coefficients."""

    __slots__ = ()

    @classmethod
    def monomial(cls, zexp: ZExp, thetas: Thetas, sym: Symbol = NUM,
                 coeff=1) -> "FormalDistribution":
        c = _exact(coeff)
        return cls({(zexp, tuple(thetas), sym): c} if c else {})

    def __mul__(self, other: "FormalDistribution") -> "FormalDistribution":
        acc: Dict[MonoKey, Coeff] = {}
        for (za, ta, sa), ca in self._terms.items():
            for (zb, tb, sb), cb in other._terms.items():
                sym = _merge_symbols(sa, sb)
                sign = 1
                # Move the right symbol left across the left theta block.
                if (len(ta) & 1) and symbol_parity(sb):
                    sign = -sign
                thetas, tsign = _merge_thetas(ta, tb)
                if tsign == 0:
                    continue
                sign *= tsign
                key = ((za[0] + zb[0], za[1] + zb[1], za[2] + zb[2]), thetas, sym)
                c = ca * cb * sign
                tot = acc.get(key, _ZERO) + c
                if tot:
                    acc[key] = tot
                elif key in acc:
                    del acc[key]
        return FormalDistribution(acc)

    def coefficient(self, zexp: ZExp, thetas: Thetas) -> Combo:
        """Symbol combination at a fixed z-exponent and theta pattern."""
        t = tuple(thetas)
        return {sym: coeff for (z, th, sym), coeff in self._terms.items()
                if z == zexp and th == t}

    def restrict(self, bound: int) -> "FormalDistribution":
        """Drop monomials with any z-exponent outside [-bound, bound]."""
        return FormalDistribution({
            key: coeff for key, coeff in self._terms.items()
            if all(-bound <= e <= bound for e in key[0])
        })


def _merge_symbols(sa: Symbol, sb: Symbol) -> Symbol:
    if sa == NUM:
        return sb
    if sb == NUM:
        return sa
    raise ValueError(f"product of non-scalar symbols {sa} and {sb} is not representable")


def _merge_thetas(ta: Thetas, tb: Thetas) -> Tuple[Thetas, int]:
    if not ta:
        return tb, 1
    if not tb:
        return ta, 1
    seen = set(ta)
    sign = 1
    for t in tb:
        if t in seen:
            return (), 0
        crossings = sum(1 for s in ta if s > t)
        if crossings & 1:
            sign = -sign
    merged = tuple(sorted(ta + tb))
    return merged, sign


def apply_Di(x: FormalDistribution, var: int) -> FormalDistribution:
    """The odd derivation theta_var d/dz_var + d/dtheta_var.

    A term holding theta_var meets only d/dtheta_var, a term without it only
    theta_var d/dz_var.  Either odd factor passes the symbol and the thetas
    before theta_var, so both carry the sign
    (-1)^(|symbol| + #{theta_t : t < var}).  Each term goes to its own
    monomial, so no two terms meet.
    """
    if var not in (1, 2, 3):
        raise ValueError("variable index must be 1, 2 or 3")
    out: Dict[MonoKey, Coeff] = {}
    idx = var - 1
    for (z, th, sym), coeff in x._terms.items():
        if var in th:
            key = (z, tuple(t for t in th if t != var), sym)
        elif z[idx]:
            key = (z[:idx] + (z[idx] - 1,) + z[var:], tuple(sorted(th + (var,))), sym)
            coeff = coeff * z[idx]
        else:
            continue
        odd = symbol_parity(sym) + sum(1 for t in th if t < var)
        out[key] = -coeff if odd & 1 else coeff
    return FormalDistribution(out)


def apply_Di_n(x: FormalDistribution, var: int, n: int) -> FormalDistribution:
    for _ in range(n):
        x = apply_Di(x, var)
    return x


def bare_delta(i: int, j: int, window: int) -> FormalDistribution:
    """Truncated two-variable delta: sum of (z_i/z_j)^m over |m| <= window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    terms: Dict[MonoKey, Coeff] = {}
    for m in range(-window, window + 1):
        z = [0, 0, 0]
        z[i - 1] += m
        z[j - 1] -= m
        terms[(tuple(z), (), NUM)] = 1
    return FormalDistribution(terms)


def make_delta(i: int, j: int, window: int) -> FormalDistribution:
    """The odd delta (theta_i - theta_j) * delta(z_i/z_j), truncated."""
    if i == j:
        raise ValueError("variable indices must differ")
    d = bare_delta(i, j, window)
    ti = FormalDistribution.monomial((0, 0, 0), (i,))
    tj = FormalDistribution.monomial((0, 0, 0), (j,))
    return ti * d - tj * d


def z_shift(var: int, power: int) -> FormalDistribution:
    z = [0, 0, 0]
    z[var - 1] = power
    return FormalDistribution.monomial(tuple(z), ())


def mode_field(family: int, var: int, top_order: int, mode_bound: int) -> FormalDistribution:
    """Truncated mode field in the given variable.

    Integer modes ride with theta_var, half-integer modes without; the mode
    with doubled index 2n (or 2n+1) sits at z-exponent -n - top_order - 1.
    """
    terms: Dict[MonoKey, Coeff] = {}
    for n in range(-mode_bound, mode_bound + 1):
        z = [0, 0, 0]
        z[var - 1] = -n - top_order - 1
        terms[(tuple(z), (var,), phi_symbol(family, 2 * n))] = 1
        terms[(tuple(z), (), phi_symbol(family, 2 * n + 1))] = 1
    return FormalDistribution(terms)


@dataclass
class LinearOperatorData:
    """Coefficient tables of a linear type-1 operator family.

    ``even_tables[m][a][b][g]`` multiplies phi_g(2(N-m)+1) D^{2m} and
    ``odd_tables[n][a][b][g]`` multiplies phi_g(2(N-n)) D^{2n+1} in entry
    (a, b); the optional ``constant[a][b]`` is a scalar block at power 2N+3
    that feeds the central extension.  Entries are stored exactly: ``int``
    when integral, ``Fraction`` otherwise.
    """

    top_order: int
    dim: int
    even_tables: Tuple
    odd_tables: Tuple
    constant: Optional[Tuple] = None

    def __post_init__(self) -> None:
        n, d = self.top_order, self.dim
        if n < 1:
            raise ValueError("top order must be >= 1")
        if d < 1:
            raise ValueError("family count must be >= 1")
        if len(self.even_tables) != n + 1 or len(self.odd_tables) != n:
            raise ValueError(f"top order {n} takes {n + 1} even and {n} odd tables")
        self.even_tables = tuple(_as_table(d, table) for table in self.even_tables)
        self.odd_tables = tuple(_as_table(d, table) for table in self.odd_tables)
        if self.constant is not None:
            self.constant = _as_matrix(d, self.constant)

    def terms(self) -> List[Tuple[int, int, Table]]:
        """(D power, field derivative count, table) of every field term, the
        even powers first: table[a][b][g] multiplies the field phi_g of order
        count + 1 times D^power in entry (a, b).  The power and the derivative
        count add up to 2N."""
        n = self.top_order
        return ([(2 * m, 2 * (n - m), table) for m, table in enumerate(self.even_tables)]
                + [(2 * m + 1, 2 * (n - m) - 1, table) for m, table in enumerate(self.odd_tables)])

    def realize(self) -> MatrixDiffOperator:
        """The matrix differential operator the tables describe (type 1)."""
        blocks = {}
        for a, b in product(range(self.dim), repeat=2):
            entries = {power: _linear_coeff(enumerate(table[a][b]), derivs + 1)
                       for power, derivs, table in self.terms()}
            if self.constant is not None:
                entries[2 * self.top_order + 3] = SuperPolynomial.scalar(self.constant[a][b])
            op = ScalarDiffOperator(entries)
            if op:
                blocks[(0, a, b)] = blocks[(1, a, b)] = op
        return MatrixDiffOperator(1, self.dim, blocks)


def _linear_coeff(cells, order: int) -> SuperPolynomial:
    """sum_k c Phi_k(order) over the (k, c) pairs of one cell."""
    return SuperPolynomial({((field(k, order), 1),): c for k, c in cells if c})


@dataclass
class ModeBracketTable:
    """Structure constants of the induced bracket within a truncation window.

    ``entries`` maps ordered mode pairs ((family, doubled), (family, doubled))
    with |doubled| <= 2*window to the bracket value, a combination of phi
    symbols and the central symbol.  Pairs with zero bracket are omitted.
    The central element is implicit: its brackets with everything vanish.
    """

    dim: int
    window: int
    entries: Dict[Tuple[ModeKey, ModeKey], Combo]

    def bracket(self, x: ModeKey, y: ModeKey) -> Optional[Combo]:
        """Bracket of two interior modes; None when outside the window."""
        bound = 2 * self.window
        if abs(x[1]) > bound or abs(y[1]) > bound:
            return None
        return self.entries.get((x, y), {})

    def mode_keys(self) -> List[ModeKey]:
        bound = 2 * self.window
        return [(fam, k) for fam in range(self.dim)
                for k in range(-bound, bound + 1)]


def induce_bracket(data: LinearOperatorData, window: int,
                   guard: Optional[int] = None) -> ModeBracketTable:
    """Mode structure constants induced by a linear type-1 operator.

    Expands the two-variable bracket of mode fields against the odd delta with
    an internal guard band (delta window = window + top_order + 2 unless
    overridden) and reads each interior mode bracket off the four theta
    patterns.  Interior coefficients are exact, so enlarging the guard cannot
    change the result.  The realized operator must be super skew-symmetric.

    Each D-power term (and the central term) gives one kernel, with a
    placeholder family: signs and parities depend on the doubled mode index
    alone, so an entry is a sum of table constants times kernel coefficients
    relabelled to each family.

    No distribution product is formed.  The bracket of (k1, k2) is the
    coefficient of z2^{-1} field * delta at one z-exponent and theta pattern.
    The field lives in z1 and carries at most theta_1, so a product term
    keeps its delta term's z2 exponent, and its z1 exponent and theta pattern
    are the sums of the two factors'.  So the pair reads only the delta terms
    at its z2 exponent whose theta pattern is part of the pair's, each times
    the field terms at the remaining z1 exponent and theta pattern: one or
    two products (``_SPLITS``).  The field stands left of a delta that
    carries no symbol, and the merged thetas are already sorted (theta_1
    before theta_2), so each product has sign +1.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ok, witness = check_skew_symmetry(data.realize())
    if not ok:
        raise ValueError(f"realized operator is not super skew-symmetric: {witness}")
    n, d = data.top_order, data.dim
    if guard is None:
        guard = window + n + 2
    elif guard < window + n + 2:
        raise ValueError("guard band too small for the requested window")
    delta = FormalDistribution({key: c for key, c in make_delta(1, 2, guard).terms().items()
                                if abs(key[0][1] + n) <= window})
    delta_derivs = [delta]
    for _ in range(2 * n + 3):
        delta_derivs.append(apply_Di(delta_derivs[-1], 1))
    field_derivs = [mode_field(0, 1, n, 2 * window + n + 2)]
    for _ in range(2 * n):
        field_derivs.append(apply_Di(field_derivs[-1], 1))
    # (tables[a][b][g], field, delta) per term; the central term is the
    # constant field c times the top delta derivative, and its block a table
    # with one column.
    terms = [(table, field_derivs[derivs], delta_derivs[power])
             for power, derivs, table in data.terms()]
    if data.constant is not None:
        terms.append((tuple(tuple((c,) for c in row) for row in data.constant),
                      FormalDistribution.monomial((0, 0, 0), (), CENTRAL),
                      delta_derivs[2 * n + 3]))
    kernels = [(tables, _kernel(field, delta, n, window)) for tables, field, delta in terms]
    # names[g] relabels a placeholder symbol to family g, one shared symbol
    # per mode for every entry.
    placeholders = {sym for _, kernel in kernels for kterms in kernel.values()
                    for sym, _ in kterms}
    names = [{sym: sym if sym == CENTRAL else phi_symbol(g, sym[2]) for sym in placeholders}
             for g in range(d)]

    # merged[pair]: (term, kernel terms) of every kernel holding the pair.
    merged: Dict[Tuple[int, int], List[Tuple[int, List[Tuple[Symbol, Coeff]]]]] = {}
    for t, (_, kernel) in enumerate(kernels):
        for pair, kterms in kernel.items():
            merged.setdefault(pair, []).append((t, kterms))

    entries: Dict[Tuple[ModeKey, ModeKey], Combo] = {}
    for a in range(d):
        for b in range(d):
            # cols[t]: (constant, relabelling) of each family with a nonzero
            # constant in term t.
            cols = [[(scale, names[g]) for g, scale in enumerate(tables[a][b]) if scale]
                    for tables, _ in kernels]
            if not any(cols):
                continue
            for (k1, k2), held in merged.items():
                combo: Combo = {}
                for t, kterms in held:
                    for scale, name in cols[t]:
                        for sym, c in kterms:
                            sym = name[sym]
                            combo[sym] = combo.get(sym, _ZERO) + scale * c
                if not all(combo.values()):
                    combo = {s: c for s, c in combo.items() if c}
                if combo:
                    entries[((a, k1), (b, k2))] = combo
    return ModeBracketTable(dim=d, window=window, entries=entries)


# The theta pattern and sign at which a kernel holds the mode pair (k1, k2),
# keyed by the parities of (k1, k2): an integer mode carries the theta of its
# variable, as ``mode_field`` places them, and when only k1 is an integer the
# odd phi(k2) passes theta_1 to reach the symbol slot.
_PAIR_THETAS = {(0, 0): ((1, 2), 1), (0, 1): ((1,), -1), (1, 0): ((2,), 1), (1, 1): ((), 1)}

# The (field, delta) theta patterns whose product has each pattern of
# ``_PAIR_THETAS``; a field carries at most theta_1.
_SPLITS = {(1, 2): (((), (1, 2)), ((1,), (2,))), (1,): (((), (1,)), ((1,), ())),
           (2,): (((), (2,)),), (): (((), ()),)}


def _kernel(field: FormalDistribution, delta: FormalDistribution, top_order: int,
            window: int):
    """(symbol, coeff) terms of z2^{-1} field * delta at each interior doubled
    mode pair (k1, k2), from the matching term pairs alone.

    The field is indexed by (z1 exponent, theta pattern) and the delta by
    (z2 exponent, theta pattern); the z2^{-1} shift is an offset of one in
    the z2 exponent.
    """
    fields: Dict[Tuple[int, Thetas], List[Tuple[Symbol, Coeff]]] = {}
    for (z, th, sym), coeff in field.terms().items():
        fields.setdefault((z[0], th), []).append((sym, coeff))
    deltas: Dict[Tuple[int, Thetas], List[Tuple[int, Coeff]]] = {}
    for (z, th, _), coeff in delta.terms().items():
        deltas.setdefault((z[1], th), []).append((z[0], coeff))
    bound = 2 * window
    # reads[p1][k2]: (field theta pattern, delta z1 exponent, signed delta
    # coefficient) of every delta term the pair (k1, k2) reads, p1 = k1 & 1.
    reads = [{}, {}]
    for p1 in (0, 1):
        for k2 in range(-bound, bound + 1):
            thetas, sign = _PAIR_THETAS[p1, k2 & 1]
            z2 = -(k2 // 2) - top_order
            reads[p1][k2] = [(tf, m1, c if sign > 0 else -c)
                             for tf, td in _SPLITS[thetas]
                             for m1, c in deltas.get((z2, td), ())]
    kernel = {}
    for k1 in range(-bound, bound + 1):
        z1 = -(k1 // 2) - top_order - 1
        for k2, row in reads[k1 & 1].items():
            kterms = [(sym, cf * cd) for tf, m1, cd in row
                      for sym, cf in fields.get((z1 - m1, tf), ())]
            if len(kterms) > 1:
                combo: Combo = {}
                for sym, c in kterms:
                    combo[sym] = combo.get(sym, _ZERO) + c
                kterms = [(sym, c) for sym, c in combo.items() if c]
            if kterms:
                kernel[(k1, k2)] = kterms
    return kernel


def check_super_skew(table: ModeBracketTable):
    """Graded skew-symmetry of the table; returns (ok, witness).

    The witness is the first failing pair (x, y) of ``mode_keys()`` squared
    in row-major order.  A pair with neither bracket stored passes, and
    (x, y) fails exactly when (y, x) does, so only the pairs with a stored
    entry are decided, each as its key-ordered member: the first failure in
    row-major order is such a member, the least one by key position.
    """
    position = {key: n for n, key in enumerate(table.mode_keys())}
    entries = table.entries
    first = None  # (positions, pair) of the least failing pair so far
    for x, y in entries:
        px, py = position.get(x), position.get(y)
        if px is None or py is None:
            continue
        if px > py:
            if (y, x) in entries:
                continue  # decided from its own entry
            x, y, px, py = y, x, py, px
        if first is not None and (px, py) >= first[0]:
            continue
        sign = -1 if (mode_parity(x) & mode_parity(y)) else 1
        residue = dict(entries.get((x, y), {}))
        for sym, coeff in entries.get((y, x), {}).items():
            c = residue.get(sym, _ZERO) + (coeff if sign > 0 else -coeff)
            if c:
                residue[sym] = c
            elif sym in residue:
                del residue[sym]
        # [x, y] + (-1)^{xy} [y, x] must vanish
        if residue:
            first = ((px, py), (x, y))
    return (True, None) if first is None else (False, first[1])


def check_super_jacobi(table: ModeBracketTable):
    """Graded Jacobi identity on every admissible interior triple.

    A triple (x, y, z) of interior modes is admissible when all three inner
    brackets and their pairings with the remaining mode stay inside the
    window.  Returns (ok, witness); the witness is the lexicographically first
    failing triple of ``mode_keys()`` cubed.

    Whether [[x, y], w] stays inside the window depends on [x, y] alone, so
    admissibility is decided once per ordered pair, on the entries indexed by
    mode position.

    The sweep visits only triples that are lexicographically smallest among
    their rotations, a third of them.  With
    S(x, y, z) = [[x,y],z] + (-1)^{px(py+pz)} [[y,z],x] + (-1)^{pz(px+py)} [[z,x],y],
    rotation gives S(y, z, x) = (-1)^{px(py+pz)} S(x, y, z), and it permutes
    the three nested brackets, so admissibility and the vanishing of S agree
    on all three rotations.  Rotations of a failing triple therefore fail,
    and the lexicographically first failing triple of the full sweep is the
    smallest of its rotations: the reduced sweep visits it, and visits the
    other triples in the same order, so it returns the same witness.

    On a super skew-symmetric table (``check_super_skew``) whose admissible
    pairs are symmetric, the sweep visits only the sorted triples, about a
    sixth of them.  There [b, a] = -(-1)^{|a||b|} [a, b] on interior modes,
    which gives S(y, x, z) = -(-1)^{px py} S(x, y, z) and
    S(x, z, y) = -(-1)^{py pz} S(x, y, z).  A swap reuses the same outer
    brackets [inner symbol, third mode], so it needs skew-symmetry only on
    pairs of interior modes.  Admissibility is decided on the inner pairs,
    and a swap reverses them: the skew check lets [b, a] store a symbol with
    coefficient 0 that [a, b] lacks, so the symmetry of admissible pairs is
    decided as well.  The set of failing triples is then closed under S3.
    The lexicographically least permutation of a triple is its sorted order,
    so the first failing triple is sorted, and the witness is unchanged.
    Otherwise the rotation sweep runs.
    """
    keys = table.mode_keys()
    count = len(keys)
    bound = 2 * table.window
    parity = [mode_parity(key) for key in keys]
    # Positions: the interior modes, then the modes of a family >= ``dim``
    # inside the window that the entries hold (admissible, and bracketing
    # through the entries like any mode).
    position = {key: i for i, key in enumerate(keys)}
    # place[sym]: the position of the mode a symbol names, -1 when it lies
    # outside the window, None for the central symbol.
    place = {phi_symbol(*key): i for i, key in enumerate(keys)}
    place[CENTRAL] = None
    for combo in table.entries.values():
        for sym in combo:
            if sym not in place:
                place[sym] = (-1 if abs(sym[2]) > bound
                              else position.setdefault((sym[1], sym[2]), len(position)))
    # value[s][w] holds the items of the entry [mode s, keys[w]]; inner[i][j]
    # holds the terms of [keys[i], keys[j]] as (position, coeff), or None
    # when that entry holds a mode outside the window (the pair is not
    # admissible).
    value = [[()] * count for _ in range(len(position))]
    inner = [[()] * count for _ in range(count)]
    for (x, y), combo in table.entries.items():
        s, j = position.get(x), position.get(y, count)
        if s is None or j >= count:
            continue
        items = value[s][j] = tuple(combo.items())
        if s < count:
            terms = []
            for m, c in items:
                p = place[m]
                if p is None:
                    continue
                if p < 0:
                    terms = None
                    break
                terms.append((p, c))
            inner[s][j] = terms if terms is None else tuple(terms)
    swaps = check_super_skew(table)[0] and all(
        (inner[i][j] is None) == (inner[j][i] is None)
        for i in range(count) for j in range(i + 1, count))

    for i in range(count):
        px, inner_i = parity[i], inner[i]
        for j in range(i, count):
            ij = inner_i[j]
            if ij is None:
                continue
            py, inner_j = parity[j], inner[j]
            # Sorted triples start k at j.  Otherwise (i, j, k) is the least
            # of its rotations iff k >= i, and k > i when j > i.
            for k in range(j if swaps else i if j == i else i + 1, count):
                jk, ki = inner_j[k], inner[k][i]
                if jk is None or ki is None or not (ij or jk or ki):
                    continue
                pz = parity[k]
                total: Combo = {}
                for s, c in ij:
                    for sym, v in value[s][k]:
                        total[sym] = total.get(sym, _ZERO) + c * v
                flip = px & (py ^ pz)
                for s, c in jk:
                    if flip:
                        c = -c
                    for sym, v in value[s][i]:
                        total[sym] = total.get(sym, _ZERO) + c * v
                flip = pz & (px ^ py)
                for s, c in ki:
                    if flip:
                        c = -c
                    for sym, v in value[s][j]:
                        total[sym] = total.get(sym, _ZERO) + c * v
                if any(total.values()):
                    return False, (keys[i], keys[j], keys[k])
    return True, None


def render_mode(key: ModeKey) -> str:
    fam, doubled = key
    if doubled % 2 == 0:
        return f"phi{fam}({doubled // 2})"
    return f"phi{fam}({doubled}/2)"


def render_symbol(sym: Symbol) -> str:
    if sym == CENTRAL:
        return "c"
    if sym == NUM:
        return "1"
    return render_mode((sym[1], sym[2]))


def render_combo(combo: Combo) -> str:
    if not combo:
        return "0"
    parts = []
    for sym in sorted(combo):
        coeff = combo[sym]
        body = render_symbol(sym)
        if coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def render_table(table: ModeBracketTable) -> List[str]:
    """Deterministic line rendering of every nonzero bracket."""
    lines = []
    for (left, right) in sorted(table.entries):
        combo = table.entries[(left, right)]
        lines.append(f"[{render_mode(left)}, {render_mode(right)}] = {render_combo(combo)}")
    return lines


def virasoro_operator_data(families: int) -> LinearOperatorData:
    """Linear operator data whose induced bracket generalizes the
    super-Virasoro algebra on the given number of families."""
    if families < 1:
        raise ValueError("family count must be >= 1")
    d = families

    def table(value_fn):
        return tuple(
            tuple(tuple(value_fn(a, b, g) for g in range(d)) for b in range(d))
            for a in range(d)
        )

    even0 = table(lambda a, b, g: b + 2 if a + b == g else 0)
    even1 = table(lambda a, b, g: a + b + 3 if a + b == g else 0)
    odd0 = table(lambda a, b, g: 1 if a + b == g else 0)
    const = tuple(tuple(1 if a == 0 and b == 0 else 0 for b in range(d)) for a in range(d))
    return LinearOperatorData(
        top_order=1, dim=d,
        even_tables=(even0, even1),
        odd_tables=(odd0,),
        constant=const,
    )


def super_virasoro_table(families: int, window: int) -> ModeBracketTable:
    """Closed-form mode brackets of the generalized super-Virasoro algebra.

    Half-integer modes bracket to the shifted integer mode plus the central
    term (n+1) n at opposite mode sums; mixed brackets are first order in the
    mode labels; integer modes close on the Virasoro-type bracket with central
    coefficient -(n+1) n (n-1) supported where the modes cancel.  Families add,
    truncated at the family count.
    """
    if families < 1 or window < 1:
        raise ValueError("family count and window must be >= 1")
    d = families
    bound = 2 * window
    entries: Dict[Tuple[ModeKey, ModeKey], Combo] = {}
    for i in range(d):
        for j in range(d):
            for k1 in range(-bound, bound + 1):
                for k2 in range(-bound, bound + 1):
                    combo: Combo = {}
                    target = i + j
                    if k1 % 2 and k2 % 2:
                        m, n = (k1 - 1) // 2, (k2 - 1) // 2
                        if target < d:
                            combo[phi_symbol(target, k1 + k2)] = 1
                        if i == 0 and j == 0 and m + n + 1 == 0:
                            c = (n + 1) * n
                            if c:
                                combo[CENTRAL] = combo.get(CENTRAL, _ZERO) + c
                    elif k1 % 2:
                        m, n = (k1 - 1) // 2, k2 // 2
                        lin = (j + 2) * (m + 1) - (i + 1) * (n + 1)
                        if lin and target < d:
                            combo[phi_symbol(target, k1 + k2)] = lin
                    elif k2 % 2:
                        m, n = k1 // 2, (k2 - 1) // 2
                        lin = (j + 1) * (m + 1) - (i + 2) * (n + 1)
                        if lin and target < d:
                            combo[phi_symbol(target, k1 + k2)] = lin
                    else:
                        m, n = k1 // 2, k2 // 2
                        lin = (j + 2) * (m + 1) - (i + 2) * (n + 1)
                        if lin and target < d:
                            combo[phi_symbol(target, k1 + k2)] = lin
                        if i == 0 and j == 0 and m + n == 0:
                            c = -(n + 1) * n * (n - 1)
                            if c:
                                combo[CENTRAL] = combo.get(CENTRAL, _ZERO) + c
                    combo = {s: c for s, c in combo.items() if c}
                    if combo:
                        entries[((i, k1), (j, k2))] = combo
    return ModeBracketTable(dim=d, window=window, entries=entries)
