"""Formal distribution calculus and the induced Lie superalgebra of a linear
type-1 Hamiltonian operator.

Distributions live in a truncated Laurent ring in three commuting variables
z1, z2, z3 and three anticommuting variables theta1..theta3, with coefficients
that are rational multiples of abstract mode symbols phi<family>(k) (k a
half-integer, stored doubled), a central symbol c, or plain numbers.  The
canonical monomial form keeps the symbol to the left of the theta factors;
half-integer modes anticommute with thetas, everything else commutes.

The bracket of two modes is one coefficient of the two-variable bracket of
mode fields against the odd delta, at one of four theta patterns; the induced
table reads it from closed-form kernels, exact at every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
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
    that feeds the central extension.  Entries enter through
    ``algebra._exact`` (the coefficient rule of the ``algebra`` docstring).
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
    symbols and the central symbol.  Pairs with zero bracket are omitted,
    and a stored coefficient 0 is no term: the checks, ``bracket`` and the
    rendering skip it.  The central element is implicit: its brackets with
    everything vanish.
    """

    dim: int
    window: int
    entries: Dict[Tuple[ModeKey, ModeKey], Combo]

    def bracket(self, x: ModeKey, y: ModeKey) -> Optional[Combo]:
        """Bracket of two interior modes; None when outside the window."""
        bound = 2 * self.window
        if abs(x[1]) > bound or abs(y[1]) > bound:
            return None
        return {sym: c for sym, c in self.entries.get((x, y), {}).items() if c}

    def mode_keys(self) -> List[ModeKey]:
        bound = 2 * self.window
        return [(fam, k) for fam in range(self.dim)
                for k in range(-bound, bound + 1)]


def induce_bracket(data: LinearOperatorData, window: int) -> ModeBracketTable:
    """Mode structure constants induced by a linear type-1 operator.

    The bracket of the interior modes (k1, k2), doubled, is the coefficient of
    z2^{-1} field * delta at one z-exponent and theta pattern, summed over the
    D-power terms of ``data.terms()`` and the central term.  Each term t gives
    a kernel kappa_t(k1, k2) in closed form (``_kernel``), and the field of
    every D-power term is the mode phi_g(k1 + k2), so entry (a, b) is

        sum_t sum_g T_t[a][b][g] kappa_t(k1, k2) phi_g(k1 + k2)
            + constant[a][b] kappa_c(k1, k2) c.

    Per block and column g the kernels of the terms with T_t[a][b][g] != 0
    are added in term order into one kernel, whose nonzero values are the
    phi_g coefficients.  No distribution is formed and every coefficient is
    exact.  The realized operator must be super skew-symmetric.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ok, witness = check_skew_symmetry(data.realize())
    if not ok:
        raise ValueError(f"realized operator is not super skew-symmetric: {witness}")
    n, d = data.top_order, data.dim
    terms = [(table, _kernel(power, derivs, n, window)) for power, derivs, table in data.terms()]
    central = _kernel(2 * n + 3, None, n, window) if data.constant is not None else {}
    low = -4 * window  # syms[g][K - low] is the symbol phi_g(K) of a mode sum K
    syms = [[phi_symbol(g, K) for K in range(low, 1 - low)] for g in range(d)]
    entries: Dict[Tuple[ModeKey, ModeKey], Combo] = {}
    for a, b in product(range(d), repeat=2):
        for g, row in enumerate(syms):
            # The combined kernel of column g, its terms added in order.
            kernel: Dict[Tuple[int, int], Coeff] = {}
            for table, term in terms:
                scale = table[a][b][g]
                if scale:
                    for pair, c in term.items():
                        kernel[pair] = kernel.get(pair, _ZERO) + scale * c
            for (k1, k2), c in kernel.items():
                if c:
                    entries.setdefault(((a, k1), (b, k2)), {})[row[k1 + k2 - low]] = c
        if central and data.constant[a][b]:
            for (k1, k2), c in central.items():
                entries.setdefault(((a, k1), (b, k2)), {})[CENTRAL] = data.constant[a][b] * c
    return ModeBracketTable(dim=d, window=window, entries=entries)


# The theta pattern and sign at which a kernel holds the mode pair (k1, k2),
# keyed by the parities of (k1, k2): an integer mode carries the theta of its
# variable, as ``mode_field`` places them, and when only k1 is an integer the
# odd phi(k2) passes theta_1 to reach the symbol slot.
_PAIR_THETAS = {(0, 0): ((1, 2), 1), (0, 1): ((1,), -1), (1, 0): ((2,), 1), (1, 1): ((), 1)}

# D_1^{2a + eps} of the delta term (theta_1 - theta_2) z1^m z2^-m, keyed by
# eps: each theta pattern it holds, with (sign, order) of its factor
# sign * ff(m, a + order).  So eps = 0 gives theta_1 with +ff(m, a) and
# theta_2 with -ff(m, a); eps = 1 gives no theta with +ff(m, a) and
# theta_1 theta_2 with -ff(m, a + 1).
_DELTA_DERIVATIVE = {0: {(1,): (1, 0), (2,): (-1, 0)}, 1: {(): (1, 0), (1, 2): (-1, 1)}}


def _falling(x: int, k: int) -> int:
    """The falling factorial ff(x, k) = x (x - 1) ... (x - k + 1)."""
    return prod(range(x, x - k, -1))


def _kernel(power: int, derivs: Optional[int], top_order: int,
            window: int) -> Dict[Tuple[int, int], int]:
    """Nonzero kernel values kappa(k1, k2) at the interior doubled mode pairs:
    the coefficient of z2^{-1} (D_1^derivs field) * (D_1^power delta) that
    ``induce_bracket`` reads at (k1, k2), with the field's symbol dropped.
    ``derivs`` None is the central term: the constant field c times
    D_1^{2N+3} delta.

    Each value is one product F(k1 + k2) * Delta(k2), with
    ff(x, k) = x (x - 1) ... (x - k + 1) and D_1^2 = d/dz1:

    * Field.  The mode of doubled index K sits at z1^e, e = -(K // 2) - N - 1,
      with theta_1 exactly when K is even.  For derivs = 2b + eps, D_1^derivs
      gives ff(e, b) when eps = 0 (theta_1 exactly when K is even); when
      eps = 1, ff(e, b) without theta for even K and -ff(e, b + 1) with
      theta_1 for odd K.  So it holds theta_1 exactly when K & 1 == eps.
    * Delta.  The pair reads the delta term at z2^{-m}, m = k2 // 2 + N, and
      D_1^{2a + eps} takes it to the patterns of ``_DELTA_DERIVATIVE``.
    * Patterns.  A field that holds theta_1 meets only the pair patterns
      (``_PAIR_THETAS``) that contain it; the delta supplies the rest.  The
      delta carries no symbol and theta_1 precedes theta_2, so the product
      keeps the pattern's sign.
    * Exponents.  For a field term power + derivs = 2N, and the two z1
      exponents add up to the pair's -(k1 // 2) - N - 1 whenever the patterns
      fit.  The central field c is even, holds no theta and sits at z1^0, so
      the delta's own z1 exponent must be -(k1 // 2) - N - 1, which holds
      exactly on k1 + k2 = 2 - 2N: there F = 1, elsewhere 0.

    On each parity class of (k1, k2) a field kernel is a polynomial of total
    degree N (degree b or b + 1 in K times a or a + 1 in k2, N in all), so it
    has degree at most N along k1, along k2 and along k1 + k2.  The
    central kernel lives on the line k1 + k2 = 2 - 2N, where it is
    ff(k2 // 2 + N, N + 1) on half-integer modes (degree N + 1) and
    -ff(k2 // 2 + N, N + 2) on integer modes (degree N + 2); at N = 1 these
    are (n + 1) n and -(n + 1) n (n - 1) with n = k2 // 2.
    """
    n, bound = top_order, 2 * window
    a, eps = divmod(power, 2)
    low = -2 * bound  # fields[K - low] is the field factor at doubled index K
    if derivs is None:
        holds, fields = (False, False), [int(K == 2 - 2 * n) for K in range(low, 1 - low)]
    else:
        b, odd = divmod(derivs, 2)
        holds = (odd == 0, odd == 1)  # holds[K & 1]: the field carries theta_1
        fields = [-_falling(-(K // 2) - n - 1, b + 1) if K & odd
                  else _falling(-(K // 2) - n - 1, b) for K in range(low, 1 - low)]
    # deltas[p1]: the signed delta factor of each k2 paired with k1 & 1 == p1.
    deltas: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
    for p1 in (0, 1):
        for k2 in range(-bound, bound + 1):
            thetas, sign = _PAIR_THETAS[p1, k2 & 1]
            if holds[(p1 ^ k2) & 1]:
                thetas = thetas[1:] if thetas[:1] == (1,) else None
            if thetas in _DELTA_DERIVATIVE[eps]:
                tsign, order = _DELTA_DERIVATIVE[eps][thetas]
                value = _falling(k2 // 2 + n, a + order)
                if value:
                    deltas[p1][k2] = sign * tsign * value
    kernel = {}
    for k1 in range(-bound, bound + 1):
        for k2, c in deltas[k1 & 1].items():
            c *= fields[k1 + k2 - low]
            if c:
                kernel[(k1, k2)] = c
    return kernel


def check_super_skew(table: ModeBracketTable):
    """Graded skew-symmetry of the table; returns (ok, witness).

    The witness is the first failing pair (x, y) of ``mode_keys()`` squared
    in row-major order, found by ``_first_skew_pair`` on the entries indexed
    by mode position.
    """
    keys = table.mode_keys()
    position = {key: n for n, key in enumerate(keys)}
    value = [[()] * len(keys) for _ in keys]
    for (x, y), combo in table.entries.items():
        i, j = position.get(x), position.get(y)
        if i is not None and j is not None:
            value[i][j] = combo.items()
    pair = _first_skew_pair(value, [mode_parity(key) for key in keys])
    return (True, None) if pair is None else (False, (keys[pair[0]], keys[pair[1]]))


def _first_skew_pair(value, parity) -> Optional[Tuple[int, int]]:
    """The first interior pair (i, j), i <= j, in row-major order whose
    brackets, the items ``value[i][j]`` and ``value[j][i]``, fail
    ``_skew_residue``; None when every pair passes.  A pair fails exactly
    when its mirror does, so this is also the first failing pair of the full
    square."""
    count = len(parity)
    for i in range(count):
        row, pi = value[i], parity[i]
        for j in range(i, count):
            if (row[j] or value[j][i]) and _skew_residue(row[j], value[j][i], pi & parity[j]):
                return i, j
    return None


def _skew_residue(left, right, odd: int) -> bool:
    """Whether [x, y] + (-1)^{xy} [y, x], ``odd`` = |x| |y|, has a nonzero
    coefficient, from the items of the two brackets in either order."""
    rest = dict(left)
    for sym, coeff in right:
        if rest.pop(sym, _ZERO) != (coeff if odd else -coeff):
            return True
    return any(rest.values())


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

    On a super skew-symmetric table (``_first_skew_pair`` on the position
    arrays) the sweep visits only the sorted triples, about a sixth of them.
    There [b, a] = -(-1)^{|a||b|} [a, b] on interior modes, so
    S(y, x, z) = -(-1)^{px py} S(x, y, z) and
    S(x, z, y) = -(-1)^{py pz} S(x, y, z): a swap reverses one inner pair,
    which keeps its nonzero symbols and so its admissibility, and reuses the
    outer brackets [inner symbol, third mode], so skew-symmetry is needed on
    interior pairs only.  Failing triples are then closed under S3, and the
    first one is sorted, its least permutation.  Otherwise the rotation
    sweep runs.
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
    # holds the nonzero mode terms of [keys[i], keys[j]] as (position,
    # coeff), or None when one of them lies outside the window (the pair is
    # not admissible).
    value = [[()] * count for _ in range(len(position))]
    inner = [[()] * count for _ in range(count)]
    for (x, y), combo in table.entries.items():
        s, j = position.get(x), position.get(y, count)
        if s is None or j >= count:
            continue
        items = value[s][j] = tuple(combo.items())
        if s < count:
            terms = inner[s][j] = []
            for m, c in items:
                p = place[m]
                if p is None or not c:
                    continue  # a stored coefficient 0 is no term
                if p < 0:
                    inner[s][j] = None
                    break
                terms.append((p, c))
    swaps = _first_skew_pair(value, parity) is None

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
    """The nonzero terms of ``combo`` in symbol order, or "0" when it has none."""
    parts = []
    for sym in sorted(combo):
        coeff = combo[sym]
        body = render_symbol(sym)
        if coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        elif coeff:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def render_table(table: ModeBracketTable) -> List[str]:
    """Deterministic line rendering of every nonzero bracket."""
    lines = []
    for left, right in sorted(table.entries):
        value = render_combo(table.entries[left, right])
        if value != "0":
            lines.append(f"[{render_mode(left)}, {render_mode(right)}] = {value}")
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
