"""Finite-dimensional algebras by structure constants and their axiom checkers.

An AlgebraSpec holds up to three bilinear products (circ, times, dot), an
optional symmetric bilinear form and an optional Z2 grading, all over exact
rationals (the coefficient rule of the ``algebra`` docstring).  Every axiom
class is one entry of the table
AXIOM_IDENTITIES, decided exhaustively on basis pairs and triples by one
evaluator; the identities are multilinear, so basis coverage is complete.

The two builders realize the structure-constant dictionaries between algebras
and matrix differential operators: a bialgebra with a compatible form yields
the quintic-order type-1 operator family, and a fermionic Novikov product
yields the first-order type-0 family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import Coeff, Matrix, SuperPolynomial, Table, _as_matrix, _as_table, field
from .modes import LinearOperatorData, _linear_coeff
from .operators import MatrixDiffOperator, ScalarDiffOperator

Vector = Tuple[Coeff, ...]


@dataclass
class AlgebraSpec:
    """Structure constants of a finite-dimensional algebra.

    ``circ``, ``times`` and ``dot`` are d x d x d tables: entry [i][j][k] is
    the e_k coefficient of the product of basis vectors e_i and e_j.  ``form``
    is a d x d matrix and ``grading`` an optional tuple of basis parities.
    """

    dim: int
    circ: Optional[Table] = None
    times: Optional[Table] = None
    dot: Optional[Table] = None
    form: Optional[Matrix] = None
    grading: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("circ", "times", "dot"):
            table = getattr(self, name)
            if table is not None:
                setattr(self, name, _as_table(self.dim, table))
        if self.form is not None:
            self.form = _as_matrix(self.dim, self.form)
        if self.grading is not None:
            self.grading = tuple(int(g) & 1 for g in self.grading)
            if len(self.grading) != self.dim:
                raise ValueError("grading must assign a parity to every basis vector")

    def basis(self, i: int) -> Vector:
        return tuple(int(j == i) for j in range(self.dim))

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"algebra spec is missing the component '{name}'")


def multiply(table: Table, x: Vector, y: Vector) -> Vector:
    out = [0] * len(table)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            scale = xi * yj
            for k, c in enumerate(row[j]):
                if c:
                    out[k] += scale * c
    return tuple(out)


def check_axioms(spec: AlgebraSpec, algebra_class: str):
    """Evaluate the defining identities of the given class on basis tuples.

    Returns (ok, witness); the witness is the first one ``iter_axiom_failures``
    yields: (identity_label, indices, residual), the residual being the
    left-minus-right vector of the identity in basis coordinates.
    Raises ValueError when a required product or form is absent.
    """
    for witness in iter_axiom_failures(spec, algebra_class):
        return False, witness
    return True, None


def iter_axiom_failures(spec: AlgebraSpec, algebra_class: str):
    """Yield (identity_label, indices, residual) witnesses.

    The class's groups of ``AXIOM_IDENTITIES`` run in table order; within a
    group the basis pairs or triples run in lexicographic order, and on each
    tuple the identities in row order.  So ``nx_bialgebra`` yields every
    ``times_commutative`` pair before any triple.  Residual components are
    ``Fraction``s; form identities have 1-tuple residuals.  A group of triples
    is evaluated whole before its first witness is yielded.
    """
    if algebra_class not in AXIOM_IDENTITIES:
        raise ValueError(f"unknown algebra class '{algebra_class}'")
    return _failures(spec, AXIOM_IDENTITIES[algebra_class], _REQUIRED[algebra_class])


class Term(NamedTuple):
    """coeff * outer(inner(p, q), r) (nesting "left") or coeff * outer(p, inner(q, r))
    ("right"), with p q r the permutation ``perm`` of the basis triple x y z.  An
    ``outer`` "form" is a product into a 1-dimensional space.  The sign flips when
    the two slots named by ``sign`` both hold odd basis vectors."""

    coeff: int
    outer: str
    inner: str
    nesting: str
    perm: str = "xyz"
    sign: Optional[str] = None


class Symmetric(NamedTuple):
    """Symmetry of one table (or of the form) on basis pairs."""

    component: str
    label: str


# Right-commutativity label, coefficient of its swapped term, Koszul signs.
_SIGN_RULES = {
    "plain": ("right_commute", -1, False),
    "graded": ("graded_right_commute", -1, True),
    "fermionic": ("right_anticommute", 1, False),
}


def _novikov_rows(p: str, rule: str, prefix: str = ""):
    """(xy)z = +-(xz)y and (xy)z - x(yz) = +-((yx)z - y(xz)) under a sign rule."""
    commute, swapped, graded = _SIGN_RULES[rule]
    yz, xy = ("yz", "xy") if graded else (None, None)
    return (
        (prefix + commute, (Term(1, p, p, "left"), Term(swapped, p, p, "left", "xzy", yz))),
        (prefix + ("graded_" if graded else "") + "left_symmetry",
         (Term(1, p, p, "left"), Term(-1, p, p, "right"),
          Term(-1, p, p, "left", "yxz", xy), Term(1, p, p, "right", "yxz", xy))),
    )


# Each class is an ordered list of groups: a Symmetric check on basis pairs, or
# rows (label, terms) whose terms sum to the residual on every basis triple.  The
# key order is the order of ALGEBRA_CLASSES (and of the CLI's choices).
AXIOM_IDENTITIES = {
    "novikov": (_novikov_rows("circ", "plain"),),
    "novikov_super": (_novikov_rows("circ", "graded"),),
    "nx_bialgebra": (
        Symmetric("times", "times_commutative"),
        _novikov_rows("circ", "plain", "circ_"),
        (
            ("mixed_associator",
             (Term(1, "circ", "times", "left"), Term(-1, "times", "circ", "right"))),
            ("times_sum_rule",
             (Term(1, "times", "times", "left"), Term(1, "times", "times", "right"),
              Term(-1, "times", "circ", "left", "yxz"), Term(-1, "times", "circ", "right"),
              Term(1, "circ", "times", "right", "yxz"))),
            ("times_difference_rule",
             (Term(1, "times", "times", "left"), Term(-1, "times", "times", "right"),
              Term(-1, "circ", "times", "left"), Term(-1, "circ", "times", "right", "zxy"),
              Term(1, "circ", "times", "right"), Term(1, "circ", "times", "left", "yzx"))),
        ),
    ),
    "novikov_poisson": (
        Symmetric("dot", "dot_commutative"),
        (("dot_associative", (Term(1, "dot", "dot", "left"), Term(-1, "dot", "dot", "right"))),),
        _novikov_rows("circ", "plain", "circ_"),
        (
            ("dot_circ_associator",
             (Term(1, "circ", "dot", "left"), Term(-1, "dot", "circ", "right"))),
            ("dot_circ_symmetry",
             (Term(1, "dot", "circ", "left"), Term(-1, "circ", "dot", "right"),
              Term(-1, "dot", "circ", "left", "yxz"), Term(1, "circ", "dot", "right", "yxz"))),
        ),
    ),
    "fermionic_novikov": (_novikov_rows("circ", "fermionic"),),
    "form_compat": (
        Symmetric("form", "form_symmetric"),
        (
            ("form_circ_invariance",
             (Term(1, "form", "circ", "left"), Term(-1, "form", "circ", "right"))),
            ("form_times_ratio",
             (Term(1, "form", "circ", "left"), Term(-2, "form", "times", "left"))),
        ),
    ),
}

ALGEBRA_CLASSES = tuple(AXIOM_IDENTITIES)


def _required(groups) -> List[str]:
    """The spec components the groups read, in a fixed order."""
    terms = [t for g in groups if not isinstance(g, Symmetric) for _, row in g for t in row]
    used = {g.component for g in groups if isinstance(g, Symmetric)}
    used.update(name for t in terms for name in (t.outer, t.inner, t.sign and "grading"))
    return [name for name in ("circ", "times", "dot", "form", "grading") if name in used]


# The components each class reads, derived once from its groups.
_REQUIRED = {cls: _required(groups) for cls, groups in AXIOM_IDENTITIES.items()}


def _cells(spec: AlgebraSpec, name: str):
    """A table's [p][q] coefficient vectors; the form's entries as 1-vectors."""
    data = getattr(spec, name)
    return [[(v,) for v in row] for row in data] if name == "form" else data


def _nonzero(spec: AlgebraSpec, name: str):
    """The nonzero (p, q, k, coefficient) cells of a table, or of the form with k = 0."""
    return [(p, q, k, c) for p, row in enumerate(_cells(spec, name))
            for q, cell in enumerate(row) if any(cell) for k, c in enumerate(cell) if c]


def _nested(outer, inner, nesting: str, dim: int):
    """outer(inner(e_a, e_b), e_c) ("left") or outer(e_a, inner(e_b, e_c))
    ("right") on every basis triple, from the ``_nonzero`` cells of both
    products, as a flat list of its nonzero (a, b, c, k, coefficient) cells.
    An inner cell (p, q) -> e_m meets only the outer cells of row m ("left")
    or of column m ("right"), each sum accumulating under (triple, k)."""
    lines: List[List[Tuple[int, int, Coeff]]] = [[] for _ in range(dim)]
    for p, q, k, y in outer:
        if nesting == "left":
            lines[p].append((q, k, y))
        else:
            lines[q].append((p, k, y))
    out: Dict[Tuple[int, int, int, int], Coeff] = {}
    for p, q, m, x in inner:
        for r, k, y in lines[m]:
            key = (p, q, r, k) if nesting == "left" else (r, p, q, k)
            out[key] = out.get(key, 0) + x * y
    return [key + (v,) for key, v in out.items() if v]


def _failures(spec: AlgebraSpec, groups, required: List[str]):
    """The witnesses of ``groups`` on ``spec``, which must hold ``required``.

    A group of triples adds every term into one residual dict keyed by one
    int, ((flat basis triple) * rows + row) * dim + k.  Cell (a, b, c) of a
    term's tensor sits at the basis triple idx with (idx[p], idx[q], idx[r])
    = (a, b, c) for its permutation p q r: slot s of the cell holds letter
    perm[s], so it takes that letter's weight in the key, and a Koszul sign
    reads the slots that hold the signed letters; both are set once per
    term.  After the group, the (triple, row) keys with a nonzero component
    are yielded in order, each with its whole residual.
    """
    spec.require(*required)
    dim, grading = spec.dim, spec.grading
    tables = {name: _nonzero(spec, name) for name in required if name != "grading"}
    nested: Dict[Tuple[str, str, str], List] = {}
    for group in groups:
        if isinstance(group, Symmetric):
            cells = _cells(spec, group.component)
            for i, j in product(range(dim), repeat=2):
                if cells[i][j] != cells[j][i]:
                    yield (group.label, (i, j),
                           tuple(Fraction(a - b) for a, b in zip(cells[i][j], cells[j][i])))
            continue
        rows = len(group)
        weight = {"x": dim ** 3 * rows, "y": dim * dim * rows, "z": dim * rows}
        residuals: Dict[int, Coeff] = {}
        for pos, (label, terms) in enumerate(group):
            for term in terms:
                tensor = (term.outer, term.inner, term.nesting)
                if tensor not in nested:
                    nested[tensor] = _nested(tables[term.outer], tables[term.inner], term.nesting, dim)
                cells, coeff, offset = nested[tensor], term.coeff, pos * dim
                w0, w1, w2 = map(weight.get, term.perm)
                if term.sign:
                    s0, s1 = map(term.perm.index, term.sign)
                    cells = [cell[:4] + (-cell[4],) if grading[cell[s0]] & grading[cell[s1]]
                             else cell for cell in cells]
                for a, b, c, k, v in cells:
                    flat = a * w0 + b * w1 + c * w2 + offset + k
                    residuals[flat] = residuals.get(flat, 0) + coeff * v
        for key in sorted({flat // dim for flat, v in residuals.items() if v}):
            triple, pos = divmod(key, rows)
            label, terms = group[pos]
            width = 1 if terms[0].outer == "form" else dim
            idx = (triple // (dim * dim), triple // dim % dim, triple % dim)
            yield label, idx, tuple(Fraction(residuals.get(key * dim + k, 0)) for k in range(width))


def derived_dot_table(spec: AlgebraSpec) -> Table:
    """u . v = u o v + v o u - u x v, the product the quintic family carries."""
    spec.require("circ", "times")
    dim = spec.dim
    dot = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in _nonzero(spec, "circ"):
        dot[i][j][k] += c
        dot[j][i][k] += c
    for i, j, k, c in _nonzero(spec, "times"):
        dot[i][j][k] -= c
    return tuple(tuple(map(tuple, row)) for row in dot)


def build_type1_operator(spec: AlgebraSpec) -> MatrixDiffOperator:
    """Quintic-order type-1 operator from a (circ, times, form) spec.

    Entry (p,q) is form[p][q] D^5 + sum_g dot Phi_g D^2 + times Phi_g(2) D
    + circ Phi_g(3), with the dot product always derived from circ and times;
    both parity blocks coincide.  These are the ``LinearOperatorData`` tables
    of top order 1 (circ, dot even; times odd; form constant).  The builder is
    total: validity is decided separately by the axiom checkers and the
    Hamiltonian test.
    """
    spec.require("circ", "times", "form")
    return LinearOperatorData(top_order=1, dim=spec.dim,
                              even_tables=(spec.circ, derived_dot_table(spec)),
                              odd_tables=(spec.times,), constant=spec.form).realize()


def build_type0_operator(spec: AlgebraSpec) -> MatrixDiffOperator:
    """First-order type-0 operator from a circ spec.

    The companion product is derived as u x v = v o u - u o v; entry (p,q) of
    the even block is sum_g circ Phi_g(2) + times Phi_g D and the odd block is
    its negative.
    """
    spec.require("circ")
    circ = spec.circ
    blocks: Dict[Tuple[int, int, int], ScalarDiffOperator] = {}
    for p, q in product(range(spec.dim), repeat=2):
        times = (b - a for a, b in zip(circ[p][q], circ[q][p]))
        op = ScalarDiffOperator({0: _linear_coeff(enumerate(circ[p][q]), 2),
                                 1: _linear_coeff(enumerate(times), 1)})
        if op:
            blocks[(0, p, q)] = op
            blocks[(1, p, q)] = op.scaled(-1)
    return MatrixDiffOperator(0, spec.dim, blocks)


def np_to_nx(spec: AlgebraSpec, identity_index: int) -> AlgebraSpec:
    """Turn a unital Novikov-Poisson spec into a bialgebra spec (times := dot).

    Requires the Novikov-Poisson axioms, that the designated basis vector is
    an identity for the dot product, and that its circ square is twice itself.
    """
    spec.require("circ", "dot")
    ok, witness = check_axioms(spec, "novikov_poisson")
    if not ok:
        raise ValueError(f"input is not a Novikov-Poisson algebra: {witness}")
    if not (0 <= identity_index < spec.dim):
        raise ValueError("identity index out of range")
    e = spec.basis(identity_index)
    for i in range(spec.dim):
        if multiply(spec.dot, e, spec.basis(i)) != spec.basis(i):
            raise ValueError(
                f"basis vector {identity_index} is not an identity for the dot product"
            )
    if multiply(spec.circ, e, e) != tuple(2 * c for c in e):
        raise ValueError("the identity's circ square must be twice the identity")
    return AlgebraSpec(
        dim=spec.dim,
        circ=spec.circ,
        times=spec.dot,
        form=spec.form,
        grading=spec.grading,
    )


def make_truncated_example(n: int) -> AlgebraSpec:
    """Truncated polynomial algebra on n basis vectors.

    dot: e_i . e_j = e_{i+j} (zero once i+j >= n); circ: e_i o e_j =
    (j+2) e_{i+j}; form: 1 on the (0,0) entry and 0 elsewhere.
    """
    if n < 1:
        raise ValueError("truncation length must be >= 1")
    dot = [[[int(i + j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    circ = [[[(j + 2) * (i + j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    form = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    return AlgebraSpec(dim=n, circ=circ, dot=dot, form=form)


def make_exterior_example(c: Dict[Tuple[int, int], object]) -> AlgebraSpec:
    """Six-dimensional fermionic Novikov algebra inside an exterior algebra.

    The exterior algebra on four odd generators is realized in the core
    super-commutative algebra; v1..v4 are the four 3-forms, v0 a 2-form with
    coefficients c[(i,j)] (1 <= i < j <= 4) and v5 the top form.  The product
    sends (v, v_i) to the wedge v * e_i for i in 1..4 and annihilates v0 and
    v5 on the right; structure constants come from actual wedge computation
    and projection on the six-dimensional span.
    """
    e = [SuperPolynomial.generator(field(i, 1)) for i in range(4)]

    def wedge(gens) -> SuperPolynomial:
        acc = SuperPolynomial.one()
        for g in gens:
            acc = acc * e[g]
        return acc

    v0 = SuperPolynomial.zero()
    for (i, j), value in c.items():
        if not (1 <= i < j <= 4):
            raise ValueError(f"coefficient index {(i, j)} out of range")
        v0 = v0 + wedge((i - 1, j - 1)) * Fraction(value)
    # v1..v4 omit e[0]..e[3] in turn; v5 is the top form.
    v = [v0] + [wedge([g for g in range(4) if g != omit]) for omit in range(4)] + [wedge(range(4))]
    index = {mono: a for a in range(1, 6) for mono in v[a].terms()}

    circ = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for a, b in product(range(6), range(1, 5)):
        for mono, coeff in (v[a] * e[b - 1]).terms().items():
            if mono not in index:
                raise ValueError("wedge product left the six-dimensional span")
            circ[a][b][index[mono]] += coeff
    return AlgebraSpec(dim=6, circ=circ)
