"""Matrix differential operators and the Hamiltonian criterion.

A scalar operator is a normal-ordered polynomial in the superderivation D with
polynomial coefficients on the left: sum_l c_l D^l, at most one entry per
power.  A matrix operator of type iota carries, for each parity block i in
{0,1}, a d x d matrix of scalar operators; the coefficient at power l must be
homogeneous of parity (iota + l) mod 2.

Super skew-symmetry is decided entry-wise by normal-ordering
sum_l (-1)^{(2 iota + l)(l-1)/2} D^l o c_l against the transposed entry,
together with the block relation a^0 = (-1)^{iota+1} a^1.

The Hamiltonian test feeds basis covector symbols through the linearization
(Frechet) matrix of the operator and checks that the resulting cyclic
three-form is a total derivative, for every triple of families and every
parity triple; multilinearity makes basis configurations complete.  The
three-form is B(H, H) for a form B(A, B) linear in both operators, and the
Schouten super-bracket is [H1, H2] = B(H1, H2) + B(H2, H1), so its diagonal
vanishing reproduces the Hamiltonian test and its mixed vanishing
characterizes Hamiltonian pairs; given the diagonal, the mixed condition is
the Hamiltonian test of H1 + H2.  One configuration-scan engine
(``ConfigurationScan``) runs every such scan.  The skew check, the
linearization, the scan and operator application visit the stored entries
only, so their work follows the operator's nonzero pattern, not its declared
dimension.

For super skew-symmetric operators all configurations with the same
families, in any order and at any parities, share one verdict: the
three-form is a functional trivector, graded skew-symmetric in its three
covector slots modulo total derivatives, and flipping the parity of one slot
maps it, up to sign, by an invertible map that sends total derivatives to
total derivatives.  The scan then decides one configuration per family orbit,
the sorted families at parities (0, 0, 0), and expands failing orbits into
their members; the witnesses and certificates are those of the full
lexicographic scan.  Skew-symmetry is decided once per operator and
remembered on it; a scan involving an operator that is not skew-symmetric
scans every configuration.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice, permutations, product
from math import comb
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    COVECTOR_SLOTS,
    FIELD_KIND,
    Coeff,
    Generator,
    Monomial,
    Sparse,
    SuperPolynomial,
    _mul_monomials,
    covector,
    field,
    monomial_parity,
    tower_partials,
)
from .calculus import (
    FieldDerivatives,
    SlotForm,
    non_membership_certificate,
    superderive,
    variational_derivative_field,
)


class SkewSymmetryError(ValueError):
    """Raised when an operation requires a super skew-symmetric operator."""


class ScalarDiffOperator(Sparse):
    """Normal-ordered scalar operator sum_l coeff_l * D^l."""

    __slots__ = ()

    def __init__(self, entries: Optional[Dict[int, SuperPolynomial]] = None):
        terms = {}
        if entries:
            for power, coeff in entries.items():
                if power < 0:
                    raise ValueError("negative powers of D are not supported")
                if coeff:
                    terms[power] = coeff
        super().__init__(terms)

    @classmethod
    def single(cls, coeff: SuperPolynomial, power: int) -> "ScalarDiffOperator":
        return cls({power: coeff})

    @classmethod
    def d_power(cls, power: int, scale=1) -> "ScalarDiffOperator":
        return cls({power: SuperPolynomial.scalar(scale)})

    entries = Sparse.terms

    def apply(self, u: SuperPolynomial) -> SuperPolynomial:
        """Evaluate on a polynomial: sum_l coeff_l * D^l(u)."""
        acc = SuperPolynomial.zero()
        if not u:
            return acc
        top = max(self._terms) if self._terms else -1
        derivs = [u]
        for _ in range(top):
            derivs.append(superderive(derivs[-1]))
        for power, coeff in self._terms.items():
            acc = acc + coeff * derivs[power]
        return acc

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for power in sorted(self._terms):
            coeff = self._terms[power]
            body = f"({coeff})" if len(coeff.terms()) > 1 else f"{coeff}"
            parts.append(body if power == 0 else f"{body}*D^{power}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ScalarDiffOperator({self})"


def compose_D_left(op: ScalarDiffOperator) -> ScalarDiffOperator:
    """Normal-ordered form of D o op.

    Uses the operator identity D o u = D(u) + (-1)^{|u|} u D on homogeneous
    coefficients; mixed coefficients split into parity parts.
    """
    out = ScalarDiffOperator()
    for power, coeff in op.entries().items():
        out = out + ScalarDiffOperator({power: superderive(coeff),
                                        power + 1: coeff.even_part() - coeff.odd_part()})
    return out


class MatrixDiffOperator:
    """Type-graded matrix of scalar operators.

    ``blocks`` maps (block_parity, row, col) to a scalar operator; absent
    entries are zero.  Enforced at construction: the type constraint
    (coefficients at power l lie in parity class (type + l) mod 2), and
    coefficients in the fields alone, which the scan relies on (``frechet``)
    and which a monomial shows by ending in a field, as fields sort first.
    """

    __slots__ = ("type_parity", "dim", "_blocks", "_skew")

    def __init__(self, type_parity: int, dim: int,
                 blocks: Optional[Dict[Tuple[int, int, int], ScalarDiffOperator]] = None):
        if type_parity not in (0, 1):
            raise ValueError("operator type must be 0 or 1")
        if dim < 1:
            raise ValueError("family count must be >= 1")
        self.type_parity = type_parity
        self.dim = dim
        self._blocks: Dict[Tuple[int, int, int], ScalarDiffOperator] = {}
        # check_skew_symmetry's (ok, first witness), decided on first use.
        self._skew: Optional[Tuple[bool, Optional[Tuple]]] = None
        if blocks:
            for (block, row, col), op in blocks.items():
                if block not in (0, 1):
                    raise ValueError("block parity must be 0 or 1")
                if not (0 <= row < dim and 0 <= col < dim):
                    raise ValueError("entry indices out of range")
                if op.is_zero():
                    continue
                for power, coeff in op.entries().items():
                    want = (type_parity + power) & 1
                    if not coeff.has_parity(want):
                        problem = f"must have parity {want}"
                    elif any(mono and mono[-1][0][0] != FIELD_KIND for mono in coeff.terms()):
                        problem = "must hold field generators only"
                    else:
                        continue
                    raise ValueError(f"coefficient at block {block}, entry ({row},{col}), "
                                     f"power {power} {problem}")
                self._blocks[(block, row, col)] = op

    def entry(self, block: int, row: int, col: int) -> ScalarDiffOperator:
        return self._blocks.get((block, row, col), ScalarDiffOperator.zero())

    def blocks(self) -> Mapping[Tuple[int, int, int], ScalarDiffOperator]:
        return self._blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixDiffOperator):
            return NotImplemented
        return (self.type_parity == other.type_parity and self.dim == other.dim
                and self._blocks == other._blocks)

    __hash__ = None

    def __add__(self, other: "MatrixDiffOperator") -> "MatrixDiffOperator":
        self._check_compatible(other)
        # Only the shared keys are summed; the constructor drops the blocks
        # that cancel.
        out = dict(self._blocks)
        for key, op in other._blocks.items():
            out[key] = out[key] + op if key in out else op
        return MatrixDiffOperator(self.type_parity, self.dim, out)

    def scaled(self, factor) -> "MatrixDiffOperator":
        out = {key: op.scaled(factor) for key, op in self._blocks.items()}
        return MatrixDiffOperator(self.type_parity, self.dim, out)

    def _check_compatible(self, other: "MatrixDiffOperator") -> None:
        if self.type_parity != other.type_parity:
            raise ValueError("operators have different types")
        if self.dim != other.dim:
            raise ValueError("operators have different family counts")


def iter_skew_failures(op: MatrixDiffOperator):
    """Yield skew failures as (condition, row, col, power, residual).

    Condition "transpose" marks the normal-ordering identity on the even
    block, "block" the relation between the two parity blocks; the residual
    is the canonical rendering of the coefficient mismatch at that power.
    Only the stored (row, col) pairs and their transposes are visited, in
    row-major order: at every other pair both sides of both conditions are 0.
    D^l o c_l is normal-ordered by ``_leibniz_row`` from the D tower of c_l,
    cut where it vanishes, as all later powers do, from the first q it reaches.
    """
    iota = op.type_parity
    for row, col in sorted({pair for _, row, col in op.blocks() for pair in ((row, col), (col, row))}):
        entry = op.entry(0, row, col)
        terms: Dict[int, SuperPolynomial] = {}
        for power, coeff in entry.entries().items():
            sign = -1 if ((2 * iota + power) * (power - 1) // 2) & 1 else 1
            derivs = [coeff]
            while len(derivs) <= power and derivs[-1]:
                derivs.append(superderive(derivs[-1]))
            for q, a in _leibniz_row(power, (iota + power) & 1, power - len(derivs) + 1):
                term = derivs[power - q].scaled(sign * a)
                terms[q] = terms[q] + term if q in terms else term
        lhs = ScalarDiffOperator(terms)
        for condition, left, right in (("transpose", lhs, op.entry(0, col, row)),
                                       ("block", entry, op.entry(1, row, col).scaled(1 if iota else -1))):
            if left != right:
                diff = left - right
                power = min(diff.entries())
                yield (condition, row, col, power, str(diff.entries()[power]))


def _leibniz_row(power: int, parity: int, start: int = 0) -> Iterator[Tuple[int, int]]:
    """The nonzero a(power, q) for q >= start as (q, a), q ascending, in
    D^power o u = sum_q a(power, q) D^(power - q)(u) D^q for u of the given
    parity.  They are the super binomial coefficients (Manin and Radul, 1985):
    a(p, q) = 0 for p even and q odd, else (-1)^(|u| q) C(p // 2, q // 2),
    built lazily from C(p // 2, start // 2) by C(h, k + 1) = C(h, k) (h - k) / (k + 1)."""
    half, first = power >> 1, start >> 1
    binomial = comb(half, first)
    for k in range(first, half + 1):
        if 2 * k >= start:
            yield 2 * k, binomial
        if power & 1:
            yield 2 * k + 1, -binomial if parity else binomial
        binomial = binomial * (half - k) // (k + 1)


def check_skew_symmetry(op: MatrixDiffOperator):
    """Decide super skew-symmetry; returns (ok, first witness or None).

    Operators do not change after construction, so the decision is made once
    per operator and remembered on it.
    """
    if op._skew is None:
        witness = next(iter_skew_failures(op), None)
        op._skew = (witness is None, witness)
    return op._skew


def apply_matrix_operator(op: MatrixDiffOperator, xi: Mapping[int, SuperPolynomial],
                          block: int) -> Dict[int, SuperPolynomial]:
    """Apply the block of the given parity to a covector assignment.

    The assignment maps families to polynomials; every nonzero component must
    be homogeneous of parity (block + 1) mod 2, the component parity class of
    parity-``block`` covector families.  Only the stored entries of the block
    are applied; every other row of the result is 0.
    """
    if block not in (0, 1):
        raise ValueError("block parity must be 0 or 1")
    want = (block + 1) & 1
    for fam, poly in xi.items():
        if not poly.has_parity(want):
            raise ValueError(
                f"covector component for family {fam} must have parity {want}"
            )
    out = dict.fromkeys(range(op.dim), SuperPolynomial.zero())
    for (parity, row, col), entry in op.blocks().items():
        poly = xi.get(col)
        if parity == block and poly:
            out[row] = out[row] + entry.apply(poly)
    return out


def frechet(op: MatrixDiffOperator, cov_base: Generator,
            omega_parity: int) -> Dict[Tuple[int, int], ScalarDiffOperator]:
    """Linearization of the operator along a basis covector.

    ``cov_base`` is a derivs-0 covector symbol concentrated at its family;
    ``omega_parity`` is the parity grading of the covector family it spans
    (the symbol itself then has parity omega_parity + 1).  Entry (row, col)
    collects, over coefficient entries a at power l and derivative counts m,
    (-1)^{m (omega_parity + type)} d a / d phi<col>(m+1) * D^l(symbol) * D^m.
    The coefficients hold fields only (``MatrixDiffOperator``), so each term
    is its partial with D^l(symbol) appended (``_append_shifted``).
    """
    if cov_base[2] != 0:
        raise ValueError("frechet expects a derivs-0 covector symbol")
    iota = op.type_parity
    fam = cov_base[1]
    out: Dict[Tuple[int, int], ScalarDiffOperator] = {}
    sign_flip = (omega_parity + iota) & 1
    for row in sorted(row for block, row, col in op.blocks() if (block, col) == (omega_parity, fam)):
        scalar = op.entry(omega_parity, row, fam)
        for col in _field_families(scalar.entries().values(), op.dim):
            entries: Dict[int, Dict] = {}
            for power, coeff in scalar.entries().items():
                for m, part in tower_partials(coeff, field(col, 1)).items():
                    _append_shifted(entries.setdefault(m, {}), part, cov_base, power,
                                    sign_flip & m)
            out[(row, col)] = ScalarDiffOperator(
                {m: SuperPolynomial(terms) for m, terms in entries.items()})
    return out


def _append_shifted(acc: Dict, poly: SuperPolynomial, sym: Generator, power: int,
                    negate: int = 0) -> None:
    """Put the terms of +-poly * D^power(sym) into ``acc``, for a poly of fields
    only and a covector symbol sym: D^power(sym) is one generator, which sorts
    after every factor of poly, so it is appended to each monomial at sign
    +1.  The monomials must not be in ``acc`` yet."""
    closing = (((sym[0], sym[1], sym[2] + power, sym[3]), 1),)
    for mono, coeff in poly.terms().items():
        acc[mono + closing] = -coeff if negate else coeff


def _apply_to_symbol(scalar: ScalarDiffOperator, sym: Generator) -> SuperPolynomial:
    """The scalar operator applied to a covector symbol, sum_l c_l D^l(sym), with
    each term built by ``_append_shifted``; the powers differ, so no two merge."""
    terms: Dict = {}
    for power, coeff in scalar.entries().items():
        _append_shifted(terms, coeff, sym, power)
    return SuperPolynomial(terms)


def _field_families(polys: Iterable[SuperPolynomial], dim: int) -> List[int]:
    """The field families below ``dim`` that the polynomials contain, ascending."""
    return sorted({gen[1] for poly in polys for gen in poly.generators()
                   if gen[0] == FIELD_KIND and gen[1] < dim})


def configurations(dim: int):
    """Basis configurations (families, parities) in lexicographic order."""
    return product(product(range(dim), repeat=3), product((0, 1), repeat=3))


_PARITY_TRIPLES = tuple(product((0, 1), repeat=3))


def _orbit(families: Tuple[int, int, int]) -> List[Tuple]:
    """The distinct configurations of a family orbit, in lexicographic order:
    every permutation of the families with every parity triple."""
    return sorted(product(set(permutations(families)), _PARITY_TRIPLES))


def _config_signs(iota: int, parities: Tuple[int, int, int]) -> Tuple[int, int, int]:
    i1, i2, i3 = parities
    s1 = -1 if i1 & 1 else 1
    s2 = -1 if (i2 + (i1 + iota) * (i2 + i3)) & 1 else 1
    s3 = -1 if (i3 + (i3 + iota) * (i1 + i2)) & 1 else 1
    return s1, s2, s3


# (arg, operand, closing) slots of the three cyclic pairing terms.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _split(poly: SuperPolynomial) -> List[Tuple[Monomial, int, int, Coeff]]:
    """The terms F * D^k(xi) of a polynomial of fields F times one covector
    factor D^k(xi), which sorts last, as (F, |F|, k, coeff)."""
    return [(mono[:-1], monomial_parity(mono[:-1]), mono[-1][0][2], coeff)
            for mono, coeff in poly.terms().items()]


class ConfigurationScan:
    """The configuration-scan engine for the three-form sum of B(A, B) over pairs.

    On a basis configuration, B(A, B) is the signed cyclic sum of the
    pairings <xi_c, (Frechet_A xi_a)(B xi_b)>.  It is linear in each
    argument, so the closedness defect of H is B(H, H) and the Schouten
    bracket [H1, H2] is B(H1, H2) + B(H2, H1).

    Memo.  For the life of the scan, the Frechet linearization is kept per
    (operator, family, base parity) and the derivative tower of each applied
    column per (operator, family, base parity, column), the operator keyed by
    its identity: the scan holds every operator it keys, so no id is reused
    while it lives, and [H, H] shares one memo.  Each is built once on the
    slot-1 covector symbol, by appending its derivatives to field-only
    coefficients and partials (the constructor admits fields only), so each
    term is fields F then one covector factor D^k(xi), kept slot-free as
    (F, |F|, k, coeff).  ``_pairing`` pairs the pieces F1 X and F2 Y of a
    cyclic term (a, b, c), closed by the symbol Z: the fields F1 F2, then
    X, Y and Z in slot order, at the term's configuration sign times the
    sign of F1 F2 times (-1)^(|X||F2|) times the sign of sorting X Y Z by
    slot: 1 for (0, 1, 2), (-1)^(|Z|(|X|+|Y|)) for (1, 2, 0),
    (-1)^(|X|(|Y|+|Z|)) for (2, 0, 1), keyed by (F, k1, k2, k3): a
    ``calculus.SlotForm``, decided on its keys with one ``FieldDerivatives``.

    The configurations.  The pairing term of slots (a, b, c) is nonzero only
    if a field family g of entry (p_a, f_c, f_a) of the linearized operator
    is the row of a stored block (p_b, g, f_b) of the applied one; each such
    meeting is a hit.  The scan decides, in lexicographic order, the
    configurations with a hit in one of their three cyclic slot rotations,
    each hit listed in the three rotations at both p_c; every other one has
    form 0.  A reduced scan (below) lists just sorted((f_a, f_b, f_c)) per
    hit: the rotations only permute the families and the parities are
    dropped, so these are exactly the family triples listed at some parity.
    The joins that list them are those of the scanned pairs, except in
    ``pair``, which lists the configurations of a mixed bracket.

    Orbit reduction.  When every operator of the scan is super
    skew-symmetric, S3 x (Z/2)^3 acts on the configurations without changing
    their verdicts: S3 permutes the slots, each slot carrying its family and
    parity together, and the s-th factor Z/2 flips the parity of slot s.  An
    orbit is then every permutation of one family triple at every parity
    triple.

    * Slot permutations.  The form is a functional trivector, graded
      skew-symmetric in its three covector slots modulo Im D (Olver,
      *Applications of Lie Groups to Differential Equations*, 7.1).  The form
      of a permuted configuration is +-1 times the form of the original with
      its covector symbols renamed, modulo Im D, and renaming generators does
      not change membership in Im D.
    * Parity flips.  On a monomial holding D^i xi_s, let Phi_s flip the base
      parity of xi_s and multiply by (-1)^(i+P), where P is the parity of the
      factors sorted before it.  Realize the flipped symbol as theta xi_s for
      an odd constant theta with D theta = 0; then Phi_s(u) is theta u, so by
      Leibniz Phi_s o D = -D o Phi_s on forms linear in slot s's tower, and
      Phi_s, invertible, maps Im D onto Im D there.  Every form is linear in
      each slot's tower.  With the block relation a^1 = (-1)^(iota+1) a^0 of
      a skew operator and the type constraint |c_l| = iota + l, each cyclic
      term of the flipped configuration is Phi_s of the original term times
      a sign that depends only on slot s's role in it, with |xi| the symbol
      parities: 1 as the linearized argument, (-1)^(iota+|xi_a|) as the
      applied operand, (-1)^(|xi_a|+|xi_b|+1) as the closing covector.  Times
      the ratio of the two configurations' ``_config_signs``, this is one
      kappa = +-1 for all three rotations in each of the 48 cases (iota,
      parities, s), so the flipped form is kappa Phi_s of the original and
      gets the same verdict.

    The scan therefore decides only the representatives, the sorted families
    at parities (0, 0, 0), one for each family triple that it lists at any
    parity, in lexicographic order; a representative is the least member of
    its orbit, and the result is the full scan's:

    * If c is the lexicographically first failing configuration, the least
      member of its orbit is <= c and fails too, so it is c itself: the first
      failing representative is c.
    * An orbit none of whose members is listed has form 0 at every member,
      which lies in Im D, so it passes; only the family triples that are
      listed at some parity need a representative.
    * A failing orbit is expanded into its distinct members, which are merged
      into the output in lexicographic order: a pending member m is emitted
      once the next representative still to be scanned is greater than m,
      because every member of a later orbit is at least its representative.
      Each member's certificate is computed on its own form; a member of a
      failing orbit without one breaks the symmetry and raises.

    The gate: skew-symmetry is what makes the form a trivector and what gives
    the block relation.  Without it the failing set need not be closed under
    S3 (the Schouten bracket of a sparse non-skew operator with itself is an
    example) nor under parity flips, so a scan is reduced only when every
    operator of its joins is skew, and otherwise scans every configuration.
    The sum that ``pair`` scans is then skew too, because the skew
    conditions are linear.  The gate is set before the first search from
    ``check_skew_symmetry``, which decides each operator once, so the scan
    has no precondition and checking skew-symmetry before it costs nothing.
    """

    # Whether the orbit reduction applies; None until ``_configurations``
    # decides it.
    _symmetric: Optional[bool] = None

    def __init__(self, pairs: Sequence[Tuple[MatrixDiffOperator, MatrixDiffOperator]]):
        first = pairs[0][0]
        for pair in pairs:
            for op in pair:
                first._check_compatible(op)
        self._pairs = pairs
        # The operator pairs whose joins list the configurations to decide.
        self._joins = pairs
        self.type_parity = first.type_parity
        self.dim = first.dim
        self._lin: Dict[Tuple[int, int, int], Dict[int, List[Tuple[int, Dict]]]] = {}
        self._towers: Dict[Tuple[int, int, int, int], Tuple[SlotForm, List]] = {}
        self._fields = FieldDerivatives()

    @classmethod
    def closedness(cls, op: MatrixDiffOperator) -> "ConfigurationScan":
        """Scan of the closedness defect B(op, op)."""
        return cls(((op, op),))

    @classmethod
    def schouten(cls, op1: MatrixDiffOperator, op2: MatrixDiffOperator) -> "ConfigurationScan":
        """Scan of the Schouten bracket B(op1, op2) + B(op2, op1)."""
        return cls(((op1, op2), (op2, op1)))

    @classmethod
    def pair(cls, op1: MatrixDiffOperator, op2: MatrixDiffOperator) -> "ConfigurationScan":
        """Scan of the closedness defect of op1 + op2 on the configurations
        that the Schouten bracket [op1, op2] lists (see ``is_hamiltonian_pair``)."""
        scan = cls.closedness(op1 + op2)
        scan._joins = ((op1, op2), (op2, op1))
        return scan

    # -- memoised pieces -------------------------------------------------------

    def _linearization(self, op: MatrixDiffOperator, fam: int,
                       base: int) -> Dict[int, List[Tuple[int, Dict[int, List[Tuple]]]]]:
        """Frechet linearization of op along the symbol of family fam and base
        parity base, grouped by row, each entry's coefficients ``_split``."""
        key = (id(op), fam, base)
        rows = self._lin.get(key)
        if rows is None:
            rows = self._lin[key] = {}
            sym = covector(COVECTOR_SLOTS[0], fam, 0, base)
            for (row, col), scalar in frechet(op, sym, (base + 1) & 1).items():
                rows.setdefault(row, []).append(
                    (col, {m: _split(coeff) for m, coeff in scalar.entries().items()}))
        return rows

    def _derivative(self, op: MatrixDiffOperator, fam: int, base: int, col: int,
                    m: int) -> List[Tuple]:
        """D^m of column col of op applied to the symbol of family fam and base
        parity base, ``_split``; each D is taken on the slot keys (F, k)."""
        key = (id(op), fam, base, col)
        tower = self._towers.get(key)
        if tower is None:
            symbol = covector(COVECTOR_SLOTS[0], fam, 0, base)
            pieces = _split(_apply_to_symbol(op.entry((base + 1) & 1, col, fam), symbol))
            form = SlotForm({(f, k): c for f, _, k, c in pieces}, (symbol,), self._fields)
            tower = self._towers[key] = (form, [pieces])
        form, pieces = tower
        while len(pieces) <= m:
            form.terms = form.derive(form.terms)
            pieces.append([(f, form.fields[f][0], k, c) for (f, k), c in form.terms.items()])
        return pieces[m]

    # -- one configuration -------------------------------------------------------

    def _pairing(self, form: Dict, op_a: MatrixDiffOperator, op_b: MatrixDiffOperator,
                 rotation: Tuple[int, int, int], families: Tuple[int, int, int],
                 bases: List[int], sign: int) -> None:
        """Add the cyclic pairing term (a, b, c) = ``rotation`` times ``sign`` into
        ``form``: row families[c] of op_a linearized along slot a (a basis covector
        at family c keeps that row only) paired with the columns of op_b applied
        to slot b, each pair of pieces placed by the sign rule of the memo."""
        a, b, c = rotation
        fam_x, fam_y = families[a], families[b]
        base_x, base_y, z = bases[a], bases[b], bases[c]
        # The covector sign's exponent, with x = |X|, y = |Y| and bits 0 or 1:
        # x (|F2| + y y_cross) + x x_bit + y y_bit.
        x_bit, y_bit, y_cross = ((0, 0, 0), (z, z, 0), (z, 0, 1))[a]
        for col, entries in self._linearization(op_a, fam_x, base_x).get(families[c], ()):
            for m, x_pieces in entries.items():
                y_pieces = self._derivative(op_b, fam_y, base_y, col, m)
                if not y_pieces:
                    continue
                ys = [(f2, -c2 if (ky + base_y) & y_bit else c2, p2 ^ ((ky + base_y) & y_cross), ky)
                      for f2, p2, ky, c2 in y_pieces]
                for f1, _, kx, c1 in x_pieces:
                    x = (kx + base_x) & 1
                    if (x & x_bit) ^ (sign < 0):
                        c1 = -c1
                    for f2, c2, cross, ky in ys:
                        if not f1:
                            mono, s = f2, 1
                        else:
                            mono, s = _mul_monomials(f1, f2)
                            if not s:
                                continue
                        if a == 0:
                            key = (mono, kx, ky, 0)
                        elif a == 1:
                            key = (mono, 0, kx, ky)
                        else:
                            key = (mono, ky, 0, kx)
                        coeff = -c1 * c2 if (s < 0) ^ (x & cross) else c1 * c2
                        coeff += form.get(key, 0)
                        if coeff:
                            form[key] = coeff
                        else:
                            del form[key]

    def _keyed_form(self, families: Tuple[int, int, int],
                    parities: Tuple[int, int, int]) -> SlotForm:
        """The scanned three-form on one basis configuration, on slot keys."""
        bases = [(par + 1) & 1 for par in parities]
        signs = _config_signs(self.type_parity, parities)
        form: Dict = {}
        for op_a, op_b in self._pairs:
            for rotation, sign in zip(_CYCLIC, signs):
                self._pairing(form, op_a, op_b, rotation, families, bases, sign)
        return SlotForm(form, tuple(zip(COVECTOR_SLOTS, families, (0, 0, 0), bases)), self._fields)

    def three_form(self, families: Tuple[int, int, int],
                   parities: Tuple[int, int, int]) -> SuperPolynomial:
        """The scanned three-form on one basis configuration."""
        return self._keyed_form(families, parities).polynomial()

    # -- the scan ----------------------------------------------------------------

    def _configurations(self) -> List[Tuple]:
        """The configurations to decide, in lexicographic order: those with a
        pairing term that meets a stored block or, when the reduction applies,
        the representatives of their family orbits.  A reduced scan reads only
        the p_a = 0 entries and p_b = 0 blocks: by the block relation of a skew
        operator its p = 1 blocks have the same support and field families, so
        they list the same family triples."""
        if self._symmetric is None:
            self._symmetric = all(check_skew_symmetry(op)[0] for pair in self._joins for op in pair)
        listed = set()
        parities = (0,) if self._symmetric else (0, 1)
        for op_a, op_b in self._joins:
            rows: Dict[int, List[Tuple[int, int]]] = {}
            for p_b, g, f_b in op_b.blocks():
                if p_b in parities:
                    rows.setdefault(g, []).append((p_b, f_b))
            for (p_a, f_c, f_a), scalar in op_a.blocks().items():
                if p_a not in parities:
                    continue
                for g in _field_families(scalar.entries().values(), self.dim):
                    for p_b, f_b in rows.get(g, ()):
                        if self._symmetric:
                            listed.add(tuple(sorted((f_a, f_b, f_c))))
                            continue
                        for p_c in (0, 1):  # the three cyclic placements
                            listed.update((((f_a, f_b, f_c), (p_a, p_b, p_c)),
                                           ((f_c, f_a, f_b), (p_c, p_a, p_b)),
                                           ((f_b, f_c, f_a), (p_b, p_c, p_a))))
        if self._symmetric:
            return [(families, (0, 0, 0)) for families in sorted(listed)]
        return sorted(listed)

    def _certified(self, configs: List[Tuple]) -> Iterator[Tuple]:
        """Certified failures of the orbits of ``configs`` (ascending),
        merged in lexicographic order."""
        pending: List[Tuple] = []  # heap of (member, certificate or None)
        for rep in configs:
            while pending and pending[0][0] < rep:
                yield self._member_failure(*heappop(pending))
            certificate = non_membership_certificate(self._keyed_form(*rep))
            if certificate is not None:
                members = _orbit(rep[0]) if self._symmetric else [rep]
                for member in members:
                    heappush(pending, (member, certificate if member == rep else None))
        while pending:
            yield self._member_failure(*heappop(pending))

    def _member_failure(self, member: Tuple, certificate: Optional[Tuple]) -> Tuple:
        if certificate is None:
            certificate = non_membership_certificate(self._keyed_form(*member))
            if certificate is None:
                raise RuntimeError(f"configuration {member} passes although its orbit "
                                   "fails; the scanned form breaks the orbit symmetry")
        return member + certificate

    def failures(self, limit: Optional[int] = None) -> Iterator[Tuple]:
        """Certified failures (families, parities, base, gradient), lexicographically
        first, at most ``limit`` (all when None).

        ``base`` and ``gradient`` certify that the form is not a total
        derivative.
        """
        return islice(self._certified(self._configurations()), limit)


def hamiltonian_defect(op: MatrixDiffOperator, families: Tuple[int, int, int],
                       parities: Tuple[int, int, int]) -> SuperPolynomial:
    """The closedness three-form B(op, op) on one basis configuration.

    Builds three fresh covector symbols concentrated at the given families
    with the given parity gradings and returns the signed cyclic sum of the
    three linearization pairings, arranged on one side; the operator is
    Hamiltonian iff this is a total derivative for every configuration.
    Requires super skew-symmetry.
    """
    ok, witness = check_skew_symmetry(op)
    if not ok:
        raise SkewSymmetryError(f"operator is not super skew-symmetric: {witness}")
    return ConfigurationScan.closedness(op).three_form(families, parities)


def iter_closedness_failures(op: MatrixDiffOperator,
                             limit: Optional[int] = None) -> Iterator[Tuple]:
    """Certified failures (families, parities, base, gradient) of the
    closedness defect, lexicographically first, at most ``limit``.  See
    ``ConfigurationScan.failures``.
    """
    yield from ConfigurationScan.closedness(op).failures(limit)


def is_hamiltonian(op: MatrixDiffOperator):
    """Full Hamiltonian test; returns (ok, witness).

    The witness is ("skew", detail) for a skew-symmetry failure, or
    ("closedness", families, parities) naming the lexicographically first
    basis configuration whose defect is not a total derivative.
    """
    ok, witness = check_skew_symmetry(op)
    if not ok:
        return False, ("skew", witness)
    for families, parities, _, _ in iter_closedness_failures(op, limit=1):
        return False, ("closedness", families, parities)
    return True, None


def schouten_bracket(op1: MatrixDiffOperator, op2: MatrixDiffOperator,
                     families: Tuple[int, int, int],
                     parities: Tuple[int, int, int]) -> SuperPolynomial:
    """Schouten super-bracket B(op1, op2) + B(op2, op1) on one basis configuration.

    On the diagonal, the bracket of an operator with itself is twice its
    defect, so vanishing of the diagonal in the quotient reproduces the
    Hamiltonian test.
    """
    return ConfigurationScan.schouten(op1, op2).three_form(families, parities)


def iter_schouten_failures(op1: MatrixDiffOperator, op2: MatrixDiffOperator,
                           limit: Optional[int] = None) -> Iterator[Tuple]:
    """Certified failures (families, parities, base, gradient) of the Schouten
    bracket, lexicographically first, at most ``limit``."""
    yield from ConfigurationScan.schouten(op1, op2).failures(limit)


def schouten_vanishes(op1: MatrixDiffOperator, op2: MatrixDiffOperator):
    """Check the Schouten bracket vanishes in the quotient on all basis
    configurations; returns (ok, witness)."""
    for families, parities, _, _ in iter_schouten_failures(op1, op2, limit=1):
        return False, (families, parities)
    return True, None


def is_hamiltonian_pair(op1: MatrixDiffOperator, op2: MatrixDiffOperator):
    """Hamiltonian-pair test; returns (ok, witness).

    Raises on type or dimension mismatch, and on a skew-symmetry failure of
    either operator; otherwise checks the three Schouten conditions.  The
    diagonal brackets [Hk, Hk] are twice the defects, and once both vanish,
    [H1 + H2, H1 + H2] = 2 [H1, H2] by bilinearity and symmetry, so the mixed
    condition is the Hamiltonian test of H1 + H2.  On a configuration the
    defect of H1 + H2 is [H1, H2] plus the two defects, total derivatives by
    then, so ``ConfigurationScan.pair`` decides it only on the configurations
    that [H1, H2] lists; on every other one it is a total derivative.
    """
    op1._check_compatible(op2)
    for label, op in (("first", op1), ("second", op2)):
        ok, witness = check_skew_symmetry(op)
        if not ok:
            raise SkewSymmetryError(f"{label} operator is not super skew-symmetric: {witness}")
    for label, scan in (("[H1,H1]", ConfigurationScan.closedness(op1)),
                        ("[H2,H2]", ConfigurationScan.closedness(op2)),
                        ("[H1,H2]", ConfigurationScan.pair(op1, op2))):
        for families, parities, _, _ in scan.failures(limit=1):
            return False, (label, families, parities)
    return True, None


def evolution_rhs(op: MatrixDiffOperator, density: SuperPolynomial) -> Dict[int, SuperPolynomial]:
    """Right side of the evolution system attached to a density.

    Takes the variational derivative of the density with respect to each
    field family it contains, then applies the operator block matching the
    parity of the resulting covector family; every other component is 0.
    """
    grads = {fam: variational_derivative_field(density, fam)
             for fam in _field_families((density,), op.dim)}
    parities = {g.homogeneous_parity() for g in grads.values() if g}
    if len(parities) > 1 or None in parities:
        raise ValueError("variational gradient is not parity-homogeneous")
    # With every gradient 0, any block gives the zero right side.
    block = (parities.pop() + 1) & 1 if parities else 0
    return apply_matrix_operator(op, grads, block)
