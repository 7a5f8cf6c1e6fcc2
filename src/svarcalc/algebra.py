"""Exact arithmetic in a free super-commutative polynomial algebra.

Values are polynomials over the rationals in a family of Z2-graded
generators.  Two kinds of generators exist:

* dynamical field generators ``phi<family>(n)`` with order n >= 1, where
  ``phi(n)`` has parity n mod 2 (the order-1 generator is odd and each
  derivative flips parity);
* formal covector symbols ``xi<slot>_<family>`` carrying an explicit base
  parity, together with their formal derivatives ``D^k xi`` of parity
  (base_parity + k) mod 2.

A generator is a plain tuple ``(kind, family, derivs, base_parity)`` where
kind 0 marks fields (derivs k displays as order n = k + 1, base parity is
always 1) and kinds 1..3 mark the three covector slots.  The tuple itself is
the total generator order: fields sort before covectors, then by family and
derivative count.  This fixed order makes canonical forms reproducible
bit-for-bit.

A monomial is a sorted tuple of ``(generator, exponent)`` pairs; odd
generators never carry an exponent above 1 (their squares vanish).  A
polynomial maps monomials to nonzero exact rational coefficients; the empty
monomial is the scalar 1 and the zero polynomial is the empty mapping.
Reordering a product of generators costs a sign of -1 for every transposition
of two odd generators, which is exactly the super-commutation rule
``u v = (-1)^{|u||v|} v u``.  One function, ``insert_generator``, sorts a
generator into a monomial and counts the odd generators it passes.

Coefficients follow one rule in every module, stated here:

* values enter through ``_exact``: an ``int`` when integral, else a ``Fraction``;
* ``int`` arithmetic stays ``int``;
* arithmetic with a ``Fraction`` may leave an integral ``Fraction``, except in
  a ``calculus.SlotForm``'s polynomials (the scan's three-forms and their
  certificate gradients, through ``_exact``);
* equal values compare, hash and print alike, so no verdict, certificate or
  report byte depends on the type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

Generator = Tuple[int, int, int, int]
Monomial = Tuple[Tuple[Generator, int], ...]
Coeff = Union[int, Fraction]
Matrix = Tuple[Tuple[Coeff, ...], ...]
Table = Tuple[Matrix, ...]

FIELD_KIND = 0
COVECTOR_SLOTS = (1, 2, 3)

_ZERO = 0
_ONE = 1


def _exact(value) -> Coeff:
    """``value`` by the coefficient rule of the module docstring: an ``int``
    (itself, or 0 or 1 for a ``bool``) when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def _as_table(dim: int, data) -> Table:
    """A dim x dim x dim structure-constant table as nested tuples of ``_exact``
    values; any other shape raises ValueError."""
    if len(data) != dim or any(len(row) != dim or any(len(cell) != dim for cell in row)
                               for row in data):
        raise ValueError(f"expected a {dim} x {dim} x {dim} table")
    return tuple(tuple(tuple(map(_exact, cell)) for cell in row) for row in data)


def _as_matrix(dim: int, data) -> Matrix:
    """A dim x dim matrix as nested tuples of ``_exact`` values; any other shape
    raises ValueError."""
    if len(data) != dim or any(len(row) != dim for row in data):
        raise ValueError(f"expected a {dim} x {dim} matrix")
    return tuple(tuple(map(_exact, row)) for row in data)


def field(family: int, order: int = 1) -> Generator:
    """Field generator ``phi<family>(order)``; order must be >= 1."""
    if order < 1:
        raise ValueError(f"field order must be >= 1, got {order}")
    if family < 0:
        raise ValueError(f"family index must be >= 0, got {family}")
    return (FIELD_KIND, family, order - 1, 1)


def covector(slot: int, family: int, derivs: int = 0, base_parity: int = 0) -> Generator:
    """Covector symbol ``D^derivs xi<slot>_<family>`` with the given base parity."""
    if slot not in COVECTOR_SLOTS:
        raise ValueError(f"covector slot must be one of {COVECTOR_SLOTS}, got {slot}")
    if derivs < 0:
        raise ValueError(f"derivative count must be >= 0, got {derivs}")
    if base_parity not in (0, 1):
        raise ValueError(f"base parity must be 0 or 1, got {base_parity}")
    return (slot, family, derivs, base_parity)


def parity(gen: Generator) -> int:
    """Z2 parity of a generator: (base_parity + derivs) mod 2."""
    return (gen[2] + gen[3]) & 1


def shift(gen: Generator) -> Generator:
    """Image of a generator under one application of the superderivation."""
    return (gen[0], gen[1], gen[2] + 1, gen[3])


def base_of(gen: Generator) -> Generator:
    """The derivs-0 base generator of the derivative tower containing gen."""
    return (gen[0], gen[1], 0, gen[3])


def gen_name(gen: Generator) -> str:
    kind, family, derivs, base_parity = gen
    if kind == FIELD_KIND:
        return f"phi{family}({derivs + 1})"
    core = f"xi{kind}_{family}"
    return core if derivs == 0 else f"D{derivs}({core})"


def monomial_parity(mono: Monomial) -> int:
    p = 0
    for gen, exp in mono:
        if exp & 1:
            p ^= parity(gen)
    return p


def normalize_monomial(gens: Sequence[Generator]) -> Tuple[Optional[Monomial], int]:
    """Sort a raw generator sequence into canonical form.

    Returns ``(monomial, sign)`` where sign is -1 to the number of odd-odd
    transpositions performed, or ``(None, 0)`` when an odd generator repeats
    (its square vanishes).  This is the product of the factors gen^1 with the
    empty monomial (``_mul_monomials``).
    """
    return _mul_monomials([(gen, 1) for gen in gens], ())


def _mul_monomials(m1: Sequence[Tuple[Generator, int]],
                   m2: Monomial) -> Tuple[Optional[Monomial], int]:
    """The product m1 * m2 as ``(canonical monomial, sign)``, or ``(None, 0)``.

    The factors gen^exp of m1 are put in front of the canonical m2, last
    factor first, by one ``insert_generator`` call each; an odd factor that
    passes an odd number of odd generators flips the sign.  m1 may be any
    factor sequence: an odd factor with exponent 2 or more, or one already
    present, gives zero.  The cost is len(m1) times the result's length.
    """
    sign = 1
    for gen, exp in reversed(m1):
        odd = (gen[2] + gen[3]) & 1
        if odd and exp > 1:
            return None, 0
        m2, crossed = insert_generator(m2, gen, 0, exp)
        if m2 is None:
            return None, 0
        if odd & crossed:
            sign = -sign
    return m2, sign


class Sparse:
    """A finite linear combination: a dict from keys to nonzero coefficients.

    Polynomials, scalar operators and formal distributions share this storage
    and its linear-space operations.  Sums delete the coefficients that cancel,
    so every instance stays canonical and equality is dict equality.  A
    coefficient is an exact rational or, for operators, a polynomial; either
    adds, negates and multiplies by a rational.  Combinations of different
    classes neither compare equal nor add.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Dict] = None):
        # Trusted constructor: terms must already be canonical with no zeros.
        self._terms = terms if terms is not None else {}

    @classmethod
    def zero(cls):
        return cls({})

    def terms(self) -> Mapping:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable dict inside; equality is structural

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = coeff
            else:
                coeff = prev + coeff
                if coeff:
                    out[key] = coeff
                else:
                    del out[key]
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self._terms.items()})

    def scaled(self, factor):
        f = _exact(factor)
        if not f:
            return type(self)({})
        return type(self)({k: c * f for k, c in self._terms.items()})


class SuperPolynomial(Sparse):
    """Canonical sparse polynomial: mapping from monomials to rationals."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def scalar(cls, value) -> "SuperPolynomial":
        c = _exact(value)
        return cls({(): c} if c else {})

    @classmethod
    def one(cls) -> "SuperPolynomial":
        return cls.scalar(1)

    @classmethod
    def generator(cls, gen: Generator) -> "SuperPolynomial":
        return cls({((gen, 1),): _ONE})

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[Sequence[Generator], object]]) -> "SuperPolynomial":
        """Build from (raw generator sequence, coefficient) pairs."""
        acc: Dict[Monomial, Coeff] = {}
        for gens, coeff in terms:
            mono, sign = normalize_monomial(tuple(gens))
            if sign == 0:
                continue
            c = acc.get(mono, _ZERO) + sign * _exact(coeff)
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        return cls(acc)

    # -- inspection ----------------------------------------------------------

    def constant_term(self) -> Coeff:
        return self._terms.get((), _ZERO)

    def coefficient(self, mono: Monomial) -> Coeff:
        return self._terms.get(mono, _ZERO)

    def generators(self) -> Iterator[Generator]:
        for mono in self._terms:
            for gen, _ in mono:
                yield gen

    def bases(self) -> set:
        """Set of derivs-0 base generators whose towers occur."""
        return {base_of(g) for g in self.generators()}

    def homogeneous_parity(self) -> Optional[int]:
        """Common parity of all monomials, or None if mixed.  Zero gives None."""
        parities = {monomial_parity(m) for m in self._terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def has_parity(self, p: int) -> bool:
        """True iff every monomial has parity p (the zero polynomial always does)."""
        return all(monomial_parity(m) == (p & 1) for m in self._terms)

    def even_part(self) -> "SuperPolynomial":
        return SuperPolynomial({m: c for m, c in self._terms.items() if not monomial_parity(m)})

    def odd_part(self) -> "SuperPolynomial":
        return SuperPolynomial({m: c for m, c in self._terms.items() if monomial_parity(m)})

    def max_derivs(self, base: Generator) -> int:
        """Largest derivative count of the given base tower occurring; -1 if absent."""
        kind, family, _, bp = base
        best = -1
        for gen in self.generators():
            if gen[0] == kind and gen[1] == family and gen[3] == bp and gen[2] > best:
                best = gen[2]
        return best

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            acc: Dict[Monomial, Coeff] = {}
            mul_into(acc, self, other)
            return SuperPolynomial(acc)
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
            factors = []
            for gen, exp in mono:
                name = gen_name(gen)
                factors.append(name if exp == 1 else f"{name}^{exp}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        rendered = " + ".join(parts)
        return rendered.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SuperPolynomial({self})"


def mul_into(acc: Dict[Monomial, Coeff], u: SuperPolynomial, v: SuperPolynomial) -> None:
    """Add the product u * v into the term dict ``acc`` in place.

    Each monomial product is ``_mul_monomials(m1, m2)``: the generators of
    m1 sorted into m2 one at a time.  A sum of products accumulated this way
    builds one dict instead of a polynomial per product and per partial sum;
    coefficients that cancel to zero are removed as they arise, so ``acc``
    stays canonical.
    """
    for m1, c1 in u._terms.items():
        for m2, c2 in v._terms.items():
            mono, sign = _mul_monomials(m1, m2)
            if sign == 0:
                continue
            c = acc.get(mono, _ZERO) + (c1 * c2 if sign > 0 else -c1 * c2)
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]


def tower_partials(u: SuperPolynomial, gen: Generator) -> Dict[int, SuperPolynomial]:
    """Partial derivatives by every element of gen's derivative tower, in one pass.

    Maps each derivative count m to the nonzero left superderivation of u by
    the tower element with m derivatives.  That derivation removes one power
    of the element with the sign (-1)^{|element| * (parity of the factors to
    its left)}.  Removing one power of the same generator from distinct
    monomials leaves distinct monomials, so no coefficients merge.
    """
    kind, family, _, base_parity = gen
    acc: Dict[int, Dict[Monomial, Coeff]] = {}
    for mono, coeff in u._terms.items():
        left_odd = 0
        for idx, (g, exp) in enumerate(mono):
            if g[0] == kind and g[1] == family and g[3] == base_parity:
                if exp > 1:
                    new = mono[:idx] + ((g, exp - 1),) + mono[idx + 1:]
                else:
                    new = mono[:idx] + mono[idx + 1:]
                c = coeff * exp
                acc.setdefault(g[2], {})[new] = -c if left_odd & (g[2] + base_parity) & 1 else c
            left_odd += (g[2] + g[3]) & 1  # odd generators always carry exponent 1
    return {m: SuperPolynomial(acc[m]) for m in sorted(acc)}


def partial_derive(u: SuperPolynomial, gen: Generator) -> SuperPolynomial:
    """Left superderivation d/d(gen) of parity |gen|: the gen entry of
    ``tower_partials``."""
    return tower_partials(u, gen).get(gen[2]) or SuperPolynomial.zero()


def insert_generator(mono: Monomial, gen: Generator, lo: int = 0,
                     exp: int = 1) -> Tuple[Optional[Monomial], int]:
    """Put one more factor gen^exp in front of the sorted tail mono[lo:] and sort it in.

    Monomials are ordered here: products and normal forms
    (``_mul_monomials``), the document reader and the superderivation, when
    D(gen) does not stay in gen's place.  Returns the
    canonical monomial and the number of odd generators gen passes on the
    way to its place, so the reordering sign is (-1)^{|gen| * count}; an odd
    gen comes with exp 1.  An even gen already present gets its exponent
    raised by exp; an odd one gives ``(None, 0)`` (its square vanishes).
    """
    pos, crossed = lo, 0
    for g, _ in mono[lo:]:
        if g >= gen:
            break
        crossed += (g[2] + g[3]) & 1
        pos += 1
    if pos < len(mono) and mono[pos][0] == gen:
        if parity(gen):
            return None, 0
        return mono[:pos] + ((gen, mono[pos][1] + exp),) + mono[pos + 1:], crossed
    return mono[:pos] + ((gen, exp),) + mono[pos:], crossed
