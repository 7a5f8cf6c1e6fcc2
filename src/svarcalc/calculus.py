"""The odd superderivation, variational operators and evolutionary derivations.

The superderivation D shifts every generator one derivative order up and
satisfies the graded Leibniz rule D(uv) = D(u)v + (-1)^{|u|} u D(v); it is an
odd derivation, so D^2 acts as an even derivation shifting orders by two.

The variational operator attached to a base generator is the Euler-type
alternating sum over derivative orders; its kernel on constant-free
polynomials is exactly the image of D, which gives a complete decision
procedure for membership in D(A) (equality in the quotient A/D(A)).

Evolutionary derivations are the derivations commuting with D in the graded
sense; they are determined by their order-1 components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .algebra import (
    FIELD_KIND,
    Generator,
    Monomial,
    SuperPolynomial,
    base_of,
    field,
    normalize_monomial,
    parity,
    partial_derive,
    shift,
)

_ZERO = Fraction(0)


class QuotientDomainError(ValueError):
    """Raised when the total-derivative test is asked about a polynomial
    with a nonzero constant term, which lies outside the decidable domain."""


def superderive(u: SuperPolynomial) -> SuperPolynomial:
    """Apply the odd superderivation D once."""
    acc: Dict[Monomial, Fraction] = {}
    for mono, coeff in u.terms().items():
        left_parity = 0
        for idx, (gen, exp) in enumerate(mono):
            raw: List[Generator] = []
            for g2, e2 in mono[:idx]:
                raw.extend([g2] * e2)
            raw.extend([gen] * (exp - 1))
            raw.append(shift(gen))
            for g2, e2 in mono[idx + 1:]:
                raw.extend([g2] * e2)
            new, sign = normalize_monomial(raw)
            if sign:
                c = coeff * exp * sign
                if left_parity & 1:
                    c = -c
                tot = acc.get(new, _ZERO) + c
                if tot:
                    acc[new] = tot
                elif new in acc:
                    del acc[new]
            left_parity += parity(gen) * exp
    return SuperPolynomial(acc)


def superderive_n(u: SuperPolynomial, n: int) -> SuperPolynomial:
    for _ in range(n):
        u = superderive(u)
    return u


def variational_derivative(u: SuperPolynomial, base: Generator) -> SuperPolynomial:
    """Variational (Euler-type) derivative with respect to a base generator.

    Sum over derivative counts m of c_m D^m applied to the partial derivative
    by the m-th element of the base's tower, truncated at the largest order
    occurring in u.  The sign sequence is forced by requiring the operator to
    annihilate the image of D: the graded commutator identity
    [d/dg_m, D] = d/dg_{m-1} gives c_{m+1} = (-1)^{|g_m|+1} c_m, which is
    (-1)^{m(m-1)/2} on odd-based towers (the field case) and the twisted
    (-1)^{m(m+1)/2} on even-based covector towers.
    """
    kind, family, derivs, base_parity = base
    if derivs != 0:
        raise ValueError("variational derivative expects a derivs-0 base generator")
    top = u.max_derivs(base)
    total = SuperPolynomial.zero()
    for m in range(top + 1):
        g = (kind, family, m, base_parity)
        part = partial_derive(u, g)
        if not part:
            continue
        term = superderive_n(part, m)
        exponent = m * (m - 1) // 2 + (m if base_parity == 0 else 0)
        if exponent & 1:
            term = -term
        total = total + term
    return total


def variational_derivative_field(u: SuperPolynomial, family: int) -> SuperPolynomial:
    """Variational derivative with respect to the field family ``family``."""
    return variational_derivative(u, field(family, 1))


def _deciding_bases(u: SuperPolynomial) -> List[Generator]:
    """The bases whose variational derivatives decide membership of u in Im D.

    If every monomial has degree exactly 1 in some covector tower, u is
    linear in that tower: integrating by parts gives u = E * xi modulo Im D
    with E free of the tower and equal, up to sign, to the variational
    derivative by xi, so that one derivative decides.  Among such towers the
    one with the lowest top derivative order is cheapest (ties go to the
    generator order).  Otherwise every base occurring decides, in generator
    order.
    """
    linear = None
    top: Dict[Generator, int] = {}
    for mono in u.terms():
        degree: Dict[Generator, int] = {}
        for gen, exp in mono:
            if gen[0] != FIELD_KIND:
                base = base_of(gen)
                degree[base] = degree.get(base, 0) + exp
                if gen[2] > top.get(base, -1):
                    top[base] = gen[2]
        ones = {base for base, count in degree.items() if count == 1}
        linear = ones if linear is None else linear & ones
        if not linear:
            break
    if linear:
        return [min(linear, key=lambda base: (top[base], base))]
    return sorted(u.bases())


def _require_constant_free(u: SuperPolynomial) -> None:
    if u.constant_term():
        raise QuotientDomainError(
            "polynomial has a nonzero constant term; membership in the image "
            "of the superderivation is undefined for it"
        )


def is_total_derivative(u: SuperPolynomial) -> bool:
    """Decide membership in the image of D.

    Valid only for polynomials with zero constant term; a constant-free u is
    a total derivative iff every variational derivative (over all base
    generators occurring, covector towers included) vanishes.  When u is
    linear in a covector tower, that tower's derivative alone decides.
    """
    _require_constant_free(u)
    return not any(variational_derivative(u, base) for base in _deciding_bases(u))


def non_membership_certificate(u: SuperPolynomial):
    """Certificate that u is outside the image of the superderivation.

    Returns (base generator, its nonzero variational derivative) for the
    first deciding base (the single linear covector tower when there is
    one, else the first base in generator order with a nonzero derivative),
    or None when u is a total derivative.
    """
    _require_constant_free(u)
    for base in _deciding_bases(u):
        grad = variational_derivative(u, base)
        if grad:
            return base, grad
    return None


@dataclass
class EvolutionaryField:
    """Order-1 component data of an evolutionary derivation.

    ``parity`` is the Z2 degree of the derivation itself; each component
    polynomial must then be homogeneous of parity ``parity + 1``, which is
    exactly what makes the induced derivation commute with D in the graded
    sense.
    """

    parity: int
    components: Dict[int, SuperPolynomial]

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        want = (self.parity + 1) & 1
        for fam, poly in self.components.items():
            if not poly.has_parity(want):
                raise ValueError(
                    f"component for family {fam} must be homogeneous of parity {want}"
                )

    def component(self, family: int) -> SuperPolynomial:
        return self.components.get(family, SuperPolynomial.zero())


def evolutionary_apply(f: EvolutionaryField, u: SuperPolynomial) -> SuperPolynomial:
    """Apply the evolutionary derivation induced by f to u.

    The coefficient at derivative count n of family j is
    (-1)^{parity * n} D^n(component_j); only the finitely many orders
    occurring in u contribute.
    """
    cache: Dict[Tuple[int, int], SuperPolynomial] = {}
    acc = SuperPolynomial.zero()
    s = f.parity
    for gen in {g for g in u.generators() if g[0] == FIELD_KIND}:
        fam, n = gen[1], gen[2]
        part = partial_derive(u, gen)
        if not part:
            continue
        key = (fam, n)
        if key not in cache:
            comp = f.component(fam)
            coeff = superderive_n(comp, n)
            if s and (n & 1):
                coeff = -coeff
            cache[key] = coeff
        acc = acc + cache[key] * part
    return acc


@dataclass
class GradedDerivation:
    """Explicit derivation given by coefficients per field generator.

    ``coefficients`` maps (family, order) to the polynomial multiplying the
    partial derivative by phi<family>(order).  Unlike an EvolutionaryField,
    nothing ties the coefficients of different orders together, so such a
    derivation need not commute with D.
    """

    parity: int
    coefficients: Dict[Tuple[int, int], SuperPolynomial]

    def apply(self, u: SuperPolynomial) -> SuperPolynomial:
        acc = SuperPolynomial.zero()
        for (fam, order), coeff in self.coefficients.items():
            part = partial_derive(u, field(fam, order))
            if part:
                acc = acc + coeff * part
        return acc


def check_commutes_with_D(deriv, probes: Iterable[SuperPolynomial]) -> bool:
    """Graded commutator test [deriv, D] = 0 on the given probes.

    Accepts an EvolutionaryField or a GradedDerivation; D is odd, so the
    commutator is deriv(D(p)) - (-1)^{parity} D(deriv(p)).
    """
    if isinstance(deriv, EvolutionaryField):
        apply = lambda p: evolutionary_apply(deriv, p)
        s = deriv.parity
    else:
        apply = deriv.apply
        s = deriv.parity
    for p in probes:
        lhs = apply(superderive(p))
        rhs = superderive(apply(p))
        if s & 1:
            rhs = -rhs
        if lhs - rhs:
            return False
    return True


def evolutionary_bracket(f: EvolutionaryField, g: EvolutionaryField) -> EvolutionaryField:
    """Lie super-bracket of evolutionary derivations, as order-1 components.

    The bracket of two derivations commuting with D again commutes with D and
    is determined by its action on the order-1 generators:
    w_q = f(g_q) - (-1)^{|f||g|} g(f_q).
    """
    families = set(f.components) | set(g.components)
    out: Dict[int, SuperPolynomial] = {}
    twist = f.parity & g.parity
    for fam in families:
        w = evolutionary_apply(f, g.component(fam))
        back = evolutionary_apply(g, f.component(fam))
        w = w + back if twist else w - back
        if w:
            out[fam] = w
    return EvolutionaryField(parity=(f.parity + g.parity) & 1, components=out)
