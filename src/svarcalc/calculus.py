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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    FIELD_KIND,
    Coeff,
    Generator,
    Monomial,
    SuperPolynomial,
    _exact,
    base_of,
    field,
    insert_generator,
    monomial_parity,
    partial_derive,
    shift,
    tower_partials,
)

_ZERO = 0


class QuotientDomainError(ValueError):
    """Raised when the total-derivative test is asked about a polynomial
    with a nonzero constant term, which lies outside the decidable domain."""


def superderive(u: SuperPolynomial) -> SuperPolynomial:
    """Apply the odd superderivation D once.

    On each factor gen^exp of a monomial, D passes the odd factors to its
    left and gives exp * gen^(exp-1) * D(gen).  When exp is 1 and the next
    factor sorts above D(gen), D(gen) takes gen's own place; otherwise it is
    sorted into the tail of the monomial, with the sign of the odd
    generators it passes.
    """
    acc: Dict[Monomial, Coeff] = {}
    for mono, coeff in u.terms().items():
        odd_prefix = 0
        last = len(mono) - 1
        for idx, (gen, exp) in enumerate(mono):
            odd = (gen[2] + gen[3]) & 1
            target = shift(gen)
            if exp == 1 and (idx == last or mono[idx + 1][0] > target):
                new, crossed = mono[:idx] + ((target, 1),) + mono[idx + 1:], 0
            elif exp == 1:
                new, crossed = insert_generator(mono[:idx] + mono[idx + 1:], target, idx)
            else:
                # gen^(exp-1) stays in place (gen is even) and D(gen) starts after it.
                rest = mono[:idx] + ((gen, exp - 1),) + mono[idx + 1:]
                new, crossed = insert_generator(rest, target, idx + 1)
            if new is not None:
                c = coeff * exp
                # D(gen) has parity 1 - |gen|.
                if (odd_prefix + (1 - odd) * crossed) & 1:
                    c = -c
                tot = acc.get(new, _ZERO) + c
                if tot:
                    acc[new] = tot
                elif new in acc:
                    del acc[new]
            odd_prefix += odd
    return SuperPolynomial(acc)


def superderive_n(u: SuperPolynomial, n: int) -> SuperPolynomial:
    for _ in range(n):
        u = superderive(u)
    return u


def variational_derivative(u, base: Generator) -> SuperPolynomial:
    """Variational (Euler-type) derivative of a polynomial or a ``SlotForm``
    with respect to a base generator.

    Sum over derivative counts m of c_m D^m P_m, where P_m is the partial
    derivative by the m-th element of the base's tower, truncated at the
    largest order occurring in u.  The sign sequence is forced by requiring
    the operator to annihilate the image of D: the graded commutator identity
    [d/dg_m, D] = d/dg_{m-1} gives c_{m+1} = (-1)^{|g_m|+1} c_m, which is
    (-1)^{m(m-1)/2} on odd-based towers (the field case) and the twisted
    (-1)^{m(m+1)/2} on even-based covector towers.

    The sum is evaluated in Horner form, c_0 P_0 + D(c_1 P_1 + D(...)), on
    term dicts from the partials of one ``tower_partials`` pass (a slot
    form's own, on its keys): D is linear, so this is the same polynomial
    with ``top`` applications of D instead of top (top + 1) / 2.
    """
    _, _, derivs, base_parity = base
    if derivs != 0:
        raise ValueError("variational derivative expects a derivs-0 base generator")
    if isinstance(u, SlotForm):
        parts, rest = u.tower_partials(base)
        derive, result = rest.derive, rest.polynomial
    else:
        parts = {m: part.terms() for m, part in tower_partials(u, base).items()}
        derive, result = (lambda terms: superderive(SuperPolynomial(terms)).terms()), SuperPolynomial
    total: Dict = {}
    for m in range(max(parts, default=-1), -1, -1):
        if total:
            total = derive(total)
        negate = (m * (m - 1) // 2 + (0 if base_parity else m)) & 1
        for key, coeff in parts.get(m, {}).items():
            coeff = total.get(key, _ZERO) + (-coeff if negate else coeff)
            if coeff:
                total[key] = coeff
            else:
                del total[key]
    return result(total)


class FieldDerivatives(dict):
    """(|F|, the terms of D(F)) per fields-only monomial F, each built on first use."""

    def __missing__(self, fields: Monomial) -> Tuple[int, List[Tuple[Monomial, Coeff]]]:
        derivative = superderive(SuperPolynomial({fields: 1})).terms()
        value = self[fields] = (monomial_parity(fields), list(derivative.items()))
        return value


class SlotForm:
    """A form linear in each of its slot towers, as terms keyed by (F, k_1, ...,
    k_n): the monomial F D^k_1(s_1) ... D^k_n(s_n) of fields F and derivs-0
    covector symbols s_1 < ... < s_n, which sort after every field.  Forms
    over the same fields may share ``fields`` (``FieldDerivatives``).  The
    membership functions decide it on its keys, building no polynomial."""

    def __init__(self, terms: Dict, symbols: Sequence[Generator], fields: FieldDerivatives):
        self.terms, self.symbols, self.fields = terms, tuple(symbols), fields

    def __bool__(self) -> bool:
        return bool(self.terms)

    def polynomial(self, terms: Optional[Mapping[Tuple, Coeff]] = None) -> SuperPolynomial:
        """The polynomial of ``terms`` (the form's own by default), coefficients ``_exact``."""
        return SuperPolynomial({
            key[0] + tuple(((s[0], s[1], k, s[3]), 1) for s, k in zip(self.symbols, key[1:])):
                _exact(coeff) for key, coeff in (self.terms if terms is None else terms).items()})

    def tower_partials(self, base: Generator) -> Tuple[Dict[int, Dict], "SlotForm"]:
        """The partials by D^m of the tower of ``base``, per m, and an empty form
        of the other slots; D^m(s) passes F and the earlier slot factors."""
        symbols, fields, tail = self.symbols, self.fields, base[3]
        slot = symbols.index(base) + 1  # its place in a key
        lead = sum(s[3] for s in symbols[:slot - 1])
        parts: Dict[int, Dict] = {}
        for key, coeff in self.terms.items():
            m = key[slot]
            if (m + tail) & 1 and (fields[key[0]][0] + lead + sum(key[1:slot])) & 1:
                coeff = -coeff
            parts.setdefault(m, {})[key[:slot] + key[slot + 1:]] = coeff
        return parts, SlotForm({}, symbols[:slot - 1] + symbols[slot:], fields)

    def derive(self, terms: Mapping[Tuple, Coeff]) -> Dict[Tuple, Coeff]:
        """D on terms keyed on this form's slots: D(F) in place of F, and each
        slot factor one order up, past F and the factors before it."""
        fields, out = self.fields, {}
        slots = tuple(enumerate((s[3] for s in self.symbols), 1))
        for key, coeff in terms.items():
            parity, derivative = fields[key[0]]
            for g, c in derivative:
                image = (g, *key[1:])
                out[image] = out.get(image, _ZERO) + coeff * c
            up = list(key)
            for slot, base in slots:
                k = up[slot]
                up[slot] = k + 1
                image = tuple(up)
                out[image] = out.get(image, _ZERO) + (-coeff if parity & 1 else coeff)
                up[slot] = k
                parity += k + base
        return {key: coeff for key, coeff in out.items() if coeff}


def variational_derivative_field(u: SuperPolynomial, family: int) -> SuperPolynomial:
    """Variational derivative with respect to the field family ``family``."""
    return variational_derivative(u, field(family, 1))


def _deciding_bases(u) -> List[Generator]:
    """The bases whose variational derivatives decide membership of u in Im D.

    If every monomial has degree exactly 1 in some covector tower, u is
    linear in that tower: integrating by parts gives u = E * xi modulo Im D
    with E free of the tower and equal, up to sign, to the variational
    derivative by xi, so that one derivative decides.  Among such towers the
    one with the lowest top derivative order is cheapest (ties go to the
    generator order).  Otherwise every base occurring decides, in generator
    order.

    Only the covector towers of the first monomial can qualify.  One pass
    over the generators follows each of them: the monomials it occurs in,
    the last of those and its top order.  An exponent above 1 or a second
    generator of the tower in one monomial rules it out; it qualifies when
    it occurs in every monomial.  A ``SlotForm``'s keys give the rule at once.
    """
    if isinstance(u, SlotForm):
        top = [max(orders) for orders in list(zip(*u.terms))[1:]]
        return [u.symbols[min(range(len(top)), key=lambda slot: (top[slot], slot))]] if top else []
    # base -> [monomials met, last monomial met, top order], None once ruled out
    towers: Dict[Generator, Optional[List[int]]] = {}
    live = 0
    k = -1
    for k, mono in enumerate(u.terms()):
        if k and not live:
            break
        for gen, exp in mono:
            if gen[0] == FIELD_KIND:
                continue
            base = base_of(gen)
            if base not in towers:
                if k:
                    continue
                towers[base] = [0, -1, -1]
                live += 1
            tower = towers[base]
            if tower is None:
                continue
            if exp != 1 or tower[1] == k:
                towers[base] = None
                live -= 1
                continue
            tower[0] += 1
            tower[1] = k
            if gen[2] > tower[2]:
                tower[2] = gen[2]
    top = {base: tower[2] for base, tower in towers.items()
           if tower is not None and tower[0] == k + 1}
    if top:
        return [min(top, key=lambda base: (top[base], base))]
    return sorted(u.bases())


def _require_constant_free(u: SuperPolynomial) -> None:
    if u.constant_term():
        raise QuotientDomainError(
            "polynomial has a nonzero constant term; membership in the image "
            "of the superderivation is undefined for it"
        )


def is_total_derivative(u) -> bool:
    """Decide membership of a polynomial or a ``SlotForm`` in the image of D.

    Valid only for polynomials with zero constant term; a constant-free u is
    a total derivative iff every variational derivative (over all base
    generators occurring, covector towers included) vanishes.  When u is
    linear in a covector tower, that tower's derivative alone decides.
    """
    return non_membership_certificate(u) is None


def non_membership_certificate(u):
    """Certificate that u, a polynomial or a ``SlotForm``, is outside the
    image of the superderivation.

    Returns (base generator, its nonzero variational derivative) for the
    first deciding base (the single linear covector tower when there is
    one, else the first base in generator order with a nonzero derivative),
    or None when u is a total derivative.
    """
    if not isinstance(u, SlotForm):
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

    def apply(self, u: SuperPolynomial) -> SuperPolynomial:
        return evolutionary_apply(self, u)


def evolutionary_apply(f: EvolutionaryField, u: SuperPolynomial) -> SuperPolynomial:
    """Apply the evolutionary derivation induced by f to u.

    The coefficient at derivative count n of family j is
    (-1)^{parity * n} D^n(component_j); only the finitely many orders
    occurring in u contribute.
    """
    acc = SuperPolynomial.zero()
    for fam in sorted({g[1] for g in u.generators() if g[0] == FIELD_KIND}):
        for n, part in tower_partials(u, field(fam, 1)).items():
            coeff = superderive_n(f.component(fam), n)
            if f.parity and (n & 1):
                coeff = -coeff
            acc = acc + coeff * part
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
    for p in probes:
        lhs = deriv.apply(superderive(p))
        rhs = superderive(deriv.apply(p))
        if deriv.parity & 1:
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
