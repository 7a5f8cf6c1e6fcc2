"""Input documents: parsing, validation and deterministic rendering.

The concrete syntax is JSON.  A rational is a string ("p/q", an integer
string, or any other form ``Fraction`` reads) or a JSON integer; floats are
rejected outright so no value ever passes through binary floating point,
and numerators and denominators stay within the int digit limit.  Rendering
sorts keys and writes every rational as a string, and is byte-stable:
parse(render(doc)) == doc for every valid document.

Parsing costs about one ``json.loads`` plus one pass over the values: integer
strings become ``int`` without ``Fraction``, each distinct string of a table
is converted once, and a field location such as ``products.circ[1][2][3]`` is
built only for the error that names it.

Document kinds:

* ``algebra``          -- structure constants (products circ/times/dot, an
                          optional symmetric form, an optional grading);
* ``operator``         -- a matrix differential operator given by block
                          entries (block, row, col, power, coefficient);
* ``linear_operator``  -- coefficient tables of a linear type-1 family plus
                          an optional constant block;
* ``density``          -- a single polynomial with a family count, used as
                          the density of an evolution system.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .algebra import (
    FIELD_KIND,
    Coeff,
    Generator,
    Monomial,
    SuperPolynomial,
    _exact,
    _mul_monomials,
    covector,
    field,
)
from .modes import LinearOperatorData
from .operators import MatrixDiffOperator, ScalarDiffOperator
from .structures import AlgebraSpec

FORMAT = "svarcalc/1"


class DocumentError(ValueError):
    """Structured parse/validation failure with a field location."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


@dataclass
class InputDocument:
    kind: str
    payload: Any  # AlgebraSpec | MatrixDiffOperator | LinearOperatorData | (dim, SuperPolynomial)
    # The sha256 of the bytes parsed, for a document read from a file; not
    # part of equality.
    sha256: Optional[str] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, InputDocument):
            return NotImplemented
        return self.kind == other.kind and self.payload == other.payload


def _expect(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise DocumentError(location, message)


def _location(where: Tuple) -> str:
    """A field location from its parts, built only for an error: an ``int``
    part ``n`` is the index ``[n]``, a string part is appended as it is."""
    return "".join(f"[{part}]" if type(part) is int else part for part in where)


def _rational(value, where: Tuple = ()) -> Coeff:
    """A JSON rational as an ``int`` or a ``Fraction``; errors are located at ``where``.

    A JSON integer and an ASCII integer string (an optional ``-``, then
    digits) become an ``int`` directly.  Every other string goes through
    ``_fraction``, and ``Fraction`` decides what is accepted and words the
    error.  Every consumer applies ``algebra._exact``, so an integral
    ``Fraction`` and an ``int`` give the same payload.
    """
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:
                pass  # past the int digit limit: Fraction raises the same error
        try:
            return _fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(_location(where),
                                f"not a valid rational: {value!r} ({exc})") from None
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(_location(where), f"rationals must be strings, got {value!r}")
    if isinstance(value, int):
        return value
    raise DocumentError(_location(where),
                        f"expected a rational string, got {type(value).__name__}")


# The exponent of a decimal string, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction(value: str) -> Fraction:
    """``Fraction(value)``, refused when its numerator or denominator has more
    digits than the int digit limit.  ``Fraction`` expands an exponent in
    full, so a large one is judged first: past a mantissa of at most
    ``limit`` digits, a magnitude of ``2 limit`` puts any nonzero value past it.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    match = _EXPONENT.search(value)
    if match and abs(int(match[1])) >= 2 * limit:
        try:  # the mantissa, with the exponent written as 0
            mantissa = Fraction(value[:match.start(1)] + "0" + value[match.end(1):])
        except ValueError:
            return Fraction(value)  # not a rational either: Fraction words the error
        if mantissa:
            raise ValueError(f"more than {limit} digits")
        return mantissa
    result = Fraction(value)
    size = max(abs(result.numerator), result.denominator)
    if size.bit_length() > 3 * limit and size >= 10 ** limit:
        raise ValueError(f"more than {limit} digits")
    return result


class _Rationals(dict):
    """The rational strings of one document, each converted once by ``_rational``.

    Only strings are kept: a JSON integer, boolean or float misses every time
    and is judged by ``_rational`` (as keys, ``True == 1`` and ``1.0 == 1``).
    """

    def __missing__(self, value):
        rational = _rational(value)
        if isinstance(value, str):
            self[value] = rational
        return rational

    def vector(self, values: list, where: Tuple) -> Tuple[Coeff, ...]:
        """The rationals of a JSON list; a bad value is located at ``where[k]``."""
        try:
            return tuple(map(self.__getitem__, values))
        except (DocumentError, TypeError):  # TypeError: an unhashable value
            for k, value in enumerate(values):
                _rational(value, (*where, k))
            raise


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sized(value, dim: int, what: str, where: Tuple) -> list:
    """``value`` when it is a list of ``dim`` items; else the error at ``where``."""
    if isinstance(value, list) and len(value) == dim:
        return value
    raise DocumentError(_location(where), f"expected a list of {dim} {what}")


def _table_in(data, dim: int, location: str, rationals: _Rationals):
    out = []
    for i, row in enumerate(_sized(data, dim, "rows", (location,))):
        out.append(tuple(
            rationals.vector(_sized(cell, dim, "coefficients", (location, i, j)),
                             (location, i, j))
            for j, cell in enumerate(_sized(row, dim, "columns", (location, i)))))
    return tuple(out)


def _matrix_in(data, dim: int, location: str, rationals: _Rationals):
    return tuple(rationals.vector(_sized(row, dim, "entries", (location, i)), (location, i))
                 for i, row in enumerate(_sized(data, dim, "rows", (location,))))


def _int_key(data: dict, key: str, low: int, high: Optional[int], where: Tuple,
             message: str, default=None) -> int:
    """``data[key]`` when it is an integer in [low, high) (unbounded above when
    ``high`` is None); else the error at ``where`` + ``.key``."""
    value = data.get(key, default)
    if _is_int(value) and low <= value and (high is None or value < high):
        return value
    raise DocumentError(_location((*where, "." + key)), message)


def _generator_in(data, dim: int, where: Tuple) -> Generator:
    if not isinstance(data, dict):
        raise DocumentError(_location(where), "expected a generator object")
    kind = data.get("kind")
    families = f"family index must be an integer in [0, {dim})"
    if kind == "field":
        family = _int_key(data, "family", 0, dim, where, families)
        return field(family, _int_key(data, "order", 1, None, where,
                                      "field order must be an integer >= 1"))
    if kind == "covector":
        slot = _int_key(data, "slot", 1, 4, where, "covector slot must be 1, 2 or 3")
        family = _int_key(data, "family", 0, dim, where, families)
        derivs = _int_key(data, "derivs", 0, None, where,
                          "derivative count must be an integer >= 0", default=0)
        base_parity = _int_key(data, "base_parity", 0, 2, where, "base parity must be 0 or 1")
        return covector(slot, family, derivs, base_parity)
    raise DocumentError(_location((*where, ".kind")), f"unknown generator kind {kind!r}")


def _generator_out(gen: Generator) -> Dict[str, Any]:
    kind, family, derivs, base_parity = gen
    if kind == FIELD_KIND:
        return {"kind": "field", "family": family, "order": derivs + 1}
    return {"kind": "covector", "slot": kind, "family": family,
            "derivs": derivs, "base_parity": base_parity}


def _polynomial_in(data, dim: int, where: Tuple) -> SuperPolynomial:
    if isinstance(data, (str, int)):
        return SuperPolynomial.scalar(_rational(data, where))
    if not isinstance(data, list):
        raise DocumentError(_location(where), "expected a rational string or a list of terms")
    acc: Dict[Monomial, Coeff] = {}
    for t, term in enumerate(data):
        if not isinstance(term, dict):
            raise DocumentError(_location((*where, t)), "expected a term object")
        coeff = _rational(term.get("coeff"), (*where, t, ".coeff"))
        mono = term.get("monomial", [])
        if not isinstance(mono, list):
            raise DocumentError(_location((*where, t, ".monomial")), "expected a list of factors")
        factors = []
        for f_idx, factor in enumerate(mono):
            if not (isinstance(factor, list) and len(factor) == 2):
                raise DocumentError(_location((*where, t, ".monomial", f_idx)),
                                    "expected a [generator, exponent] pair")
            gen = _generator_in(factor[0], dim, (*where, t, ".monomial", f_idx, 0))
            exp = factor[1]
            if not (_is_int(exp) and exp >= 1):
                raise DocumentError(_location((*where, t, ".monomial", f_idx, 1)),
                                    "exponent must be an integer >= 1")
            factors.append((gen, exp))
        # One insertion per factor gen^exp, so the cost does not grow with
        # exp; the square of an odd generator gives sign 0.
        mono, sign = _mul_monomials(factors, ())
        c = sign * _exact(coeff)
        if c:
            c += acc.get(mono, 0)
            if c:
                acc[mono] = c
            else:
                del acc[mono]
    return SuperPolynomial(acc)


def _polynomial_out(poly: SuperPolynomial):
    if poly.is_zero():
        return []
    terms = poly.terms()
    if len(terms) == 1 and () in terms:
        return str(terms[()])
    out = []
    for mono, coeff in sorted(terms.items()):
        out.append({
            "coeff": str(coeff),
            "monomial": [[_generator_out(gen), exp] for gen, exp in mono],
        })
    return out


# -- algebra documents -------------------------------------------------------

def _algebra_in(data) -> AlgebraSpec:
    dim = data.get("dimension")
    _expect(_is_int(dim) and dim >= 1, "dimension", "must be an integer >= 1")
    products = data.get("products", {})
    _expect(isinstance(products, dict), "products", "expected an object")
    rationals = _Rationals()
    tables = {}
    for name in ("circ", "times", "dot"):
        if name in products:
            tables[name] = _table_in(products[name], dim, f"products.{name}", rationals)
    unknown = set(products) - {"circ", "times", "dot"}
    _expect(not unknown, "products", f"unknown product names {sorted(unknown)}")
    form = _matrix_in(data["form"], dim, "form", rationals) if "form" in data else None
    grading = None
    if "grading" in data:
        g = data["grading"]
        _expect(isinstance(g, list) and len(g) == dim
                and all(_is_int(x) and x in (0, 1) for x in g),
                "grading", f"expected a list of {dim} parities (0 or 1)")
        grading = tuple(g)
    return AlgebraSpec(dim=dim, form=form, grading=grading, **tables)


def _rationals_out(data) -> List:
    """Nested tuples of rationals (a matrix, a table or a list of tables) as
    nested lists of their strings."""
    return [_rationals_out(x) if isinstance(x, tuple) else str(x) for x in data]


def _algebra_out(spec: AlgebraSpec) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"format": FORMAT, "kind": "algebra", "dimension": spec.dim}
    products = {name: _rationals_out(getattr(spec, name)) for name in ("circ", "times", "dot")
                if getattr(spec, name) is not None}
    if products:
        doc["products"] = products
    if spec.form is not None:
        doc["form"] = _rationals_out(spec.form)
    if spec.grading is not None:
        doc["grading"] = list(spec.grading)
    return doc


# -- operator documents ------------------------------------------------------

def _operator_in(data) -> MatrixDiffOperator:
    type_parity = data.get("type")
    _expect(_is_int(type_parity) and type_parity in (0, 1), "type",
            "operator type must be 0 or 1")
    dim = data.get("dimension")
    _expect(_is_int(dim) and dim >= 1, "dimension", "must be an integer >= 1")
    entries = data.get("entries", [])
    _expect(isinstance(entries, list), "entries", "expected a list")
    blocks: Dict[Tuple[int, int, int], Dict[int, SuperPolynomial]] = {}
    seen = set()
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"entries[{idx}]", "expected an entry object")
        where = ("entries", idx)
        block = _int_key(entry, "block", 0, 2, where, "block must be 0 or 1")
        row = _int_key(entry, "row", 0, dim, where, f"row must be an integer in [0, {dim})")
        col = _int_key(entry, "col", 0, dim, where, f"col must be an integer in [0, {dim})")
        power = _int_key(entry, "power", 0, None, where, "power must be an integer >= 0")
        key = (block, row, col, power)
        if key in seen:
            raise DocumentError(f"entries[{idx}]", f"duplicate entry for {key}")
        seen.add(key)
        coeff = _polynomial_in(entry.get("coeff"), dim, ("entries", idx, ".coeff"))
        if coeff:
            blocks.setdefault((block, row, col), {})[power] = coeff
    ops = {key: ScalarDiffOperator(powers) for key, powers in blocks.items()}
    try:
        return MatrixDiffOperator(type_parity, dim, ops)
    except ValueError as exc:
        raise DocumentError("entries", str(exc)) from None


def _operator_out(op: MatrixDiffOperator) -> Dict[str, Any]:
    entries = []
    for (block, row, col) in sorted(op.blocks()):
        for power in sorted(op.entry(block, row, col).entries()):
            coeff = op.entry(block, row, col).entries()[power]
            entries.append({
                "block": block, "row": row, "col": col, "power": power,
                "coeff": _polynomial_out(coeff),
            })
    return {"format": FORMAT, "kind": "operator", "type": op.type_parity,
            "dimension": op.dim, "entries": entries}


# -- linear operator documents ------------------------------------------------

def _linear_in(data) -> LinearOperatorData:
    top = data.get("top_order")
    dim = data.get("dimension")
    _expect(_is_int(top) and top >= 1, "top_order", "must be an integer >= 1")
    _expect(_is_int(dim) and dim >= 1, "dimension", "must be an integer >= 1")
    even = data.get("even_tables")
    odd = data.get("odd_tables")
    _expect(isinstance(even, list) and len(even) == top + 1, "even_tables",
            f"expected {top + 1} tables")
    _expect(isinstance(odd, list) and len(odd) == top, "odd_tables",
            f"expected {top} tables")
    rationals = _Rationals()
    even_tables = tuple(_table_in(even[m], dim, f"even_tables[{m}]", rationals)
                        for m in range(top + 1))
    odd_tables = tuple(_table_in(odd[m], dim, f"odd_tables[{m}]", rationals)
                       for m in range(top))
    constant = (_matrix_in(data["constant"], dim, "constant", rationals)
                if "constant" in data else None)
    return LinearOperatorData(top_order=top, dim=dim, even_tables=even_tables,
                              odd_tables=odd_tables, constant=constant)


def _linear_out(data: LinearOperatorData) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "format": FORMAT, "kind": "linear_operator",
        "top_order": data.top_order, "dimension": data.dim,
        "even_tables": _rationals_out(data.even_tables),
        "odd_tables": _rationals_out(data.odd_tables),
    }
    if data.constant is not None:
        doc["constant"] = _rationals_out(data.constant)
    return doc


# -- density documents ---------------------------------------------------------

def _density_in(data) -> Tuple[int, SuperPolynomial]:
    dim = data.get("dimension")
    _expect(_is_int(dim) and dim >= 1, "dimension", "must be an integer >= 1")
    poly = _polynomial_in(data.get("polynomial", []), dim, ("polynomial",))
    return (dim, poly)


def _density_out(payload: Tuple[int, SuperPolynomial]) -> Dict[str, Any]:
    dim, poly = payload
    return {"format": FORMAT, "kind": "density", "dimension": dim,
            "polynomial": _polynomial_out(poly)}


# -- entry points --------------------------------------------------------------

# Each document kind's (reader, writer) of its payload.
_KINDS = {
    "algebra": (_algebra_in, _algebra_out),
    "operator": (_operator_in, _operator_out),
    "linear_operator": (_linear_in, _linear_out),
    "density": (_density_in, _density_out),
}
KINDS = tuple(_KINDS)


def parse_document_data(data) -> InputDocument:
    _expect(isinstance(data, dict), "", "document root must be an object")
    fmt = data.get("format")
    _expect(fmt == FORMAT, "format", f"expected {FORMAT!r}, got {fmt!r}")
    kind = data.get("kind")
    _expect(kind in KINDS, "kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    return InputDocument(kind, _KINDS[kind][0](data))


def parse_document(path: str) -> InputDocument:
    """The document in the file at ``path``, with the sha256 of the bytes parsed.

    The file is opened once; its text is what text-mode reading gives: UTF-8
    with universal newlines.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DocumentError("", f"cannot read {path}: {exc.strerror}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError("", f"cannot decode {path} as UTF-8: {exc.reason} "
                                f"at byte {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("", f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("", "malformed JSON: nested too deeply") from None
    doc = parse_document_data(data)
    doc.sha256 = hashlib.sha256(raw).hexdigest()
    return doc


def render_document(doc: InputDocument) -> str:
    if doc.kind not in KINDS:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    return json.dumps(_KINDS[doc.kind][1](doc.payload), indent=2, sort_keys=True) + "\n"
