"""Input document parsing, validation errors, and round-trip stability."""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from svarcalc import (
    MatrixDiffOperator,
    ScalarDiffOperator,
    SuperPolynomial,
    covector,
    field,
    make_exterior_example,
    make_truncated_example,
    np_to_nx,
    parity,
    virasoro_operator_data,
    build_type0_operator,
    build_type1_operator,
)
from svarcalc.algebra import _exact
from svarcalc.documents import (
    DocumentError,
    InputDocument,
    _Rationals,
    _generator_out,
    _rational,
    parse_document,
    parse_document_data,
    render_document,
)
from helpers import mutate_document

F = Fraction
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def gp(g):
    return SuperPolynomial.generator(g)


def corpus():
    docs = []
    nx2 = np_to_nx(make_truncated_example(2), 0)
    docs.append(InputDocument("algebra", nx2))
    docs.append(InputDocument("algebra", make_exterior_example({(3, 4): 1})))
    docs.append(InputDocument("operator", build_type1_operator(nx2)))
    docs.append(InputDocument("operator", build_type0_operator(
        make_exterior_example({(1, 2): 2, (3, 4): -1}))))
    d5 = MatrixDiffOperator(1, 1, {(0, 0, 0): ScalarDiffOperator.d_power(5),
                                   (1, 0, 0): ScalarDiffOperator.d_power(5)})
    docs.append(InputDocument("operator", d5))
    docs.append(InputDocument("linear_operator", virasoro_operator_data(2)))
    density = F(-1, 2) * (gp(field(0, 1)) * gp(field(0, 6))) \
        + gp(field(0, 1)) * gp(field(0, 2)) * gp(field(0, 2))
    docs.append(InputDocument("density", (1, density)))
    return docs


class TestRoundTrip:
    def test_parse_render_identity(self, tmp_path):
        for idx, doc in enumerate(corpus()):
            path = tmp_path / f"doc{idx}.json"
            path.write_text(render_document(doc))
            assert parse_document(str(path)) == doc

    def test_rendering_is_deterministic(self):
        for doc in corpus():
            assert render_document(doc) == render_document(doc)

    def test_algebra_fixtures_render_byte_identical(self):
        # These documents were rendered from Fraction-valued specs; now that
        # integral coefficients are stored as int, str(int) must give the same
        # bytes (entries such as "3/2", "-2", "7/3" and "0" among them).
        paths = sorted(FIXTURES.glob("*.alg.json"))
        texts = [path.read_text() for path in paths]
        assert all(any(s in text for text in texts) for s in ('"3/2"', '"-2"', '"7/3"'))
        for path, text in zip(paths, texts):
            assert render_document(parse_document(str(path))) == text

    def test_covector_generators_round_trip(self, tmp_path):
        poly = gp(covector(2, 0, 3, 1)) * gp(field(0, 2))
        doc = InputDocument("density", (1, poly))
        path = tmp_path / "cov.json"
        path.write_text(render_document(doc))
        assert parse_document(str(path)) == doc

    def test_unsorted_monomial_normalizes_with_sign(self):
        data = {
            "format": "svarcalc/1", "kind": "density", "dimension": 2,
            "polynomial": [{
                "coeff": "1",
                "monomial": [
                    [{"kind": "field", "family": 1, "order": 1}, 1],
                    [{"kind": "field", "family": 0, "order": 1}, 1],
                ],
            }],
        }
        _, poly = parse_document_data(data).payload
        assert poly == -(gp(field(0, 1)) * gp(field(1, 1)))

    def test_exponents_match_repeated_factors(self, seed):
        rng = random.Random(seed)
        pool = [field(0, 1), field(0, 2), field(1, 3), covector(1, 0, 0, 0),
                covector(1, 0, 1, 0), covector(2, 1, 0, 1)]
        for _ in range(200):
            terms, data = [], []
            for _ in range(rng.randint(1, 3)):
                factors = [(rng.choice(pool), rng.randint(1, 3))
                           for _ in range(rng.randint(0, 4))]
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                terms.append(([g for g, exp in factors for _ in range(exp)], coeff))
                data.append({"coeff": str(coeff),
                             "monomial": [[_generator_out(g), exp] for g, exp in factors]})
            doc = {"format": "svarcalc/1", "kind": "density", "dimension": 2,
                   "polynomial": data}
            _, poly = parse_document_data(doc).payload
            assert poly == SuperPolynomial.from_terms(terms)

    def test_huge_exponents_parse_in_constant_time(self):
        even, odd = {"kind": "field", "family": 0, "order": 2}, dict(_PHI)
        start = time.perf_counter()
        _, power = parse_document_data(_density_doc(even, 10 ** 9)).payload
        _, square = parse_document_data(_density_doc(odd, 10 ** 9)).payload
        assert time.perf_counter() - start < 0.1
        assert power.terms() == {((field(0, 2), 10 ** 9),): 1}
        assert square.is_zero()

    def test_long_monomials_parse_in_one_pass(self):
        # 2000 distinct field generators, 1000 of them odd, in ascending and
        # descending order, then with an odd generator repeated at both ends.
        # Even ones carry exponents up to 3, so the expansion has 4000 factors.
        gens = [field(f // 2, 1 + f % 2) for f in range(2000)]
        factors = [(g, 1 if parity(g) else 1 + g[1] % 3) for g in gens]
        cases = (factors, factors[::-1], [(gens[2], 1)] + factors[::-1] + [(gens[2], 1)])
        for listed in cases:
            doc = {"format": "svarcalc/1", "kind": "density", "dimension": 1000,
                   "polynomial": [{"coeff": "-3/2", "monomial": [
                       [_generator_out(g), exp] for g, exp in listed]}]}
            start = time.perf_counter()
            _, poly = parse_document_data(doc).payload
            assert time.perf_counter() - start < 1
            expanded = [g for g, exp in listed for _ in range(exp)]
            assert poly == SuperPolynomial.from_terms([(expanded, Fraction(-3, 2))])
            if len(listed) > len(gens):
                assert poly.is_zero()
            else:
                # Reversing 1000 odd generators makes 1000 * 999 / 2
                # transpositions, an even number.
                assert poly.terms() == {tuple(sorted(factors)): Fraction(-3, 2)}


def _operator_doc(**entry):
    base = {"block": 0, "row": 0, "col": 0, "power": 1, "coeff": "1"}
    return {"format": "svarcalc/1", "kind": "operator", "type": 1, "dimension": 1,
            "entries": [dict(base, **entry)]}


def _density_doc(generator, exponent=1):
    return {"format": "svarcalc/1", "kind": "density", "dimension": 1,
            "polynomial": [{"coeff": "1", "monomial": [[generator, exponent]]}]}


_PHI = {"kind": "field", "family": 0, "order": 1}
_XI = {"kind": "covector", "slot": 1, "family": 0, "derivs": 0, "base_parity": 0}

# JSON true/false where a document expects an integer: Python reads them as
# 1 and 0, so each must be rejected by name rather than parsed.
BOOLEAN_INTEGERS = {
    "dimension": ({"format": "svarcalc/1", "kind": "algebra", "dimension": True}, "dimension"),
    "type": (dict(_operator_doc(), type=True), "type"),
    "block": (_operator_doc(block=False), "entries[0].block"),
    "row": (_operator_doc(row=False), "entries[0].row"),
    "col": (_operator_doc(col=False), "entries[0].col"),
    "power": (_operator_doc(power=True), "entries[0].power"),
    "top_order": ({"format": "svarcalc/1", "kind": "linear_operator", "top_order": True,
                   "dimension": 1}, "top_order"),
    "field family": (_density_doc(dict(_PHI, family=False)), "[0][0].family"),
    "field order": (_density_doc(dict(_PHI, order=True)), "[0][0].order"),
    "covector slot": (_density_doc(dict(_XI, slot=True)), "[0][0].slot"),
    "covector family": (_density_doc(dict(_XI, family=False)), "[0][0].family"),
    "covector derivs": (_density_doc(dict(_XI, derivs=False)), "[0][0].derivs"),
    "covector base_parity": (_density_doc(dict(_XI, base_parity=True)), "[0][0].base_parity"),
    "exponent": (_density_doc(_PHI, True), "monomial[0][1]"),
    "grading": ({"format": "svarcalc/1", "kind": "algebra", "dimension": 2,
                 "grading": [0, True]}, "grading"),
}


class TestErrors:
    def run(self, data, fragment):
        with pytest.raises(DocumentError) as err:
            parse_document_data(data)
        assert fragment in str(err.value)

    def test_unknown_kind(self):
        self.run({"format": "svarcalc/1", "kind": "matrix"}, "unknown kind")

    def test_wrong_format_tag(self):
        self.run({"format": "svarcalc/2", "kind": "algebra"}, "format")

    def test_zero_denominator(self):
        self.run({"format": "svarcalc/1", "kind": "algebra", "dimension": 1,
                  "products": {"circ": [[["1/0"]]]}}, "products.circ[0][0][0]")

    def test_float_coefficient_rejected(self):
        self.run({"format": "svarcalc/1", "kind": "algebra", "dimension": 1,
                  "products": {"circ": [[[0.5]]]}}, "rationals must be strings")

    def test_index_out_of_range(self):
        self.run({"format": "svarcalc/1", "kind": "operator", "type": 1,
                  "dimension": 1,
                  "entries": [{"block": 0, "row": 0, "col": 3, "power": 1,
                               "coeff": "1"}]}, "col")

    def test_duplicate_entry(self):
        entry = {"block": 0, "row": 0, "col": 0, "power": 1, "coeff": "1"}
        self.run({"format": "svarcalc/1", "kind": "operator", "type": 1,
                  "dimension": 1, "entries": [entry, dict(entry)]}, "duplicate")

    def test_type_parity_violation_reported(self):
        self.run({"format": "svarcalc/1", "kind": "operator", "type": 1,
                  "dimension": 1,
                  "entries": [{"block": 0, "row": 0, "col": 0, "power": 2,
                               "coeff": "1"}]}, "parity")

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "svarcalc/1",\n  "kind": }\n')
        with pytest.raises(DocumentError) as err:
            parse_document(str(path))
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_json_errors_count_lines_as_text_mode_reading_does(self, tmp_path, newline):
        # Files are read as bytes (for their digest) and decoded with
        # universal newlines, so CRLF and CR-only files report the line and
        # column of their LF form.
        source = b'{"format": "svarcalc/1",\n  "kind": "density",\n  "dimension": }\n'
        messages = []
        for name, data in (("lf.json", source), ("other.json", source.replace(b"\n", newline))):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(DocumentError) as err:
                parse_document(str(path))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == \
            "malformed JSON at line 3, column 16: Expecting value"

    def test_missing_file(self):
        with pytest.raises(DocumentError):
            parse_document("/nonexistent/path.json")

    def test_wrong_table_shape(self):
        self.run({"format": "svarcalc/1", "kind": "linear_operator",
                  "top_order": 1, "dimension": 1,
                  "even_tables": [[[["1"]]]], "odd_tables": [[[["1"]]]]},
                 "expected 2 tables")

    @pytest.mark.parametrize("name", sorted(BOOLEAN_INTEGERS))
    def test_booleans_are_not_integers(self, name):
        self.run(*BOOLEAN_INTEGERS[name])

    def test_bad_cell_message_is_pinned(self):
        table = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
        table[1][2][3] = "1/0"
        with pytest.raises(DocumentError) as err:
            parse_document_data({"format": "svarcalc/1", "kind": "algebra", "dimension": 4,
                                 "products": {"circ": table}})
        assert err.value.location == "products.circ[1][2][3]"
        assert str(err.value) == ("products.circ[1][2][3]: not a valid rational: '1/0' "
                                  "(Fraction(1, 0))")

    @pytest.mark.parametrize("where, edit, message", [
        ("products.circ[1]", lambda t: t[1].pop(), "expected a list of 3 columns"),
        ("products.circ[2][0]", lambda t: t[2][0].append("1"),
         "expected a list of 3 coefficients"),
        ("products.circ[0][1][2]", lambda t: t[0][1].__setitem__(2, ["1"]),
         "expected a rational string, got list"),
        ("products.circ[2][2][0]", lambda t: t[2][2].__setitem__(0, True),
         "rationals must be strings, got True"),
    ])
    def test_table_errors_are_located(self, where, edit, message):
        table = [[["1"] * 3 for _ in range(3)] for _ in range(3)]
        edit(table)
        with pytest.raises(DocumentError) as err:
            parse_document_data({"format": "svarcalc/1", "kind": "algebra", "dimension": 3,
                                 "products": {"circ": table}})
        assert (err.value.location, err.value.message) == (where, message)

    def test_polynomial_errors_are_located(self):
        bad_family = _density_doc(dict(_PHI, family=3))
        bad_family["polynomial"].insert(0, {"coeff": "2", "monomial": []})
        with pytest.raises(DocumentError) as err:
            parse_document_data(bad_family)
        assert str(err.value) == ("polynomial[1].monomial[0][0].family: "
                                  "family index must be an integer in [0, 1)")
        with pytest.raises(DocumentError) as err:
            parse_document_data(_operator_doc(coeff=[{"coeff": "1/x", "monomial": []}]))
        assert err.value.location == "entries[0].coeff[0].coeff"


def rational_oracle(value):
    """One rational parsed as before the integer fast path, every string
    through ``Fraction`` and refused when its numerator or denominator has
    more digits than the int digit limit: (exact value, None) or (None,
    error message)."""
    if isinstance(value, (bool, float)):
        return None, f"rationals must be strings, got {value!r}"
    if isinstance(value, int):
        return _exact(Fraction(value)), None
    if not isinstance(value, str):
        return None, f"expected a rational string, got {type(value).__name__}"
    try:
        result = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        return None, f"not a valid rational: {value!r} ({exc})"
    limit = sys.get_int_max_str_digits()
    if max(abs(result.numerator), result.denominator) >= 10 ** limit:
        return None, f"not a valid rational: {value!r} (more than {limit} digits)"
    return _exact(result), None


def rational_outcome(value):
    try:
        result = _exact(_rational(value, ("cell", 4)))
    except DocumentError as exc:
        assert exc.location == "cell[4]"
        return None, exc.message
    return result, None


# Strings the integer fast path must hand to Fraction, or parse to the same
# value: leading zeros, signs, blanks, fractions, decimals, exponents,
# underscores, non-ASCII digits (Arabic-Indic three, superscript two), and an
# integer past the default int digit limit.
RATIONAL_CASES = ["007", "-0", "+3", " 3 ", "3/6", "1.5", "1e3", "1_0", "\u0663", "\u00b2",
                  "9" * 5000, "-" + "9" * 5000, "", "-", "--1", "1-", "1/0", "-12/-3", "0x10",
                  "\u00a03", True, False, 1.5, 0.0, None, [], {}, 0, -7, 10 ** 40]
RATIONAL_ALPHABET = "0123456789-+/._ e\u0663\u00b2\u00a0"


# Values a mutation puts in place of a node: valid and invalid ones.
MUTATION_POOL = RATIONAL_CASES[:-3] + ["0", "1", "-1", "1/2", 1, 2, 3, 10 ** 6, [], {}, [1],
                                       "field", "covector", "algebra", "operator"]


class TestParseOracle:
    """``_rational`` against ``Fraction``, and seeded mutations of the bundled
    documents through ``parse_document_data``."""

    @pytest.mark.parametrize("value", RATIONAL_CASES, ids=repr)
    def test_listed_values_match_fraction(self, value):
        outcome = rational_outcome(value)
        assert outcome == rational_oracle(value)
        assert type(outcome[0]) is type(rational_oracle(value)[0])

    def test_random_strings_match_fraction(self, seed):
        rng = random.Random(seed)
        for _ in range(3000):
            text = "".join(rng.choice(RATIONAL_ALPHABET) for _ in range(rng.randint(0, 7)))
            outcome, expected = rational_outcome(text), rational_oracle(text)
            assert outcome == expected and type(outcome[0]) is type(expected[0]), text

    def test_vectors_match_values_and_locate_the_first_bad_one(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            values = [rng.choice(RATIONAL_CASES) for _ in range(rng.randint(1, 6))]
            outcomes = [rational_oracle(v) for v in values]
            bad = [k for k, (_, message) in enumerate(outcomes) if message]
            if bad:
                with pytest.raises(DocumentError) as err:
                    _Rationals().vector(values, ("t", 1))
                assert err.value.location == f"t[1][{bad[0]}]"
                assert err.value.message == outcomes[bad[0]][1]
            else:
                got = [_exact(v) for v in _Rationals().vector(values, ("t", 1))]
                assert [(v, type(v)) for v in got] == [(v, type(v)) for v, _ in outcomes]

    @pytest.mark.parametrize("value, expected", [
        ("1e3", 1000), ("-2.5E-3", F(-1, 400)), ("1e4299", 10 ** 4299), ("5e-4300", F(1, 2 * 10 ** 4299)), ("10e-4300", F(1, 10 ** 4299)),
        ("0e999999999", 0), ("-0.0E-999999999", 0), ("1e4300", None), ("-1e-4300", None),
        ("1.5e8599", None), ("1e1000000", None), ("1e999999999", None),
        ("-7.25E-999999999", None), ("1e99999999999999999999", None)], ids=repr)
    def test_exponents_are_bounded_before_they_are_expanded(self, value, expected):
        # At most the int digit limit (4300 by default) in the numerator and
        # the denominator; past it, refused in constant time.
        start = time.perf_counter()
        outcome = rational_outcome(value)
        assert time.perf_counter() - start < 0.05
        limit = sys.get_int_max_str_digits()
        assert outcome == ((expected, None) if expected is not None else
                           (None, f"not a valid rational: {value!r} (more than {limit} digits)"))

    def test_memo_keeps_booleans_and_floats_apart(self):
        rationals = _Rationals()
        assert rationals.vector(["1", 1, "0"], ("t",)) == (1, 1, 0)
        for values, message in ((["1", True], "rationals must be strings, got True"),
                                ([1, 1.0], "rationals must be strings, got 1.0"),
                                (["0", False], "rationals must be strings, got False")):
            with pytest.raises(DocumentError) as err:
                rationals.vector(values, ("t",))
            assert (err.value.location, err.value.message) == ("t[1]", message)

    def test_mutated_documents_parse_or_raise_and_round_trip(self, seed):
        paths = sorted(SAMPLES.glob("*.json")) + sorted(FIXTURES.glob("*.json"))
        bases = [json.loads(path.read_text()) for path in paths]
        rng = random.Random(seed)
        parsed = 0
        for case in range(2000):
            data = (bases[case] if case < len(bases)
                    else mutate_document(rng, rng.choice(bases), MUTATION_POOL))
            try:
                doc = parse_document_data(data)
            except DocumentError:
                assert case >= len(bases)
                continue
            parsed += 1
            text = render_document(doc)
            again = parse_document_data(json.loads(text))
            assert again == doc and render_document(again) == text
        assert parsed > len(bases)
