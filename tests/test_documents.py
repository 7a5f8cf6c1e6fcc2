"""Input document parsing, validation errors, and round-trip stability."""

import random
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
    virasoro_operator_data,
    build_type0_operator,
    build_type1_operator,
)
from svarcalc.documents import (
    DocumentError,
    InputDocument,
    _generator_out,
    parse_document,
    parse_document_data,
    render_document,
)

F = Fraction
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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
