"""Command-line behaviour: exit codes, reports, determinism, witness limits."""

import builtins
import contextlib
import copy
import hashlib
import json
import os
import random
import re
import signal
import stat
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from svarcalc import (
    AlgebraSpec,
    MatrixDiffOperator,
    ScalarDiffOperator,
    SuperPolynomial,
    build_type1_operator,
    field,
    make_truncated_example,
    np_to_nx,
    super_virasoro_table,
    virasoro_operator_data,
)
from svarcalc import cli
from svarcalc.cli import MAX_WINDOW, main
from svarcalc.documents import InputDocument, render_document
from svarcalc.modes import render_table
from helpers import mutate_document

F = Fraction
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
COVECTOR = str(FIXTURES / "invalid" / "covector_coefficient.op.json")


@pytest.fixture
def docs(tmp_path):
    """A directory of input documents used across the command tests."""
    paths = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(render_document(doc))
        paths[name] = str(path)

    d_op = MatrixDiffOperator(1, 1, {(0, 0, 0): ScalarDiffOperator.d_power(1),
                                     (1, 0, 0): ScalarDiffOperator.d_power(1)})
    d5_op = MatrixDiffOperator(1, 1, {(0, 0, 0): ScalarDiffOperator.d_power(5),
                                      (1, 0, 0): ScalarDiffOperator.d_power(5)})
    write("d.op.json", InputDocument("operator", d_op))
    write("d5.op.json", InputDocument("operator", d5_op))
    write("nx1.alg.json", InputDocument("algebra", np_to_nx(make_truncated_example(1), 0)))
    write("nx2.alg.json", InputDocument("algebra", np_to_nx(make_truncated_example(2), 0)))
    broken = AlgebraSpec(dim=1, circ=(((F(3),),),), times=(((F(1),),),), form=((F(1),),))
    write("broken.alg.json", InputDocument("algebra", broken))
    write("broken.op.json", InputDocument("operator", build_type1_operator(broken)))
    field_only = ScalarDiffOperator.single(SuperPolynomial.generator(field(0, 3)), 0)
    write("noskew.op.json", InputDocument("operator", MatrixDiffOperator(
        1, 1, {(0, 0, 0): field_only, (1, 0, 0): field_only})))
    nx2 = np_to_nx(make_truncated_example(2), 0)
    bent = [[[c for c in cell] for cell in row] for row in nx2.circ]
    bent[0][0][0] += 1
    write("bent2.alg.json", InputDocument("algebra", AlgebraSpec(
        dim=2, circ=bent, times=nx2.times, form=nx2.form)))
    write("virasoro1.lop.json", InputDocument("linear_operator", virasoro_operator_data(1)))
    phi = lambda n: SuperPolynomial.generator(field(0, n))
    density = F(-1, 2) * (phi(1) * phi(6)) + phi(1) * phi(2) * phi(2)
    write("kdv.den.json", InputDocument("density", (1, density)))
    paths["dir"] = str(tmp_path)
    return paths


class TestExitCodes:
    def test_pass_is_zero(self, docs, capsys):
        assert main(["check-hamiltonian", docs["d5.op.json"]]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_fail_is_one(self, docs, capsys):
        assert main(["check-algebra", "--class", "nx_bialgebra",
                     docs["broken.alg.json"]]) == 1
        out = capsys.readouterr().out
        assert "verdict: fail" in out and "witness" in out

    def test_error_is_two(self, docs, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-skew", str(bad)]) == 2
        assert "verdict: error" in capsys.readouterr().out

    def test_deeply_nested_json_is_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        assert main(["check-skew", str(deep)]) == 2
        out = capsys.readouterr().out
        assert "verdict: error" in out and "nested too deeply" in out

    def test_wrong_kind_is_error(self, docs, capsys):
        cases = (
            (["check-hamiltonian", docs["nx2.alg.json"]], "an operator", "algebra"),
            (["check-algebra", "--class", "novikov", docs["d5.op.json"]], "an algebra", "operator"),
            (["induce", "--window", "2", docs["d5.op.json"]], "a linear_operator", "operator"),
            (["evolution", docs["d5.op.json"], "--density", docs["d5.op.json"]], "a density",
             "operator"),
        )
        for argv, expected, got in cases:
            assert main(argv) == 2
            path = argv[-1]
            assert f"{path}: expected {expected} document, got {got}" in capsys.readouterr().out

    def test_boolean_power_is_error(self, docs, tmp_path, capsys):
        doc = json.loads(Path(docs["d5.op.json"]).read_text())
        doc["entries"][0]["power"] = True
        bad = tmp_path / "bool.op.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "bool.json"
        assert main(["check-hamiltonian", str(bad), "--report", str(report)]) == 2
        witness, = json.loads(report.read_text())["witnesses"]
        assert witness["location"] == "entries[0].power"

    @pytest.mark.parametrize("argv", [
        ["check-skew", COVECTOR],
        ["check-hamiltonian", COVECTOR],
        ["schouten", COVECTOR, COVECTOR],
        ["pair", COVECTOR, "d.op.json"],
        ["pair", "d.op.json", COVECTOR],
        ["evolution", COVECTOR, "--density", "kdv.den.json"],
    ])
    def test_covector_coefficient_is_a_located_error(self, docs, tmp_path, argv, capsys):
        # The operator is skew, but its coefficient holds the covector xi1_0,
        # which the scan's own basis covectors would collide with.
        report = tmp_path / "covector.json"
        argv = [docs.get(arg, arg) for arg in argv] + ["--report", str(report)]
        assert main(argv) == 2
        assert json.loads(report.read_text())["witnesses"] == [{
            "location": "entries",
            "message": "coefficient at block 0, entry (0,0), power 0 must hold field generators only"}]
        captured = capsys.readouterr()
        assert "verdict: error" in captured.out and not captured.err

    def test_non_utf8_document_is_a_located_error(self, tmp_path, capsys):
        latin = tmp_path / "latin.op.json"
        latin.write_bytes((SAMPLES / "d1.op.json").read_bytes().replace(
            b'"operator"', '"op\u00e9rator"'.encode("latin-1")))
        report = tmp_path / "latin.json"
        assert main(["check-skew", str(latin), "--report", str(report)]) == 2
        witness, = json.loads(report.read_text())["witnesses"]
        assert witness == {"location": "", "message": f"cannot decode {latin} as UTF-8: "
                                                      "invalid continuation byte at byte 278"}

    def test_rationals_past_the_digit_limit_are_errors(self, tmp_path, capsys):
        doc = json.loads((SAMPLES / "truncated_n2.alg.json").read_text())
        doc["products"]["circ"][0][0][0] = "1e5000"
        path = tmp_path / "huge.alg.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "huge.json"
        assert main(["check-algebra", "--class", "novikov", str(path), "--report", str(report)]) == 2
        witness, = json.loads(report.read_text())["witnesses"]
        assert witness["location"] == "products.circ[0][0][0]"
        assert witness["message"].endswith("(more than 4300 digits)")

    def test_witness_past_the_digit_limit_is_an_error(self, tmp_path, capsys):
        # Two coefficients within the limit whose product in a residual is not.
        doc = json.loads((SAMPLES / "truncated_n2.alg.json").read_text())
        doc["products"]["circ"][0][0][0] = doc["products"]["circ"][0][1][0] = "1e4299"
        path = tmp_path / "wide.alg.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "wide.json"
        assert main(["check-algebra", "--class", "novikov", "--witness-limit", "100", str(path),
                     "--report", str(report)]) == 2
        data = json.loads(report.read_text())
        assert data["verdict"] == "error" and "4300 digits" in data["witnesses"][0]
        assert "verdict: error" in capsys.readouterr().out


class TestUsageErrors:
    FAILING = {
        "check-algebra": ["check-algebra", "--class", "nx_bialgebra", "broken.alg.json"],
        "check-skew": ["check-skew", "noskew.op.json"],
        "schouten": ["schouten", "broken.op.json", "broken.op.json"],
        "check-hamiltonian": ["check-hamiltonian", "broken.op.json"],
        "pair": ["pair", "broken.op.json", "d.op.json"],
    }

    def argv(self, docs, command):
        return [docs.get(arg, arg) for arg in self.FAILING[command]]

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_failing_inputs_fail(self, docs, command, capsys):
        assert main(self.argv(docs, command)) == 1

    @pytest.mark.parametrize("command", sorted(FAILING))
    @pytest.mark.parametrize("flag", ["--witness-limit", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_are_usage_errors(self, docs, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(docs, command) + [flag, value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FAILING))
    @pytest.mark.parametrize("flag", ["--witness-limit", "--jobs"])
    def test_counts_above_maxsize_are_usage_errors(self, docs, command, flag, capsys):
        # islice and the scan take counts up to sys.maxsize; a larger one must
        # not reach them and turn the verdict into an error
        for value in (sys.maxsize + 1, 10 ** 20):
            with pytest.raises(SystemExit) as exc:
                main(self.argv(docs, command) + [flag, str(value)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert [line for line in captured.err.splitlines() if str(sys.maxsize) in line] == [
                f"svarcalc {command}: error: argument {flag}: "
                f"must be at most {sys.maxsize}, got {value}"]
        assert main(self.argv(docs, command) + [flag, str(sys.maxsize)]) == 1

    def test_window_above_the_bound_is_a_usage_error(self, docs, tmp_path, capsys):
        report = tmp_path / "wide.json"
        for window in (MAX_WINDOW + 1, 10 ** 6):
            assert main(["induce", "--window", str(window), docs["virasoro1.lop.json"],
                         "--report", str(report)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (f"svarcalc: error: --window {window} exceeds "
                                    f"the bound {MAX_WINDOW}\n")
            assert not captured.out and not report.exists()

    @pytest.mark.parametrize("window", [3, 4, 5, 6, MAX_WINDOW])
    def test_windows_within_the_bound_pass(self, docs, window, capsys):
        assert main(["induce", "--window", str(window), docs["virasoro1.lop.json"]]) == 0
        printed = {line[2:] for line in capsys.readouterr().out.splitlines()}
        assert set(render_table(super_virasoro_table(1, window))) <= printed

    def test_unwritable_report_is_an_error(self, docs, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert main(["check-skew", docs["d5.op.json"], "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err

    def test_unwritable_build_output_is_an_error(self, docs, tmp_path, capsys):
        path = tmp_path / "missing" / "built.op.json"
        assert main(["build", "--from", "nx_bialgebra", docs["nx2.alg.json"],
                     "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    def test_error_precedence_between_documents(self, docs, tmp_path, capsys):
        # pair and schouten parse both documents before checking either kind;
        # evolution checks the operator's kind before it reads the density.
        algebra, operator = docs["nx2.alg.json"], docs["d5.op.json"]
        missing = str(tmp_path / "missing.json")
        unreadable = ("", f"cannot read {missing}: No such file or directory")
        wrong_kind = ("kind", f"{algebra}: expected an operator document, got algebra")
        cases = [(["evolution", algebra, "--density", missing], wrong_kind)]
        for command in ("pair", "schouten"):
            cases += [([command, algebra, missing], unreadable),
                      ([command, missing, algebra], unreadable),
                      ([command, algebra, algebra], wrong_kind),
                      ([command, operator, algebra], wrong_kind)]
        report = tmp_path / "report.json"
        for argv, (location, message) in cases:
            assert main(argv + ["--report", str(report)]) == 2
            assert json.loads(report.read_text())["witnesses"] == [
                {"location": location, "message": message}]


class TestReports:
    def test_report_is_byte_identical_across_runs(self, docs, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check-hamiltonian", docs["d5.op.json"], "--report", str(r1)])
        main(["check-hamiltonian", docs["d5.op.json"], "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_carries_configuration_echo(self, docs, tmp_path, capsys):
        rpt = tmp_path / "r.json"
        main(["check-algebra", "--class", "nx_bialgebra",
              docs["nx2.alg.json"], "--report", str(rpt)])
        data = json.loads(rpt.read_text())
        assert data["verdict"] == "pass"
        assert data["configuration"]["class"] == "nx_bialgebra"
        assert len(data["configuration"]["input"]["sha256"]) == 64
        assert "timing" not in json.dumps(data)

    def test_report_directory_override(self, docs, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "reports"
        outdir.mkdir()
        monkeypatch.setenv("SVARCALC_REPORT_DIR", str(outdir))
        main(["check-skew", docs["d5.op.json"], "--report", "skew.json"])
        assert (outdir / "skew.json").exists()
        absolute = tmp_path / "abs.json"
        main(["check-skew", docs["d5.op.json"], "--report", str(absolute)])
        assert absolute.exists()

    def test_closedness_witness_carries_certificate(self, docs, tmp_path, capsys):
        bad_op = tmp_path / "bad.op.json"
        main(["build", "--from", "nx_bialgebra", docs["broken.alg.json"],
              "-o", str(bad_op)])
        capsys.readouterr()
        rpt = tmp_path / "r.json"
        assert main(["check-hamiltonian", str(bad_op), "--report", str(rpt)]) == 1
        witness = json.loads(rpt.read_text())["witnesses"][0]
        tag, families, parities, base, gradient = witness
        assert tag == "closedness" and base.startswith(("phi", "xi"))
        assert gradient and gradient != "0"

    def test_witness_limit_collects_more(self, docs, tmp_path, capsys):
        rpt = tmp_path / "r.json"
        main(["check-algebra", "--class", "nx_bialgebra", docs["bent2.alg.json"],
              "--witness-limit", "5", "--report", str(rpt)])
        data = json.loads(rpt.read_text())
        assert data["verdict"] == "fail"
        assert len(data["witnesses"]) == 5
        main(["check-algebra", "--class", "nx_bialgebra", docs["bent2.alg.json"],
              "--report", str(rpt)])
        assert len(json.loads(rpt.read_text())["witnesses"]) == 1


class TestInputEcho:
    """Each input is read once; its echoed sha256 is that of the bytes parsed.
    An ``@name`` argument is the path of that input document."""

    @pytest.mark.parametrize("argv, inputs", [
        (["check-algebra", "--class", "nx_bialgebra", "@nx2.alg.json"], {"input": "nx2.alg.json"}),
        (["check-skew", "@d5.op.json"], {"input": "d5.op.json"}),
        (["check-hamiltonian", "@noskew.op.json"], {"input": "noskew.op.json"}),
        (["schouten", "@d.op.json", "@d5.op.json"],
         {"first": "d.op.json", "second": "d5.op.json"}),
        (["pair", "@d.op.json", "@d5.op.json"], {"first": "d.op.json", "second": "d5.op.json"}),
        (["build", "--from", "nx_bialgebra", "@nx1.alg.json", "-o", "@built.op.json"],
         {"input": "nx1.alg.json"}),
        (["induce", "--window", "2", "@virasoro1.lop.json"], {"input": "virasoro1.lop.json"}),
        (["evolution", "@d.op.json", "--density", "@kdv.den.json"],
         {"operator": "d.op.json", "density": "kdv.den.json"}),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_one_open_and_the_parsed_digest(self, docs, tmp_path, monkeypatch, capsys,
                                            argv, inputs):
        paths = dict(docs, **{"built.op.json": str(tmp_path / "built.op.json")})
        argv = [paths[arg[1:]] if arg.startswith("@") else arg for arg in argv]
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        report = tmp_path / "report.json"
        monkeypatch.setattr(builtins, "open", counting_open)
        main(argv + ["--report", str(report)])
        monkeypatch.undo()
        echo = json.loads(report.read_text())["configuration"]
        for key, name in inputs.items():
            path = docs[name]
            assert opened.count(path) == 1
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            assert echo[key] == {"path": path, "sha256": digest}

    def test_crlf_document_hashes_its_bytes(self, docs, tmp_path, capsys):
        source = Path(docs["d5.op.json"]).read_bytes()
        crlf = tmp_path / "crlf.op.json"
        crlf.write_bytes(source.replace(b"\n", b"\r\n"))
        reports = [tmp_path / "lf.json", tmp_path / "crlf.json"]
        for path, report in zip((docs["d5.op.json"], str(crlf)), reports):
            assert main(["check-skew", path, "--report", str(report)]) == 0
        lf_echo, crlf_echo = (json.loads(r.read_text())["configuration"]["input"]
                              for r in reports)
        assert crlf_echo["sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
        assert crlf_echo["sha256"] != lf_echo["sha256"]


REPO = Path(__file__).resolve().parent.parent

# Report name -> (argv without --report, exit code).  The operator documents
# are the `build --from nx_bialgebra` outputs of the suite's hand-checked
# mutation and of the truncated n = 3 bialgebra with circ[1][0][1] raised by
# one, and the sparse operator of ``TestConfigurationScan.mixed_pairs``, which
# is not skew-symmetric; the reports were written by the code before the
# integer coefficient core (the ``_all`` ones: before the orbit-reduced scan),
# run from the repository root with these relative paths.
GOLDEN_REPORTS = {
    "check_hamiltonian_hand_checked_mutation": (
        ["check-hamiltonian", "--witness-limit", "3",
         "tests/fixtures/hand_checked_mutation.op.json"], 1),
    "check_hamiltonian_truncated3_circ101": (
        ["check-hamiltonian", "--witness-limit", "3",
         "tests/fixtures/truncated3_circ101.op.json"], 1),
    "check_hamiltonian_hand_checked_mutation_all": (
        ["check-hamiltonian", "--witness-limit", "1000",
         "tests/fixtures/hand_checked_mutation.op.json"], 1),
    "check_hamiltonian_truncated3_circ101_all": (
        ["check-hamiltonian", "--witness-limit", "1000",
         "tests/fixtures/truncated3_circ101.op.json"], 1),
    "schouten_d1_d5": (["schouten", "samples/d1.op.json", "samples/d5.op.json"], 0),
    "schouten_d1_hand_checked_mutation": (
        ["schouten", "--witness-limit", "3", "samples/d1.op.json",
         "tests/fixtures/hand_checked_mutation.op.json"], 1),
    "schouten_sparse_nonskew_self_all": (
        ["schouten", "--witness-limit", "1000", "tests/fixtures/sparse_nonskew.op.json",
         "tests/fixtures/sparse_nonskew.op.json"], 1),
}

# Every witness of a failing spec of each algebra class, written by the code
# before the integer, term-major axiom evaluator.  Between them they cover a
# non-integral residual, a failing Symmetric group of each component (times,
# dot, form), and a novikov_super spec whose witnesses exist only through the
# odd-odd Koszul sign (graded construction, half 2, weight 1, odd square e2 o e2
# set to e0).
GOLDEN_REPORTS.update({
    f"check_algebra_{name}": (
        ["check-algebra", "--witness-limit", "1000", "--class", cls,
         f"tests/fixtures/{name}.alg.json"], 1)
    for name, cls in (
        ("novikov_truncated3_circ101_third", "novikov"),
        ("novikov_super_graded2_odd_square", "novikov_super"),
        ("nx_bialgebra_truncated3_times012_half", "nx_bialgebra"),
        ("novikov_poisson_truncated3_dot102", "novikov_poisson"),
        ("fermionic_novikov_exterior_circ121", "fermionic_novikov"),
        ("form_compat_truncated2_form01", "form_compat"),
    )
})


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_bytes(self, name, tmp_path, monkeypatch, capsys):
        argv, code = GOLDEN_REPORTS[name]
        monkeypatch.chdir(REPO)
        out = tmp_path / "report.json"
        assert main(argv[:1] + ["--report", str(out)] + argv[1:]) == code
        golden = REPO / "tests" / "fixtures" / "reports" / f"{name}.json"
        assert out.read_bytes() == golden.read_bytes()


class TestReportFiles:
    """Reports and ``build -o`` outputs are rewritten in place, never truncated
    to zero first."""

    def test_short_report_over_a_long_one_holds_exactly_the_new_bytes(self, tmp_path, capsys):
        fixture = str(REPO / "tests" / "fixtures" / "truncated3_circ101.op.json")
        short_argv = ["check-skew", str(SAMPLES / "d1.op.json")]
        fresh, report = tmp_path / "fresh.json", tmp_path / "report.json"
        assert main(short_argv + ["--report", str(fresh)]) == 0
        assert main(["check-hamiltonian", "--witness-limit", "1000", fixture,
                     "--report", str(report)]) == 1
        assert report.stat().st_size > 2 * fresh.stat().st_size
        assert main(short_argv + ["--report", str(report)]) == 0
        assert report.read_bytes() == fresh.read_bytes()

    def test_rewrite_keeps_the_inode_and_mode(self, docs, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b"x" * 100000)
        report.chmod(0o640)
        before = report.stat()
        assert main(["check-skew", docs["d5.op.json"], "--report", str(report)]) == 0
        after = report.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert json.loads(report.read_text())["verdict"] == "pass"

    def test_build_output_over_a_longer_file(self, docs, tmp_path, capsys):
        fresh, out = tmp_path / "fresh.op.json", tmp_path / "out.op.json"
        argv = ["build", "--from", "nx_bialgebra", docs["nx1.alg.json"], "-o"]
        assert main(argv + [str(fresh)]) == 0
        out.write_bytes(b" " * (3 * fresh.stat().st_size))
        inode = out.stat().st_ino
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes() and out.stat().st_ino == inode

    def test_report_to_the_null_device(self, docs, capsys):
        assert main(["check-skew", docs["d5.op.json"], "--report", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestClosedStdout:
    """A reader that has closed stdout loses no report: the command exits 2
    with one error line and no traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["check-hamiltonian", "--witness-limit", "1000",
          "tests/fixtures/truncated3_circ101.op.json"], 1),
        (["check-hamiltonian", "samples/d1.op.json"], 0),
    ], ids=("failing", "passing"))
    def test_report_is_written_before_the_console(self, tmp_path, argv, code):
        # the package under test, wherever it was imported from
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        command = [sys.executable, "-m", "svarcalc.cli"] + argv + ["--report"]
        normal = subprocess.run(command + [str(tmp_path / "normal.json")], cwd=REPO, env=env,
                                capture_output=True, timeout=60)
        assert normal.returncode == code
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command starts
        try:
            closed = subprocess.run(command + [str(tmp_path / "closed.json")], cwd=REPO,
                                    env=env, stdout=write_end, stderr=subprocess.PIPE,
                                    timeout=60)
        finally:
            os.close(write_end)
        assert closed.returncode == 2
        assert b"Traceback" not in closed.stderr
        assert closed.stderr.count(b"\n") == 1 and b"Broken pipe" in closed.stderr
        assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "normal.json").read_bytes()


class TestCommands:
    def test_check_skew(self, docs, capsys):
        assert main(["check-skew", docs["d.op.json"]]) == 0

    def test_pair(self, docs, capsys):
        assert main(["pair", docs["d.op.json"], docs["d5.op.json"]]) == 0

    def test_schouten(self, docs, capsys):
        assert main(["schouten", docs["d.op.json"], docs["d5.op.json"]]) == 0

    def test_build_then_check(self, docs, tmp_path, capsys):
        out = tmp_path / "built.op.json"
        assert main(["build", "--from", "nx_bialgebra", docs["nx2.alg.json"],
                     "-o", str(out)]) == 0
        assert main(["check-hamiltonian", str(out)]) == 0

    def test_check_hamiltonian_jobs_matches_sequential(self, docs, tmp_path, capsys):
        r1, r2 = tmp_path / "seq.json", tmp_path / "par.json"
        main(["build", "--from", "nx_bialgebra", docs["broken.alg.json"],
              "-o", str(tmp_path / "bad.op.json")])
        capsys.readouterr()
        assert main(["check-hamiltonian", str(tmp_path / "bad.op.json"),
                     "--report", str(r1)]) == 1
        assert main(["check-hamiltonian", str(tmp_path / "bad.op.json"),
                     "--jobs", "3", "--report", str(r2)]) == 1
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert a["witnesses"] == b["witnesses"]

    def test_jobs_runs_in_this_process(self, docs, tmp_path, monkeypatch, capsys):
        # --jobs is accepted and echoed, but no worker process is started:
        # the reports equal the serial ones apart from the echoed value.
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cases = [(["check-hamiltonian", docs["d5.op.json"]], 0),
                 (["check-hamiltonian", docs["broken.op.json"], "--witness-limit", "3"], 1),
                 (["verify-paper-examples"], 0)]
        for argv, code in cases:
            reports = []
            for jobs in ("1", "2"):
                path = tmp_path / f"jobs{jobs}.json"
                assert main(argv + ["--jobs", jobs, "--report", str(path)]) == code
                reports.append(json.loads(path.read_text()))
            serial, pooled = reports
            assert pooled["configuration"].pop("jobs") == 2
            assert serial["configuration"].pop("jobs") == 1
            assert pooled == serial
            assert serial["witnesses"] if code else not serial["witnesses"]

    def test_induce_prints_closed_form(self, docs, capsys):
        assert main(["induce", "--window", "2", docs["virasoro1.lop.json"]]) == 0
        out = capsys.readouterr().out
        for line in render_table(super_virasoro_table(1, 2)):
            assert line in out

    def test_evolution_matches_super_kdv(self, docs, capsys):
        assert main(["evolution", docs["d.op.json"], "--density",
                     docs["kdv.den.json"]]) == 0
        out = capsys.readouterr().out
        assert "d/dt phi0 = 2*phi0(1)*phi0(4) + 4*phi0(2)*phi0(3) - phi0(7)" in out

    def test_evolution_dimension_mismatch(self, docs, tmp_path, capsys):
        doc = InputDocument("density", (2, SuperPolynomial.zero()))
        path = tmp_path / "den2.json"
        path.write_text(render_document(doc))
        assert main(["evolution", docs["d.op.json"], "--density", str(path)]) == 2

    def test_evolution_does_not_depend_on_the_declared_dimension(self, tmp_path, capsys):
        # Only the density's field families are varied and only the stored
        # entries applied, so a wide declaration adds zero components only.
        components = {}
        for dim in (1, 10 ** 3, 10 ** 5):
            paths = []
            for name in ("d1.op.json", "super_kdv.den.json"):
                path = tmp_path / f"{dim}_{name}"
                path.write_text(json.dumps(dict(json.loads((SAMPLES / name).read_text()),
                                                dimension=dim)))
                paths.append(str(path))
            report = tmp_path / f"{dim}_report.json"
            with within(TestDocumentFuzz.ALARM_S, f"evolution at dimension {dim}"):
                assert main(["evolution", paths[0], "--density", paths[1],
                             "--report", str(report)]) == 0
            capsys.readouterr()
            components[dim] = json.loads(report.read_text())["detail"]["components"]
        assert components[1] == {"0": "2*phi0(1)*phi0(4) + 4*phi0(2)*phi0(3) - phi0(7)"}
        for dim in (10 ** 3, 10 ** 5):
            assert components[dim] == dict(components[1], **{str(fam): "0" for fam in range(1, dim)})

    def test_verify_examples(self, capsys):
        assert main(["verify-paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "mutation-control: ok" in out
        assert "super-kdv-rhs: ok" in out


class TestLargePowers:
    """Constant type-1 documents D^p with both blocks: the skew check reads
    the closed-form Leibniz row where D^j(1) is nonzero, so a power in the
    tens of thousands is decided at once, and the row starts where that
    tower does, so the work does not grow with the power."""

    @pytest.mark.parametrize("power, code", [(40001, 0), (40003, 1), (400001, 0)])
    def test_d_power_is_decided_within_budget(self, tmp_path, capsys, power, code):
        path = tmp_path / f"d{power}.op.json"
        path.write_text(json.dumps({
            "format": "svarcalc/1", "kind": "operator", "type": 1, "dimension": 1,
            "entries": [{"block": block, "row": 0, "col": 0, "power": power, "coeff": "1"}
                        for block in (0, 1)]}))
        # D^p is skew exactly when p = 1 mod 4; else the transpose is off by -2.
        witnesses = {"check-skew": f'["transpose", 0, 0, {power}, "-2"]',
                     "check-hamiltonian": f'["skew", "transpose", 0, 0, {power}, "-2"]'}
        for command, witness in witnesses.items():
            with within(10, f"{command} on D^{power}"):
                assert main([command, str(path)]) == code
            lines = capsys.readouterr().out.splitlines()[1:]
            assert lines == ([f"  witness: {witness}"] if code else [])


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's options."""

    def sequence(self, docs):
        """(argv, writes a report) for calls mixing subcommands, witness limits,
        --jobs, usage errors and --help."""
        return [
            (["check-hamiltonian", docs["broken.op.json"], "--witness-limit", "3",
              "--jobs", "2"], True),
            (["check-hamiltonian", docs["broken.op.json"]], True),
            (["check-algebra", "--class", "nx_bialgebra", docs["broken.alg.json"],
              "--witness-limit", "3"], True),
            (["check-skew", docs["noskew.op.json"], "--witness-limit", "0"], True),
            (["check-skew", docs["noskew.op.json"]], True),
            (["--help"], False),
            (["check-algebra", docs["nx2.alg.json"]], False),
            (["schouten", docs["broken.op.json"], docs["broken.op.json"],
              "--witness-limit", "3"], True),
            (["pair", docs["d.op.json"], docs["d5.op.json"], "--jobs", "2"], True),
            (["check-hamiltonian", "--help"], False),
            (["induce", "--window", "2", docs["virasoro1.lop.json"]], True),
            (["check-hamiltonian", docs["d5.op.json"]], True),
            (["schouten", docs["broken.op.json"], docs["broken.op.json"]], True),
        ]

    @staticmethod
    def call(argv, report, capsys):
        """Exit code, stdout and stderr (wall-clock time masked) and report bytes."""
        extra = ["--report", str(report)] if report else []
        try:
            code = main(argv + extra)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        data = None
        if report and report.exists():
            data = report.read_bytes()
            report.unlink()
        mask = lambda text: re.sub(r"\(\d+\.\d+s\)", "(time)", text)
        return code, mask(captured.out), mask(captured.err), data

    def test_reused_parser_matches_fresh_parsers(self, docs, tmp_path, monkeypatch, capsys):
        built = []
        real_build = cli.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        report = tmp_path / "report.json"
        runs = {}
        for fresh in (True, False):
            cli._parser.cache_clear()
            built.clear()
            outcomes = []
            for argv, writes in self.sequence(docs):
                if fresh:
                    cli._parser.cache_clear()
                outcomes.append(self.call(argv, report if writes else None, capsys))
            runs[fresh] = outcomes
            assert len(built) == (len(outcomes) if fresh else 1)
        assert runs[False] == runs[True]
        codes = [code for code, _, _, _ in runs[False]]
        assert codes == [1, 1, 1, 2, 1, 0, 2, 1, 0, 0, 0, 0, 1]
        # the defaults come back after a call that set the options
        limited, default = (json.loads(data) for _, _, _, data in runs[False][:2])
        assert (limited["configuration"]["jobs"], default["configuration"]["jobs"]) == (2, 1)
        assert len(limited["witnesses"]) == 3 and len(default["witnesses"]) == 1
        schouten_limited, schouten_default = runs[False][7][3], runs[False][12][3]
        assert len(json.loads(schouten_limited)["witnesses"]) > 1
        assert len(json.loads(schouten_default)["witnesses"]) == 1
        assert "usage: svarcalc" in runs[False][5][1]


class _Alarm(BaseException):
    """Raised by the per-case alarm; not an ``Exception``, so ``main`` cannot
    turn it into an exit code."""


@contextlib.contextmanager
def within(seconds, what):
    """Fail the test when the block runs past ``seconds``."""
    def ring(signum, frame):
        raise _Alarm()

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Alarm:
        pytest.fail(f"{what} ran past {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDocumentFuzz:
    """Seeded mutations of the bundled samples through ``main``: operators
    declared at dimension 10^6, exponent-form rationals, non-UTF-8 bytes and
    the edits of ``mutate_document``.  Every case exits 0, 1 or 2 within the
    alarm, and nothing escapes ``main``."""

    ALARM_S = 10
    CASES = 600
    POOL = ["1e3", "-2.5E-3", "1e4299", "1e4300", "-1e-4300", "1e999999999", "0e999999999",
            "1.5e-999999999", "1/2", "0", "1", "-1", 0, 1, 2, 10 ** 6, "", [], {}, [1], True,
            1.5, None, "field", "covector", "operator"]

    def with_rational(self, rng, data):
        """A copy of ``data`` with one rational string replaced by one of the
        rational strings of ``POOL``, most of them in exponent form."""
        data = copy.deepcopy(data)
        leaves, stack = [], [data]
        while stack:
            node = stack.pop()
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                if isinstance(child, (dict, list)):
                    stack.append(child)
                elif isinstance(child, str) and key not in ("format", "kind"):
                    leaves.append((node, key))
        node, key = rng.choice(leaves)
        node[key] = rng.choice(self.POOL[:9])
        return data

    def command(self, rng, kind, path, report):
        operator = str(SAMPLES / rng.choice(("d1.op.json", "d5.op.json")))
        argv = {
            "algebra": lambda: rng.choice((
                ["check-algebra", "--class", rng.choice(cli.ALGEBRA_CLASSES), path],
                ["build", "--from", rng.choice(sorted(cli._BUILDERS)), path])),
            "operator": lambda: rng.choice((
                ["check-skew", path], ["check-hamiltonian", path],
                ["schouten", path, rng.choice((path, operator))],
                ["pair", rng.choice((path, operator)), path],
                ["evolution", path, "--density", str(SAMPLES / "super_kdv.den.json")])),
            "linear_operator": lambda: ["induce", "--window", str(rng.randint(1, 3)), path],
            "density": lambda: ["evolution", operator, "--density", path],
        }[kind]()
        if rng.random() < 0.3:
            argv += ["--witness-limit", "3"]
        if rng.random() < 0.3:
            argv += ["--report", report]
        return argv

    def test_mutated_samples_exit_0_1_or_2(self, seed, tmp_path, capsys):
        samples = [json.loads(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))]
        rng = random.Random(seed)
        codes, wide_decided = Counter(), 0
        for case in range(self.CASES):
            sample = rng.choice(samples)
            roll = rng.random()
            if roll < 0.25:
                data = dict(sample, dimension=10 ** 6)
            elif roll < 0.5:
                data = self.with_rational(rng, sample)
            else:
                data = mutate_document(rng, sample, self.POOL)
            raw = json.dumps(data).encode()
            if roll > 0.9:
                at = rng.randrange(len(raw))
                raw = raw[:at] + rng.choice((b"\xe9", b"\xff", b"\xc3")) + raw[at + 1:]
            path = tmp_path / f"case{case}.json"
            path.write_bytes(raw)
            argv = self.command(rng, sample["kind"], str(path),
                                str(tmp_path / f"report{case}.json"))
            with within(self.ALARM_S, f"case {case} ({argv})"):
                code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (case, argv)
            assert "Traceback" not in out + err, (case, argv)
            if roll > 0.9:
                assert code == 2 and "as UTF-8" in out, (case, argv)
            codes[code] += 1
            wide_decided += roll < 0.25 and sample["kind"] == "operator" and code < 2
        assert min(codes[0], codes[1], codes[2]) > 0, codes
        assert wide_decided >= 5
