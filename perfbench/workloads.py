"""The four workloads: seeded inputs, known answers and the checks of one pass.

A pass is a fixed list of checks.  The seed draws the exterior coefficients,
the graded parameter, the mutation deltas and the mode-table perturbations;
family sizes, windows and mutation sites are fixed, so every seed asks for the
same amount of work and runs of different seeds can be compared.

Known answers never come from the call being timed:

* family members (truncated, exterior, constant, graded, Virasoro) pass by the
  paper's theorems;
* the suite's hand-checked mutation (circ constant 2 -> 3 in dimension one)
  fails;
* a seeded mutation takes the verdict of its correspondence partner on the
  other side of the algebra <-> operator correspondence: the axiom check for
  an operator check and the Hamiltonian test for an axiom check;
* induced mode tables equal ``super_virasoro_table`` and a table with one
  asymmetric perturbed entry fails super skew-symmetry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

DELTAS = (-2, -1, 1, 2, 3)

# Nonzero c_ij of the seeded exterior specs.  The cost of a check depends on
# which c_ij are nonzero, so the seed draws only their values.
EXTERIOR_PAIR_SETS = (
    (),
    ((3, 4),),
    ((1, 2),),
    ((1, 2), (3, 4)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
    ((1, 2), (1, 3), (2, 3)),
    ((1, 3), (2, 4), (3, 4)),
    ((1, 2), (1, 3), (2, 4), (3, 4)),
)

# Mutation sites (i, j, k) in the circ table of the exterior spec; (0, 2, 5)
# only touches the top form and leaves a valid algebra.  The others fail at
# early, middle and late configurations of the Hamiltonian scan.
EXTERIOR_SITES = ((1, 2, 3), (0, 3, 3), (3, 3, 0), (0, 2, 5))
EXTERIOR_MUTATION_BASE = {(3, 4): 1}
# (n, table, i, j, k) in the bialgebra made from the truncated algebra of
# size n; n = 2 circ (0, 1, 1) stays valid, times (0, 1, 0) breaks skew
# symmetry, the rest fail the closedness scan at increasing depth.
TRUNCATED_SITES = (
    (2, "circ", 0, 1, 1),
    (2, "times", 0, 1, 0),
    (3, "circ", 0, 0, 0),
    (3, "circ", 1, 0, 1),
    (3, "times", 1, 1, 2),
    (3, "circ", 2, 2, 2),
)

# (families, window) of the mode-algebra chains.  With seven passes the
# median is the middle sample of (1, 3) and the tail (11th slowest) the middle
# sample of (2, 4), so neither rests on one sample or on a gap between checks.
MODE_GRID = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 3))
MODE_PERTURBATIONS = 6


@dataclass
class Check:
    """One closed-loop request: ``call`` is timed; ``observe`` and ``judge`` are not.

    ``observe`` turns the call's return value into the outcome that is compared
    across passes; ``judge(outcome, outcomes_of_this_pass)`` returns None when
    the outcome is the known answer, else the reason it is wrong.
    """

    name: str
    call: Callable[[], Any]
    judge: Callable[[Any, Dict[str, Any]], Optional[str]]
    observe: Callable[[Any], Any] = lambda result: result


@dataclass
class Plan:
    """A workload's seeded inputs, ready to run.

    ``partners()`` computes the correspondence partners' verdicts (the
    benchmark's own work, stored per seed and keyed by ``fingerprint``, which
    names the inputs they depend on), and ``make_checks(verdicts)`` returns
    the checks of one pass.
    """

    warmup: List[Callable[[], Any]]
    partners: Callable[[], Dict[str, bool]]
    make_checks: Callable[[Dict[str, bool]], List[Check]]
    fingerprint: str
    known_defects: frozenset = frozenset()


# -- inputs ----------------------------------------------------------------------


def exterior_spec(sv, rng: random.Random, pairs):
    return sv.structures.make_exterior_example({pair: rng.choice(DELTAS) for pair in pairs})


def mutate(sv, spec, table: str, site, delta: int):
    """Copy of ``spec`` with one structure constant shifted by ``delta``."""
    tables = {}
    for name in ("circ", "times"):
        value = getattr(spec, name)
        if value is not None:
            tables[name] = [[list(cell) for cell in row] for row in value]
    i, j, k = site
    tables[table][i][j][k] += delta
    return sv.structures.AlgebraSpec(dim=spec.dim, form=spec.form, **tables)


def hand_checked_mutation(sv):
    """The suite's mutation control: circ constant doubled from 2 to 3."""
    one = Fraction(1)
    return sv.structures.AlgebraSpec(dim=1, circ=(((Fraction(3),),),),
                                     times=(((one,),),), form=((one,),))


def graded_spec(sv, half: int, weight: int):
    """Novikov superalgebra x o y = x (t d/dt + weight) y on k[t]/(t^half) (x) Lambda[theta].

    Basis t^i (even) then t^i theta (odd).  The Gelfand-Dorfman construction
    on a supercommutative algebra with an even derivation makes it a Novikov
    superalgebra for every weight.
    """
    dim = 2 * half
    circ = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        i, a_odd = a % half, a // half
        for b in range(dim):
            j, b_odd = b % half, b // half
            if (a_odd and b_odd) or i + j >= half:
                continue
            circ[a][b][i + j + half * (a_odd or b_odd)] = j + weight
    return sv.structures.AlgebraSpec(dim=dim, circ=circ,
                                     grading=tuple([0] * half + [1] * half))


def constant_type1(sv, power: int):
    op = sv.operators.ScalarDiffOperator.d_power(power)
    return sv.operators.MatrixDiffOperator(1, 1, {(0, 0, 0): op, (1, 0, 0): op})


def twisted_type0(sv):
    one = sv.algebra.SuperPolynomial.one()
    even = sv.operators.ScalarDiffOperator({0: one, 4: one})
    return sv.operators.MatrixDiffOperator(0, 1, {(0, 0, 0): even, (1, 0, 0): even.scaled(-1)})


def truncated_bialgebra(sv, n: int):
    st = sv.structures
    return st.np_to_nx(st.make_truncated_example(n), 0)


def mutations(sv, rng: random.Random) -> Dict[str, tuple]:
    """Seeded single-constant mutations: name -> (spec, side) with side the builder class.

    The exterior mutations start from the c34 = 1 spec of the bundled sample,
    so a site's scan depth does not depend on the seed.
    """
    exterior_base = sv.structures.make_exterior_example(EXTERIOR_MUTATION_BASE)
    out = {}
    for site in EXTERIOR_SITES:
        delta = rng.choice(DELTAS)
        name = "exterior-{}{}{}{:+d}".format(*site, delta)
        out[name] = (mutate(sv, exterior_base, "circ", site, delta), "fermionic_novikov")
    bases = {n: truncated_bialgebra(sv, n) for n in {s[0] for s in TRUNCATED_SITES}}
    for n, table, i, j, k in TRUNCATED_SITES:
        delta = rng.choice(DELTAS)
        name = f"truncated{n}-{table}{i}{j}{k}{delta:+d}"
        out[name] = (mutate(sv, bases[n], table, (i, j, k), delta), "nx_bialgebra")
    return out


def build_operator(sv, spec, side: str):
    if side == "fermionic_novikov":
        return sv.structures.build_type0_operator(spec)
    return sv.structures.build_type1_operator(spec)


def axiom_verdict(sv, spec, side: str) -> bool:
    """Algebra side of the correspondence (the bialgebra side also needs form_compat)."""
    classes = (side,) if side == "fermionic_novikov" else ("nx_bialgebra", "form_compat")
    return all(sv.structures.check_axioms(spec, cls)[0] for cls in classes)


# -- judges ----------------------------------------------------------------------


def expect_verdict(expected: bool):
    def judge(outcome, _pass):
        ok, witness = outcome
        if ok != expected:
            return f"verdict {ok}, expected {expected}"
        if not ok and witness is None:
            return "failing verdict without a witness"
        return None
    return judge


def verdict_check(name: str, module, attr: str, args, expected: bool) -> Check:
    """Call ``module.attr(*args)``, looked up at call time so the traced run's
    wrappers are the ones called."""
    return Check(name, lambda: getattr(module, attr)(*args), expect_verdict(expected))


# -- operator-scan ---------------------------------------------------------------


def operator_scan(sv, rng: random.Random, workdir: str) -> Plan:
    ops, st = sv.operators, sv.structures
    truncated = {n: st.build_type1_operator(truncated_bialgebra(sv, n)) for n in (1, 2, 3)}
    ext1_spec = exterior_spec(sv, rng, EXTERIOR_PAIR_SETS[1])
    ext2_spec = exterior_spec(sv, rng, EXTERIOR_PAIR_SETS[3])
    ext1, ext2 = st.build_type0_operator(ext1_spec), st.build_type0_operator(ext2_spec)
    d1, d5, tw = constant_type1(sv, 1), constant_type1(sv, 5), twisted_type0(sv)
    muts = mutations(sv, rng)
    mut_ops = {name: build_operator(sv, spec, side) for name, (spec, side) in muts.items()}
    hand_checked = st.build_type1_operator(hand_checked_mutation(sv))

    def ham(name, op, expected):
        return verdict_check(f"hamiltonian:{name}", ops, "is_hamiltonian", (op,), expected)

    def partners():
        return {name: axiom_verdict(sv, spec, side) for name, (spec, side) in muts.items()}

    def checks(verdicts):
        out = [ham(f"truncated-n{n}", truncated[n], True) for n in (1, 2, 3)]
        out += [
            ham("exterior-1", ext1, True),
            ham("exterior-2", ext2, True),
            ham("constant-d1", d1, True),
            ham("constant-d5", d5, True),
            ham("twisted-type0", tw, True),
            verdict_check("pair:d1-d5", ops, "is_hamiltonian_pair", (d1, d5), True),
            verdict_check("schouten:d1-d5", ops, "schouten_vanishes", (d1, d5), True),
            verdict_check("schouten:truncated-n1-self", ops, "schouten_vanishes",
                          (truncated[1], truncated[1]), True),
            ham("hand-checked-mutation", hand_checked, False),
        ]
        out += [ham(f"mutation-{name}", op, verdicts[name]) for name, op in mut_ops.items()]
        return out

    warmup = [lambda: ops.is_hamiltonian(truncated[1]), lambda: ops.is_hamiltonian_pair(d1, d5),
              lambda: ops.schouten_vanishes(d1, d5)]
    return Plan(warmup, partners, checks, " ".join(muts))


# -- axiom-tables ----------------------------------------------------------------

AXIOM_SIZES = (4, 6, 8, 10, 12)


def axiom_tables(sv, rng: random.Random, workdir: str) -> Plan:
    st = sv.structures
    np_specs = {d: st.make_truncated_example(d) for d in AXIOM_SIZES}
    nx_specs = {d: st.np_to_nx(spec, 0) for d, spec in np_specs.items()}
    # Nine exterior specs make the ~0.02 s checks at the median a wide group,
    # so the median does not sit on its edge next to slower checks.
    exteriors = [exterior_spec(sv, rng, pairs) for pairs in EXTERIOR_PAIR_SETS]
    graded = {half: graded_spec(sv, half, rng.randrange(4)) for half in (4, 5)}
    muts = mutations(sv, rng)
    broken = hand_checked_mutation(sv)

    def axioms(name, spec, cls, expected):
        return verdict_check(f"{cls}:{name}", st, "check_axioms", (spec, cls), expected)

    def partners():
        return {name: sv.operators.is_hamiltonian(build_operator(sv, spec, side))[0]
                for name, (spec, side) in muts.items()}

    def checks(verdicts):
        out = []
        for d in AXIOM_SIZES:
            out.append(axioms(f"truncated-{d}", np_specs[d], "novikov_poisson", True))
            out.append(axioms(f"truncated-{d}", nx_specs[d], "nx_bialgebra", True))
            out.append(axioms(f"truncated-{d}", nx_specs[d], "form_compat", True))
        out.append(axioms("truncated-12", np_specs[12], "novikov", True))
        out += [axioms(f"exterior-{i}", spec, "fermionic_novikov", True)
                for i, spec in enumerate(exteriors)]
        out += [axioms(f"graded-{spec.dim}", spec, "novikov_super", True)
                for spec in graded.values()]
        out.append(axioms("hand-checked-mutation", broken, "nx_bialgebra", False))
        out += [axioms(f"mutation-{name}", spec, side, verdicts[name])
                for name, (spec, side) in muts.items()]
        return out

    warmup = [axioms("warmup", spec, cls, True).call
              for spec, cls in ((np_specs[4], "novikov_poisson"), (nx_specs[4], "nx_bialgebra"),
                                (nx_specs[4], "form_compat"), (exteriors[0], "fermionic_novikov"),
                                (graded[4], "novikov_super"))]
    return Plan(warmup, partners, checks, " ".join(muts))


# -- mode-algebra ----------------------------------------------------------------


def perturbed_table(sv, rng: random.Random):
    """A closed-form table with one entry changed and its mirror left alone."""
    md = sv.modes
    families = rng.randint(1, 3)
    table = md.super_virasoro_table(families, 3)
    keys = [key for key in sorted(table.entries) if key[0] != key[1]]
    target = keys[rng.randrange(len(keys))]
    entries = dict(table.entries)
    combo = dict(entries[target])
    sym = sorted(combo)[rng.randrange(len(combo))]
    combo[sym] = combo[sym] + rng.choice(DELTAS)
    if not combo[sym]:
        del combo[sym]
    entries[target] = combo
    name = f"f{families}-{md.render_mode(target[0])}-{md.render_mode(target[1])}"
    return name, md.ModeBracketTable(dim=families, window=3, entries=entries)


def mode_algebra(sv, rng: random.Random, workdir: str):
    md = sv.modes
    data = {f: md.virasoro_operator_data(f) for f in {f for f, _ in MODE_GRID}}
    perturbed = [perturbed_table(sv, rng) for _ in range(MODE_PERTURBATIONS)]

    def chain(f, w):
        table = md.induce_bracket(data[f], w)
        return table.entries, md.check_super_skew(table), md.check_super_jacobi(table)

    def partners():
        return {}

    def checks(_verdicts):
        out = []
        for f, w in MODE_GRID:
            closed = md.super_virasoro_table(f, w).entries

            def judge(outcome, _pass, closed=closed):
                entries, skew, jacobi = outcome
                if entries != closed:
                    return "induced table differs from super_virasoro_table"
                if not (skew[0] and jacobi[0]):
                    return f"skew {skew}, jacobi {jacobi}"
                return None
            out.append(Check(f"induce-skew-jacobi:f{f}-w{w}", lambda f=f, w=w: chain(f, w), judge))
        for name, table in perturbed:
            out.append(verdict_check(f"super-skew:perturbed-{name}", md, "check_super_skew",
                                     (table,), False))
        return out

    warmup = [lambda: chain(1, 3), lambda: md.check_super_skew(perturbed[0][1])]
    return Plan(warmup, partners, checks, "")


# -- cli-batch -------------------------------------------------------------------

# Defects present when the benchmark was added: --witness-limit 0 reports pass
# with exit 0 on a failing algebra, and an unwritable --report path raises
# FileNotFoundError out of main.  They count as failed but leave `correct` true.
KNOWN_CLI_DEFECTS = frozenset({"cli:witness-limit-0", "cli:unwritable-report"})


def cli_batch(sv, rng: random.Random, workdir: str):
    st, docs_mod = sv.structures, sv.documents
    samples = os.path.join(sv.root, "samples")
    docs = os.path.join(workdir, "docs")
    reports = os.path.join(workdir, "reports")
    os.makedirs(docs, exist_ok=True)
    os.makedirs(reports, exist_ok=True)

    def write(name, kind, payload):
        path = os.path.join(docs, name)
        text = docs_mod.render_document(docs_mod.InputDocument(kind, payload))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    ext_spec = exterior_spec(sv, rng, EXTERIOR_PAIR_SETS[1])
    ext_alg = write("exterior.alg.json", "algebra", ext_spec)
    ext_op = write("exterior.op.json", "operator", st.build_type0_operator(ext_spec))
    ext2_spec = exterior_spec(sv, rng, EXTERIOR_PAIR_SETS[3])
    ext2_op = write("exterior2.op.json", "operator", st.build_type0_operator(ext2_spec))
    truncated3 = write("truncated3.alg.json", "algebra", truncated_bialgebra(sv, 3))
    n, table, i, j, k = TRUNCATED_SITES[3]
    mut_spec = mutate(sv, truncated_bialgebra(sv, n), table, (i, j, k), rng.choice(DELTAS))
    mut_alg = write("mutation.alg.json", "algebra", mut_spec)
    mut_op = write("mutation.op.json", "operator", st.build_type1_operator(mut_spec))
    malformed = os.path.join(docs, "malformed.json")
    with open(malformed, "w", encoding="utf-8") as handle:
        handle.write("{not json\n")
    sample = lambda name: os.path.join(samples, name)
    cli = sv.cli

    def partners():
        return {"mutation-axioms": axiom_verdict(sv, mut_spec, "nx_bialgebra"),
                "mutation-operator": sv.operators.is_hamiltonian(
                    st.build_type1_operator(mut_spec))[0]}

    def checks(verdicts):
        # (name, argv, accepted exit codes, extra judge of the report or None)
        mut_exit = (0,) if verdicts["mutation-operator"] else (1,)
        ham_exit = (0,) if verdicts["mutation-axioms"] else (1,)
        closed_lines = sv.modes.render_table(sv.modes.super_virasoro_table(1, 3))
        built_exterior = os.path.join(docs, "built-exterior.op.json")
        built_truncated3 = os.path.join(docs, "built-truncated3.op.json")
        specs = [
            ("check-skew:d1", ["check-skew", sample("d1.op.json")], (0,), None),
            ("check-hamiltonian:d1", ["check-hamiltonian", sample("d1.op.json")], (0,), None),
            ("check-skew:d5", ["check-skew", sample("d5.op.json")], (0,), None),
            ("check-hamiltonian:d5", ["check-hamiltonian", sample("d5.op.json")], (0,), None),
            ("schouten:d1-d5", ["schouten", sample("d1.op.json"), sample("d5.op.json")], (0,),
             None),
            ("pair:d1-d5", ["pair", sample("d1.op.json"), sample("d5.op.json")], (0,), None),
            ("evolution:d1-super-kdv", ["evolution", sample("d1.op.json"), "--density",
                                        sample("super_kdv.den.json")], (0,), None),
            ("check-algebra:exterior-c34", ["check-algebra", "--class", "fermionic_novikov",
                                            sample("exterior_c34.alg.json")], (0,), None),
            ("build:exterior-c34", ["build", "--from", "fermionic_novikov",
                                    sample("exterior_c34.alg.json"), "-o", built_exterior],
             (0,), None),
            ("check-algebra:truncated-n2-nx", ["check-algebra", "--class", "nx_bialgebra",
                                               sample("truncated_n2.alg.json")], (0,), None),
            ("check-algebra:truncated-n2-form", ["check-algebra", "--class", "form_compat",
                                                 sample("truncated_n2.alg.json")], (0,), None),
            ("build:truncated-n2", ["build", "--from", "nx_bialgebra",
                                    sample("truncated_n2.alg.json"), "-o",
                                    os.path.join(docs, "built-truncated.op.json")], (0,), None),
            ("induce:virasoro-n1-w3", ["induce", "--window", "3", sample("virasoro_n1.lop.json")],
             (0,), lambda report, _p: None if report["detail"]["brackets"] == closed_lines
             else "induced brackets differ from super_virasoro_table"),
            ("check-hamiltonian:built-exterior-c34", ["check-hamiltonian", built_exterior],
             (0,), None),
            ("check-algebra:generated-exterior", ["check-algebra", "--class",
                                                  "fermionic_novikov", ext_alg], (0,), None),
            ("check-hamiltonian:generated-exterior", ["check-hamiltonian", ext_op], (0,), None),
            ("check-hamiltonian:generated-exterior2", ["check-hamiltonian", ext2_op], (0,),
             None),
            ("build:generated-truncated3", ["build", "--from", "nx_bialgebra", truncated3, "-o",
                                            built_truncated3], (0,), None),
            ("check-hamiltonian:built-truncated3", ["check-hamiltonian", built_truncated3],
             (0,), None),
            ("check-hamiltonian:generated-exterior-jobs2",
             ["check-hamiltonian", ext_op, "--jobs", "2"], (0,),
             same_witnesses("check-hamiltonian:generated-exterior")),
            ("check-algebra:mutation-limit3", ["check-algebra", "--class", "nx_bialgebra",
                                               mut_alg, "--witness-limit", "3"], mut_exit,
             witness_count(3)),
            ("check-hamiltonian:mutation-limit3", ["check-hamiltonian", mut_op,
                                                   "--witness-limit", "3"], ham_exit,
             witness_count(3)),
            ("check-hamiltonian:mutation-limit3-jobs2", ["check-hamiltonian", mut_op,
                                                         "--witness-limit", "3", "--jobs", "2"],
             ham_exit, same_witnesses("check-hamiltonian:mutation-limit3")),
            ("verify-paper-examples:serial", ["verify-paper-examples"], (0,), None),
            ("verify-paper-examples:jobs2", ["verify-paper-examples", "--jobs", "2"], (0,),
             same_witnesses("verify-paper-examples:serial", "detail")),
            ("cli:malformed-json", ["check-skew", malformed], (2,), None),
            ("cli:wrong-kind", ["check-hamiltonian", ext_alg], (2,), None),
            ("cli:witness-limit-0", ["check-algebra", "--class", "nx_bialgebra", mut_alg,
                                     "--witness-limit", "0"], (1, 2), None),
        ]
        out = []
        for name, argv, codes, extra in specs:
            report = os.path.join(reports, name.replace(":", "--") + ".json")
            out.append(cli_check(cli, name, argv + ["--report", report], report, codes, extra))
        unwritable = os.path.join(workdir, "missing-directory", "report.json")
        out.append(cli_check(cli, "cli:unwritable-report",
                             ["check-skew", sample("d1.op.json"), "--report", unwritable],
                             None, (2,), None))
        return out

    warm_report = os.path.join(reports, "warmup.json")
    warmup = [cli_check(cli, "warmup", argv + ["--report", warm_report], None, (0,), None).call
              for argv in (["check-skew", sample("d1.op.json")],
                           ["check-hamiltonian", sample("d1.op.json")],
                           ["check-algebra", "--class", "nx_bialgebra",
                            sample("truncated_n2.alg.json")],
                           ["pair", sample("d1.op.json"), sample("d5.op.json")],
                           ["induce", "--window", "3", sample("virasoro_n1.lop.json")])]
    return Plan(warmup, partners, checks, repr(mut_spec), KNOWN_CLI_DEFECTS)


def cli_check(cli, name: str, argv: List[str], report: Optional[str], codes, extra) -> Check:
    """``cli.main(argv)`` with console output captured; the outcome is (exit code, report).

    Exit 2 may come from argument parsing, which writes no report.
    """

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def observe(code):
        if report is None or not os.path.exists(report):
            return code, None
        with open(report, "rb") as handle:
            data = handle.read()
        os.remove(report)
        return code, data

    def judge(outcome, _pass):
        code, data = outcome
        if code not in codes:
            return f"exit {code}, expected one of {codes}"
        if report is not None and data is None and code != 2:
            return "no report written"
        if extra is not None:
            return extra(json.loads(data), _pass)
        return None

    return Check(name, call, judge, observe)


def witness_count(limit: int):
    def judge(report, _pass):
        count = len(report["witnesses"])
        if report["verdict"] == "fail" and not 1 <= count <= limit:
            return f"{count} witnesses, expected 1..{limit}"
        return None
    return judge


def same_witnesses(other: str, key: str = "witnesses"):
    """Verdict and witnesses (or detail) must equal those of the serial run."""

    def judge(report, pass_outcomes):
        _, data = pass_outcomes.get(other, (None, None))
        if data is None:
            return f"no report of {other} to compare with"
        serial = json.loads(data)
        if (report["verdict"], report[key]) != (serial["verdict"], serial[key]):
            return f"verdict or {key} differ from {other}"
        return None
    return judge


# About the seconds one pass took when the benchmark was added (Python 3.11,
# 2 cores).  A run makes round(--seconds / this) passes, so it then measured
# for about --seconds, and two commits compared at the same --seconds do the
# same work: the tail is then the same order statistic of the same checks.
PASS_SECONDS = {
    "operator-scan": 7.5,
    "axiom-tables": 5.7,
    "mode-algebra": 2.9,
    "cli-batch": 14.0,
}

WORKLOADS = {
    "operator-scan": operator_scan,
    "axiom-tables": axiom_tables,
    "mode-algebra": mode_algebra,
    "cli-batch": cli_batch,
}
