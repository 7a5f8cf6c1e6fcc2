"""Named mutants of the source, each with the tests that must kill it.

A mutant replaces one exact snippet of one file under ``src/svarcalc``.
Run ``python tests/mutants.py`` from the repository root for every mutant, or
name some: ``python tests/mutants.py "render_combo keeps zeros"``.  For each
one the runner copies ``src`` to a temporary directory, applies the mutant
there and runs its pytest selection with ``PYTHONPATH`` at the copy, one
process at a time.  Only pytest exit code 1 (a failing test) is a kill: a
collection error, a usage error or a timeout is not.  The runner prints one
line per mutant and exits 1 when any survives.

``tests/test_mutants.py`` checks that every snippet occurs exactly once in
today's source, so a change that removes one updates this catalogue.  A
surviving mutant calls for a test that kills it; the mutant stays.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svarcalc"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/svarcalc
    snippet: str
    replacement: str
    select: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("three_form without its _exact normalization", "calculus.py",
           "_exact(coeff) for key, coeff in (self.terms if terms is None else terms).items()",
           "coeff for key, coeff in (self.terms if terms is None else terms).items()",
           ("tests/test_operators.py::TestExactCoefficients::test_scanned_forms_hold_int_where_integral",
            "tests/test_operators.py::TestPairingKernelOracle")),
    Mutant("_pairing without (-1)^(|X||F2|)", "operators.py",
           "p2 ^ ((ky + base_y) & y_cross)",
           "(ky + base_y) & y_cross",
           ("tests/test_operators.py::TestPairingKernelOracle",)),
    Mutant("(1, 2, 0) covectors placed as (2, 0, 1)", "operators.py",
           "key = (mono, 0, kx, ky)",
           "key = (mono, ky, 0, kx)",
           ("tests/test_operators.py::TestPairingKernelOracle",)),
    Mutant("Leibniz closed form without (-1)^(|u| q)", "operators.py",
           "yield 2 * k + 1, -binomial if parity else binomial",
           "yield 2 * k + 1, binomial",
           ("tests/test_operators.py::TestLeibnizRow",)),
    Mutant("Leibniz closed form keeps odd q at even p", "operators.py",
           "if power & 1:",
           "if True:",
           ("tests/test_operators.py::TestLeibnizRow",)),
    Mutant("scan skew gate forced true", "operators.py",
           "self._symmetric = all(check_skew_symmetry(op)[0] for pair in self._joins for op in pair)",
           "self._symmetric = True",
           ("tests/test_operators.py::TestScanOracle",)),
    Mutant("_first_skew_pair with j from i + 1", "modes.py",
           "row, pi = value[i], parity[i]\n        for j in range(i, count):",
           "row, pi = value[i], parity[i]\n        for j in range(i + 1, count):",
           ("tests/test_modes.py::TestSweepOracles::test_skew_decides_the_diagonal",)),
    Mutant("render_combo keeps zeros", "modes.py",
           "        elif coeff:\n            parts.append(f\"{coeff}*{body}\")",
           "        else:\n            parts.append(f\"{coeff}*{body}\")",
           ("tests/test_modes.py::TestZeroRule",)),
    Mutant("scan listing from the first join only", "operators.py",
           "for op_a, op_b in self._joins:",
           "for op_a, op_b in self._joins[:1]:",
           ("tests/test_operators.py::TestListingOracle",)),
    Mutant("scan memo keyed without id(op)", "operators.py",
           "key = (id(op), fam, base)",
           "key = (fam, base)",
           ("tests/test_operators.py::TestSchouten",)),
    Mutant("(1, 2, 0) and (2, 0, 1) sign rows swapped", "operators.py",
           "((0, 0, 0), (z, z, 0), (z, 0, 1))[a]",
           "((0, 0, 0), (z, 0, 1), (z, z, 0))[a]",
           ("tests/test_operators.py::TestPairingKernelOracle",)),
    Mutant("failing orbits expanded by S3 only", "operators.py",
           "return sorted(product(set(permutations(families)), _PARITY_TRIPLES))",
           "return sorted(product(set(permutations(families)), [(0, 0, 0)]))",
           ("tests/test_operators.py::TestScanOracle",)),
    Mutant("frechet prepends the covector", "operators.py",
           "acc[mono + closing]",
           "acc[closing + mono]",
           ("tests/test_operators.py::TestMemoOracle",)),
    Mutant("constructor admits covector coefficients", "operators.py",
           "elif any(mono and mono[-1][0][0] != FIELD_KIND for mono in coeff.terms()):",
           "elif False:",
           ("tests/test_operators.py::TestTypeConstraint",)),
    Mutant("deciding slot ties broken toward the higher slot", "calculus.py",
           "key=lambda slot: (top[slot], slot)",
           "key=lambda slot: (top[slot], -slot)",
           ("tests/test_calculus.py::TestSlotFormOracle",
            "tests/test_operators.py::TestSlotDecisionOracle")),
    Mutant("slot partials signed without the earlier slots", "calculus.py",
           "(fields[key[0]][0] + lead + sum(key[1:slot])) & 1",
           "fields[key[0]][0] & 1",
           ("tests/test_calculus.py::TestSlotFormOracle",
            "tests/test_operators.py::TestSlotDecisionOracle")),
    Mutant("keyed D without (-1)^|F|", "calculus.py",
           "parity, derivative = fields[key[0]]",
           "derivative, parity = fields[key[0]][1], 0",
           ("tests/test_calculus.py::TestSlotFormOracle",
            "tests/test_operators.py::TestSlotDecisionOracle", "tests/test_operators.py::TestMemoOracle")),
    Mutant("keyed D passes the earlier slot factors by base parity only", "calculus.py",
           "parity += k + base",
           "parity += base",
           ("tests/test_calculus.py::TestSlotFormOracle",
            "tests/test_operators.py::TestSlotDecisionOracle")),
    Mutant("monomial product keeps an odd factor squared", "algebra.py",
           "if odd and exp > 1:",
           "if False:",
           ("tests/test_documents.py::TestRoundTrip::test_exponents_match_repeated_factors",)),
    Mutant("monomial product signs every crossing", "algebra.py",
           "if odd & crossed:",
           "if crossed & 1:",
           ("tests/test_algebra.py::TestProductOracle",)),
    Mutant("monomial product folds m1 forward", "algebra.py",
           "for gen, exp in reversed(m1):",
           "for gen, exp in m1:",
           ("tests/test_algebra.py::TestProductOracle",)),
    Mutant("Leibniz parity from the type alone", "operators.py",
           "_leibniz_row(power, (iota + power) & 1, ",
           "_leibniz_row(power, iota, ",
           ("tests/test_operators.py::TestSkewOracle",)),
    Mutant("superderive always rewrites in place", "calculus.py",
           "if exp == 1 and (idx == last or mono[idx + 1][0] > target):",
           "if exp == 1:",
           ("tests/test_calculus.py::TestKernelOracle",)),
    Mutant("superderive rewrites in place before an equal factor", "calculus.py",
           "mono[idx + 1][0] > target",
           "mono[idx + 1][0] >= target",
           ("tests/test_calculus.py::TestKernelOracle",)),
    Mutant("an extra D in the Horner loop", "calculus.py",
           "total = derive(total)",
           "total = derive(derive(total))",
           ("tests/test_calculus.py::TestVariationalDerivative",)),
    Mutant("skew residue without its odd sign", "modes.py",
           "if rest.pop(sym, _ZERO) != (coeff if odd else -coeff):",
           "if rest.pop(sym, _ZERO) != -coeff:",
           ("tests/test_modes.py::TestSweepOracles",)),
    Mutant("central kernel off the line 2 - 2N", "modes.py",
           "int(K == 2 - 2 * n)",
           "int(K == 2 - n)",
           ("tests/test_modes.py::TestKernelOracle",)),
    Mutant("central kernel dropped", "modes.py",
           "if central and data.constant[a][b]:",
           "if False:",
           ("tests/test_modes.py::TestKernelOracle",)),
    Mutant("reversed symmetric-axiom difference", "structures.py",
           "tuple(Fraction(a - b) for a, b in zip(cells[i][j], cells[j][i]))",
           "tuple(Fraction(b - a) for a, b in zip(cells[i][j], cells[j][i]))",
           ("tests/test_structures.py::TestIdentityTableOracle",)),
    Mutant("forward permutation weights", "structures.py",
           "w0, w1, w2 = map(weight.get, term.perm)",
           "w0, w1, w2 = (weight[\"xyz\"[term.perm.index(letter)]] for letter in \"xyz\")",
           ("tests/test_structures.py::TestIdentityTableOracle",)),
    Mutant("identity rows keyed d - 1 apart", "structures.py",
           "pos * dim",
           "pos * (dim - 1)",
           ("tests/test_structures.py::TestIdentityTableOracle",)),
    Mutant("_load checks a kind before parsing the next document", "cli.py",
           "    docs = [parse_document(path) for path in paths]\n    for path, doc in zip(paths, docs):\n",
           "    docs = []\n    for path in paths:\n        docs.append(doc := parse_document(path))\n",
           ("tests/test_cli.py::TestUsageErrors::test_error_precedence_between_documents",)),
    Mutant("--window bound off by one", "cli.py",
           "args.window > MAX_WINDOW",
           "args.window >= MAX_WINDOW",
           ("tests/test_cli.py::TestUsageErrors::test_windows_within_the_bound_pass",)),
    Mutant("a closed stdout not caught", "cli.py",
           "except BrokenPipeError as exc:",
           "except ZeroDivisionError as exc:",
           ("tests/test_cli.py::TestClosedStdout",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'not decided (...)' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="svarcalc-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "svarcalc" / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            return "not decided (the snippet does not occur exactly once)"
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *mutant.select]
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return f"not decided (timeout after {TIMEOUT_S} s)"
    if done.returncode == 1:
        return "killed"
    return "survived" if done.returncode == 0 else f"not decided (pytest exit {done.returncode})"


def main(names) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start, failed = time.monotonic(), 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        began = time.monotonic()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{outcome:>8}  {time.monotonic() - began:6.1f} s  {mutant.name}", flush=True)
    print(f"{failed} not killed, {time.monotonic() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
