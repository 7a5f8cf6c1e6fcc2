"""Self-tests of the benchmark: tracer arithmetic and tracing transparency.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the last two tests import ./src).
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import unittest

import run
import tracer as tracing
import workloads


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def synthetic_tree(tracer):
    """root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]."""
    root, a, b, c = (tracer.name_id(n) for n in ("root", "a", "b", "c"))
    i_root = tracer.open(root)
    i_a = tracer.open(a)
    i_b = tracer.open(b)
    tracer.close(i_b)
    tracer.close(i_a)
    i_c = tracer.open(c)
    tracer.close(i_c)
    tracer.close(i_root)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        synthetic_tree(tracer)
        self.assertEqual(tracer.self_times(), {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})
        self.assertEqual(list(tracer.parent), [-1, 0, 1, 0])
        self.assertEqual(tracer.children_named("root", "c"), 1)
        self.assertEqual(tracer.children_named("root", "b"), 0)

    def test_self_times_sum_to_root_duration(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        synthetic_tree(tracer)
        self.assertEqual(sum(tracer.self_times().values()), 10.0)

    def test_generator_is_one_call_with_a_span_per_resumption(self):
        tracer = tracing.Tracer()
        wrapped = tracer.timed("g", lambda n: (i for i in range(n)))
        self.assertEqual(list(wrapped(3)), [0, 1, 2])
        self.assertEqual(tracer.calls["g"], 1)
        # creation, three items, exhaustion
        self.assertEqual(len(tracer.name_of), 5)
        self.assertEqual(tracer.stack, [])

    def test_nested_call_of_the_same_metric_is_counted_once(self):
        tracer = tracing.Tracer()
        inner = tracer.timed("m", lambda: 1)
        outer = tracer.timed("m", lambda: inner() + 1)
        self.assertEqual(outer(), 2)
        self.assertEqual(tracer.calls["m"], 1)
        self.assertEqual(len(tracer.name_of), 2)


class TracingIsTransparent(unittest.TestCase):
    """Tracing changes no verdict and no report byte."""

    @classmethod
    def setUpClass(cls):
        if str(run.SRC) not in sys.path:
            sys.path.insert(0, str(run.SRC))
        run.OUT.mkdir(exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def compare(self, workload, keep):
        sv = run.import_program()
        plan = workloads.WORKLOADS[workload](sv, random.Random(5), self.workdir)
        checks = [c for c in plan.make_checks(plan.partners()) if keep(c.name)]
        failures = []
        reference = run.run_pass(checks, [], failures)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(checks, [], failures, reference, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(traced, reference)
        self.assertEqual({name for name, _ in failures} - set(plan.known_defects), set())
        self.assertGreater(len(tracer.name_of), 0)
        return sv, tracer

    def test_cli_reports_are_byte_identical(self):
        slow = ("verify-paper-examples", "generated-exterior", "mutation-limit3")
        sv, tracer = self.compare("cli-batch", lambda name: not any(s in name for s in slow))
        self.assertGreater(tracer.calls["cli.main"], 0)
        self.assertGreater(tracer.calls["documents.parse"], 0)
        self.assertIs(sv.cli.main, sys.modules["svarcalc.cli"].main)
        self.assertFalse(hasattr(sv.cli.main, "__wrapped__"))

    def test_a_removed_function_is_skipped_and_restored_bindings_are_original(self):
        sv = run.import_program()
        removed = sv.operators.hamiltonian_defect
        del sv.operators.hamiltonian_defect
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            sv.operators.hamiltonian_defect = removed
        self.assertEqual(tracer.missing, ["svarcalc.operators.hamiltonian_defect"])
        self.assertFalse(hasattr(sv.operators.is_hamiltonian, "__wrapped__"))
        self.assertFalse(hasattr(sv.algebra.SuperPolynomial.__add__, "__wrapped__"))

    def test_operator_verdicts_are_identical(self):
        _, tracer = self.compare("operator-scan",
                                 lambda name: "constant" in name or "d1-d5" in name
                                 or "truncated-n1" in name)
        self.assertGreater(tracer.calls["calculus.membership"], 0)
        self.assertGreater(tracer.calls["operators.frechet"], 0)


if __name__ == "__main__":
    unittest.main()
