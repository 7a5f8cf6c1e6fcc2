"""Span tracer for the traced run: wraps public svarcalc functions from outside.

A span is (name, start, end, parent span, check id).  Spans are appended to
flat arrays while the traced pass runs and are only interpreted afterwards:
a name's self time is the sum of its spans' durations minus the durations of
their direct child spans.  Call counts are kept separately because a function
that returns a generator produces one span per resumption but is one call.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gzip
import inspect
import sys
import time
from array import array
from concurrent.futures.process import ProcessPoolExecutor
from typing import Dict, List, Tuple

# (metric name, module, attribute) for every wrapped public function or
# method.  Several functions may share one metric name; a call made directly
# inside a span of the same name (check_axioms -> iter_axiom_failures) is not
# counted again.
TIMED_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("algebra.poly_mul", "svarcalc.algebra", "SuperPolynomial.__mul__"),
    ("algebra.poly_add", "svarcalc.algebra", "SuperPolynomial.__add__"),
    ("algebra.normalize_monomial", "svarcalc.algebra", "normalize_monomial"),
    ("algebra.partial_derive", "svarcalc.algebra", "partial_derive"),
    ("calculus.superderive", "svarcalc.calculus", "superderive"),
    ("calculus.variational_derivative", "svarcalc.calculus", "variational_derivative"),
    ("calculus.membership", "svarcalc.calculus", "is_total_derivative"),
    ("calculus.membership", "svarcalc.calculus", "non_membership_certificate"),
    ("operators.frechet", "svarcalc.operators", "frechet"),
    ("operators.apply", "svarcalc.operators", "apply_matrix_operator"),
    ("operators.skew", "svarcalc.operators", "check_skew_symmetry"),
    ("operators.skew", "svarcalc.operators", "iter_skew_failures"),
    ("operators.scan", "svarcalc.operators", "is_hamiltonian"),
    ("operators.scan", "svarcalc.operators", "is_hamiltonian_pair"),
    ("operators.scan", "svarcalc.operators", "schouten_vanishes"),
    ("operators.scan", "svarcalc.operators", "iter_closedness_failures"),
    ("operators.scan", "svarcalc.operators", "iter_schouten_failures"),
    ("operators.scan", "svarcalc.operators", "schouten_bracket"),
    ("operators.scan", "svarcalc.operators", "hamiltonian_defect"),
    ("structures.axioms", "svarcalc.structures", "check_axioms"),
    ("structures.axioms", "svarcalc.structures", "iter_axiom_failures"),
    ("structures.multiply", "svarcalc.structures", "multiply"),
    ("structures.builders", "svarcalc.structures", "build_type0_operator"),
    ("structures.builders", "svarcalc.structures", "build_type1_operator"),
    ("structures.builders", "svarcalc.structures", "np_to_nx"),
    ("structures.builders", "svarcalc.structures", "make_truncated_example"),
    ("structures.builders", "svarcalc.structures", "make_exterior_example"),
    ("modes.dist_mul", "svarcalc.modes", "FormalDistribution.__mul__"),
    ("modes.apply_Di", "svarcalc.modes", "apply_Di"),
    ("modes.coefficient", "svarcalc.modes", "FormalDistribution.coefficient"),
    ("modes.induce", "svarcalc.modes", "induce_bracket"),
    ("modes.skew", "svarcalc.modes", "check_super_skew"),
    ("modes.jacobi", "svarcalc.modes", "check_super_jacobi"),
    ("documents.parse", "svarcalc.documents", "parse_document"),
    ("documents.render", "svarcalc.documents", "render_document"),
    ("reports.to_json", "svarcalc.reports", "Report.to_json"),
    ("reports.input_echo", "svarcalc.reports", "input_echo"),
    ("cli.main", "svarcalc.cli", "main"),
)

# Hot calls that are counted without a span of their own; their time stays in
# the caller's self time.
COUNTED_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("modes.bracket_lookups", "svarcalc.modes", "ModeBracketTable.bracket"),
    ("suite.entries", "svarcalc.suite", "run_suite_entry"),
)

POOL_SPAN = "cli.pool_wait"


class Tracer:
    """In-memory span store plus call counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.check = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.check_id = -1
        self.calls: Dict[str, int] = {}
        self.zero_memberships = 0
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.setdefault(name, 0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.check.append(self.check_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def count_call(self, nid: int) -> None:
        """Count a call unless it is made directly inside a span of the same name."""
        if not self.stack or self.name_of[self.stack[-1]] != nid:
            self.calls[self.names[nid]] += 1

    # -- wrapping ------------------------------------------------------------

    def _traced_generator(self, nid: int, gen):
        while True:
            idx = self.open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(idx)
            yield item

    def timed(self, name: str, fn):
        nid = self.name_id(name)
        membership = name == "calculus.membership"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count_call(nid)
            if membership and not args[0]:
                self.zero_memberships += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if inspect.isgenerator(result):
                return self._traced_generator(nid, result)
            return result

        return traced

    def counted(self, name: str, fn):
        self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self) -> None:
        """Replace every target in every loaded svarcalc module that binds it.

        A target the program no longer has is skipped and listed in
        ``missing``; its metrics then read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "svarcalc" or n.startswith("svarcalc."))]
        for targets, make in ((TIMED_TARGETS, self.timed), (COUNTED_TARGETS, self.counted)):
            for name, module_name, attr in targets:
                owner_name, _, leaf = f"{module_name}.{attr}".rpartition(".")
                owner = sys.modules[module_name]
                if "." in attr:
                    owner = getattr(owner, attr.split(".")[0], None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(f"{owner_name}.{leaf}")
                    continue
                wrapper = make(name, original)
                if "." in attr:
                    self._patch(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dval in list(value.items()):
                                if dval is original:
                                    self._patch(value, dkey, wrapper)
        self._patch(concurrent.futures, "ProcessPoolExecutor", self._pool_class())

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _pool_class(self):
        """A process pool whose ``with`` block is one span; workers run untraced."""
        tracer = self
        nid = self.name_id(POOL_SPAN)

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("initializer", tracer.uninstall)
                super().__init__(*args, **kwargs)

            def __enter__(self):
                tracer.count_call(nid)
                self._span = tracer.open(nid)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    # -- interpretation ------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per name: sum of span durations minus their direct children's."""
        n = len(self.name_of)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            totals[name_of[i]] += end[i] - start[i] - child[i]
        return {name: totals[nid] for nid, name in enumerate(self.names)}

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        name_of, parent = self.name_of, self.parent
        return sum(1 for i in range(len(name_of))
                   if name_of[i] == cid and parent[i] >= 0 and name_of[parent[i]] == pid)

    def write(self, path: str) -> None:
        """Write every span as a gzipped tab-separated line: name, start, end, parent, check."""
        names, name_of, parent, check = self.names, self.name_of, self.parent, self.check
        start, end = self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\tcheck\n")
            for i in range(len(name_of)):
                handle.write(f"{i}\t{names[name_of[i]]}\t{start[i]:.9f}\t{end[i]:.9f}"
                             f"\t{parent[i]}\t{check[i]}\n")
