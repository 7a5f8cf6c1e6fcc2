#!/usr/bin/env python3
"""svarcalc benchmark: time to verdict on four check workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: svarcalc is imported from ./src and
the bundled documents are read from ./samples.  Working files go to
./.perfbench_out.  The seed only shapes the generated inputs; the program sees
the inputs alone.

Each workload is a closed loop: one client sends its next check when the
previous verdict has returned.  A run repeats the workload's fixed pass of
checks round(--seconds / the pass time at the seed commit) times, at least
twice, and checks every verdict against its known answer.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass untraced and
the same pass with every public svarcalc function wrapped in a span, and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("algebra", "calculus", "operators", "structures", "modes", "documents",
           "reports", "suite", "cli")

# Set-up is short and noisy: repeat it at least this often and for at least
# this long, and report the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MIN_PASSES = 2
TAIL_BEYOND = 10

# Per-layer metric groups; BENCHMARK.json lists the resulting names and units,
# perfbench/README.md what each should move.  A layer that a workload does not
# run reads 0 there.
CALLS_AND_SELF = ("algebra.poly_mul", "algebra.poly_add", "algebra.normalize_monomial",
                  "algebra.partial_derive", "calculus.superderive",
                  "calculus.variational_derivative", "calculus.membership",
                  "operators.frechet", "operators.apply", "structures.axioms",
                  "structures.multiply", "modes.dist_mul", "modes.apply_Di",
                  "modes.coefficient", "documents.parse")
SELF_ONLY = ("operators.skew", "operators.scan", "structures.builders", "modes.induce",
             "modes.skew", "modes.jacobi", "documents.render", "reports.to_json",
             "reports.input_echo", "cli.main")
COUNT_ONLY = ("modes.bracket_lookups", "suite.entries")


def import_program() -> SimpleNamespace:
    """Import every svarcalc module afresh from ./src."""
    for name in [n for n in sys.modules if n == "svarcalc" or n.startswith("svarcalc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("svarcalc")
    if Path(pkg.__file__).resolve().parent != (SRC / "svarcalc").resolve():
        raise RuntimeError(f"svarcalc was imported from {pkg.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"svarcalc.{name}") for name in MODULES}
    return SimpleNamespace(root=str(ROOT), **modules)


def set_up(workload: str, seed: int, workdir: str):
    """Import, input generation and document rendering, and one warm-up pass."""
    start = time.perf_counter()
    sv = import_program()
    plan = workloads.WORKLOADS[workload](sv, random.Random(seed), workdir)
    for call in plan.warmup:
        try:
            call()
        except Exception:  # warm-up outcomes are not judged; the timed passes make the same calls
            pass
    return time.perf_counter() - start, plan


def partner_verdicts(workload: str, seed: int, plan) -> dict:
    """Correspondence partners' verdicts, computed once per seed and stored."""
    path = OUT / "answers" / f"{workload}-seed{seed}.json"
    digest = hashlib.sha256(plan.fingerprint.encode()).hexdigest()
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored["inputs"] == digest:
            return stored["verdicts"]
    except (OSError, ValueError, KeyError):
        pass
    verdicts = plan.partners()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"inputs": digest, "verdicts": verdicts}, sort_keys=True),
                    encoding="utf-8")
    return verdicts


def run_pass(checks, latencies, failures, reference=None, tracer=None) -> dict:
    """Run each check once, in order; time only the call.

    Failures are (name, reason) pairs.  An outcome that differs from the same
    check's outcome in ``reference`` (an earlier pass) is a failure too.
    """
    outcomes = {}
    for index, check in enumerate(checks):
        if tracer is not None:
            tracer.check_id = index
        start = time.perf_counter()
        try:
            result = check.call()
        except Exception as exc:  # a failed check, not a benchmark error
            latencies.append(time.perf_counter() - start)
            failures.append((check.name, f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(time.perf_counter() - start)
        outcome = check.observe(result)
        outcomes[check.name] = outcome
        error = check.judge(outcome, outcomes)
        if error is None and reference is not None and check.name in reference \
                and reference[check.name] != outcome:
            error = "outcome differs from the reference pass"
        if error is not None:
            failures.append((check.name, error))
    return outcomes


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        raise RuntimeError(f"only {len(ordered)} samples; the tail needs {TAIL_BEYOND + 1}")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest pool worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def report_failures(failures, known) -> bool:
    """Print failures by name; True when every one is a known defect."""
    for name, reason in sorted(set(failures)):
        mark = " (known defect)" if name in known else ""
        print(f"  FAILED {name}: {reason}{mark}")
    return all(name in known for name, _ in failures)


def measure(workload: str, seed: int, seconds: int, workdir: str) -> dict:
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        plan = None
        gc.collect()  # free the previous set-up's modules and inputs
        elapsed, plan = set_up(workload, seed, workdir)
        setups.append(elapsed)
    checks = plan.make_checks(partner_verdicts(workload, seed, plan))
    gc.collect()
    latencies, failures = [], []
    passes = max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))
    reference = None
    start = time.perf_counter()
    for _ in range(passes):
        outcomes = run_pass(checks, latencies, failures, reference)
        if reference is None:
            reference = outcomes
    wall = time.perf_counter() - start
    attempted = len(latencies)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "verdicts_per_s": (attempted / sum(latencies), "1/s"),
        "verdict_p50_s": (statistics.median(latencies), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    print(f"{workload} seed {seed}: {passes} passes of {len(checks)} checks, "
          f"{attempted} verdicts in {wall:.2f} s wall")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "verdict_tail_s":
            note = f"  (p{tail_pct:.2f}, {TAIL_BEYOND} of {attempted} samples beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        print(f"  {name:<16} {value:.6f} {unit}{note}")
        if name == "verdict_tail_s":
            print(f"  {'failed_share':<16} {len(failures) / attempted:.6f} ratio"
                  f"  ({len(failures)} failed of {attempted} attempted)")
    correct = report_failures(failures, plan.known_defects)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls
    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNT_ONLY:
        metrics[name] = (calls.get(name, 0), "count")
    memberships = calls.get("calculus.membership", 0)
    bases = tracer.children_named("calculus.membership", "calculus.variational_derivative")
    metrics["calculus.bases_per_membership"] = (
        bases / memberships if memberships else 0.0, "ratio")
    metrics["operators.defects_decided"] = (memberships, "count")
    metrics["operators.zero_defect_share"] = (
        tracer.zero_memberships / memberships if memberships else 0.0, "ratio")
    metrics["cli.pool_wait_s"] = (self_s.get(tracing.POOL_SPAN, 0.0), "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def trace(workload: str, seed: int, workdir: str) -> dict:
    _, plan = set_up(workload, seed, workdir)
    checks = plan.make_checks(partner_verdicts(workload, seed, plan))
    gc.collect()
    failures = []
    plain, traced = [], []
    reference = run_pass(checks, plain, failures)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(checks, traced, failures, reference, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, sum(plain), sum(traced))
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(str(spans))
    print(f"{workload} seed {seed}: one untraced and one traced pass of {len(checks)} checks"
          f" ({sum(plain):.2f} s, {sum(traced):.2f} s); {len(tracer.name_of)} spans"
          f" in {spans.name}")
    memberships = metrics["operators.defects_decided"][0]
    for name, (value, unit) in metrics.items():
        note = f"  (base: {memberships} membership tests)" \
            if name in ("calculus.bases_per_membership", "operators.zero_defect_share") else ""
        print(f"  {name:<36} {value} {unit}{note}")
    if tracer.missing:
        print("  not in this program, so not traced: " + ", ".join(tracer.missing))
    correct = report_failures(failures, plan.known_defects)
    return {"correct": correct, "attempted": len(plain) + len(traced), "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "svarcalc" / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"perfbench: no svarcalc sources and samples under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Reports must land where the benchmark puts them.
    os.environ.pop("SVARCALC_REPORT_DIR", None)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, str(workdir))
        else:
            result = measure(args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
