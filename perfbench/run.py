"""Host-time benchmark of the PROACT simulator.

Run one workload (the form a harness uses)::

    python3 perfbench/run.py --workload cdp-kepler --seed 3 --seconds 18 --trace 0

or every workload, untraced and traced, on the pinned paper-scale inputs::

    python3 perfbench/run.py

A single-workload run sets up its ops, times passes over them until
``--seconds`` is used up, each op between two runs of the host-speed
reference (``reference.py``), checks every op's simulated outputs, and
prints a readable report followed, as its last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced pass and reports
the per-layer metrics instead.  The process exits nonzero when any op
failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import suite  # noqa: E402  (needs the path set above)
from reference import REFERENCE_S, reference_seconds  # noqa: E402

#: End-to-end metrics and their units.  fail_rate is printed beside them
#: but not in the result's metrics: it is 0 on correct code, and the
#: result's attempted/failed counts carry it.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer numbers of the host itself: the uncalibrated pass and the
#: median reference run it was calibrated by.
HOST_UNITS = {"host.wall_raw_s": "s", "host.reference_s": "s"}
#: Setup is repeated in this many fresh processes; setup_s is the median.
SETUP_PROBES = 5
#: Repeats of the engine canary; its median is reported.
CANARY_ROUNDS = 3


# ----------------------------------------------------------------------
# Host context
# ----------------------------------------------------------------------
def _loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return " ".join(handle.read().split()[:3])


def _spin(engine, steps: int):
    for _ in range(steps):
        yield engine.timeout(1e-6)


def canary_events_per_s() -> float:
    """Bare-engine throughput: a 50 x 2000 timeout mesh, median of runs.

    The same mesh as ``benchmarks/test_engine_perf.py``.
    """
    from repro.sim.engine import Engine
    rates = []
    for _ in range(CANARY_ROUNDS):
        engine = Engine()
        for _ in range(50):
            engine.process(_spin(engine, 2000))
        start = time.perf_counter()
        engine.run()
        rates.append(engine.events_fired / (time.perf_counter() - start))
    return statistics.median(rates)


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: Optional[int],
                scale: Optional[float]) -> None:
    """Child side of a setup measurement: set up, report, exit."""
    suite.build(workload, seed, scale)
    print("ready", flush=True)


def input_args(seed: Optional[int], scale: Optional[float]) -> List[str]:
    """The command-line arguments that select these inputs."""
    argv = [] if seed is None else ["--seed", str(seed)]
    return argv if scale is None else argv + ["--scale", repr(scale)]


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` scaled to the reference host speed, by the reference
    runs on either side of it."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def measure_setup(workload: str, seed: Optional[int],
                  scale: Optional[float]) -> Tuple[List[float], List[float]]:
    """Host seconds from process start to the first op, per fresh process,
    raw and calibrated.  Each probe runs between two reference runs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, *input_args(seed, scale)]
    raw, scaled = [], []
    ref_before = reference_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed "
                               f"(exit {child.returncode})")
        ref_after = reference_seconds()
        raw.append(elapsed)
        scaled.append(calibrated(elapsed, ref_before, ref_after))
        ref_before = ref_after
    return raw, scaled


# ----------------------------------------------------------------------
# Ops and their checks
# ----------------------------------------------------------------------
def load_pins(path: str) -> Dict[str, Any]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Counts attempted and failed ops against reference outputs.

    The reference is the pin for the paper-scale inputs.  On a seed it is
    the first pass's outputs, which the oracle checks afterwards.
    """

    def __init__(self, ops, pins: Optional[Dict[str, Any]]) -> None:
        self.ops = ops
        self.pins = pins
        self.reference: Dict[str, Any] = dict(pins) if pins else {}
        self.first_results: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {why}")

    def issue(self, op, call) -> Tuple[Optional[float], Any]:
        """Issue one op through ``call``; returns (host seconds, result)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(op.call)
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(op.key, f"raised {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        try:
            outputs = op.outputs(result)
        except AssertionError as exc:
            self.fail(op.key, str(exc))
            return elapsed, None
        if self.pins is None and op.key not in self.reference:
            self.reference[op.key] = outputs
            self.first_results[op.key] = result
        elif outputs != self.reference.get(op.key):
            self.fail(op.key, "simulated outputs differ from the "
                      + ("pin" if self.pins is not None else "first pass"))
        return elapsed, result

    def run_oracle(self) -> None:
        """Oracle-check the first pass (seeds without a pin)."""
        for op in self.ops:
            result = self.first_results.get(op.key)
            if result is None:
                continue
            self.attempted += 1
            try:
                op.oracle(result)
            except Exception as exc:  # counted as a failed op
                self.fail(op.key, f"oracle: {type(exc).__name__}: {exc}")


def _direct(call):
    return call()


class Passes:
    """Host seconds of each op in each untraced pass, raw and calibrated,
    and of every reference run between them."""

    def __init__(self) -> None:
        self.raw: List[List[float]] = []
        self.calibrated: List[List[float]] = []
        self.reference: List[float] = []


def timed_passes(ops, checker: Checker, seconds: float) -> Passes:
    """Untraced passes until ``seconds`` is used up (at least one pass).

    A reference run precedes the first op and follows every op, so each op
    is calibrated by the two runs around it.  Cyclic garbage is collected
    before every timed call, so no op pays for its predecessor's.
    """
    passes = Passes()
    gc.collect()
    passes.reference.append(reference_seconds())
    start = time.perf_counter()
    while True:
        raw, scaled = [], []
        for op in ops:
            gc.collect()
            elapsed = checker.issue(op, _direct)[0] or 0.0
            gc.collect()
            passes.reference.append(reference_seconds())
            raw.append(elapsed)
            scaled.append(calibrated(elapsed, *passes.reference[-2:]))
        passes.raw.append(raw)
        passes.calibrated.append(scaled)
        used = time.perf_counter() - start
        if used + used / len(passes.raw) > seconds:
            return passes


def pass_seconds(passes: List[List[float]]) -> float:
    """One pass's seconds: the sum of each op's median over passes.

    Host speed on a shared machine varies from second to second, so each
    op's median rejects the passes a slow stretch hit, where the median
    of whole passes would keep one whenever most passes were hit
    somewhere.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def repin(workload: str, ops, path: str) -> int:
    """Run one pass, print its diff against the pins and rewrite them."""
    pins = load_pins(path)
    old = pins.get(workload, {})
    new = {op.key: op.outputs(op.call()) for op in ops}
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(f"- {key}: {json.dumps(old.get(key))}")
            print(f"+ {key}: {json.dumps(new.get(key))}")
    pins[workload] = new
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"re-pinned {len(new)} ops of {workload} in {path}")
    return 0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    load_start = _loadavg()
    ops = suite.build(args.workload, args.seed, args.scale)
    if args.repin:
        if args.seed is not None:
            raise SystemExit("--repin pins the inputs without --seed only")
        return repin(args.workload, ops, args.pins)
    pins = None
    if args.seed is None:
        pins = load_pins(args.pins).get(args.workload, {})
    checker = Checker(ops, pins)

    # setup_s is an end-to-end metric; a traced run does not report it.
    setup_raw, setup = (([], []) if args.trace
                        else measure_setup(args.workload, args.seed,
                                           args.scale))
    canary = canary_events_per_s()
    passes = timed_passes(ops, checker, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.run_oracle()

    wall = pass_seconds(passes.calibrated)
    raw_wall = pass_seconds(passes.raw)
    reference_s = statistics.median(passes.reference)
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "pass_totals": [sum(times) for times in passes.calibrated],
        "raw_pass_totals": [sum(times) for times in passes.raw],
        "op_seconds": {op.key: [times[i] for times in passes.raw]
                       for i, op in enumerate(ops)},
        "reference_seconds": passes.reference,
        "setup_samples": setup, "raw_setup_samples": setup_raw,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "loadavg_start": load_start, "loadavg_end": None,
                 "sim.canary_events_per_s": canary,
                 "host.reference_s": reference_s},
    }
    if args.trace:
        from tracing import Tracer, metric_units
        with Tracer() as tracer:
            for op in ops:
                checker.issue(op, tracer.op)
        # The traced pass is raw host time, so it compares with the raw
        # untraced pass.
        values = tracer.metrics(raw_wall, canary)
        values.update({"host.wall_raw_s": raw_wall,
                       "host.reference_s": reference_s})
        units = dict(metric_units(), **HOST_UNITS)
        os.makedirs(RESULTS, exist_ok=True)
        spans_path = os.path.join(
            RESULTS, f"spans-{args.workload}-"
            + ("paper" if args.seed is None else f"seed{args.seed}")
            + ".json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
        report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        units = E2E_UNITS
    report["host"]["loadavg_end"] = _loadavg()

    _print_report(report, wall, raw_wall, values, units, checker)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if checker.failed == 0 else 1


def _print_report(report, wall, raw_wall, values, units, checker) -> None:
    host = report["host"]
    totals = report["pass_totals"]
    quartiles = (statistics.quantiles(totals, n=4) if len(totals) > 1
                 else totals * 3)
    print(f"# {report['workload']} seed={report['seed']} "
          f"nproc={host['nproc']} python={host['python']} "
          f"loadavg={host['loadavg_start']} -> {host['loadavg_end']} "
          f"canary={host['sim.canary_events_per_s']:.0f} events/s "
          f"reference={host['host.reference_s']:.4f} s "
          f"(calibrated to {REFERENCE_S} s)")
    print(f"# wall_s {wall:.4f} (sum of per-op medians, calibrated; "
          f"raw {raw_wall:.4f}); whole calibrated passes: "
          f"median {quartiles[1]:.4f} q1 {quartiles[0]:.4f} "
          f"q3 {quartiles[2]:.4f} n={len(totals)}")
    if report["setup_samples"]:
        print("# setup_s samples, calibrated "
              + " ".join(f"{s:.4f}" for s in report["setup_samples"])
              + "; raw "
              + " ".join(f"{s:.4f}" for s in report["raw_setup_samples"]))
    if "spans" in report:
        print(f"# spans written to {report['spans']}")
    for name, value in values.items():
        print(f"{name:38s} {value:>18.6g} {units[name]}")
    print(f"{'fail_rate':38s} {checker.failed / checker.attempted:>18.6g} "
          f"ratio ({checker.failed} of {checker.attempted} ops)")
    for error in checker.errors:
        print(f"FAILED {error}")
    print("#HOST " + json.dumps(report))


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def _child(args, workload: str, trace: int) -> Optional[Dict[str, Any]]:
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seconds", str(args.seconds),
            "--trace", str(trace), "--pins", args.pins,
            *input_args(args.seed, args.scale)]
    completed = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, check=False)
    lines = completed.stdout.splitlines()
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    if not lines or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    host = [line for line in lines if line.startswith("#HOST ")]
    result["report"] = json.loads(host[-1][len("#HOST "):]) if host else None
    return result


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    record: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                              "workloads": {}}
    attempted = failed = 0
    for workload in suite.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result = _child(args, workload, trace)
            if result is None:
                print(f"{workload} --trace {trace} printed no result",
                      file=sys.stderr)
                return 1
            attempted += result["attempted"]
            failed += result["failed"]
            entry["traced" if trace else "untraced"] = result
        record["workloads"][workload] = entry
    print("\n# summary (untraced runs)")
    for workload, entry in record["workloads"].items():
        untraced = entry["untraced"]
        metrics = untraced["metrics"]
        print(f"{workload:22s} " + "  ".join(
            f"{name} {metrics[name]['value']:.4g} {metrics[name]['unit']}"
            for name in E2E_UNITS)
            + f"  fail_rate {untraced['failed'] / untraced['attempted']:.4g}"
            " ratio")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {
                          f"{workload}.{name}": metric
                          for workload, entry in record["workloads"].items()
                          for run in ("untraced", "traced")
                          for name, metric in entry[run]["metrics"].items()}}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=suite.WORKLOADS,
                        help="run one workload (default: every workload, "
                             "untraced and traced, each in its own process)")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the pinned paper-scale "
                             "inputs)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="host seconds of untraced passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass, report per-layer metrics")
    parser.add_argument("--pins", default=PINS,
                        help="pinned outputs of the paper-scale inputs")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite the pins from one pass; prints the diff")
    parser.add_argument("--record", help="(all workloads) write every "
                        "result to this JSON file")
    # Forces every size factor (the tests' tiny runs); without --seed it
    # needs --pins made at the same scale.
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scale)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
