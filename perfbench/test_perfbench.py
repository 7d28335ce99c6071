"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from tracing import layer_of, process_kind  # noqa: E402

#: Size factor of the tiny runs.
TINY = 0.02

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def bench(*args):
    """Run the benchmark; returns (exit code, stdout, last-line result).

    The result is ``None`` when the last line is not one (``--repin``).
    """
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", str(TINY),
         "--seconds", "1", *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
        check=False)
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return completed.returncode, completed.stdout, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, _out, result = bench("--workload", workload, "--seed", "1",
                               "--trace", str(trace))
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_untraced_run_prints_a_zero_fail_rate():
    _code, out, _result = bench("--workload", "cdp-kepler", "--seed", "2")
    line = next(row for row in out.splitlines()
                if row.startswith("fail_rate"))
    assert float(line.split()[1]) == 0.0


def test_a_corrupted_pin_is_a_failed_op(tmp_path):
    pins = str(tmp_path / "pins.json")
    workload = "baselines-volta"
    code, _out, _result = bench("--workload", workload, "--repin",
                                "--pins", pins)
    assert code == 0 and _result is None

    code, _out, result = bench("--workload", workload, "--pins", pins)
    assert code == 0 and result["failed"] == 0

    with open(pins, encoding="utf-8") as handle:
        pinned = json.load(handle)
    key = sorted(pinned[workload])[0]
    pinned[workload][key]["wire_bytes"] += 1
    with open(pins, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle)

    code, out, result = bench("--workload", workload, "--pins", pins)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert f"FAILED {key}: simulated outputs differ from the pin" in out

    code, out, _result = bench("--workload", workload, "--repin",
                               "--pins", pins)
    assert code == 0
    assert f"- {key}:" in out and f"+ {key}:" in out


def test_seeds_give_distinct_reproducible_inputs():
    from repro.workloads import JacobiWorkload

    def size(seed):
        return suite.Inputs(seed).app(JacobiWorkload).num_unknowns

    assert size(5) == size(5) != size(6)
    assert size(0) != size(None) == 8_000_000
    assert suite.Inputs(None).payload() == 16 << 20


def test_the_reference_is_deterministic_and_calibrates_by_its_runs():
    assert reference.reference() == reference.reference() \
        == reference.EXPECTED
    assert reference.reference_seconds() > 0
    # Reference runs twice as slow as REFERENCE_S halve the op's seconds.
    slow = 2 * reference.REFERENCE_S
    assert run.calibrated(3.0, slow, slow) == pytest.approx(1.5)
    assert run.calibrated(3.0, reference.REFERENCE_S,
                          reference.REFERENCE_S) == pytest.approx(3.0)


def test_layer_and_process_kind_mapping():
    sep = os.sep
    assert layer_of(f"{sep}x{sep}repro{sep}sim{sep}engine.py") == "sim"
    assert layer_of(f"{sep}x{sep}repro{sep}core{sep}profiler.py") \
        == "core.profiler"
    assert layer_of(f"{sep}x{sep}repro{sep}core{sep}agents.py") == "core"
    assert layer_of(f"{sep}x{sep}repro{sep}obs{sep}metrics.py") == "other"
    assert layer_of("~") == "other"
    assert layer_of(os.path.join(HERE, "tracing.py")) is None
    assert process_kind("phase-gpu3") == "phase-gpu"
    assert process_kind("quantum:0->1") == "quantum"
    assert process_kind("app") == "other"
    assert process_kind(None) == "other"
