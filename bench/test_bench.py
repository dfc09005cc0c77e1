"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

They check the harness, not ditlab: a quick run of every workload, the
checker's verdict on deliberately perturbed results (the fault goes into
the checker's input, never into ditlab), and the traced run's wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from ditlab.logic import TautologyVerdict, VerdictStatus  # noqa: E402


@pytest.fixture(scope="module", params=run.WORKLOADS)
def quick_ops(request, tmp_path_factory):
    rng = run.workload_rng(request.param, 7)
    return W.WORKLOADS[request.param](rng, True, str(tmp_path_factory.mktemp(request.param)))


def _run_bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_quick_mode_runs_every_workload_end_to_end():
    done = _run_bench("--workload", "all", "--quick", "--seed", "3")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(results) == list(run.WORKLOADS)
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True, name
        assert set(res["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in res["metrics"].values()), name
    assert [results[w]["failed"] for w in run.WORKLOADS] == [0, 0, 0, 1]
    assert "error_rate" in done.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "tautology", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def perturb(result):
    """The same result with one quantity changed, as a defect would change it."""
    if isinstance(result, np.ndarray):
        out = result.copy()
        out[0, -1] += 1e-6
        return out
    if isinstance(result, float):
        return result + 1e-6
    if isinstance(result, TautologyVerdict):
        if result.is_tautology_up_to_bound:
            return TautologyVerdict(VerdictStatus.COUNTEREXAMPLE, result.bound, None)
        return dataclasses.replace(result, witness=(1, result.witness[1]))
    if dataclasses.is_dataclass(result):
        name = dataclasses.fields(result)[-1].name
        value = getattr(result, name)
        return dataclasses.replace(result, **{name: value + (1e-6 if isinstance(value, float) else Fraction(1, 997))})
    code, out, err = result if isinstance(result[0], int) else (None, None, None)
    if code is not None:
        return (3 if code == 0 else 0), out, err
    return (perturb(result[0]),) + tuple(result[1:])


def test_checker_accepts_ditlab_and_flags_each_perturbed_result(quick_ops):
    for op in quick_ops:
        result = op.call()
        if op.known_failure:
            with pytest.raises(R.Mismatch):
                op.check(result)
            continue
        op.check(result)
        with pytest.raises(R.Mismatch):
            op.check(perturb(result))


def test_cli_checker_rejects_a_changed_quantity_and_non_standard_json(tmp_path):
    ops = W.cli_reports(run.workload_rng("cli_reports", 7), True, str(tmp_path))
    die = next(op for op in ops if op.size == "die n=6,exact")
    code, out, err = die.call()
    assert '"h_pi":"1/2"' in out
    die.check((code, out, err))
    for bad in ('"h_pi":"1/3"', '"h_pi":NaN'):
        with pytest.raises(R.Mismatch):
            die.check((code, out.replace('"h_pi":"1/2"', bad), err))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def test_traced_calls_return_identical_results_and_restore_every_attribute(quick_ops):
    originals = {(m.__name__, a): getattr(m, a) for m, attrs in tracing.TARGETS for a in attrs}
    plain = [op.call() for op in quick_ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not originals[(m.__name__, a)]
                   for m, attrs in tracing.TARGETS for a in attrs)
        traced = []
        for i, op in enumerate(quick_ops):
            tracer.op_id = i
            traced.append(op.call())
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is originals[(m.__name__, a)] for m, attrs in tracing.TARGETS for a in attrs)
    for op, x, y in zip(quick_ops, plain, traced):
        assert _same(x, y), f"{op.kind} {op.size}"
    assert len(tracer.start) > 0
    metrics = tracing.layer_metrics(tracer, quick_ops, cycles=1)
    assert set(metrics) <= set(tracing.UNITS)


def test_traced_run_reports_every_per_layer_metric():
    done = _run_bench("--workload", "tautology", "--quick", "--seed", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert list(res["metrics"]) == list(tracing.UNITS)
    assert res["metrics"]["trace.overhead"]["value"] > 0
    assert res["metrics"]["logic.evaluations"]["value"] > 0
