"""Checks of the benchmark itself: traced counts repeat for a seed, seeds
change the instances, and the correctness gate trips on corrupted output.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# every per-layer metric that is not a time: counts, computed work and ratios of counts
COUNTED = [k for k, unit in LAYER_METRICS.items() if unit != "s"]

# a layer each workload must exercise
EXERCISED = {
    "paper-gauss": ["lsq.solve_direct.calls", "problem.gen_sparse_signal.self_s"],
    "dct-direct": ["operators.columns.cols", "lsq.solve_direct.calls"],
    "dct-cg": ["lsq.solve_cg.calls", "operators.apply.calls"],
    "sweep-gauss": ["harness.make_instance.calls", "lsq.solve_cg.calls"]
                   + [f"baselines.{b}.calls" for b in ("omp", "htp", "cosamp", "iht")],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    runs = [workloads.run_traced(workloads.WORKLOADS[name], seed=3, seconds=1)
            for _ in range(2)]
    counts = []
    for tracer, plain, traced in runs:
        assert plain.failed == 0 and traced.failed == 0
        assert plain.attempted == traced.attempted > 0
        metrics = tracer.layer_metrics()
        assert all(metrics[k] > 0 for k in EXERCISED[name])
        assert all(span[2] is not None for span in tracer.spans)
        counts.append({k: metrics[k] for k in COUNTED})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_instances(name):
    w = workloads.WORKLOADS[name]
    a, again, b = w.first_instance(1), w.first_instance(1), w.first_instance(2)
    assert np.array_equal(a.y, again.y)
    assert np.array_equal(a.truth.support, again.truth.support)
    assert not np.array_equal(a.y, b.y)
    assert not np.array_equal(a.truth.support, b.truth.support)


def _solved(lsq_mode):
    inst = workloads.WORKLOADS["paper-gauss"].first_instance(5)
    pd = workloads.L0["pdasc"]
    cfg = pd.SolverConfig(eps_bar=inst.noise_level, lsq_mode=lsq_mode, **workloads.PDASC)
    report = pd.pdasc(inst.operator, inst.y, cfg)
    assert report.status == pd.CONVERGED
    return inst, cfg, report


@pytest.mark.parametrize("lsq_mode", ["direct", "cg"])
def test_gate_trips_on_corrupted_reports(lsq_mode):
    inst, cfg, report = _solved(lsq_mode)

    def gate(x):
        report.x_final = x
        return workloads.check_solve(inst.operator, inst.y, report, cfg.eps_bar, lsq_mode)

    good = report.x_final.copy()
    assert gate(good.copy()) == []
    nan = good.copy()
    nan[0] = np.nan
    assert gate(nan) == ["non-finite x_final"]
    scaled = good.copy()
    scaled[report.support_final[0]] *= 1.5
    assert gate(scaled)
    dropped = good.copy()
    dropped[report.support_final[0]] = 0.0
    assert gate(dropped)
    extra = good.copy()
    extra[np.flatnonzero(good == 0)[0]] = 1e-3   # below the threshold sqrt(2 lam)
    assert gate(extra)


def test_corrupted_solver_output_fails_the_run(monkeypatch, capsys):
    pd = workloads.L0["pdasc"]
    solve = pd.pdasc

    def corrupted(op, y, config, truth=None):
        report = solve(op, y, config, truth=truth)
        report.x_final = report.x_final.copy()
        report.x_final[report.support_final[0]] *= 1.5
        return report

    monkeypatch.setattr(pd, "pdasc", corrupted)
    code = run.main(["--workload", "paper-gauss", "--seed", "1", "--seconds", "0.3",
                     "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] > 0
