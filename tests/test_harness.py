import csv
import io
import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

import l0kit.harness as harness_module
from l0kit import SolverConfig, pdasc, psnr, relative_l2, abs_linf, exact_support
from l0kit.harness import (ConfigError, ExperimentConfig, make_instance, records_csv,
                           run_sweep, rows_csv, sweep_table_csv)


def small_config(**overrides):
    doc = {
        "matrix": {"kind": "gaussian", "n": 30, "p": 60},
        "signal": {"T": 4, "R": 10.0},
        "sigma": 1e-3,
        "trials": 3,
        "seed": 77,
        "solvers": [{"name": "pdasc", "N": 60, "J_max": 3}, {"name": "omp"}],
    }
    doc.update(overrides)
    return ExperimentConfig.from_json(doc)


def counting_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


# ---------------------------------------------------------------------- metrics

def test_psnr_exact_reconstruction_is_infinite():
    x = np.array([1.0, -2.0, 0.0])
    assert psnr(x, x) == math.inf


def test_psnr_direct_substitution():
    # V = 1, MSE = 1e-5 -> 50 dB
    x_ref = np.zeros(10)
    x_ref[0] = 1.0
    x_hat = x_ref.copy()
    x_hat[1:] += math.sqrt(1e-5 * 10 / 9)
    assert psnr(x_hat, x_ref) == pytest.approx(50.0, abs=1e-9)


def test_psnr_shape_check():
    with pytest.raises(ValueError):
        psnr(np.zeros(3), np.zeros(4))


def test_error_metrics():
    x_true = np.array([0.0, 2.0, 0.0, -1.0])
    x_hat = np.array([0.0, 2.5, 0.0, -1.0])
    assert relative_l2(x_hat, x_true) == pytest.approx(0.5 / np.sqrt(5))
    assert abs_linf(x_hat, x_true) == pytest.approx(0.5)
    assert exact_support(x_hat, [1, 3])
    assert not exact_support(x_hat, [1, 2])
    # magnitude is irrelevant: a tiny spurious nonzero breaks set equality
    x_hat[0] = 1e-300
    assert not exact_support(x_hat, [1, 3])


# ----------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(matrix={"kind": "dft", "n": 10, "p": 20})
    with pytest.raises(ConfigError):
        small_config(matrix={"kind": "gaussian", "n": 30, "p": 20})
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(signal={"T": 31, "R": 1.0})
    with pytest.raises(ConfigError):
        small_config(solvers=[])
    with pytest.raises(ConfigError):
        small_config(solvers=[{"name": "pdasc", "bogus_knob": 3}])
    with pytest.raises(ConfigError):
        small_config(solvers=[{"name": "unknown_solver"}])


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="trails"):
        small_config(trails=20)
    with pytest.raises(ConfigError, match=r"signal keys \['r'\]"):
        small_config(signal={"T": 3, "r": 100})
    with pytest.raises(ConfigError, match=r"matrix keys \['P', 'seed'\]"):
        small_config(matrix={"kind": "gaussian", "n": 30, "p": 60, "P": 60, "seed": 1})


def test_make_instance_is_deterministic():
    config = small_config()
    a, seed_a = make_instance(config, 4, trial=1)
    b, seed_b = make_instance(config, 4, trial=1)
    assert seed_a == seed_b == 78  # base + trial index
    assert a.y.tobytes() == b.y.tobytes()
    c, _ = make_instance(config, 4, trial=2)
    assert not np.array_equal(a.y, c.y)


# ------------------------------------------------------------------------ sweep

def test_sweep_trivial_instance_recovers():
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "partial_dct", "n": 16, "p": 16},
        "signal": {"T": 1, "R": 1.0},
        "sigma": 0.0,
        "trials": 1,
        "seed": 5,
        "solvers": [{"name": "pdasc", "N": 40, "J_max": 2}],
    })
    result = run_sweep(config)
    agg = result["aggregates"][0]
    assert agg["recovery_prob"] == 1.0
    assert agg["trials"] == 1


def test_sweep_rows_and_csv_layout():
    config = small_config()
    result = run_sweep(config, clock=counting_clock())
    rows = result["rows"]
    assert len(rows) == 2 * 3  # solvers x trials
    text = sweep_table_csv(result["aggregates"])
    header = text.splitlines()[0]
    assert header == "solver,T,R,sigma,trials,recovery_prob,med_rel_l2,med_abs_linf,med_time_s"
    assert len(text.splitlines()) == 1 + 2
    rows_text = rows_csv(rows)
    assert rows_text.splitlines()[0].startswith("solver,T,R,sigma,trial_seed,wall_time_s")


def test_sweep_deterministic_with_injected_clock():
    config = small_config()
    a = sweep_table_csv(run_sweep(config, clock=counting_clock())["aggregates"])
    b = sweep_table_csv(run_sweep(config, clock=counting_clock())["aggregates"])
    assert a == b


def test_sweep_survives_per_trial_solver_errors():
    # T above the OMP row budget fails inside the trial, recorded not raised
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "gaussian", "n": 10, "p": 20},
        "signal": {"T": 4, "R": 2.0},
        "sigma": 0.0,
        "trials": 2,
        "seed": 3,
        "solvers": [{"name": "omp", "T": 15}],
    })
    result = run_sweep(config)
    assert all(r.status == "error" and r.error for r in result["rows"])
    agg = result["aggregates"][0]
    assert agg["recovery_prob"] == 0.0
    assert agg["n_error"] == 2
    assert agg["status_counts"] == {"error": 2}


def shared_instance_config():
    # two entries share a label, so cells must be told apart by entry index
    return small_config(signal={"T_values": [3, 5], "R": 10.0}, solvers=[
        {"name": "pdasc", "N": 60, "J_max": 3, "label": "same"},
        {"name": "pdasc", "N": 60, "J_max": 3, "lsq_mode": "cg", "label": "same"},
        {"name": "omp"}, {"name": "htp"}, {"name": "aiht"}])


def test_sweep_builds_each_instance_once_and_leaves_it_untouched(monkeypatch):
    config = shared_instance_config()
    built = []

    def recording_make_instance(config, T, trial):
        inst, run_seed = make_instance(config, T, trial)
        built.append((inst, inst.y.tobytes()))
        return inst, run_seed

    captured = []
    solve = harness_module.pdasc

    def capturing_pdasc(op, y, config, truth=None):
        captured.append(y.tobytes())
        return solve(op, y, config, truth=truth)

    monkeypatch.setattr(harness_module, "make_instance", recording_make_instance)
    monkeypatch.setattr(harness_module, "pdasc", capturing_pdasc)
    rows = run_sweep(config)["rows"]
    assert len(built) == 2 * config.trials   # once per (T, trial), not per solver
    assert all(inst.y.tobytes() == y for inst, y in built)
    # every pdasc row ran through the module attribute, on a shared instance
    assert len(captured) == sum(r.solver == "same" for r in rows) == 2 * 2 * config.trials
    assert sorted(captured) == sorted(2 * [y for _, y in built])


def test_sweep_rows_match_a_fresh_instance_per_solver():
    config = shared_instance_config()
    result = run_sweep(config)
    reference = []
    for T in config.t_values():
        for label, run in config.runners:
            for trial in range(config.trials):
                inst, run_seed = make_instance(config, T, trial)
                report, x_true = run(inst), inst.truth.dense()
                x_hat = report.x_final
                reference.append({
                    "solver": label, "T": T, "R": config.dynamic_range,
                    "sigma": config.sigma, "trial_seed": run_seed,
                    "rel_l2": relative_l2(x_hat, x_true), "abs_linf": abs_linf(x_hat, x_true),
                    "exact_support": exact_support(x_hat, inst.truth.support),
                    "psnr_db": psnr(x_hat, x_true), "status": report.status,
                    "error": None})
    rows = [asdict(r) for r in result["rows"]]
    for row in rows:
        del row["wall_time_s"]
    assert rows == reference
    # aggregates in (T, entry) order, each over its own entry's rows
    assert len(result["aggregates"]) == 2 * 5
    for k, agg in enumerate(result["aggregates"]):
        cell = rows[k * config.trials:(k + 1) * config.trials]
        assert agg["solver"] == cell[0]["solver"] and agg["T"] == cell[0]["T"]
        assert agg["med_rel_l2"] == float(np.median([r["rel_l2"] for r in cell]))
        assert agg["n_error"] == 0
        assert sum(agg["status_counts"].values()) == config.trials


def test_config_parses_each_entry_once_outside_repr_and_compare():
    config = small_config()
    assert [label for label, _ in config.runners] == ["pdasc(60,3)", "omp"]
    assert "runners" not in repr(config)
    assert config == small_config()
    with pytest.raises(ConfigError):
        small_config(solvers=[{"name": "pdasc", "eps_bar": -1.0}])
    for index in (2, -1):
        with pytest.raises(ConfigError):
            config.runner(index)
    with pytest.raises(ConfigError):
        make_instance(config, 4, trial=-1)


# ------------------------------------------------ active-set records of a solve

def solve_first_trial(config):
    """What ``l0kit solve`` runs by default: solver entry 0 on trial 0."""
    _, run = config.runner(0)
    inst, _ = make_instance(config, config.t_values()[0], 0)
    return run(inst)


def test_trace_columns_and_noiseless_certified_run():
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "gaussian", "n": 256, "p": 512},
        "signal": {"T": 2, "R": 4.0},
        "sigma": 0.0,
        "trials": 1,
        "seed": 11,
        "solvers": [{"name": "pdasc", "N": 80, "J_max": 5}],
    })
    report = solve_first_trial(config)
    text = records_csv(report)
    assert text.splitlines()[0] == \
        "k,lambda,active_size,inner_iters,residual,overlap_true,excess_outside_true"
    # coherence is comfortably below 1/3 at this size, so the active set stays
    # inside the true support along the whole path
    assert all(r.excess_outside_true == 0 for r in report.records)
    assert report.status == "converged"


def test_trace_trivial_zero_data():
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "gaussian", "n": 12, "p": 24},
        "signal": {"T": 1, "R": 1.0},
        "sigma": 0.0,
        "trials": 1,
        "seed": 2,
        "solvers": [{"name": "pdasc", "N": 30, "J_max": 2, "eps_bar": 1e9}],
    })
    report = solve_first_trial(config)
    assert len(report.records) == 1  # discrepancy met at the first lambda


def _cell(value):
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def test_records_csv_cells_are_the_json_records():
    config = small_config(solvers=[
        {"name": "pdasc", "N": 60, "J_max": 3},
        {"name": "pdasc", "N": 60, "J_max": 3, "lsq_mode": "cg"},
        {"name": "omp"}, {"name": "aiht"}])
    inst, _ = make_instance(config, 4, trial=0)
    reports = [run(inst) for _, run in config.runners]
    reports.append(pdasc(inst.operator, inst.y, SolverConfig(eps_bar=inst.noise_level)))
    tables = []
    for report in reports:
        records = report.to_json()["records"]
        rows = list(csv.DictReader(io.StringIO(records_csv(report))))
        assert len(rows) == len(records) > 0
        for row, rec in zip(rows, records):
            assert row == {key: _cell(value) for key, value in rec.items() if key != "solves"}
        tables.append(rows)
    assert all(row["overlap_true"] != "" for rows in tables[:4] for row in rows)
    assert all(row["lambda"] == "nan" for row in tables[3])  # aiht has no lambda path
    # without truth the overlap cells are empty
    assert all(row["overlap_true"] == row["excess_outside_true"] == "" for row in tables[4])


# ----------------------------------------------------- timing table of a sweep

def test_bench_coarser_continuation_is_cheaper():
    # the same instances solved with a 2x finer grid and 5x inner budget cost
    # strictly more wall time
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "gaussian", "n": 300, "p": 600},
        "signal": {"T": 60, "R": 100.0},
        "sigma": 1e-2,
        "trials": 5,
        "seed": 31,
        "solvers": [{"name": "pdasc", "N": 50, "J_max": 1, "label": "coarse"},
                    {"name": "pdasc", "N": 100, "J_max": 5, "label": "fine"}],
    })
    table = {row["solver"]: row for row in run_sweep(config)["aggregates"]}
    assert table["coarse"]["med_time_s"] < table["fine"]["med_time_s"]
    assert table["coarse"]["med_rel_l2"] < 1e-2  # both recover; coarse is enough


def test_bench_table_shape_and_speed_on_trivial_instance():
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "partial_dct", "n": 32, "p": 32},
        "signal": {"T": 2, "R": 2.0},
        "sigma": 0.0,
        "trials": 2,
        "seed": 21,
        "solvers": [{"name": "pdasc", "N": 40, "J_max": 2}, {"name": "omp"},
                    {"name": "htp"}, {"name": "cosamp"}, {"name": "aiht"}],
    })
    table = run_sweep(config)["aggregates"]
    text = sweep_table_csv(table)
    assert text.splitlines()[0] == \
        "solver,T,R,sigma,trials,recovery_prob,med_rel_l2,med_abs_linf,med_time_s"
    assert len(table) == 5
    assert all(row["med_time_s"] < 1.0 for row in table)
    assert all(row["med_rel_l2"] <= 1e-8 for row in table)
