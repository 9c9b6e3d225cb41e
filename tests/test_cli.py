import json
import math

import pytest

from l0kit.cli import main
from l0kit.harness import ConfigError, ExperimentConfig


def config_doc(**overrides):
    doc = {
        "matrix": {"kind": "gaussian", "n": 24, "p": 48},
        "signal": {"T": 3, "R": 5.0},
        "sigma": 1e-3,
        "trials": 2,
        "seed": 9,
        "solvers": [{"name": "pdasc", "N": 50, "J_max": 3}, {"name": "omp"}],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc()))
    return path


def test_sweep_csv_output(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "solver,T,R,sigma,trials,recovery_prob,med_rel_l2,med_abs_linf,med_time_s"
    assert len(lines) == 3


def test_sweep_json_and_rows(config_path, tmp_path):
    out = tmp_path / "sweep.json"
    rows = tmp_path / "rows.csv"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--format", "json", "--rows", str(rows)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 2 and {"solver", "recovery_prob"} <= set(doc[0])
    assert rows.read_text().splitlines()[0].startswith("solver,")


def test_solve_and_trace_and_bench(config_path, tmp_path):
    solve_out = tmp_path / "solve.json"
    assert main(["solve", "--config", str(config_path), "--out", str(solve_out),
                 "--format", "json"]) == 0
    doc = json.loads(solve_out.read_text())
    assert doc["solver"] == "pdasc" and doc["records"]
    assert all(0 <= r["solves"] <= r["inner_iters"] for r in doc["records"])

    # the active-set evolution is the solve CSV; the timing table is the sweep's
    trace_out = tmp_path / "trace.csv"
    assert main(["solve", "--config", str(config_path), "--out", str(trace_out)]) == 0
    lines = trace_out.read_text().splitlines()
    assert lines[0] == "k,lambda,active_size,inner_iters,residual,overlap_true,excess_outside_true"
    assert len(lines) == len(doc["records"]) + 1

    bench_out = tmp_path / "bench.json"
    assert main(["sweep", "--config", str(config_path), "--out", str(bench_out),
                 "--format", "json"]) == 0
    table = json.loads(bench_out.read_text())
    assert [row["solver"] for row in table] == ["pdasc(50,3)", "omp"]
    assert all({"med_time_s", "med_rel_l2", "med_abs_linf"} <= set(row) for row in table)


def test_gen_writes_operator_and_instance(config_path, tmp_path):
    prefix = tmp_path / "inst"
    rc = main(["gen", "--config", str(config_path), "--out", str(prefix)])
    assert rc == 0
    assert (tmp_path / "inst.l0op").exists()
    assert (tmp_path / "inst.operator.csv").exists()  # csv is the default interop extra
    doc = json.loads((tmp_path / "inst.instance.json").read_text())
    assert set(doc) == {"p", "support", "values", "sigma", "eps", "seed"}

    from l0kit import load_operator_binary
    from l0kit.problem import instance_from_json

    op = load_operator_binary(tmp_path / "inst.l0op")
    inst = instance_from_json(doc, op)
    assert inst.y.shape == (24,)


def test_certify_reports_conditions(config_path, tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["certify", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {"nu", "T", "beta", "mip_conv_ok", "rho_interval"} <= set(doc)


def test_seed_override_changes_output(config_path, tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["solve", "--config", str(config_path), "--out", str(a), "--seed", "1"]) == 0
    assert main(["solve", "--config", str(config_path), "--out", str(b), "--seed", "2"]) == 0
    assert main(["solve", "--config", str(config_path), "--out", str(c), "--seed", "1"]) == 0
    assert a.read_text() == c.read_text()
    assert a.read_text() != b.read_text()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": {"kind": "nope", "n": 4, "p": 8},
                               "signal": {"T": 1, "R": 1.0}, "sigma": 0.0,
                               "trials": 1, "seed": 0, "solvers": [{"name": "omp"}]}))
    assert main(["sweep", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["sweep", "--config", str(missing)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["sweep", "--config", str(garbage)]) == 2


@pytest.mark.parametrize("command", ["sweep", "solve", "certify"])
@pytest.mark.parametrize("overrides", [
    {"sigma": math.nan},
    {"sigma": math.inf},
    {"signal": {"T": 3, "R": math.inf}},
    {"signal": {"T": 2.5, "R": 5.0}},
    {"signal": {"T_values": [], "R": 5.0}},
    {"signal": {"R": 5.0}},
    {"matrix": [1, 2]},
    {"trials": 1.5},
    {"seed": -1},
], ids=["sigma-nan", "sigma-inf", "R-inf", "T-2.5", "T_values-empty", "T-missing",
        "matrix-list", "trials-1.5", "seed-negative"])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, overrides, command):
    doc = config_doc(**overrides)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--solver-index", "2"],
    ["solve", "--solver-index", "-1"],
    ["solve", "--trial", "-1"],
    ["certify", "--trial", "-1"],
])
def test_bad_index_is_a_config_error(config_path, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--config", str(config_path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_capacity_error_exit_code(tmp_path):
    # certify computes exact pairwise coherence; p beyond the scan cap -> exit 3
    doc = {
        "matrix": {"kind": "gaussian", "n": 100, "p": 5100},
        "signal": {"T": 1, "R": 1.0},
        "sigma": 0.0,
        "trials": 1,
        "seed": 0,
        "solvers": [{"name": "omp"}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(path)]) == 3
