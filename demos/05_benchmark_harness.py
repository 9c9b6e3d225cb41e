"""Drive the experiment harness: a recovery-probability sweep over sparsity
levels, the active-set evolution of one continuation run, and a timing table.
The same configurations run through the `l0kit` CLI (see README): `sweep`
prints the two tables, `solve` prints the per-step records."""

from l0kit.harness import (ExperimentConfig, make_instance, records_csv, run_sweep,
                           sweep_table_csv)

sweep_config = ExperimentConfig.from_json({
    "matrix": {"kind": "gaussian", "n": 200, "p": 400},
    "signal": {"T_values": [20, 40, 60], "R": 100.0},
    "sigma": 1e-3,
    "trials": 10,
    "seed": 99,
    "solvers": [{"name": "pdasc", "N": 80, "J_max": 5}, {"name": "omp"}],
})

print("=== recovery-probability sweep ===")
result = run_sweep(sweep_config)
print(sweep_table_csv(result["aggregates"]))

print("=== active-set evolution (first instance, per-step records) ===")
trace_config = ExperimentConfig.from_json({
    "matrix": {"kind": "gaussian", "n": 200, "p": 400},
    "signal": {"T": 40, "R": 100.0},
    "sigma": 1e-3,
    "trials": 1,
    "seed": 99,
    "solvers": [{"name": "pdasc", "N": 80, "J_max": 5}],
})
_, run = trace_config.runner(0)
inst, _ = make_instance(trace_config, 40, trial=0)
print(records_csv(run(inst)))

print("=== timing table (median time and errors per solver) ===")
bench_config = ExperimentConfig.from_json({
    "matrix": {"kind": "gaussian", "n": 200, "p": 800},
    "signal": {"T": 60, "R": 1000.0},
    "sigma": 1e-2,
    "trials": 5,
    "seed": 123,
    "solvers": [{"name": "pdasc", "N": 50, "J_max": 1}, {"name": "omp"},
                {"name": "htp"}, {"name": "cosamp"}],
})
print(sweep_table_csv(run_sweep(bench_config)["aggregates"]))
