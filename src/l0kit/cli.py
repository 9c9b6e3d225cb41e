"""Command-line driver. gen writes a configured instance; solve prints one
solver's per-step records (the active set along the path); sweep prints the
recovery, error and timing table; certify prints an instance's certificate.

Exit codes: 0 success, 2 configuration error, 3 capacity error (an exact scan
or enumeration beyond its size cap).
"""

import argparse
import json
import sys

from .harness import (ConfigError, ExperimentConfig, certify_instance, make_instance,
                      records_csv, rows_csv, run_sweep, sweep_table_csv)
from .operators import save_operator_binary, save_operator_csv
from .problem import instance_to_json, write_json
from .theory import CapacityError


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3


def build_parser():
    parser = argparse.ArgumentParser(prog="l0kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = _add_command(sub, "gen", "generate an operator and instance from a config")
    gen.set_defaults(func=cmd_gen)

    solve = _add_command(sub, "solve", "solve one configured instance with one solver")
    solve.add_argument("--solver-index", type=int, default=0)
    solve.add_argument("--trial", type=int, default=0)
    solve.set_defaults(func=cmd_solve)

    sweep = _add_command(sub, "sweep", "recovery-probability sweep over (T, solver, trial)")
    sweep.add_argument("--rows", help="also write the per-trial rows to this path")
    sweep.set_defaults(func=cmd_sweep)

    cert = _add_command(sub, "certify", "theory certificate for one configured instance")
    cert.add_argument("--rho", type=float, default=None)
    cert.add_argument("--trial", type=int, default=0)
    cert.set_defaults(func=cmd_certify)

    return parser


def _add_command(sub, name, help_text):
    cmd = sub.add_parser(name, help=help_text)
    cmd.add_argument("--config", required=True, help="experiment config JSON path")
    cmd.add_argument("--seed", type=int, default=None, help="override the config base seed")
    cmd.add_argument("--out", default=None, help="output path (stdout when omitted)")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return cmd


def _load_config(args, need_solvers=True):
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.seed is not None:
        doc["seed"] = args.seed
    if not need_solvers:
        doc.setdefault("solvers", [{"name": "pdasc"}])
    return ExperimentConfig.from_json(doc)


def _emit(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args):
    config = _load_config(args, need_solvers=False)
    inst, _run_seed = make_instance(config, config.t_values()[0], 0)
    base = args.out or "instance"
    save_operator_binary(inst.operator, base + ".l0op")
    if args.format == "csv":
        save_operator_csv(inst.operator, base + ".operator.csv")
    write_json(instance_to_json(inst), base + ".instance.json")
    print(f"wrote operator and instance with prefix {base}", file=sys.stderr)
    return 0


def cmd_solve(args):
    config = _load_config(args)
    _, run = config.runner(args.solver_index)
    inst, _ = make_instance(config, config.t_values()[0], args.trial)
    report = run(inst)
    if args.format == "json":
        return _emit(json.dumps(report.to_json(), indent=2) + "\n", args)
    return _emit(records_csv(report), args)


def cmd_sweep(args):
    config = _load_config(args)
    result = run_sweep(config)
    if args.rows:
        with open(args.rows, "w") as fh:
            fh.write(rows_csv(result["rows"]))
    if args.format == "json":
        return _emit(json.dumps(result["aggregates"], indent=2) + "\n", args)
    return _emit(sweep_table_csv(result["aggregates"]), args)


def cmd_certify(args):
    # certificates are nested records; emitted as JSON regardless of --format
    config = _load_config(args, need_solvers=False)
    cert = certify_instance(config, trial=args.trial, rho=args.rho)
    return _emit(json.dumps(cert.to_json(), indent=2) + "\n", args)


if __name__ == "__main__":
    sys.exit(main())
