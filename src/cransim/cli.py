"""Command-line interface.

Subcommands:
  run            run an experiment from a JSON config
  emit-plots     reshape result files into plot-ready series CSVs
  validate       check a config without running anything

Exit codes: 0 success, 2 invalid config, 3 I/O failure, 4 result-schema
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    ConfigError,
    SchemaError,
    emit_plot_data,
    load_config,
    run,
    validate_config,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cransim",
        description="Monte Carlo experiments for computationally constrained "
                    "centralized RAN uplinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_plots = sub.add_parser("emit-plots", help="emit plot-ready series files")
    p_plots.add_argument("--in", dest="in_dir", required=True)
    p_plots.add_argument("--out", dest="out_dir", required=True)

    p_val = sub.add_parser("validate", help="validate a config")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    if args.command == "run" and args.workers < 1:
        p_run.error("argument --workers: must be a positive integer")  # exits 2

    try:
        if args.command == "emit-plots":
            written = emit_plot_data(args.in_dir, args.out_dir)
            for path in written:
                print(path)
            return EXIT_OK
        cfg = load_config(args.config)
        if args.command == "validate":
            errors = validate_config(cfg)
            if errors:
                raise ConfigError(errors)
            print("config ok")
            return EXIT_OK
        if args.seed is not None:
            cfg["seed"] = args.seed
        manifest = run(cfg, workers=args.workers)
        print(json.dumps(manifest, indent=2, sort_keys=True))
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
