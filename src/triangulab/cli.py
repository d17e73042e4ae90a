"""Command-line entry point: ``triangulab run --config <file>`` and ``triangulab list``.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
error (an unusable ``output_dir`` or ``cache_dir`` included), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exceptions import TriangulabError
from .experiments import REGISTRY, ConfigError, ExperimentConfig, run_experiment


def _cmd_list() -> int:
    for name in sorted(REGISTRY):
        print(name)
    return 0


def _cmd_run(config_path: str) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_experiment(config)
    except (TriangulabError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a grid too large for the machine's memory
        print(f"numerical error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # output_dir or cache_dir cannot hold files
        print(f"config error: cannot use {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for check in summary.checks:
        state = "PASS" if check.passed else "FAIL"
        print(f"[{state}] {summary.experiment}/{check.name}: value={check.value:g} threshold={check.threshold:g}")
    print(f"artifacts written to {config.output_dir}")
    return 0 if summary.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="triangulab",
        description="Numerical laboratory for triangular operator spectra and symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config file")
    sub.add_parser("list", help="list registered experiments")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args.config)


if __name__ == "__main__":
    sys.exit(main())
