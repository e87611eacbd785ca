"""Command line entry point: run sweeps, validate configs, show version.

Exit codes: 0 success, 1 configuration problem (including bad flags and
output paths that cannot be written), 2 runtime failure inside a
simulation run.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Optional

from . import __version__
from .config import config_json, load_config
from .errors import ConfigError, VanetSimError
from .metrics import csv_text, plot_data_texts
from .runner import run_sweep, sweep_tracks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetsim",
        description="Deterministic simulator for vehicular message dissemination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured density/seed sweep")
    run_p.add_argument("--config", required=True, help="scenario JSON path")
    run_p.add_argument("--out", help="metrics CSV path (default: stdout)")
    run_p.add_argument(
        "--plot-data",
        metavar="DIR",
        help="also write per-(protocol, metric) two-column data files",
    )
    run_p.add_argument(
        "--event-log",
        metavar="PATH",
        help="write the full event log (forces serial execution)",
    )
    run_p.add_argument(
        "--workers", type=int, default=1, help="parallel runs (default: 1)"
    )

    val_p = sub.add_parser("validate", help="parse, validate and echo a config")
    val_p.add_argument("--config", required=True, help="scenario JSON path")

    sub.add_parser("version", help="print the package version")
    return parser


@contextmanager
def _writing(flag: str, path: str):
    """An OSError inside the block becomes a config error naming the flag and the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from None


def _check_outputs(args) -> None:
    """Refuse output paths that cannot be written before any run starts:
    a file must not be a directory and its directory must exist, and the
    plot directory is made here."""
    for flag, path in (("--out", args.out), ("--event-log", args.event_log)):
        if not path:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{flag} {path}: directory does not exist")
    if args.plot_data:
        with _writing("--plot-data", args.plot_data):
            os.makedirs(args.plot_data, exist_ok=True)


def _write_event_log(path: str, logs) -> None:
    with _writing("--event-log", path), open(path, "w", encoding="utf-8") as fh:
        for ident, lines in logs:
            fh.write(f"# run {ident}\n")
            for line in lines:
                fh.write(line + "\n")


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; fold usage
        # problems into the config-error exit code.
        return 0 if not exc.code else 1

    try:
        if args.command == "version":
            print(__version__)
            return 0
        cfg = load_config(args.config)
        if args.command == "validate":
            # a trace is read and checked as run reads it, so a bad one fails here too
            sweep_tracks(cfg)
            print(config_json(cfg))
            return 0
        if args.workers < 1:
            raise ConfigError("--workers: must be at least 1")
        _check_outputs(args)
        collect_logs = args.event_log is not None
        summaries, logs = run_sweep(cfg, workers=args.workers, collect_logs=collect_logs)
        text = csv_text(summaries)
        if args.out:
            with _writing("--out", args.out), open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.plot_data:
            for name, body in sorted(plot_data_texts(summaries).items()):
                path = os.path.join(args.plot_data, name)
                with _writing("--plot-data", path), open(path, "w", encoding="utf-8") as fh:
                    fh.write(body)
        if collect_logs and logs is not None:
            _write_event_log(args.event_log, logs)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VanetSimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
