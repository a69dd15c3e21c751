"""Command-line interface.

    psbp <render|reconstruct|evaluate|conditioning> --config cfg.json
         [--out DIR] [--method NAME]

Flags override the corresponding config fields.  Exit codes: 0 on success
(and for --help), 1 on usage, configuration and validation errors, 2 on
numerical failures.
"""

from __future__ import annotations

import argparse
import sys

from .config import MODES, load_config
from .core import ConfigError, NumericalError
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psbp",
        description="Photometric stereo with Blinn-Phong reflectance and a "
        "perspective camera: render, reconstruct, evaluate, conditioning.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(MODES))
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} stage")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--method", default=None, help="override the reconstruction method")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    overrides = {"mode": args.mode, "out": args.out, "method": args.method}
    try:
        cfg = load_config(args.config, overrides)
        payload = run_pipeline(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"psbp: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"psbp: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"psbp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = ", ".join(
        f"{k}={payload[k]}" for k in ("method", "mse_normalized", "solved_pixels")
        if k in payload
    )
    print(f"psbp: {args.mode} ok -> {cfg.out}" + (f" ({summary})" if summary else ""))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
