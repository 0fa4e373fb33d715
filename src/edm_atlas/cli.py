"""Command-line entry point.

Subcommands: fixtures, extract, cluster, sweep, profile, plot. Flags
override values from an optional flat key=value ``--config`` file. The
log level comes from the ``EDM_ATLAS_LOG`` environment variable
(error|warn|info|debug, default warn); at info, each run logs its stage
and wall time to stderr when the stage ends.

Exit codes: 0 success, 1 partial success (some tracks failed), 2
configuration error, 3 fatal stage error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import fields

from .pipeline import (
    ConfigError,
    RunConfig,
    build_config,
    cmd_cluster,
    cmd_extract,
    cmd_fixtures,
    cmd_plot,
    cmd_profile,
    cmd_sweep,
)

logger = logging.getLogger(__name__)

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    level = LOG_LEVELS.get(os.environ.get("EDM_ATLAS_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_common(sub: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--manifest", help="track manifest CSV")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help=f"root seed (default {defaults.seed})")
    sub.add_argument("--k", type=int, help=f"fixed cluster count (default {defaults.k})")
    sub.add_argument("--k-min", type=int, dest="k_min", help=f"sweep lower bound (default {defaults.k_min})")
    sub.add_argument("--k-max", type=int, dest="k_max", help=f"sweep upper bound (default {defaults.k_max})")
    sub.add_argument("--restarts", type=int, help=f"k-means restarts (default {defaults.restarts})")
    sub.add_argument("--method", choices=["kmeans", "divisive", "both"], help="clustering method")
    sub.add_argument("--embeddings", help="precomputed embedding CSV (skips selection)")
    sub.add_argument("--top-k", type=int, dest="top_k", help=f"features cluster keeps (default {defaults.top_k})")
    sub.add_argument(
        "--workers",
        type=int,
        help=(
            "worker processes for extract's tracks, the selection forests' trees, the cluster "
            "bootstrap's resamples and the sweep's ks (default: the CPUs this process may use); "
            "each extraction process also runs one helper thread during its STFT"
        ),
    )
    sub.add_argument("--labels", help="labels CSV for profile/plot stages")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edm-atlas",
        description="Acoustic feature extraction and unsupervised genre-structure analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fx = subs.add_parser("fixtures", help="synthesize labeled test audio + manifest")
    fx.add_argument("--out", required=True, help="directory for WAVs and manifest.csv")
    fx.add_argument("--seed", type=int, default=0)
    fx.add_argument("--tracks-per-genre", type=int, default=10, dest="per_genre")
    fx.add_argument("--duration", type=float, default=12.0, help="seconds per track")

    for name, descr in (
        ("extract", "extract the feature matrix from manifest audio"),
        ("cluster", "select features, cluster at fixed k, evaluate"),
        ("sweep", "discover the natural cluster count over a k range"),
        ("profile", "six-dimension cluster profiles + radar SVGs"),
        ("plot", "PCA scatter of the clustering space"),
    ):
        _add_common(subs.add_parser(name, help=descr))
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    code = _run(args)
    logger.info("stage %s: %.3f s, exit %d", args.command, time.perf_counter() - started, code)
    return code


def _run(args: argparse.Namespace) -> int:
    """Run the stage ``args`` names; its exit code."""
    try:
        if args.command == "fixtures":
            manifest = cmd_fixtures(
                args.out, per_genre=args.per_genre, duration=args.duration, seed=args.seed
            )
            print(f"manifest={manifest}")
            return 0

        overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        cfg = build_config(args.config, overrides)

        if args.command == "extract":
            _, failed = cmd_extract(cfg)
            if failed:
                print(f"failed tracks: {','.join(failed)}", file=sys.stderr)
                return 1
            return 0
        {"cluster": cmd_cluster, "sweep": cmd_sweep, "profile": cmd_profile, "plot": cmd_plot}[args.command](cfg)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fatal stage failure
        logger.error("stage failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
