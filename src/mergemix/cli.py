"""Command-line front end.

Subcommands: pipeline, theory, consistency, cost, export-heatmap. Exit
codes: 0 success, 1 pipeline failure (partial artifacts kept, no
manifest), 2 invalid configuration, usage or surface file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import RunConfig, load_config
from .errors import ConfigError, MergeMixError, SurfaceFileError


def _common_flags(parser: argparse.ArgumentParser, need_config: bool) -> None:
    parser.add_argument("--config", required=need_config,
                        help="path to the run configuration JSON")
    parser.add_argument("--out", required=True,
                        help="output directory for run artifacts")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's global seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergemix",
        description=(
            "Optimize data mixtures by searching over merged expert models: "
            "train domain experts once, map the merge-weight performance "
            "surface, and pick the utility-maximizing mixture."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline",
                       help="full run: train experts, sample, fit, search, verify")
    _common_flags(p, need_config=True)

    p = sub.add_parser("theory",
                       help="second-order diagnostics: scaling check, "
                            "discrepancy sweep, curvature and cosine matrices")
    _common_flags(p, need_config=True)

    p = sub.add_parser("consistency",
                       help="rank-consistency experiment: merged vs trained mixtures")
    _common_flags(p, need_config=True)

    p = sub.add_parser("cost", help="cost accounting for mixture-search strategies")
    p.add_argument("--entries", default=None,
                   help="JSON file with cost rows (default: packaged reference table)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("export-heatmap",
                       help="dump predicted scores over the simplex lattice as CSV")
    p.add_argument("--surface", required=True, help="path to surface.model.json")
    p.add_argument("--capability", default="utility",
                   help="capability index, capability name, or 'utility'")
    p.add_argument("--resolution", type=float, default=0.05,
                   help="lattice resolution (default 0.05)")
    p.add_argument("--top-percent", type=float, nargs="?", const=15.0,
                   default=None,
                   help="keep only the best rows (default 15%% when given "
                        "without a value)")
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pipeline":
            from .pipeline import run_pipeline

            run_dir = run_pipeline(_load(args), args.out)
            print(f"pipeline complete: {run_dir}")
        elif args.command == "theory":
            from .pipeline import run_theory

            run_dir = run_theory(_load(args), args.out)
            print(f"theory reports written: {run_dir}")
        elif args.command == "consistency":
            from .pipeline import run_consistency

            cfg = _load(args)
            if not cfg.consistency_ratios:
                print("usage: mergemix consistency --config CONFIG --out DIR, "
                      "where CONFIG carries a non-empty 'consistency.ratios' "
                      "list", file=sys.stderr)
                return 2
            run_dir, rho = run_consistency(cfg, args.out)
            print(f"rank consistency rho = {rho}")
            print(f"reports written: {run_dir}")
        elif args.command == "cost":
            from .pipeline import run_cost

            path, report = run_cost(args.entries, args.out)
            for row in report["rows"]:
                print(f"{row['method']}: equivalent {row['equivalent_cost']}, "
                      f"relative {row['relative_label']}")
            print(f"report written: {path}")
        elif args.command == "export-heatmap":
            from .pipeline import export_heatmap

            path = export_heatmap(args.surface, args.capability,
                                  args.resolution, args.out,
                                  top_percent=args.top_percent)
            print(f"heatmap data written: {path}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SurfaceFileError as exc:
        print(f"surface error: {exc}", file=sys.stderr)
        return 2
    except MergeMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
