"""Command-line front end for the simulation pipeline.

Subcommands run the pipeline through the named stage (each stage implies
its prerequisites): generate, mesh, upscale, flow, transport, report, all.
A JSON config file provides the grid; individual flags override keys.
Exit codes: 0 on success, 1 on usage/config errors, and a per-stage code
(2 generate, 3 mesh, 4 upscale, 5 flow, 6 transport, 7 report) when grid
points failed, reporting the earliest failing stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

STAGE_EXIT_CODES = {
    "generate": 2, "mesh": 3, "upscale": 4, "flow": 5, "transport": 6, "report": 7,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracscale",
        description="Fracture network generation, continuum upscaling, and flow/transport.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("generate", "sample networks and write them with density metrics"),
        ("mesh", "generate, then build octree meshes and topology reports"),
        ("upscale", "mesh, then compute cell permeability/porosity fields"),
        ("flow", "upscale, then solve steady Darcy flow (k_eff)"),
        ("transport", "flow, then run tracers and write breakthrough curves"),
        ("all", "full pipeline including summary tables"),
        ("report", "rebuild summary tables from an existing manifest"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="JSON run configuration")
        cmd.add_argument("--out", help="output directory override")
        if name != "report":
            cmd.add_argument("--seed", type=int, action="append", help="seed override (repeatable)")
            cmd.add_argument("--orl", type=int, action="append", help="refinement level override")
            cmd.add_argument("--km", type=float, action="append", help="matrix permeability override")
            cmd.add_argument("--isolated", choices=("retained", "removed"),
                             help="single isolated-fracture mode")
    return parser


def _load_config(args):
    from .pipeline import RunConfig, load_config

    config = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if args.out:
        updates["output_dir"] = args.out
    if getattr(args, "seed", None):
        updates["seeds"] = tuple(args.seed)
    if getattr(args, "orl", None):
        updates["orls"] = tuple(args.orl)
    if getattr(args, "km", None):
        updates["k_m"] = tuple(args.km)
    if getattr(args, "isolated", None):
        updates["isolated_modes"] = (args.isolated,)
    return dataclasses.replace(config, **updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    from .pipeline import STAGES, report_tables, run_pipeline

    try:
        if args.command == "report":
            import json
            from pathlib import Path

            out = Path(args.out) if args.out else Path(".")
            manifest_path = out / "manifest.json"
            if not manifest_path.exists():
                print(f"no manifest at {manifest_path}", file=sys.stderr)
                return 1
            with open(manifest_path, "r", encoding="utf-8") as fh:
                report_tables(json.load(fh), out)
            return 0

        config = _load_config(args)
        upto = "report" if args.command == "all" else args.command
        manifest = run_pipeline(config, upto=upto)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = manifest["failures"]
    if failures:
        stages = [f["stage"] for f in failures]
        first = min(stages, key=STAGES.index)
        print(f"{len(failures)} grid point(s) failed; earliest stage: {first}", file=sys.stderr)
        return STAGE_EXIT_CODES[first]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
