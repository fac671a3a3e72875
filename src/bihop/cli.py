"""Command-line front end.

Subcommands:
  benchmark   multi-run evaluation of the configured scorers and datasets
  generate    write a synthetic bipartite edge list (ER or planted blocks)
  diagnose    calibration diagnostics for one dataset
  split       materialize a train/val/test split file for one dataset

Failures print a one-line JSON error record (error, message, notes) to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .data import DatasetSpec, generate_bipartite_er, generate_bipartite_sbm, load_dataset, write_edge_list
from .harness import (
    BenchmarkConfig,
    diagnose,
    format_diagnostics,
    load_config,
    run_benchmark,
)
from .splits import save_split, split_edges


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihop",
        description="Bipartite link prediction benchmarks (two-hop scoring and baselines).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("benchmark", help="run the multi-run benchmark")
    bench.add_argument("--config", help="JSON config file (see harness.config_from_dict)")
    bench.add_argument("--runs", type=int, help="override the number of runs")
    bench.add_argument("--seed", type=int, help="override the base seed")
    bench.add_argument(
        "--dataset", action="append", default=None, metavar="ID",
        help="replace the dataset list (repeatable)",
    )
    bench.add_argument(
        "--method", action="append", default=None, metavar="KIND",
        help="replace the scorer list (repeatable)",
    )
    bench.add_argument("--data-dir", help="directory searched for <id>.edges files")
    bench.add_argument("--out-dir", help="write results.csv and results_summary.csv here")

    gen = sub.add_parser("generate", help="write a synthetic bipartite edge list")
    gen.add_argument("--model", choices=("er", "sbm"), required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-left", type=int, help="er: left partition size")
    gen.add_argument("--n-right", type=int, help="er: right partition size")
    gen.add_argument("--p", type=float, help="er: edge probability")
    gen.add_argument("--left-sizes", help="sbm: comma-separated block sizes, e.g. 25,25,25,25")
    gen.add_argument("--right-sizes", help="sbm: comma-separated block sizes")
    gen.add_argument("--p-in", type=float, help="sbm: within-block edge probability")
    gen.add_argument("--p-out", type=float, help="sbm: cross-block edge probability")

    diag = sub.add_parser("diagnose", help="calibration diagnostics for one dataset")
    diag.add_argument("--dataset", required=True, metavar="ID")
    diag.add_argument("--config", help="JSON config file")
    diag.add_argument("--seed", type=int, help="split seed (default: config base seed)")
    diag.add_argument("--data-dir", help="directory searched for <id>.edges files")

    spl = sub.add_parser("split", help="write a train/val/test split file")
    spl.add_argument("--dataset", required=True, metavar="ID")
    spl.add_argument("--seed", type=int, required=True)
    spl.add_argument("--out", required=True)
    spl.add_argument("--config", help="JSON config file (for ratios and dataset sources)")
    spl.add_argument("--data-dir", help="directory searched for <id>.edges files")

    return parser


def _load_cli_config(args) -> BenchmarkConfig:
    config = load_config(args.config) if getattr(args, "config", None) else BenchmarkConfig()
    overrides = {}
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    if getattr(args, "seed", None) is not None:
        overrides["base_seed"] = args.seed
    if args.command == "benchmark" and args.dataset:  # split and diagnose pick theirs from the config
        overrides["datasets"] = tuple(args.dataset)
    if getattr(args, "method", None):
        overrides["scorers"] = tuple(args.method)
    if getattr(args, "out_dir", None):
        overrides["out_dir"] = args.out_dir
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _resolve_spec(dataset_id: str, config: BenchmarkConfig) -> DatasetSpec:
    return next((s for s in config.datasets if s.id == dataset_id), DatasetSpec(id=dataset_id))


def _cmd_benchmark(args) -> int:
    config = _load_cli_config(args)
    if not config.datasets:
        raise ValueError("no datasets selected; pass --dataset or a config file")
    summary = run_benchmark(config, data_dir=args.data_dir)
    print(summary.table())
    return 0


def _parse_sizes(text: str, flag: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except (ValueError, AttributeError):
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}")


def _cmd_generate(args) -> int:
    if args.model == "er":
        for flag, value in (("--n-left", args.n_left), ("--n-right", args.n_right), ("--p", args.p)):
            if value is None:
                raise ValueError(f"generate --model er requires {flag}")
        g = generate_bipartite_er(args.n_left, args.n_right, args.p, args.seed)
    else:
        for flag, value in (
            ("--left-sizes", args.left_sizes), ("--right-sizes", args.right_sizes),
            ("--p-in", args.p_in), ("--p-out", args.p_out),
        ):
            if value is None:
                raise ValueError(f"generate --model sbm requires {flag}")
        g = generate_bipartite_sbm(
            _parse_sizes(args.left_sizes, "--left-sizes"),
            _parse_sizes(args.right_sizes, "--right-sizes"),
            args.p_in, args.p_out, args.seed,
        )
    write_edge_list(g, args.out)
    print(f"wrote {g.m} edges ({g.n_left}+{g.n_right} nodes) to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    config = _load_cli_config(args)
    spec = _resolve_spec(args.dataset, config)
    g = load_dataset(spec, data_dir=args.data_dir)
    bundle = diagnose(g, config, dataset_id=spec.id, seed=args.seed)
    print(format_diagnostics(bundle))
    return 0


def _cmd_split(args) -> int:
    config = _load_cli_config(args)
    spec = _resolve_spec(args.dataset, config)
    g = load_dataset(spec, data_dir=args.data_dir)
    split = split_edges(g, config.ratios, args.seed)
    save_split(split, args.out)
    print(
        f"wrote split of {spec.id} (train={len(split.train_edges)}, "
        f"val={len(split.val_pos)}, test={len(split.test_pos)}) to {args.out}"
    )
    return 0


_COMMANDS = {
    "benchmark": _cmd_benchmark,
    "generate": _cmd_generate,
    "diagnose": _cmd_diagnose,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "notes": list(getattr(exc, "__notes__", ())),
        }
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
