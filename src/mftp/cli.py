"""Command-line entry points: train, predict, eval.

    mftp train   --out DIR [--config PATH] [--seed INT]
    mftp predict --checkpoint DIR --scenarios PATH --out PATH
    mftp eval    (--checkpoint DIR | --predictions PATH) --scenarios PATH
                 [--k INT] [--miss-threshold FLOAT] [--per-target-csv PATH]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import Config, load_config
from .data import load_scenarios, write_text
from .metrics import DEFAULT_MISS_THRESHOLD, evaluate_model, evaluate_predictions
from .prediction_io import load_predictions, write_predictions
from .training import load_checkpoint, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mftp",
        description="Map-free multi-agent trajectory prediction "
                    "(frequency-band experts + selective attention)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save a checkpoint")
    p_train.add_argument("--config", type=str, default=None,
                         help="JSON config path (defaults to the desk-scale config)")
    p_train.add_argument("--out", type=str, required=True,
                         help="output directory for checkpoint and log")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override training.seed")

    p_pred = sub.add_parser("predict", help="write predictions for a scenario file")
    p_pred.add_argument("--checkpoint", type=str, required=True)
    p_pred.add_argument("--scenarios", type=str, required=True)
    p_pred.add_argument("--out", type=str, required=True,
                        help="output predictions JSON path")

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint", type=str)
    src.add_argument("--predictions", type=str)
    p_eval.add_argument("--scenarios", type=str, required=True)
    p_eval.add_argument("--k", type=int, default=5)
    p_eval.add_argument("--miss-threshold", type=float, default=DEFAULT_MISS_THRESHOLD)
    p_eval.add_argument("--per-target-csv", type=str, default=None)
    return parser


def cmd_train(args) -> int:
    config = load_config(args.config) if args.config else Config()
    if args.seed is not None:
        config.training.seed = args.seed
    result = train(config, out_dir=args.out, log=print, config_path=args.config)
    if result.last_report is not None:
        print(f"final_total={result.last_report.total!r}")
    return 0


def cmd_predict(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    records = model.predict_scenarios(load_scenarios(args.scenarios))
    write_predictions(args.out, records)
    print(f"wrote {len(records)} prediction records to {args.out}")
    return 0


def cmd_eval(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    if args.predictions:
        report = evaluate_predictions(load_predictions(args.predictions), scenarios,
                                      k=args.k, threshold=args.miss_threshold)
    else:
        report = evaluate_model(load_checkpoint(args.checkpoint)[0], scenarios,
                                k=args.k, threshold=args.miss_threshold)
    print(report.to_text())
    if args.per_target_csv:
        write_text(args.per_target_csv, report.per_target_csv())
        print(f"per_target_csv={args.per_target_csv}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Train, predict and eval each refuse a non-finite result by name, so the
        # overflow numpy meets on the way would only print ahead of that refusal.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "train":
                return cmd_train(args)
            if args.command == "predict":
                return cmd_predict(args)
            return cmd_eval(args)
    except (ValueError, OSError) as exc:      # ConfigError and ScenarioFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
