"""Command-line interface.

Subcommands: parse, validate-data, pretrain, finetune, predict, assign,
eval, export. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric or convergence failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .assign import (
    MatchSettings, MatchingError, config_from_json, ingest_peaks, is_integer, pseudo_annotate,
)
from .dataio import (
    KINDS,
    CheckpointError,
    DataFormatError,
    load_checkpoint,
    load_dataset,
    normalize_solvent,
    parse_json,
    save_checkpoint,
    scan_dataset,
    verify_checkpoint_config,
)
from .evaluate import SOLVENT_MODES, evaluate, export_overlay
from .model import ModelConfig, prepare_molecule
from .molgraph import graph_to_dict
from .smiles import SmilesParseError, canonical_smiles
from .train import (
    ConvergenceError,
    TrainConfig,
    finetune_unsupervised,
    mtt_pretrain,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsqcnet", description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="override every configured seed")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with model/train/match sections")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress and training logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a SMILES and dump the graph")
    p.add_argument("smiles")

    p = sub.add_parser("validate-data", help="per-record dataset diagnostics")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--kind", choices=KINDS, required=True)

    for name in ("pretrain", "finetune"):
        p = sub.add_parser(name, help=f"{name} and write a checkpoint")
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--checkpoint-out", type=Path, required=True)
        p.add_argument("--resume", action="store_true",
                       help="continue from an existing --checkpoint-out")
        if name == "finetune":  # pre-training validates on train.validation_split
            p.add_argument("--val", type=Path, default=None,
                           help="HSQC validation set")
            p.add_argument("--checkpoint", type=Path, required=True,
                           help="pre-trained starting point")

    p = sub.add_parser("predict", help="print predicted cross peaks as JSON")
    p.add_argument("smiles")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--solvent", default=None)

    p = sub.add_parser("assign", help="match predictions to an observed peak list")
    p.add_argument("smiles")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--solvent", default=None)
    p.add_argument("--peaks", required=True,
                   help="JSON array of [dC, dH] pairs, or a path to one")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("eval", help="score against expert annotations")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--test", type=Path, required=True)
    p.add_argument("--solvent-mode", choices=SOLVENT_MODES, default="true")

    p = sub.add_parser("export", help="write an overlay (SVG or CSV)")
    p.add_argument("smiles")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--solvent", default=None)
    p.add_argument("--peaks", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("svg", "csv"), default=None)
    return parser


def _load_config(args) -> tuple[ModelConfig, TrainConfig, MatchSettings]:
    raw = _read_json_file(args.config) if args.config is not None else {}
    seed = {} if args.seed is None else {"seed": args.seed}
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        names = ("model", "train", "match")
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise ValueError(f"unknown config section(s) {unknown}; expected {list(names)}")
        return (
            config_from_json(ModelConfig, raw.get("model", {}), "model", **seed),
            config_from_json(TrainConfig, raw.get("train", {}), "train", **seed),
            config_from_json(MatchSettings, raw.get("match", {}), "match"),
        )
    except ValueError as exc:
        if args.config is None:
            raise
        raise ValueError(f"{args.config}: {exc}") from exc


def _read_json_file(path) -> object:
    """The JSON value in the file at ``path``, decoded as UTF-8 whatever the
    locale; a byte that is not UTF-8 or malformed JSON is a ValueError
    naming the file."""
    try:
        return parse_json(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte 0x{exc.object[exc.start]:02x} at position "
                         f"{exc.start} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: bad JSON ({exc})") from None


def _read_peaks(spec: str):
    """Peaks from the file named ``spec`` if there is one, else from ``spec``
    as inline JSON (which may be longer than any file name can be)."""
    if os.path.exists(spec):
        return ingest_peaks(_read_json_file(spec))
    return ingest_peaks(parse_json(spec))


def _emit(obj, indent: int | None = 2) -> None:
    """Print ``obj`` as strict JSON: a non-finite float (an empty bucket's
    mean, an absent modality's MAE) prints as null, not as NaN."""
    finite = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    print(json.dumps(finite, indent=indent, allow_nan=False), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _dispatch(args)
    except (SmilesParseError, DataFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, MatchingError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "parse":
        molecule = prepare_molecule(args.smiles)
        dump = graph_to_dict(molecule.graph, molecule.classes, molecule.units)
        dump["canonical_smiles"] = canonical_smiles(molecule.graph)
        _emit(dump)
        return EXIT_OK

    if args.command == "validate-data":
        samples, diagnostics = scan_dataset(args.data, args.kind)
        for diag in diagnostics:
            line = {"line": diag.line, "status": diag.status, "smiles": diag.smiles}
            if diag.reason:
                line["reason"] = diag.reason
            _emit(line, indent=None)
        _emit({"usable": len(samples), "records": len(diagnostics)}, indent=None)
        return EXIT_OK

    if args.command in ("pretrain", "finetune"):
        return _train_command(args)

    checkpoint = load_checkpoint(args.checkpoint)
    model = checkpoint.build_model()
    _, _, match = _load_config(args)

    if args.command == "eval":
        testset = load_dataset(args.test, "annotated")
        if not testset:
            raise DataFormatError(f"{args.test}: no usable annotated records")
        seed = args.seed if args.seed is not None else 0
        report = evaluate(
            model, testset, solvent_mode=args.solvent_mode, seed=seed, match=match
        )
        _emit(report.to_dict())
        return EXIT_OK

    # predict, assign and export: the SMILES's peaks in --solvent
    molecule = prepare_molecule(args.smiles)
    solvent = normalize_solvent(args.solvent)
    observations = None if args.command == "predict" else _read_peaks(args.peaks)
    preds = model.predict_cross_peaks(molecule, solvent)

    if args.command == "predict":
        _emit(
            [
                {
                    "unit": f"C{p.ch_unit.carbon_index}.{p.peak_slot}",
                    "delta_c": p.delta_c,
                    "delta_h": p.delta_h,
                }
                for p in preds
            ]
        )
        return EXIT_OK

    if args.command == "assign":
        labels = pseudo_annotate(molecule, preds, observations, match)
        if labels is None:
            raise MatchingError("nothing to assign (no peaks)")
        rows = [
            {
                "unit": f"C{e.carbon_index}.{e.slot}",
                "observed_peak": e.obs_index,
                "obs_delta_c": e.delta_c,
                "obs_delta_h": e.delta_h,
            }
            for e in labels.entries
        ]
        if args.format == "json":
            _emit({"matcher": labels.provenance, "mean_cost": labels.mean_cost,
                   "assignments": rows})
        else:
            print(f"matcher: {labels.provenance}   mean cost: {labels.mean_cost:.4f}")
            print(f"{'unit':>8} {'peak':>5} {'obs dC':>9} {'obs dH':>8}")
            for row in rows:
                print(
                    f"{row['unit']:>8} {row['observed_peak']:>5} "
                    f"{row['obs_delta_c']:>9.2f} {row['obs_delta_h']:>8.3f}"
                )
        return EXIT_OK

    if args.command == "export":
        fmt = args.format or ("csv" if args.out.suffix.lower() == ".csv" else "svg")
        export_overlay(preds, observations, args.out, fmt=fmt, match=match)
        if not args.quiet:
            print(f"wrote {args.out}")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _resume_checkpoint(args, model_config: ModelConfig):
    """The ``--checkpoint-out`` a ``--resume`` run continues from, or None
    for a fresh start. Its provenance stage must be the command's and its
    stored config must equal the run's; the arrays already fit the stored
    config (``load_checkpoint``)."""
    if not (args.resume and args.checkpoint_out.exists()):
        return None
    previous = load_checkpoint(args.checkpoint_out)
    stage = previous.provenance.get("stage")
    if stage != args.command:
        raise CheckpointError(f"cannot resume {args.command} from {args.checkpoint_out}: "
                              f"it holds a {stage!r} checkpoint, not {args.command!r}")
    stored, run = previous.config.to_dict(), model_config.to_dict()
    differ = [f"{k} (checkpoint {stored[k]!r}, run {value!r})"
              for k, value in run.items() if stored[k] != value]
    if differ:
        raise CheckpointError(f"cannot resume from {args.checkpoint_out}: model config "
                              f"differs in {', '.join(differ)}")
    log.info("resuming %s from %s", args.command, args.checkpoint_out)
    return previous


def _train_command(args) -> int:
    model_config, train_config, match = _load_config(args)
    quiet = args.quiet

    def log_line(line: dict) -> None:
        if not quiet:
            _emit(line, indent=None)

    dataset = load_dataset(args.data, "1d" if args.command == "pretrain" else "hsqc")
    if not dataset:
        raise DataFormatError(f"{args.data}: no usable records")

    previous = _resume_checkpoint(args, model_config)
    if args.command == "pretrain":
        init_state = None
        start_epoch = 0
        if previous is not None:
            init_state = previous.arrays
            epoch = previous.provenance.get("epoch", -1)
            if not (is_integer(epoch) and epoch >= -1):
                raise CheckpointError(f"{args.checkpoint_out}: bad provenance epoch {epoch!r}")
            start_epoch = epoch + 1
        result = mtt_pretrain(
            dataset,
            train_config,
            model_config=model_config,
            init_state=init_state,
            start_epoch=start_epoch,
            log_fn=log_line,
        )
        provenance = {
            "stage": "pretrain",
            "epoch": start_epoch + train_config.epochs - 1,
            "best_epoch": result.best_epoch,
            "seed": train_config.seed,
        }
    else:
        valset = load_dataset(args.val, "hsqc") if args.val else None
        start = previous
        if start is None:
            start = load_checkpoint(args.checkpoint)
            verify_checkpoint_config(start, model_config)
        result = finetune_unsupervised(
            start.arrays,
            dataset,
            valset,
            train_config,
            model_config=model_config,
            match=match,
            log_fn=log_line,
        )
        provenance = {
            "stage": "finetune",
            "iteration": result.iterations_run,
            "converged": result.converged,
            "seed": train_config.seed,
        }
    save_checkpoint(result.best_state, model_config, provenance, args.checkpoint_out)
    if not quiet:
        print(f"wrote {args.checkpoint_out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
