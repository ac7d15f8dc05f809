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

from .assign import GASettings, MatchSettings, MatchingError, ingest_peaks, pseudo_annotate
from .dataio import (
    KINDS,
    CheckpointError,
    DataFormatError,
    config_hash,
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
        p.add_argument("--val", type=Path, default=None)
        p.add_argument("--checkpoint-out", type=Path, required=True)
        p.add_argument("--resume", action="store_true",
                       help="continue from an existing --checkpoint-out")
        if name == "finetune":
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
    raw = parse_json(args.config.read_text()) if args.config is not None else {}
    try:  # a TypeError here is a malformed config: a wrong shape or key
        if not isinstance(raw, dict):
            raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
        names = ("model", "train", "match")
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise TypeError(f"unknown config section(s) {unknown}; expected {list(names)}")
        sections = {name: raw.get(name, {}) for name in names}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise TypeError(f"section {name!r} must be a JSON object")
        model_kw, train_kw, match_kw = (dict(section) for section in sections.values())
        if args.seed is not None:
            model_kw["seed"] = args.seed
            train_kw["seed"] = args.seed
        match = MatchSettings(ga=GASettings(**match_kw.pop("ga", {})), **match_kw)
        return ModelConfig(**model_kw), TrainConfig(**train_kw), match
    except TypeError as exc:
        raise ValueError(f"{args.config}: {exc}") from exc


def _read_peaks(spec: str):
    """Peaks from the file named ``spec`` if there is one, else from ``spec``
    as inline JSON (which may be longer than any file name can be)."""
    if os.path.exists(spec):
        return ingest_peaks(parse_json(Path(spec).read_text()))
    return ingest_peaks(parse_json(spec))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _dispatch(args)
    except SmilesParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DataFormatError, CheckpointError, OSError) as exc:
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
            _emit(line)
        _emit({"usable": len(samples), "records": len(diagnostics)})
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


def _check_resume_config(checkpoint, model_config: ModelConfig) -> None:
    verify_checkpoint_config(checkpoint, model_config)
    stored = checkpoint.provenance.get("config_hash")
    if stored is not None and stored != config_hash(model_config):
        raise CheckpointError(
            "cannot resume: model config differs from the checkpoint's "
            f"(hash {stored[:12]} vs {config_hash(model_config)[:12]})"
        )


def _train_command(args) -> int:
    model_config, train_config, match = _load_config(args)
    quiet = args.quiet

    def log_line(line: dict) -> None:
        if not quiet:
            print(json.dumps(line), flush=True)

    dataset = load_dataset(args.data, "1d" if args.command == "pretrain" else "hsqc")
    if not dataset:
        raise DataFormatError(f"{args.data}: no usable records")

    if args.command == "pretrain":
        init_state = None
        start_epoch = 0
        if args.resume and args.checkpoint_out.exists():
            previous = load_checkpoint(args.checkpoint_out)
            _check_resume_config(previous, model_config)
            init_state = previous.arrays
            start_epoch = int(previous.provenance.get("epoch", -1)) + 1
            log.info("resuming from %s at epoch %d", args.checkpoint_out, start_epoch)
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
        resuming = args.resume and args.checkpoint_out.exists()
        source = args.checkpoint_out if resuming else args.checkpoint
        if resuming:
            log.info("resuming fine-tuning from %s", source)
        start = load_checkpoint(source)
        if resuming:
            _check_resume_config(start, model_config)
        else:
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
