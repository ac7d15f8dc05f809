#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 benchmarks/record_reference.py

Writes ``benchmarks/reference.json``: the small-molecule pool, predicted
peaks for every benchmark molecule in every benchmark solvent, the
two-stage training history for every training variant, and the evaluate
report on the expert set. Run it only on a commit whose outputs are
trusted; the benchmark fails any later commit whose outputs drift.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from hsqcnet import smiles  # noqa: E402

dataio, evaluate, model = (workloads.MODULES[k] for k in ("dataio", "evaluate", "model"))


def small_pool(m) -> list[str]:
    """Distinct molecules of the parser corpus and toy sets that have at
    least one predicted cross peak, first spelling kept."""
    data = ROOT / "data"
    candidates = [e["smiles"] for e in json.loads((data / "parser_corpus.json").read_text())[
        "molecules"]]
    for name in ("toy_1d.jsonl", "toy_hsqc.jsonl", "toy_expert.jsonl"):
        for line in (data / name).read_text().splitlines():
            if line.strip():
                candidates.append(json.loads(line)["smiles"])
    pool, seen = [], set()
    for text in candidates:
        canon = smiles.canonical_smiles(smiles.parse_smiles(text))
        if canon in seen:
            continue
        seen.add(canon)
        if m.predict_cross_peaks(model.prepare_molecule(text), model.SolventClass.CHLOROFORM):
            pool.append(text)
    return pool


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    weights_path = out / "weights.ckpt"
    workloads.write_weights(weights_path)
    checkpoint = dataio.load_checkpoint(weights_path)
    m = checkpoint.build_model()

    pool = small_pool(m)
    predictions: dict[str, dict] = {}
    for names, solvents in ((pool, inputs.SMALL_SOLVENTS),
                            (list(inputs.large_molecules().values()), inputs.LARGE_SOLVENTS)):
        for text in names:
            mol = model.prepare_molecule(text)
            predictions[text] = {
                s: workloads.peak_rows(m.predict_cross_peaks(mol, model.SolventClass(s)))
                for s in solvents
            }

    set_1d = dataio.load_dataset(ROOT / "data" / "toy_1d.jsonl", "1d")
    set_hsqc = dataio.load_dataset(ROOT / "data" / "toy_hsqc.jsonl", "hsqc")
    train = {}
    for variant in range(inputs.TRAIN_VARIANTS):
        history, _ = workloads.two_stage(
            set_1d, set_hsqc, checkpoint.arrays, variant, None, out / "reference.ckpt"
        )
        train[str(variant)] = history

    expert = dataio.load_dataset(ROOT / "data" / "toy_expert.jsonl", "annotated")
    report = json.loads(json.dumps(evaluate.evaluate(m, expert).to_dict()))

    reference = {
        "small_pool": pool,
        "predictions": predictions,
        "train": train,
        "evaluate": report,
    }
    inputs.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    sizes = {name: len(predictions[text]["chloroform"])
             for name, text in inputs.large_molecules().items()}
    print(f"pool {len(pool)} small molecules; large predicted peaks {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
