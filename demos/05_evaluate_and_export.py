"""
Scoring against expert annotations and plotting an overlay
==========================================================

Evaluate a model on expert-annotated peak lists (assignment accuracy plus
per-segment and per-solvent error breakdowns), compare solvent-input
modes, and export an overlay of predictions versus observations.
"""

import json
from pathlib import Path

from hsqcnet import (
    CrossPeakModel,
    ModelConfig,
    SolventClass,
    evaluate,
    export_overlay,
    load_dataset,
    prepare_molecule,
)
from hsqcnet.assign import ObservedPeak

DATA = Path(__file__).resolve().parent.parent / "data"

model = CrossPeakModel(ModelConfig(seed=1))
testset = load_dataset(DATA / "toy_expert.jsonl", "annotated")
print(f"annotated records: {len(testset)}")

for mode in ("true", "unknown", "random"):
    report = evaluate(model, testset, solvent_mode=mode, seed=7)
    print(f"solvent={mode:8s} MAE_C {report.mae_c:7.2f}  MAE_H {report.mae_h:6.3f}  "
          f"all-correct {report.molecules_all_correct}/{report.molecules_evaluated}")

report = evaluate(model, testset, solvent_mode="true")
print("\nmolecular-weight segments:")
print(json.dumps(report.segments["overall_equal_weight"], indent=2))

# Overlay for benzene: predicted peak in orange, the observed one in blue,
# matched pairs linked; ppm axes run in the conventional reversed sense.
molecule = prepare_molecule("c1ccccc1")
preds = model.predict_cross_peaks(molecule, SolventClass.CHLOROFORM)
observed = [ObservedPeak(128.4, 7.34)]
out = Path(__file__).resolve().parent / "benzene_overlay.svg"
export_overlay(preds, observed, out, fmt="svg")
print(f"\nwrote {out}")
