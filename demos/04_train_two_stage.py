"""
Two-stage training on the bundled toy data
==========================================

Stage one pre-trains on atom-annotated 1D shifts with masked per-modality
losses; stage two self-trains on unlabeled peak lists by alternating
matching and fitting. Scaled down here so it finishes in a few seconds;
raise the epochs for the full desk-scale run.
"""

from pathlib import Path

from hsqcnet import (
    CrossPeakModel,
    ModelConfig,
    TrainConfig,
    finetune_unsupervised,
    load_dataset,
    mtt_pretrain,
)
from hsqcnet.assign import MatchSettings
from hsqcnet.train import dataset_mae

DATA = Path(__file__).resolve().parent.parent / "data"

model_config = ModelConfig(seed=0)
samples_1d = load_dataset(DATA / "toy_1d.jsonl", "1d")
print(f"1D toy set: {len(samples_1d)} molecules")

pre_config = TrainConfig(epochs=30, batch_size=2, learning_rate=1e-3,
                         oversample_factor=2, validation_split=0.2, seed=3)
result = mtt_pretrain(samples_1d, pre_config, model_config=model_config)
for line in result.history[::10] + result.history[-1:]:
    print(f"  epoch {line['epoch']:3d}  loss {line['loss']:.4f}  "
          f"MAE_C {line['mae_c']:6.2f}  MAE_H {line['mae_h']:6.3f}")

model = CrossPeakModel(model_config)
model.load_state(result.best_state)
mae_c, mae_h = dataset_mae(model, samples_1d)
print(f"pre-trained train MAE: carbon {mae_c:.2f} ppm, proton {mae_h:.3f} ppm")

# Stage two: unlabeled HSQC peak lists. Matching produces pseudo-labels;
# a permissive rejection gate keeps everything at this training budget.
samples_hsqc = load_dataset(DATA / "toy_hsqc.jsonl", "hsqc")
fine_config = TrainConfig(epochs=3, batch_size=4, learning_rate=3e-4,
                          max_iterations=3, convergence_fraction=0.02, seed=3)
outcome = finetune_unsupervised(
    result.best_state,
    samples_hsqc,
    None,
    fine_config,
    model_config=model_config,
    match=MatchSettings(reject_threshold=50.0),
)
print(f"\nfine-tuning: {outcome.iterations_run} iteration(s), "
      f"converged={outcome.converged}")
for line in outcome.history:
    if "mae_c" in line:
        print(f"  iteration {line['iteration']}: matched MAE_C {line['mae_c']:.2f}, "
              f"MAE_H {line['mae_h']:.3f}, "
              f"label change {line['label_change_fraction']}")
