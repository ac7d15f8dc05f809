"""
Aligning predictions with an observed peak list
===============================================

When the model emits as many peaks as the spectrum shows, an exact
minimum-cost one-to-one assignment does the matching. When symmetry or
overlap leaves fewer observed peaks than predictions, a softassign at one
temperature distributes predictions over peaks one-to-many.
"""

import numpy as np

from hsqcnet import ObservedPeak, graduated_assignment, hungarian, pseudo_annotate
from hsqcnet.assign import cost_matrix


class Peak:
    """Stand-in for a model prediction: just the two shift values."""

    def __init__(self, delta_c, delta_h, carbon, slot=1):
        self.delta_c, self.delta_h, self.peak_slot = delta_c, delta_h, slot

        class Unit:
            carbon_index = carbon

        self.ch_unit = Unit()


# Three predicted peaks, three observed peaks, slightly perturbed and in a
# different order. The cost mixes both axes at the 10:1 resolution ratio.
preds = [Peak(18.3, 1.18, carbon=0), Peak(57.8, 3.65, carbon=1), Peak(128.4, 7.34, carbon=2)]
obs = [
    ObservedPeak(128.6, 7.31, 0),
    ObservedPeak(18.1, 1.21, 1),
    ObservedPeak(57.9, 3.62, 2),
]
cost = cost_matrix(preds, obs)
print("cost matrix:")
print(np.round(cost, 3))
assignment = hungarian(cost)
print("one-to-one assignment (rows=predictions, cols=observations):")
print(assignment)

# Two symmetric predictions collapsing onto a single observed peak: the
# graduated matcher sends both rows to the one column.
sym_preds = [Peak(128.4, 7.34, carbon=0), Peak(128.4, 7.34, carbon=3), Peak(21.0, 2.3, carbon=5)]
sym_obs = [ObservedPeak(128.4, 7.34, 0), ObservedPeak(21.1, 2.28, 1)]
print("\none-to-many assignment for a symmetric pair:")
print(graduated_assignment(sym_preds, sym_obs))

# pseudo_annotate routes automatically and produces training targets.
labels = pseudo_annotate(None, sym_preds, sym_obs)
print(f"\nmatcher: {labels.provenance}, mean matched cost {labels.mean_cost:.4f}")
for entry in labels.entries:
    print(f"  C{entry.carbon_index}.{entry.slot} <- peak {entry.obs_index} "
          f"({entry.delta_c}, {entry.delta_h})")
