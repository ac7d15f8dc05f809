"""
Predicting HSQC cross peaks
===========================

Run the message-passing network on a few molecules and watch the solvent
conditioning: the proton axis responds to the solvent class, the carbon
axis never does (it has no solvent input by default).
"""

from hsqcnet import (
    CrossPeakModel,
    ModelConfig,
    SolventClass,
    count_parameters,
    prepare_molecule,
)

# A freshly initialized desk-scale model. Untrained weights produce
# arbitrary (but finite and symmetric-consistent) shift values; train on
# real data for meaningful ones — see 04_train_two_stage.py.
model = CrossPeakModel(ModelConfig(seed=1))
print(f"parameters: {count_parameters(model.config)}")

for smiles in ["C", "c1ccccc1", "CCO", "OC[C@H]1O[C@@H](O)[C@H](O)[C@@H](O)[C@@H]1O"]:
    molecule = prepare_molecule(smiles)
    peaks = model.predict_cross_peaks(molecule, SolventClass.CHLOROFORM)
    print(f"\n{smiles}: {len(peaks)} cross peak(s)")
    for peak in peaks:
        print(f"  C{peak.ch_unit.carbon_index}.{peak.peak_slot}: "
              f"dC={peak.delta_c:8.2f}  dH={peak.delta_h:6.3f}")

# Solvent effect: same molecule, different solvent class.
molecule = prepare_molecule("CCO")
print("\nethanol CH3 proton shift by solvent:")
for solvent in (SolventClass.CHLOROFORM, SolventClass.DMSO, SolventClass.WATER,
                SolventClass.UNKNOWN):
    peaks = model.predict_cross_peaks(molecule, solvent)
    print(f"  {solvent.value:10s} dH={peaks[0].delta_h:7.4f}  dC={peaks[0].delta_c:8.3f}"
          "   (carbon identical by construction)")
