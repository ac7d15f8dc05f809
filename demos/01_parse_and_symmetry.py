"""
Parsing SMILES and finding symmetry
===================================

Build a typed molecular graph from a SMILES string, materialize the
hydrogens, and see which carbons are equivalent — equivalent C-H units
share a single cross peak in an HSQC spectrum.
"""

from hsqcnet import (
    add_explicit_hydrogens,
    canonical_equivalence_classes,
    canonical_smiles,
    enumerate_ch_units,
    molecular_weight,
    parse_smiles,
    set_hybridization,
)

# Benzene: six carbons, but every one of them lives in the same chemical
# environment, so the whole ring produces a single HSQC cross peak.
graph = parse_smiles("c1ccccc1")
print(f"benzene: {len(graph.atoms)} heavy atoms, {len(graph.bonds)} bonds, "
      f"MW {molecular_weight(graph):.2f}")

# add_explicit_hydrogens builds a new graph; set_hybridization fills it in place
expanded = add_explicit_hydrogens(graph)
set_hybridization(expanded)
classes = canonical_equivalence_classes(expanded)
units = enumerate_ch_units(expanded, classes)
print(f"after H expansion: {len(expanded.atoms)} atoms; "
      f"{classes.num_classes} equivalence classes")
print(f"C-H units: {len(units)}, representatives: "
      f"{sum(u.is_representative for u in units)}")

# para-xylene keeps two distinct hydrogen-bearing environments: the methyl
# groups and the four equivalent ring CH positions.
xylene = add_explicit_hydrogens(parse_smiles("Cc1ccc(C)cc1"))
set_hybridization(xylene)
x_classes = canonical_equivalence_classes(xylene)
x_units = enumerate_ch_units(xylene, x_classes)
reps = [u for u in x_units if u.is_representative]
print("\npara-xylene representative units:")
for unit in reps:
    print(f"  carbon {unit.carbon_index}: {len(unit.hydrogen_indices)} H, "
          f"up to {unit.max_peaks} peak(s)")

# The canonical writer re-emits a parse-stable string; it backs duplicate
# detection during dataset loading. Three spellings of ethanol, and
# imidazole written from either side of its NH:
print("\ncanonical forms:")
for smiles in ["OCC", "CCO", "C(O)C", "c1c[nH]cn1", "c1cnc[nH]1"]:
    print(f"  {smiles:12s} -> {canonical_smiles(parse_smiles(smiles))}")
