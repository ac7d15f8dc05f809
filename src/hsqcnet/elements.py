"""Periodic-table data: symbols, standard atomic masses, and the SMILES
organic-subset valence rules used for implicit hydrogen inference."""

from __future__ import annotations

# Standard atomic weights (conventional values, 2021 IUPAC). Synthetic and
# short-lived elements carry the mass number of their most stable isotope.
ATOMIC_MASS: dict[str, float] = {
    "H": 1.008, "He": 4.003,
    "Li": 6.94, "Be": 9.012, "B": 10.81, "C": 12.011, "N": 14.007,
    "O": 15.999, "F": 18.998, "Ne": 20.180,
    "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.085, "P": 30.974,
    "S": 32.06, "Cl": 35.45, "Ar": 39.95,
    "K": 39.098, "Ca": 40.078, "Sc": 44.956, "Ti": 47.867, "V": 50.942,
    "Cr": 51.996, "Mn": 54.938, "Fe": 55.845, "Co": 58.933, "Ni": 58.693,
    "Cu": 63.546, "Zn": 65.38, "Ga": 69.723, "Ge": 72.630, "As": 74.922,
    "Se": 78.971, "Br": 79.904, "Kr": 83.798,
    "Rb": 85.468, "Sr": 87.62, "Y": 88.906, "Zr": 91.224, "Nb": 92.906,
    "Mo": 95.95, "Tc": 97.0, "Ru": 101.07, "Rh": 102.906, "Pd": 106.42,
    "Ag": 107.868, "Cd": 112.414, "In": 114.818, "Sn": 118.710,
    "Sb": 121.760, "Te": 127.60, "I": 126.904, "Xe": 131.293,
    "Cs": 132.905, "Ba": 137.327, "La": 138.905, "Ce": 140.116,
    "Pr": 140.908, "Nd": 144.242, "Pm": 145.0, "Sm": 150.36,
    "Eu": 151.964, "Gd": 157.25, "Tb": 158.925, "Dy": 162.500,
    "Ho": 164.930, "Er": 167.259, "Tm": 168.934, "Yb": 173.045,
    "Lu": 174.967, "Hf": 178.486, "Ta": 180.948, "W": 183.84,
    "Re": 186.207, "Os": 190.23, "Ir": 192.217, "Pt": 195.084,
    "Au": 196.967, "Hg": 200.592, "Tl": 204.38, "Pb": 207.2,
    "Bi": 208.980, "Po": 209.0, "At": 210.0, "Rn": 222.0,
    "Fr": 223.0, "Ra": 226.0, "Ac": 227.0, "Th": 232.038,
    "Pa": 231.036, "U": 238.029, "Np": 237.0, "Pu": 244.0,
    "Am": 243.0, "Cm": 247.0, "Bk": 247.0, "Cf": 251.0, "Es": 252.0,
    "Fm": 257.0, "Md": 258.0, "No": 259.0, "Lr": 266.0, "Rf": 267.0,
    "Db": 268.0, "Sg": 269.0, "Bh": 270.0, "Hs": 277.0, "Mt": 278.0,
    "Ds": 281.0, "Rg": 282.0, "Cn": 285.0, "Nh": 286.0, "Fl": 289.0,
    "Mc": 290.0, "Lv": 293.0, "Ts": 294.0, "Og": 294.0,
}

# Stable symbol ordering for embedding-table indices: by symbol insertion
# order above (periodic order), frozen once so indices never drift.
SYMBOLS: tuple[str, ...] = tuple(ATOMIC_MASS)
SYMBOL_INDEX: dict[str, int] = {s: i for i, s in enumerate(SYMBOLS)}

# Atoms that may be written without brackets, and their allowed valences
# (smallest valence >= the bond-order sum decides the implicit H count).
ORGANIC_SUBSET: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Lowercase aromatic symbols accepted outside brackets; 'se' and 'as' are
# additionally accepted inside brackets.
AROMATIC_ORGANIC = ("b", "c", "n", "o", "p", "s")
AROMATIC_BRACKET = AROMATIC_ORGANIC + ("se", "as", "te", "si")


def implicit_hydrogens(symbol: str, bonding_number: int) -> int:
    """Implicit H count for an unbracketed organic-subset atom.

    ``bonding_number`` is the integer bond-order total (aromatic atoms
    count each aromatic bond as 1 plus a single shared increment for the
    delocalized system). Returns -1 when it exceeds every allowed valence
    (a valence overflow the parser reports as an error).
    """
    for v in ORGANIC_SUBSET[symbol]:
        if bonding_number <= v:
            return v - bonding_number
    return -1
