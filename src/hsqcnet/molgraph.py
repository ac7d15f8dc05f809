"""Typed molecular graphs and the structural analyses the predictor needs:
explicit-hydrogen expansion, hybridization inference, symmetry equivalence
classes, C-H unit enumeration, and molecular weight."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .elements import ATOMIC_MASS, atomic_mass


class Chirality(Enum):
    NONE = "none"
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    OTHER = "other"


class Hybridization(Enum):
    SP = "sp"
    SP2 = "sp2"
    SP3 = "sp3"
    UNSPECIFIED = "unspecified"


class BondType(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"


class BondDirection(Enum):
    NONE = "none"
    END_UP_RIGHT = "end_up_right"      # '/' as written from endpoint 0 to 1
    END_DOWN_RIGHT = "end_down_right"  # '\' as written from endpoint 0 to 1


BOND_ORDER = {
    BondType.SINGLE: 1.0,
    BondType.DOUBLE: 2.0,
    BondType.TRIPLE: 3.0,
    BondType.AROMATIC: 1.5,
}


@dataclass
class AtomSpec:
    element: str
    index: int
    formal_charge: int = 0
    chirality: Chirality = Chirality.NONE
    hybridization: Hybridization = Hybridization.UNSPECIFIED
    is_aromatic: bool = False
    implicit_h: int = 0


@dataclass
class BondSpec:
    endpoints: tuple[int, int]
    bond_type: BondType
    direction: BondDirection = BondDirection.NONE


@dataclass
class MolecularGraph:
    """Undirected molecular graph; atoms indexed 0..n-1.

    ``chiral_order`` keeps, for every chiral atom, its neighbors in the
    order the source text listed them (-1 standing in for a not yet
    materialized implicit hydrogen); the canonical writer and isomorphism
    checks need it to reason about tetrahedral parity.
    """

    atoms: list[AtomSpec]
    bonds: list[BondSpec]
    source_smiles: str = ""
    chiral_order: dict[int, list[int]] = field(default_factory=dict)
    adjacency: list[list[int]] = field(default_factory=list)
    _bond_at: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.adjacency = [[] for _ in self.atoms]
        self._bond_at = {}
        for bi, bond in enumerate(self.bonds):
            a, b = bond.endpoints
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
            self._bond_at[(a, b)] = bi
            self._bond_at[(b, a)] = bi

    def bond_between(self, a: int, b: int) -> BondSpec:
        return self.bonds[self._bond_at[(a, b)]]

    def validate(self) -> None:
        n = len(self.atoms)
        seen: set[frozenset[int]] = set()
        for bond in self.bonds:
            a, b = bond.endpoints
            if a == b:
                raise ValueError(f"self-bond on atom {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bond endpoints {bond.endpoints} out of range")
            pair = frozenset((a, b))
            if pair in seen:
                raise ValueError(f"duplicate bond between {a} and {b}")
            seen.add(pair)
            if bond.bond_type is BondType.AROMATIC:
                if not (self.atoms[a].is_aromatic and self.atoms[b].is_aromatic):
                    raise ValueError(
                        f"aromatic bond between non-aromatic atoms {a}, {b}"
                    )
        for i, atom in enumerate(self.atoms):
            if atom.index != i:
                raise ValueError(f"atom {i} carries index {atom.index}")
            if atom.element not in ATOMIC_MASS:
                raise ValueError(f"unknown element {atom.element!r} at atom {i}")

    def bonding_number(self, atom: int) -> int:
        """Integer bond-order total used for implicit-H inference.

        Aromatic bonds count 1 each, plus one increment for the ring pi
        bond when the atom contributes one: always for carbon, for
        two-coordinate N/P (pyridine-like; pyrrole-like nitrogens must be
        bracketed), never for lone-pair donors like aromatic O/S."""
        plain = 0.0
        aromatic = 0
        for nb in self.adjacency[atom]:
            btype = self.bonds[self._bond_at[(atom, nb)]].bond_type
            if btype is BondType.AROMATIC:
                aromatic += 1
            else:
                plain += BOND_ORDER[btype]
        total = int(-(-plain // 1)) + aromatic
        if aromatic:
            element = self.atoms[atom].element
            if element == "C" or (
                element in ("N", "P") and len(self.adjacency[atom]) == 2
            ):
                total += 1
        return total

    def copy(self) -> "MolecularGraph":
        return MolecularGraph(
            atoms=[
                AtomSpec(a.element, a.index, a.formal_charge, a.chirality,
                         a.hybridization, a.is_aromatic, a.implicit_h)
                for a in self.atoms
            ],
            bonds=[BondSpec(b.endpoints, b.bond_type, b.direction) for b in self.bonds],
            source_smiles=self.source_smiles,
            chiral_order={k: list(v) for k, v in self.chiral_order.items()},
        )


@dataclass(frozen=True)
class EquivalenceClasses:
    class_id: tuple[int, ...]
    num_classes: int
    iterations: int


@dataclass(frozen=True)
class CHUnit:
    carbon_index: int
    hydrogen_indices: tuple[int, ...]
    max_peaks: int
    equivalence_key: int
    is_representative: bool


def add_explicit_hydrogens(graph: MolecularGraph) -> MolecularGraph:
    """Materialize implicit hydrogens as atoms with single bonds.

    Original atom indices are preserved as a prefix; hydrogens are appended
    grouped by their heavy atom, in heavy-atom index order. A graph whose
    atoms all have implicit_h == 0 round-trips unchanged in size.
    """
    atoms = [
        AtomSpec(a.element, a.index, a.formal_charge, a.chirality, a.hybridization,
                 a.is_aromatic)
        for a in graph.atoms
    ]
    bonds = [BondSpec(b.endpoints, b.bond_type, b.direction) for b in graph.bonds]
    chiral_order = {k: list(v) for k, v in graph.chiral_order.items()}
    for heavy in graph.atoms:
        order = chiral_order.get(heavy.index)
        for _ in range(heavy.implicit_h):
            hydrogen = len(atoms)
            atoms.append(AtomSpec(element="H", index=hydrogen))
            bonds.append(BondSpec((heavy.index, hydrogen), BondType.SINGLE))
            if order is not None and -1 in order:
                order[order.index(-1)] = hydrogen
    return MolecularGraph(atoms, bonds, graph.source_smiles, chiral_order)


def infer_hybridization(graph: MolecularGraph) -> MolecularGraph:
    """Fill per-atom hybridization from bond patterns.

    Aromatic -> SP2; a triple bond or two double bonds -> SP; exactly one
    double bond -> SP2; everything else (hydrogens included) -> SP3.
    """
    out = graph.copy()
    set_hybridization(out)
    return out


def set_hybridization(graph: MolecularGraph) -> None:
    """``infer_hybridization`` in place, on a graph the caller owns."""
    for atom in graph.atoms:
        if atom.element == "H":
            atom.hybridization = Hybridization.SP3
            continue
        if atom.is_aromatic:
            atom.hybridization = Hybridization.SP2
            continue
        doubles = triples = 0
        for nb in graph.adjacency[atom.index]:
            btype = graph.bond_between(atom.index, nb).bond_type
            if btype is BondType.DOUBLE:
                doubles += 1
            elif btype is BondType.TRIPLE:
                triples += 1
        if triples >= 1 or doubles >= 2:
            atom.hybridization = Hybridization.SP
        elif doubles == 1:
            atom.hybridization = Hybridization.SP2
        else:
            atom.hybridization = Hybridization.SP3


def _hydrogen_count(graph: MolecularGraph, atom: int) -> int:
    explicit = sum(1 for nb in graph.adjacency[atom] if graph.atoms[nb].element == "H")
    return explicit + graph.atoms[atom].implicit_h


def canonical_equivalence_classes(graph: MolecularGraph) -> EquivalenceClasses:
    """Morgan-style neighborhood refinement to its fixed point.

    Seeds with (element, aromaticity, hybridization, hydrogen count), then
    repeatedly extends each label with the sorted multiset of
    (bond type, neighbor label) pairs. Class ids are dense and assigned in
    sorted signature order, so they are stable under atom relabeling.
    """
    seeds = [
        (
            a.element,
            a.is_aromatic,
            a.hybridization.value,
            _hydrogen_count(graph, a.index),
        )
        for a in graph.atoms
    ]
    labels, iterations = refine_labels(graph, seeds)
    return EquivalenceClasses(tuple(labels), len(set(labels)), iterations)


def refine_labels(graph: MolecularGraph, seeds: list) -> tuple[list[int], int]:
    """Refine per-atom ``seeds`` to their fixed point; (labels, rounds).

    Each round extends every label with the sorted multiset of
    (bond type, neighbor label) pairs and re-densifies in sorted order.
    """
    n = len(graph.atoms)
    # bond types never change between rounds: pair them once per call
    neighbours = [
        [(graph.bond_between(i, j).bond_type.value, j) for j in graph.adjacency[i]]
        for i in range(n)
    ]
    labels = _dense_labels(seeds)
    iterations = 0
    while True:
        signatures = [
            (labels[i], tuple(sorted((bond, labels[j]) for bond, j in pairs)))
            for i, pairs in enumerate(neighbours)
        ]
        new_labels = _dense_labels(signatures)
        iterations += 1
        if new_labels == labels:
            return labels, iterations
        labels = new_labels
        if iterations > n + 1:  # refinement must fix within |V| rounds
            raise RuntimeError("equivalence refinement failed to converge")


def _dense_labels(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def enumerate_ch_units(
    graph: MolecularGraph, classes: EquivalenceClasses
) -> list[CHUnit]:
    """One unit per hydrogen-bearing carbon, flagged for symmetry collapse.

    The representative of each equivalence key is the member with the
    smallest carbon index; downstream peak emission only emits
    representatives. max_peaks is 2 exactly for methylene (two hydrogens).
    """
    units: list[CHUnit] = []
    seen_keys: set[int] = set()
    for atom in graph.atoms:
        if atom.element != "C":
            continue
        hydrogens = tuple(
            nb for nb in graph.adjacency[atom.index] if graph.atoms[nb].element == "H"
        )
        if not hydrogens:
            continue
        key = classes.class_id[atom.index]
        units.append(
            CHUnit(
                carbon_index=atom.index,
                hydrogen_indices=hydrogens,
                max_peaks=2 if len(hydrogens) == 2 else 1,
                equivalence_key=key,
                is_representative=key not in seen_keys,
            )
        )
        seen_keys.add(key)
    return units


def molecular_weight(graph: MolecularGraph) -> float:
    """Sum of standard atomic masses, implicit hydrogens included."""
    total = 0.0
    for atom in graph.atoms:
        total += atomic_mass(atom.element)
        total += atom.implicit_h * atomic_mass("H")
    return total


def relabel_atoms(graph: MolecularGraph, permutation: list[int]) -> MolecularGraph:
    """Return the graph with atom i moved to position permutation[i]."""
    n = len(graph.atoms)
    if sorted(permutation) != list(range(n)):
        raise ValueError("not a permutation of atom indices")
    atoms: list[AtomSpec] = [None] * n  # type: ignore[list-item]
    for old, new in enumerate(permutation):
        moved = replace(graph.atoms[old])
        moved.index = new
        atoms[new] = moved
    bonds = [
        BondSpec(
            (permutation[b.endpoints[0]], permutation[b.endpoints[1]]),
            b.bond_type,
            b.direction,
        )
        for b in graph.bonds
    ]
    chiral = {
        permutation[a]: [permutation[x] if x >= 0 else -1 for x in order]
        for a, order in graph.chiral_order.items()
    }
    return MolecularGraph(
        atoms=atoms, bonds=bonds, source_smiles=graph.source_smiles, chiral_order=chiral
    )


def graph_to_dict(
    graph: MolecularGraph,
    classes: EquivalenceClasses | None = None,
    units: list[CHUnit] | None = None,
) -> dict:
    """JSON-ready dump used by the CLI ``parse`` subcommand."""
    out: dict = {
        "smiles": graph.source_smiles,
        "num_atoms": len(graph.atoms),
        "num_bonds": len(graph.bonds),
        "atoms": [
            {
                "index": a.index,
                "element": a.element,
                "charge": a.formal_charge,
                "aromatic": a.is_aromatic,
                "chirality": a.chirality.value,
                "hybridization": a.hybridization.value,
                "implicit_h": a.implicit_h,
            }
            for a in graph.atoms
        ],
        "bonds": [
            {
                "atoms": list(b.endpoints),
                "type": b.bond_type.value,
                "direction": b.direction.value,
            }
            for b in graph.bonds
        ],
        "molecular_weight": molecular_weight(graph),
    }
    if classes is not None:
        out["equivalence"] = {
            "class_id": list(classes.class_id),
            "num_classes": classes.num_classes,
        }
    if units is not None:
        out["ch_units"] = [
            {
                "carbon": u.carbon_index,
                "hydrogens": list(u.hydrogen_indices),
                "max_peaks": u.max_peaks,
                "equivalence_key": u.equivalence_key,
                "representative": u.is_representative,
            }
            for u in units
        ]
    return out
