"""Cross-peak prediction network.

A message-passing graph network over atoms (hydrogens included as nodes)
in matrix form (Gilmer et al. 2017). Each layer's message on a directed
edge u -> v is ``relu(W [h_u; x_e] + b)``, computed in factored form:
``W[:, :d] h + b`` once per atom and ``W[:, d:] x`` once per edge type
(bond type x direction, 12 rows), then the sum of the source atom's row
and the edge type's row on every edge. The messages are summed onto the
destination atoms, and every atom is updated by a second affine map; the
whole layer with its update activation is one tape op
(``autodiff.message_layer``), which reads the edge arrays and their cached
scatter slots from the molecule's ``GraphIndex``, and the atom rows and
the edge-type table are one ``autodiff.embed`` op each. One
head evaluation over an array of carbons feeds two MLP heads: one
predicts the carbon shift from the carbon embedding, one a pair of proton
shifts from the carbon embedding, the mean of its bonded-hydrogen
embeddings (the hydrogens of its C-H unit, read into ``HeadRows`` when a
target set is built: no forward pass walks the graph's adjacency lists),
and a learned solvent vector. Each head (three affine maps, two relus) is
one tape op, ``autodiff.mlp_head``, whose first map reads its inputs by
weight column block, so a solvent vector is one row shared by every
carbon.
``head_outputs(molecule, solvent, rows)`` is the one head evaluation: for
the k carbons of a ``HeadRows`` it gives the carbon head's (k, 1) output
and the proton head's (k, 2) pair, in output units that ``ppm_c`` and
``ppm_h`` map to ppm by module constants. Only the proton head reads the
solvent.
Symmetry-equivalent units emit through one representative; methylene
units may emit two peaks, and ``ProtonReads`` is the one rule for which
proton output a (carbon, slot) target reads: the slot's own column when
its carbon emits two peaks, else the mean of the pair. The index arrays
of a head evaluation (``HeadRows``) and of that rule (``ProtonReads``)
are built by one function each; a ``ShiftReads`` joins them with the
carbon outputs a set of shift targets reads, in one layout
(``ShiftReads.at``). A training item builds its ``ShiftReads`` once
(``ShiftReads.of`` for a 1D sample at construction, ``train.LabelTarget.of``
through ``ShiftReads.at`` for a molecule's pseudo-labels once per
fine-tuning iteration), so a desk-scale step of either training stage
records 20 tape entries and rebuilds no index array. ``prepare_molecule``
validates a graph a caller builds.

The encoder runs once per symmetry class, not once per atom (``lift``). A
layer gives equal embeddings to the atoms of a class that is equitable for
what it reads (Morris et al. 2019), and ``canonical_equivalence_classes``
gives the classes. ``prepare_molecule`` keeps each class's lowest-index
atom as its representative, and the ``GraphIndex`` the encoder reads,
``Molecule.rows``, holds the representatives' atom features and the edges
into them, in the atom-level edge order, sources mapped to rows; a
molecule holds no other index. ``Molecule.atom_row`` maps each atom to
its row, and every ``HeadRows`` reads the final layer
through it, so prediction, evaluation, annotation and both training
stages share one path, forward and backward. Before the
classes are used, prepare checks that they are equitable for element,
chirality, hybridization and edge type with direction: refinement already
agrees on element, hybridization and bond type, so the check compares
chirality per class and, when a bond has a '/' or '\\' direction, the
(edge type, neighbour class) multisets. A molecule that fails it gets one
row per atom through the same code. ``Molecule.heads`` holds the head rows
of the representative units, built when the molecule is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from enum import Enum

import numpy as np

from . import autodiff as ad
from .assign import check_integer, check_real
from .autodiff import Parameter, Tensor
from .elements import SYMBOL_INDEX
from .molgraph import (
    BondDirection,
    BondType,
    CHUnit,
    Chirality,
    EquivalenceClasses,
    Hybridization,
    MolecularGraph,
    add_explicit_hydrogens,
    canonical_equivalence_classes,
    enumerate_ch_units,
    set_hybridization,
)
from .smiles import parse_smiles


class SolventClass(Enum):
    CHLOROFORM = "chloroform"
    DMSO = "dmso"
    ACETONE = "acetone"
    ACIDS = "acids"
    BENZENE = "benzene"
    METHANOL = "methanol"
    PYRIDINE = "pyridine"
    WATER = "water"
    UNKNOWN = "unknown"


SOLVENT_INDEX = {s: i for i, s in enumerate(SolventClass)}
NAMED_SOLVENTS = tuple(s for s in SolventClass if s is not SolventClass.UNKNOWN)

_CHIRALITY_INDEX = {c: i for i, c in enumerate(Chirality)}
_HYBRID_INDEX = {h: i for i, h in enumerate(Hybridization)}
EDGE_TYPES = len(BondType) * len(BondDirection)
# a bond's edge type, bond * len(BondDirection) + direction
_EDGE_TYPE = {
    (bond, direction): i * len(BondDirection) + j
    for i, bond in enumerate(BondType) for j, direction in enumerate(BondDirection)
}
# edge type t is bond type t // len(BondDirection) and direction
# t % len(BondDirection): the bond and direction embedding rows of each
_EDGE_IDS = tuple(
    ad.Ids(ids, bound, name) for ids, bound, name in zip(
        np.divmod(np.arange(EDGE_TYPES), len(BondDirection)),
        (len(BondType), len(BondDirection)), ("bond type", "direction"))
)
# the atom features a layer reads, each with its embedding table's size
_ATOM_FEATURES = (
    ("element", len(SYMBOL_INDEX)),
    ("chirality", len(Chirality)),
    ("hybridization", len(Hybridization)),
)
_SOLVENT_IDS = {s: ad.Ids(i, len(SolventClass), "solvent") for s, i in SOLVENT_INDEX.items()}
_HEAD_PARAMETERS = ("w1", "b1", "w2", "b2", "w3", "b3")  # of each head, in mlp_head order

# ppm = center + per_unit * raw output. Centers sit mid-range of common
# organic shifts, and the carbon/proton ratio of the units mirrors the 10:1
# dispersion (and instrument resolution) ratio between the two nuclei.
C_PPM_CENTER = 70.0
C_PPM_PER_UNIT = 30.0
H_PPM_CENTER = 4.0
H_PPM_PER_UNIT = 3.0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. Defaults are desk scale; the reference scale uses
    atom_dim=512. The output units are module constants (``ppm_c``,
    ``ppm_h``), not knobs."""

    num_layers: int = 5
    atom_dim: int = 64
    solvent_dim_h: int = 32
    mlp_hidden: tuple[int, int] = (128, 64)
    merge_tolerance_h: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        hidden = self.mlp_hidden
        if isinstance(hidden, list):  # as JSON gives it
            hidden = tuple(hidden)
            object.__setattr__(self, "mlp_hidden", hidden)
        if not (isinstance(hidden, tuple) and len(hidden) == 2):
            raise ValueError(f"mlp_hidden must list two layer widths, got {hidden!r}")
        for name, value, low in (
            ("num_layers", self.num_layers, 1),
            ("atom_dim", self.atom_dim, 1),
            ("solvent_dim_h", self.solvent_dim_h, 1),
            ("mlp_hidden", hidden[0], 1),
            ("mlp_hidden", hidden[1], 1),
            ("seed", self.seed, 0),
        ):
            check_integer(name, value, low)
        check_real("merge_tolerance_h", self.merge_tolerance_h)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PredictedPeak:
    ch_unit: CHUnit
    delta_c: float
    delta_h: float
    peak_slot: int


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """The integer arrays one forward pass reads from a graph: the directed
    edges (every atom's adjacency in atom order, as ``src`` -> ``dst``), the
    embedding-table row of each atom feature, and each edge's type
    ``bond * len(BondDirection) + direction``.

    Construction checks every array once per graph, an IndexError naming
    the array otherwise: that ``src`` and ``dst`` name atoms and
    ``edge_type`` one of the ``EDGE_TYPES`` rows, so
    ``autodiff.message_layer`` reads them unchecked; and that ``element``,
    ``chirality`` and ``hybridization`` name rows of their embedding
    tables. Those three become read-only, and ``ids`` holds them as
    ``autodiff.Ids`` that ``autodiff.embed`` reads unchecked. ``slots``
    caches the flat ``bincount`` slots of an edge array per row width:
    models of different widths may share one graph. Instances compare by
    identity.
    """

    src: np.ndarray
    dst: np.ndarray
    element: np.ndarray
    chirality: np.ndarray
    hybridization: np.ndarray
    edge_type: np.ndarray
    ids: tuple[ad.Ids, ...] = field(init=False, repr=False)
    _slots: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        atoms = len(self.element)
        for name, bound in (("src", atoms), ("dst", atoms), ("edge_type", EDGE_TYPES)):
            ids = getattr(self, name)
            if ids.shape != self.src.shape:
                raise ValueError(f"{name} has shape {ids.shape}, src {self.src.shape}")
            if ad.beyond(ids, bound):
                raise IndexError(f"{name} out of range [0, {bound})")
        features = []
        for name, bound in _ATOM_FEATURES:
            ids = ad.Ids(getattr(self, name), bound, name)
            if ids.array.shape != (atoms,):
                raise ValueError(f"{name} has shape {ids.array.shape}, element ({atoms},)")
            object.__setattr__(self, name, ids.array)
            features.append(ids)
        object.__setattr__(self, "ids", tuple(features))

    def slots(self, name: str, width: int) -> np.ndarray:
        """Flat slots ``ids[:, None] * width + arange(width)`` of the edge
        array ``name`` (``src``, ``dst`` or ``edge_type``), built on first use."""
        key = (name, width)
        flat = self._slots.get(key)
        if flat is None:
            flat = (getattr(self, name)[:, None] * width + np.arange(width)).reshape(-1)
            self._slots[key] = flat
        return flat


def graph_index(graph: MolecularGraph) -> GraphIndex:
    """Edge and embedding-id arrays of a graph whose hybridization has been
    inferred, one row per atom; an uninferred atom raises ValueError."""
    atoms = range(len(graph.atoms))
    return _row_index(graph, atoms, atoms)


def _row_index(graph: MolecularGraph, reps, atom_row) -> GraphIndex:
    """The ``GraphIndex`` whose rows are the atoms ``reps``, ascending:
    their atom features, and the directed edges into each in bond order
    (the order of its adjacency), each source mapped to its row by
    ``atom_row``. Read from the bond list, not the adjacency lists."""
    atoms = graph.atoms
    rows = [atoms[r] for r in reps]
    for atom in rows:
        if atom.hybridization is Hybridization.UNSPECIFIED:
            raise ValueError(
                f"atom {atom.index} has uninferred hybridization; run "
                "set_hybridization first"
            )
    row_of = {r: row for row, r in enumerate(reps)}
    edges = []  # (destination row, source row, edge type), in bond order
    for bond in graph.bonds:
        a, b = bond.endpoints
        kind = _EDGE_TYPE[bond.bond_type, bond.direction]
        if a in row_of:
            edges.append((row_of[a], atom_row[b], kind))
        if b in row_of:
            edges.append((row_of[b], atom_row[a], kind))
    edges.sort(key=itemgetter(0))  # stable: each row's edges stay in bond order
    dst, src, kinds = zip(*edges) if edges else ((), (), ())
    ids = lambda values: np.array(values, dtype=np.intp)
    return GraphIndex(
        src=ids(src),
        dst=ids(dst),
        element=ids([SYMBOL_INDEX[a.element] for a in rows]),
        chirality=ids([_CHIRALITY_INDEX[a.chirality] for a in rows]),
        hybridization=ids([_HYBRID_INDEX[a.hybridization] for a in rows]),
        edge_type=ids(kinds),
    )


def _equitable(graph: MolecularGraph, atom_row: list[int], reps: list[int]) -> bool:
    """Whether every atom reads what the representative of its class reads
    (``atom_row`` numbers the classes, ``reps`` lists each class's
    representative): chirality, and the multiset of (edge type, source
    class) over its edges. The classes must be a fixed point of
    ``molgraph.refine_labels`` seeded by element and hybridization. Such a
    partition already agrees on those two and on the (bond type,
    neighbour class) multisets, so only chirality and, when a bond has a
    '/' or '\\' direction, the full multisets remain to compare."""
    atoms = graph.atoms
    if any(a.chirality is not atoms[reps[row]].chirality for a, row in zip(atoms, atom_row)):
        return False
    if all(b.direction is BondDirection.NONE for b in graph.bonds):
        return True

    def reads(atom: int) -> list[tuple[int, int]]:
        pairs = []
        for u in graph.adjacency[atom]:
            bond = graph.bond_between(atom, u)
            pairs.append((_EDGE_TYPE[bond.bond_type, bond.direction], atom_row[u]))
        return sorted(pairs)

    keys = [reads(atom) for atom in range(len(atoms))]
    return all(key == keys[reps[row]] for key, row in zip(keys, atom_row))


def lift(graph: MolecularGraph, classes: EquivalenceClasses) -> tuple[GraphIndex, ad.Ids]:
    """The rows the encoder runs on, and each atom's row.

    A message-passing layer gives equal embeddings to the atoms of a class
    of an equitable partition (Morris et al. 2019), so the encoder needs
    one row per class: its lowest-index atom, the representative. The
    row-level index holds the representatives' atom features in atom
    order and the edges into them, in ``graph_index``'s edge order, each
    source mapped to its class's row. ``classes`` must be
    ``canonical_equivalence_classes`` of ``graph``; a partition that is
    not equitable for what the layers read (element, chirality,
    hybridization, and edge type with direction) gives one row per atom,
    ``graph_index(graph)``."""
    n = len(graph.atoms)
    if classes.num_classes < n:
        row_of_class: dict[int, int] = {}
        reps: list[int] = []
        atom_row: list[int] = []
        for atom, label in enumerate(classes.class_id):
            row = row_of_class.setdefault(label, len(reps))
            if row == len(reps):  # the class's first, lowest-index atom
                reps.append(atom)
            atom_row.append(row)
        if _equitable(graph, atom_row, reps):
            return _row_index(graph, reps, atom_row), ad.Ids(atom_row, len(reps), "row")
    return graph_index(graph), ad.Ids(np.arange(n), n, "row")


@dataclass(eq=False)
class Molecule:
    """A parsed structure with everything the model needs precomputed.
    ``units`` hold each carbon's hydrogens in its adjacency order. The
    encoder runs on ``rows``, one row per symmetry class (``lift``), and
    ``atom_row`` holds each atom's row. ``heads`` are the head rows of the
    representative units, which ``predict_cross_peaks`` reads, built at
    construction. Instances compare by identity."""

    smiles: str
    graph: MolecularGraph  # hydrogens explicit, hybridization inferred
    classes: EquivalenceClasses
    units: list[CHUnit]
    rows: GraphIndex
    atom_row: ad.Ids
    heads: "HeadRows" = field(init=False)

    def __post_init__(self) -> None:
        self.heads = HeadRows.of(self, [u.carbon_index for u in self.units if u.is_representative])


def prepare_molecule(source: str | MolecularGraph) -> Molecule:
    """What the model reads of a SMILES string or a caller's graph. A
    caller's ``MolecularGraph`` is checked first (``MolecularGraph.validate``)
    and one that fails raises ValueError naming the fault; ``parse_smiles``
    rejects the same faults as it builds a graph."""
    if isinstance(source, str):
        graph = parse_smiles(source)
    else:
        graph = source
        graph.validate()
    expanded = add_explicit_hydrogens(graph)
    set_hybridization(expanded)
    classes = canonical_equivalence_classes(expanded)
    units = enumerate_ch_units(expanded, classes)
    rows, atom_row = lift(expanded, classes)
    return Molecule(smiles=graph.source_smiles, graph=expanded, classes=classes, units=units,
                    rows=rows, atom_row=atom_row)


def _parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    d = config.atom_dim
    shapes: list[tuple[str, tuple[int, ...], int]] = [
        ("embed.element", (len(SYMBOL_INDEX), d), d),
        ("embed.chirality", (len(Chirality), d), d),
        ("embed.hybridization", (len(Hybridization), d), d),
        ("embed.bond_type", (len(BondType), d), d),
        ("embed.direction", (len(BondDirection), d), d),
        ("embed.solvent_h", (len(SolventClass), config.solvent_dim_h), config.solvent_dim_h),
    ]
    for layer in range(1, config.num_layers + 1):
        shapes.append((f"layer{layer}.msg.w", (d, 2 * d), 2 * d))
        shapes.append((f"layer{layer}.msg.b", (d,), 2 * d))
        shapes.append((f"layer{layer}.upd.w", (d, 2 * d), 2 * d))
        shapes.append((f"layer{layer}.upd.b", (d,), 2 * d))
    h1, h2 = config.mlp_hidden
    h_in = 2 * d + config.solvent_dim_h
    for prefix, width_in, width_out in (
        ("c_head", d, 1),
        ("h_head", h_in, 2),
    ):
        shapes.append((f"{prefix}.w1", (h1, width_in), width_in))
        shapes.append((f"{prefix}.b1", (h1,), width_in))
        shapes.append((f"{prefix}.w2", (h2, h1), h1))
        shapes.append((f"{prefix}.b2", (h2,), h1))
        shapes.append((f"{prefix}.w3", (width_out, h2), h2))
        shapes.append((f"{prefix}.b3", (width_out,), h2))
    return shapes


def count_parameters(config: ModelConfig) -> int:
    """Total scalar parameter count implied by a config."""
    return sum(math.prod(shape) for _, shape, _ in _parameter_shapes(config))


def check_state(config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    """Raise ValueError unless ``arrays`` holds exactly the parameters of
    ``config``, each in its shape."""
    shapes = {name: shape for name, shape, _ in _parameter_shapes(config)}
    missing = shapes.keys() - arrays.keys()
    extra = arrays.keys() - shapes.keys()
    if missing or extra:
        raise ValueError(
            f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, want in shapes.items():
        got = np.shape(arrays[name])
        if got != want:
            raise ValueError(f"shape mismatch for {name}: checkpoint {got} vs config {want}")


@dataclass(frozen=True)
class HeadRows:
    """The arrays one head evaluation reads for an array of k carbons, as
    rows of the encoder's output (``Molecule.atom_row``): each carbon's
    row, the row of the hydrogen of each of their C-H bonds (``h_index``,
    with its carbon's head row in ``h_row``) and each head row's
    hydrogen-mean weight ``1 / max(count, 1)`` (a carbon without
    hydrogens, a 1D carbon target, gets a zero mean). A carbon's
    hydrogens are its unit's (``Molecule.units``), in adjacency order. The
    three index arrays are ``autodiff.Ids``, checked once here."""

    carbons: ad.Ids
    h_index: ad.Ids
    h_row: ad.Ids
    h_weight: np.ndarray

    @classmethod
    def of(cls, molecule: Molecule, carbons) -> "HeadRows":
        # checked before the map, where a negative atom would wrap around
        carbons = ad.Ids(carbons, len(molecule.graph.atoms), "carbon").array
        k = len(carbons)
        hydrogens = {u.carbon_index: u.hydrogen_indices for u in molecule.units}
        per_row = [hydrogens.get(carbon, ()) for carbon in carbons.tolist()]
        counts = np.array([len(row) for row in per_row], dtype=np.intp)
        h_row = np.arange(k).repeat(counts)
        h_index = np.array([h for row in per_row for h in row], dtype=np.intp)
        return cls(
            molecule.atom_row.take(carbons),
            molecule.atom_row.take(h_index),
            ad.Ids(h_row, k, "head row"),
            1.0 / np.maximum(counts, 1)[:, None],
        )


@dataclass(frozen=True, eq=False)
class ProtonReads:
    """The proton output each (carbon, slot) target reads, from the (k, 2)
    proton-pair outputs: the slot's own column when its carbon emits two
    peaks (``two_peak``), else the mean of the pair; ``rows`` picks each
    target's row. As arrays: the (row, column) of the outputs each
    target's two terms read, their weights, and the target each term sums
    onto. Instances compare by identity."""

    index: tuple[np.ndarray, np.ndarray]
    weight: np.ndarray
    segments: np.ndarray

    @classmethod
    def of(cls, rows, slots, two_peak) -> "ProtonReads":
        terms = np.arange(2 * len(rows))
        columns = terms % 2
        weight = np.where(
            np.asarray(two_peak, dtype=bool).repeat(2),
            columns == (np.asarray(slots, dtype=np.intp) - 1).repeat(2),
            0.5,
        )
        return cls((np.asarray(rows, dtype=np.intp).repeat(2), columns), weight, terms // 2)

    def outputs(self, raw_h: Tensor) -> Tensor:
        picked = ad.gather(raw_h, self.index)
        return ad.segment_sum(ad.scale(picked, self.weight), self.segments, len(self.weight) // 2)


@dataclass(frozen=True)
class ShiftReads:
    """The arrays one evaluation of shift targets reads, built once per
    target set: the head rows, the (row, 0) element of the carbon head's
    (k, 1) output each carbon target reads (``carbon``), and the proton
    reads, laid out by ``at``.

    ``of`` builds them for 1D targets: the head rows are the carbon
    targets' carbons, then each proton target's carbon, each carbon once,
    and each proton target reads the mean of its carbon's two proton
    outputs (1D references average inequivalent protons). Carbon targets
    may name any carbon. Proton targets name hydrogen atoms; a hydrogen's
    carbon is the first carbon in its own adjacency, the carbon of the
    first C-H bond in ``graph.bonds`` that names it. A target atom the
    model cannot cover raises ValueError."""

    heads: HeadRows
    carbon: tuple[np.ndarray, np.ndarray]
    protons: ProtonReads

    @classmethod
    def of(cls, molecule: Molecule, need_c, need_h) -> "ShiftReads":
        atoms = molecule.graph.atoms
        for idx in need_c:
            if not 0 <= idx < len(atoms) or atoms[idx].element != "C":
                raise ValueError(f"carbon target index {idx} is not a carbon atom")
        first_carbon: dict[int, int] = {}
        for bond in molecule.graph.bonds:  # each atom's adjacency runs in bond order
            for h, c in (bond.endpoints, bond.endpoints[::-1]):
                if atoms[h].element == "H" and atoms[c].element == "C":
                    first_carbon.setdefault(h, c)
        for idx in need_h:
            if not 0 <= idx < len(atoms) or atoms[idx].element != "H":
                raise ValueError(f"proton target index {idx} is not a hydrogen atom")
            if idx not in first_carbon:
                raise ValueError(f"no prediction covers hydrogen {idx}: not bonded to carbon")
        n = len(need_h)
        return cls.at(molecule, need_c, [first_carbon[idx] for idx in need_h],
                      [1] * n, [False] * n)

    @classmethod
    def at(cls, molecule: Molecule, c_carbons, h_carbons, slots, split) -> "ShiftReads":
        """The reads of carbon targets on ``c_carbons`` and of proton
        targets on ``h_carbons``, the (carbon, slot, split) of each proton
        target read by ``ProtonReads``' rule: the head rows are every
        carbon of the two lists once, in order of first appearance, and
        each carbon target reads its row's (row, 0) carbon output."""
        carbons = list(dict.fromkeys([*c_carbons, *h_carbons]))
        row = {carbon: r for r, carbon in enumerate(carbons)}
        c_rows = np.array([row[c] for c in c_carbons], dtype=np.intp)
        return cls(
            HeadRows.of(molecule, carbons),
            (c_rows, np.zeros(len(c_rows), np.intp)),
            ProtonReads.of([row[c] for c in h_carbons], slots, split),
        )


class CrossPeakModel:
    def __init__(self, config: ModelConfig, state: dict[str, np.ndarray] | None = None):
        """Parameters copied from ``state`` after ``check_state`` (the model
        never writes the caller's arrays), else drawn from ``config.seed``."""
        self.config = config
        if state is not None:
            check_state(config, state)
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Parameter] = {
            name: ad.uniform_init(rng, shape, fan_in, name) if state is None
            else Parameter(np.array(state[name], dtype=np.float64), name)
            for name, shape, fan_in in _parameter_shapes(config)
        }

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        check_state(self.config, arrays)
        for name, p in self.params.items():
            p.values[...] = arrays[name]

    # -- forward pass -------------------------------------------------------

    def encode_atoms(self, index: GraphIndex) -> list[Tensor]:
        """Node embeddings of layers 0..L, each a (rows, atom_dim) batch with
        one row per atom of ``index``; hydrogens are nodes. A molecule's
        ``rows`` have one row per symmetry class, ``graph_index`` of its
        graph one per atom.

        The atom rows and the edge-type table are one ``autodiff.embed`` op
        each, and each layer is one ``autodiff.message_layer`` op, its
        ``relu`` included on every layer but the last: it maps every atom by
        the source half of its message map and every edge type by the edge
        half, adds the two rows on each directed edge into a message, sums
        the messages onto the destination nodes and maps each node with its
        message sum.
        """
        p = self.params
        h = ad.embed(
            [p["embed.element"], p["embed.chirality"], p["embed.hybridization"]], index.ids
        )
        edge_table = ad.embed([p["embed.bond_type"], p["embed.direction"]], _EDGE_IDS)
        layers = [h]
        for layer in range(1, self.config.num_layers + 1):
            h = ad.message_layer(
                h, edge_table,
                p[f"layer{layer}.msg.w"], p[f"layer{layer}.msg.b"],
                p[f"layer{layer}.upd.w"], p[f"layer{layer}.upd.b"],
                index, activate=layer < self.config.num_layers,
            )
            layers.append(h)
        return layers

    def encode_solvent(self, solvent: SolventClass) -> Tensor:
        """The solvent's learned vector, one row."""
        return ad.gather(self.params["embed.solvent_h"], _SOLVENT_IDS[solvent])

    def _mlp(self, prefix: str, x: list[Tensor]) -> Tensor:
        p = self.params
        return ad.mlp_head(x, *(p[f"{prefix}.{name}"] for name in _HEAD_PARAMETERS))

    def head_outputs(
        self, molecule: Molecule, solvent: SolventClass, rows: HeadRows
    ) -> tuple[Tensor, Tensor]:
        """One forward pass: the raw carbon outputs (k, 1) and raw
        proton-pair outputs (k, 2) of the k carbons of ``rows``.

        The encoder runs on the molecule's ``rows``. The carbon head reads
        the carbon's final embedding; the proton head reads the carbon
        embedding, the mean embedding of its bonded hydrogens, and the
        solvent vector. Each head is one ``autodiff.mlp_head`` op.
        """
        final = self.encode_atoms(molecule.rows)[-1]
        h_c = ad.gather(final, rows.carbons)
        raw_c = self._mlp("c_head", [h_c])
        h_mean = ad.scale(
            ad.segment_sum(ad.gather(final, rows.h_index), rows.h_row, rows.h_row.bound),
            rows.h_weight,
        )
        raw_h = self._mlp("h_head", [h_c, h_mean, self.encode_solvent(solvent)])
        return raw_c, raw_h

    def predict_cross_peaks(
        self, molecule: Molecule, solvent: SolventClass
    ) -> list[PredictedPeak]:
        """Peaks of the representative C-H units. A methylene emits both
        proton outputs as separate peaks unless they lie within
        ``merge_tolerance_h`` ppm; every other unit emits one peak."""
        units = [u for u in molecule.units if u.is_representative]
        raw_c, raw_h = self.head_outputs(molecule, solvent, molecule.heads)
        pair_ppm = self.ppm_h(raw_h.values)
        two = np.array([u.max_peaks == 2 for u in units], dtype=bool) & ~(
            np.abs(pair_ppm[:, 0] - pair_ppm[:, 1]) < self.config.merge_tolerance_h
        )
        peaks = 1 + two
        rows = np.arange(len(units)).repeat(peaks)
        # a peak's slot: 1 plus its offset past the first peak of its unit
        slots = np.arange(len(rows)) - (peaks.cumsum() - peaks).repeat(peaks) + 1
        protons = ProtonReads.of(rows, slots, two[rows]).outputs(raw_h)
        delta_c = self.ppm_c(raw_c.values[rows, 0])
        delta_h = self.ppm_h(protons.values)
        finite = np.isfinite(delta_c) & np.isfinite(delta_h)
        if not finite.all():
            bad = units[rows[int(np.argmin(finite))]]
            raise FloatingPointError(f"non-finite prediction for carbon {bad.carbon_index}")
        return [
            PredictedPeak(units[row], c, h, slot)
            for row, slot, c, h in zip(rows.tolist(), slots.tolist(), delta_c.tolist(),
                                       delta_h.tolist())
        ]

    def atom_shift_tensors(
        self,
        molecule: Molecule,
        solvent: SolventClass,
        need_c: Sequence[int] = (),
        need_h: Sequence[int] = (),
        *,
        reads: ShiftReads | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Raw outputs for 1D supervision from one head evaluation, in
        argument order: the carbon outputs ``(len(need_c),)`` and the proton
        outputs ``(len(need_h),)``, by the rules of ``ShiftReads``; a target
        atom the model cannot cover raises ValueError.

        ``reads`` replaces the two target lists with their
        ``ShiftReads.of(molecule, need_c, need_h)``, built once by the caller
        (a ``Sample1D`` keeps its own).
        """
        if reads is None:
            reads = ShiftReads.of(molecule, need_c, need_h)
        elif len(need_c) or len(need_h):
            raise TypeError("give the target lists or their reads, not both")
        raw_c, raw_h = self.head_outputs(molecule, solvent, reads.heads)
        return ad.gather(raw_c, reads.carbon), reads.protons.outputs(raw_h)

    # -- unit conversions ----------------------------------------------------

    @staticmethod
    def ppm_c(raw):
        """Carbon ppm of a raw output, a float or an array."""
        return C_PPM_CENTER + C_PPM_PER_UNIT * raw

    @staticmethod
    def ppm_h(raw):
        """Proton ppm of a raw output, a float or an array."""
        return H_PPM_CENTER + H_PPM_PER_UNIT * raw
