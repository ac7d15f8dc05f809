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
scatter slots from the layer's ``LayerIndex``, and the first layer's rows
and the edge-type table are one ``autodiff.embed`` op each. One
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

Each encoder layer runs once per class of what it can see, not once per
atom. A k-layer network gives equal embeddings to atoms whose k-hop
unrollings match (Morris et al. 2019), so layer k runs on one row per
class of k rounds of colour refinement (``molgraph.refinement``), seeded
with what the layers read of an atom (element, chirality, hybridization)
and keyed by edge type with direction: level k. Level 0 embeds only the
distinct feature rows; layer k's messages and its update read level
k - 1's rows through the ``LayerIndex`` of level k, built from the key
refinement gives each class: its row one level below and its edges,
sorted by edge type and then by source row. Every atom of the class has
those edges, so an atom-level encode that sums each atom's messages in
that order gives each atom its class's row bit for bit.
``Molecule.levels(depth)`` builds levels 0..depth in one pass of
refinement on the first forward pass at that depth, not at prepare, and
keeps them for the next; levels past refinement's fixed point are the
last level again.
``HeadRows`` hold atoms, and each head evaluation maps them to the last
level's rows, so prediction, evaluation, annotation and both training
stages share one path, forward and backward. ``Molecule.heads`` holds the
head rows of the representative units, built when the molecule is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import islice
from typing import NamedTuple

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
    Hybridization,
    MolecularGraph,
    add_explicit_hydrogens,
    canonical_equivalence_classes,
    edges_into,
    enumerate_ch_units,
    refinement,
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
# every row of each atom-feature table, checked once: a subset taken from
# one needs no second check
_FEATURE_ROWS = tuple(ad.Ids(np.arange(bound), bound, name) for name, bound in _ATOM_FEATURES)
_SOLVENT_IDS = {s: ad.Ids(i, len(SolventClass), "solvent") for s, i in SOLVENT_INDEX.items()}
# the columns of the carbon head's (k, 1) and the proton head's (k, 2) outputs
_C_COLUMN = ad.Ids([0], 1, "carbon column")
_H_COLUMNS = ad.Ids([0, 1], 2, "proton column")
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


class PredictedPeak(NamedTuple):
    """One predicted cross peak of a C-H unit: an immutable record that
    compares and hashes by value."""

    ch_unit: CHUnit
    delta_c: float
    delta_h: float
    peak_slot: int


@dataclass(frozen=True, eq=False)
class LayerIndex:
    """The integer arrays one message-passing layer reads, from the rows of
    the level below it to the rows of its own level: the directed edges
    into each row, ``src`` (a row below) -> ``dst`` (a row of this level),
    each with its type ``bond * len(BondDirection) + direction``
    (``edge_type``), and ``own``, the row below that each row's update
    reads, or None where every row reads its own row below (a level that
    splits nothing). ``Molecule.levels`` builds each from refinement's
    classes, which lie in range by construction, so it checks nothing.
    ``slots`` caches the flat ``bincount`` slots of an index array per row
    width: models of different widths may share one index. Instances
    compare by identity."""

    src: np.ndarray
    dst: np.ndarray
    edge_type: np.ndarray
    own: np.ndarray | None
    _slots: dict = field(default_factory=dict, init=False, repr=False)

    def slots(self, name: str, width: int) -> np.ndarray:
        """Flat slots ``ids[:, None] * width + arange(width)`` of the index
        array ``name`` (``src``, ``dst``, ``edge_type`` or ``own``), built
        on first use."""
        key = (name, width)
        flat = self._slots.get(key)
        if flat is None:
            flat = (getattr(self, name)[:, None] * width + np.arange(width)).reshape(-1)
            self._slots[key] = flat
        return flat


def _atom_features(graph: MolecularGraph) -> list[tuple[int, int, int]]:
    """Each atom's (element, chirality, hybridization) embedding rows, of a
    graph whose hybridization has been inferred; an uninferred atom raises
    ValueError."""
    features = []
    for i, atom in enumerate(graph.atoms):
        if atom.hybridization is Hybridization.UNSPECIFIED:
            raise ValueError(
                f"atom {i} has uninferred hybridization; run "
                "set_hybridization first"
            )
        features.append((SYMBOL_INDEX[atom.element], _CHIRALITY_INDEX[atom.chirality],
                         _HYBRID_INDEX[atom.hybridization]))
    return features


def _edge_type(bond) -> int:
    return _EDGE_TYPE[bond.bond_type, bond.direction]


@dataclass(frozen=True, eq=False)
class Levels:
    """The rows an encoder of depth L runs on: the embedding ids of level
    0's rows (``ids``), the index of each layer 1..L (``layers``, layer k
    reading level k - 1 and writing level k), and each atom's row at level
    L (``atom_row``), through which the heads read the last layer."""

    ids: tuple[ad.Ids, ...]
    layers: tuple[LayerIndex, ...]
    atom_row: ad.Ids


def _layer_index(classes: list[tuple[int, ...]], atoms: int, below: int) -> LayerIndex:
    """The index of the layer that writes one row per class of a round of
    ``molgraph.refinement`` over ``atoms`` atoms, from the ``below`` rows
    of the round before. Class r is ``(its label below, *pairs)``, each
    pair ``edge_type * atoms + source label below``: row r reads that row
    below and the edges of its pairs, in their order. Refinement sorts
    them, so every atom of the class has them in that order."""
    pairs = np.array([pair for key in classes for pair in key[1:]], dtype=np.intp)
    edge_type, src = np.divmod(pairs, atoms)
    dst = np.arange(len(classes)).repeat([len(key) - 1 for key in classes])
    own = None if len(classes) == below else np.array([key[0] for key in classes], dtype=np.intp)
    return LayerIndex(src, dst, edge_type, own)


@dataclass(eq=False)
class Molecule:
    """A parsed structure with everything the model needs precomputed.
    ``units`` hold each carbon's hydrogens in its adjacency order, and
    ``heads`` are the head rows of the representative units, which
    ``predict_cross_peaks`` reads, built at construction. The encoder's
    rows (``levels``) are built on first use. Instances compare by
    identity."""

    smiles: str
    graph: MolecularGraph  # hydrogens explicit, hybridization inferred
    classes: tuple[int, ...]  # each atom's symmetry class id
    units: list[CHUnit]
    heads: "HeadRows" = field(init=False)
    _levels: dict[int, Levels] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.heads = HeadRows.of(self, [u.carbon_index for u in self.units if u.is_representative])

    def levels(self, depth: int) -> Levels:
        """The rows an encoder of ``depth`` layers runs on, built on the
        first request for ``depth`` (``_build_levels``) and kept for the
        next."""
        levels = self._levels.get(depth)
        if levels is None:
            levels = self._levels[depth] = _build_levels(self.graph, depth)
        return levels


def _build_levels(graph: MolecularGraph, depth: int) -> Levels:
    """Levels 0..``depth`` of ``graph``, from one pass of
    ``molgraph.refinement`` seeded with element, chirality and
    hybridization and keyed by edge type with direction: level k has one
    row per class of k rounds, in the order of their labels. Past
    refinement's fixed point every layer is the last one again."""
    rounds = refinement(_atom_features(graph), edges_into(graph, _edge_type))
    labels, classes = next(rounds)
    # the distinct feature rows, as subsets of checked table rows
    ids = tuple(rows.take(column) for rows, column in zip(
        _FEATURE_ROWS, np.array(classes, dtype=np.intp).reshape(len(classes), 3).T))
    layers = []
    for labels, above in islice(rounds, depth):
        layers.append(_layer_index(above, len(labels), len(classes)))
        classes = above
    layers += layers[-1:] * (depth - len(layers))
    return Levels(ids, tuple(layers), ad.Ids(labels, len(classes), "row"))


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
    return Molecule(smiles=graph.source_smiles, graph=expanded, classes=classes, units=units)


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
    atoms: each carbon, the hydrogen of each of their C-H bonds
    (``h_index``, with its carbon's head row in ``h_row``) and each head
    row's hydrogen-mean weight ``1 / max(count, 1)`` (a carbon without
    hydrogens, a 1D carbon target, gets a zero mean). A carbon's
    hydrogens are its unit's (``Molecule.units``), in adjacency order. The
    three index arrays are ``autodiff.Ids``, checked once here; a forward
    pass maps the atoms to the encoder's rows with ``Ids.take``."""

    carbons: ad.Ids
    h_index: ad.Ids
    h_row: ad.Ids
    h_weight: np.ndarray

    @classmethod
    def of(cls, molecule: Molecule, carbons) -> "HeadRows":
        atoms = len(molecule.graph.atoms)
        carbons = ad.Ids(carbons, atoms, "carbon")
        k = len(carbons.array)
        hydrogens = {u.carbon_index: u.hydrogen_indices for u in molecule.units}
        per_row = [hydrogens.get(carbon, ()) for carbon in carbons.array.tolist()]
        counts = np.array([len(row) for row in per_row], dtype=np.intp)
        h_row = np.arange(k).repeat(counts)
        h_index = [h for row in per_row for h in row]
        return cls(
            carbons,
            ad.Ids(h_index, atoms, "hydrogen"),
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
    onto, the index arrays as ``autodiff.Ids``. Instances compare by
    identity."""

    index: tuple[ad.Ids, ad.Ids]
    weight: np.ndarray
    segments: ad.Ids

    @classmethod
    def of(cls, rows: ad.Ids, slots, two_peak) -> "ProtonReads":
        targets = len(rows.array)
        terms = np.arange(2 * targets)
        columns = terms % 2
        weight = np.where(
            np.asarray(two_peak, dtype=bool).repeat(2),
            columns == (np.asarray(slots, dtype=np.intp) - 1).repeat(2),
            0.5,
        )
        return cls((rows.take(terms // 2), _H_COLUMNS.take(columns)), weight,
                   ad.Ids(terms // 2, targets, "target"))

    def outputs(self, raw_h: Tensor) -> Tensor:
        picked = ad.gather(raw_h, self.index)
        return ad.segment_sum(ad.scale(picked, self.weight), self.segments)


@dataclass(frozen=True)
class ShiftReads:
    """The arrays one evaluation of shift targets reads, built once per
    target set: the head rows, the (row, 0) element of the carbon head's
    (k, 1) output each carbon target reads (``carbon``), and the proton
    reads, laid out by ``at``. Every index array is an ``autodiff.Ids``.

    ``of`` builds them for 1D targets: the head rows are the carbon
    targets' carbons, then each proton target's carbon, each carbon once,
    and each proton target reads the mean of its carbon's two proton
    outputs (1D references average inequivalent protons). Carbon targets
    may name any carbon. Proton targets name hydrogen atoms; a hydrogen's
    carbon is the first carbon in its own adjacency, the carbon of the
    first C-H bond in ``graph.bonds`` that names it. A target atom the
    model cannot cover raises ValueError."""

    heads: HeadRows
    carbon: tuple[ad.Ids, ad.Ids]
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
        c_rows, h_rows = (ad.Ids([row[c] for c in targets], len(carbons), "head row")
                          for targets in (c_carbons, h_carbons))
        return cls(
            HeadRows.of(molecule, carbons),
            (c_rows, _C_COLUMN.take(np.zeros(len(c_rows.array), np.intp))),
            ProtonReads.of(h_rows, slots, split),
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

    def encode_atoms(self, rows: Levels) -> list[Tensor]:
        """Node embeddings of layers 0..L, each a (rows, atom_dim) batch
        with one row per row of its level; hydrogens are nodes. A
        molecule's ``Molecule.levels`` give layer k one row per class of k
        rounds of refinement.

        Level 0's rows and the edge-type table are one ``autodiff.embed``
        op each, and each layer is one ``autodiff.message_layer`` op, its
        ``relu`` included on every layer but the last: it maps every row
        below by the source half of its message map and every edge type by
        the edge half, adds the two rows on each directed edge into a
        message, sums the messages onto the destination rows and maps each
        row's own row below with its message sum.
        """
        p = self.params
        depth = self.config.num_layers
        h = ad.embed(
            [p["embed.element"], p["embed.chirality"], p["embed.hybridization"]], rows.ids
        )
        edge_table = ad.embed([p["embed.bond_type"], p["embed.direction"]], _EDGE_IDS)
        layers = [h]
        for layer, index in enumerate(rows.layers, 1):
            h = ad.message_layer(
                h, edge_table,
                p[f"layer{layer}.msg.w"], p[f"layer{layer}.msg.b"],
                p[f"layer{layer}.upd.w"], p[f"layer{layer}.upd.b"],
                index, activate=layer < depth,
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

        The encoder runs on the molecule's levels, and the heads read its
        last layer through the last level's row of each atom. The carbon
        head reads the carbon's final embedding; the proton head reads the
        carbon embedding, the mean embedding of its bonded hydrogens, and
        the solvent vector. Each head is one ``autodiff.mlp_head`` op.
        """
        levels = molecule.levels(self.config.num_layers)
        final = self.encode_atoms(levels)[-1]
        h_c = ad.gather(final, levels.atom_row.take(rows.carbons.array))
        raw_c = self._mlp("c_head", [h_c])
        h_mean = ad.scale(
            ad.segment_sum(ad.gather(final, levels.atom_row.take(rows.h_index.array)), rows.h_row),
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
        reads = ProtonReads.of(ad.Ids(rows, len(units), "head row"), slots, two[rows])
        delta_c = self.ppm_c(raw_c.values[rows, 0])
        delta_h = self.ppm_h(reads.outputs(raw_h).values)
        finite = np.isfinite(delta_c) & np.isfinite(delta_h)
        if not finite.all():
            bad = units[rows[int(np.argmin(finite))]]
            raise FloatingPointError(f"non-finite prediction for carbon {bad.carbon_index}")
        return list(map(PredictedPeak, map(units.__getitem__, rows.tolist()), delta_c.tolist(),
                        delta_h.tolist(), slots.tolist()))

    def atom_shift_tensors(
        self, molecule: Molecule, solvent: SolventClass, reads: ShiftReads
    ) -> tuple[Tensor, Tensor]:
        """Raw outputs for 1D supervision from one head evaluation: the
        carbon and the proton outputs that ``reads`` names, in its target
        order (``ShiftReads.of`` builds them from target lists; a
        ``Sample1D`` keeps its own)."""
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
