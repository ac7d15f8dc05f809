"""Cross-peak prediction network.

A message-passing graph network over atoms (hydrogens included as nodes)
in matrix form (Gilmer et al. 2017). Each layer's message on a directed
edge u -> v is ``relu(W [h_u; x_e] + b)``, computed in factored form:
``W[:, :d] h + b`` once per atom and ``W[:, d:] x`` once per edge type
(bond type x direction, 12 rows), then the sum of the source atom's row
and the edge type's row on every edge. The messages are summed onto the
destination atoms, and every atom is updated by a second affine map; the
whole layer up to its update activation is one tape op
(``autodiff.message_layer``), which reads the edge arrays and their cached
scatter slots from the molecule's ``GraphIndex``. One
head evaluation over an array of carbons feeds two MLP heads: one
predicts the carbon shift from the carbon embedding, one a pair of proton
shifts from the carbon embedding, the mean of its bonded-hydrogen
embeddings, and a learned solvent vector. Each head's first affine map
reads its inputs by weight column block, so a solvent vector is one row
shared by every carbon. Symmetry-equivalent units emit through one
representative; methylene units may emit two peaks, and ``proton_outputs``
is the one rule for which proton output a (carbon, slot) target reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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
_BOND_INDEX = {b: i for i, b in enumerate(BondType)}
_DIRECTION_INDEX = {d: i for i, d in enumerate(BondDirection)}
EDGE_TYPES = len(BondType) * len(BondDirection)
# edge type t is bond type t // len(BondDirection) and direction
# t % len(BondDirection): the bond and direction embedding rows of each
_EDGE_BOND, _EDGE_DIRECTION = np.divmod(np.arange(EDGE_TYPES), len(BondDirection))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. Defaults are desk scale; the reference scale uses
    atom_dim=512. Output heads work in normalized units; the center/scale
    constants map them to ppm. Centers sit mid-range of common organic
    shifts, and the carbon/proton scale ratio mirrors the 10:1 dispersion
    (and instrument resolution) ratio between the two nuclei."""

    num_layers: int = 5
    atom_dim: int = 64
    solvent_dim_h: int = 32
    solvent_dim_c: int = 0
    mlp_hidden: tuple[int, int] = (128, 64)
    merge_tolerance_h: float = 0.01
    seed: int = 0
    c_center: float = 70.0
    c_scale: float = 30.0
    h_center: float = 4.0
    h_scale: float = 3.0

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
            ("solvent_dim_c", self.solvent_dim_c, 0),
            ("mlp_hidden", hidden[0], 1),
            ("mlp_hidden", hidden[1], 1),
            ("seed", self.seed, 0),
        ):
            check_integer(name, value, low)
        check_real("merge_tolerance_h", self.merge_tolerance_h)
        check_real("c_center", self.c_center)
        check_real("h_center", self.h_center)
        check_real("c_scale", self.c_scale, positive=True)
        check_real("h_scale", self.h_scale, positive=True)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PredictedPeak:
    ch_unit: CHUnit
    delta_c: float
    delta_h: float
    peak_slot: int


@dataclass(frozen=True)
class GraphIndex:
    """The integer arrays one forward pass reads from a graph: the directed
    edges (every atom's adjacency in atom order, as ``src`` -> ``dst``), the
    embedding-table row of each atom feature, and each edge's type
    ``bond * len(BondDirection) + direction``.

    Construction checks that ``src`` and ``dst`` name atoms and that
    ``edge_type`` names one of the ``EDGE_TYPES`` rows, once per graph, so
    ``autodiff.message_layer`` reads them unchecked. ``slots`` caches the
    flat ``bincount`` slots of an edge array per row width: models of
    different widths may share one graph.
    """

    src: np.ndarray
    dst: np.ndarray
    element: np.ndarray
    chirality: np.ndarray
    hybridization: np.ndarray
    edge_type: np.ndarray
    _slots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = len(self.element)
        for name, bound in (("src", atoms), ("dst", atoms), ("edge_type", EDGE_TYPES)):
            ids = getattr(self, name)
            if ids.shape != self.src.shape:
                raise ValueError(f"{name} has shape {ids.shape}, src {self.src.shape}")
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise IndexError(f"{name} out of range [0, {bound})")

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
    inferred; an uninferred atom raises ValueError."""
    atoms = graph.atoms
    for atom in atoms:
        if atom.hybridization is Hybridization.UNSPECIFIED:
            raise ValueError(
                f"atom {atom.index} has uninferred hybridization; run "
                "infer_hybridization first"
            )
    # two directed edges per bond; sorted by (dst, bond) they are the adjacency
    ids = lambda values: np.array(values, dtype=np.intp)
    ends = ids([b.endpoints for b in graph.bonds]).reshape(-1, 2)
    types = ids([_BOND_INDEX[b.bond_type] * len(BondDirection) + _DIRECTION_INDEX[b.direction]
                 for b in graph.bonds])
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    bond = np.tile(np.arange(len(ends)), 2)
    order = np.lexsort((bond, dst))
    return GraphIndex(
        src=src[order],
        dst=dst[order],
        element=ids([SYMBOL_INDEX[a.element] for a in atoms]),
        chirality=ids([_CHIRALITY_INDEX[a.chirality] for a in atoms]),
        hybridization=ids([_HYBRID_INDEX[a.hybridization] for a in atoms]),
        edge_type=types[bond[order]],
    )


@dataclass
class Molecule:
    """A parsed structure with everything the model needs precomputed."""

    smiles: str
    graph: MolecularGraph  # hydrogens explicit, hybridization inferred
    classes: EquivalenceClasses
    units: list[CHUnit]
    index: GraphIndex


def prepare_molecule(source: str | MolecularGraph) -> Molecule:
    graph = parse_smiles(source) if isinstance(source, str) else source
    expanded = add_explicit_hydrogens(graph)
    set_hybridization(expanded)
    classes = canonical_equivalence_classes(expanded)
    units = enumerate_ch_units(expanded, classes)
    return Molecule(
        smiles=graph.source_smiles, graph=expanded, classes=classes, units=units,
        index=graph_index(expanded),
    )


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
    if config.solvent_dim_c > 0:
        shapes.append(
            ("embed.solvent_c", (len(SolventClass), config.solvent_dim_c), config.solvent_dim_c)
        )
    for layer in range(1, config.num_layers + 1):
        shapes.append((f"layer{layer}.msg.w", (d, 2 * d), 2 * d))
        shapes.append((f"layer{layer}.msg.b", (d,), 2 * d))
        shapes.append((f"layer{layer}.upd.w", (d, 2 * d), 2 * d))
        shapes.append((f"layer{layer}.upd.b", (d,), 2 * d))
    h1, h2 = config.mlp_hidden
    c_in = d + config.solvent_dim_c
    h_in = 2 * d + config.solvent_dim_h
    for prefix, width_in, width_out in (
        ("c_head", c_in, 1),
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


def proton_outputs(raw_h: Tensor, rows, slots, two_peak) -> Tensor:
    """The proton output each (carbon, slot) target reads, from the
    (k, 2) proton-pair outputs: the slot's own column when its carbon emits
    two peaks, else the mean of the pair. ``rows`` picks each target's row
    of ``raw_h``; ``two_peak`` says whether its carbon emits two peaks."""
    n = len(rows)
    columns = np.tile([0, 1], n)
    weight = np.where(
        np.repeat(np.asarray(two_peak, dtype=bool), 2),
        columns == np.repeat(np.asarray(slots, dtype=np.intp) - 1, 2),
        0.5,
    )
    picked = ad.gather(raw_h, (np.repeat(np.asarray(rows, dtype=np.intp), 2), columns))
    return ad.segment_sum(ad.scale(picked, weight), np.repeat(np.arange(n), 2), n)


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
        """Node embeddings of layers 0..L, each an (atoms, atom_dim) row
        batch; hydrogens are nodes.

        Each layer is one ``autodiff.message_layer`` op, followed by a
        ``relu`` on every layer but the last: it maps every atom by the
        source half of its message map and every edge type by the edge
        half, adds the two rows on each directed edge into a message, sums
        the messages onto the destination nodes and maps each node with its
        message sum.
        """
        p = self.params
        h = ad.add(
            ad.add(
                ad.gather(p["embed.element"], index.element),
                ad.gather(p["embed.chirality"], index.chirality),
            ),
            ad.gather(p["embed.hybridization"], index.hybridization),
        )
        edge_table = ad.add(
            ad.gather(p["embed.bond_type"], _EDGE_BOND),
            ad.gather(p["embed.direction"], _EDGE_DIRECTION),
        )
        layers = [h]
        for layer in range(1, self.config.num_layers + 1):
            pre = ad.message_layer(
                h, edge_table,
                p[f"layer{layer}.msg.w"], p[f"layer{layer}.msg.b"],
                p[f"layer{layer}.upd.w"], p[f"layer{layer}.upd.b"],
                index,
            )
            h = pre if layer == self.config.num_layers else ad.relu(pre)
            layers.append(h)
        return layers

    def encode_solvent(self, solvent: SolventClass, table: str = "embed.solvent_h") -> Tensor:
        """The solvent's learned vector from ``table``, one row."""
        return ad.gather(self.params[table], SOLVENT_INDEX[solvent])

    def _mlp(self, prefix: str, x: list[Tensor]) -> Tensor:
        p = self.params
        h1 = ad.relu(ad.affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        h2 = ad.relu(ad.affine(h1, p[f"{prefix}.w2"], p[f"{prefix}.b2"]))
        return ad.affine(h2, p[f"{prefix}.w3"], p[f"{prefix}.b3"])

    def head_outputs(
        self, molecule: Molecule, solvent: SolventClass, carbons
    ) -> tuple[Tensor, Tensor]:
        """One forward pass: raw carbon outputs (k,) and raw proton-pair
        outputs (k, 2) for an array of k carbon indices.

        The carbon head reads the carbon's final embedding (plus the carbon
        solvent vector when configured); the proton head reads the carbon
        embedding, the mean embedding of its bonded hydrogens, and the
        proton solvent vector.
        """
        graph = molecule.graph
        final = self.encode_atoms(molecule.index)[-1]
        carbons = np.asarray(carbons, dtype=np.intp)
        k = len(carbons)
        hydrogens = [
            (nb, row)
            for row, carbon in enumerate(carbons)
            for nb in graph.adjacency[carbon]
            if graph.atoms[nb].element == "H"
        ]
        h_index = np.array([nb for nb, _ in hydrogens], dtype=np.intp)
        h_row = np.array([row for _, row in hydrogens], dtype=np.intp)
        # a carbon without hydrogens (a 1D carbon target) gets a zero mean
        counts = np.maximum(np.bincount(h_row, minlength=k), 1)
        h_c = ad.gather(final, carbons)
        c_in = [h_c]
        if self.config.solvent_dim_c > 0:
            c_in.append(self.encode_solvent(solvent, "embed.solvent_c"))
        raw_c = ad.gather(self._mlp("c_head", c_in), (np.arange(k), np.zeros(k, np.intp)))
        h_mean = ad.scale(
            ad.segment_sum(ad.gather(final, h_index), h_row, k), 1.0 / counts[:, None]
        )
        raw_h = self._mlp("h_head", [h_c, h_mean, self.encode_solvent(solvent)])
        return raw_c, raw_h

    def predict_cross_peaks(
        self, molecule: Molecule, solvent: SolventClass
    ) -> list[PredictedPeak]:
        """Peaks of the representative C-H units. A methylene emits both
        proton outputs as separate peaks unless they lie within
        ``merge_tolerance_h`` ppm; every other unit emits one peak."""
        cfg = self.config
        units = [u for u in molecule.units if u.is_representative]
        raw_c, raw_h = self.head_outputs(
            molecule, solvent, [u.carbon_index for u in units]
        )
        pair_ppm = self.ppm_h(raw_h.values)
        rows: list[int] = []
        slots: list[int] = []
        split: list[bool] = []
        for row, unit in enumerate(units):
            two = unit.max_peaks == 2 and not (
                abs(pair_ppm[row, 0] - pair_ppm[row, 1]) < cfg.merge_tolerance_h
            )
            for slot in (1, 2) if two else (1,):
                rows.append(row)
                slots.append(slot)
                split.append(two)
        protons = proton_outputs(raw_h, rows, slots, split)
        delta_c = self.ppm_c(raw_c.values[rows])
        delta_h = self.ppm_h(protons.values)
        finite = np.isfinite(delta_c) & np.isfinite(delta_h)
        if not finite.all():
            bad = units[rows[int(np.argmin(finite))]]
            raise FloatingPointError(f"non-finite prediction for carbon {bad.carbon_index}")
        return [
            PredictedPeak(units[row], c, h, slot)
            for row, slot, c, h in zip(rows, slots, delta_c.tolist(), delta_h.tolist())
        ]

    def atom_shift_tensors(
        self,
        molecule: Molecule,
        solvent: SolventClass,
        need_c: list[int],
        need_h: list[int],
    ) -> tuple[Tensor, Tensor]:
        """Raw outputs for 1D supervision from one head evaluation, in
        argument order: the carbon outputs ``(len(need_c),)`` and the proton
        outputs ``(len(need_h),)``.

        Carbon targets may name any carbon. Proton targets name hydrogen
        atoms; each reads the mean of its carbon's two proton-head outputs
        (1D references average inequivalent protons), by the
        ``proton_outputs`` rule. A target atom the model cannot cover
        raises ValueError.
        """
        graph = molecule.graph
        atoms = graph.atoms
        for idx in need_c:
            if not 0 <= idx < len(atoms) or atoms[idx].element != "C":
                raise ValueError(f"carbon target index {idx} is not a carbon atom")
        carbon_of: list[int] = []
        for idx in need_h:
            if not 0 <= idx < len(atoms) or atoms[idx].element != "H":
                raise ValueError(f"proton target index {idx} is not a hydrogen atom")
            carbons = [nb for nb in graph.adjacency[idx] if atoms[nb].element == "C"]
            if not carbons:
                raise ValueError(
                    f"no prediction covers hydrogen {idx}: not bonded to carbon"
                )
            carbon_of.append(carbons[0])
        carbons = list(dict.fromkeys([*need_c, *carbon_of]))
        row = {carbon: r for r, carbon in enumerate(carbons)}
        raw_c, raw_h = self.head_outputs(molecule, solvent, carbons)
        n = len(carbon_of)
        protons = proton_outputs(raw_h, [row[c] for c in carbon_of], [1] * n, [False] * n)
        return ad.gather(raw_c, [row[idx] for idx in need_c]), protons

    # -- unit conversions ----------------------------------------------------

    def ppm_c(self, raw):
        """Carbon ppm of a raw output, a float or an array."""
        return self.config.c_center + self.config.c_scale * raw

    def ppm_h(self, raw):
        """Proton ppm of a raw output, a float or an array."""
        return self.config.h_center + self.config.h_scale * raw
