"""Seeded inputs for the benchmark workloads.

Everything a workload feeds to hsqcnet is made here from the workload
seed: model weights, molecule lists, solvent choices and observed peak
lists. Only numpy is used, so the inputs do not depend on the code under
test. Observed peak lists are built from the predictions recorded in
``reference.json``, never from the predictions of the code being measured.

Reference values exist only for recorded molecules and training orders, so
the seed picks one of ``TRAIN_VARIANTS`` training orders, and the large
molecules and their solvents are fixed: the matcher's run time depends on
a molecule's exact structure, and a seeded choice among peptide sequences
moved the assign_large figures by 20 % between seeds. Peak noise,
duplicated, merged and dropped peaks, the small molecules' solvents and
request order are drawn from the seed itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

TRAIN_VARIANTS = 4
SMALL_SOLVENTS = ("chloroform", "dmso", "methanol", "water")
LARGE_SOLVENTS = ("chloroform", "dmso")

C_SCALE = 10.0  # the library's default carbon/proton cost ratio
NOISE_C = 0.3  # ppm
NOISE_H = 0.02  # ppm
# A row's designated columns must beat every other column by this much, so
# that float64 rounding (about 1e-13 here) and the matcher's 1e-9 tie
# tolerance can never change which assignments are optimal.
GAP = 1e-6
# Costs this close are the same cost: the exact matcher's tie tolerance.
TIE_TOL = 1e-9

# Weights: uniform embeddings and sqrt(3/fan_in) layers, zero biases; the
# two head output layers are rescaled so that predictions spread over about
# 10-150 ppm carbon and 1-5.5 ppm proton instead of collapsing onto the
# normalisation centres, as an untrained network's outputs do.
WEIGHT_SEED = 20240317
EMBED_BOUND = 0.5
HEAD_GAIN = {"c_head": (21.6, 6.86), "h_head": (2.6, -0.48)}

PEPTIDE_SIDE_CHAINS = {
    "G": "", "A": "C", "S": "CO", "I": "C(C)CC", "L": "CC(C)C",
    "F": "Cc1ccccc1", "T": "C(C)O", "K": "CCCCN", "E": "CCC(=O)O", "M": "CCSC",
}
PEPTIDE_LENGTHS = (10, 20, 30)
LARGE_FIXED = {
    "triglyceride": "CCCCCCCCCCCCCCCC(=O)OCC(OC(=O)CCCCCCC/C=C\\CCCCCCCC)"
                    "COC(=O)CCCCCCC/C=C\\C/C=C\\CCCCC",
    "steroid_glycoside": "CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)"
                         "OC5OC(CO)C(O)C(O)C5O)C)C",
    "trisaccharide": "OCC1OC(OCC2OC(OC3C(O)C(O)C(O)OC3CO)C(O)C(O)C2O)C(O)C(O)C1O",
    "c80_chain": "C" * 80,
}
# (list kind, solvent) per large molecule: the equal-count lists, which the
# exact matcher takes, in both solvents. Solvents are fixed here because a
# seeded choice moved the mix's median between seeds.
LARGE_LISTS = (
    ("exact", "chloroform"), ("exact", "dmso"),
    ("duplicated", "chloroform"), ("duplicated", "dmso"),
    ("merged", "chloroform"), ("dropped", "dmso"),
)
SCREEN_LIST_SETS = 4  # distinct peak lists per small molecule, cycled by round
EVAL_EVERY = 20  # screening requests between two evaluate passes


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def train_variant(seed: int) -> int:
    return seed % TRAIN_VARIANTS


def benchmark_weights(shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The benchmark's model weights, independent of the library's init."""
    rng = np.random.default_rng(WEIGHT_SEED)
    arrays = {}
    for name in sorted(shapes):
        shape = tuple(shapes[name])
        if name.startswith("embed."):
            values = rng.uniform(-EMBED_BOUND, EMBED_BOUND, shape)
        elif len(shape) == 2:
            bound = np.sqrt(3.0 / shape[1])
            values = rng.uniform(-bound, bound, shape)
        else:
            values = np.zeros(shape)
        head, _, part = name.partition(".")
        if head in HEAD_GAIN and part == "w3":
            values = values * HEAD_GAIN[head][0]
        if head in HEAD_GAIN and part == "b3":
            values = np.full(shape, HEAD_GAIN[head][1])
        arrays[name] = values
    return {name: arrays[name] for name in shapes}


def peptide_smiles(sequence: str) -> str:
    text = "N"
    for i, residue in enumerate(sequence):
        side = PEPTIDE_SIDE_CHAINS[residue]
        text += "C" + (f"({side})" if side else "") + "C(=O)"
        text += "N" if i < len(sequence) - 1 else "O"
    return text


def peptide_sequence(length: int) -> str:
    """The side-chain set repeated to ``length`` residues, in a fixed
    shuffled order."""
    residues = list("".join(PEPTIDE_SIDE_CHAINS) * (length // 10))
    order = np.random.default_rng([7001, length]).permutation(len(residues))
    return "".join(residues[i] for i in order)


def large_molecules() -> dict[str, str]:
    """name -> SMILES for the assign_large workload."""
    mols = {f"pep{n}": peptide_smiles(peptide_sequence(n)) for n in PEPTIDE_LENGTHS}
    mols.update(LARGE_FIXED)
    return mols


# ---------------------------------------------------------------------------
# Peak lists
# ---------------------------------------------------------------------------


def cost_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|proton difference| + |carbon difference| / 10, as the library
    defines the cost of matching a predicted peak to an observed one."""
    return (
        np.abs(rows[:, None, 1] - cols[None, :, 1])
        + np.abs(rows[:, None, 0] - cols[None, :, 0]) / C_SCALE
    )


@dataclass
class PeakList:
    """One observed list paired with a (molecule, solvent) prediction."""

    kind: str  # exact | duplicated | merged | dropped
    peaks: list[list[float]]  # [delta_c, delta_h], sorted by shift
    designated: list[int] | None = None  # exact lists: an optimal row -> column map
    duplicated: int = 0  # peaks replaced by a copy of a neighbour


def _locations(pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct predicted positions and, per row, the index of its position."""
    locs, inverse = np.unique(pred, axis=0, return_inverse=True)
    return locs, inverse.reshape(-1)


def _noisy_locations(locs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each distinct position moved by Gaussian noise, capped at a quarter of
    its distance to the nearest other position so it stays closest to its
    own row."""
    noise = np.column_stack(
        [rng.normal(0.0, NOISE_C, len(locs)), rng.normal(0.0, NOISE_H, len(locs))]
    )
    if len(locs) > 1:
        dist = cost_matrix(locs, locs)
        np.fill_diagonal(dist, np.inf)
        nearest = dist.min(axis=1)
        size = np.abs(noise[:, 1]) + np.abs(noise[:, 0]) / C_SCALE
        factor = np.minimum(1.0, 0.25 * nearest / np.maximum(size, 1e-300))
        noise = noise * factor[:, None]
    return locs + noise


def tie_sets(cost: np.ndarray) -> list[np.ndarray]:
    """Per row, the columns whose cost ties the row's minimum."""
    low = cost.min(axis=1, keepdims=True)
    return [np.flatnonzero(row <= m + TIE_TOL) for row, m in zip(cost, low[:, 0])]


def structure_holds(cost: np.ndarray, designated: list[int]) -> bool:
    """True when ``designated`` gives every row one of its cheapest columns
    and every other column is at least GAP dearer.

    Then the row minima sum to the optimum, every optimal assignment picks
    each row's column from its tie set, and the optimal assignments are
    exactly the perfect matchings inside the tie sets.
    """
    low = cost.min(axis=1)
    for r, row in enumerate(cost):
        ties = row <= low[r] + TIE_TOL
        if not ties[designated[r]]:
            return False
        if (~ties).any() and row[~ties].min() < low[r] + GAP:
            return False
    return True


def lexicographic_optimum(cost: np.ndarray) -> list[int]:
    """Smallest row -> column map, in lexicographic order, among perfect
    matchings inside the rows' tie sets; valid when ``structure_holds``."""
    sets = [list(s) for s in tie_sets(cost)]
    n = len(sets)
    fixed: list[int] = []
    used: set[int] = set()
    for r in range(n):
        for c in sets[r]:
            if c in used:
                continue
            if _completes(sets, r + 1, used | {c}):
                fixed.append(int(c))
                used.add(c)
                break
        else:
            raise ValueError("tie sets admit no perfect matching")
    return fixed


def _completes(sets: list[list[int]], start: int, used: set[int]) -> bool:
    """Can rows start.. be matched inside their tie sets avoiding ``used``?"""
    owner: dict[int, int] = {}

    def augment(r: int, seen: set[int]) -> bool:
        for c in sets[r]:
            if c in used or c in seen:
                continue
            seen.add(c)
            if c not in owner or augment(owner[c], seen):
                owner[c] = r
                return True
        return False

    return all(augment(r, set()) for r in range(start, len(sets)))


def _sorted_list(points: np.ndarray, owner_rows: list[int] | None):
    order = np.lexsort((points[:, 1], points[:, 0]))
    peaks = [[float(points[k, 0]), float(points[k, 1])] for k in order]
    if owner_rows is None:
        return peaks, None
    position = {int(k): i for i, k in enumerate(order)}
    return peaks, [position[k] for k in owner_rows]


def exact_list(pred: np.ndarray, rng: np.random.Generator, duplicate: int) -> PeakList:
    """Equal-count list near ``pred``; up to ``duplicate`` peaks are replaced
    by a copy of their nearest neighbour's peak, which ties the two rows.
    Only rows with a position of their own take part, so a molecule whose
    rows mostly repeat (a long chain) gets fewer duplicates."""
    for _ in range(100):
        locs, loc_of = _locations(pred)
        noisy = _noisy_locations(locs, rng)
        points = noisy[loc_of].copy()  # row r's own observed peak
        designated = list(range(len(pred)))
        singles = [
            r for r in range(len(pred)) if np.count_nonzero(loc_of == loc_of[r]) == 1
        ]
        done = 0
        taken: set[int] = set()
        for r2 in rng.permutation(singles):
            if done == duplicate:
                break
            if r2 in taken:
                continue
            dist = cost_matrix(pred[[r2]], pred)[0]
            dist[r2] = np.inf
            r1 = int(np.argmin(dist))
            if r1 in taken or r1 not in singles:
                continue
            points[r2] = points[r1]
            taken.update((int(r2), r1))
            done += 1
        if duplicate and not done:
            continue
        if structure_holds(cost_matrix(pred, points), designated):
            peaks, designated = _sorted_list(points, designated)
            return PeakList(
                kind="duplicated" if duplicate else "exact",
                peaks=peaks,
                designated=designated,
                duplicated=done,
            )
    raise RuntimeError("could not build an exact peak list with a known optimum")


def mismatched_list(pred: np.ndarray, rng: np.random.Generator, kind: str, removed: int) -> PeakList:
    """Fewer observed than predicted peaks: ``removed`` peaks are dropped, or
    merged with their nearest neighbour into one peak at the midpoint."""
    locs, loc_of = _locations(pred)
    points = _noisy_locations(locs, rng)[loc_of]
    for _ in range(removed):
        if kind == "dropped":
            victim = int(rng.integers(len(points)))
        else:
            a = int(rng.integers(len(points)))
            dist = cost_matrix(points[[a]], points)[0]
            dist[a] = np.inf
            b = int(np.argmin(dist))
            points[b] = (points[a] + points[b]) / 2.0
            victim = a
        points = np.delete(points, victim, axis=0)
    peaks, _ = _sorted_list(points, None)
    return PeakList(kind=kind, peaks=peaks)


def as_array(peaks: list) -> np.ndarray:
    """[[carbon, slot, delta_c, delta_h], ...] -> (n, 2) shift array."""
    return np.array([[p[2], p[3]] for p in peaks], dtype=np.float64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Workload request plans
# ---------------------------------------------------------------------------


@dataclass
class Request:
    label: str  # molecule name or SMILES
    smiles: str
    solvent: str
    peaks: PeakList


def screen_plan(seed: int, reference: dict) -> list[list[Request]]:
    """Per list set, one request per small molecule of the pool."""
    rng = np.random.default_rng([seed, 1])
    sets = []
    for _ in range(SCREEN_LIST_SETS):
        requests = []
        for smiles in reference["small_pool"]:
            solvent = SMALL_SOLVENTS[int(rng.integers(len(SMALL_SOLVENTS)))]
            pred = as_array(reference["predictions"][smiles][solvent])
            requests.append(Request(smiles, smiles, solvent, exact_list(pred, rng, 0)))
        sets.append(requests)
    return sets


def assign_plan(seed: int, reference: dict) -> list[Request]:
    """One request per (large molecule, list), in seeded order."""
    rng = np.random.default_rng([seed, 2])
    requests = []
    for name, smiles in large_molecules().items():
        for kind, solvent in LARGE_LISTS:
            pred = as_array(reference["predictions"][smiles][solvent])
            share = max(1, int(round(0.1 * len(pred))))
            if kind in ("exact", "duplicated"):
                peaks = exact_list(pred, rng, share if kind == "duplicated" else 0)
            else:
                peaks = mismatched_list(pred, rng, kind, share)
            requests.append(Request(name, smiles, solvent, peaks))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def digest(obj) -> str:
    """Stable hash of generated inputs, for the same-seed self-check."""
    blob = json.dumps(obj, sort_keys=True, default=lambda o: o.__dict__).encode()
    return hashlib.sha256(blob).hexdigest()
