"""Independent oracles used by the tests: attribute-aware graph isomorphism
(with tetrahedral parity), brute-force automorphism orbits, the
brute-force lexicographically smallest optimal assignment, the annealed
graduated assignment that the one-temperature softassign replaced, the
softassign that evaluated exp on every entry, the per-row labelling loop
that pseudo_annotate replaced, the per-array Adam that the flat-buffer one
replaced, the per-edge message map that the factored one replaced and the
heads with their joined input; and a checkpoint header rewriter with the
malformed headers it is given."""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import strategies as st

from hsqcnet import autodiff as ad
from hsqcnet.assign import PseudoLabel, PseudoLabels, cost_matrix, hungarian, shift_cost
from hsqcnet.model import SOLVENT_INDEX
from hsqcnet.molgraph import (
    BondDirection,
    BondType,
    Chirality,
    MolecularGraph,
    canonical_equivalence_classes,
    infer_hybridization,
)


def _flip(direction: BondDirection) -> BondDirection:
    if direction is BondDirection.END_UP_RIGHT:
        return BondDirection.END_DOWN_RIGHT
    if direction is BondDirection.END_DOWN_RIGHT:
        return BondDirection.END_UP_RIGHT
    return direction


def _atom_key(graph: MolecularGraph, i: int) -> tuple:
    a = graph.atoms[i]
    return (a.element, a.is_aromatic, a.formal_charge, a.implicit_h,
            len(graph.adjacency[i]))


def _bond_image_ok(g1: MolecularGraph, g2: MolecularGraph, u, v, mu, mv) -> bool:
    if mv not in g2.adjacency[mu]:
        return False
    b1 = g1.bond_between(u, v)
    b2 = g2.bond_between(mu, mv)
    if b1.bond_type is not b2.bond_type:
        return False
    d1 = b1.direction if b1.endpoints == (u, v) else _flip(b1.direction)
    d2 = b2.direction if b2.endpoints == (mu, mv) else _flip(b2.direction)
    return d1 is d2


def _permutation_parity_odd(reference: list[int], image: list[int]) -> bool:
    ref = list(reference)
    used = [False] * len(ref)
    perm = []
    for item in image:
        for k, r in enumerate(ref):
            if not used[k] and r == item:
                used[k] = True
                perm.append(k)
                break
        else:
            return False
    swaps = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    return swaps % 2 == 1


def _chirality_consistent(g1, g2, mapping: dict[int, int]) -> bool:
    for i, j in mapping.items():
        c1, c2 = g1.atoms[i].chirality, g2.atoms[j].chirality
        loose = (Chirality.NONE, Chirality.OTHER)
        if c1 in loose or c2 in loose:
            if (c1 in loose) != (c2 in loose):
                return False
            continue
        r1 = g1.chiral_order.get(i)
        r2 = g2.chiral_order.get(j)
        if r1 is None or r2 is None:
            if c1 is not c2:
                return False
            continue
        image = [mapping.get(x, -1) if x >= 0 else -1 for x in r1]
        if sorted(image) != sorted(r2):
            return False
        odd = _permutation_parity_odd(r2, image)
        same = c1 is c2
        if odd == same:  # odd parity must flip the mark, even must keep it
            return False
    return True


def graphs_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """Backtracking isomorphism over atoms, bonds, charges, aromaticity,
    implicit hydrogen counts, bond types/directions, and tetrahedral parity."""
    if len(g1.atoms) != len(g2.atoms) or len(g1.bonds) != len(g2.bonds):
        return False
    c1 = canonical_equivalence_classes(infer_hybridization(g1)).class_id
    c2 = canonical_equivalence_classes(infer_hybridization(g2)).class_id
    if sorted(c1) != sorted(c2):
        return False
    n = len(g1.atoms)
    order = sorted(range(n), key=lambda i: (-len(g1.adjacency[i]), c1[i]))
    candidates = {
        i: [j for j in range(n) if c2[j] == c1[i] and _atom_key(g2, j) == _atom_key(g1, i)]
        for i in order
    }

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == n:
            return _chirality_consistent(g1, g2, mapping)
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for nb in g1.adjacency[i]:
                if nb in mapping and not _bond_image_ok(g1, g2, i, nb, j, mapping[nb]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return extend(0)


def automorphism_orbits(graph: MolecularGraph) -> list[int]:
    """Orbits of the automorphism group by exhaustive search over
    attribute-preserving permutations (small graphs only)."""
    n = len(graph.atoms)
    groups: dict[tuple, list[int]] = {}
    for i in range(n):
        groups.setdefault(_atom_key(graph, i), []).append(i)

    group_lists = list(groups.values())
    orbit_parent = list(range(n))

    def find(x: int) -> int:
        while orbit_parent[x] != x:
            orbit_parent[x] = orbit_parent[orbit_parent[x]]
            x = orbit_parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            orbit_parent[rb] = ra

    for perms in itertools.product(*[itertools.permutations(g) for g in group_lists]):
        mapping = {}
        for members, image in zip(group_lists, perms):
            for src, dst in zip(members, image):
                mapping[src] = dst
        ok = True
        for bond in graph.bonds:
            u, v = bond.endpoints
            if not _bond_image_ok(graph, graph, u, v, mapping[u], mapping[v]):
                ok = False
                break
        if ok:
            for src, dst in mapping.items():
                union(src, dst)
    labels = [find(i) for i in range(n)]
    dense = {lab: k for k, lab in enumerate(sorted(set(labels)))}
    return [dense[lab] for lab in labels]


def lexicographic_optimum(cost) -> list[int]:
    """Row -> column map of the lexicographically smallest minimum-cost
    permutation, by exhaustive search; exact for integer-valued costs."""
    n = len(cost)
    best, choice = None, None
    for perm in itertools.permutations(range(n)):  # lexicographic order
        total = sum(cost[i][perm[i]] for i in range(n))
        if best is None or total < best:
            best, choice = total, perm
    return list(choice)


def _log_normalize(log_q, axis):
    peak = log_q.max(axis=axis, keepdims=True)
    return log_q - (peak + np.log(np.exp(log_q - peak).sum(axis=axis, keepdims=True)))


def annealed_graduated_assignment(cost, epsilon=1e-6, beta0=1.0, rate=1.5,
                                  beta_max=200.0, sweeps=30) -> np.ndarray:
    """The annealed softassign graduated assignment used to run: one round
    of ``sweeps`` row/column normalizations of exp(beta / (cost + epsilon))
    per temperature beta0, beta0 * rate, ... below beta_max, each round
    started afresh, the last round hardened by a row-wise argmax."""
    sim = 1.0 / (np.asarray(cost, dtype=np.float64) + epsilon)
    soft = None
    beta = beta0
    while beta < beta_max:
        log_q = beta * sim
        for _ in range(sweeps):
            log_q = _log_normalize(_log_normalize(log_q, axis=1), axis=0)
        soft = np.exp(log_q)
        beta *= rate
    assignment = np.zeros(soft.shape, dtype=np.int8)
    assignment[np.arange(soft.shape[0]), np.argmax(soft, axis=1)] = 1
    return assignment


def final_temperature(beta0: float, rate: float, beta_max: float) -> float:
    """The last temperature of the schedule beta0, beta0 * rate, ... below beta_max."""
    beta = last = beta0
    while beta < beta_max:
        last = beta
        beta *= rate
    return last


def reference_softassign(cost, settings, on_sweep=None) -> np.ndarray:
    """Softassign with exp evaluated on every entry and a fresh array per
    step: ``settings.sweeps`` row-then-column log-space normalizations of
    beta * (1 / (cost + epsilon)), ``on_sweep`` after each column one."""
    log_q = settings.beta * (1.0 / (cost + settings.epsilon))
    for _ in range(settings.sweeps):
        log_q = _log_normalize(log_q, axis=1)
        log_q = _log_normalize(log_q, axis=0)
        if on_sweep is not None:
            on_sweep(np.exp(log_q))
    return np.exp(log_q)


def reference_pseudo_annotate(predictions, observations, settings) -> PseudoLabels:
    """The per-row labelling loop: the exact matcher on equal counts, else
    the row-wise argmax of ``reference_softassign``; then per predicted row
    one argmax and one ``shift_cost``, summed into a running float."""
    n, m = len(predictions), len(observations)
    cost = cost_matrix(predictions, observations, settings.c_scale)
    if n == m:
        provenance = "hungarian"
        assignment = hungarian(cost)
    else:
        provenance = "graduated"
        soft = reference_softassign(cost, settings.ga)
        assignment = np.zeros(soft.shape, dtype=np.int8)
        assignment[np.arange(n), np.argmax(soft, axis=1)] = 1
    entries = []
    total = 0.0
    for i, pred in enumerate(predictions):
        j = int(np.argmax(assignment[i]))
        obs = observations[j]
        total += shift_cost(pred, obs, settings.c_scale)
        entries.append(PseudoLabel(
            carbon_index=pred.ch_unit.carbon_index, slot=pred.peak_slot,
            obs_index=obs.index, delta_c=obs.delta_c, delta_h=obs.delta_h,
            pred_delta_c=pred.delta_c, pred_delta_h=pred.delta_h,
        ))
    mean_cost = total / n
    return PseudoLabels(entries=entries, provenance=provenance, mean_cost=mean_cost,
                        rejected=mean_cost > settings.reject_threshold)


def reference_adam(values, grad_steps, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam the flat-buffer one replaced, from copies of
    ``values``: one update per array, a temporary for every intermediate
    result. ``grad_steps`` gives one gradient per array for each step;
    yields the arrays after each step."""
    values = [np.array(v, dtype=np.float64) for v in values]
    ms = [np.zeros_like(v) for v in values]
    vs = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        for p, m, v, g in zip(values, ms, vs, grads):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        yield values


def reference_encode(model, index) -> list:
    """The per-edge message map the factored one replaced: every layer maps
    each directed edge's source row and edge features, read as one
    (edges, 2 * atom_dim) input, by the whole ``msg.w``. Node embeddings of
    layers 0..L, on the active record."""
    p = model.params
    n = len(index.element)
    bond, direction = np.divmod(index.edge_type, len(BondDirection))

    def embedding_sum(lookups):
        total, *rest = [ad.gather(p[name], ids) for name, ids in lookups]
        for part in rest:
            total = ad.add(total, part)
        return total

    h = embedding_sum([("embed.element", index.element),
                       ("embed.chirality", index.chirality),
                       ("embed.hybridization", index.hybridization)])
    edge = embedding_sum([("embed.bond_type", bond), ("embed.direction", direction)])
    layers = [h]
    for layer in range(1, model.config.num_layers + 1):
        messages = ad.relu(ad.affine([ad.gather(h, index.src), edge],
                                     p[f"layer{layer}.msg.w"], p[f"layer{layer}.msg.b"]))
        pre = ad.affine([h, ad.segment_sum(messages, index.dst, n)],
                        p[f"layer{layer}.upd.w"], p[f"layer{layer}.upd.b"])
        h = pre if layer == model.config.num_layers else ad.relu(pre)
        layers.append(h)
    return layers


def reference_heads(model, molecule, solvent, carbons) -> tuple[np.ndarray, np.ndarray]:
    """The heads in numpy without the factored first map: each head's
    input is one joined (k, width) matrix, ``np.concatenate`` of the
    carbon embeddings, (for the proton head) the mean of each carbon's
    hydrogen embeddings, and the solvent row repeated k times, then three
    dense layers. Raw carbon outputs (k,) and proton pairs (k, 2)."""
    p = {name: param.values for name, param in model.params.items()}
    final = model.encode_atoms(molecule.index)[-1].values
    graph = molecule.graph
    k = len(carbons)
    h_c = final[np.asarray(carbons, dtype=np.intp)]
    h_mean = np.zeros_like(h_c)
    for row, carbon in enumerate(carbons):
        hydrogens = [nb for nb in graph.adjacency[carbon] if graph.atoms[nb].element == "H"]
        if hydrogens:
            h_mean[row] = final[hydrogens].mean(axis=0)

    def solvent_rows(table):
        return np.repeat(p[table][[SOLVENT_INDEX[solvent]]], k, axis=0)

    def mlp(prefix, parts):
        x = np.concatenate(parts, axis=1)
        h1 = np.maximum(x @ p[f"{prefix}.w1"].T + p[f"{prefix}.b1"], 0.0)
        h2 = np.maximum(h1 @ p[f"{prefix}.w2"].T + p[f"{prefix}.b2"], 0.0)
        return h2 @ p[f"{prefix}.w3"].T + p[f"{prefix}.b3"]

    c_parts = [h_c] + ([solvent_rows("embed.solvent_c")] if "embed.solvent_c" in p else [])
    raw_c = mlp("c_head", c_parts)[:, 0]
    raw_h = mlp("h_head", [h_c, h_mean, solvent_rows("embed.solvent_h")])
    return raw_c, raw_h


def reference_edge_arrays(graph: MolecularGraph) -> tuple[list[int], list[int], list[int]]:
    """``src``, ``dst`` and ``edge_type`` by a walk over every atom's
    adjacency, one ``bond_between`` lookup per directed edge."""
    n = len(graph.atoms)
    src = [u for v in range(n) for u in graph.adjacency[v]]
    dst = [v for v in range(n) for _ in graph.adjacency[v]]
    types = [list(BondType).index(b.bond_type) * len(BondDirection)
             + list(BondDirection).index(b.direction)
             for b in (graph.bond_between(u, v) for u, v in zip(src, dst))]
    return src, dst, types


def reference_refine_labels(graph: MolecularGraph, seeds: list) -> tuple[list[int], int]:
    """Label refinement that looks every bond type up again in each round."""
    def dense(keys):
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [order[k] for k in keys]

    labels, rounds = dense(seeds), 0
    while True:
        rounds += 1
        new = dense([(labels[i], tuple(sorted((graph.bond_between(i, j).bond_type.value, labels[j])
                                             for j in graph.adjacency[i])))
                     for i in range(len(graph.atoms))])
        if new == labels:
            return labels, rounds
        labels = new


@st.composite
def smiles_strings(draw) -> str:
    """Parseable SMILES: chains of atoms and rings with branches, double,
    triple and directional bonds, charges and tetrahedral marks."""
    chain = st.sampled_from(["C", "C", "N", "[C@@H]", "[C@H]", "c1ccccc1", "C1CC1", "c1ccncc1",
                             "C1OC1"])
    end = st.sampled_from(["C", "O", "Cl", "[O-]", "[NH3+]", "C=O", "C#N", "/C=C/C", "\\C=C/O"])
    atom = draw(chain)
    text = atom
    for _ in range(draw(st.integers(0, 6))):
        if atom in ("C", "[C@@H]", "[C@H]") and draw(st.booleans()):  # room for a branch
            text += "(" + draw(end) + ")"
        atom = draw(chain)
        text += atom
    return text + draw(end)


def rewrite_checkpoint_header(path, edit) -> None:
    """Replace the JSON header of the checkpoint file at ``path`` by
    ``edit(header)``, keeping the magic bytes and the parameter blocks."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.dumps(edit(json.loads(blob[12 : 12 + header_len]))).encode()
    path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                     + blob[12 + header_len:])


def _set(section, key, value):
    def edit(header):
        (header if section is None else header[section])[key] = value
        return header
    return edit


def _first_shape(value):
    def edit(header):
        header["params"][0]["shape"] = value
        return header
    return edit


# header edits that make a saved checkpoint unreadable, by name
BAD_CHECKPOINT_HEADERS = {
    "json list": lambda header: [header],
    "no config": lambda header: {k: v for k, v in header.items() if k != "config"},
    "unknown config key": _set("config", "atom_dims", 8),
    "bad config value": _set("config", "mlp_hidden", [6, 5, 4]),
    "string shape": _first_shape("ab"),
    "bool in shape": _first_shape([True, 8]),
    "no provenance": _set(None, "provenance", None),
    "arrays do not fit the config": _set("config", "atom_dim", 16),
    "config value not a number": _set("config", "merge_tolerance_h", "x"),
}
