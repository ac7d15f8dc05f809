"""Independent oracles used by the tests: attribute-aware graph isomorphism
(with tetrahedral parity), brute-force automorphism orbits, the
brute-force lexicographically smallest optimal assignment, the exact
matcher's alternating-path tie-break run over every row (as before tight
groups took their columns in closed form), the copying
form of ``set_hybridization`` (``infer_hybridization``), the annealed
graduated assignment that the one-temperature softassign replaced, the
softassign that evaluated exp on every entry, the per-row labelling loop
that pseudo_annotate replaced, the per-array Adam (folded, and in the
textbook order it replaced), the affine and relu ops that ``mlp_head`` and
``message_layer`` fuse, the gather/add chain that ``embed`` fuses, the
per-edge message map that the factored one replaced, the heads with their
joined input, the per-carbon C-H walk and the hand-built reads of
pseudo-labels that ``ShiftReads.at`` replaced, the canonical writer's
tetrahedral parity by cycle sorting, and the encoder's levels with one
row per atom at every level (``atom_levels``, built from ``model``'s own
level parts), the reference that the encode by classes of atoms is
checked against; and a checkpoint header rewriter with the malformed
headers it is given."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from hsqcnet import autodiff as ad
from hsqcnet.assign import (
    PseudoLabel, PseudoLabels, _reduced_costs, cost_matrix, hungarian, linear_sum_assignment,
    shift_cost,
)
from hsqcnet.model import (
    _FEATURE_ROWS, SOLVENT_INDEX, HeadRows, Levels, Molecule, ProtonReads, ShiftReads,
    _atom_features, _edge_type, _layer_index,
)
from hsqcnet.molgraph import (
    BondDirection,
    BondType,
    Chirality,
    MolecularGraph,
    canonical_equivalence_classes,
    edges_into,
    refinement,
    relabel_atoms,
    set_hybridization,
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


def reference_parity_is_odd(reference: list[int], emitted: list[int]) -> bool:
    """The canonical writer's parity rule by matching and cycle sorting;
    lists that do not hold the same entries count as even."""
    if sorted(reference) != sorted(emitted) or len(reference) < 2:
        return False
    return _permutation_parity_odd(reference, emitted)


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


def infer_hybridization(graph: MolecularGraph) -> MolecularGraph:
    """A copy of ``graph`` with its hybridization set, the input left alone:
    ``set_hybridization`` on an identity relabelling."""
    out = relabel_atoms(graph, list(range(len(graph.atoms))))
    set_hybridization(out)
    return out


def graphs_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """Backtracking isomorphism over atoms, bonds, charges, aromaticity,
    implicit hydrogen counts, bond types/directions, and tetrahedral parity."""
    if len(g1.atoms) != len(g2.atoms) or len(g1.bonds) != len(g2.bonds):
        return False
    c1 = canonical_equivalence_classes(infer_hybridization(g1))
    c2 = canonical_equivalence_classes(infer_hybridization(g2))
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


def searched_tie_break(cost) -> list[int]:
    """Row -> column map of ``hungarian`` when the alternating-path search
    visits every row with more than one tight edge: the same solve and
    tight edges, then each such row in order moves to the smallest tight
    column below its own whose owner can pass its column on, along tight
    edges of later rows, until one takes its old column."""
    cost = np.asarray(cost, dtype=np.float64)
    n = len(cost)
    _, cols = linear_sum_assignment(cost)
    tol = 1e-9 * max(1.0, abs(float(cost[np.arange(n), cols].sum())))
    tight = _reduced_costs(cost, cols, tol) <= tol
    owner = np.empty(n, dtype=np.intp)
    owner[cols] = np.arange(n)
    for r in np.flatnonzero(tight.sum(axis=1) > 1):
        below = np.flatnonzero(tight[r, : cols[r]])
        below = below[owner[below] > r]
        if below.size == 0:
            continue
        target = np.full(n, -1)
        open_rows = np.arange(n) > r
        frontier = cols[r : r + 1]
        while frontier.size:
            hits = tight[:, frontier] & open_rows[:, None]
            reached = np.flatnonzero(hits.any(axis=1))
            target[reached] = frontier[hits[reached].argmax(axis=1)]
            open_rows[reached] = False
            frontier = cols[reached]
        below = below[target[owner[below]] >= 0]
        if below.size == 0:
            continue
        j = below[0]
        row, freed = owner[j], cols[r]
        cols[r], owner[j] = j, r
        while True:
            col = target[row]
            nxt = owner[col]
            cols[row], owner[col] = col, row
            if col == freed:
                break
            row = nxt
    return cols.tolist()


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
            obs_index=j, delta_c=obs.delta_c, delta_h=obs.delta_h,
            pred_delta_c=pred.delta_c, pred_delta_h=pred.delta_h,
        ))
    mean_cost = total / n
    return PseudoLabels(entries=entries, provenance=provenance, mean_cost=mean_cost,
                        rejected=mean_cost > settings.reject_threshold)


def reference_adam(values, grad_steps, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                   folded=True):
    """Adam per array, from copies of ``values``: one update per array, a
    temporary for every intermediate result. ``folded`` gives the form
    ``Adam.step`` uses (Kingma & Ba 2015, section 2: the bias corrections
    folded into the step size and eps, once per step); otherwise the
    textbook order of Algorithm 1, dividing ``m`` and ``v`` by their
    corrections element by element. ``grad_steps`` gives one gradient per
    array for each step; yields the arrays after each step."""
    values = [np.array(v, dtype=np.float64) for v in values]
    ms = [np.zeros_like(v) for v in values]
    vs = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        root = math.sqrt(1 - beta2**t)
        lr_t = lr * root / (1 - beta1**t)
        eps_t = eps * root
        for p, m, v, g in zip(values, ms, vs, grads):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            if folded:
                p -= lr_t * (m / (np.sqrt(v) + eps_t))
            else:
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        yield values


def reference_add(a, b):
    """Element-wise sum of two tensors of one shape, as its own tape entry:
    the op the chains below add embedding rows with."""
    assert a.values.shape == b.values.shape, (a.shape, b.shape)
    out = ad.Tensor(a.values + b.values)
    tape = ad._tape()
    if tape is not None:

        def adjoint(g, acc):
            acc(a, g)
            acc(b, g)

        tape._push(out, adjoint)
    return out


def reference_affine(x, weight, bias):
    """``x @ weight.T + bias`` for a vector or a batch of rows, or for a list of
    parts joined along features, never built, as its own tape entry: each
    part meets its own block of weight columns (``mlp_head``'s rule), and a
    one-dimensional part is a row shared by the batch."""
    parts = x if isinstance(x, list) else [x]
    arrays = [part.values for part in parts]
    columns, _ = ad._column_blocks([a.shape for a in arrays], weight, bias, "affine")
    out = ad.Tensor(ad._block_values(arrays, weight, bias, columns))
    tape = ad._tape()
    if tape is not None:

        def adjoint(g, acc):
            grads = ad._block_adjoint(g, arrays, weight, bias, columns, acc)
            for part, grad in zip(parts, grads):
                acc(part, grad)

        tape._push(out, adjoint)
    return out


def reference_relu(x):
    """``max(x, 0)`` element-wise, as its own tape entry."""
    out = ad.Tensor(np.maximum(x.values, 0.0))
    tape = ad._tape()
    if tape is not None:
        mask = x.values > 0.0
        tape._push(out, lambda g, acc: acc(x, g * mask))
    return out


def reference_embed(tables, indices):
    """The chain of ops ``autodiff.embed`` fuses: one ``gather`` per table,
    added in table order, ``2 * len(tables) - 1`` tape entries."""
    total, *rest = [ad.gather(table, idx) for table, idx in zip(tables, indices)]
    for part in rest:
        total = reference_add(total, part)
    return total


def reference_mlp_head(parts, w1, b1, w2, b2, w3, b3):
    """The chain of ops ``autodiff.mlp_head`` fuses: three affine maps with
    a relu after the first two, five tape entries."""
    h1 = reference_relu(reference_affine(parts, w1, b1))
    h2 = reference_relu(reference_affine(h1, w2, b2))
    return reference_affine(h2, w3, b3)


def reference_encode(model, levels: Levels) -> list:
    """The per-edge message map the factored one replaced: every layer maps
    each directed edge's source row and edge features, read as one
    (edges, 2 * atom_dim) input, by the whole ``msg.w``. Node embeddings of
    layers 0..L of one-row-per-atom ``levels`` (``atom_levels``), on the
    active record."""
    p = model.params
    index = levels.layers[0]  # every layer's
    n = levels.atom_row.bound
    bond, direction = np.divmod(index.edge_type, len(BondDirection))

    h = reference_embed([p["embed.element"], p["embed.chirality"], p["embed.hybridization"]],
                        levels.ids)
    edge = reference_embed([p["embed.bond_type"], p["embed.direction"]],
                           [ad.Ids(bond, len(BondType)), ad.Ids(direction, len(BondDirection))])
    src, dst = ad.Ids(index.src, n), ad.Ids(index.dst, n)
    layers = [h]
    for layer in range(1, model.config.num_layers + 1):
        messages = reference_relu(reference_affine(
            [ad.gather(h, src), edge], p[f"layer{layer}.msg.w"], p[f"layer{layer}.msg.b"]))
        pre = reference_affine([h, ad.segment_sum(messages, dst)],
                               p[f"layer{layer}.upd.w"], p[f"layer{layer}.upd.b"])
        h = pre if layer == model.config.num_layers else reference_relu(pre)
        layers.append(h)
    return layers


def atom_levels(graph: MolecularGraph, depth: int, order=None) -> Levels:
    """The ``Levels`` of ``graph`` with one row per atom at every level, as
    before the encoder ran on classes of atoms: every layer reads
    ``_layer_index`` of one class per atom, keyed by its own pairs. Each
    atom's edges run in bond order (``molgraph.edges_into``), or sorted by
    edge type and then by ``order[source]``; an uninferred atom raises
    ValueError (``_atom_features``)."""
    features = _atom_features(graph)
    into = edges_into(graph, _edge_type)
    if order is not None:
        into = [sorted(pairs, key=lambda pair: (pair[0], order[pair[1]])) for pairs in into]
    n = len(into)
    layer = _layer_index([(atom, *[kind * n + u for kind, u in pairs])
                          for atom, pairs in enumerate(into)], n, n)
    ids = tuple(rows.take(column) for rows, column in
                zip(_FEATURE_ROWS, np.array(features, dtype=np.intp).reshape(n, 3).T))
    return Levels(ids, (layer,) * depth, ad.Ids(np.arange(n), n, "row"))


def class_ordered_levels(graph: MolecularGraph, depth: int) -> Levels:
    """``atom_levels`` with each atom's edges sorted by edge type, then by
    the source's class at the fixed point of the encoder's refinement. Each
    round's classes coarsen the fixed point's in label order, so at every
    level an atom sums its messages in the order the row of its class
    does, and an encode by classes can match this one bit for bit."""
    *_, (finest, _) = refinement(_atom_features(graph), edges_into(graph, _edge_type))
    return atom_levels(graph, depth, finest)


class _AtomLevel(Molecule):
    """A molecule whose encoder runs one row per atom at every level."""

    def levels(self, depth: int) -> Levels:
        return class_ordered_levels(self.graph, depth)


def atom_level(molecule):
    """``molecule`` with one encoder row per atom at every level, as before
    the encoder ran on classes of atoms, each atom's edges in class order
    (``class_ordered_levels``)."""
    return _AtomLevel(molecule.smiles, molecule.graph, molecule.classes, molecule.units)


def encode_per_atom(model, graph: MolecularGraph) -> list:
    """``model``'s encode of ``graph`` with one row per atom at every
    level, each atom's edges in bond order (``atom_levels``)."""
    return model.encode_atoms(atom_levels(graph, model.config.num_layers))


def reference_heads(model, molecule, solvent, carbons) -> tuple[np.ndarray, np.ndarray]:
    """The heads in numpy without the factored first map: each head's
    input is one joined (k, width) matrix, ``np.concatenate`` of the
    carbon embeddings and, for the proton head, the mean of each carbon's
    hydrogen embeddings and the solvent row repeated k times, then three
    dense layers. Raw carbon outputs (k, 1) and proton pairs (k, 2)."""
    p = {name: param.values for name, param in model.params.items()}
    final = encode_per_atom(model, molecule.graph)[-1].values
    graph = molecule.graph
    k = len(carbons)
    h_c = final[np.asarray(carbons, dtype=np.intp)]
    h_mean = np.zeros_like(h_c)
    for row, carbon in enumerate(carbons):
        hydrogens = [nb for nb in graph.adjacency[carbon] if graph.atoms[nb].element == "H"]
        if hydrogens:
            h_mean[row] = final[hydrogens].mean(axis=0)

    def mlp(prefix, parts):
        x = np.concatenate(parts, axis=1)
        h1 = np.maximum(x @ p[f"{prefix}.w1"].T + p[f"{prefix}.b1"], 0.0)
        h2 = np.maximum(h1 @ p[f"{prefix}.w2"].T + p[f"{prefix}.b2"], 0.0)
        return h2 @ p[f"{prefix}.w3"].T + p[f"{prefix}.b3"]

    solvent_rows = np.repeat(p["embed.solvent_h"][[SOLVENT_INDEX[solvent]]], k, axis=0)
    raw_c = mlp("c_head", [h_c])
    raw_h = mlp("h_head", [h_c, h_mean, solvent_rows])
    return raw_c, raw_h


def reference_label_reads(molecule, labels) -> ShiftReads:
    """The reads of a molecule's pseudo-labels as ``LabelTarget.of`` built
    them by hand before ``ShiftReads.at``: the labels in (carbon, slot)
    order, their carbons ascending as head rows, and a slot-2 label's
    carbon split."""
    entries = sorted(labels.entries, key=lambda e: (e.carbon_index, e.slot))
    carbons = sorted({e.carbon_index for e in entries})
    split = {e.carbon_index for e in entries if e.slot == 2}
    row = {carbon: r for r, carbon in enumerate(carbons)}
    rows = ad.Ids([row[e.carbon_index] for e in entries], len(carbons))
    return ShiftReads(
        HeadRows.of(molecule, carbons),
        (rows, ad.Ids(np.zeros(len(entries), np.intp), 1)),
        ProtonReads.of(rows, [e.slot for e in entries],
                       [e.carbon_index in split for e in entries]),
    )


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


def reference_refine_labels(graph: MolecularGraph, seeds: list) -> list[int]:
    """Label refinement that looks every bond type up again in each round."""
    def dense(keys):
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [order[k] for k in keys]

    labels = dense(seeds)
    while True:
        new = dense([(labels[i], tuple(sorted((graph.bond_between(i, j).bond_type.value, labels[j])
                                             for j in graph.adjacency[i])))
                     for i in range(len(graph.atoms))])
        if new == labels:
            return labels
        labels = new


def reference_ch_bonds(graph: MolecularGraph) -> tuple[list[int], list[int]]:
    """The C-H bonds by a walk over every carbon's adjacency, in atom order:
    (carbon of each bond, hydrogen of each bond)."""
    bonds = [(i, nb) for i, atom in enumerate(graph.atoms) if atom.element == "C"
             for nb in graph.adjacency[i] if graph.atoms[nb].element == "H"]
    return [c for c, _ in bonds], [h for _, h in bonds]


@st.composite
def smiles_strings(draw, bracket_h: bool = False) -> str:
    """Parseable SMILES: chains of atoms and rings with branches, double,
    triple and directional bonds, charges and tetrahedral marks; with
    ``bracket_h``, also ``[H]`` atoms, bonded to one carbon or (in a chain
    or a ring) to two, the ring one first to the later carbon."""
    hydrogens = ["[H]", "C[H]C", "C1C[H]1"] if bracket_h else []
    chain = st.sampled_from(["C", "C", "N", "[C@@H]", "[C@H]", "c1ccccc1", "C1CC1", "c1ccncc1",
                             "C1OC1", *hydrogens])
    end = st.sampled_from(["C", "O", "Cl", "[O-]", "[NH3+]", "C=O", "C#N", "/C=C/C", "\\C=C/O",
                           *hydrogens[:1]])
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


def v1_header(header, **retired):
    """``header`` as checkpoints were written while ``ModelConfig`` had 11
    fields: the five retired ones (a carbon solvent width and the four
    output-unit fields) in their places, at their old defaults unless
    ``retired`` sets them, and the SHA-256 of that config, sorted-key JSON,
    appended to the provenance as ``config_hash``."""
    c = header["config"]
    header["config"] = {
        "num_layers": c["num_layers"], "atom_dim": c["atom_dim"],
        "solvent_dim_h": c["solvent_dim_h"], "solvent_dim_c": 0, "mlp_hidden": c["mlp_hidden"],
        "merge_tolerance_h": c["merge_tolerance_h"], "seed": c["seed"],
        "c_center": 70.0, "c_scale": 30.0, "h_center": 4.0, "h_scale": 3.0,
    }
    header["config"].update(retired)
    blob = json.dumps(header["config"], sort_keys=True).encode()
    header["provenance"]["config_hash"] = hashlib.sha256(blob).hexdigest()
    return header


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
    "retired solvent_dim_c not 0": lambda header: v1_header(header, solvent_dim_c=3),
    "retired c_scale not 30": lambda header: v1_header(header, c_scale=25.0),
}
# what the error of some of those edits must name
BAD_CHECKPOINT_MESSAGES = {
    "unknown config key": "['atom_dims'] in section 'config'",
    "retired solvent_dim_c not 0": "'solvent_dim_c' is 3",
    "retired c_scale not 30": "'c_scale' is 25.0",
}
