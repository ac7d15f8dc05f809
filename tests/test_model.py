from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from hsqcnet import autodiff as ad
from hsqcnet import model as model_module
from hsqcnet.assign import ObservedPeak, pseudo_annotate
from hsqcnet.model import (
    CrossPeakModel,
    HeadRows,
    ModelConfig,
    Molecule,
    ProtonReads,
    ShiftReads,
    SolventClass,
    _parameter_shapes,
    count_parameters,
    prepare_molecule,
)
from hsqcnet.molgraph import (
    AtomSpec, BondSpec, BondType, MolecularGraph, canonical_equivalence_classes,
    enumerate_ch_units, relabel_atoms,
)
from hsqcnet.smiles import parse_smiles
from hsqcnet.train import LabelTarget, Sample1D, SampleHSQC, TrainConfig, _loss, mtt_pretrain
from helpers import (
    atom_level,
    atom_levels,
    class_ordered_levels,
    encode_per_atom,
    reference_ch_bonds,
    reference_edge_arrays,
    reference_embed,
    reference_encode,
    reference_heads,
    reference_mlp_head,
    reference_relu,
    smiles_strings,
)


def _heads(model, molecule, solvent, carbons):
    """The model's head outputs for a list of carbons."""
    return model.head_outputs(molecule, solvent, HeadRows.of(molecule, carbons))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(atom_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(solvent_dim_h=0)
    with pytest.raises(ValueError, match="two layer widths"):
        ModelConfig(mlp_hidden=(6, 5, 4))
    for bad in ({"atom_dim": 8.5}, {"num_layers": True}, {"seed": -1}, {"mlp_hidden": 5},
                {"mlp_hidden": (6, 5.5)}, {"merge_tolerance_h": "x"},
                {"merge_tolerance_h": float("nan")}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)


def test_config_reads_mlp_hidden_as_json_gives_it():
    from_json = ModelConfig(mlp_hidden=[6, 5])
    assert from_json == ModelConfig(mlp_hidden=(6, 5))
    assert from_json.mlp_hidden == (6, 5)
    assert hash(from_json) == hash(ModelConfig(mlp_hidden=(6, 5)))


def test_solvent_class_has_nine_members():
    assert len(SolventClass) == 9


def test_count_parameters_desk_default_pinned():
    assert count_parameters(ModelConfig()) == 136995


def test_count_parameters_matches_declared_shapes():
    config = ModelConfig(num_layers=3, atom_dim=24, solvent_dim_h=8, mlp_hidden=(16, 12))
    total = 0
    for _name, shape, _fan in _parameter_shapes(config):
        size = 1
        for s in shape:
            size *= s
        total += size
    assert count_parameters(config) == total
    model = CrossPeakModel(config)
    assert sum(p.values.size for p in model.parameters()) == total


def test_count_parameters_monotone_in_width():
    small = count_parameters(ModelConfig(atom_dim=32))
    large = count_parameters(ModelConfig(atom_dim=64))
    assert large > small


def test_count_parameters_deterministic():
    config = ModelConfig()
    assert count_parameters(config) == count_parameters(ModelConfig())


def test_init_deterministic_by_seed(tiny_config):
    a = CrossPeakModel(tiny_config)
    b = CrossPeakModel(tiny_config)
    for name in a.params:
        assert np.array_equal(a.params[name].values, b.params[name].values)


def test_benzene_embeddings_identical(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("c1ccccc1")
    layers = encode_per_atom(model, mol.graph)
    for layer in layers:
        first = layer.values[0]
        for i in range(1, 6):
            assert np.allclose(layer.values[i], first, atol=1e-12, rtol=0)


def test_single_atom_graph_message_is_zero(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("[Na+]")
    layers = encode_per_atom(model, mol.graph)
    assert len(layers) == tiny_config.num_layers + 1
    assert np.all(np.isfinite(layers[-1].values[0]))


def test_uninferred_hybridization_rejected(tiny_config):
    from hsqcnet.molgraph import add_explicit_hydrogens

    graph = add_explicit_hydrogens(parse_smiles("C"))  # no inference step
    classes = canonical_equivalence_classes(graph)
    molecule = Molecule("C", graph, classes, enumerate_ch_units(graph, classes))
    with pytest.raises(ValueError, match="hybridization"):
        molecule.levels(1)


def test_permutation_equivariance_embeddings(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("CCO")
    rng = np.random.default_rng(5)
    base = encode_per_atom(model, mol.graph)[-1]
    n = len(mol.graph.atoms)
    perm = list(rng.permutation(n))
    permuted = relabel_atoms(mol.graph, perm)
    layers = encode_per_atom(model, permuted)[-1]
    for v in range(n):
        assert np.allclose(
            layers.values[perm[v]], base.values[v], atol=1e-12, rtol=0
        )


def test_peak_counts():
    model = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=10, solvent_dim_h=4, mlp_hidden=(8, 6)))
    assert len(model.predict_cross_peaks(prepare_molecule("C"), SolventClass.UNKNOWN)) == 1
    assert len(model.predict_cross_peaks(prepare_molecule("c1ccccc1"), SolventClass.UNKNOWN)) == 1
    ethanol = model.predict_cross_peaks(prepare_molecule("CCO"), SolventClass.UNKNOWN)
    assert 2 <= len(ethanol) <= 3
    # methylene peaks share their carbon shift
    ch2 = [p for p in ethanol if p.ch_unit.carbon_index == 1]
    assert len({p.delta_c for p in ch2}) == 1


def test_carbon_free_molecule_empty():
    model = CrossPeakModel(ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5)))
    assert model.predict_cross_peaks(prepare_molecule("O"), SolventClass.UNKNOWN) == []


def test_solvent_changes_h_not_c(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("CCO")
    for solvent in SolventClass:
        peaks = model.predict_cross_peaks(mol, solvent)
        ref = model.predict_cross_peaks(mol, SolventClass.CHLOROFORM)
        assert [p.delta_c for p in peaks] == [p.delta_c for p in ref]
    a = model.predict_cross_peaks(mol, SolventClass.CHLOROFORM)
    b = model.predict_cross_peaks(mol, SolventClass.WATER)
    assert any(x.delta_h != y.delta_h for x, y in zip(a, b))


def test_unknown_solvent_is_a_learned_row(tiny_config):
    model = CrossPeakModel(tiny_config)
    vec = model.encode_solvent(SolventClass.UNKNOWN)
    assert np.any(vec.values != 0.0)


def test_solvent_rows_independent(tiny_config):
    import hsqcnet.autodiff as ad

    model = CrossPeakModel(tiny_config)
    table = model.params["embed.solvent_h"]
    with ad.ComputeRecord() as rec:
        vec = model.encode_solvent(SolventClass.DMSO)
        loss = ad.mean_abs_error([vec], np.zeros(vec.values.size))
    ad.backward(loss, rec)
    dmso_row = list(SolventClass).index(SolventClass.DMSO)
    for row in range(table.values.shape[0]):
        if row == dmso_row:
            assert np.any(table.grad[row] != 0.0)
        else:
            assert np.all(table.grad[row] == 0.0)
    ad.zero_gradients(model.parameters())


def test_merge_tolerance_collapses_methylene():
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4,
                         mlp_hidden=(6, 5), merge_tolerance_h=1e9)
    model = CrossPeakModel(config)
    peaks = model.predict_cross_peaks(prepare_molecule("CCO"), SolventClass.UNKNOWN)
    assert len(peaks) == 2  # huge tolerance merges the CH2 pair


def test_predictions_finite_and_deterministic(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("Cc1ccc(C)cc1")
    a = model.predict_cross_peaks(mol, SolventClass.BENZENE)
    b = model.predict_cross_peaks(mol, SolventClass.BENZENE)
    assert [(p.delta_c, p.delta_h) for p in a] == [(p.delta_c, p.delta_h) for p in b]
    assert all(np.isfinite(p.delta_c) and np.isfinite(p.delta_h) for p in a)


@pytest.mark.parametrize("head", ["c_head", "h_head"])
def test_non_finite_prediction_names_the_first_carbon(tiny_config, head):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("OCC(C)C")
    first = model.predict_cross_peaks(mol, SolventClass.WATER)[0].ch_unit.carbon_index
    assert first == 1
    model.params[f"{head}.b3"].values[0] = np.nan
    with pytest.raises(FloatingPointError, match=f"non-finite prediction for carbon {first}$"):
        model.predict_cross_peaks(mol, SolventClass.WATER)


def test_state_round_trip(tiny_config):
    model = CrossPeakModel(tiny_config)
    state = model.state_arrays()
    other = CrossPeakModel(tiny_config)
    for p in other.parameters():
        p.values += 1.0
    other.load_state(state)
    for name in state:
        assert np.array_equal(other.params[name].values, state[name])
    bad = dict(state)
    bad.pop(next(iter(bad)))
    with pytest.raises(ValueError, match="mismatch"):
        other.load_state(bad)


def test_model_built_from_a_state_copies_it(tiny_config):
    rng = np.random.default_rng(8)
    state = {name: rng.normal(size=a.shape)
             for name, a in CrossPeakModel(tiny_config).state_arrays().items()}
    kept = {name: a.copy() for name, a in state.items()}
    built = CrossPeakModel(tiny_config, state=state)
    loaded = CrossPeakModel(tiny_config)
    loaded.load_state(state)
    assert list(built.params) == list(loaded.params)
    for name, p in built.params.items():
        assert np.array_equal(p.values, loaded.params[name].values), name
        assert not np.shares_memory(p.values, state[name]), name
    sample = Sample1D(prepare_molecule("CCO"), SolventClass.DMSO, {0: 18.0}, {3: 1.2})
    result = mtt_pretrain([sample], TrainConfig(epochs=1, batch_size=1, learning_rate=1e-2,
                                                validation_split=0.0),
                          model_config=tiny_config, init_state=state)
    assert not np.array_equal(result.final_state["c_head.b3"], state["c_head.b3"])
    for name, a in state.items():
        assert np.array_equal(a, kept[name]), name
    bad = dict(state)
    bad.pop("c_head.b3")
    with pytest.raises(ValueError, match="mismatch"):
        CrossPeakModel(tiny_config, state=bad)


def test_peak_count_formula_over_corpus(parser_corpus, tiny_config):
    # emitted peaks = hydrogen-bearing carbon classes, plus one extra slot
    # per representative methylene whose proton pair did not merge
    model = CrossPeakModel(tiny_config)
    for entry in parser_corpus["molecules"][::3]:
        mol = prepare_molecule(entry["smiles"])
        peaks = model.predict_cross_peaks(mol, SolventClass.UNKNOWN)
        classes_with_h = len({u.equivalence_key for u in mol.units})
        extra = sum(1 for p in peaks if p.peak_slot == 2)
        assert len(peaks) == classes_with_h + extra
        rep_ch2 = sum(1 for u in mol.units if u.is_representative and u.max_peaks == 2)
        assert extra <= rep_ch2


# every bond type and both stereo directions ("/" and "\" as written), and
# a molecule without edges
FACTORED_CASES = ["F/C=C/F", "F/C=C\\F", "C#C", "c1ccccc1", "CC(=O)O", "[C]"]


def _relative(got, want):
    return np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300)


@pytest.mark.parametrize("smiles", FACTORED_CASES)
def test_factored_message_map_matches_per_edge_reference(smiles):
    config = ModelConfig(num_layers=3, atom_dim=16, solvent_dim_h=4, mlp_hidden=(6, 5), seed=9)
    model = CrossPeakModel(config)
    levels = atom_levels(prepare_molecule(smiles).graph, config.num_layers)
    rng = np.random.default_rng(13)

    def run(encode, targets=None):
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as rec:
            layers = encode(model, levels)
            if targets is None:  # every residual at least 0.5 from its kink
                values = np.concatenate([t.values.reshape(-1) for t in layers])
                targets = values + rng.choice([-1.0, 1.0], values.size) * rng.uniform(
                    0.5, 1.0, values.size)
            ad.backward(ad.mean_abs_error(layers, targets), rec)
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        return [t.values for t in layers], grads, targets

    want_layers, want_grads, targets = run(reference_encode)
    got_layers, got_grads, _ = run(CrossPeakModel.encode_atoms, targets)
    for got, want in zip(got_layers, want_layers, strict=True):
        assert _relative(got, want) <= 1e-12
    for name, want in want_grads.items():
        assert _relative(got_grads[name], want) <= 1e-10, name
    d = config.atom_dim
    has_edges = levels.layers[0].src.size > 0
    for layer in range(1, config.num_layers + 1):
        w = got_grads[f"layer{layer}.msg.w"]
        assert w[:, :d].any() == has_edges and w[:, d:].any() == has_edges
    assert got_grads["embed.bond_type"].any() == has_edges
    assert got_grads["embed.direction"].any() == has_edges


def _peaks(model, molecule):
    return [(p.ch_unit.carbon_index, p.peak_slot, p.delta_c, p.delta_h)
            for p in model.predict_cross_peaks(molecule, SolventClass.DMSO)]


S, A = BondType.SINGLE, BondType.AROMATIC
CC = [("C", 0), ("C", 1)]


@pytest.mark.parametrize("atoms, bonds, message", [
    (CC, [((0, 1), S), ((1, 1), S)], "self-bond on atom 1"),
    (CC, [((0, 1), S), ((1, 0), S)], "duplicate bond between 1 and 0"),
    (CC, [((0, 1), A)], "aromatic bond between non-aromatic atoms 0, 1"),
    ([("C", 5), ("C", 1)], [((0, 1), S)], "atom 0 carries index 5"),
    ([("C", 0), ("Xx", 1)], [((0, 1), S)], "unknown element 'Xx' at atom 1"),
    (CC, [((0, 1), S), ((1, -1), S)], r"endpoints \(1, -1\) out of range"),
    (CC, [((0, 2), S)], r"endpoints \(0, 2\) out of range"),
], ids=["self-bond", "duplicate", "aromatic", "index", "element", "endpoint",
        "endpoint-past-end"])
def test_prepare_molecule_rejects_a_malformed_caller_graph(atoms, bonds, message):
    # a graph built without the parser is checked where it is built (bond
    # endpoints) or where it enters the model (the rest); each of these once
    # predicted peaks or escaped as a bare KeyError or IndexError
    with pytest.raises(ValueError, match=message):
        graph = MolecularGraph(atoms=[AtomSpec(element, index) for element, index in atoms],
                               bonds=[BondSpec(ends, kind) for ends, kind in bonds])
        prepare_molecule(graph)


def test_shared_molecule_serves_models_of_two_widths():
    # the scatter slots are cached per (index array, width) on each layer's
    # index, which the molecule's levels hold; alternating widths must read
    # the right ones
    narrow = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=16, seed=1))
    wide = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=64, seed=2))
    smiles = "CC(=O)OCc1ccccc1"
    shared = prepare_molecule(smiles)
    for _ in range(2):
        for model in (narrow, wide):
            assert _peaks(model, shared) == _peaks(model, prepare_molecule(smiles))
    for layer in shared.levels(2).layers:
        assert {width for _, width in layer._slots} == {16, 64}


def _lifting_corpus(parser_corpus, large_smiles, data_dir) -> list[str]:
    """The parser corpus, the toy sets and the benchmark's large molecules."""
    toy = [json.loads(line)["smiles"] for name in ("toy_1d", "toy_hsqc", "toy_expert")
           for line in (data_dir / f"{name}.jsonl").read_text().splitlines() if line.strip()]
    corpus = [e["smiles"] for e in parser_corpus["molecules"]]
    return list(dict.fromkeys(corpus + toy + list(large_smiles.values())))


def _assert_peaks_match_atom_level(model, molecule, text):
    """The peaks of ``molecule`` against those of its one-row-per-atom
    encode: the same keys, shifts within 1e-12 relative."""
    lifted, flat = _peaks(model, molecule), _peaks(model, atom_level(molecule))
    assert [p[:2] for p in lifted] == [p[:2] for p in flat], text
    for (*_, c, h), (*_, want_c, want_h) in zip(lifted, flat):
        assert abs(c - want_c) <= 1e-12 * abs(want_c), text
        assert abs(h - want_h) <= 1e-12 * abs(want_h), text


def _assert_lifted_encode_matches_atom_level(depth, molecules) -> tuple[int, int]:
    """Every layer's rows, read through its level's atom map, against the
    one-row-per-atom encode with each atom's edges in class order, and the
    peaks from them: bit for bit, or within 1e-12 where the two differ in
    rounding. Returns how many layers matched bit for bit and how many
    within 1e-12 only."""
    model = CrossPeakModel(ModelConfig(num_layers=depth, atom_dim=64 if depth <= 5 else 16,
                                       seed=3))
    bitwise = reordered = 0
    for smiles in molecules:
        molecule = prepare_molecule(smiles)
        flat = model.encode_atoms(class_ordered_levels(molecule.graph, depth))
        got_layers = model.encode_atoms(molecule.levels(depth))
        for level, (got, want) in enumerate(zip(got_layers, flat, strict=True)):
            got = got.values[molecule.levels(level).atom_row.array]
            if np.array_equal(got, want.values):
                bitwise += 1
            else:
                reordered += 1
                assert _relative(got, want.values) <= 1e-12, smiles
        _assert_peaks_match_atom_level(model, molecule, smiles)
    return bitwise, reordered


def test_lifted_encode_equals_the_atom_level_encode(parser_corpus, large_smiles, data_dir):
    bitwise, reordered = _assert_lifted_encode_matches_atom_level(
        5, _lifting_corpus(parser_corpus, large_smiles, data_dir))
    assert bitwise > 10 * reordered


# 45 layers run past the C80 chain's fixed point, 40 rounds of refinement
@pytest.mark.parametrize("depth", [1, 2, 45])
def test_lifted_encode_equals_the_atom_level_encode_at_other_depths(
        depth, parser_corpus, large_smiles, data_dir):
    bitwise, reordered = _assert_lifted_encode_matches_atom_level(
        depth, _lifting_corpus(parser_corpus, large_smiles, data_dir))
    assert bitwise > 10 * reordered


def test_levels_past_the_fixed_point_reuse_the_last_one(large_smiles):
    molecule = prepare_molecule(large_smiles["c80_chain"])
    layers = molecule.levels(45).layers
    rows = [molecule.levels(k).atom_row.bound for k in range(46)]
    fixed = rows.index(80)  # the C80 chain's 80 symmetry classes
    assert fixed == 40 and rows[fixed:] == [80] * (46 - fixed)
    # the layer reading the fixed point maps each row to itself, and every
    # layer above it is that layer again
    assert layers[fixed].own is None and layers[fixed].dst.max() == 79
    assert all(layer is layers[fixed] for layer in layers[fixed:])
    assert len({id(layer) for layer in layers[:fixed]}) == fixed


def test_rows_hold_the_atom_level_edges_into_the_representatives(parser_corpus, large_smiles,
                                                                 data_dir):
    # each layer's index, built from refinement's classes, against the
    # atom-level index: every atom of a row's class, its lowest one
    # included, has the row's edges, sources one level below, sorted by
    # edge type and then source row, and its row below is the row's own
    # (None where the level split nothing)
    for smiles in _lifting_corpus(parser_corpus, large_smiles, data_dir):
        molecule = prepare_molecule(smiles)
        flat = atom_levels(molecule.graph, 1)
        index = flat.layers[0]
        levels = molecule.levels(5)
        maps = [molecule.levels(k).atom_row.array for k in range(6)]
        reps = np.unique(maps[0], return_index=True)[1]  # each row's lowest atom
        for ids, atom_ids in zip(levels.ids, flat.ids, strict=True):
            assert ids.array.tolist() == atom_ids.array[reps].tolist(), smiles
        for layer, below, above in zip(levels.layers, maps, maps[1:]):
            rows = int(above.max()) + 1
            edges = [sorted(zip(layer.edge_type[layer.dst == row].tolist(),
                                layer.src[layer.dst == row].tolist())) for row in range(rows)]
            assert all(layer.src[layer.dst == row].tolist() == [u for _, u in edges[row]]
                       for row in range(rows)), smiles
            for atom, row in enumerate(above.tolist()):
                into = index.dst == atom
                assert sorted(zip(index.edge_type[into].tolist(),
                                  below[index.src[into]].tolist())) == edges[row], smiles
            own = below[np.unique(above, return_index=True)[1]]
            if layer.own is None:
                assert rows == int(below.max()) + 1 and own.tolist() == list(range(rows))
            else:
                assert layer.own.tolist() == own.tolist(), smiles


def test_large_molecules_encode_one_row_per_class_of_each_level(large_smiles):
    rows = {name: [prepare_molecule(large_smiles[name]).levels(k).atom_row.bound
                   for k in range(6)]
            for name in ("pep10", "pep30", "triglyceride", "c80_chain")}
    assert rows == {"pep10": [7, 25, 60, 98, 118, 122], "pep30": [7, 25, 62, 111, 175, 237],
                    "triglyceride": [5, 15, 30, 44, 61, 77], "c80_chain": [2, 3, 5, 7, 9, 11]}


@pytest.mark.parametrize("smiles", [
    "C[C@H](O)[C@@H](C)O",  # one class, two tetrahedral marks
    "F/C=C\\F",  # one class of carbons, each with its own '/' or '\\' neighbour
    "CC/C=C\\CC",
])
def test_atoms_the_layers_tell_apart_get_rows_of_their_own(smiles):
    # the symmetry classes join atoms that the layers read apart; the
    # levels, refined over what the layers read, keep them apart
    molecule = prepare_molecule(smiles)
    atoms = len(molecule.graph.atoms)
    assert molecule.classes.num_classes < atoms
    assert molecule.levels(5).atom_row.bound > molecule.classes.num_classes
    _assert_peaks_match_atom_level(CrossPeakModel(ModelConfig(seed=4)), molecule, smiles)


_MIRROR = str.maketrans({"/": "\\", "\\": "/"})
MIRRORED = CrossPeakModel(ModelConfig(seed=4))


@given(smiles_strings())
@example("C[C@H](O)[C@@H](C)O")
@example("F/C=C\\F")
@example("F/C=C/F")
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lifted_peaks_equal_the_atom_level_ones_beside_a_mirrored_copy(smiles):
    # beside a copy of itself with every tetrahedral mark and bond direction
    # flipped, a molecule's atoms share symmetry classes with the copy's but
    # not chirality or edge types
    flipped = smiles.replace("@@", "\0").replace("@", "@@").replace("\0", "@").translate(_MIRROR)
    for text in (smiles, f"{smiles}.{smiles}", f"{smiles}.{flipped}"):
        _assert_peaks_match_atom_level(MIRRORED, prepare_molecule(text), text)


def _assert_lifted_gradients_match_atom_level(smiles, depth):
    model = CrossPeakModel(ModelConfig(num_layers=depth, atom_dim=64 if depth <= 5 else 16,
                                       seed=8))
    molecule = prepare_molecule(smiles)
    assert molecule.levels(depth).atom_row.bound < len(molecule.graph.atoms)
    carbons = [a.index for a in molecule.graph.atoms if a.element == "C"]
    targets = np.full(3 * len(carbons), -10.0)  # below every output: no kink

    def gradients(mol):
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as rec:
            raw_c, raw_h = _heads(model, mol, SolventClass.WATER, carbons)
            assert min(raw_c.values.min(), raw_h.values.min()) > -10.0
            loss = ad.mean_abs_error([raw_c, raw_h], targets)
        ad.backward(loss, rec)
        return {name: p.grad.copy() for name, p in model.params.items()}

    got, want = gradients(molecule), gradients(atom_level(molecule))
    for name, grad in want.items():
        assert _relative(got[name], grad) <= 1e-12, name
    assert all(grad.any() for grad in got.values())


@pytest.mark.parametrize("smiles", ["Cc1ccc(C)cc1", "CCCCCCCCCC"])
def test_lifted_gradients_equal_the_atom_level_ones(smiles):
    _assert_lifted_gradients_match_atom_level(smiles, 5)


@pytest.mark.parametrize("depth", [1, 2, 45])
@pytest.mark.parametrize("smiles", ["Cc1ccc(C)cc1", "CCCCCCCCCC"])
def test_lifted_gradients_equal_the_atom_level_ones_at_other_depths(smiles, depth):
    _assert_lifted_gradients_match_atom_level(smiles, depth)


def test_each_encoder_layer_adds_one_tape_step():
    molecule = prepare_molecule("CC(=O)O")
    carbons = [0, 1]
    steps = []
    for layers in range(1, 5):
        model = CrossPeakModel(ModelConfig(num_layers=layers, atom_dim=8, solvent_dim_h=4,
                                           mlp_hidden=(6, 5)))
        with ad.ComputeRecord() as rec:
            _heads(model, molecule, SolventClass.DMSO, carbons)
        steps.append(len(rec))
    assert [b - a for a, b in zip(steps, steps[1:])] == [1, 1, 1], steps


def _assert_edges_match_walk(graph):
    index = atom_levels(graph, 1).layers[0]
    src, dst, types = reference_edge_arrays(graph)
    for name, want in (("src", src), ("dst", dst), ("edge_type", types)):
        got = getattr(index, name)
        assert got.dtype == np.intp and got.tolist() == want, name


def test_graph_index_matches_per_edge_walk_on_corpus(parser_corpus):
    for entry in parser_corpus["molecules"]:
        _assert_edges_match_walk(prepare_molecule(entry["smiles"]).graph)
    _assert_edges_match_walk(prepare_molecule("[C]").graph)  # no edges


@given(smiles_strings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_graph_index_matches_per_edge_walk_on_drawn_smiles(smiles):
    _assert_edges_match_walk(prepare_molecule(smiles).graph)


def _ch_bonds(molecule, carbons):
    """The C-H bonds the head rows of ``carbons`` read, one row per atom:
    (carbon of each bond, hydrogen of each bond)."""
    heads = HeadRows.of(atom_level(molecule), carbons)
    assert heads.h_index.array.dtype == heads.h_row.array.dtype == np.intp
    return heads.carbons.array[heads.h_row.array].tolist(), heads.h_index.array.tolist()


def _assert_ch_bonds_match_walk(molecule):
    carbons = [a.index for a in molecule.graph.atoms if a.element == "C"]
    assert _ch_bonds(molecule, carbons) == reference_ch_bonds(molecule.graph)


def test_ch_bonds_match_per_carbon_walk(parser_corpus, large_smiles):
    for smiles in [e["smiles"] for e in parser_corpus["molecules"]] + list(large_smiles.values()):
        _assert_ch_bonds_match_walk(prepare_molecule(smiles))


class _RecordingModel(CrossPeakModel):
    """Keeps the carbons' encoder rows of its last head evaluation: the
    carbons themselves on a molecule encoded one row per atom."""

    def head_outputs(self, molecule, solvent, rows):
        self.carbons = rows.carbons.array.tolist()
        return super().head_outputs(molecule, solvent, rows)


RECORDING = _RecordingModel(ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4,
                                        mlp_hidden=(6, 5), seed=2))


@given(smiles_strings(bracket_h=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_ch_bonds_and_proton_carbons_match_walks_on_drawn_smiles(smiles):
    # bracket [H] atoms may bond to two carbons; a proton target reads the
    # first carbon in the hydrogen's own adjacency, not the first C-H bond
    # listing it
    molecule = atom_level(prepare_molecule(smiles))
    _assert_ch_bonds_match_walk(molecule)
    graph = molecule.graph
    for hydrogen in sorted({h for u in molecule.units for h in u.hydrogen_indices}):
        RECORDING.atom_shift_tensors(molecule, SolventClass.DMSO,
                                     ShiftReads.of(molecule, [], [hydrogen]))
        first = next(nb for nb in graph.adjacency[hydrogen] if graph.atoms[nb].element == "C")
        assert RECORDING.carbons == [first]


@pytest.mark.parametrize("smiles, hydrogen, carbon, other", [
    ("C[H]CO", 1, 0, 2),  # H1 bonds to C0 first, then to C2
    ("OC1.C[H]1", 3, 2, 1),  # H3 bonds to C2 first, then closes the ring to C1
])
def test_proton_target_reads_the_first_carbon_in_its_adjacency(smiles, hydrogen, carbon, other):
    model = _RecordingModel(ModelConfig())
    molecule = atom_level(prepare_molecule(smiles))
    _, protons = model.atom_shift_tensors(molecule, SolventClass.DMSO,
                                          ShiftReads.of(molecule, [], [hydrogen]))
    assert model.carbons == [carbon]

    def slot_mean(c):
        _, raw_h = _heads(model, molecule, SolventClass.DMSO, [c])
        return ProtonReads.of([0], [1], [False]).outputs(raw_h).values[0]

    assert protons.values[0] == slot_mean(carbon)
    assert protons.values[0] != slot_mean(other)  # the other carbon would be a different target


def test_carbon_keeps_its_hydrogens_in_adjacency_order():
    molecule = prepare_molecule("[H]1.[H]C1")  # C2 bonds to H1, closes the ring to H0, then 3, 4
    assert _ch_bonds(molecule, [2]) == ([2, 2, 2, 2], [1, 0, 3, 4])


def _count_level_builds(monkeypatch) -> list[int]:
    """Wraps the level builder's ``_layer_index`` to record the rows of
    every layer index it builds, in order."""
    built = []
    original = model_module._layer_index

    def counted(classes, atoms, below):
        built.append(len(classes))
        return original(classes, atoms, below)

    monkeypatch.setattr(model_module, "_layer_index", counted)
    return built


def test_a_1d_sample_of_a_lifted_molecule_builds_no_atom_level_index(monkeypatch):
    molecule = prepare_molecule("Cc1ccc(C)cc1")  # p-xylene
    assert molecule.levels(5).atom_row.bound < len(molecule.graph.atoms)
    built = _count_level_builds(monkeypatch)
    hydrogens = [h for u in molecule.units for h in u.hydrogen_indices]
    Sample1D(molecule, SolventClass.CHLOROFORM, {0: 21.0, 1: 134.8},
             {hydrogens[0]: 2.3, hydrogens[-1]: 7.0})
    assert built == []


def test_prepare_and_a_second_prediction_build_no_encoder_index(monkeypatch):
    built = _count_level_builds(monkeypatch)
    model = CrossPeakModel(ModelConfig(seed=5))
    molecule = prepare_molecule("CC(=O)OCc1ccccc1")
    assert built == [] and molecule._levels == {}
    model.predict_cross_peaks(molecule, SolventClass.DMSO)
    first = list(built)
    assert first  # the first forward pass builds the levels
    model.predict_cross_peaks(molecule, SolventClass.WATER)
    model.atom_shift_tensors(molecule, SolventClass.DMSO, ShiftReads.of(molecule, [0, 1], []))
    assert built == first


def _layer_values(layer) -> tuple:
    """A layer index's arrays as lists, to compare two indexes by value."""
    own = None if layer.own is None else layer.own.tolist()
    return layer.src.tolist(), layer.dst.tolist(), layer.edge_type.tolist(), own


def test_one_molecule_serves_a_shallow_and_then_a_deep_model(monkeypatch):
    # each depth builds its levels once, in one pass of refinement, and
    # keeps them: a second forward pass at that depth builds nothing
    built = _count_level_builds(monkeypatch)
    smiles = "CCCCCCCCCC"  # decane: each of five rounds splits a class
    shared = prepare_molecule(smiles)
    for depth, layers_built in ((2, [3, 5]), (5, [3, 5, 7, 9, 10])):
        model = CrossPeakModel(ModelConfig(num_layers=depth, seed=depth))
        del built[:]
        peaks = _peaks(model, shared)
        assert built == layers_built
        assert _peaks(model, shared) == peaks and built == layers_built
        _assert_peaks_match_atom_level(model, shared, smiles)
        assert peaks == _peaks(model, prepare_molecule(smiles))
    shallow, deep = shared.levels(2), shared.levels(5)
    assert list(map(_layer_values, shallow.layers)) == list(map(_layer_values, deep.layers[:2]))
    assert [level.atom_row.bound for level in map(shared.levels, range(6))] == [2, 3, 5, 7, 9, 10]


@given(smiles_strings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_levels_of_each_depth_equal_the_first_levels_of_a_deep_build(smiles):
    # each depth refines from the seeds in a pass of its own, and a deeper
    # build starts with the same levels, by value
    shallow, deep = prepare_molecule(smiles), prepare_molecule(smiles).levels(45)
    rows = [deep.atom_row.array]  # each atom's row, read down level by level
    for layer in reversed(deep.layers):
        rows.insert(0, rows[0] if layer.own is None else layer.own[rows[0]])
    for depth in range(1, 6):
        levels = shallow.levels(depth)
        assert not any(ids.array.flags.writeable for ids in (*levels.ids, levels.atom_row))
        assert ([(ids.array.tolist(), ids.bound) for ids in levels.ids]
                == [(ids.array.tolist(), ids.bound) for ids in deep.ids])
        assert list(map(_layer_values, levels.layers)) == list(map(_layer_values,
                                                                   deep.layers[:depth]))
        assert levels.atom_row.array.tolist() == rows[depth].tolist()
        assert levels.atom_row.bound == int(rows[depth].max()) + 1


def test_molecules_indexes_and_proton_reads_compare_by_identity():
    # their fields hold numpy arrays, which no generated __eq__ can compare
    a, b = prepare_molecule("CCO"), prepare_molecule("CCO")
    reads = [ProtonReads.of([0, 1], [1, 2], [False, True]) for _ in range(2)]
    for x, y in ((a, b), (a.levels(5), b.levels(5)), (a.levels(5).layers[0], b.levels(5).layers[0]),
                 reads):
        assert x == x and x != y
    sample = Sample1D(a, SolventClass.DMSO, {0: 18.0}, {})
    assert sample == Sample1D(a, SolventClass.DMSO, {0: 18.0}, {})
    assert sample != Sample1D(b, SolventClass.DMSO, {0: 18.0}, {})


class _RaisingAdjacency:
    """Stands in for ``graph.adjacency``: any read fails."""

    def _fail(self, *args):
        raise AssertionError("graph.adjacency read after prepare")

    __getitem__ = __iter__ = __len__ = _fail


def test_forward_passes_never_read_the_adjacency():
    model = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=16, solvent_dim_h=4,
                                       mlp_hidden=(6, 5), seed=4))
    smiles = "CC(=O)OCc1ccccc1"  # methyl, methylene, aromatic C-H and a bare carbonyl carbon
    plain, blind = prepare_molecule(smiles), prepare_molecule(smiles)
    blind.graph.adjacency = _RaisingAdjacency()
    with pytest.raises(AssertionError, match="adjacency"):
        blind.graph.adjacency[0]
    solvent = SolventClass.DMSO
    peaks = model.predict_cross_peaks(plain, solvent)
    assert model.predict_cross_peaks(blind, solvent) == peaks
    need_c, need_h = [0, 1, 4, 5, 6], sorted({h for u in plain.units for h in u.hydrogen_indices})
    for got, want in zip(
        model.atom_shift_tensors(blind, solvent, ShiftReads.of(blind, need_c, need_h)),
        model.atom_shift_tensors(plain, solvent, ShiftReads.of(plain, need_c, need_h)),
        strict=True,
    ):
        assert np.array_equal(got.values, want.values)
    observed = [ObservedPeak(p.delta_c + 1.0, p.delta_h - 0.1, k) for k, p in enumerate(peaks)]
    labels = pseudo_annotate(plain, peaks, observed)
    grads = []
    for molecule in (plain, blind):
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as record:
            loss = _loss(model, LabelTarget.of(SampleHSQC(molecule, solvent, observed), labels))
        ad.backward(loss, record)
        grads.append((loss.item(), [p.grad.copy() for p in model.parameters()]))
    assert grads[0][0] == grads[1][0] > 0.0
    assert all(np.array_equal(a, b) for a, b in zip(grads[0][1], grads[1][1]))


HEAD_CASES = [
    # every carbon, the carbonyl one without hydrogens (a zero hydrogen mean)
    ("CC(=O)OCc1ccccc1", [0, 1, 4, 5, 6, 7, 8, 9, 10]),
    ("ClC(Cl)(Cl)Cl", []),  # no C-H unit: k = 0
]


@pytest.mark.parametrize("smiles, carbons", HEAD_CASES)
def test_head_outputs_match_the_joined_input_reference(smiles, carbons):
    model = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=16, solvent_dim_h=4,
                                       mlp_hidden=(6, 5), seed=4))
    molecule = prepare_molecule(smiles)
    for solvent in SolventClass:
        raw_c, raw_h = _heads(model, molecule, solvent, carbons)
        want_c, want_h = reference_heads(model, molecule, solvent, carbons)
        assert raw_c.shape == want_c.shape == (len(carbons), 1)
        assert raw_h.shape == want_h.shape == (len(carbons), 2)
        assert _relative(raw_c.values, want_c) <= 1e-12
        assert _relative(raw_h.values, want_h) <= 1e-12


def test_fused_heads_equal_the_affine_relu_chain_bit_for_bit(monkeypatch):
    # both heads, one carbon and several, the proton head's shared solvent
    # row: outputs and every parameter gradient
    config = ModelConfig(num_layers=2, atom_dim=16, solvent_dim_h=4, mlp_hidden=(12, 8), seed=7)
    molecule = prepare_molecule("CC(=O)OCc1ccccc1")
    runs = []
    for head in (ad.mlp_head, reference_mlp_head):
        monkeypatch.setattr(ad, "mlp_head", head)
        model = CrossPeakModel(config)
        steps, values = [], []
        for carbons in ([5], [0, 1, 4, 5, 6, 8]):
            ad.zero_gradients(model.parameters())
            with ad.ComputeRecord() as rec:
                raw_c, raw_h = _heads(model, molecule, SolventClass.METHANOL, carbons)
                loss = ad.mean_abs_error([raw_c, raw_h], np.linspace(-1.0, 1.0, 3 * len(carbons)))
            steps.append(len(rec))
            ad.backward(loss, rec)
            grads = {name: p.grad.copy() for name, p in model.params.items()}
            assert all(g.any() for name, g in grads.items() if "head" in name or "solvent" in name)
            values += [raw_c.values, raw_h.values, loss.values, *grads.values()]
        runs.append((steps, values))
    (fused_steps, fused), (chain_steps, chain) = runs
    assert [c - f for f, c in zip(fused_steps, chain_steps)] == [8, 8]  # 5 + 5 entries -> 1 + 1
    for got, want in zip(fused, chain, strict=True):
        assert np.array_equal(got, want)


def _unfused_message_layer(*args, activate=False, _layer=ad.message_layer):
    out = _layer(*args)
    return reference_relu(out) if activate else out


@pytest.mark.parametrize("num_layers", [1, 3])
def test_fused_encoder_equals_the_gather_add_relu_chain_bit_for_bit(monkeypatch, num_layers):
    # the embedding sums and the inter-layer relus, fused and as separate
    # ops: head outputs, loss and every parameter gradient
    config = ModelConfig(num_layers=num_layers, atom_dim=16, solvent_dim_h=4,
                         mlp_hidden=(12, 8), seed=5)
    molecule = prepare_molecule("CC(=O)OCc1ccccc1")
    carbons = [0, 1, 4, 5, 6, 8]
    runs = []
    for embed, layer in ((ad.embed, ad.message_layer), (reference_embed, _unfused_message_layer)):
        monkeypatch.setattr(ad, "embed", embed)
        monkeypatch.setattr(ad, "message_layer", layer)
        model = CrossPeakModel(config)
        with ad.ComputeRecord() as rec:
            raw_c, raw_h = _heads(model, molecule, SolventClass.CHLOROFORM, carbons)
            loss = ad.mean_abs_error([raw_c, raw_h], np.linspace(-1.0, 1.0, 3 * len(carbons)))
        steps = len(rec)
        ad.backward(loss, rec)
        grads = [p.grad.copy() for p in model.parameters()]
        assert all(g.any() for g in grads)
        runs.append((steps, [raw_c.values, raw_h.values, loss.values, *grads]))
    (fused_steps, fused), (chain_steps, chain) = runs
    # 3 + 2 gathers and 2 + 1 adds -> 2 embeddings, and one relu per inner layer
    assert chain_steps - fused_steps == 6 + num_layers - 1
    for got, want in zip(fused, chain, strict=True):
        assert np.array_equal(got, want)


def test_head_first_layer_gradient_by_column_block():
    # every entry of each column block of both heads' first weights (the
    # carbon rows, the hydrogen means, the shared solvent row), the
    # biases and the solvent rows against central differences
    config = ModelConfig(num_layers=1, atom_dim=4, solvent_dim_h=3, mlp_hidden=(6, 5), seed=12)
    model = CrossPeakModel(config)
    molecule = prepare_molecule("CC(=O)OC")
    carbons = [0, 1, 3]
    weights = np.random.default_rng(6).uniform(0.5, 1.5, size=(len(carbons), 3))

    def outputs():  # per carbon: the carbon output and the proton pair, weighted
        raw_c, raw_h = _heads(model, molecule, SolventClass.METHANOL, carbons)
        return [ad.scale(raw_c, weights[:, :1]), ad.scale(raw_h, weights[:, 1:])]

    ad.zero_gradients(model.parameters())
    with ad.ComputeRecord() as rec:
        out = outputs()
        # every residual 1 from the L1 kink: the loss is linear in the outputs
        targets = np.concatenate([t.values.reshape(-1) for t in out]) - 1.0
        total = ad.mean_abs_error(out, targets)
    loss = lambda: ad.mean_abs_error(outputs(), targets)
    ad.backward(total, rec)
    step = 1e-6
    for name in ("c_head.w1", "h_head.w1", "c_head.b1", "h_head.b1", "embed.solvent_h"):
        param = model.params[name]
        flat = param.values.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss().item()
            flat[k] = orig - step
            down = loss().item()
            flat[k] = orig
            assert param.grad.reshape(-1)[k] == pytest.approx(
                (up - down) / (2 * step), rel=1e-6, abs=1e-9), (name, k)
    d = config.atom_dim
    for name, blocks in (("c_head.w1", [(0, d)]),
                         ("h_head.w1", [(0, d), (d, 2 * d), (2 * d, 2 * d + 3)])):
        for lo, hi in blocks:
            assert model.params[name].grad[:, lo:hi].any(), (name, lo)
