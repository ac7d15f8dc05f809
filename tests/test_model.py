from __future__ import annotations

import numpy as np
import pytest

from hsqcnet import autodiff as ad
from hsqcnet.model import (
    EDGE_TYPES,
    CrossPeakModel,
    GraphIndex,
    ModelConfig,
    SolventClass,
    _parameter_shapes,
    count_parameters,
    graph_index,
    prepare_molecule,
)
from hsqcnet.molgraph import relabel_atoms
from hsqcnet.smiles import parse_smiles
from hsqcnet.train import Sample1D, TrainConfig, mtt_pretrain
from helpers import reference_encode


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(atom_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(solvent_dim_c=-1)
    with pytest.raises(ValueError, match="two layer widths"):
        ModelConfig(mlp_hidden=(6, 5, 4))
    for bad in ({"atom_dim": 8.5}, {"num_layers": True}, {"seed": -1}, {"mlp_hidden": 5},
                {"mlp_hidden": (6, 5.5)}, {"merge_tolerance_h": "x"},
                {"c_center": float("nan")}, {"c_scale": 0}, {"h_scale": -3.0},
                {"h_scale": float("inf")}):
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
    layers = model.encode_atoms(graph_index(mol.graph))
    for layer in layers:
        first = layer.values[0]
        for i in range(1, 6):
            assert np.allclose(layer.values[i], first, atol=1e-12, rtol=0)


def test_single_atom_graph_message_is_zero(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("[Na+]")
    layers = model.encode_atoms(graph_index(mol.graph))
    assert len(layers) == tiny_config.num_layers + 1
    assert np.all(np.isfinite(layers[-1].values[0]))


def test_uninferred_hybridization_rejected(tiny_config):
    from hsqcnet.molgraph import add_explicit_hydrogens

    graph = add_explicit_hydrogens(parse_smiles("C"))  # no inference step
    with pytest.raises(ValueError, match="hybridization"):
        graph_index(graph)


def test_permutation_equivariance_embeddings(tiny_config):
    model = CrossPeakModel(tiny_config)
    mol = prepare_molecule("CCO")
    rng = np.random.default_rng(5)
    base = model.encode_atoms(graph_index(mol.graph))[-1]
    n = len(mol.graph.atoms)
    perm = list(rng.permutation(n))
    permuted = relabel_atoms(mol.graph, perm)
    layers = model.encode_atoms(graph_index(permuted))[-1]
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


def test_solvent_dim_c_adds_table():
    with_c = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4,
                         solvent_dim_c=3, mlp_hidden=(6, 5))
    model = CrossPeakModel(with_c)
    assert "embed.solvent_c" in model.params
    mol = prepare_molecule("C")
    a = model.predict_cross_peaks(mol, SolventClass.CHLOROFORM)
    b = model.predict_cross_peaks(mol, SolventClass.WATER)
    assert a[0].delta_c != b[0].delta_c  # carbon head now sees the solvent


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
    index = prepare_molecule(smiles).index
    rng = np.random.default_rng(13)

    def run(encode, targets=None):
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as rec:
            layers = encode(model, index)
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
    has_edges = index.src.size > 0
    for layer in range(1, config.num_layers + 1):
        w = got_grads[f"layer{layer}.msg.w"]
        assert w[:, :d].any() == has_edges and w[:, d:].any() == has_edges
    assert got_grads["embed.bond_type"].any() == has_edges
    assert got_grads["embed.direction"].any() == has_edges


def _peaks(model, molecule):
    return [(p.ch_unit.carbon_index, p.peak_slot, p.delta_c, p.delta_h)
            for p in model.predict_cross_peaks(molecule, SolventClass.DMSO)]


def test_shared_molecule_serves_models_of_two_widths():
    # the scatter slots are cached per (edge array, width) on the molecule's
    # index; alternating widths must read the right ones
    narrow = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=16, seed=1))
    wide = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=64, seed=2))
    smiles = "CC(=O)OCc1ccccc1"
    shared = prepare_molecule(smiles)
    for _ in range(2):
        for model in (narrow, wide):
            assert _peaks(model, shared) == _peaks(model, prepare_molecule(smiles))
    assert {width for _, width in shared.index._slots} == {16, 64}


@pytest.mark.parametrize("field", ["src", "dst", "edge_type"])
@pytest.mark.parametrize("bad", [-1, "bound"])
def test_graph_index_rejects_out_of_range_edges(field, bad):
    index = prepare_molecule("CCO").index
    arrays = {name: getattr(index, name).copy() for name in
              ("src", "dst", "element", "chirality", "hybridization", "edge_type")}
    bound = EDGE_TYPES if field == "edge_type" else len(index.element)
    arrays[field][1] = bound if bad == "bound" else bad
    with pytest.raises(IndexError, match=field):
        GraphIndex(**arrays)


def test_each_encoder_layer_adds_at_most_two_tape_steps():
    molecule = prepare_molecule("CC(=O)O")
    carbons = [0, 1]
    steps = []
    for layers in range(1, 5):
        model = CrossPeakModel(ModelConfig(num_layers=layers, atom_dim=8, solvent_dim_h=4,
                                           mlp_hidden=(6, 5)))
        with ad.ComputeRecord() as rec:
            model.head_outputs(molecule, SolventClass.DMSO, carbons)
        steps.append(len(rec))
    assert all(0 < b - a <= 2 for a, b in zip(steps, steps[1:])), steps
