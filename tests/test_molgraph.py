from __future__ import annotations

import pytest
from hypothesis import given, settings

from hsqcnet.molgraph import (
    Hybridization,
    add_explicit_hydrogens,
    canonical_equivalence_classes,
    enumerate_ch_units,
    molecular_weight,
    refine_labels,
    relabel_atoms,
)
from hsqcnet.model import prepare_molecule
from hsqcnet.smiles import parse_smiles

from helpers import (
    automorphism_orbits,
    infer_hybridization,
    reference_refine_labels,
    smiles_strings,
)


def expand(smiles):
    return infer_hybridization(add_explicit_hydrogens(parse_smiles(smiles)))


def test_add_hydrogens_methane():
    g = add_explicit_hydrogens(parse_smiles("C"))
    assert (len(g.atoms), len(g.bonds)) == (5, 4)
    assert sum(a.implicit_h for a in g.atoms) == 0


def test_add_hydrogens_benzene():
    g = add_explicit_hydrogens(parse_smiles("c1ccccc1"))
    assert (len(g.atoms), len(g.bonds)) == (12, 12)


def test_add_hydrogens_idempotent_on_explicit_input():
    g = add_explicit_hydrogens(parse_smiles("[H]C([H])([H])[H]"))
    assert len(g.atoms) == 5


def test_heavy_atoms_keep_prefix_indices():
    g0 = parse_smiles("CCO")
    g = add_explicit_hydrogens(g0)
    for i, atom in enumerate(g0.atoms):
        assert g.atoms[i].element == atom.element


@pytest.mark.parametrize("smiles, chiral_order", [
    ("N[C@H](C)C(=O)O", {1: [0, 8, 2, 3]}),
    ("[C@@H](F)(Cl)Br", {0: [4, 1, 2, 3]}),
])
def test_expansion_puts_the_hydrogen_into_the_chiral_order(smiles, chiral_order):
    graph = parse_smiles(smiles)
    g = add_explicit_hydrogens(graph)
    assert g.chiral_order == chiral_order
    ((center, order),) = chiral_order.items()
    assert all(order[k] in g.adjacency[center] for k in range(4))
    assert [g.atoms[i].element for i in order].count("H") == 1
    assert -1 in graph.chiral_order[center]  # the source is untouched


@pytest.mark.parametrize(
    "smiles,expected",
    [
        ("CC", [Hybridization.SP3, Hybridization.SP3]),
        ("C=C", [Hybridization.SP2, Hybridization.SP2]),
        ("C#C", [Hybridization.SP, Hybridization.SP]),
        ("C=C=C", [Hybridization.SP2, Hybridization.SP, Hybridization.SP2]),
        ("C[C@H](N)C=O", [Hybridization.SP3, Hybridization.SP3, Hybridization.SP3,
                          Hybridization.SP2, Hybridization.SP2]),
    ],
)
def test_hybridization_rules(smiles, expected):
    g = expand(smiles)
    assert [g.atoms[i].hybridization for i in range(len(expected))] == expected


def test_hydrogens_use_sp3_sentinel():
    g = expand("C")
    assert all(
        a.hybridization is Hybridization.SP3 for a in g.atoms if a.element == "H"
    )


def test_aromatic_atoms_are_sp2():
    g = expand("c1ccccc1")
    assert all(
        a.hybridization is Hybridization.SP2 for a in g.atoms if a.element == "C"
    )


def test_benzene_carbons_one_class():
    g = expand("c1ccccc1")
    classes = canonical_equivalence_classes(g)
    carbon_classes = {classes.class_id[i] for i in range(6)}
    assert len(carbon_classes) == 1


def test_ethanol_carbons_distinct():
    g = expand("CCO")
    classes = canonical_equivalence_classes(g)
    assert classes.class_id[0] != classes.class_id[1]


def test_para_xylene_matches_automorphism_oracle(parser_corpus):
    heavy = parse_smiles("Cc1ccc(C)cc1")
    oracle = automorphism_orbits(heavy)
    g = expand("Cc1ccc(C)cc1")
    refined = canonical_equivalence_classes(g)
    heavy_refined = refined.class_id[: len(heavy.atoms)]
    # the refinement must induce exactly the automorphism orbits here
    pairs = {(heavy_refined[i], oracle[i]) for i in range(len(heavy.atoms))}
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
    carbon_orbits = {oracle[i] for i, a in enumerate(heavy.atoms) if a.element == "C"}
    assert len(carbon_orbits) == 3


def test_refinement_reaches_fixed_point_quickly(parser_corpus):
    for entry in parser_corpus["molecules"]:
        g = expand(entry["smiles"])
        classes = canonical_equivalence_classes(g)
        assert classes.iterations <= len(g.atoms) + 1
        assert 1 <= classes.num_classes <= len(g.atoms)


def _assert_refinement_matches_per_round_lookup(graph):
    classes = canonical_equivalence_classes(graph)
    seeds = [(a.element, a.is_aromatic, a.hybridization.value) for a in graph.atoms]
    tie_broken = [(label, 1 if i == 0 else 2) for i, label in enumerate(classes.class_id)]
    for start in (seeds, tie_broken):
        assert refine_labels(graph, start) == reference_refine_labels(graph, start)


def test_refinement_matches_per_round_bond_lookup_on_corpus(parser_corpus):
    for entry in parser_corpus["molecules"]:
        _assert_refinement_matches_per_round_lookup(expand(entry["smiles"]))


@given(smiles_strings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_refinement_matches_per_round_bond_lookup_on_drawn_smiles(smiles):
    _assert_refinement_matches_per_round_lookup(expand(smiles))


def test_ch_unit_hydrogen_conservation(parser_corpus):
    for entry in parser_corpus["molecules"]:
        g = expand(entry["smiles"])
        classes = canonical_equivalence_classes(g)
        units = enumerate_ch_units(g, classes)
        carbon_bound_h = sum(
            1
            for a in g.atoms
            if a.element == "H"
            and any(g.atoms[nb].element == "C" for nb in g.adjacency[a.index])
        )
        assert sum(len(u.hydrogen_indices) for u in units) == carbon_bound_h


def test_ch_units_methane():
    g = expand("C")
    units = enumerate_ch_units(g, canonical_equivalence_classes(g))
    assert len(units) == 1
    assert units[0].max_peaks == 1


def test_ch_units_benzene_collapse():
    g = expand("c1ccccc1")
    units = enumerate_ch_units(g, canonical_equivalence_classes(g))
    assert len(units) == 6
    assert len({u.equivalence_key for u in units}) == 1
    assert sum(u.is_representative for u in units) == 1


def test_ch_units_methylene_two_peaks():
    g = expand("O=C1CCCCC1")
    units = enumerate_ch_units(g, canonical_equivalence_classes(g))
    assert units, "cyclohexanone has CH2 units"
    assert all(u.max_peaks == 2 for u in units)  # every CH here is a methylene


def test_quaternary_carbons_excluded():
    g = expand("CC(C)(C)C")
    units = enumerate_ch_units(g, canonical_equivalence_classes(g))
    assert all(u.carbon_index != 1 for u in units)


def test_molecular_weight_examples():
    assert molecular_weight(parse_smiles("C")) == pytest.approx(16.04, abs=0.01)
    assert molecular_weight(parse_smiles("c1ccccc1")) == pytest.approx(78.11, abs=0.01)
    assert molecular_weight(expand("c1ccccc1")) == pytest.approx(78.11, abs=0.01)


def test_molecular_weight_empty():
    from hsqcnet.molgraph import MolecularGraph

    assert molecular_weight(MolecularGraph(atoms=[], bonds=[])) == 0.0


def test_relabel_preserves_structure():
    g = expand("CCO")
    n = len(g.atoms)
    perm = list(reversed(range(n)))
    h = relabel_atoms(g, perm)
    h.validate()
    assert h.atoms[perm[0]].element == g.atoms[0].element
    assert len(h.bonds) == len(g.bonds)


def test_adjacency_symmetric(parser_corpus):
    for entry in parser_corpus["molecules"]:
        g = expand(entry["smiles"])
        for v, nbrs in enumerate(g.adjacency):
            for u in nbrs:
                assert v in g.adjacency[u]


def test_prepare_molecule_graph_is_the_two_step_expansion(parser_corpus):
    # prepare_molecule copies the parsed graph once and fills hybridization
    # in place on that copy
    for entry in parser_corpus["molecules"]:
        graph = parse_smiles(entry["smiles"])
        assert prepare_molecule(graph).graph == expand(entry["smiles"])
        assert graph == parse_smiles(entry["smiles"])  # the source is untouched
