from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqcnet.model import prepare_molecule
from hsqcnet.molgraph import BondDirection, BondType, Chirality, Hybridization, relabel_atoms
from hsqcnet.smiles import SmilesParseError, _parity_is_odd, canonical_smiles, parse_smiles

from helpers import graphs_isomorphic, reference_parity_is_odd, smiles_strings


def counts(graph):
    return (
        len(graph.atoms),
        len(graph.bonds),
        sum(a.implicit_h for a in graph.atoms),
    )


def test_methane():
    g = parse_smiles("C")
    assert counts(g) == (1, 0, 4)


def test_benzene_is_aromatic():
    g = parse_smiles("c1ccccc1")
    assert counts(g) == (6, 6, 6)
    assert all(a.is_aromatic for a in g.atoms)
    assert all(b.bond_type is BondType.AROMATIC for b in g.bonds)


def test_acetic_acid_double_bond_to_oxygen():
    g = parse_smiles("CC(=O)O")
    assert counts(g) == (4, 3, 4)
    doubles = [b for b in g.bonds if b.bond_type is BondType.DOUBLE]
    assert len(doubles) == 1
    elems = {g.atoms[i].element for i in doubles[0].endpoints}
    assert elems == {"C", "O"}


def test_unbalanced_parenthesis_names_position():
    with pytest.raises(SmilesParseError, match="parenthesis"):
        parse_smiles("C(")
    with pytest.raises(SmilesParseError, match="position 0"):
        parse_smiles(")C")


def test_unmatched_ring_closure():
    with pytest.raises(SmilesParseError, match="ring closure"):
        parse_smiles("C1CC")


def test_unknown_element():
    with pytest.raises(SmilesParseError, match="element"):
        parse_smiles("CQ")


def test_nonorganic_element_requires_brackets():
    with pytest.raises(SmilesParseError, match="brackets"):
        parse_smiles("CW")
    g = parse_smiles("C[Na]")
    assert g.atoms[1].element == "Na"


def test_valence_overflow():
    with pytest.raises(SmilesParseError, match="valence overflow"):
        parse_smiles("C(C)(C)(C)(C)C")


def test_empty_input():
    with pytest.raises(SmilesParseError):
        parse_smiles("")


@pytest.mark.parametrize("text", [".", "..", " . "])
def test_no_atoms_rejected(text):
    with pytest.raises(SmilesParseError, match="no atoms"):
        parse_smiles(text)


def test_aromatic_bond_outside_ring_rejected():
    with pytest.raises(SmilesParseError, match="aromatic bond"):
        parse_smiles("CC:C")


def test_bracket_charges():
    g = parse_smiles("[NH4+].[O-]C")
    assert g.atoms[0].formal_charge == 1
    assert g.atoms[0].implicit_h == 4
    assert g.atoms[1].formal_charge == -1
    g = parse_smiles("[Fe+2]")
    assert g.atoms[0].formal_charge == 2
    g = parse_smiles("[Ca++]")
    assert g.atoms[0].formal_charge == 2


def test_isotope_accepted_and_ignored():
    g = parse_smiles("[13CH4]")
    assert counts(g) == (1, 0, 4)
    assert g.atoms[0].element == "C"


def test_explicit_hydrogens_as_nodes():
    g = parse_smiles("[H]C([H])([H])[H]")
    assert counts(g) == (5, 4, 0)


def test_chirality_marks():
    g = parse_smiles("N[C@@H](C)C(=O)O")
    assert g.atoms[1].chirality is Chirality.CLOCKWISE
    g = parse_smiles("N[C@H](C)C(=O)O")
    assert g.atoms[1].chirality is Chirality.COUNTERCLOCKWISE


def test_directional_bonds():
    g = parse_smiles("F/C=C/F")
    dirs = [b.direction for b in g.bonds]
    assert BondDirection.END_UP_RIGHT in dirs
    assert any(b.bond_type is BondType.DOUBLE for b in g.bonds)


def test_percent_ring_closure():
    g = parse_smiles("C%10CCCCC%10")
    assert counts(g) == (6, 6, 12)


def test_ring_bond_symbol_on_either_side():
    g = parse_smiles("C=1CCCCC=1")
    assert sum(b.bond_type is BondType.DOUBLE for b in g.bonds) == 1
    with pytest.raises(SmilesParseError, match="conflicting"):
        parse_smiles("C=1CCCCC#1")


def test_duplicate_ring_bond_rejected():
    with pytest.raises(SmilesParseError, match="duplicate bond"):
        parse_smiles("C12CC12")


def test_dot_separates_components():
    g = parse_smiles("[Na+].[Cl-]")
    assert counts(g) == (2, 0, 0)


def test_corpus_counts(parser_corpus):
    for entry in parser_corpus["molecules"]:
        g = parse_smiles(entry["smiles"])
        got = counts(g)
        expected = (entry["atoms"], entry["bonds"], entry["implicit_h"])
        assert got == expected, f"{entry['smiles']}: {got} != {expected}"


def test_corpus_parses_pass_validate(parser_corpus):
    # parse_smiles rejects validate's faults as it builds a graph and runs
    # no second check; this holds that invariant
    for entry in parser_corpus["molecules"]:
        parse_smiles(entry["smiles"]).validate()


@given(smiles_strings(bracket_h=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drawn_parses_pass_validate(smiles):
    parse_smiles(smiles).validate()


def test_corpus_malformed(parser_corpus):
    for entry in parser_corpus["malformed"]:
        with pytest.raises(SmilesParseError, match=entry["error_contains"]):
            parse_smiles(entry["smiles"])


def test_round_trip_isomorphism(parser_corpus):
    for entry in parser_corpus["molecules"]:
        original = parse_smiles(entry["smiles"])
        emitted = canonical_smiles(original)
        reparsed = parse_smiles(emitted)
        assert graphs_isomorphic(original, reparsed), (
            f"{entry['smiles']} -> {emitted} lost structure"
        )


def test_canonical_is_stable_under_reparse(parser_corpus):
    for entry in parser_corpus["molecules"][::5]:
        first = canonical_smiles(parse_smiles(entry["smiles"]))
        second = canonical_smiles(parse_smiles(first))
        assert first == second


def test_canonical_folds_explicit_hydrogens():
    assert canonical_smiles(parse_smiles("[H]C([H])([H])[H]")) == "C"


@pytest.mark.parametrize(
    "first,second",
    [
        ("c1c[nH]cn1", "c1cnc[nH]1"),
        ("[CH2]CC", "CC[CH2]"),
        ("OCC[O-]", "[O-]CCO"),
        ("OC(=O)CC([O-])=O", "[O-]C(=O)CC(O)=O"),
        ("[NH3+]CC[NH2]", "NCC[NH3+]"),
    ],
)
def test_canonical_ranks_split_by_hydrogen_count_and_charge(first, second):
    # one molecule in two atom orders; its tied atoms differ only in
    # hydrogen count or formal charge
    assert canonical_smiles(parse_smiles(first)) == canonical_smiles(parse_smiles(second))


def test_canonical_is_invariant_under_relabelling(parser_corpus):
    # directional bonds are left out: their marks follow the DFS, not the ranks
    rng = random.Random(20241019)
    for entry in parser_corpus["molecules"]:
        graph = parse_smiles(entry["smiles"])
        if any(b.direction is not BondDirection.NONE for b in graph.bonds):
            continue
        expected = canonical_smiles(graph)
        for _ in range(5):
            perm = list(range(len(graph.atoms)))
            rng.shuffle(perm)
            assert canonical_smiles(relabel_atoms(graph, perm)) == expected, entry["smiles"]


def test_canonical_writer_needs_no_recursion():
    # wherever the DFS starts, its path runs at least 200 atoms deep, past
    # the recursion limit
    graph = parse_smiles("C" * 200 + "(C)" + "C" * 200 + "c1ccccc1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        text = canonical_smiles(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert counts(parse_smiles(text)) == counts(graph)
    assert canonical_smiles(parse_smiles(text)) == text


# neighbour orders of at most four entries; -1 is an implicit-H placeholder
# and may repeat
neighbour_orders = st.lists(st.integers(min_value=-1, max_value=4), max_size=4)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parity_by_inversions_matches_cycle_sorting(data):
    reference = data.draw(neighbour_orders)
    emitted = data.draw(st.one_of(st.permutations(reference), neighbour_orders))
    assert _parity_is_odd(reference, emitted) == reference_parity_is_odd(reference, emitted)


def test_canonical_leaves_its_input_alone():
    graph = parse_smiles("C[C@H](N)C=O")
    canonical_smiles(graph)
    assert graph == parse_smiles("C[C@H](N)C=O")
    assert all(a.hybridization is Hybridization.UNSPECIFIED for a in graph.atoms)
    prepared = prepare_molecule("C[C@H](N)C=O").graph
    canonical_smiles(prepared)
    assert prepared == prepare_molecule("C[C@H](N)C=O").graph
