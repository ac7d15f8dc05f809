"""SMILES reader and canonical writer.

Covers the organic subset plus bracket atoms (charge, explicit H count,
isotopes accepted and discarded), ring closures 0-9 and %nn, branches,
dot-separated fragments, aromatic lowercase, '/' and '\\' directional
bonds, and '@'/'@@' tetrahedral marks. No external toolkit. The reader
rejects each fault ``MolecularGraph.validate`` looks for as it builds a
graph, so its graphs need no second check.

The writer orders atoms by symmetry class, formal charge and hydrogen
count before it breaks ties, so any atom order of one molecule gives one
string. Directional bonds are the exception: their marks are written as
the DFS meets them, and may depend on atom order. The writer walks with
explicit stacks, not recursion, so Python's recursion limit does not bound
the length of a chain it can write.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import replace
from itertools import combinations

from .elements import (
    AROMATIC_BRACKET,
    AROMATIC_ORGANIC,
    ATOMIC_MASS,
    ORGANIC_SUBSET,
    implicit_hydrogens,
)
from .molgraph import (
    AtomSpec,
    BondDirection,
    BondSpec,
    BondType,
    Chirality,
    Hybridization,
    MolecularGraph,
    canonical_equivalence_classes,
    refine_labels,
    set_hybridization,
)


class SmilesParseError(ValueError):
    """Malformed SMILES; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_BOND_SYMBOLS = {
    "-": (BondType.SINGLE, BondDirection.NONE),
    "=": (BondType.DOUBLE, BondDirection.NONE),
    "#": (BondType.TRIPLE, BondDirection.NONE),
    ":": (BondType.AROMATIC, BondDirection.NONE),
    "/": (BondType.SINGLE, BondDirection.END_UP_RIGHT),
    "\\": (BondType.SINGLE, BondDirection.END_DOWN_RIGHT),
}

_NO_BOND = (None, BondDirection.NONE)  # no bond symbol pending

# The tetrahedral marks, read and written; the writer flips a mark by taking
# the other member.
_TETRAHEDRAL = {"@": Chirality.COUNTERCLOCKWISE, "@@": Chirality.CLOCKWISE}

_BRACKET_RE = re.compile(
    r"^(?P<isotope>\d+)?"
    r"(?P<symbol>[A-Z][a-z]?|[a-z][a-z]?)"
    r"(?P<chiral>@{1,2}(?:TH[12]|AL[12]|SP[1-3]|TB\d{1,2}|OH\d{1,2})?)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>\+{1,2}|-{1,2}|\+\d+|-\d+)?"
    r"(?::\d+)?$"  # atom-map class, accepted and ignored
)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Implicit hydrogens of unbracketed atoms fill the organic-subset valences
    over ``MolecularGraph.bonding_number``, a sum of whole bond orders: an
    aromatic bond counts 1, plus one ring pi bond for an aromatic C or a
    two-coordinate aromatic N or P. Raises SmilesParseError naming the
    offending position for unbalanced parentheses, dangling ring closures,
    unknown elements, valence overflow, and kindred malformations.
    """
    if not text or not text.strip():
        raise SmilesParseError("empty SMILES", 0)
    text = text.strip()

    atoms: list[AtomSpec] = []
    bonds: list[BondSpec] = []
    bracketed: list[bool] = []
    positions: list[int] = []
    neighbor_order: list[list[int]] = []
    bonded_pairs: set[frozenset[int]] = set()

    prev: int | None = None
    pending: tuple[BondType | None, BondDirection] = _NO_BOND
    branch_stack: list[tuple[int | None, int]] = []
    # ring number -> (atom, position-in-text, slot index in neighbor_order,
    #                 bond type or None, direction as written opener->closer)
    open_rings: dict[int, tuple[int, int, int, BondType | None, BondDirection]] = {}

    def add_bond(
        a: int, b: int, btype: BondType | None, direction: BondDirection, pos: int
    ) -> None:
        pair = frozenset((a, b))
        if a == b:
            raise SmilesParseError("ring bond to the same atom", pos)
        if pair in bonded_pairs:
            raise SmilesParseError(f"duplicate bond between atoms {a} and {b}", pos)
        aromatic = atoms[a].is_aromatic and atoms[b].is_aromatic
        if btype is None:  # unwritten: aromatic between two aromatic atoms, else single
            btype = BondType.AROMATIC if aromatic else BondType.SINGLE
        elif btype is BondType.AROMATIC and not aromatic:
            raise SmilesParseError("aromatic bond between non-aromatic atoms", pos)
        bonded_pairs.add(pair)
        bonds.append(BondSpec((a, b), btype, direction))

    def new_atom(spec: AtomSpec, pos: int, was_bracket: bool, h_hint: int) -> None:
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(spec)
        bracketed.append(was_bracket)
        positions.append(pos)
        order: list[int] = []
        if prev is not None:
            add_bond(prev, idx, *pending, pos)
            neighbor_order[prev].append(idx)
            order.append(prev)
        elif pending != _NO_BOND:
            raise SmilesParseError("bond symbol with no preceding atom", pos)
        order.extend([-1] * h_hint)  # implicit-H slots for tetrahedral parity
        neighbor_order.append(order)
        pending = _NO_BOND
        prev = idx

    def close_ring(number: int, pos: int) -> None:
        nonlocal pending
        other, _opos, slot, obond, odir = open_rings.pop(number)
        btype, direction = pending
        if btype is not None and obond is not None:
            same = btype is obond and direction is _flip(odir)
            if not same:
                raise SmilesParseError(
                    f"conflicting bond symbols on ring closure {number}", pos
                )
        here = prev
        assert here is not None
        if obond is not None:
            # symbol was written at the opening site: orient opener -> closer
            add_bond(other, here, obond, odir, pos)
        else:
            # orientation closer -> opener, matching where the symbol sits
            add_bond(here, other, btype, direction, pos)
        neighbor_order[other][slot] = here
        neighbor_order[here].append(other)
        pending = _NO_BOND

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            if prev is None:
                raise SmilesParseError("branch with no preceding atom", i)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesParseError("unbalanced parenthesis", i)
            prev, _ = branch_stack.pop()
            i += 1
        elif ch in _BOND_SYMBOLS:
            if pending != _NO_BOND:
                raise SmilesParseError("two bond symbols in a row", i)
            pending = _BOND_SYMBOLS[ch]
            i += 1
        elif ch.isdigit() or ch == "%":
            if prev is None:
                raise SmilesParseError("ring closure with no preceding atom", i)
            if ch == "%":
                if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                    raise SmilesParseError("'%' needs two digits", i)
                number = int(text[i + 1 : i + 3])
                width = 3
            else:
                number = int(ch)
                width = 1
            if number in open_rings:
                close_ring(number, i)
            else:
                slot = len(neighbor_order[prev])
                neighbor_order[prev].append(-2)  # patched when the ring closes
                open_rings[number] = (prev, i, slot, *pending)
                pending = _NO_BOND
            i += width
        elif ch == ".":
            if pending != _NO_BOND:
                raise SmilesParseError("bond symbol before '.'", i)
            prev = None
            i += 1
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesParseError("unterminated bracket atom", i)
            spec, h_count = _parse_bracket(text[i + 1 : end], i + 1)
            spec.implicit_h = h_count
            hint = h_count if spec.chirality is not Chirality.NONE else 0
            new_atom(spec, i, was_bracket=True, h_hint=hint)
            i = end + 1
        elif ch.isupper():
            if i + 1 < n and ch + text[i + 1] in ORGANIC_SUBSET:
                symbol = ch + text[i + 1]
            elif ch in ORGANIC_SUBSET:
                symbol = ch
            elif ch in ATOMIC_MASS or (i + 1 < n and ch + text[i + 1] in ATOMIC_MASS):
                raise SmilesParseError(
                    f"element {ch!r} must be written in brackets", i
                )
            else:
                raise SmilesParseError(f"unknown element symbol {ch!r}", i)
            new_atom(AtomSpec(symbol), i, False, 0)
            i += len(symbol)
        elif ch.islower():
            if ch not in AROMATIC_ORGANIC:
                raise SmilesParseError(f"unknown element symbol {ch!r}", i)
            spec = AtomSpec(ch.upper(), is_aromatic=True)
            new_atom(spec, i, False, 0)
            i += 1
        else:
            raise SmilesParseError(f"unexpected character {ch!r}", i)

    if branch_stack:
        raise SmilesParseError("unbalanced parenthesis", branch_stack[-1][1])
    if open_rings:
        number, (atom, pos, *_rest) = next(iter(open_rings.items()))
        raise SmilesParseError(f"unmatched ring closure {number}", pos)
    if pending != _NO_BOND:
        raise SmilesParseError("dangling bond symbol", n - 1)
    if not atoms:
        raise SmilesParseError("SMILES has no atoms", 0)

    graph = MolecularGraph(atoms=atoms, bonds=bonds, source_smiles=text)
    for idx, atom in enumerate(atoms):
        if not bracketed[idx]:
            h = implicit_hydrogens(atom.element, graph.bonding_number(idx))
            if h < 0:
                raise SmilesParseError(
                    f"valence overflow on {atom.element}", positions[idx]
                )
            atom.implicit_h = h
        if atom.chirality is not Chirality.NONE:
            # ring slots (-2) were all patched by close_ring
            graph.chiral_order[idx] = list(neighbor_order[idx])
    return graph


def _flip(direction: BondDirection) -> BondDirection:
    if direction is BondDirection.END_UP_RIGHT:
        return BondDirection.END_DOWN_RIGHT
    if direction is BondDirection.END_DOWN_RIGHT:
        return BondDirection.END_UP_RIGHT
    return direction


def _parse_bracket(body: str, offset: int) -> tuple[AtomSpec, int]:
    m = _BRACKET_RE.match(body)
    if not m:
        raise SmilesParseError(f"malformed bracket atom [{body}]", offset)
    raw_symbol = m.group("symbol")
    aromatic = raw_symbol[0].islower()
    if aromatic and raw_symbol not in AROMATIC_BRACKET:
        raise SmilesParseError(f"unknown aromatic symbol {raw_symbol!r}", offset)
    symbol = raw_symbol.capitalize() if aromatic else raw_symbol
    if symbol not in ATOMIC_MASS:
        raise SmilesParseError(f"unknown element symbol {raw_symbol!r}", offset)

    tag = m.group("chiral")
    chiral = _TETRAHEDRAL.get(tag, Chirality.OTHER) if tag else Chirality.NONE

    h_count = 0
    if m.group("hcount"):
        digits = m.group("hcount")[1:]
        h_count = int(digits) if digits else 1

    charge = 0
    raw_charge = m.group("charge")
    if raw_charge:
        if raw_charge in ("+", "++", "-", "--"):
            charge = len(raw_charge) * (1 if raw_charge[0] == "+" else -1)
        else:
            charge = int(raw_charge)

    spec = AtomSpec(
        symbol,
        formal_charge=charge,
        chirality=chiral,
        is_aromatic=aromatic,
    )
    return spec, h_count


# ---------------------------------------------------------------------------
# Canonical re-emission
# ---------------------------------------------------------------------------


def canonical_ranks(graph: MolecularGraph, h_counts: list[int]) -> list[int]:
    """Total atom order of a hydrogen-folded graph whose atom ``i`` carries
    ``h_counts[i]`` hydrogens: symmetry refinement, split once more by
    formal charge and hydrogen count, then sequential tie-breaking.

    Fills the graph's hybridization in place, so the caller must own it.
    """
    set_hybridization(graph)
    classes = canonical_equivalence_classes(graph)
    labels = refine_labels(
        graph,
        [(c, a.formal_charge, h) for c, a, h in zip(classes, graph.atoms, h_counts)],
    )
    n = len(labels)
    while len(set(labels)) < n:
        counts: dict[int, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        target = min(lab for lab, c in counts.items() if c > 1)
        chosen = min(i for i, lab in enumerate(labels) if lab == target)
        seeds = [(lab, 1 if i == chosen else 2) for i, lab in enumerate(labels)]
        labels = refine_labels(graph, seeds)
    return labels


def canonical_smiles(graph: MolecularGraph) -> str:
    """Deterministic re-emission of the graph; used for dedup keys.

    Terminal hydrogens (explicit or previously materialized) fold back into
    hydrogen counts. Tetrahedral marks are re-oriented by neighbor-order
    parity so the emitted string parses back to an equivalent graph;
    extended ('Other') stereo marks do not round-trip.
    """
    folded, h_counts = _fold_hydrogens(graph)
    ranks = canonical_ranks(folded, h_counts)
    order = sorted(range(len(folded.atoms)), key=lambda i: ranks[i])
    visited: set[int] = set()
    pieces: list[str] = []
    for start in order:
        if start in visited:
            continue
        pieces.append(_emit_component(folded, h_counts, ranks, start, visited))
    return ".".join(pieces)


def _fold_hydrogens(graph: MolecularGraph) -> tuple[MolecularGraph, list[int]]:
    keep: list[int] = []
    fold_to: dict[int, int] = {}
    folded = [0] * len(graph.atoms)  # hydrogens folded into each atom
    for i, atom in enumerate(graph.atoms):
        if (
            atom.element == "H"
            and atom.formal_charge == 0
            and atom.chirality is Chirality.NONE
            and len(graph.adjacency[i]) == 1
            and graph.atoms[graph.adjacency[i][0]].element != "H"
        ):
            heavy = graph.adjacency[i][0]
            fold_to[i] = heavy
            folded[heavy] += 1
        else:
            keep.append(i)
    remap = {old: new for new, old in enumerate(keep)}
    atoms = []
    h_counts = []
    for old in keep:
        atoms.append(replace(
            graph.atoms[old], hybridization=Hybridization.UNSPECIFIED, implicit_h=0
        ))
        h_counts.append(graph.atoms[old].implicit_h + folded[old])
    bonds = [
        BondSpec(
            (remap[b.endpoints[0]], remap[b.endpoints[1]]), b.bond_type, b.direction
        )
        for b in graph.bonds
        if b.endpoints[0] not in fold_to and b.endpoints[1] not in fold_to
    ]
    chiral = {
        remap[a]: [remap[x] if x in remap else -1 for x in orderlist]
        for a, orderlist in graph.chiral_order.items()
        if a in remap
    }
    out = MolecularGraph(atoms=atoms, bonds=bonds, chiral_order=chiral)
    return out, h_counts


def _emit_component(
    graph: MolecularGraph,
    h_counts: list[int],
    ranks: list[int],
    start: int,
    visited: set[int],
) -> str:
    # pass 1: DFS tree and ring-closure edges in emission order, walked with
    # a stack of (atom, neighbours not yet tried) frames
    children: dict[int, list[int]] = {}
    ring_edges: list[tuple[int, int]] = []  # (first-emitted atom, second atom)
    seen_edges: set[frozenset[int]] = set()

    def enter(atom: int) -> tuple[int, Iterator[int]]:
        visited.add(atom)
        children[atom] = []
        return atom, iter(sorted(graph.adjacency[atom], key=lambda j: ranks[j]))

    stack = [enter(start)]
    while stack:
        atom, untried = stack[-1]
        for nb in untried:
            edge = frozenset((atom, nb))
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            if nb in visited:
                ring_edges.append((nb, atom))
            else:
                children[atom].append(nb)
                stack.append(enter(nb))
                break
        else:
            stack.pop()

    opens_at: dict[int, list[tuple[int, int]]] = {}
    closes_at: dict[int, list[tuple[int, int]]] = {}
    for num, (first, second) in enumerate(ring_edges, start=1):
        opens_at.setdefault(first, []).append((num, second))
        closes_at.setdefault(second, []).append((num, first))

    out: list[str] = []

    def bond_text(a: int, b: int) -> str:
        bond = graph.bond_between(a, b)
        if bond.direction is not BondDirection.NONE:
            forward = bond.endpoints == (a, b)
            up = bond.direction is BondDirection.END_UP_RIGHT
            return "/" if (up == forward) else "\\"
        if bond.bond_type is BondType.DOUBLE:
            return "="
        if bond.bond_type is BondType.TRIPLE:
            return "#"
        if bond.bond_type is BondType.SINGLE:
            if graph.atoms[a].is_aromatic and graph.atoms[b].is_aromatic:
                return "-"
        return ""

    def digit_text(num: int) -> str:
        return str(num) if num <= 9 else f"%{num:02d}"

    # pass 2: write each atom after its parent's bond, every child but the
    # last in parentheses; the work list holds (parent, atom) pairs and the
    # parentheses still to write
    work: list[tuple[int | None, int] | str] = [(None, start)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        parent, atom = item
        emitted_neighbors: list[int] = []
        if parent is not None:
            out.append(bond_text(parent, atom))
            emitted_neighbors.append(parent)
        h = h_counts[atom]
        bracket_h = _needs_bracket(graph, atom, h)
        if graph.atoms[atom].chirality in _TETRAHEDRAL.values():
            emitted_neighbors.extend([-1] * h)
        ring_partner_order = [p for _, p in opens_at.get(atom, [])] + [
            p for _, p in closes_at.get(atom, [])
        ]
        emitted_neighbors.extend(ring_partner_order)
        emitted_neighbors.extend(children[atom])
        out.append(_atom_text(graph, atom, h, bracket_h, emitted_neighbors))
        for num, partner in opens_at.get(atom, []):
            out.append(bond_text(atom, partner))
            out.append(digit_text(num))
        for num, _partner in closes_at.get(atom, []):
            out.append(digit_text(num))
        kids = children[atom]
        if kids:
            work.append((atom, kids[-1]))
        for kid in reversed(kids[:-1]):
            work.extend((")", (atom, kid), "("))
    return "".join(out)


def _needs_bracket(graph: MolecularGraph, atom: int, h: int) -> bool:
    spec = graph.atoms[atom]
    if spec.formal_charge != 0 or spec.chirality in _TETRAHEDRAL.values():
        return True
    if spec.element == "H":
        return True
    if spec.element not in ORGANIC_SUBSET:
        return True
    if spec.is_aromatic and spec.element.lower() not in AROMATIC_ORGANIC:
        return True
    inferred = implicit_hydrogens(spec.element, graph.bonding_number(atom))
    return inferred != h


def _atom_text(
    graph: MolecularGraph,
    atom: int,
    h: int,
    bracket: bool,
    emitted_neighbors: list[int],
) -> str:
    spec = graph.atoms[atom]
    symbol = spec.element.lower() if spec.is_aromatic else spec.element
    if not bracket:
        return symbol
    chiral_mark = ""
    if spec.chirality in _TETRAHEDRAL.values():
        flipped = _parity_is_odd(
            graph.chiral_order.get(atom, emitted_neighbors), emitted_neighbors
        )
        # the atom's own mark, or the other one when the order's parity is odd
        chiral_mark = next(
            mark for mark, chirality in _TETRAHEDRAL.items()
            if (chirality is spec.chirality) != flipped
        )
    h_mark = "" if h == 0 else ("H" if h == 1 else f"H{h}")
    if spec.formal_charge == 0:
        charge_mark = ""
    elif spec.formal_charge in (1, -1):
        charge_mark = "+" if spec.formal_charge > 0 else "-"
    else:
        charge_mark = f"{spec.formal_charge:+d}"
    return f"[{symbol}{chiral_mark}{h_mark}{charge_mark}]"


def _parity_is_odd(reference: list[int], emitted: list[int]) -> bool:
    """Parity of the permutation taking the reference neighbor order to the
    emitted one; -1 placeholders (implicit H) are matched positionally."""
    if sorted(reference) != sorted(emitted) or len(reference) < 2:
        return False
    slots: list[int | None] = list(reference)
    perm: list[int] = []
    for item in emitted:  # each to its first unused reference slot
        k = slots.index(item)
        slots[k] = None
        perm.append(k)
    return sum(a > b for a, b in combinations(perm, 2)) % 2 == 1
