"""Reference copy of the mutation-replay construction of almost toric
diagrams.

This is the original `atf_for_markov`: trade the three corners of the
standard triangle, then replay the triple's mutation word with
`transfer_cut`, halving every cut and retrying when a transfer is blocked.
It is built only on the public moves of `lenscalc.atf`.  It fails for some
triples from tree depth 6 on, so `tests/test_atf_reference.py` compares the
closed-form construction against it at depth <= 5 only.
"""

from __future__ import annotations

from fractions import Fraction

from lenscalc.atf import AtfDiagram, nodal_slide, nodal_trade, standard_cp2, transfer_cut
from lenscalc.errors import UnsupportedConfigurationError
from lenscalc.markov import MarkovTriple, mutation_path


def _shrink_cuts(d: AtfDiagram, factor: Fraction) -> AtfDiagram:
    """Slide every node towards its cut end so each cut has the given
    fraction of its current length."""
    out = d
    for i in range(len(d.nodes)):
        node = out.nodes[i]
        (ex, ey), (px, py) = node.cut_end, node.position
        target = (ex + (px - ex) * factor, ey + (py - ey) * factor)
        out = nodal_slide(out, i, target)
    return out


def atf_for_markov(t: MarkovTriple) -> AtfDiagram:
    """Almost toric diagram of CP^2 for a Markov triple: trade the three
    corners of the standard triangle, then replay the triple's mutation
    word, transferring the cut of the node carrying the mutated entry."""
    d = standard_cp2()
    for i in range(3):
        d = nodal_trade(d, i)
    entries = [1, 1, 1]
    node_for_entry = [0, 1, 2]
    for ch in mutation_path(t):
        slot = 0 if ch == "L" else 1
        ni = node_for_entry[slot]
        d = _transfer_with_retries(d, ni)
        others = [entries[k] for k in range(3) if k != slot]
        entries[slot] = 3 * others[0] * others[1] - entries[slot]
        order = sorted(range(3), key=lambda k: entries[k])
        entries = [entries[k] for k in order]
        node_for_entry = [node_for_entry[k] for k in order]
    return d


def _transfer_with_retries(d: AtfDiagram, node_index: int) -> AtfDiagram:
    factor = Fraction(1, 2)
    for _ in range(12):
        try:
            return transfer_cut(d, node_index)
        except UnsupportedConfigurationError:
            d = _shrink_cuts(d, factor)
    raise UnsupportedConfigurationError(
        "transfer remained blocked after shrinking all cuts"
    )
