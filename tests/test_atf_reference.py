"""Differential test: the closed-form almost toric diagrams against the
mutation replay kept in `atf_reference`.

The replay shrinks cuts while it runs, so node positions differ; the
polygons must agree up to an integral affine map and the corners must give
the same lens readouts.
"""

import pytest

import atf_reference as ref
from lenscalc.atf import AtfDiagram, affinely_equivalent, atf_for_markov, node_boundary_lens
from lenscalc.markov import enumerate_tree

DEPTH = 5


def readouts(d):
    return sorted(node_boundary_lens(d, i).canonical for i in range(len(d.nodes)))


@pytest.mark.parametrize("t", [t for t, _ in enumerate_tree(DEPTH)], ids=str)
def test_matches_replay(t):
    got = atf_for_markov(t)
    want = ref.atf_for_markov(t)
    assert affinely_equivalent(AtfDiagram(got.vertices), AtfDiagram(want.vertices))
    assert readouts(got) == readouts(want)
